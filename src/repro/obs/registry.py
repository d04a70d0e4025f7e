"""A unified, named metrics registry for every campus component.

Before this module existed, reading the campus meant attribute spelunking:
``venus.cache.hits`` here, ``server.node.calls_received.total`` there, a
``volume_traffic`` counter somewhere else.  The registry replaces that with
**named, typed instruments** read through one campus-wide
:meth:`MetricsRegistry.snapshot`.

Instrument kinds (each built on an existing :mod:`repro.sim.metrics`
primitive):

* **counter** — monotonically increasing event counts, possibly labelled
  (wraps :class:`~repro.sim.metrics.Counter` or a plain integer);
* **gauge** — a point-in-time value read at snapshot time;
* **histogram** — a latency/size distribution with percentiles (wraps
  :class:`~repro.sim.metrics.Samples`);
* **utilization** — mean/peak busy fractions (wraps
  :class:`~repro.sim.metrics.UtilizationTracker`).

A component class declares its instruments once, in a module-level
*table* ``{suffix: (kind, getter)}``, and each instance joins with one
call, ``metrics.attach(prefix, owner, TABLE)``.  The prefix is
``"<component>.<instance>"`` for one of many (``venus.ws0-0``), or
``"<component>"`` alone for a campus-wide owner (``faults``,
``availability``).  The instrument ``<prefix>.<suffix>`` reads
``getter(owner)`` when it is read, so it follows counter resets and
object replacement (``ITCSystem.reset_counters``, salvage rebuilding a
registry) with nothing registered again.  A suffix ending in ``.`` is a
*family*: its getter returns ``{key: source}`` and publishes one
instrument per key (``rpc.<host>.latency.<procedure>``).  The empty
suffix names the prefix itself (``net.route_cache``).  Names and
:class:`Instrument` objects are built only when they are read, so a
campus of thousands of hosts keeps one dict entry per attached owner,
not one closure per instrument.

Naming scheme: ``<component>.<instance>.<metric>[.<sub>]`` (or
``<component>.<metric>`` under a bare component) with dot-joined
lowercase segments, e.g. ``venus.ws0-0.cache.hits``,
``rpc.server0.latency.FetchByFid``, ``vice.server0.callbacks.held``.  See
``docs/observability.md`` for the full catalogue.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.sim.metrics import Counter, Samples, UtilizationTracker

__all__ = ["Instrument", "MetricsRegistry"]

# suffix -> (kind, getter(owner)); a family's getter returns {key: source}.
Table = Mapping[str, Tuple[str, Callable[[Any], Any]]]


def _itself(source: Any) -> Any:
    """A family member's getter: its source is the live value."""
    return source


class Instrument:
    """One named, typed metric: a kind plus its live value,
    ``getter(owner)``."""

    __slots__ = ("name", "kind", "_getter", "_owner")

    def __init__(self, name: str, kind: str, getter: Callable[[Any], Any],
                 owner: Any):
        self.name = name
        self.kind = kind
        self._getter = getter
        self._owner = owner

    def provider(self) -> Any:
        """The live object or value the instrument reads."""
        return self._getter(self._owner)

    def read(self) -> Dict[str, Any]:
        """The instrument's current value as a JSON-ready dict."""
        value = self._getter(self._owner)
        if self.kind == "counter":
            if isinstance(value, Counter):
                counts = value.as_dict()
                return {"type": "counter", "total": sum(counts.values()),
                        "counts": counts}
            if isinstance(value, dict):
                return {"type": "counter", "total": sum(value.values()),
                        "counts": dict(value)}
            return {"type": "counter", "total": int(value)}
        if self.kind == "gauge":
            return {"type": "gauge", "value": value}
        if self.kind == "histogram":
            samples: Samples = value
            return {
                "type": "histogram",
                "count": len(samples),
                "total": samples.total,
                "mean": samples.mean,
                "min": samples.minimum,
                "max": samples.maximum,
                "p50": samples.percentile(0.50),
                "p90": samples.percentile(0.90),
                "p99": samples.percentile(0.99),
            }
        if self.kind == "utilization":
            tracker: UtilizationTracker = value
            return {
                "type": "utilization",
                "mean": tracker.mean_utilization(),
                "peak": tracker.peak_utilization(),
            }
        raise ValueError(f"unknown instrument kind {self.kind!r}")

    def read_safe(self) -> Dict[str, Any]:
        """Like :meth:`read`, but a dead provider reads as unavailable.

        Providers read live components; after a host crash or a component
        replacement one can dangle (AttributeError on a torn-down object,
        KeyError on a dropped volume...).  A snapshot of the *whole*
        campus must not be held hostage by one dead instrument, so the
        failure is recorded in-band instead of propagating.
        """
        try:
            return self.read()
        except Exception:
            return {"type": self.kind, "unavailable": True}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instrument {self.kind} {self.name}>"


class _Group:
    """Every instance attached with one table: the table, split into
    plain rows and families, and ``{prefix: owner}``."""

    __slots__ = ("table", "rows", "families", "kinds", "members")

    def __init__(self, table: Table):
        self.table = table  # keeps the id() this group is keyed by alive
        self.rows = {suffix: row for suffix, row in table.items()
                     if not suffix.endswith(".")}
        self.families = [(suffix, kind, getter)
                         for suffix, (kind, getter) in table.items()
                         if suffix.endswith(".")]
        self.kinds = {kind for kind, _getter in table.values()}
        self.members: Dict[str, Any] = {}

    def family_member(self, name: str, suffix: str,
                      owner: Any) -> Optional[Instrument]:
        for family, kind, getter in self.families:
            if suffix.startswith(family):
                source = getter(owner).get(suffix[len(family):])
                if source is not None:
                    return Instrument(name, kind, _itself, source)
        return None

    def names(self, prefix: str, owner: Any) -> List[str]:
        names = [f"{prefix}.{suffix}" if suffix else prefix for suffix in self.rows]
        for family, _kind, getter in self.families:
            names.extend(f"{prefix}.{family}{key}" for key in getter(owner))
        return names

    def instruments(self, prefix: str, owner: Any,
                    kind: Optional[str]) -> List[Instrument]:
        found = [Instrument(f"{prefix}.{suffix}" if suffix else prefix,
                            row_kind, getter, owner)
                 for suffix, (row_kind, getter) in self.rows.items()
                 if kind is None or row_kind == kind]
        for family, row_kind, getter in self.families:
            if kind is None or row_kind == kind:
                found.extend(Instrument(f"{prefix}.{family}{key}", row_kind,
                                        _itself, source)
                             for key, source in getter(owner).items())
        return found


class MetricsRegistry:
    """All instruments of one simulated campus, under one namespace."""

    def __init__(self):
        # component -> {id(table): group}: a name's component picks the
        # few groups its member can be in.
        self._groups: Dict[str, Dict[int, _Group]] = {}

    # -- registration ------------------------------------------------------

    def attach(self, prefix: str, owner: Any, table: Table) -> None:
        """Publish ``table``'s instruments of ``owner`` under ``prefix``
        (``"<component>.<instance>"``, or a bare ``"<component>"``).
        Attaching again under the same prefix replaces the earlier
        member: a component rebuilt on the same host owns its names."""
        component, dot, instance = prefix.partition(".")
        if not component or (dot and (not instance or "." in instance)):
            raise ValueError("attach prefix must be '<component>' or "
                             f"'<component>.<instance>', got {prefix!r}")
        groups = self._groups.setdefault(component, {})
        for group in groups.values():
            group.members.pop(prefix, None)
        group = groups.get(id(table))
        if group is None:
            group = groups[id(table)] = _Group(table)
        group.members[prefix] = owner

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        count = 0
        for group in self._all_groups():
            count += len(group.members) * len(group.rows)
            for _family, _kind, getter in group.families:
                for owner in group.members.values():
                    count += len(getter(owner))
        return count

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument registered under ``name``, or None."""
        dot = name.find(".")
        groups = self._groups.get(name[:dot] if dot > 0 else name)
        if groups is None or name.endswith("."):
            return None
        # An instance member's prefix is the name up to its second dot; a
        # bare component's, tried only when no instance matches, up to
        # its first.
        if dot < 0:
            splits = ((name, ""),)
        else:
            cut = name.find(".", dot + 1)
            splits = ((name, "") if cut < 0 else (name[:cut], name[cut + 1:]),
                      (name[:dot], name[dot + 1:]))
        for prefix, suffix in splits:
            for group in groups.values():
                owner = group.members.get(prefix)
                if owner is not None:
                    row = group.rows.get(suffix)
                    if row is not None:
                        return Instrument(name, row[0], row[1], owner)
                    return group.family_member(name, suffix, owner)
        return None

    def _all_groups(self) -> Iterator[_Group]:
        for groups in self._groups.values():
            yield from groups.values()

    def _members(self, prefix: str, kind: Optional[str] = None):
        """``(group, member, owner, whole)`` for every member that may
        publish a name under ``prefix`` (an instrument of ``kind``);
        ``whole`` when all of its names do."""
        for group in self._all_groups():
            if kind is not None and kind not in group.kinds:
                continue
            for member, owner in group.members.items():
                if member.startswith(prefix):
                    yield group, member, owner, True
                elif prefix.startswith(member):
                    yield group, member, owner, False

    def _sorted(self, prefix: str, kind: Optional[str] = None) -> List[Instrument]:
        """Every instrument under ``prefix`` (of ``kind``), by name."""
        found = []
        for group, member, owner, whole in self._members(prefix, kind):
            instruments = group.instruments(member, owner, kind)
            found.extend(instruments if whole else
                         [i for i in instruments if i.name.startswith(prefix)])
        found.sort(key=lambda instrument: instrument.name)
        return found

    def names(self, prefix: str = "") -> List[str]:
        """Sorted instrument names, optionally filtered by prefix."""
        found = []
        for group, member, owner, whole in self._members(prefix):
            names = group.names(member, owner)
            found.extend(names if whole else
                         [name for name in names if name.startswith(prefix)])
        found.sort()
        return found

    def value(self, name: str) -> Dict[str, Any]:
        """One instrument's current reading (raises KeyError if absent)."""
        instrument = self.get(name)
        if instrument is None:
            raise KeyError(name)
        return instrument.read()

    def histograms(self, prefix: str = "") -> Dict[str, Samples]:
        """The live ``Samples`` bags under a prefix (for aggregation)."""
        found = {}
        for instrument in self._sorted(prefix, "histogram"):
            bag = instrument.provider()
            if isinstance(bag, Samples):
                found[instrument.name] = bag
        return found

    def snapshot(self, prefix: str = "") -> Dict[str, Dict[str, Any]]:
        """Every instrument's current reading, as one JSON-ready dict.

        This is the single read surface the dashboard, the CLI's
        ``metrics.json`` record file, and the benchmark harness use.  An
        instrument whose provider raises (dead component after a host
        crash or component replacement) is reported as
        ``{"type": <kind>, "unavailable": True}`` rather than poisoning
        the whole snapshot.
        """
        return {instrument.name: instrument.read_safe()
                for instrument in self._sorted(prefix)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry instruments={len(self)}>"
