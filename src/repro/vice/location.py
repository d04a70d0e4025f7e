"""The replicated location database: mapping files to custodians.

Paper §3.1: "Each cluster server contains a complete copy of a location
database that maps files to Custodians... The size of the replicated
location database is relatively small because custodianship is on a subtree
basis."  Entries map a *mount path* in the shared name space to the volume
stored there, its custodian server, and any read-only replica sites.

The database changes slowly (subtree reassignment is an administrative,
human-initiated act), which is why full replication at every server is
tenable; :class:`repro.vice.server.ViceServer` propagates updates to all
replicas and the affected volume is offline during a move.

Replicas that hold the same version share one :class:`LocationState`: a
snapshot hands it over by reference, and a replica copies it before its
first local write.  Entries are read-only values, so a change is a new
entry and the copy never needs to go deeper than the two indexes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FileNotFound, InvalidArgument
from repro.rpc.marshal import Shared
from repro.storage import pathutil

__all__ = ["LocationDatabase", "LocationEntry", "LocationState"]


@dataclass(frozen=True)
class LocationEntry:
    """One custodianship assignment: a subtree and who stores it.

    Read-only (the lists are stored as tuples): every replica holding a
    version shares its entries, so an in-place write would leak into all
    of them.  Change one through :class:`LocationDatabase`.
    """

    mount_path: str
    volume_id: str
    custodian: str
    ro_servers: Tuple[str, ...] = ()
    # Read-write replica sites (custodian first) when the volume is
    # N-way replicated; empty otherwise.  See repro.vice.replication.
    # Erasure-coded stripes reuse the same list as slot-ordered stripe
    # members (index i holds fragment i).
    replicas: Tuple[str, ...] = ()
    # (k, m) when the volume is erasure-coded; None otherwise.  See
    # repro.vice.erasure.
    erasure: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        object.__setattr__(self, "ro_servers", tuple(self.ro_servers))
        object.__setattr__(self, "replicas", tuple(self.replicas))
        if self.erasure is not None:
            object.__setattr__(self, "erasure", tuple(self.erasure))

    def as_dict(self) -> Dict:
        """Marshal-friendly form."""
        record = {
            "mount_path": self.mount_path,
            "volume_id": self.volume_id,
            "custodian": self.custodian,
            "ro_servers": list(self.ro_servers),
        }
        # Only replicated entries carry the extra key, so the marshalled
        # bytes (and every byte-derived wire/CPU charge) of unreplicated
        # campuses are unchanged.
        if self.replicas:
            record["replicas"] = list(self.replicas)
        if self.erasure:
            record["erasure"] = list(self.erasure)
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "LocationEntry":
        """Inverse of :meth:`as_dict`."""
        return cls(
            mount_path=record["mount_path"],
            volume_id=record["volume_id"],
            custodian=record["custodian"],
            ro_servers=record.get("ro_servers", ()),
            replicas=record.get("replicas", ()),
            erasure=record.get("erasure") or None,
        )


class LocationState:
    """One version of the map: its entries indexed by mount path and volume.

    Every replica holding this version points at the same object, so no
    replica writes a state another may hold (``LocationDatabase._new_version``
    copies first).
    """

    __slots__ = ("by_path", "by_volume", "version")

    def __init__(self, by_path: Dict[str, LocationEntry],
                 by_volume: Dict[str, LocationEntry], version: int):
        self.by_path = by_path
        self.by_volume = by_volume
        self.version = version

    def copy(self) -> "LocationState":
        """A private copy; the entries themselves are values and stay shared."""
        return LocationState(dict(self.by_path), dict(self.by_volume), self.version)


class LocationDatabase:
    """One replica of the campus-wide location map."""

    # Bound on the resolve memo (distinct paths looked up between mapping
    # changes); cleared wholesale rather than LRU-tracked.
    _RESOLVE_CACHE_LIMIT = 8192

    def __init__(self):
        self._state = LocationState({}, {}, 0)
        # True once another replica may hold ``_state`` (it was handed out
        # by snapshot() or adopted from one): the next write copies it.
        self._shared = False
        # resolve() memo, this replica's own: raw path -> (entry, rest).
        # Mapping changes (add/remove/load_snapshot) clear it; a changed
        # entry is re-pointed in place (_replace).
        self._resolve_cache: Dict[str, Tuple[LocationEntry, str]] = {}
        self.resolve_hits = 0
        self.resolve_misses = 0

    @property
    def state(self) -> LocationState:
        """The version this replica holds (shared; never write it)."""
        return self._state

    @property
    def version(self) -> int:
        return self._state.version

    def __len__(self) -> int:
        return len(self._state.by_path)

    def _new_version(self) -> LocationState:
        """The state to change into the next version: this replica's own,
        copied first if another replica may hold it."""
        if self._shared:
            self._state = self._state.copy()
            self._shared = False
        self._state.version += 1
        return self._state

    def add(
        self,
        mount_path: str,
        volume_id: str,
        custodian: str,
        ro_servers: Sequence[str] = (),
        replicas: Sequence[str] = (),
        erasure: Optional[Sequence[int]] = None,
    ) -> LocationEntry:
        """Record a custodianship assignment."""
        mount_path = pathutil.normalize(mount_path)
        if mount_path in self._state.by_path:
            raise InvalidArgument(f"mount path {mount_path!r} already assigned")
        if volume_id in self._state.by_volume:
            raise InvalidArgument(f"volume {volume_id!r} already mounted")
        entry = LocationEntry(mount_path, volume_id, custodian, ro_servers,
                              replicas, erasure)
        state = self._new_version()
        state.by_path[mount_path] = entry
        state.by_volume[volume_id] = entry
        self._resolve_cache.clear()
        return entry

    def remove(self, mount_path: str) -> None:
        """Drop an assignment (volume deletion)."""
        mount_path = pathutil.normalize(mount_path)
        if mount_path not in self._state.by_path:
            raise FileNotFound(mount_path)
        state = self._new_version()
        del state.by_volume[state.by_path.pop(mount_path).volume_id]
        self._resolve_cache.clear()

    def resolve(self, vice_path: str) -> Tuple[LocationEntry, str]:
        """Longest-prefix match: ``(entry, path relative to the mount)``.

        ``vice_path`` is a path in the shared name space (no ``/vice``
        prefix — that is Virtue's mount point, invisible to Vice).
        """
        cached = self._resolve_cache.get(vice_path)
        if cached is not None:
            self.resolve_hits += 1
            return cached
        self.resolve_misses += 1
        by_path = self._state.by_path
        path = pathutil.normalize(vice_path)
        candidate = path
        while True:
            entry = by_path.get(candidate)
            if entry is not None:
                rest = path[len(candidate):] if candidate != "/" else path
                result = (entry, rest or "/")
                if len(self._resolve_cache) >= self._RESOLVE_CACHE_LIMIT:
                    self._resolve_cache.clear()
                self._resolve_cache[vice_path] = result
                return result
            if candidate == "/":
                raise FileNotFound(f"no custodian for {vice_path!r}")
            candidate = pathutil.dirname(candidate)

    def entry_for_volume(self, volume_id: str) -> LocationEntry:
        """The assignment holding ``volume_id``."""
        try:
            return self._state.by_volume[volume_id]
        except KeyError:
            raise FileNotFound(f"volume {volume_id!r} not mounted")

    def custodian_of(self, vice_path: str) -> str:
        """Convenience: the custodian server name for a path."""
        return self.resolve(vice_path)[0].custodian

    def _replace(self, volume_id: str, **fields) -> None:
        """Swap a volume's entry for a copy with ``fields`` changed."""
        old = self.entry_for_volume(volume_id)
        new = dataclasses.replace(old, **fields)
        state = self._new_version()
        state.by_path[new.mount_path] = new
        state.by_volume[volume_id] = new
        # The mapping is unchanged, so the memo stays; its tuples follow
        # the entry to its replacement.
        memo = self._resolve_cache
        for path, (entry, rest) in memo.items():
            if entry is old:
                memo[path] = (new, rest)

    def reassign(self, volume_id: str, new_custodian: str) -> None:
        """Point an assignment at a different server (volume move)."""
        self._replace(volume_id, custodian=new_custodian)

    def set_ro_servers(self, volume_id: str, ro_servers: Sequence[str]) -> None:
        """Update the read-only replica placement for a volume."""
        self._replace(volume_id, ro_servers=ro_servers)

    def set_replicas(self, volume_id: str, replicas: Sequence[str]) -> None:
        """Update the read-write replica membership for a volume."""
        self._replace(volume_id, replicas=replicas)

    def entries(self) -> List[LocationEntry]:
        """All assignments, sorted by mount path."""
        by_path = self._state.by_path
        return [by_path[p] for p in sorted(by_path)]

    def snapshot(self) -> Shared:
        """Full copy for replica synchronisation: the marshal-friendly
        record, carrying this version's state for an in-process receiver
        to adopt by reference (from now on this replica copies before it
        writes)."""
        self._shared = True
        return Shared(self._state, {
            "version": self.version,
            "entries": [e.as_dict() for e in self.entries()],
        })

    def load_snapshot(self, snapshot: Dict) -> None:
        """Replace local state with a replica snapshot: the carried state,
        shared, or — for a snapshot decoded from bytes — a private one
        rebuilt from the record."""
        if isinstance(snapshot, Shared):
            self._state, self._shared = snapshot.state, True
        else:
            by_path: Dict[str, LocationEntry] = {}
            by_volume: Dict[str, LocationEntry] = {}
            for record in snapshot["entries"]:
                entry = LocationEntry.from_dict(record)
                by_path[entry.mount_path] = entry
                by_volume[entry.volume_id] = entry
            self._state = LocationState(by_path, by_volume, snapshot["version"])
            self._shared = False
        self._resolve_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocationDatabase entries={len(self)} v{self.version}>"
