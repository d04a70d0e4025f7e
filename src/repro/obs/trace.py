"""Causal request tracing for the simulated campus.

The paper's §3.6 asks for "monitoring tools ... to ease day-to-day
operations"; this module is the causal half of that answer.  A
:class:`TraceRecorder` collects **spans** — named intervals of virtual time
with parent/child links — threaded from the Venus syscall surface, through
the RPC fabric (the trace context rides on the :class:`~repro.rpc.messages.
Envelope`, exactly like a trace header on a real wire), into the Vice
server's operation handlers and down to individual disk accesses.  The
result is a tree per user-visible operation::

    venus.open /vice/usr/u/f
      rpc.call:FetchByFid  ws0-0 -> server0
        rpc.serve:FetchByFid  server0
          vice.fetch  fid=u-u:7
            disk.access  12288 B

Three design rules keep the instrument honest:

* **Zero cost when off.**  The default recorder on every simulator is the
  shared :data:`NULL_RECORDER`; its ``span()`` returns one preallocated
  no-op context manager, so untraced runs allocate nothing.  Hot paths may
  additionally guard on ``tracer.enabled``.
* **Virtual time is never perturbed.**  Recording only *reads* the clock
  (``sim.now`` plus a wall clock); it schedules no events, charges no CPU
  and draws no randomness, so every EXP table is byte-identical with
  tracing on or off.
* **Correct parentage under interleaving.**  Simulation processes
  interleave at every ``yield``, so a single global span stack would
  mis-attribute children.  The recorder keeps one stack per simulation
  process (the kernel exposes :attr:`Simulator.active_process`), and
  cross-process edges — an RPC hop, a spawned callback break — carry the
  parent explicitly.

Spans export as JSONL (one span per line) or as a Chrome-trace file that
loads directly in ``chrome://tracing`` and Perfetto.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Span",
    "TraceRecorder",
    "chrome_trace",
    "validate_coverage",
    "write_chrome_trace",
    "write_jsonl",
]


class Span:
    """One named interval of virtual time within a trace tree."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "component",
        "host",
        "start",
        "end",
        "wall_elapsed",
        "attrs",
        "error",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        component: str,
        host: str,
        start: float,
        attrs: Dict[str, Any],
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.host = host
        self.start = start
        self.end = start
        # Wall seconds elapsed while the span was open.  In a discrete-event
        # simulation this includes interleaved work by other processes; it is
        # a cost attribution aid, not an exclusive-time measurement.
        self.wall_elapsed = 0.0
        self.attrs = attrs
        self.error = ""

    @property
    def duration(self) -> float:
        """Virtual seconds covered by the span."""
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready record of the span."""
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "component": self.component,
            "host": self.host,
            "start": self.start,
            "duration": self.duration,
            "wall_elapsed": self.wall_elapsed,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.error:
            record["error"] = self.error
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} id={self.span_id} parent={self.parent_id}"
            f" t={self.start:.6f}+{self.duration:.6f}>"
        )


class _NullSpan:
    """The shared do-nothing span context (and span) of the null recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, **attrs) -> None:
        """Ignore attributes."""

    def rename(self, name: str) -> None:
        """Ignore renames."""


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The default recorder: tracing off, every operation a no-op.

    ``span()`` always returns the same preallocated context manager, so an
    untraced simulation pays one method call per instrumented site and
    allocates nothing — the overhead guard in the test suite pins this.
    """

    enabled = False
    spans: Tuple = ()

    __slots__ = ()

    def span(self, name: str, component: str = "", host: str = "",
             parent=None, **attrs) -> _NullSpan:
        """A no-op span context."""
        return _NULL_SPAN

    def current(self) -> None:
        """There is never a current span."""
        return None

    def context(self) -> None:
        """There is never a propagable context."""
        return None


NULL_RECORDER = NullRecorder()


class _LiveSpan:
    """Context manager driving one real span on a :class:`TraceRecorder`."""

    __slots__ = ("_recorder", "_span", "_stack", "_wall_start")

    def __init__(self, recorder: "TraceRecorder", name: str, component: str,
                 host: str, parent, attrs: Dict[str, Any]):
        recorder._ids += 1
        span_id = recorder._ids
        if parent is None:
            parent = recorder.current()
        if parent is None:
            recorder._traces += 1
            trace_id, parent_id = recorder._traces, None
        elif isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:  # a propagated (trace_id, span_id) context, e.g. off an Envelope
            trace_id, parent_id = parent
        self._recorder = recorder
        self._span = Span(trace_id, span_id, parent_id, name, component, host,
                          recorder.sim.now, attrs)
        stack = recorder._stack()
        stack.append(self._span)
        self._stack = stack
        self._wall_start = recorder._wall()

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        recorder = self._recorder
        span = self._span
        span.end = recorder.sim.now
        span.wall_elapsed = recorder._wall() - self._wall_start
        if exc is not None:
            span.error = f"{type(exc).__name__}: {exc}"
        try:
            self._stack.remove(span)
        except ValueError:  # pragma: no cover - defensive: double exit
            pass
        recorder.spans.append(span)
        recorder._drop_if_empty(self._stack)
        return False

    def add(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. hit vs miss)."""
        self._span.attrs.update(attrs)

    def rename(self, name: str) -> None:
        """Refine the span name once it is known (e.g. after RPC decode)."""
        self._span.name = name

    @property
    def span(self) -> Span:
        """The underlying span record."""
        return self._span


class TraceRecorder:
    """Collects spans from one simulation (attach with ``sim.tracer = r``)."""

    enabled = True

    def __init__(self, sim, wall_clock=time.perf_counter):
        self.sim = sim
        self.spans: List[Span] = []
        self._wall = wall_clock
        self._ids = 0
        self._traces = 0
        # One span stack per simulation process; ``None`` keys spans opened
        # outside any process (setup code, tests driving generators by hand).
        self._stacks: Dict[Any, List[Span]] = {}
        sim.tracer = self

    def attach(self, sim) -> "TraceRecorder":
        """Move the recorder to another simulator (multi-run trace files).

        Span and trace ids keep counting up, so spans from successive
        simulations coexist in one export without id collisions.
        """
        self.sim = sim
        sim.tracer = self
        return self

    # -- context -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        key = getattr(self.sim, "active_process", None)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        return stack

    def _drop_if_empty(self, stack: List[Span]) -> None:
        if not stack:
            for key, value in list(self._stacks.items()):
                if value is stack:
                    del self._stacks[key]
                    break

    def current(self) -> Optional[Span]:
        """The innermost open span of the currently running process."""
        stack = self._stacks.get(getattr(self.sim, "active_process", None))
        return stack[-1] if stack else None

    def context(self) -> Optional[Tuple[int, int]]:
        """The ``(trace_id, span_id)`` pair to propagate across a hop."""
        span = self.current()
        return (span.trace_id, span.span_id) if span is not None else None

    def span(self, name: str, component: str = "", host: str = "",
             parent=None, **attrs) -> _LiveSpan:
        """Open a span; use as ``with tracer.span(...) as span:``.

        ``parent`` overrides the ambient (per-process) parent: pass a
        :class:`Span` when handing work to a spawned process, or a
        ``(trace_id, span_id)`` tuple received from a peer.
        """
        return _LiveSpan(self, name, component, host, parent, attrs)

    # -- export ------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One span per line, JSON, in completion order."""
        write_jsonl(self.spans, path)

    def write_chrome_trace(self, path: str) -> None:
        """A ``chrome://tracing`` / Perfetto-loadable trace file."""
        write_chrome_trace(self.spans, path)


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------


def write_jsonl(spans: Iterable[Span], path: str) -> None:
    """Write spans as JSON Lines."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span.as_dict(), sort_keys=True))
            handle.write("\n")


def chrome_trace(spans: Iterable[Span]) -> Dict[str, Any]:
    """Spans as a Chrome-trace object (``{"traceEvents": [...]}``).

    Components map to trace "processes" and hosts to "threads", named via
    metadata events, so Perfetto renders one swim-lane per host grouped by
    layer.  Timestamps are virtual microseconds.
    """
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    for span in spans:
        component = span.component or "misc"
        host = span.host or "-"
        pid = pids.get(component)
        if pid is None:
            pid = pids[component] = len(pids) + 1
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": component}})
        tid = tids.get((component, host))
        if tid is None:
            tid = tids[(component, host)] = len(tids) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": host}})
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "wall_ms": round(span.wall_elapsed * 1000.0, 3),
        }
        args.update(span.attrs)
        if span.error:
            args["error"] = span.error
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": component,
            "pid": pid,
            "tid": tid,
            "ts": round(span.start * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path: str) -> None:
    """Write the Chrome-trace JSON for ``spans`` to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans), handle)
        handle.write("\n")


# ---------------------------------------------------------------------------
# coverage validation (used by ``make trace-smoke`` and the tests)
# ---------------------------------------------------------------------------

_FETCH_SERVES = {"rpc.serve:Fetch", "rpc.serve:FetchByFid"}
_STORE_SERVES = {"rpc.serve:Store", "rpc.serve:StoreByFid", "rpc.serve:CreateByFid"}


def _ancestry(span: Span, by_id: Dict[int, Span]) -> List[Span]:
    chain = []
    cursor: Optional[Span] = span
    seen = set()
    while cursor is not None and cursor.span_id not in seen:
        seen.add(cursor.span_id)
        chain.append(cursor)
        cursor = by_id.get(cursor.parent_id) if cursor.parent_id else None
    return chain


def _covers(spans: List[Span], serve_names: set, client_root: str) -> bool:
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.name != "disk.access":
            continue
        names = [ancestor.name for ancestor in _ancestry(span, by_id)]
        if (
            any(name in serve_names for name in names)
            and any(name.startswith("rpc.call:") for name in names)
            and any(name.startswith(client_root) for name in names)
        ):
            return True
    return False


def validate_coverage(spans: Iterable[Span]) -> List[str]:
    """Check a trace covers open→RPC→server→disk for a fetch and a store.

    Returns a list of failure messages (empty means the trace is complete).
    """
    spans = list(spans)
    problems = []
    if not spans:
        return ["trace contains no spans"]
    if not _covers(spans, _FETCH_SERVES, "venus.open"):
        problems.append(
            "no Fetch chain: need disk.access under rpc.serve:Fetch* under "
            "rpc.call:* under venus.open"
        )
    if not _covers(spans, _STORE_SERVES, "venus."):
        problems.append(
            "no Store chain: need disk.access under rpc.serve:Store*/Create* "
            "under rpc.call:* under a venus span"
        )
    return problems
