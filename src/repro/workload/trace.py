"""Trace recording and replay.

§3.6 anticipates "monitoring tools ... to recognize long-term changes in
user access patterns".  A :class:`TraceRecorder` captures the operation
stream a session generates; :func:`replay` re-executes a trace against any
other session — e.g. to replay one user's real day against a differently
configured campus, which is how several ablation benches hold the workload
fixed while varying the system.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Generator, List, Optional

from repro.errors import ReproError
from repro.virtue.session import UserSession

__all__ = ["TraceEvent", "TraceRecorder", "load_trace", "replay", "save_trace"]

_REPLAYABLE = ("read_file", "write_file", "stat", "listdir", "mkdir", "unlink")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded operation."""

    at: float  # virtual time of issue
    op: str  # one of _REPLAYABLE
    path: str
    size: int = 0  # payload bytes for writes


class TraceRecorder:
    """Wraps a session; records whole-file and metadata operations."""

    def __init__(self, session: UserSession):
        self.session = session
        self.events: List[TraceEvent] = []
        self._sim = session.workstation.sim

    def _note(self, op: str, path: str, size: int = 0) -> None:
        self.events.append(TraceEvent(self._sim.now, op, path, size))

    def read_file(self, path: str) -> Generator[Any, Any, bytes]:
        self._note("read_file", path)
        return (yield from self.session.read_file(path))

    def write_file(self, path: str, data: bytes) -> Generator:
        self._note("write_file", path, len(data))
        return (yield from self.session.write_file(path, data))

    def stat(self, path: str) -> Generator:
        self._note("stat", path)
        return (yield from self.session.stat(path))

    def listdir(self, path: str) -> Generator:
        self._note("listdir", path)
        return (yield from self.session.listdir(path))

    def mkdir(self, path: str) -> Generator:
        self._note("mkdir", path)
        return (yield from self.session.mkdir(path))

    def unlink(self, path: str) -> Generator:
        self._note("unlink", path)
        return (yield from self.session.unlink(path))


def save_trace(events: List[TraceEvent], path: str) -> None:
    """Persist a trace as JSON lines (one event per line)."""
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(asdict(event)) + "\n")


def load_trace(path: str) -> List[TraceEvent]:
    """Load a trace saved by :func:`save_trace`."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent(**json.loads(line)))
    return events


def replay(
    session: UserSession,
    events: List[TraceEvent],
    preserve_timing: bool = False,
    stop_on_error: bool = False,
) -> Generator[Any, Any, int]:
    """Re-execute a trace against ``session``; returns the failure count.

    With ``preserve_timing`` the replay reproduces the original
    inter-operation gaps; otherwise operations run back to back (a
    closed-loop stress replay).
    """
    sim = session.workstation.sim
    failures = 0
    previous_at: Optional[float] = None
    for event in events:
        if preserve_timing and previous_at is not None:
            gap = event.at - previous_at
            if gap > 0:
                yield float(gap)
        previous_at = event.at
        try:
            if event.op == "read_file":
                yield from session.read_file(event.path)
            elif event.op == "write_file":
                yield from session.write_file(event.path, b"r" * event.size)
            elif event.op == "stat":
                yield from session.stat(event.path)
            elif event.op == "listdir":
                yield from session.listdir(event.path)
            elif event.op == "mkdir":
                yield from session.mkdir(event.path)
            elif event.op == "unlink":
                yield from session.unlink(event.path)
            else:
                raise ReproError(f"unreplayable op {event.op!r}")
        except ReproError:
            failures += 1
            if stop_on_error:
                raise
    return failures
