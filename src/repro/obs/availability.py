"""Availability accounting: outages, MTTR and recovery latency.

The paper's operational sections promise that a workstation "with a small
number of files cached" can keep working through Vice outages, and that a
crashed custodian returns to service after a salvage pass.  This module
makes those claims measurable.  An :class:`AvailabilityTracker` receives
every user-visible operation outcome plus every injected fault and
recovery (from :mod:`repro.faults`), and derives:

* **availability** — the fraction of attempted operations that succeeded,
  campus-wide and per user;
* **outage episodes** — per user, an episode opens at the first failed
  operation and closes at the next success; episode durations feed the
  MTTR (mean-time-to-repair as the *user* experiences it) distribution;
* **time to first success** — for each recovery event, how long until any
  user's next successful operation;
* **a timeline** — every fault, recovery and outage episode with its
  virtual timestamp, exportable as JSON next to the Chrome trace.

The tracker keeps counts, episodes and the MTTR/TTFS samples; every
record it makes (fault, recovery, salvage, failover, outage begin/end)
goes to the campus ops log (:class:`~repro.obs.live.OpsEventStream`,
``campus.ops``) and nowhere else, and the timeline is rendered from that
log.  The tracker is pure bookkeeping: it never yields, draws randomness
or advances virtual time, so recording outcomes cannot perturb a run.  It
and the log are created only when a fault plan is installed
(``ITCSystem.install_faults``); unfaulted campuses carry
``availability = None`` and skip even the method calls.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.sim.metrics import Samples

__all__ = ["AvailabilityTracker", "OutageEpisode"]

# The tracker's registry instruments, published as availability.<suffix>.
INSTRUMENTS = {
    "ops": ("counter", lambda tracker: {"success": tracker.successes,
                                        "failure": tracker.failures}),
    "ratio": ("gauge", lambda tracker: tracker.availability),
    "outages": ("gauge", lambda tracker: len(tracker.episodes)),
    "open_outages": ("gauge", lambda tracker: len(tracker._open)),
    "events": ("counter", lambda tracker: tracker.counters),
    "mttr": ("histogram", lambda tracker: tracker.mttr),
    "ttfs": ("histogram", lambda tracker: tracker.ttfs),
}

# The log records the timeline shows as they are; outages it renders from
# the tracker's episodes.
_TIMELINE_EVENTS = ("fault", "recovery", "salvage", "failover")


class OutageEpisode:
    """One user's contiguous run of failed operations."""

    __slots__ = ("user", "start", "end", "failures")

    def __init__(self, user: str, start: float):
        self.user = user
        self.start = start
        self.end: Optional[float] = None  # None while still open
        self.failures = 1

    @property
    def duration(self) -> Optional[float]:
        """Seconds from first failure to next success (None while open)."""
        return None if self.end is None else self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "user": self.user,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "failures": self.failures,
        }


class AvailabilityTracker:
    """Campus-wide operation availability and repair-time bookkeeping;
    its records go to the ops log ``ops``."""

    def __init__(self, sim, ops):
        self.sim = sim
        self.ops = ops
        self.attempts = 0
        self.successes = 0
        self.failures = 0
        self._per_user: Dict[str, Dict[str, int]] = {}
        self._open: Dict[str, OutageEpisode] = {}
        self.episodes: List[OutageEpisode] = []
        self.mttr = Samples("availability-mttr")
        self.ttfs = Samples("availability-ttfs")
        # Recovery instants still waiting for their first campus success.
        self._awaiting_success: List[float] = []
        # Injection/repair counters maintained by the fault scheduler.
        self.counters: Dict[str, int] = {
            "faults_injected": 0,
            "recoveries": 0,
            "salvages": 0,
        }
        sim.metrics.attach("availability", self, INSTRUMENTS)

    # -- operation outcomes ------------------------------------------------

    def record_op(self, user: str, ok: bool, now: Optional[float] = None) -> None:
        """One user-visible operation attempt and its outcome."""
        if now is None:
            now = self.sim.now
        self.attempts += 1
        stats = self._per_user.get(user)
        if stats is None:
            stats = self._per_user[user] = {"attempts": 0, "successes": 0,
                                            "failures": 0}
        stats["attempts"] += 1
        if ok:
            self.successes += 1
            stats["successes"] += 1
            episode = self._open.pop(user, None)
            if episode is not None:
                episode.end = now
                self.episodes.append(episode)
                self.mttr.add(episode.duration)
                self.ops.emit("outage_end", t=now, user=user,
                              start=episode.start, duration=episode.duration,
                              failures=episode.failures)
            if self._awaiting_success:
                for recovered_at in self._awaiting_success:
                    self.ttfs.add(now - recovered_at)
                self._awaiting_success.clear()
        else:
            self.failures += 1
            stats["failures"] += 1
            episode = self._open.get(user)
            if episode is None:
                self._open[user] = OutageEpisode(user, now)
                self.ops.emit("outage_begin", t=now, user=user)
            else:
                episode.failures += 1

    # -- fault/recovery events (from the scheduler) ------------------------

    def record_fault(self, kind: str, target: str,
                     now: Optional[float] = None, **detail) -> None:
        """An injected fault took effect."""
        self.counters["faults_injected"] += 1
        self.ops.emit("fault", t=now, kind=kind, target=target, **detail)

    def record_recovery(self, kind: str, target: str,
                        now: Optional[float] = None, **detail) -> None:
        """An injected fault was reverted; starts a time-to-first-success
        clock that the next successful operation stops."""
        if now is None:
            now = self.sim.now
        self.counters["recoveries"] += 1
        self._awaiting_success.append(now)
        self.ops.emit("recovery", t=now, kind=kind, target=target, **detail)

    def record_failover(self, volume_id: str, old_primary: str,
                        new_primary: str, now: Optional[float] = None) -> None:
        """The replication controller promoted a new primary for a volume.

        The ``failovers`` counter key is created lazily so campuses that
        never fail over (every pre-replication run) keep the exact
        ``events`` dict they always had.
        """
        self.counters["failovers"] = self.counters.get("failovers", 0) + 1
        self.ops.emit("failover", t=now, volume=volume_id,
                      old_primary=old_primary, new_primary=new_primary)

    def record_salvage(self, target: str, volumes: int,
                       now: Optional[float] = None) -> None:
        """A post-crash salvage pass completed on a server."""
        self.counters["salvages"] += 1
        self.ops.emit("salvage", t=now, target=target, volumes=volumes)

    # -- reading -----------------------------------------------------------

    @property
    def availability(self) -> float:
        """Fraction of attempted operations that succeeded (1.0 when idle)."""
        return self.successes / self.attempts if self.attempts else 1.0

    def open_episodes(self) -> List[OutageEpisode]:
        """Outage episodes still open (no success yet), by user order."""
        return list(self._open.values())

    def per_user(self) -> Dict[str, Dict[str, Any]]:
        """Per-user attempts/successes/failures plus derived availability."""
        out = {}
        for user, stats in sorted(self._per_user.items()):
            attempts = stats["attempts"]
            out[user] = dict(stats, availability=(
                stats["successes"] / attempts if attempts else 1.0
            ))
        return out

    def summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        """One JSON-ready report of everything the tracker knows."""
        if now is None:
            now = self.sim.now
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "failures": self.failures,
            "availability": self.availability,
            "outages": len(self.episodes),
            "open_outages": len(self._open),
            "mttr": {
                "count": len(self.mttr),
                "mean": self.mttr.mean,
                "p50": self.mttr.percentile(0.50),
                "p90": self.mttr.percentile(0.90),
                "max": self.mttr.maximum,
            },
            "ttfs": {
                "count": len(self.ttfs),
                "mean": self.ttfs.mean,
                "p90": self.ttfs.percentile(0.90),
            },
            "events": dict(self.counters),
            "per_user_worst": min(
                (u["availability"] for u in self.per_user().values()),
                default=1.0,
            ),
        }

    def timeline(self) -> List[Dict[str, Any]]:
        """Every fault, recovery, salvage, failover and outage episode,
        time-ordered: the tracker's records in the ops log, plus one
        ``outage`` per episode keyed by its start.

        Open episodes are included with ``end: null`` so a timeline written
        mid-outage is honest about it.
        """
        events = [record for record in self.ops.events
                  if record["event"] in _TIMELINE_EVENTS]
        for episode in self.episodes + self.open_episodes():
            events.append({"t": episode.start, "event": "outage",
                           **episode.as_dict()})
        events.sort(key=lambda e: (e["t"], e["event"]))
        return events

    def write_timeline(self, path: str) -> int:
        """Write the outage/fault timeline as JSON; returns event count."""
        events = self.timeline()
        with open(path, "w") as fh:
            json.dump({"events": events, "summary": self.summary()}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        return len(events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AvailabilityTracker ops={self.attempts} "
                f"availability={self.availability:.3f}>")
