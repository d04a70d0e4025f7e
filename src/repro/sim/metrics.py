"""Measurement instruments for simulation experiments.

The paper's evaluation is built from four kinds of numbers, and each has a
matching instrument here:

* call-mix histograms (65 % validate / 27 % status / ...) — :class:`Counter`;
* mean utilizations over an 8-hour window (CPU 40 %, disk 14 %) —
  :class:`UtilizationTracker` integrates busy-capacity over time;
* short-term peaks ("sometimes peaking at 98 %") — the tracker also bins
  busy time into fixed windows so a peak series can be reported;
* latency distributions (benchmark phase times) — :class:`Samples`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Samples", "UtilizationTracker"]


class Counter:
    """Labelled event counts, reported as a histogram."""

    def __init__(self, name: str = ""):
        self.name = name
        self._counts: Dict[str, int] = defaultdict(int)

    def add(self, label: str, amount: int = 1) -> None:
        """Count ``amount`` occurrences of ``label``."""
        self._counts[label] += amount

    def count(self, label: str) -> int:
        """Occurrences of ``label`` so far (0 if never seen)."""
        return self._counts.get(label, 0)

    @property
    def total(self) -> int:
        """Sum of all counts."""
        return sum(self._counts.values())

    def as_dict(self) -> Dict[str, int]:
        """Plain dict snapshot of the counts."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name} {dict(self._counts)}>"


class Samples:
    """A bag of numeric observations with summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._values: List[float] = []

    def add(self, value: float) -> None:
        """Record one observation."""
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        """The raw observations, in insertion order (the cost ledger's
        latency and job-time columns read them)."""
        return list(self._values)

    def since(self, start: int) -> List[float]:
        """Observations added at index ``start`` or later (windowed reads).

        The rolling-window aggregator keeps a cursor per bag and reads only
        the samples added since its last visit, so sampling cost tracks the
        window's traffic rather than the whole run's history.
        """
        return self._values[start:]

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return sum(self._values)

    @property
    def maximum(self) -> float:
        """Largest observation (0.0 when empty)."""
        return max(self._values) if self._values else 0.0

    @property
    def minimum(self) -> float:
        """Smallest observation (0.0 when empty)."""
        return min(self._values) if self._values else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) by nearest-rank; 0.0 when empty."""
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Samples {self.name} n={len(self)} mean={self.mean:.4f}>"


class UtilizationTracker:
    """Integrates resource busyness over virtual time.

    ``record(level)`` is called by :class:`~repro.sim.resources.Resource`
    whenever the number of busy units changes.  The tracker keeps

    * the running busy-time integral (for mean utilization), and
    * per-window busy time in ``window`` second buckets (for peak series).
    """

    def __init__(self, sim, capacity: int = 1, name: str = "", window: float = 10.0):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.window = window
        self._level = 0
        self._last_change = sim.now
        self._busy_integral = 0.0
        self._window_busy: Dict[int, float] = defaultdict(float)

    def record(self, level: int) -> None:
        """Note that the busy level changed to ``level`` at the current time."""
        # Called on every resource grant and release, one of the hottest
        # non-kernel functions: the window update stays inline.
        now = self.sim.now
        last = self._last_change
        span = now - last
        old_level = self._level
        if span > 0 and old_level > 0:
            self._busy_integral += span * old_level
            index = int(last // self.window)
            if now <= (index + 1) * self.window:
                # Fast path: the whole span lies in one window (the common
                # case — service times are much shorter than the window).
                self._window_busy[index] += span * old_level
            else:
                self._spread_over_windows(last, now, old_level)
        self._last_change = now
        self._level = level

    def _accumulate(self) -> None:
        """Bring the integrals up to the current time, level unchanged."""
        self.record(self._level)

    def _spread_over_windows(self, start: float, end: float, level: float) -> None:
        index = int(start // self.window)
        cursor = start
        while cursor < end:
            boundary = (index + 1) * self.window
            chunk_end = min(end, boundary)
            self._window_busy[index] += (chunk_end - cursor) * level
            cursor = chunk_end
            index += 1

    def mean_utilization(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Mean fraction of capacity busy over ``[start, end]``.

        ``end`` defaults to the current simulation time.  ``start`` supports
        the paper's "averages over an 8-hour period" style of reporting by
        excluding warm-up.
        """
        self._accumulate()
        if end is None:
            end = self.sim.now
        span = end - start
        if span <= 0:
            return 0.0
        busy = 0.0
        for index, amount in self._window_busy.items():
            w_start = index * self.window
            w_end = w_start + self.window
            if w_end <= start or w_start >= end:
                continue
            overlap = min(w_end, end) - max(w_start, start)
            busy += amount * (overlap / self.window)
        return busy / (span * self.capacity)

    def window_series(self) -> List[Tuple[float, float]]:
        """Per-window utilization as ``(window_start_time, fraction)`` pairs."""
        self._accumulate()
        series = []
        for index in sorted(self._window_busy):
            fraction = self._window_busy[index] / (self.window * self.capacity)
            series.append((index * self.window, min(1.0, fraction)))
        return series

    def peak_utilization(self) -> float:
        """The busiest single window's utilization (0.0 if nothing recorded)."""
        series = self.window_series()
        if not series:
            return 0.0
        return max(fraction for _start, fraction in series)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UtilizationTracker {self.name} mean={self.mean_utilization():.3f}>"
