"""Diurnal load curves: a campus that breathes over the day.

§5.2's utilization numbers are 8-hour-window means precisely because campus
load is not flat — nobody compiles at 4 am.  A soak runs hours of virtual
time, so its synthetic users (``day --diurnal``) follow a diurnal activity
curve: think times stretch at night and compress through the morning and
mid-afternoon peaks.  The curve is a pure function of the virtual clock — no randomness,
no state — so pacing a user with it keeps runs seeded-deterministic.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["DiurnalCurve"]

# Fraction of peak activity per hour of day, starting at midnight.  Shaped
# like a university weekday: near-dead overnight, a morning ramp to the
# 10-11 am peak, a lunch dip, a second mid-afternoon peak, a long evening
# tail (students) back into the night.
_WEEKDAY = (
    0.06, 0.04, 0.03, 0.02, 0.02, 0.04,   # 00-05
    0.08, 0.20, 0.45, 0.80, 1.00, 0.95,   # 06-11
    0.70, 0.85, 0.95, 1.00, 0.90, 0.70,   # 12-17
    0.50, 0.40, 0.35, 0.28, 0.18, 0.10,   # 18-23
)


class DiurnalCurve:
    """Hour-of-day activity multipliers with linear interpolation.

    ``activity(t)`` is the fraction of peak activity at virtual time ``t``
    (seconds); ``think_multiplier(t)`` is its reciprocal, the factor a
    user's mean think time is stretched by.  ``start_hour`` shifts where
    t=0 falls in the day, so a 6-hour smoke run can start at 9 am and cover
    the peak instead of simulating a sleeping campus.
    """

    def __init__(self, hourly: Optional[Sequence[float]] = None,
                 start_hour: float = 0.0, floor: float = 0.02):
        values = tuple(hourly if hourly is not None else _WEEKDAY)
        if len(values) != 24:
            raise ValueError(f"need 24 hourly values, got {len(values)}")
        if any(v < 0 for v in values):
            raise ValueError("activity fractions must be non-negative")
        if not 0 < floor <= 1:
            raise ValueError(f"floor {floor!r} outside (0, 1]")
        self.hourly = values
        self.start_hour = start_hour
        self.floor = floor

    def activity(self, t: float) -> float:
        """Fraction of peak activity at virtual time ``t`` (>= ``floor``)."""
        hour = (t / 3600.0 + self.start_hour) % 24.0
        index = int(hour)
        frac = hour - index
        here = self.hourly[index]
        there = self.hourly[(index + 1) % 24]
        return max(self.floor, here + (there - here) * frac)

    def think_multiplier(self, t: float) -> float:
        """Factor to stretch a user's think time by at time ``t``."""
        return 1.0 / self.activity(t)

    def __call__(self, t: float) -> float:
        """Curves are used as pace functions: ``pace(t)`` -> multiplier."""
        return self.think_multiplier(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DiurnalCurve start_hour={self.start_hour} "
                f"peak_hours={[i for i, v in enumerate(self.hourly) if v == 1.0]}>")
