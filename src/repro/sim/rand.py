"""Seeded random distributions for workload generation.

All stochastic behaviour in the reproduction flows through a
:class:`WorkloadRandom` so that every experiment is reproducible from a single
integer seed.  The distributions here are the ones the file-system
measurement literature of the period (refs [12], [13] of the paper) says
matter: heavy-tailed file sizes, Zipf-like popularity, and exponential
think/inter-arrival times.
"""

from __future__ import annotations

import math
import random
from typing import Sequence, TypeVar

T = TypeVar("T")

__all__ = ["WorkloadRandom"]


class WorkloadRandom:
    """A seeded random source with the distributions the workloads need."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def fork(self, salt: int) -> "WorkloadRandom":
        """Derive an independent stream (per user, per phase...)."""
        return WorkloadRandom(hash((self.seed, salt)) & 0x7FFFFFFF)

    # -- uniform building blocks -------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]``."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(items)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        return self._rng.random() < probability

    # -- timing ---------------------------------------------------------------

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (think/inter-arrival times)."""
        return self._rng.expovariate(1.0 / mean) if mean > 0 else 0.0

    # -- sizes ------------------------------------------------------------------

    def lognormal_size(self, median: float, sigma: float, cap: float = float("inf")) -> int:
        """Heavy-tailed file size in bytes, capped.

        Satyanarayanan's SOSP'81 file-size study found sizes approximately
        lognormal with a long tail; ``median`` sets the scale.
        """
        size = self._rng.lognormvariate(math.log(median), sigma)
        return max(1, int(min(size, cap)))

    # -- popularity ----------------------------------------------------------

    def zipf_index(self, n: int, skew: float = 0.9) -> int:
        """An index in ``[0, n)`` with Zipf(skew) popularity (0 most popular).

        Uses the rejection-free inverse-CDF over precomputed weights for small
        ``n`` and an approximation for large ``n``; exactness is unnecessary,
        only the shape (a few hot files, a long cold tail) matters.
        """
        if n <= 0:
            raise ValueError("zipf_index requires n >= 1")
        if n == 1:
            return 0
        # Inverse-transform on the continuous Zipf approximation.
        u = self._rng.random()
        if abs(skew - 1.0) < 1e-9:
            harmonic = math.log(n)
            return min(n - 1, int(math.exp(u * harmonic)) - 1)
        exponent = 1.0 - skew
        norm = (n ** exponent - 1.0) / exponent
        value = (u * norm * exponent + 1.0) ** (1.0 / exponent)
        return min(n - 1, max(0, int(value) - 1))
