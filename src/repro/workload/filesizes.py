"""File-size models from the era's measurement studies.

The paper's scoping argument rests on Satyanarayanan's SOSP'81 file-size
study (ref [12]): "over 99% of the files in use on a typical CMU
timesharing system" fit comfortably on a workstation disk, with sizes
approximately lognormal and a long but bounded tail.  These models generate
sizes with that shape, per file class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rand import WorkloadRandom
from repro.storage.unixfs import ProvisionedBody

__all__ = ["SizeModel", "SOURCE_FILE", "HEADER_FILE", "USER_DOCUMENT",
           "SYSTEM_BINARY", "TEMP_FILE", "OBJECT_FILE"]


@dataclass(frozen=True)
class SizeModel:
    """A lognormal size distribution with a hard cap."""

    median_bytes: float
    sigma: float
    cap_bytes: int

    def sample(self, rng: WorkloadRandom) -> int:
        """One size draw."""
        return rng.lognormal_size(self.median_bytes, self.sigma, self.cap_bytes)

    def body(self, rng: WorkloadRandom, tag: bytes = b"") -> ProvisionedBody:
        """A file body of a sampled size (deterministic filler), unbuilt:
        what provisioning hands to ``ITCSystem.populate``."""
        return ProvisionedBody(tag or b"itc", self.sample(rng))

    def content(self, rng: WorkloadRandom, tag: bytes = b"") -> bytes:
        """The same body as bytes, for writing through a workstation."""
        return bytes(self.body(rng, tag))


# Program source: a few KB, modest tail (the benchmark's `.c` files).
SOURCE_FILE = SizeModel(median_bytes=4_000, sigma=0.9, cap_bytes=64_000)

# Headers: smaller and tighter.
HEADER_FILE = SizeModel(median_bytes=1_500, sigma=0.7, cap_bytes=16_000)

# User documents (papers, mail folders): wide spread.
USER_DOCUMENT = SizeModel(median_bytes=6_000, sigma=1.3, cap_bytes=500_000)

# System binaries: tens to hundreds of KB.
SYSTEM_BINARY = SizeModel(median_bytes=60_000, sigma=0.8, cap_bytes=1_000_000)

# Temporaries (compiler intermediates): small, written once.
TEMP_FILE = SizeModel(median_bytes=8_000, sigma=0.8, cap_bytes=100_000)

# Object files: proportional-ish to sources but we model independently.
OBJECT_FILE = SizeModel(median_bytes=10_000, sigma=0.8, cap_bytes=120_000)
