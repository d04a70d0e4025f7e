"""Pure functions over measurements: percentiles, span self-time, and the
cProfile fold by package.  No simulator imports, so they test on
hand-built inputs."""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence

__all__ = ["percentile", "span_self_times", "fold_profile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def span_self_times(spans: Iterable[Any]) -> Dict[str, Dict[str, float]]:
    """Per span kind: count, mean duration and mean *self* time, in ms.

    A span's self time is its duration minus the part of that interval its
    child spans cover (children may overlap each other and may outlive the
    parent; both are clipped).  The kind is the span name up to the first
    ``:`` — ``rpc.call:FetchByFid`` folds into ``rpc.call``.  Means are per
    span of that kind; they nest, so they must not be summed across kinds.
    """
    spans = list(spans)
    children: Dict[Any, List[tuple]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        entry = totals[span.name.split(":", 1)[0]]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += span.end - span.start - covered
    return {
        kind: {"count": count,
               "mean_ms": 1000.0 * duration / count,
               "self_mean_ms": 1000.0 * self_time / count}
        for kind, (count, duration, self_time) in sorted(totals.items())
    }


def _bucket(filename: str, repro_dir: str, harness_dir: str) -> str:
    if filename == "~":  # cProfile's marker for C functions
        return "builtins"
    if filename.startswith(repro_dir + os.sep):
        inner = filename[len(repro_dir) + 1:].split(os.sep)
        # A module directly under repro/ (hosts.py, errors.py) has no
        # package of its own.
        return f"repro.{inner[0]}" if len(inner) > 1 else "repro"
    if filename.startswith(harness_dir + os.sep):
        return "harness"
    return "stdlib"


def fold_profile(stats: Dict[tuple, tuple], repro_dir: str,
                 harness_dir: str) -> Dict[str, Dict[str, float]]:
    """Fold a ``pstats.Stats(...).stats`` table by ``repro.<package>``.

    ``repro_dir`` is the directory of the ``repro`` package and
    ``harness_dir`` the ledger's own directory.

    ``tottime`` is exclusive time, so the buckets overlap with nothing and
    their shares sum to 1 together with ``builtins`` (C functions),
    ``stdlib``, ``harness`` (the ledger's own files) and ``repro`` (modules
    directly under the package root).  Calls are primitive calls.
    """
    folded: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0})
    for (filename, _line, _func), (prim_calls, _n, tottime, _c, _callers) \
            in stats.items():
        bucket = folded[_bucket(filename, repro_dir, harness_dir)]
        bucket["self_s"] += tottime
        bucket["calls"] += prim_calls
    total = sum(bucket["self_s"] for bucket in folded.values())
    for bucket in folded.values():
        bucket["share"] = bucket["self_s"] / total if total else 0.0
    return dict(sorted(folded.items()))
