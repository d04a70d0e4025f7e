"""Observability: causal request tracing and the unified metrics registry.

The §3.6 "monitoring tools" subsystem.  Two halves:

* :mod:`repro.obs.trace` — span-based causal tracing threaded from Venus
  through the RPC fabric into Vice and down to disk I/O; exports JSONL and
  Chrome-trace (Perfetto-loadable) files.  Off by default and zero-cost
  when off.
* :mod:`repro.obs.registry` — named, typed instruments (counter / gauge /
  histogram / utilization) registered per component; one campus-wide
  ``snapshot()`` is the read surface for dashboards and benchmarks.

Every :class:`~repro.sim.kernel.Simulator` carries both: ``sim.tracer``
(the shared null recorder until tracing is enabled) and ``sim.metrics``
(always live — instruments are cheap).  Enable tracing with::

    from repro.obs import TraceRecorder
    recorder = TraceRecorder(campus.sim)      # attaches as campus.sim.tracer
    ... run the workload ...
    recorder.write_chrome_trace("trace.json")  # open in Perfetto

See ``docs/observability.md`` for the span model and metric name scheme.
"""

from repro.obs.availability import AvailabilityTracker, OutageEpisode
from repro.obs.live import OpsEventStream, RollingAggregator
from repro.obs.registry import Instrument, MetricsRegistry
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    TraceRecorder,
    chrome_trace,
    validate_coverage,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "AvailabilityTracker",
    "Instrument",
    "MetricsRegistry",
    "OpsEventStream",
    "OutageEpisode",
    "RollingAggregator",
    "NULL_RECORDER",
    "NullRecorder",
    "Span",
    "TraceRecorder",
    "chrome_trace",
    "validate_coverage",
    "write_chrome_trace",
    "write_jsonl",
]
