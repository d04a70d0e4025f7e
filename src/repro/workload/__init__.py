"""Workloads: file-size models, the 5-phase benchmark, synthetic campus use."""

from repro.workload.andrew import AndrewBenchmark, AndrewResult, PHASES, andrew_campus, make_source_tree
from repro.workload.classes import (
    FileClass,
    PROJECT_FILE,
    SYSTEM_PROGRAM,
    TEMPORARY,
    USER_FILE,
)
from repro.workload.filesizes import (
    HEADER_FILE,
    OBJECT_FILE,
    SOURCE_FILE,
    SizeModel,
    SYSTEM_BINARY,
    TEMP_FILE,
    USER_DOCUMENT,
)
from repro.workload.diurnal import DiurnalCurve
from repro.workload.synthetic import (
    SyntheticUser,
    UserProfile,
    launch_campus_day,
    provision_campus,
    run_campus_day,
)
from repro.workload.trace import TraceEvent, TraceRecorder, load_trace, replay, save_trace

__all__ = [
    "AndrewBenchmark",
    "AndrewResult",
    "DiurnalCurve",
    "FileClass",
    "HEADER_FILE",
    "OBJECT_FILE",
    "PHASES",
    "PROJECT_FILE",
    "SOURCE_FILE",
    "SYSTEM_BINARY",
    "SYSTEM_PROGRAM",
    "SizeModel",
    "SyntheticUser",
    "TEMPORARY",
    "TEMP_FILE",
    "TraceEvent",
    "TraceRecorder",
    "USER_DOCUMENT",
    "USER_FILE",
    "UserProfile",
    "andrew_campus",
    "launch_campus_day",
    "load_trace",
    "make_source_tree",
    "provision_campus",
    "replay",
    "run_campus_day",
    "save_trace",
]
