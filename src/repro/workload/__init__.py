"""Workloads: file-size models, the 5-phase benchmark, synthetic campus use."""

from repro.workload.andrew import AndrewBenchmark, AndrewResult, PHASES, andrew_campus, make_source_tree
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
    provision_campus,
    run_campus_day,
)

__all__ = [
    "AndrewBenchmark",
    "AndrewResult",
    "DiurnalCurve",
    "HEADER_FILE",
    "OBJECT_FILE",
    "PHASES",
    "SOURCE_FILE",
    "SYSTEM_BINARY",
    "SizeModel",
    "SyntheticUser",
    "TEMP_FILE",
    "USER_DOCUMENT",
    "UserProfile",
    "andrew_campus",
    "make_source_tree",
    "provision_campus",
    "run_campus_day",
]
