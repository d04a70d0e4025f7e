"""The scenario catalogue (``repro.workload.scenario``).

The cost ledger (``benchmarks/ledger/workloads.py``) keeps the last other
copy of the campus-day builders; these tests read it, never change it,
and pin every catalogue row it measures equal to it, so that its copy can
be replaced by the catalogue as a pure deletion.  A guard keeps the
catalogue the only builder of a campus day everywhere else.
"""

import ast
import functools
import importlib.util
import pathlib
import subprocess
import sys

import pytest

from repro.workload.scenario import SCENARIOS, Scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "benchmarks" / "ledger"


@functools.lru_cache(maxsize=None)
def _ledger_workloads():
    spec = importlib.util.spec_from_file_location(
        "ledger_workloads", LEDGER / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The ledger's quick shapes, as changes to each row.
_QUICK = {
    "proto-20": dict(workstations_per_cluster=4, warmup=300.0, duration=300.0),
    "campus-200": dict(clusters=2, workstations_per_cluster=5, warmup=60.0,
                       duration=240.0, projects_per_dept=4),
    "campus-200-writes": dict(clusters=2, workstations_per_cluster=5,
                              warmup=60.0, duration=240.0, projects_per_dept=4),
    "metro-1000": dict(clusters=4, workstations_per_cluster=5,
                       projects_per_dept=4),
    "coded-crash": dict(workstations_per_cluster=2, warmup=60.0,
                        duration=600.0),
}


def _outcome(campus, actions, failures):
    return {"actions": actions, "failures": failures,
            "hit_ratio": campus.mean_hit_ratio(),
            "events": campus.sim._sequence,
            "backbone_bytes": campus.cross_cluster_bytes()}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(_QUICK))
def test_row_equals_the_ledger_workload(name, seed):
    built = _ledger_workloads().build(name, seed, quick=True)
    result = built.run()
    ledger = _outcome(built.campus, result.actions, result.failures)

    campus, summary = SCENARIOS[name]().with_(**_QUICK[name]).day(seed)
    assert _outcome(campus, summary["actions"], summary["failures"]) == ledger
    assert ledger["actions"] > 0


def test_rows_are_the_ledger_shapes():
    shapes = {name: (row.config.mode, row.config.clusters,
                     row.config.workstations_per_cluster, row.warmup, row.duration)
              for name, row in ((name, make()) for name, make in SCENARIOS.items())}
    assert shapes == {
        "proto-20": ("prototype", 1, 20, 5400.0, 5400.0),
        "campus-200": ("revised", 4, 50, 600.0, 1800.0),
        "campus-200-writes": ("revised", 4, 50, 600.0, 1800.0),
        "metro-1000": ("revised", 20, 50, 30.0, 120.0),
        "metro-5000": ("revised", 100, 50, 10.0, 30.0),
        "coded-crash": ("revised", 7, 10, 300.0, 1800.0),
    }


def test_with_replaces_scenario_and_config_fields():
    row = SCENARIOS["proto-20"]()
    changed = row.with_(mode="revised", seed=7, duration=60.0, hot_files=4)
    assert (changed.config.mode, changed.config.seed) == ("revised", 7)
    assert (changed.duration, changed.hot_files) == (60.0, 4)
    assert changed.config.cache_max_files == row.config.cache_max_files
    assert isinstance(changed, Scenario) and row.duration == 5400.0


def test_build_seed_moves_config_and_provisioning():
    # The ledger's rule: the build seed is added to the row's config seed
    # and to the provisioning seed, so the files themselves differ.
    row = SCENARIOS["proto-20"]().with_(workstations_per_cluster=2, seed=7)
    (at_0, users), (at_3, _) = row.build(0), row.build(3)
    assert (at_0.config.seed, at_3.config.seed, len(users)) == (7, 10, 2)
    assert at_0.volume("proj").used_bytes != at_3.volume("proj").used_bytes


def test_crash_row_places_its_crash_in_the_day():
    row = SCENARIOS["coded-crash"]().with_(warmup=100.0, duration=1000.0)
    campus, _ = row.build()
    (fault,) = campus.config.fault_plan.faults
    assert (fault.kind, fault.target, fault.start, fault.duration) == (
        "server_crash", "server0", 400.0, 1100.0)


def test_naming_the_catalogue_loads_no_codec():
    script = ("import sys; sys.path.insert(0, 'src')\n"
              "from repro.workload.scenario import SCENARIOS\n"
              "SCENARIOS['proto-20']()\n"
              "assert 'repro.vice.erasure' not in sys.modules\n"
              "SCENARIOS['coded-crash']()\n"
              "assert 'repro.vice.erasure' in sys.modules\n")
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# ----------------------------------------------------------------------
# one builder of a campus day
# ----------------------------------------------------------------------

def _calls(tree, name):
    """Every call of ``name`` (bare or as an attribute) in a module."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_only_the_catalogue_builds_a_campus_day():
    # A campus day is provisioned users under a config of its own; only
    # the catalogue puts one together (the ledger keeps its own copy until
    # it imports the catalogue).
    allowed = {ROOT / "src" / "repro" / "workload" / "scenario.py"}
    modules = [*sorted((ROOT / "src").rglob("*.py")),
               *sorted((ROOT / "benchmarks").glob("*.py")),
               *sorted((ROOT / "examples").glob("*.py"))]
    builders = []
    for path in modules:
        if path in allowed:
            continue
        tree = ast.parse(path.read_text())
        if _calls(tree, "provision_campus") or (
                _calls(tree, "run_campus_day") and _calls(tree, "SystemConfig")):
            builders.append(str(path.relative_to(ROOT)))
    assert builders == []
