"""The gated campus days' one table (``benchmarks/bench_days.py``).

Every smoke-gated campus day is a row of that harness: a scenario-catalogue
row with its overrides and pins, under one budget table per group.  These
checks run no day.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.workload.scenario import SCENARIOS, Scenario

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "bench_days", BENCHMARKS / "bench_days.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HARNESS = _load_harness()
ALL_ROWS = [row for rows in HARNESS.ROWS.values() for row in rows]


@pytest.mark.parametrize("row", ALL_ROWS, ids=lambda row: row.name)
def test_every_row_is_a_catalogue_row(row):
    assert row.scenario in SCENARIOS
    # Every override names a Scenario or SystemConfig field.
    assert isinstance(SCENARIOS[row.scenario]().with_(**row.changes), Scenario)


def test_row_names_are_unique_within_a_set():
    for rows in HARNESS.ROWS.values():
        names = [row.name for row in rows]
        assert len(names) == len(set(names))


def test_groups_run_largest_last():
    # Peak RSS is a process high-water mark: each group's reading must
    # come after nothing larger, so the soak day (the largest) runs last.
    for rows in HARNESS.ROWS.values():
        order = list(dict.fromkeys(row.group for row in rows))
        assert order == ["redundancy", "metropolis", "soak"]


def test_every_group_has_its_budgets():
    smoke = HARNESS.ROWS["smoke"]
    assert set(HARNESS.BUDGETS) == {row.group for row in ALL_ROWS}
    for group, table in HARNESS.BUDGETS.items():
        targets = {row.name for row in smoke if row.group == group} | {group}
        assert table and set(table) <= targets, group
        assert all(bounds for bounds in table.values()), group


def test_the_smoke_set():
    smoke = HARNESS.ROWS["smoke"]
    assert sum(row.group == "redundancy" for row in smoke) == 10
    assert [(row.name, row.changes) for row in smoke if row.group == "metropolis"] == [
        ("campus-200", {"warmup": 60.0, "duration": 300.0}),
        ("metro-1000", {"warmup": 30.0, "duration": 120.0})]
    assert [row.name for row in smoke if row.pins] == [
        "campus-200", "metro-1000", "soak"]


def test_a_pin_off_by_one_fails_the_gate(capsys):
    rows = [row for row in HARNESS.ROWS["smoke"] if row.pins]
    records = [dict(row.pins, group=row.group, row=row.name, exit_status=0,
                    violations=[], cpu_seconds=0.0, wall_seconds=0.0,
                    peak_rss_mib=0.0) for row in rows]
    assert HARNESS.gate(rows, records, {}) == 0
    records[1]["virtual_actions"] += 1
    assert HARNESS.gate(rows, records, {}) == 1
    assert "FAIL pin metro-1000 virtual_actions = 3546, pinned 3545" in (
        capsys.readouterr().out)


def test_no_other_bench_keeps_pins_or_budgets():
    def declares_a_table(path):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                name = getattr(target, "id", "")
                if name == "SMOKE_PINS" or name.startswith("SMOKE_BUDGET"):
                    return True
        return False

    others = [path.name for path in sorted(BENCHMARKS.glob("*.py"))
              if path.name != "bench_days.py" and declares_a_table(path)]
    assert others == []
