"""The gated campus days' one table (``benchmarks/bench_days.py``).

Every smoke-gated campus day is a row of that harness: a scenario-catalogue
row with its overrides and pins, under one budget table per group.  These
checks run no day.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro.workload.scenario import SCENARIOS, Scenario

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


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


# Docs that describe the harness.  CHANGES.md and ROADMAP.md are history:
# they record the readings of their day and are not checked.
DOCS = [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md",
        ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]


def _spellings(value):
    """How a doc would quote a pin: as written, and in grouped thousands."""
    raw = str(value)
    return {raw, f"{value:,}"} if isinstance(value, int) else {raw}


def test_docs_name_the_row_not_its_pins():
    """A pin is quoted once, in its row: docs point at the row by name, so
    re-recording a pin edits no doc.  Pins of fewer than five significant
    digits (a failure count, 33 faults) are too common to search for."""
    pins = {spelling for row in HARNESS.ROWS["smoke"] for value in row.pins.values()
            if len(str(value).replace(".", "").lstrip("0")) >= 5
            for spelling in _spellings(value)}
    assert len(pins) >= 6  # the metropolis and soak rows' long pins
    pattern = re.compile(r"(?<![\d.,])(%s)(?![\d]|[.,]\d)" % "|".join(
        re.escape(spelling) for spelling in sorted(pins)))
    docs = [path for path in DOCS if path.exists()]
    assert len(docs) > 5
    quoted = [f"{path.relative_to(ROOT)}:{number}: {match.group(1)}"
              for path in docs
              for number, line in enumerate(path.read_text().splitlines(), 1)
              for match in pattern.finditer(line)]
    assert quoted == []
