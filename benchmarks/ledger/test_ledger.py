"""Checks of the ledger harness itself.

Not collected by the tier-1 suite (``testpaths = tests``); run by hand::

    python -m pytest benchmarks/ledger -q

The pipeline test runs every workload's ``--quick`` shape through the
whole harness (untraced repeats, pass T, pass P, assemble, write, compare)
and takes about half a minute.
"""

import json
import os
import re
import sys
from types import SimpleNamespace

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path.insert(0, _HERE)

import run  # noqa: E402
from analysis import fold_profile, percentile, span_self_times  # noqa: E402
from catalogue import (ALL, END_TO_END, LEDGER_ONLY, PER_LAYER,  # noqa: E402
                       WORKLOADS)


def _span(span_id, parent_id, name, start, end):
    return SimpleNamespace(span_id=span_id, parent_id=parent_id, name=name,
                           start=start, end=end)


def test_span_self_time_on_a_hand_built_tree():
    spans = [
        _span(1, None, "venus.open", 0.0, 1.0),
        # Two overlapping children cover [0.1, 0.6] of the parent once.
        _span(2, 1, "rpc.call:Fetch", 0.1, 0.5),
        _span(3, 1, "rpc.call:FetchDir", 0.4, 0.6),
        # A child that outlives its parent is clipped at the parent's end.
        _span(4, 1, "rpc.call:Store", 0.9, 1.5),
        _span(5, 2, "rpc.serve:Fetch", 0.2, 0.4),
    ]
    folded = span_self_times(spans)
    assert folded["venus.open"]["count"] == 1
    assert folded["venus.open"]["self_mean_ms"] == pytest.approx(400.0)
    # rpc.call: self times 0.2 (0.4 minus the serve span), 0.2 and 0.6.
    assert folded["rpc.call"]["count"] == 3
    assert folded["rpc.call"]["self_mean_ms"] == pytest.approx(1000.0 / 3)
    assert folded["rpc.serve"]["self_mean_ms"] == pytest.approx(200.0)
    assert folded["rpc.serve"]["mean_ms"] == pytest.approx(200.0)


def test_profile_fold_on_a_hand_built_pstats_table():
    repro_dir = os.path.join(os.sep, "x", "src", "repro")
    harness = os.path.join(os.sep, "x", "benchmarks", "ledger")
    stats = {
        # (file, line, function): (primitive calls, calls, tottime, cumtime, callers)
        (os.path.join(repro_dir, "sim", "kernel.py"), 1, "run"): (10, 12, 0.5, 9.0, {}),
        (os.path.join(repro_dir, "sim", "resources.py"), 1, "use"): (5, 5, 0.1, 0.1, {}),
        (os.path.join(repro_dir, "crypto", "cipher.py"), 1, "seal"): (3, 3, 0.2, 0.3, {}),
        (os.path.join(repro_dir, "hosts.py"), 1, "compute"): (2, 2, 0.05, 0.05, {}),
        ("~", 0, "<built-in method builtins.len>"): (100, 100, 0.1, 0.1, {}),
        (os.path.join(os.sep, "usr", "lib", "heapq.py"), 1, "heappush"): (7, 7, 0.03, 0.03, {}),
        (os.path.join(harness, "workloads.py"), 1, "timed"): (1, 1, 0.02, 0.02, {}),
    }
    folded = fold_profile(stats, repro_dir, harness)
    assert set(folded) == {"repro.sim", "repro.crypto", "repro", "builtins",
                           "stdlib", "harness"}
    assert folded["repro.sim"]["calls"] == 15
    assert folded["repro.sim"]["self_s"] == pytest.approx(0.6)
    assert folded["repro.sim"]["share"] == pytest.approx(0.6)
    assert sum(bucket["share"] for bucket in folded.values()) == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile(list(range(100)), 0.95) == 95


def _host(value, low, high):
    return {"value": value, "kind": "host", "better": "lower", "min": low,
            "max": high, "spread": (high - low) / value}


def test_compare_verdicts():
    exact = {"value": 5, "kind": "virtual", "better": "lower"}
    assert run.verdict(exact, dict(exact), 0.0) == "same"
    assert run.verdict(exact, dict(exact, value=6), 0.0) == "worse"
    assert run.verdict(exact, dict(exact, value=4), 0.0) == "better"
    steady = _host(1.00, 0.99, 1.01)
    assert run.verdict(steady, _host(1.03, 1.02, 1.04), 0.10) == "same"
    assert run.verdict(steady, _host(1.30, 1.29, 1.31), 0.10) == "worse"
    assert run.verdict(steady, _host(0.70, 0.69, 0.71), 0.10) == "better"
    # Spread wider than the bound and overlapping runs: cannot tell.
    assert run.verdict(steady, _host(1.20, 0.95, 1.40), 0.10) == "unresolved"


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/ledger"]
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        name: why for name, why in WORKLOADS.items() if name not in LEDGER_ONLY}
    gated = {m: spec for m, spec in END_TO_END.items() if spec.bound is not None}
    assert [m["name"] for m in contract["end_to_end"]] == list(gated)
    for entry in contract["end_to_end"]:
        spec = gated[entry["name"]]
        assert entry == {"name": spec.name, "unit": spec.unit,
                         "better": spec.better, "bound": spec.bound}
        assert 0 <= spec.bound <= 0.25
    assert contract["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in contract["end_to_end"]) == gated["setup_s"].bound
    ungated = [m for m in ALL if m not in gated]
    assert [m["name"] for m in contract["per_layer"]] == ungated
    for entry in contract["per_layer"]:
        spec = ALL[entry["name"]]
        assert entry == {"name": spec.name, "unit": spec.unit,
                         "better": spec.better}
    for name in list(ALL) + list(WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for spec in ALL.values():
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", spec.unit)


def test_quick_pipeline(tmp_path, capsys):
    out = tmp_path / "ledger.json"
    status = run.main(["--quick", "--repeats", "2", "--seed", "1",
                       "--out", str(out), "--spans-dir", str(tmp_path / "spans")])
    assert status == 0, capsys.readouterr().out
    with open(out) as handle:
        ledger = json.load(handle)

    assert set(ledger) == {"schema", "env", "workloads"}
    assert set(ledger["env"]) == {"commit", "python", "nproc", "loadavg_1m",
                                  "seed", "repeats", "quick"}
    assert list(ledger["workloads"]) == sorted(WORKLOADS)
    for name, record in ledger["workloads"].items():
        assert record["violations"] == []
        assert record["why"] == WORKLOADS[name]
        # Every catalogued metric is in the output, and nothing else is.
        assert set(record["end_to_end"]) == set(END_TO_END)
        assert set(record["per_layer"]) == set(PER_LAYER)
        for metric, entry in {**record["end_to_end"],
                              **record["per_layer"]}.items():
            spec = ALL[metric]
            assert (entry["unit"], entry["kind"]) == (spec.unit, spec.kind)
            assert isinstance(entry["value"], (int, float))
            if spec.kind == "host" and spec.source == "U":
                assert len(entry["runs"]) == 2
                assert entry["min"] <= entry["value"] <= entry["max"]
        shares = [bucket["share"] for bucket in record["profile"].values()]
        assert sum(shares) == pytest.approx(1.0)
        assert record["per_layer"]["obs.spans"]["value"] > 0
        assert (tmp_path / "spans" / f"{name}.jsonl").exists()
    coded = ledger["workloads"]["coded-crash"]
    assert coded["end_to_end"]["storage_overhead"]["value"] == pytest.approx(1.5, abs=0.05)
    assert coded["per_layer"]["faults.outages"]["value"] >= 0

    # A ledger compared with itself is the same everywhere.
    assert run.main(["compare", str(out), str(out)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith(tuple(WORKLOADS)) and line.endswith(
                ("same", "better", "worse", "unresolved"))]
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)
    assert all(row.endswith(("same", "unresolved")) for row in rows)


def test_contract_mode_prints_one_json_line(capsys):
    status = run.main(["--workload", "andrew-x8", "--seed", "2",
                       "--seconds", "1", "--trace", "0", "--quick"])
    assert status == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    gated = [m for m, spec in END_TO_END.items() if spec.bound is not None]
    assert list(last["metrics"]) == gated
    assert all(entry["value"] > 0 for entry in last["metrics"].values())
