"""The per-metric summary of tools/bench_pairs.py, on canned results."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_are_inclusive():
    runs = [float(v) for v in range(1, 11)]
    stats = bench_pairs.summarize(runs, list(reversed(runs)))
    assert stats["base"] == stats["change"] == (3.25, 5.5, 7.75)


def test_a_tie_is_no_win():
    base = [2.0, 2.0, 2.0, 2.0]
    change = [1.0, 2.0, 3.0, 2.0]
    assert bench_pairs.summarize(base, change)["wins"] == 1
    assert bench_pairs.summarize(base, base)["wins"] == 0


BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045


def test_nine_wins_with_a_drop_above_the_iqr_meet_the_claim():
    change = [b - 0.1 for b in BASE]
    change[0] = 2.0
    stats = bench_pairs.summarize(BASE, change)
    assert stats["wins"] == 9
    assert stats["claim_met"] is True


def test_eight_wins_do_not_meet_the_claim():
    change = [b - 0.1 for b in BASE]
    change[0] = change[1] = 2.0
    stats = bench_pairs.summarize(BASE, change)
    assert stats["wins"] == 8
    assert stats["claim_met"] is False


def test_a_drop_inside_the_iqr_does_not_meet_the_claim():
    stats = bench_pairs.summarize(BASE, [b - 0.01 for b in BASE])
    assert stats["wins"] == 10
    assert stats["claim_met"] is False


def test_json_holds_each_workloads_summary(tmp_path, monkeypatch):
    def fake_run(tree, workload, seed, held_out):
        value = (1.0 if tree.name == "change" else 2.0) + seed / 100
        metrics = {m: {"value": value} for m in bench_pairs.METRICS}
        return {"correct": workload != "bad", "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", lambda repo, rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "src_totals", lambda tree: {"total": len(tree.name)})
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "traced_counts", lambda tree, workload, held_out: ({}, True))
    out = tmp_path / "bench.json"
    args = ["--workload", "good", "bad", "--pairs", "4", "--json", str(out)]
    assert bench_pairs.main(args) == 1  # a run of "bad" was not correct
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["pairs"] == 4 and data["pool"] == "main"
    # Both trees' names are as long, so their paths are too.
    assert data["src_lines"] == {"base": {"total": 6}, "change": {"total": 6}}
    assert "tier1" not in data
    assert data["workloads"]["good"]["all_correct"] is True
    assert data["workloads"]["bad"]["all_correct"] is False
    wall = data["workloads"]["good"]["metrics"]["wall_s"]
    assert wall["base"]["runs"] == [2.01, 2.02, 2.03, 2.04]
    base = wall["base"]
    assert (base["q1"], base["median"], base["iqr"]) == pytest.approx((2.0175, 2.025, 0.015))
    assert wall["change"]["median"] == pytest.approx(1.025)
    assert wall["wins"] == 4 and wall["claim_met"] is True


def test_json_lists_the_traced_counts_that_differ(tmp_path, monkeypatch):
    def fake_run(tree, workload, seed, held_out, trace=0):
        change = tree.name == "change"
        metrics = {m: {"value": 1.0, "unit": "s"} for m in bench_pairs.METRICS}
        if trace:
            assert seed == 1
            metrics = {
                "engine.events": {"value": 95 if change else 142, "unit": "count"},
                "queue.drops": {"value": 7, "unit": "count"},
                "queue.accept_ratio": {"value": 0.5, "unit": "ratio"},
                "engine.self_s": {"value": 1.0 if change else 2.0, "unit": "s"},
            }
        return {"correct": not (trace and change), "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", lambda repo, rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "src_totals", lambda tree: {})
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    # The traced run of the change was not correct.
    assert bench_pairs.main(["--workload", "w", "--pairs", "2", "--json", str(out)]) == 1
    traced = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]["traced"]
    assert traced["base"] == {"engine.events": 142, "queue.drops": 7, "queue.accept_ratio": 0.5}
    assert traced["change"]["engine.events"] == 95
    assert traced["differ"] == ["engine.events"]  # timings are left out
