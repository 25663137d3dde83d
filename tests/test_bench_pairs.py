"""The per-metric summary of tools/bench_pairs.py, on canned results."""

import importlib.util
from pathlib import Path

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
