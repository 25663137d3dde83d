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

