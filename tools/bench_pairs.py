"""Alternating before/after runs of the perfbench benchmark on two revisions.

    python3 tools/bench_pairs.py --workload default-100 --pairs 10
    python3 tools/bench_pairs.py --workload desk-mobile --pairs 10 --held-out
    python3 tools/bench_pairs.py --workload rate-sweep --base main --change my-branch
    python3 tools/bench_pairs.py --workload desk-mobile default-100 rate-sweep \
        --tier1 --json BENCH.json

Each revision is exported with ``git archive`` into its own temporary tree, so
neither side sees the working copy.  The two trees are ``<tmp>/parent`` and
``<tmp>/change``: paths of equal length, because a perfbench worker compiles
the package from source and its peak RSS moves with the length of the path.
Pair ``i`` runs ``perfbench/run.py --workload W --seed i --trace 0`` once in
each tree, the base first in odd pairs and the change first in even ones, so a
slow spell of the host falls on both sides.  The script prints every pair, then per
end-to-end metric each side's median and quartiles and in how many pairs the
change did better (all four metrics are lower-is-better), and whether the
change meets the claim rule: at least 9/10 wins and a median drop larger than
the base's interquartile range.  It exits 1 when a run fails or reports
``correct: false``.  Uncommitted work can be measured with
``--change $(git stash create)``.

``--json PATH`` also writes the summary as JSON: per workload and metric,
each side's runs, median, quartiles and IQR, the change's wins and ``claim_met``;
and per side the ``tools/src_lines.py`` totals.  With ``--json``, each
workload also gets one ``perfbench/run.py --seed 1 --trace 1`` run per side:
its count and ratio metrics, which do not vary between runs of one revision,
and the names whose values differ between the sides.  ``--tier1`` adds one timed
Tier-1 run per side (``python -m pytest -q`` with ``PYTHONPATH=src``), after
the pairs, with the last line pytest printed.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
# Units of the traced metrics that count events or calls, or divide counts.
COUNT_UNITS = ("count", "ratio", "packets", "copies/discovery")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def export(repo: Path, rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest`` (git archive, untarred)."""
    tar = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, held_out: bool, trace: int = 0) -> dict:
    """One perfbench run; its last stdout line parsed as JSON."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    if held_out:
        cmd.append("--held-out")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench failed in {tree} (exit {proc.returncode})")
    return json.loads(lines[-1])


def traced_counts(tree: Path, workload: str, held_out: bool) -> tuple[dict, bool]:
    """The count and ratio metrics of one traced perfbench run (seed 1), and
    whether it was correct with none failed."""
    out = run_once(tree, workload, 1, held_out, trace=1)
    counts = {n: m["value"] for n, m in out["metrics"].items() if m["unit"] in COUNT_UNITS}
    return counts, out["correct"] and out["failed"] == 0


def summarize(base: list[float], change: list[float]) -> dict:
    """Each side's median and inclusive quartiles, the pairs in which the
    change read strictly lower (a tie is no win), and whether that is a gain
    that may be claimed: at least nine wins in ten pairs, and a drop in the
    median larger than the base's interquartile range."""
    # Inclusive quartiles interpolate between sorted runs: 3.25 and 7.75 for 1..10.
    bq1, bmed, bq3 = statistics.quantiles(base, n=4, method="inclusive")
    cq1, cmed, cq3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(c < b for b, c in zip(base, change))
    return {
        "base": (bq1, bmed, bq3),
        "change": (cq1, cmed, cq3),
        "wins": wins,
        "claim_met": 10 * wins >= 9 * len(base) and bmed - cmed > bq3 - bq1,
    }


def src_totals(tree: Path) -> dict[str, int]:
    """The total row ``tools/src_lines.py`` prints for the package in ``tree``."""
    tool = Path(__file__).resolve().parent / "src_lines.py"
    lines = subprocess.run(
        [sys.executable, str(tool), str(tree / "src" / "cbrsim")],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    header, total = lines[0].split()[1:], lines[-1].split()[1:]
    return dict(zip(header, map(int, total)))


def run_tier1(tree: Path) -> dict:
    """One Tier-1 run in ``tree``: its wall time and pytest's last line."""
    env = {**os.environ, "PYTHONPATH": "src"}
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - t0, 1), "result": lines[-1] if lines else ""}


def run_pairs(sides: dict[str, Path], workload: str, pairs: int, held_out: bool):
    """Alternating runs of one workload: each side's results in pair order,
    and whether every run was correct with none failed."""
    results: dict[str, list[dict]] = {side: [] for side in sides}
    ok = True
    for i in range(pairs):
        seed = i + 1
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            out = run_once(sides[side], workload, seed, held_out)
            ok = ok and out["correct"] and out["failed"] == 0
            results[side].append(out)
        row = "  ".join(
            f"{m} {results['base'][-1]['metrics'][m]['value']:.3f}"
            f" -> {results['change'][-1]['metrics'][m]['value']:.3f}"
            for m in METRICS
        )
        print(f"pair {i + 1:2d} seed {seed} ({order[0]} first): {row}", flush=True)
    return results, ok


def workload_summary(results: dict[str, list[dict]]) -> dict:
    """Per metric: each side's runs, median, quartiles and interquartile
    range, the change's wins and ``claim_met``."""
    summary = {}
    for m in METRICS:
        runs = {side: [r["metrics"][m]["value"] for r in rs] for side, rs in results.items()}
        stats = summarize(runs["base"], runs["change"])
        entry = {}
        for side in ("base", "change"):
            q1, median, q3 = stats[side]
            entry[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
            entry[side]["runs"] = runs[side]
        summary[m] = {**entry, "wins": stats["wins"], "claim_met": stats["claim_met"]}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD~1", help="revision measured as the parent")
    parser.add_argument("--change", default="HEAD", help="revision measured as the change")
    parser.add_argument("--held-out", action="store_true", help="passed to perfbench")
    parser.add_argument("--json", type=Path, help="also write the summary here")
    parser.add_argument("--tier1", action="store_true", help="time one Tier-1 run per side")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    repo = Path(__file__).resolve().parent.parent
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    sides = {"base": scratch / "parent", "change": scratch / "change"}
    pool = "held-out" if args.held_out else "main"
    report = {"base": args.base, "change": args.change, "pool": pool, "pairs": args.pairs}
    report["workloads"] = {}
    ok = True
    try:
        export(repo, args.base, sides["base"])
        export(repo, args.change, sides["change"])
        report["src_lines"] = {side: src_totals(tree) for side, tree in sides.items()}
        for workload in args.workload:
            results, correct = run_pairs(sides, workload, args.pairs, args.held_out)
            ok = ok and correct
            summary = workload_summary(results)
            report["workloads"][workload] = {"all_correct": correct, "metrics": summary}
            if args.json:
                traced = {}
                for side, tree in sides.items():
                    traced[side], side_ok = traced_counts(tree, workload, args.held_out)
                    ok = ok and side_ok
                base, change = traced["base"], traced["change"]
                traced["differ"] = sorted(
                    n for n in base.keys() | change.keys() if base.get(n) != change.get(n)
                )
                report["workloads"][workload]["traced"] = traced
            print(f"\n{workload}, {pool} pool, {args.pairs} pairs, {args.base} -> {args.change}")
            for m, st in summary.items():
                b, c = st["base"], st["change"]
                print(
                    f"{m:12s} base {b['median']:.3f} [{b['q1']:.3f}, {b['q3']:.3f}]"
                    f"  change {c['median']:.3f} [{c['q1']:.3f}, {c['q3']:.3f}]"
                    f"  {100.0 * (c['median'] - b['median']) / b['median']:+.1f}%"
                    f"  change won {st['wins']}/{args.pairs}  base IQR {b['iqr']:.3f}"
                    f"  claim met {st['claim_met']}"
                )
            if args.json:
                print(f"traced counts that differ: {', '.join(traced['differ']) or 'none'}")
            print(f"all runs correct with 0 failed: {correct}\n", flush=True)
        if args.tier1:
            report["tier1"] = {side: run_tier1(tree) for side, tree in sides.items()}
            print(f"tier1: {report['tier1']}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
