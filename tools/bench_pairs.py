"""Alternating before/after runs of the perfbench benchmark on two revisions.

    python3 tools/bench_pairs.py --workload default-100 --pairs 10
    python3 tools/bench_pairs.py --workload desk-mobile --pairs 10 --held-out
    python3 tools/bench_pairs.py --workload rate-sweep --base main --change my-branch

Each revision is exported with ``git archive`` into its own temporary tree, so
neither side sees the working copy.  Pair ``i`` runs
``perfbench/run.py --workload W --seed i --trace 0`` once in each tree, the
base first in odd pairs and the change first in even ones, so a slow spell of
the host falls on both sides.  The script prints every pair, then per
end-to-end metric each side's median and quartiles and in how many pairs the
change did better (all four metrics are lower-is-better), and whether the
change meets the claim rule: at least 9/10 wins and a median drop larger than
the base's interquartile range.  It exits 1 when a run fails or reports
``correct: false``.  Uncommitted work can be measured with
``--change $(git stash create)``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


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


def run_once(tree: Path, workload: str, seed: int, held_out: bool) -> dict:
    """One perfbench run; its last stdout line parsed as JSON."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    if held_out:
        cmd.append("--held-out")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench failed in {tree} (exit {proc.returncode})")
    return json.loads(lines[-1])


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD~1", help="revision measured as the parent")
    parser.add_argument("--change", default="HEAD", help="revision measured as the change")
    parser.add_argument("--held-out", action="store_true", help="passed to perfbench")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    repo = Path(__file__).resolve().parent.parent
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    sides = {"base": scratch / "base", "change": scratch / "change"}
    results: dict[str, list[dict]] = {side: [] for side in sides}
    ok = True
    try:
        export(repo, args.base, sides["base"])
        export(repo, args.change, sides["change"])
        for i in range(args.pairs):
            seed = i + 1
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                out = run_once(sides[side], args.workload, seed, args.held_out)
                ok = ok and out["correct"] and out["failed"] == 0
                results[side].append(out)
            row = "  ".join(
                f"{m} {results['base'][-1]['metrics'][m]['value']:.3f}"
                f" -> {results['change'][-1]['metrics'][m]['value']:.3f}"
                for m in METRICS
            )
            print(f"pair {i + 1:2d} seed {seed} ({order[0]} first): {row}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    pool = "held-out" if args.held_out else "main"
    print(f"\n{args.workload}, {pool} pool, {args.pairs} pairs, {args.base} -> {args.change}")
    for m in METRICS:
        base = [r["metrics"][m]["value"] for r in results["base"]]
        change = [r["metrics"][m]["value"] for r in results["change"]]
        stats = summarize(base, change)
        (bq1, bmed, bq3), (cq1, cmed, cq3) = stats["base"], stats["change"]
        print(
            f"{m:12s} base {bmed:.3f} [{bq1:.3f}, {bq3:.3f}]"
            f"  change {cmed:.3f} [{cq1:.3f}, {cq3:.3f}]"
            f"  {100.0 * (cmed - bmed) / bmed:+.1f}%"
            f"  change won {stats['wins']}/{args.pairs}  base IQR {bq3 - bq1:.3f}"
            f"  claim met {stats['claim_met']}"
        )
    print(f"all runs correct with 0 failed: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
