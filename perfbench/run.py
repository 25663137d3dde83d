"""Outside-in benchmark of cbrsim, driven only through its public API.

    python3 perfbench/run.py --workload desk-mobile --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload rate-sweep --seed 1 --seconds 30 --trace 0 --held-out

Each repetition runs in a fresh interpreter (perfbench/worker.py), one after
another.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds
one traced repetition and reports the per-layer metrics.  Metric names and
units are the ones BENCHMARK.json declares.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --write-reference

regenerates perfbench/reference/ after a change that moves simulated
statistics on purpose.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

SETUP_SAMPLES = 9
MIN_REPEATS = 3
MAX_REPEATS = 200
TRACED_COST = 1.8  # a traced repetition takes up to this many untraced ones
TIME_LIMIT_S = 170.0  # a workload gives up past this, well inside 180 s

IDENTITY = ("protocol", "seed", "packet_rate")  # what tells the runs of a pool apart

EVENT_KINDS = (
    "packet_delivery",
    "hello_timer",
    "traffic_emit",
    "waypoint_arrival",
    "neighbor_expiry_scan",
    "transmit_complete",
    "route_retry_timeout",
)


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(spec: dict, deadline: float) -> dict | None:
    """Run one worker; None if it failed or ran past the deadline."""
    t_spawn = clock()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    killer = threading.Timer(max(deadline - t_spawn, 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    if proc.returncode != 0:
        print(f"worker {spec['mode']} failed with exit code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(out.decode().splitlines()[-1])
    result["t_spawn"] = t_spawn
    result["elapsed_s"] = clock() - t_spawn
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return result


def identity(row: list[str], columns: list[str]) -> tuple[str, ...]:
    return tuple(row[columns.index(c)] for c in IDENTITY)


def load_reference(name: str) -> dict[tuple[str, ...], list[str]] | None:
    """Reference rows of both pools, keyed by run identity; None if absent."""
    path = REFERENCE_DIR / f"{name}.csv"
    if not path.exists():
        return None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        return {identity(row, columns): row for row in reader}


def write_reference() -> None:
    """Regenerate every workload's reference rows from one untraced
    repetition of each pool."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        rows = []
        for held_out in (False, True):
            spec = dict(mode="run", workload=name, seed=0, trace=False, tiny=False, held_out=held_out)
            result = spawn(spec, clock() + TIME_LIMIT_S)
            if result is None:
                raise SystemExit(f"reference run failed: {name}")
            rows += result["rows"]
        with open(REFERENCE_DIR / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(result["columns"])
            writer.writerows(rows)
        print(f"wrote {fh.name}")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, untraced_wall: float, setups: list[dict]) -> dict[str, float]:
    stats, counters = traced["trace"]["stats"], traced["trace"]["counters"]

    def calls(name):
        return stats[name][0]

    def self_s(name):
        return stats[name][2]

    def count(name):
        return counters.get(name, 0)

    def setup_median(name):
        return statistics.median(s["self_s"][name] for s in setups)

    events = sum(count(kind) for kind in EVENT_KINDS)
    columns = traced["columns"]
    rreq_sent = sum(int(r[columns.index("rreq_sent")]) for r in traced["rows"])
    rreq_losses = sum(int(r[columns.index("rreq_losses")]) for r in traced["rows"])
    cells = traced["trace"]["cells"]
    return {
        "engine.events": events,
        **{f"engine.events.{kind}": count(kind) for kind in EVENT_KINDS},
        "engine.us_per_event": ratio(untraced_wall, events) * 1e6,
        "engine.self_s": self_s("engine.run"),
        "queue.enqueue_calls": calls("queue.enqueue"),
        "queue.enqueue_s": self_s("queue.enqueue"),
        "queue.pop_s": self_s("queue.pop"),
        "queue.enqueue_us": ratio(self_s("queue.enqueue"), calls("queue.enqueue")) * 1e6,
        "queue.accept_ratio": ratio(count("queue.accepted"), calls("queue.enqueue")),
        "queue.drops": count("queue.drops"),
        "queue.depth_peak": count("queue.depth_peak"),
        "clustering.hello_rx_calls": calls("clustering.hello_rx"),
        "clustering.hello_rx_s": self_s("clustering.hello_rx"),
        "clustering.hello_rx_us": ratio(self_s("clustering.hello_rx"), calls("clustering.hello_rx")) * 1e6,
        "clustering.expire_s": self_s("clustering.expire"),
        "clustering.build_hello_s": self_s("clustering.build_hello"),
        "clustering.role_changes": count("clustering.role_changes"),
        "routing.rreq_calls": calls("routing.rreq"),
        "routing.rreq_s": self_s("routing.rreq"),
        "routing.rreq_us": ratio(self_s("routing.rreq"), calls("routing.rreq")) * 1e6,
        "routing.rreq_dup_ratio": ratio(count("routing.rreq_dup"), calls("routing.rreq")),
        "routing.rreq_fanout": ratio(count("routing.rreq_copies"), count("routing.discoveries")),
        "routing.rreq_loss_ratio": ratio(rreq_losses, rreq_sent),
        "routing.rrep_s": self_s("routing.rrep"),
        "routing.originate_s": self_s("routing.originate"),
        "routing.forward_data_s": self_s("routing.forward_data"),
        "mobility.position_calls": calls("mobility.position"),
        "mobility.position_s": self_s("mobility.position"),
        "mobility.next_leg_s": self_s("mobility.next_leg"),
        "radio.gain_calls": calls("radio.gain"),
        "radio.gain_s": self_s("radio.gain"),
        "cli.cell_s.p50": statistics.median(cells),
        "cli.cell_s.p90": quantile(cells, 0.9),
        "metrics.finalize_s": self_s("metrics.finalize"),
        "import_s": statistics.median(s["import_s"] for s in setups),
        "config.placement_s": setup_median("config.placement"),
        "traffic.flows_s": setup_median("traffic.flows"),
        "engine.init_s": setup_median("engine.init"),
        "trace.overhead_pct": (traced["wall_s"] / untraced_wall - 1.0) * 100.0,
        "trace.wrapper_us": traced["trace"]["wrapper_s"] * 1e6,
    }


def harness_lines(traced: dict) -> list[str]:
    """Harness-only layer times; a workload without run_sweep has none."""
    stats = traced["trace"]["stats"]
    if not stats["cli.run_sweep"][0]:
        return []
    return [
        f"  cli.harness_self_s {stats['cli.run_sweep'][2]:.6f} s",
        f"  cli.summary_s {stats['cli.summary'][2]:.6f} s",
        f"  cli.report_s {stats['cli.report'][2]:.6f} s",
    ]


def measure(name: str, args: argparse.Namespace, bench: dict) -> dict:
    workload = workloads.WORKLOADS[name]
    trace = bool(args.trace)
    deadline = clock() + TIME_LIMIT_S
    spec = dict(workload=name, seed=args.seed, trace=trace, tiny=args.tiny, held_out=args.held_out)

    # Set-up: fresh interpreters from spawn to the state before the first event.
    # The first one compiles bytecode and warms the file cache; it is not kept.
    setups = []
    for _ in range(SETUP_SAMPLES + 1):
        result = spawn(dict(spec, mode="setup"), deadline)
        if result is None:
            raise SystemExit(f"{name}: set-up failed")
        result["setup_s"] = result["t_ready"] - result["t_spawn"]
        setups.append(result)
    setups = setups[1:]

    start = clock()
    repeats: list[dict | None] = []
    while len(repeats) < MAX_REPEATS:
        result = spawn(dict(spec, mode="run", trace=False), deadline)
        repeats.append(result)
        if result is None:
            break
        elapsed = clock() - start
        per_repeat = statistics.median(r["elapsed_s"] for r in repeats)
        reserve = per_repeat * (1.0 + (TRACED_COST if trace else 0.0))
        if len(repeats) >= MIN_REPEATS and elapsed + reserve > args.seconds:
            break
    traced = None
    if trace and repeats[-1] is not None:
        traced = spawn(dict(spec, mode="run", trace=True), deadline)
        repeats.append(traced)

    # Output check: every run's row, traced ones included, equals the
    # reference row of the same run (in the tiny self-test shape, which has
    # no reference, the first repetition's row).
    good = [r for r in repeats if r is not None]
    reference = None if args.tiny else load_reference(name)
    if reference is None and good:
        columns = good[0]["columns"]
        expected = {identity(row, columns): row for row in good[0]["rows"]}
    else:
        expected = reference or {}
    runs = workload.run_count
    attempted = runs * len(repeats)
    failed = 0
    for r in repeats:
        if r is None or len(r["rows"]) != runs:
            failed += runs
        else:
            failed += sum(expected.get(identity(row, r["columns"])) != row for row in r["rows"])
    outputs_match = None if reference is None else failed == 0
    untraced = [r for r in repeats if r is not None and r is not traced]
    traced_match = traced is not None and bool(untraced) and sorted(traced["rows"]) == sorted(untraced[0]["rows"])
    correct = failed == 0 and (args.tiny or reference is not None) and (not trace or traced_match)

    pool = workloads.HELD_OUT_POOL if args.held_out else workloads.POOL
    lines = [
        f"workload {name} seed {args.seed} (pool {pool}): {len(untraced)} untraced repetitions"
        + (", 1 traced" if traced is not None else "")
        + f", {len(setups)} set-up samples",
        f"  runs: {failed} failed / {attempted} attempted; outputs_match: "
        + ("no reference" if outputs_match is None else str(outputs_match).lower())
        + (f"; traced rows equal untraced: {str(traced_match).lower()}" if trace else ""),
    ]
    metrics: dict[str, float] = {}
    if untraced:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        if traced is not None:
            metrics.update(layer_metrics(traced, metrics["wall_s"], setups))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for metric, value in metrics.items():
        lines.append(f"  {metric} {value:.6g} {units[metric]}")
    if traced is not None:
        lines += harness_lines(traced)
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    return {
        "lines": lines,
        "correct": correct and all(m in metrics for m in wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in wanted if m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--held-out", action="store_true", help="run the held-out scenario pool")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cbrsim" / "__init__.py").is_file():
        print(f"no cbrsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(name, args, bench)
        print("\n".join(result.pop("lines")), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
