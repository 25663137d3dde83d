"""One perfbench workload, run in-process under cProfile.

    python3 tools/profile_workload.py --workload desk-mobile
    python3 tools/profile_workload.py --workload default-100 --held-out --top 30
    python3 tools/profile_workload.py --workload rate-sweep --tiny

The inputs are the ones ``perfbench/run.py`` builds for seed 0: this script
reads ``perfbench/workloads.py`` and the ``src/cbrsim`` of its own checkout,
and changes neither.  It prints the functions with the most self time, then
the cumulative time of every ``Simulation`` method that ran, so a change can
be ranked without perfbench's tracer, whose wrappers add about a microsecond
to every call they count.  cProfile adds its own per-call cost, so read the
figures as a ranking, not as wall time.  Stdlib only.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load():
    """The ``cbrsim`` package and the perfbench ``workloads`` module of this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import cbrsim
    import workloads

    return cbrsim, workloads


def profile(workload: str, held_out: bool, tiny: bool) -> tuple[pstats.Stats, float]:
    cbrsim, workloads = load()
    spec = workloads.WORKLOADS[workload]
    inputs = workloads.build_inputs(cbrsim, spec, 0, tiny, held_out)
    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory() as out_dir:
        t0 = time.perf_counter()
        profiler.runcall(workloads.execute, cbrsim, inputs, Path(out_dir))
        elapsed = time.perf_counter() - t0
    return pstats.Stats(profiler), elapsed


def _name(key: tuple) -> str:
    filename, line, function = key
    if filename == "~":
        return function  # a built-in
    return f"{Path(filename).name}:{line}({function})"


def report(stats: pstats.Stats, top: int) -> list[str]:
    from cbrsim.engine import Simulation

    # stats.stats: (file, line, name) -> (primitive calls, calls, self s, cumulative s, callers)
    rows = stats.stats
    lines = [f"top {top} functions by self time:", f"{'self_s':>9} {'calls':>10}  function"]
    for key, (_, calls, self_s, _, _) in sorted(rows.items(), key=lambda kv: -kv[1][2])[:top]:
        lines.append(f"{self_s:9.3f} {calls:10d}  {_name(key)}")
    methods = {
        (fn.__code__.co_filename, fn.__code__.co_firstlineno, fn.__code__.co_name)
        for fn in vars(Simulation).values()
        if hasattr(fn, "__code__")
    }
    lines += ["Simulation methods by cumulative time:", f"{'cum_s':>9} {'calls':>10}  method"]
    ran = [(key, row) for key, row in rows.items() if key in methods]
    for key, (_, calls, _, cum_s, _) in sorted(ran, key=lambda kv: -kv[1][3]):
        lines.append(f"{cum_s:9.3f} {calls:10d}  {key[2]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--held-out", action="store_true", help="run the held-out seed pool")
    parser.add_argument("--tiny", action="store_true", help="the benchmark self-test's small inputs")
    parser.add_argument("--top", type=int, default=20, help="functions listed by self time")
    args = parser.parse_args(argv)
    stats, elapsed = profile(args.workload, args.held_out, args.tiny)
    print(f"{args.workload}: {elapsed:.3f} s under cProfile")
    print("\n".join(report(stats, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
