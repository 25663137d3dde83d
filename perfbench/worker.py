"""One measured repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '{"mode": "run", "workload": "desk-mobile", "seed": 3,
                                  "trace": false, "tiny": false, "held_out": false}'

Mode ``setup`` imports cbrsim, builds the inputs and constructs the first
Simulation, then stops: the state just before the first event.  Mode
``run`` drives the workload to its last report.  The result is one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from dataclasses import fields
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def import_cbrsim():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cbrsim

    if Path(cbrsim.__file__).resolve().parent != src / "cbrsim":
        raise RuntimeError(f"imported cbrsim from {cbrsim.__file__}, not from {src}")
    return cbrsim


def setup(cbrsim, inputs, trace: bool) -> dict:
    tr = tracer.Tracer(cbrsim, only=tracer.SETUP_BOUNDARIES) if trace else None
    cbrsim.Simulation(workloads.first_config(inputs))
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"t_ready": t_ready}
    if tr is not None:
        tr.restore()
        result["self_s"] = {name: tr.stats[name][2] for name in tracer.SETUP_BOUNDARIES}
    return result


def run(cbrsim, workload, inputs, trace: bool) -> dict:
    out_dir = ROOT / ".perfbench-tmp" / str(os.getpid())
    tr = tracer.Tracer(cbrsim) if trace else None
    try:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        rows = workloads.execute(cbrsim, inputs, out_dir)
        wall_s = time.perf_counter() - t0
        cpu_s = cpu_seconds() - cpu0
        if workload.is_sweep:
            workloads.check_sweep_files(out_dir, len(rows))
    finally:
        if tr is not None:
            tr.restore()
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rows": rows,
        "columns": [f.name for f in fields(cbrsim.RunReport)],
    }
    if tr is not None:
        result["trace"] = {
            "stats": tr.stats,
            "counters": dict(tr.counters),
            "cells": tr.cells,
            "wrapper_s": tracer.calibrate(),
        }
    return result


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    cbrsim = import_cbrsim()
    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[spec["workload"]]
    inputs = workloads.build_inputs(cbrsim, workload, spec["seed"], spec["tiny"], spec["held_out"])
    if spec["mode"] == "setup":
        result = setup(cbrsim, inputs, spec["trace"])
    else:
        result = run(cbrsim, workload, inputs, spec["trace"])
    result["import_s"] = import_s
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
