"""Self-test of the benchmark on tiny scenarios (8 nodes, 5 simulated seconds).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * workloads.WORKLOADS[workload].run_count
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_leaves_rows_and_attributes_unchanged(workload, tmp_path):
    cbrsim = worker.import_cbrsim()
    spec = workloads.WORKLOADS[workload]
    inputs = workloads.build_inputs(cbrsim, spec, 5, tiny=True)
    plain = workloads.execute(cbrsim, inputs, tmp_path / "plain")
    with tracer.Tracer(cbrsim) as tr:
        patched = tr.patched()
        traced = workloads.execute(cbrsim, inputs, tmp_path / "traced")
    assert traced == plain
    assert len(patched) == len(tr.stats) + 1  # every timed boundary, plus schedule
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert tr.stats["engine.run"][0] == spec.run_count
    assert tr.stats["cli.run_sweep"][0] == (1 if spec.is_sweep else 0)
    assert tr.stats["clustering.hello_rx"][0] > 0
    assert len(tr.cells) == spec.run_count


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_only_reorders_the_pool(workload, tmp_path):
    cbrsim = worker.import_cbrsim()
    spec = workloads.WORKLOADS[workload]
    rows = [
        workloads.execute(
            cbrsim, workloads.build_inputs(cbrsim, spec, seed, tiny=True), tmp_path / str(seed)
        )
        for seed in range(8)
    ]
    assert len({tuple(map(tuple, r)) for r in rows}) > 1
    assert all(sorted(r) == sorted(rows[0]) for r in rows)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "desk-mobile", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
