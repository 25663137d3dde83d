"""Behaviour pin: a small fixed sweep must reproduce the committed outputs.

``tests/data/golden_runs.csv`` and ``tests/data/golden_summary.csv`` hold the
``runs.csv`` and ``summary.csv`` of ``GOLDEN_PLAN``.  Any change to simulated
behaviour moves at least one byte; a pure refactor or optimisation moves none.
A change that alters behaviour on purpose regenerates both files with

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes why the rows moved.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from cbrsim import ExperimentPlan, Protocol, ScenarioConfig, SweepAxis, run_sweep

DATA = Path(__file__).parent / "data"
GOLDEN_FILES = {"runs.csv": "golden_runs.csv", "summary.csv": "golden_summary.csv"}

# Both protocols, mobile at two speeds, two seeds: 8 runs of 20 simulated
# seconds, a few seconds of host time in all.  The field is wide enough for
# multi-hop routes and broken links, and the queue short enough to overflow.
GOLDEN_PLAN = ExperimentPlan(
    base=ScenarioConfig(
        node_count=30,
        area_width=700.0,
        area_height=700.0,
        min_speed=0.1,
        hello_interval=1.0,
        neighbor_timeout=3.0,
        formation_grace=5.0,
        sim_duration=20.0,
        flow_count=5,
        packet_rate=4.0,
        queue_capacity=4,
    ),
    axis=SweepAxis.MAX_SPEED,
    values=(5.0, 20.0),
    protocols=(Protocol.CBRP, Protocol.CROSS_CBRP),
    seeds=(0, 1),
)


def test_golden_sweep_reproduces_committed_outputs(tmp_path):
    run_sweep(GOLDEN_PLAN, tmp_path)
    for produced, golden in GOLDEN_FILES.items():
        got = (tmp_path / produced).read_bytes()
        assert got == (DATA / golden).read_bytes(), f"{produced} differs from {golden}"


def write_golden(scratch: Path) -> None:
    run_sweep(GOLDEN_PLAN, scratch)
    DATA.mkdir(exist_ok=True)
    for produced, golden in GOLDEN_FILES.items():
        shutil.copyfile(scratch / produced, DATA / golden)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
