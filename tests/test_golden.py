"""Behaviour pin: a small fixed sweep must reproduce the committed outputs.

``tests/data/golden_runs.csv``, ``golden_summary.csv`` and
``golden_report.txt`` hold the ``runs.csv``, ``summary.csv`` and
``report.txt`` of ``GOLDEN_PLAN``.  The same plan run with ``trace=True``
writes 44 files, too large to commit whole; ``golden_trace.sha256`` holds the
SHA-256 digest of each, in ``sha256sum`` format.  Any change to simulated
behaviour moves at least one byte; a pure refactor or optimisation moves none.
A change that alters behaviour on purpose regenerates all four files with

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes why the files moved.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

from cbrsim import ExperimentPlan, Protocol, ScenarioConfig, SweepAxis, run_sweep

DATA = Path(__file__).parent / "data"
GOLDEN_FILES = {
    "runs.csv": "golden_runs.csv",
    "summary.csv": "golden_summary.csv",
    "report.txt": "golden_report.txt",
}
TRACE_MANIFEST = DATA / "golden_trace.sha256"

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


def trace_manifest(out: Path) -> str:
    """``sha256sum`` lines for every file in ``out``, sorted by name."""
    return "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted(out.iterdir())
    )


def test_golden_sweep_reproduces_committed_outputs(tmp_path):
    run_sweep(GOLDEN_PLAN, tmp_path)
    for produced, golden in GOLDEN_FILES.items():
        got = (tmp_path / produced).read_bytes()
        assert got == (DATA / golden).read_bytes(), f"{produced} differs from {golden}"


def test_traced_golden_sweep_reproduces_committed_digests(tmp_path):
    run_sweep(GOLDEN_PLAN, tmp_path, trace=True)
    got = trace_manifest(tmp_path).splitlines()
    want = TRACE_MANIFEST.read_text(encoding="utf-8").splitlines()
    assert len(want) == 44
    assert got == want


def write_golden(scratch: Path) -> None:
    plain, traced = scratch / "plain", scratch / "traced"
    run_sweep(GOLDEN_PLAN, plain)
    run_sweep(GOLDEN_PLAN, traced, trace=True)
    DATA.mkdir(exist_ok=True)
    for produced, golden in GOLDEN_FILES.items():
        shutil.copyfile(plain / produced, DATA / golden)
    TRACE_MANIFEST.write_text(trace_manifest(traced), encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
