"""Smoke test of tools/profile_workload.py on the benchmark's tiny inputs."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

TOOL = Path(__file__).resolve().parent.parent / "tools" / "profile_workload.py"


@pytest.mark.parametrize("workload", ["desk-mobile", "rate-sweep"])
def test_tiny_profile_ranks_functions_and_handlers(workload):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--tiny", "--top", "5"],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"{workload}: ")
    top = lines.index("top 5 functions by self time:")
    methods = lines.index("Simulation methods by cumulative time:")
    assert methods - top == 5 + 2  # the heading, the column names, five rows
    handlers = {line.split()[-1] for line in lines[methods + 2:]}
    # Every simulation starts with hello timers and ends in run's loop.
    assert {"run", "_on_hello_timer", "_on_transmit_complete", "_deliver_hello"} <= handlers
