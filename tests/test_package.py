"""The package root: what ``import cbrsim`` loads, and the harness names it
resolves on first use."""

import subprocess
import sys

import pytest

from conftest import child_env

HARNESS_NAMES = ("ExperimentPlan", "SweepAxis", "run_sweep")


def run_child(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr


def test_a_simulation_only_process_never_loads_the_harness():
    # A direct Simulation run must not pay for the CLI, argparse or csv.
    run_child(
        "import sys\n"
        "import cbrsim\n"
        "cfg = cbrsim.ScenarioConfig(node_count=8, area_width=300.0, area_height=300.0,\n"
        "                            sim_duration=5.0, flow_count=2)\n"
        "report = cbrsim.Simulation(cfg).run()\n"
        "assert report.hello_sent > 0\n"
        "loaded = [m for m in ('cbrsim.cli', 'argparse', 'csv') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


@pytest.mark.parametrize("first", ["", "import cbrsim.cli\n"], ids=["fresh", "after-cli"])
def test_harness_names_resolve_like_the_tracer_reads_them(first):
    # The benchmark's tracer reads getattr(cbrsim, name) and then
    # cbrsim.__dict__[name], so the first access must bind each name.
    run_child(
        "import sys\n"
        f"{first}"
        "import cbrsim\n"
        f"for name in {HARNESS_NAMES!r}:\n"
        "    obj = getattr(cbrsim, name)\n"
        "    assert cbrsim.__dict__[name] is obj is getattr(sys.modules['cbrsim.cli'], name)\n"
        "assert cbrsim.cli is sys.modules['cbrsim.cli']\n"
    )


def test_star_import_exports_every_listed_name():
    run_child(
        "import cbrsim\n"
        "namespace = {}\n"
        "exec('from cbrsim import *', namespace)\n"
        "missing = [n for n in cbrsim.__all__ if n not in namespace]\n"
        "assert not missing, missing\n"
        "assert namespace['run_sweep'] is cbrsim.cli.run_sweep\n"
    )


def test_an_unknown_name_is_an_attribute_error():
    import cbrsim

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cbrsim.no_such_name
