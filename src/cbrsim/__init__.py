"""Deterministic packet-level simulator for cluster-based ad hoc routing.

Two cluster-head election variants run over a shared engine: the lowest-ID
rule with least-cluster-change maintenance, and a mobility-aware rule that
elects the node whose received-signal-strength history is most stable.  The
package also ships the experiment harness that compares the two.

The root re-exports the names the README, the demos and the benchmark use;
every other name is imported from its module.  The harness names
(``ExperimentPlan``, ``SweepAxis``, ``run_sweep``) and the ``cli`` module load
on first use, so a process that only runs ``Simulation`` never imports the
harness or ``argparse`` and ``csv``.
"""

import importlib

from .clustering import aggregate_mobility, relative_mobility
from .config import Protocol, ScenarioConfig
from .engine import Simulation
from .metrics import RunReport

_HARNESS_NAMES = ("ExperimentPlan", "SweepAxis", "run_sweep")

__all__ = [
    "ExperimentPlan",
    "Protocol",
    "RunReport",
    "ScenarioConfig",
    "Simulation",
    "SweepAxis",
    "aggregate_mobility",
    "relative_mobility",
    "run_sweep",
]


def __getattr__(name):
    """Import the harness on first use of ``cli`` or a harness name, and bind
    the harness names here, so later reads (and ``__dict__`` lookups) find
    them without this hook.  ``from . import cli`` would call this hook again."""
    if name != "cli" and name not in _HARNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    cli = importlib.import_module(".cli", __name__)
    globals().update({n: getattr(cli, n) for n in _HARNESS_NAMES})
    return cli if name == "cli" else globals()[name]
