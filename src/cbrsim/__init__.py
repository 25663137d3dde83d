"""Deterministic packet-level simulator for cluster-based ad hoc routing.

Two cluster-head election variants run over a shared engine: the lowest-ID
rule with least-cluster-change maintenance, and a mobility-aware rule that
elects the node whose received-signal-strength history is most stable.  The
package also ships the experiment harness that compares the two.

The root re-exports the names the README, the demos and the benchmark use;
every other name is imported from its module.
"""

from .cli import ExperimentPlan, SweepAxis, run_sweep
from .clustering import aggregate_mobility, relative_mobility
from .config import Protocol, ScenarioConfig
from .engine import Simulation
from .metrics import RunReport
from .radio import ChannelModel, received_power

__all__ = [
    "ChannelModel",
    "ExperimentPlan",
    "Protocol",
    "RunReport",
    "ScenarioConfig",
    "Simulation",
    "SweepAxis",
    "aggregate_mobility",
    "received_power",
    "relative_mobility",
    "run_sweep",
]
