"""Deterministic packet-level simulator for cluster-based ad hoc routing.

Two cluster-head election variants run over a shared engine: the lowest-ID
rule with least-cluster-change maintenance, and a mobility-aware rule that
elects the node whose received-signal-strength history is most stable.  The
package also ships the experiment harness that compares the two.
"""

from .clustering import (
    HelloMessage,
    NeighborEntry,
    NodeClusterState,
    Role,
    aggregate_mobility,
    build_hello,
    expire_neighbors,
    on_hello_received,
    relative_mobility,
    run_election,
)
from .cli import ExperimentPlan, SweepAxis, run_sweep
from .config import (
    Protocol,
    ScenarioConfig,
    generate_initial_placement,
    parse_config,
    serialize_config,
)
from .engine import EventKind, InterfaceQueue, QueueOutcome, Simulation
from .errors import ConfigError, InvariantError
from .metrics import MetricsLedger, RunReport, aggregate, finalize, paired_comparison
from .mobility import WaypointLeg, next_leg, position_at
from .radio import ChannelModel, channel_gain, received_power
from .routing import (
    RouteReplyPacket,
    RouteRequestPacket,
    RouterState,
    forward_data,
    originate_rreq,
    process_rrep,
    process_rreq,
)
from .traffic import DataPacket, Flow, generate_flows

__all__ = [
    "ChannelModel",
    "ConfigError",
    "DataPacket",
    "EventKind",
    "ExperimentPlan",
    "Flow",
    "HelloMessage",
    "InterfaceQueue",
    "InvariantError",
    "MetricsLedger",
    "NeighborEntry",
    "NodeClusterState",
    "Protocol",
    "QueueOutcome",
    "Role",
    "RouteReplyPacket",
    "RouteRequestPacket",
    "RouterState",
    "RunReport",
    "ScenarioConfig",
    "Simulation",
    "SweepAxis",
    "WaypointLeg",
    "aggregate",
    "aggregate_mobility",
    "build_hello",
    "channel_gain",
    "expire_neighbors",
    "finalize",
    "forward_data",
    "generate_flows",
    "generate_initial_placement",
    "next_leg",
    "on_hello_received",
    "originate_rreq",
    "paired_comparison",
    "parse_config",
    "position_at",
    "process_rrep",
    "process_rreq",
    "received_power",
    "relative_mobility",
    "run_election",
    "run_sweep",
    "serialize_config",
]
