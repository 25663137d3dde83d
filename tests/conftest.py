"""Shared fixtures and topology builders for the test suite."""

from __future__ import annotations

import math
import os
from pathlib import Path

import pytest

import cbrsim
from cbrsim.clustering import (
    NeighborEntry,
    NeighborTable,
    NodeClusterState,
    Role,
    check_invariants,
    run_election,
    set_link_role,
)
from cbrsim.config import Protocol, ScenarioConfig


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the ``cbrsim`` under test.

    The directory holding the imported package goes first on ``PYTHONPATH``, so
    the child neither misses a package that is only on this process's
    ``sys.path`` nor picks up a different installed copy.
    """
    env = dict(os.environ)
    root = str(Path(cbrsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def make_cfg(**overrides) -> ScenarioConfig:
    """Small, fast scenario used as the unit-test default."""
    base = dict(
        node_count=10,
        area_width=400.0,
        area_height=400.0,
        max_speed=10.0,
        min_speed=0.1,
        sim_duration=60.0,
        flow_count=2,
        packet_rate=2.0,
        rng_seed=1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def static_cfg(**overrides) -> ScenarioConfig:
    over = dict(max_speed=0.0, min_speed=0.0)
    over.update(overrides)
    return make_cfg(**over)


def chain_placement(n: int, spacing: float = 200.0) -> list[tuple[float, float]]:
    """Nodes on a line, consecutive pairs in range, non-consecutive out."""
    return [(50.0 + i * spacing, 50.0) for i in range(n)]


def make_state(
    node_id: int,
    protocol: Protocol = Protocol.CBRP,
    role: Role = Role.UNDECIDED,
    hello_interval: float = 2.0,
    neighbor_timeout: float = 6.0,
    **fields,
) -> NodeClusterState:
    state = NodeClusterState(
        node_id=node_id,
        protocol=protocol,
        hello_interval=hello_interval,
        neighbor_timeout=neighbor_timeout,
        role=role,
    )
    for name, value in fields.items():
        setattr(state, name, value)
    return state


def advertised_ids(table: NeighborTable, role: Role) -> frozenset[int]:
    """The ids a hello table lists over a bidirectional link with ``role``: a
    scan of the table, which a hello's advertised heads must match."""
    return frozenset(nid for nid, (bidir, r) in table.items() if bidir and r is role)


def add_neighbor(
    state: NodeClusterState,
    neighbor_id: int,
    *,
    bidirectional: bool = True,
    role: Role = Role.UNDECIDED,
    advertised_mobility: float | None = None,
    rel_mobility: float | None = None,
    expires_at: float = 1e9,
    advertised_neighbors: dict | None = None,
) -> NeighborEntry:
    advertised_neighbors = advertised_neighbors or {}
    entry = NeighborEntry(
        neighbor_id=neighbor_id,
        bidirectional=bidirectional,
        role=role,
        advertised_mobility=advertised_mobility,
        last_rx_power=1.0,
        rel_mobility=rel_mobility,
        expires_at=expires_at,
        advertised_neighbors=advertised_neighbors,
        advertised_heads=advertised_ids(advertised_neighbors, Role.CLUSTER_HEAD),
    )
    state.neighbors[neighbor_id] = entry
    set_link_role(state, entry, entry.bidirectional, entry.role)
    return entry


def route_spy(sim) -> list[tuple[float, int, int, tuple[int, ...]]]:
    """Record each route ``sim`` installs as (time, node, destination, route),
    in install order.  Wraps ``_route_installed`` on this instance alone and
    reads the route from the node's cache, where both install paths (a route
    answered from the table and a route reply reaching its source) put it."""
    routes = []
    installed = sim._route_installed

    def spy(node, destination):
        routes.append((sim.now, node.node_id, destination, node.router.cache[destination]))
        installed(node, destination)

    sim._route_installed = spy
    return routes


def set_neighbor_role(state: NodeClusterState, neighbor_id: int, role: Role) -> None:
    """Change the role a table entry records, through the same path a hello
    receipt takes, so the state's adjacent-head set follows."""
    entry = state.neighbors[neighbor_id]
    set_link_role(state, entry, entry.bidirectional, role)


def assert_election_settled(state: NodeClusterState, now: float) -> None:
    """A second election step at ``now`` changes nothing and the invariants
    hold: what an election step may skip when its inputs did not change."""
    role, heads = state.role, state.head_ids  # a copy: derived per read
    assert run_election(state, now) is False, f"node {state.node_id}: re-run asks for a hello"
    assert state.role is role, f"node {state.node_id}: re-run moved {role} to {state.role}"
    assert state.head_ids == heads, (
        f"node {state.node_id}: re-run moved heads {heads} to {state.head_ids}"
    )
    check_invariants(state)


def bidirectional_disc_adjacency(positions, tx_range):
    """Ground-truth adjacency of the disc graph, independent of the engine."""
    n = len(positions)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(positions[i], positions[j]) <= tx_range:
                adj[i][j] = adj[j][i] = True
    return adj


def is_connected(adj) -> bool:
    n = len(adj)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in range(n):
            if adj[u][v] and v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n


@pytest.fixture
def cfg():
    return make_cfg()
