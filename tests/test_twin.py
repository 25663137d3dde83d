"""A shortcut-free twin of the engine, as a whole-engine differential check.

The engine takes shortcuts that must not change what a run produces:

* it keeps each node's ``adjacent_heads`` and ``adjacent_members`` in step
  with its table instead of rebuilding them;
* it skips an election step whose inputs did not change;
* it reuses a node's table snapshot until a link, role or entry changes, and
  takes the snapshot's heads from ``adjacent_heads``;
* it receives a packet inside the event that completes its transmission,
  unless another event is due first.

The twin takes none of them, by monkeypatching on the test side alone: it
rebuilds both adjacent sets from the table before every election step and
every snapshot, always runs the election, always rebuilds the snapshot, and
always schedules a reception as a delivery event.  Every config must give the
same report, role-change log and installed routes under both.
"""

from collections import Counter

import pytest

import cbrsim.clustering as clustering
from cbrsim.clustering import CLUSTER_HEAD, MEMBER
from cbrsim.config import Protocol, ScenarioConfig
from cbrsim.engine import EventKind, Simulation
from conftest import route_spy

CONFIGS = [
    ScenarioConfig(
        node_count=30, area_width=700.0, area_height=700.0, sim_duration=60.0,
        protocol=protocol, max_speed=speed, rng_seed=seed,
        fading_enabled=seed % 2 == 1, queue_capacity=4,
    )
    for protocol in Protocol
    for speed in (5.0, 20.0)
    for seed in range(6)
]


def run(cfg: ScenarioConfig):
    sim = Simulation(cfg)
    routes = route_spy(sim)
    report = sim.run()
    return report, sim.ledger.role_changes, routes


def rebuild_adjacent(state):
    bidir = [(nid, e) for nid, e in state.neighbors.items() if e.bidirectional]
    state.adjacent_heads = {nid for nid, e in bidir if e.role is CLUSTER_HEAD}
    state.adjacent_members = {nid: e for nid, e in bidir if e.role is MEMBER}


def run_twin(cfg: ScenarioConfig, monkeypatch, taken: Counter):
    step, snapshot = clustering._election_step, clustering.table_snapshot

    def full_step(state, now, touched):
        taken["step"] += 1
        rebuild_adjacent(state)
        return step(state, now, True)

    def fresh_snapshot(state):
        taken["snapshot"] += 1
        rebuild_adjacent(state)
        state._snapshot = None
        return snapshot(state)

    with monkeypatch.context() as patch:
        patch.setattr(clustering, "_election_step", full_step)
        patch.setattr(clustering, "table_snapshot", fresh_snapshot)
        sim = Simulation(cfg)
        # A completed transmission always schedules its reception; the run loop
        # dispatches that event to the class's handler through _HANDLERS.
        def scheduled_delivery(packet):
            taken["delivery"] += 1
            sim.schedule(sim.now, EventKind.PACKET_DELIVERY, (packet,))

        sim._on_packet_delivery = scheduled_delivery
        routes = route_spy(sim)
        report = sim.run()
    return report, sim.ledger.role_changes, routes


@pytest.mark.parametrize(
    "cfg", CONFIGS,
    ids=[f"{c.protocol.value}-v{c.max_speed:g}-s{c.rng_seed}" for c in CONFIGS],
)
def test_shipped_engine_equals_its_shortcut_free_twin(cfg, monkeypatch):
    report, role_changes, routes = run(cfg)
    taken = Counter()
    twin_report, twin_role_changes, twin_routes = run_twin(cfg, monkeypatch, taken)
    assert report.data_sent > 0 and routes  # traffic flowed and routes were found
    assert min(taken["step"], taken["snapshot"], taken["delivery"]) > 0  # the twin's paths ran
    assert report == twin_report
    assert role_changes == twin_role_changes
    assert routes == twin_routes
