import heapq
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbrsim.clustering
import cbrsim.engine
from cbrsim.clustering import build_hello, table_snapshot
from cbrsim.config import Protocol, ScenarioConfig
from cbrsim.engine import TRACE_HEADERS, EventKind, Simulation
from cbrsim.errors import InvariantError
from cbrsim.mobility import WaypointLeg
from cbrsim.routing import RouteRequestPacket, control_size_bytes
from cbrsim.traffic import DataPacket
from conftest import assert_election_settled, make_cfg, route_spy, static_cfg


def test_identical_seeds_replay_bit_for_bit():
    cfg = make_cfg(sim_duration=40.0, max_speed=15.0, flow_count=3)
    a = Simulation(cfg)
    b = Simulation(cfg)
    a_routes, b_routes = route_spy(a), route_spy(b)
    ra, rb = a.run(), b.run()
    assert ra == rb
    assert a.ledger.role_changes == b.ledger.role_changes
    assert a_routes == b_routes
    assert a.cluster_snapshot() == b.cluster_snapshot()


def test_different_seeds_differ():
    base = make_cfg(sim_duration=40.0, flow_count=3)
    r0 = Simulation(base).run()
    r1 = Simulation(base.with_overrides(rng_seed=2)).run()
    assert r0 != r1


def test_scheduling_into_past_rejected():
    sim = Simulation(make_cfg())
    sim.now = 5.0
    with pytest.raises(InvariantError):
        sim.schedule(4.0, EventKind.HELLO_TIMER, (0,))


def test_events_beyond_horizon_never_processed():
    cfg = make_cfg(sim_duration=20.0)
    sim = Simulation(cfg)
    sim.schedule(25.0, EventKind.HELLO_TIMER, (0,))
    sim.run()
    assert sim.now == 20.0


def test_equal_time_events_processed_in_schedule_order():
    import heapq

    sim = Simulation(make_cfg())
    t = 0.1234567  # distinct from every initial event time
    sim.schedule(t, EventKind.TRACE_SAMPLE, ("first",))
    sim.schedule(t, EventKind.TRACE_SAMPLE, ("second",))
    popped = []
    while sim._heap:
        time, _, _, payload = heapq.heappop(sim._heap)
        if time == t:
            popped.append(payload[0])
    assert popped == ["first", "second"]


def test_in_place_reception_keeps_single_heap_order(monkeypatch):
    # Catches a reception run inside its transmit completion while an event is
    # already due at or before that instant, an event that runs ahead of one
    # scheduled earlier for its instant (also after an event inside the 1e-9 s
    # past slack ran), and an event that reaches the run loop without
    # Simulation.schedule, where the benchmark counts events.
    log = []  # ("s" | "d", time, kind, payload) per schedule call and dispatch
    schedule = Simulation.schedule

    def counting_schedule(sim, time, kind, payload):
        log.append(("s", time, kind, payload))
        schedule(sim, time, kind, payload)

    monkeypatch.setattr(Simulation, "schedule", counting_schedule)
    dispatching = [None]  # kind of the event the run loop dispatched last
    due_first = []  # per in-place reception: was a heap event due at or before now?
    deliver = Simulation._on_packet_delivery

    def checked_delivery(sim, packet):
        if dispatching[0] is EventKind.TRANSMIT_COMPLETE:
            heap = sim._heap
            due_first.append(bool(heap) and heap[0][0] <= sim.now)
        deliver(sim, packet)

    monkeypatch.setattr(Simulation, "_on_packet_delivery", checked_delivery)
    labels = []
    children = {
        "A1": ((0.0, "B1"), (0.0, "B2")),  # same instant: behind A2 and A3
        "A2": ((0.0, "C"), (-5e-10, "D")),  # D is inside the past slack
        "D": ((0.0, "E"),),  # at D's instant, while B1 waits at the later one
    }

    def probe(sim, label):
        labels.append(label)
        for offset, child in children.get(label, ()):
            sim.schedule(sim.now + offset, EventKind.TRACE_SAMPLE, (child,))

    def logged(kind, handler):
        def dispatch(sim, *payload):
            log.append(("d", sim.now, kind, payload))
            dispatching[0] = kind
            handler(sim, *payload)

        return dispatch

    cfg = make_cfg(
        node_count=20, area_width=700.0, area_height=700.0,
        sim_duration=30.0, flow_count=3, max_speed=15.0,
    )
    sim = Simulation(cfg)
    handlers = {**Simulation._HANDLERS, EventKind.TRACE_SAMPLE: probe}
    sim._HANDLERS = {kind: logged(kind, h) for kind, h in handlers.items()}
    t = 0.1234567  # distinct from every initial event time
    for label in ("A1", "A2", "A3"):
        sim.schedule(t, EventKind.TRACE_SAMPLE, (label,))
    report = sim.run()

    assert report.rreq_sent > 0 and report.rrep_sent > 0  # unicasts ran too
    assert labels == ["A1", "A2", "D", "E", "A3", "B1", "B2", "C"]
    # Both reception paths ran, and no in-place one jumped a due event.
    assert len(due_first) > 500 and not any(due_first)
    assert any(what == "d" and kind is EventKind.PACKET_DELIVERY for what, _, kind, _ in log)
    # Replay the log through one heap: every dispatch must be the earliest
    # pending event by (time, order of scheduling).
    heap, seq = [], 0
    for what, time, kind, payload in log:
        if what == "s":
            heapq.heappush(heap, (time, seq, kind, payload))
            seq += 1
        else:
            expected_time, _, expected_kind, expected_payload = heapq.heappop(heap)
            assert (time, kind, payload) == (expected_time, expected_kind, expected_payload)
    dispatched = sum(what == "d" for what, *_ in log)
    assert dispatched > 1000
    assert len(heap) == len(sim._heap) == seq - dispatched


def test_packet_conservation_over_mobile_run():
    cfg = make_cfg(
        node_count=15,
        area_width=500.0,
        area_height=500.0,
        max_speed=20.0,
        sim_duration=90.0,
        flow_count=5,
        packet_rate=4.0,
    )
    report = Simulation(cfg).run()
    classified = (
        report.data_delivered
        + report.drop_queue
        + report.drop_no_route
        + report.drop_forward_fail
        + report.in_flight_at_horizon
    )
    assert classified == report.data_sent > 0


def test_static_network_reaches_role_fixpoint():
    cfg = static_cfg(
        node_count=20,
        area_width=450.0,
        area_height=450.0,
        sim_duration=120.0,
        flow_count=2,
        rng_seed=5,
    )
    sim = Simulation(cfg)
    sim.run()
    late = [rc for rc in sim.ledger.role_changes if rc[0] > 25.0]
    assert late == []
    roles = {role for _, role, _, _ in sim.cluster_snapshot()}
    assert "head" in roles


def test_static_cross_equals_lid_clusters():
    base = static_cfg(
        node_count=20,
        area_width=450.0,
        area_height=450.0,
        sim_duration=90.0,
        flow_count=2,
        rng_seed=11,
    )
    lid = Simulation(base.with_overrides(protocol=Protocol.CBRP))
    cross = Simulation(base.with_overrides(protocol=Protocol.CROSS_CBRP))
    lid.run()
    cross.run()
    strip = lambda snap: [(n, role, heads) for n, role, heads, _ in snap]
    assert strip(lid.cluster_snapshot()) == strip(cross.cluster_snapshot())


def test_every_member_heads_are_bidirectional_head_neighbors():
    cfg = make_cfg(
        node_count=15,
        area_width=500.0,
        area_height=500.0,
        max_speed=15.0,
        sim_duration=60.0,
        flow_count=3,
    )
    sim = Simulation(cfg)
    sim.run()
    for node in sim.nodes:
        state = node.cluster
        if state.role.value == "member":
            for hid in state.head_ids:
                entry = state.neighbors[hid]
                assert entry.bidirectional is True
                assert entry.role.value == "head"


def test_hello_overhead_scales_with_duration():
    short = Simulation(make_cfg(sim_duration=20.0)).run()
    long = Simulation(make_cfg(sim_duration=60.0)).run()
    assert long.hello_sent > short.hello_sent


def test_run_is_single_shot():
    sim = Simulation(make_cfg(sim_duration=5.0))
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


def test_trace_collects_samples():
    # Traced runs sample every half hello interval.
    cfg = make_cfg(sim_duration=10.0, hello_interval=4.0)
    rows = {stem: [] for stem in TRACE_HEADERS}
    Simulation(cfg, trace={stem: rows[stem].append for stem in rows}).run()
    times = sorted({row[0] for row in rows["mobility"]})
    assert times == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert len(rows["clusters"]) == len(rows["mobility"])
    assert rows["events"]


def test_untraced_run_has_no_trace_and_never_schedules_a_sample():
    sim = Simulation(make_cfg(sim_duration=10.0, hello_interval=4.0))
    assert sim.trace is None
    kinds = [event[2] for event in sim._heap]
    schedule = sim.schedule

    def recording_schedule(time, kind, payload):
        kinds.append(kind)
        schedule(time, kind, payload)

    sim.schedule = recording_schedule
    sim.run()
    assert EventKind.HELLO_TIMER in kinds and EventKind.TRANSMIT_COMPLETE in kinds
    assert EventKind.TRACE_SAMPLE not in kinds


def test_static_durable_links_never_expire():
    cfg = static_cfg(node_count=8, area_width=200.0, area_height=200.0, sim_duration=60.0)
    sim = Simulation(cfg)
    sim.run()
    # dense static square: every pair within range, tables complete
    for node in sim.nodes:
        assert len(node.cluster.neighbors) == cfg.node_count - 1
        assert all(
            e.bidirectional is True for e in node.cluster.neighbors.values()
        )


# -- one-pass hello fan-out -----------------------------------------------

def _hello_only_static_sim(**overrides) -> Simulation:
    """Five static nodes all in range of each other, with no data traffic: a
    hello from any node reaches the other four, and every packet delivery is
    a hello receipt."""
    cfg = static_cfg(
        node_count=5,
        area_width=100.0,
        area_height=100.0,
        sim_duration=6.0,
        hello_interval=1.0,
        traffic_start=100.0,  # past the horizon: no flow ever emits
    )
    return Simulation(cfg, **overrides)


def test_fan_out_rejects_a_node_whose_leg_has_ended():
    # Catches a range scan that reads a position without the leg check.
    sim = _hello_only_static_sim()
    sim._heap.clear()  # no event due first: the hello is received in place
    sim.now = 2.0
    stale = sim.nodes[3]
    x, y = stale.leg.destination
    stale.leg = WaypointLeg((x, y), (x, y), 1.0, 0.0, 0.5, 1.0)
    sim.nodes[0].queue.transmitting = build_hello(sim.nodes[0].cluster)
    with pytest.raises(InvariantError, match=r"t=2\.0 outside leg span \[0\.0, 1\.0\]"):
        sim._on_transmit_complete(0)


def test_fan_out_rejects_a_sender_whose_leg_has_ended():
    # The range scan reads the sender's position before the loop over the
    # other nodes; catches a scan that skips the leg check on that read.
    sim = _hello_only_static_sim()
    sim._heap.clear()  # no event due first: the hello is received in place
    sim.now = 2.0
    sender = sim.nodes[0]
    x, y = sender.leg.destination
    sender.leg = WaypointLeg((x, y), (x, y), 1.0, 0.0, 0.5, 1.0)
    sender.queue.transmitting = build_hello(sender.cluster)
    with pytest.raises(InvariantError, match=r"t=2\.0 outside leg span \[0\.0, 1\.0\]"):
        sim._on_transmit_complete(0)


@pytest.mark.parametrize("stale_id", [0, 3])
def test_unicast_rejects_a_sender_or_next_hop_whose_leg_has_ended(stale_id):
    # A route request from node 0 to node 3 reads both positions; catches a
    # unicast path that skips the leg check on either read.
    sim = _hello_only_static_sim()
    sim.now = 2.0
    stale = sim.nodes[stale_id]
    x, y = stale.leg.destination
    stale.leg = WaypointLeg((x, y), (x, y), 1.0, 0.0, 0.5, 1.0)
    sim.nodes[0].queue.transmitting = RouteRequestPacket(
        target=4, recorded_route=(0,), next_hop=3, size_bytes=control_size_bytes(1),
        seen={0},
    )
    with pytest.raises(InvariantError, match=r"t=2\.0 outside leg span \[0\.0, 1\.0\]"):
        sim._on_transmit_complete(0)


def test_fan_out_calls_positions_gains_and_receipts_by_module_name(monkeypatch):
    # The benchmark's tracer counts these calls by wrapping the module
    # attributes below.  Catches an engine that inlines one of them or binds it
    # before the run, which would leave the traced count at zero.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in (
        (cbrsim.engine, "position_at"),
        (cbrsim.engine, "channel_gain"),
        (cbrsim.clustering, "on_hello_received"),
    ):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    sim = _hello_only_static_sim()
    report = sim.run()
    n = sim.cfg.node_count
    assert report.hello_sent > 0
    receptions = (n - 1) * report.hello_sent  # every hello reaches the other four
    assert calls["channel_gain"] == calls["on_hello_received"] == receptions
    assert calls["position_at"] == n * report.hello_sent


@pytest.mark.parametrize("protocol", list(Protocol))
def test_every_election_step_leaves_a_settled_state_over_a_desk_run(monkeypatch, protocol):
    # An election step is skipped when its inputs did not change.  Catches a
    # skip that leaves work undone: after every receipt and expiry scan of a
    # mobile desk run, a second step must change nothing.
    checks = Counter()

    def settled(name, fn):
        def wrapper(state, *args):
            outcome = fn(state, *args)
            assert_election_settled(state, args[-1])
            checks[name] += 1
            return outcome

        return wrapper

    for name in ("on_hello_received", "expire_neighbors"):
        monkeypatch.setattr(
            cbrsim.clustering, name, settled(name, getattr(cbrsim.clustering, name))
        )
    cfg = make_cfg(
        protocol=protocol, node_count=25, area_width=500.0, area_height=500.0,
        max_speed=20.0, sim_duration=30.0, hello_interval=1.0, neighbor_timeout=3.0,
        formation_grace=10.0, flow_count=10, packet_rate=4.0, rng_seed=0,
    )
    report = Simulation(cfg).run()
    assert report.ch_changes > 0  # clusters formed and moved
    assert checks["expire_neighbors"] == 25 * 60
    assert checks["on_hello_received"] > 5_000


@pytest.mark.parametrize("protocol", list(Protocol))
def test_hello_tables_share_six_link_role_values_over_a_desk_run(protocol):
    # Catches a table snapshot that builds a (bidirectional, role) tuple per
    # entry: only six such values exist, so every live hello table, each
    # node's own and each one its neighbors advertised, must hold only those.
    cfg = make_cfg(
        protocol=protocol, node_count=25, area_width=500.0, area_height=500.0,
        max_speed=20.0, sim_duration=30.0, hello_interval=1.0, neighbor_timeout=3.0,
        formation_grace=10.0, flow_count=10, packet_rate=4.0, rng_seed=0,
    )
    sim = Simulation(cfg)
    sim.run()
    tables = []
    for node in sim.nodes:
        tables.append(table_snapshot(node.cluster)[0])
        tables.extend(e.advertised_neighbors for e in node.cluster.neighbors.values())
    values = [value for table in tables for value in table.values()]
    assert len(values) > 10 * cfg.node_count
    assert len({id(value) for value in values}) <= 6


@pytest.mark.parametrize("count", [2, 4], ids=["short", "long"])
def test_placement_of_the_wrong_length_is_refused(count):
    # Unchecked, a long placement runs four nodes under a three-node config.
    cfg = static_cfg(node_count=3, flow_count=1)
    with pytest.raises(ValueError, match="placement length must equal node_count"):
        Simulation(cfg, placement=[(50.0 + 100.0 * i, 50.0) for i in range(count)])


def test_hello_reaches_a_node_exactly_at_range(monkeypatch):
    # The range disc is closed: a node exactly tx_range away hears the hello,
    # one a centimetre beyond does not.
    cfg = static_cfg(
        node_count=3, area_width=600.0, area_height=100.0, tx_range=250.0, flow_count=1
    )
    sim = Simulation(cfg, placement=[(0.0, 50.0), (250.0, 50.0), (500.01, 50.0)])
    distances = []
    gain = cbrsim.engine.channel_gain

    def recording_gain(channel, distance, rng):
        distances.append(distance)
        return gain(channel, distance, rng)

    monkeypatch.setattr(cbrsim.engine, "channel_gain", recording_gain)
    tables = [n.cluster.neighbors for n in sim.nodes]
    sim._deliver_hello(build_hello(sim.nodes[0].cluster))
    assert distances == [250.0]
    assert 0 in tables[1] and 0 not in tables[2]
    sim._deliver_hello(build_hello(sim.nodes[2].cluster))
    assert distances == [250.0]
    assert all(2 not in table for table in tables)


def test_traced_fan_out_keeps_one_receive_row_per_receiver():
    # Catches a trace row written once per fan-out event instead of once per
    # receiver, and receivers handled out of id order.
    rows = {stem: [] for stem in TRACE_HEADERS}
    sim = _hello_only_static_sim(trace={stem: rows[stem].append for stem in rows})
    report = sim.run()
    n = sim.cfg.node_count
    sent = [
        (t, sender)
        for t, sender, what, kind in rows["events"]
        if what == "transmit_complete" and kind == "HelloMessage"
    ]
    received = [
        (t, node)
        for t, node, what, kind in rows["events"]
        if what == "receive" and kind == "HelloMessage"
    ]
    assert len(sent) == report.hello_sent > 0
    assert received == [(t, r) for t, s in sent for r in range(n) if r != s]


# -- bounded packet state ---------------------------------------------------

def test_classified_packets_leave_the_in_flight_map():
    # Catches a _classify that keeps classified packets (unbounded state) and
    # one that no longer refuses a second classification.
    sim = Simulation(make_cfg())
    packet = DataPacket(flow_id=0, src=0, dst=1, size_bytes=512, created_at=0.0)
    sim._in_flight[id(packet)] = packet
    sim._classify(packet)
    assert sim._in_flight == {}
    with pytest.raises(InvariantError, match="classified twice"):
        sim._classify(packet)


def test_horizon_sweep_empties_the_in_flight_map():
    cfg = make_cfg(node_count=15, area_width=500.0, area_height=500.0,
                   max_speed=20.0, sim_duration=30.0, flow_count=5, packet_rate=8.0,
                   link_rate=16_000.0)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim._in_flight == {}
    assert report.in_flight_at_horizon > 0


# -- whole-engine properties --------------------------------------------------

@st.composite
def small_scenarios(draw) -> ScenarioConfig:
    n = draw(st.integers(2, 15))
    shared = draw(st.booleans())
    mobile = draw(st.booleans())
    speed = draw(st.floats(1.0, 30.0)) if mobile else 0.0
    return ScenarioConfig(
        node_count=n,
        area_width=draw(st.sampled_from([150.0, 400.0, 800.0])),
        area_height=draw(st.sampled_from([150.0, 400.0])),
        max_speed=speed,
        min_speed=min(0.5, speed),
        protocol=draw(st.sampled_from(list(Protocol))),
        fading_enabled=draw(st.booleans()),
        queue_capacity=draw(st.sampled_from([1, 1, 3, 50])),
        link_rate=draw(st.sampled_from([8_000.0, 2_000_000.0])),  # very slow, or default
        allow_shared_endpoints=shared,
        flow_count=draw(st.integers(1, n if shared else n // 2)),
        packet_rate=draw(st.sampled_from([1.0, 8.0])),
        hello_interval=1.0,
        neighbor_timeout=3.0,
        rreq_timeout=1.0,
        sim_duration=draw(st.sampled_from([5.0, 20.0])),
        rng_seed=draw(st.integers(0, 1000)),
    )


@given(cfg=small_scenarios())
@settings(max_examples=150, deadline=None)
def test_whole_engine_runs_conserve_packets_and_replay(cfg):
    # Catches any InvariantError an engine path can raise, a packet that ends
    # up in no fate or in two, and state shared between runs.
    first, second = Simulation(cfg), Simulation(cfg)
    first_routes, second_routes = route_spy(first), route_spy(second)
    report = first.run()
    assert (
        report.data_delivered
        + report.drop_queue
        + report.drop_no_route
        + report.drop_forward_fail
        + report.in_flight_at_horizon
    ) == report.data_sent
    assert second.run() == report
    assert second.ledger.role_changes == first.ledger.role_changes
    assert second_routes == first_routes
    # Both protocols see the same placement and flows for a seed.
    other = [p for p in Protocol if p is not cfg.protocol][0]
    twin = Simulation(cfg.with_overrides(protocol=other))
    assert [n.leg for n in twin.nodes] == [n.leg for n in Simulation(cfg).nodes]
    assert twin.flows == first.flows
