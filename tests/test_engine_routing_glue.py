"""Engine-level routing behavior: forwarding failures, retry policy, drops."""

from collections.abc import Sized
from dataclasses import fields

from cbrsim.engine import Simulation
from cbrsim.routing import RouteReplyPacket, control_size_bytes
from cbrsim.traffic import Flow
from conftest import add_neighbor, make_cfg, route_spy, static_cfg


def two_island_cfg(**overrides):
    # two nodes parked far outside each other's range
    over = dict(
        node_count=2,
        area_width=1000.0,
        area_height=100.0,
        tx_range=250.0,
        sim_duration=40.0,
        hello_interval=1.0,
        neighbor_timeout=3.0,
        flow_count=1,
        allow_shared_endpoints=True,
        packet_rate=0.5,
        rreq_timeout=2.0,
        rreq_max_retries=3,
    )
    over.update(overrides)
    return static_cfg(**over)


def island_placement():
    return [(50.0, 50.0), (950.0, 50.0)]


def test_unreachable_destination_drops_as_no_route():
    cfg = two_island_cfg()
    flow = Flow(flow_id=0, src=0, dst=1, rate=0.5, packet_size=512, start_time=10.0)
    sim = Simulation(cfg, placement=island_placement(), flows=[flow])
    report = sim.run()
    assert report.data_sent > 0
    assert report.data_delivered == 0
    assert report.drop_no_route > 0
    # whatever was still pending at the horizon is in flight, nothing else
    assert report.drop_no_route + report.in_flight_at_horizon == report.data_sent


def test_forwarding_failure_drops_packet_and_invalidates_source_cache():
    cfg = two_island_cfg()
    flow = Flow(flow_id=0, src=0, dst=1, rate=0.5, packet_size=512, start_time=5.0)
    sim = Simulation(cfg, placement=island_placement(), flows=[flow])
    # pretend a route once existed; the next hop is out of range at transmit time
    source = sim.nodes[0]
    source.router.cache[1] = (0, 1)
    report = sim.run()
    assert report.drop_forward_fail >= 1
    assert 1 not in source.router.cache  # broken route forgotten


def test_stale_retry_timeouts_are_ignored():
    cfg = two_island_cfg()
    sim = Simulation(cfg, placement=island_placement())
    node = sim.nodes[0]
    node.router.discoveries[1] = 2
    sim._on_route_retry(0, 1, attempt=1)  # superseded by attempt 2
    assert node.router.discoveries[1] == 2


def test_retry_exhaustion_drops_pending_as_no_route():
    cfg = two_island_cfg()
    flow = Flow(flow_id=0, src=0, dst=1, rate=0.5, packet_size=512, start_time=5.0)
    sim = Simulation(cfg, placement=island_placement(), flows=[flow])
    report = sim.run()
    # with a 2 s timeout and 3 retries, each discovery lives 8 s; over the
    # 35 s emission window every pending packet must eventually drop
    assert report.drop_no_route >= 8


def test_pending_buffer_overflow_drops_oldest():
    from cbrsim.routing import PENDING_LIMIT

    cfg = two_island_cfg(packet_rate=4.0, rreq_timeout=30.0)  # discovery outlives run
    flow = Flow(flow_id=0, src=0, dst=1, rate=4.0, packet_size=512, start_time=5.0)
    sim = Simulation(cfg, placement=island_placement(), flows=[flow])
    report = sim.run()
    pending = sim.nodes[0].router.pending.get(1)
    assert pending is not None and len(pending) == PENDING_LIMIT
    assert report.drop_no_route == report.data_sent - PENDING_LIMIT
    assert report.in_flight_at_horizon == PENDING_LIMIT


def three_node_sim():
    # 0 and 2 in range of each other, 1 in range of 2 alone
    cfg = two_island_cfg(node_count=3)
    return Simulation(cfg, placement=[(50.0, 50.0), (450.0, 50.0), (250.0, 50.0)])


def test_route_spy_records_a_route_answered_from_the_table():
    sim = three_node_sim()
    source = sim.nodes[0]
    add_neighbor(source.cluster, 2)
    routes = route_spy(sim)
    sim._originate(source, 2)
    assert routes == [(0.0, 0, 2, (0, 2))]
    assert source.queue.transmitting is None  # no route request went out
    assert 2 not in source.router.discoveries


def test_route_spy_records_a_route_reply_reaching_its_source():
    sim = three_node_sim()
    source = sim.nodes[0]
    source.router.discoveries[1] = 1
    routes = route_spy(sim)
    reply = RouteReplyPacket(route=(0, 2, 1), next_hop=0, size_bytes=control_size_bytes(3))
    sim._on_packet_delivery(reply)
    assert routes == [(0.0, 0, 1, (0, 2, 1))]
    assert source.router.cache[1] == (0, 2, 1)
    assert 1 not in source.router.discoveries


def test_router_state_stays_bounded_by_node_count():
    # Catches per-request state kept on a node (a table of seen request ids
    # grows with every flood that passes through): each container a node's
    # router holds must stay bounded by the network, not by the run.
    cfg = make_cfg(node_count=30, area_width=700.0, area_height=700.0, flow_count=10)
    sim = Simulation(cfg)
    report = sim.run()
    assert report.rreq_sent > 10 * cfg.node_count
    for node in sim.nodes:
        for f in fields(node.router):
            value = getattr(node.router, f.name)
            if isinstance(value, Sized):
                assert len(value) < cfg.node_count, (node.node_id, f.name, len(value))
