import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrsim.clustering import Role, set_link_role
from cbrsim.config import Protocol
from cbrsim.engine import Simulation
from cbrsim.errors import InvariantError
from cbrsim.routing import (
    PENDING_LIMIT,
    RouterState,
    RouteRequestPacket,
    _forward_targets,
    control_size_bytes,
    forward_data,
    originate_rreq,
    process_rrep,
    process_rreq,
)
from cbrsim.traffic import DataPacket
from conftest import (
    add_neighbor,
    bidirectional_disc_adjacency,
    chain_placement,
    is_connected,
    make_cfg,
    make_state,
    route_spy,
)


def member_state(node_id, head_id, **kw):
    state = make_state(node_id, role=Role.MEMBER, **kw)
    add_neighbor(state, head_id, role=Role.CLUSTER_HEAD)
    return state


def rreq(target, route, next_hop=0, seen=None):
    """A copy of one flood; by default every hop on ``route`` has handled it."""
    return RouteRequestPacket(
        target=target,
        recorded_route=route,
        next_hop=next_hop,
        size_bytes=control_size_bytes(len(route)),
        seen=set(route) if seen is None else seen,
    )


# -- origination -------------------------------------------------------------


def test_member_unicasts_one_copy_per_head():
    state = make_state(4, role=Role.MEMBER)
    add_neighbor(state, 1, role=Role.CLUSTER_HEAD)
    add_neighbor(state, 2, role=Role.CLUSTER_HEAD)
    router = RouterState()
    result = originate_rreq(router, state, target=9)
    assert result.installed is None
    assert [p.next_hop for p in result.packets] == [1, 2]
    assert result.packets[0].seen is result.packets[1].seen == {4}
    assert all(p.recorded_route == (4,) for p in result.packets)


def test_neighbor_target_answered_without_flooding():
    state = member_state(4, 1)
    add_neighbor(state, 9, role=Role.MEMBER)
    router = RouterState()
    result = originate_rreq(router, state, target=9)
    assert result.installed == (4, 9)
    assert result.packets == []
    assert router.cache[9] == (4, 9)


def test_headless_source_cannot_originate():
    state = make_state(4)
    router = RouterState()
    result = originate_rreq(router, state, target=9)
    assert result.installed is None
    assert result.packets == []


def test_undecided_source_with_an_adjacent_head_cannot_originate():
    # In warm-up an undecided node can already list a bidirectional head; it
    # has not joined it, so it sends no request.
    state = make_state(4)
    add_neighbor(state, 1, role=Role.CLUSTER_HEAD)
    result = originate_rreq(RouterState(), state, target=9)
    assert state.role is Role.UNDECIDED and state.adjacent_heads == {1}
    assert result.installed is None
    assert result.packets == []


def test_head_source_processes_locally_without_unicast_hop():
    head = make_state(1, role=Role.CLUSTER_HEAD)
    add_neighbor(
        head, 4, role=Role.MEMBER,
        advertised_neighbors={1: (True, Role.CLUSTER_HEAD), 6: (True, Role.CLUSTER_HEAD)},
    )
    router = RouterState()
    result = originate_rreq(router, head, target=9)
    # fan-out goes straight to the gateway; the head itself adds no hop
    assert result.installed is None
    assert [p.next_hop for p in result.packets] == [4]
    assert all(p.recorded_route == (1,) for p in result.packets)


# -- request processing ------------------------------------------------------


def test_duplicate_request_dropped():
    state = member_state(2, 1)
    packet = rreq(5, (9,))
    first = process_rreq(state, packet)
    second = process_rreq(state, packet)
    assert second.reply is None and second.forwards == ()


def test_flood_reaching_a_node_twice_is_dropped_but_a_new_flood_is_not():
    # Source 4 is a member of heads 1 and 2; both heads relay through member 3,
    # which hears foreign head 6.
    source = make_state(4, role=Role.MEMBER)
    heads = []
    for hid in (1, 2):
        add_neighbor(source, hid, role=Role.CLUSTER_HEAD)
        head = make_state(hid, role=Role.CLUSTER_HEAD)
        add_neighbor(
            head, 3, role=Role.MEMBER,
            advertised_neighbors={hid: (True, Role.CLUSTER_HEAD), 6: (True, Role.CLUSTER_HEAD)},
        )
        heads.append(head)
    relay = member_state(3, 1)
    add_neighbor(relay, 6, role=Role.CLUSTER_HEAD)

    def via_heads(copies):
        return [process_rreq(head, copy).forwards[0] for head, copy in zip(heads, copies)]

    first, second = via_heads(originate_rreq(RouterState(), source, target=42).packets)
    assert (first.recorded_route, second.recorded_route) == ((4, 1), (4, 2))
    assert [p.next_hop for p in process_rreq(relay, first).forwards] == [6]
    dropped = process_rreq(relay, second)
    assert dropped.reply is None and dropped.forwards == ()
    fresh, _ = via_heads(originate_rreq(RouterState(), source, target=42).packets)
    assert [p.next_hop for p in process_rreq(relay, fresh).forwards] == [6]


def test_request_revisiting_node_is_an_invariant_breach():
    # The flood's shared ``seen`` holds every node on a recorded route, so an
    # engine run cannot build this copy; if one appears, it is a breach.
    state = member_state(2, 1)
    packet = rreq(5, (9, 2, 7), seen={9})  # only the origin: node 2 is not yet seen
    with pytest.raises(InvariantError, match="duplicate id in recorded route"):
        process_rreq(state, packet)


def test_target_replies_with_completed_route():
    state = member_state(5, 1)
    result = process_rreq(state, rreq(5, (9, 1)))
    assert result.forwards == []
    assert result.reply is not None
    assert result.reply.route == (9, 1, 5)
    assert result.reply.next_hop == 1


def test_node_with_target_as_bidirectional_neighbor_replies():
    head = make_state(1, role=Role.CLUSTER_HEAD)
    add_neighbor(head, 5, role=Role.MEMBER)
    result = process_rreq(head, rreq(5, (9,)))
    assert result.reply.route == (9, 1, 5)
    assert result.reply.next_hop == 9
    assert result.reply.size_bytes == control_size_bytes(3)


def test_head_forwards_one_copy_per_neighboring_cluster():
    head = make_state(1, role=Role.CLUSTER_HEAD)
    # two members reach the same foreign head 6: only the lowest-id relays
    for mid in (3, 4):
        add_neighbor(
            head, mid, role=Role.MEMBER,
            advertised_neighbors={1: (True, Role.CLUSTER_HEAD), 6: (True, Role.CLUSTER_HEAD)},
        )
    result = process_rreq(head, rreq(42, (9,)))
    assert [p.next_hop for p in result.forwards] == [3]
    assert result.forwards[0].recorded_route == (9, 1)


HEAD = {1: (True, Role.CLUSTER_HEAD)}  # a member's table entry for its head 1


@pytest.mark.parametrize(
    "neighbors, copies",
    [
        pytest.param({6: (Role.CLUSTER_HEAD, {})}, [6], id="adjacent-lone-head"),
        pytest.param(
            {
                2: (Role.MEMBER, {**HEAD, 4: (True, Role.MEMBER)}),
                4: (Role.MEMBER, {**HEAD, 2: (True, Role.MEMBER)}),
            },
            [],
            id="links-inside-cluster",
        ),
        pytest.param(
            {4: (Role.MEMBER, {**HEAD, 9: (True, Role.UNDECIDED)})}, [], id="undecided-stranger"
        ),
    ],
)
def test_head_copies_only_toward_other_clusters(neighbors, copies):
    head = make_state(1, role=Role.CLUSTER_HEAD)
    for nid, (role, table) in neighbors.items():
        add_neighbor(head, nid, role=role, advertised_neighbors=table)
    result = process_rreq(head, rreq(42, (9,)))
    assert [p.next_hop for p in result.forwards] == copies


def test_head_skips_clusters_already_on_route():
    head = make_state(1, role=Role.CLUSTER_HEAD)
    add_neighbor(
        head, 3, role=Role.MEMBER,
        advertised_neighbors={1: (True, Role.CLUSTER_HEAD), 6: (True, Role.CLUSTER_HEAD)},
    )
    result = process_rreq(head, rreq(42, (9, 6)))
    assert result.forwards == []


def test_border_member_relays_toward_foreign_cluster():
    # gateway pair: member 3 of head 1 hears member 7 of some other cluster
    head = make_state(1, role=Role.CLUSTER_HEAD)
    add_neighbor(
        head, 3, role=Role.MEMBER,
        advertised_neighbors={1: (True, Role.CLUSTER_HEAD), 7: (True, Role.MEMBER)},
    )
    result = process_rreq(head, rreq(42, (9,)))
    assert [p.next_hop for p in result.forwards] == [3]


def test_member_relays_to_heads_and_foreign_members_only():
    state = member_state(4, 1)
    add_neighbor(state, 6, role=Role.CLUSTER_HEAD)  # foreign head
    add_neighbor(
        state, 5, role=Role.MEMBER,
        advertised_neighbors={1: (True, Role.CLUSTER_HEAD)},
    )  # co-member, same head: not a border
    add_neighbor(
        state, 7, role=Role.MEMBER,
        advertised_neighbors={8: (True, Role.CLUSTER_HEAD)},
    )  # member of a foreign cluster
    result = process_rreq(state, rreq(42, (9, 1)))
    assert [p.next_hop for p in result.forwards] == [6, 7]


def test_undecided_node_drops_requests():
    state = make_state(4)
    add_neighbor(state, 6, role=Role.CLUSTER_HEAD, bidirectional=False)
    result = process_rreq(state, rreq(42, (9,)))
    assert result.reply is None and result.forwards == []


def test_recorded_route_never_repeats_ids():
    state = member_state(2, 1)
    result = process_rreq(state, rreq(42, (9, 1)))
    for copy in result.forwards:
        assert len(set(copy.recorded_route)) == len(copy.recorded_route)


def scanned_heads(state):
    return {
        nid for nid, e in state.neighbors.items()
        if e.bidirectional and e.role is Role.CLUSTER_HEAD
    }


def scanned_forward_targets(cluster, route):
    """The relay targets as a scan over the whole neighbor table computes them:
    the oracle for the kept sets that ``_forward_targets`` reads instead."""
    node_id = cluster.node_id
    exclude = set(route)
    if cluster.role is Role.CLUSTER_HEAD:
        members = {
            nid: e
            for nid, e in cluster.neighbors.items()
            if e.bidirectional and e.role is Role.MEMBER
        }
        cluster_ids = {node_id} | members.keys()
        direct = scanned_heads(cluster) - exclude
        gateway_for = {}
        borders = set()
        for mid in sorted(members):
            if mid in exclude:
                continue
            for nid, (bidir, role) in members[mid].advertised_neighbors.items():
                if not bidir or nid == node_id or nid in exclude:
                    continue
                if role is Role.CLUSTER_HEAD and nid not in direct:
                    gateway_for.setdefault(nid, mid)  # lowest id: mids ascend
                elif role is Role.MEMBER and nid not in cluster_ids:
                    borders.add(mid)
        return sorted(direct | set(gateway_for.values()) | borders)
    if cluster.role is Role.MEMBER:
        own_heads = scanned_heads(cluster)
        out = set()
        for nid, e in cluster.neighbors.items():
            if not e.bidirectional or nid in exclude:
                continue
            if e.role is Role.CLUSTER_HEAD:
                out.add(nid)
            elif e.role is Role.MEMBER and e.advertised_heads.isdisjoint(own_heads):
                out.add(nid)
        return sorted(out)
    return []


# Weighted toward bidirectional links, members near node 0 and heads beyond
# its range, so that several of its members often hear the same foreign head.
LINKS = st.sampled_from(
    ["bidir", "bidir", "bidir", "none", "first hears second", "second hears first"]
)
NEAR_ROLES = st.sampled_from(
    [Role.MEMBER, Role.MEMBER, Role.MEMBER, Role.CLUSTER_HEAD, Role.UNDECIDED]
)
FAR_ROLES = st.sampled_from([Role.CLUSTER_HEAD, Role.CLUSTER_HEAD, Role.MEMBER, Role.UNDECIDED])


@st.composite
def relay_states(draw, size=12):
    """Node 0's cluster state in a drawn network of ``size`` nodes: its role,
    its table with each neighbor's advertised table, and then random link and
    role changes applied through ``set_link_role``, as later hellos would."""
    near = size // 2  # node 0 can hear ids 1 to near
    roles = [draw(NEAR_ROLES if nid <= near else FAR_ROLES) for nid in range(size)]
    tables = {nid: {} for nid in range(size)}  # id -> {heard id: (bidirectional, role)}
    for a in range(size):
        for b in range(a + 1, size):
            if a == 0 and b > near:
                continue
            link = draw(LINKS)
            if link in ("bidir", "first hears second"):
                tables[a][b] = (link == "bidir", roles[b])
            if link in ("bidir", "second hears first"):
                tables[b][a] = (link == "bidir", roles[a])
    role = draw(st.sampled_from([Role.CLUSTER_HEAD, Role.MEMBER]))
    state = make_state(0, role=role)
    for nid, (bidir, nrole) in sorted(tables[0].items()):
        add_neighbor(
            state, nid, bidirectional=bidir, role=nrole, advertised_neighbors=tables[nid]
        )
    changes = st.tuples(st.integers(1, size - 1), st.booleans(), st.sampled_from(list(Role)))
    for nid, bidir, nrole in draw(st.lists(changes)):
        if nid in state.neighbors:
            set_link_role(state, state.neighbors[nid], bidir, nrole)
    return state


@given(state=relay_states(), route=st.lists(st.integers(1, 11), unique=True, max_size=3))
@settings(max_examples=300, deadline=None)
def test_forward_targets_match_a_scan_of_the_table(state, route):
    # Catches relay targets read from kept sets that drift from the table
    # (an entry whose role changed), and a head branch whose gateway pick
    # differs from "lowest-id member per foreign head".
    route = (*route, 0)  # as process_rreq passes it: the recorded hops, then node 0
    assert _forward_targets(state, route) == scanned_forward_targets(state, route)


# -- replies -----------------------------------------------------------------


def test_reply_forwarded_hop_by_hop_then_installed():
    route = (9, 1, 5)
    mid = member_state(1, 9)
    router_mid = RouterState()
    reply = process_rreq(member_state(5, 1), rreq(5, (9, 1))).reply
    pkt = process_rrep(router_mid, mid, reply)
    assert pkt.next_hop == 9 and pkt.route == route
    src_router = RouterState()
    src_state = member_state(9, 1)
    assert process_rrep(src_router, src_state, pkt) is None
    assert src_router.cache[5] == route


def test_reply_at_node_off_route_is_hard_error():
    router = RouterState()
    state = member_state(3, 1)
    reply = process_rreq(member_state(5, 1), rreq(5, (9, 1))).reply
    with pytest.raises(InvariantError):
        process_rrep(router, state, reply)


def test_newest_route_wins_cache():
    router = RouterState()
    state = member_state(9, 1)
    add_neighbor(state, 5, role=Role.MEMBER)
    originate_rreq(router, state, 5)
    assert router.cache[5] == (9, 5)
    reply = process_rreq(member_state(5, 1), rreq(5, (9, 1))).reply
    process_rrep(router, state, reply)
    assert router.cache[5] == (9, 1, 5)


# -- data forwarding ---------------------------------------------------------


def data_packet(src, dst, route):
    pkt = DataPacket(flow_id=0, src=src, dst=dst, size_bytes=512, created_at=0.0)
    pkt.route = route
    return pkt


def test_forward_data_moves_down_route():
    state = member_state(1, 9)
    assert forward_data(state, data_packet(9, 5, (9, 1, 5))) == 5


def test_forward_data_delivers_at_destination():
    state = member_state(5, 1)
    assert forward_data(state, data_packet(9, 5, (9, 1, 5))) is None


def test_forward_data_off_route_is_hard_error():
    state = member_state(3, 1)
    with pytest.raises(InvariantError):
        forward_data(state, data_packet(9, 5, (9, 1, 5)))


# -- end-to-end over the engine ----------------------------------------------

CHAIN_KW = dict(
    node_count=5,
    area_width=1000.0,
    area_height=100.0,
    max_speed=0.0,
    min_speed=0.0,
    tx_range=250.0,
    hello_interval=1.0,
    neighbor_timeout=3.0,
    sim_duration=40.0,
    flow_count=1,
    allow_shared_endpoints=True,
    packet_rate=1.0,
    traffic_start=15.0,
    traffic_stop=35.0,
)

# node ids placed so the chain reads source, head, gateway, head, destination
CHAIN_PLACEMENT = {
    4: (50.0, 50.0),    # source
    0: (250.0, 50.0),   # first head (lowest id in its neighborhood)
    2: (450.0, 50.0),   # gateway member of both heads
    1: (650.0, 50.0),   # second head
    3: (850.0, 50.0),   # destination, member of head 1
}


def make_chain_sim(cfg):
    from cbrsim.traffic import Flow

    placement = [CHAIN_PLACEMENT[i] for i in range(5)]
    flow = Flow(
        flow_id=0, src=4, dst=3, rate=cfg.packet_rate,
        packet_size=cfg.packet_size, start_time=cfg.traffic_start + 0.1,
    )
    return Simulation(cfg, placement=placement, flows=[flow])


def test_chain_route_alternates_head_gateway():
    cfg = make_cfg(**CHAIN_KW)
    sim = make_chain_sim(cfg)
    installed = route_spy(sim)
    report = sim.run()
    roles = {nid: role for nid, role, _, _ in sim.cluster_snapshot()}
    assert roles[0] == "head" and roles[1] == "head"
    assert roles[2] == "member" and roles[4] == "member" and roles[3] == "member"
    routes = {r[3] for r in installed if r[1] == 4}
    assert (4, 0, 2, 1, 3) in routes
    assert report.data_delivered == report.data_sent > 0
    # latency on the static 4-hop chain: four store-and-forward transmissions
    per_hop = 512 * 8 / cfg.link_rate
    assert report.mean_delay_s >= 4 * per_hop - 1e-9
    assert report.mean_delay_s < 4 * per_hop + 0.05


def test_static_random_topologies_routes_valid_and_all_delivered():
    validated_routes = 0
    topologies = 0
    seed_source = 0
    while topologies < 8:
        seed_source += 1
        rng = random.Random(f"topo:{seed_source}")
        cfg = make_cfg(
            node_count=12,
            area_width=420.0,
            area_height=420.0,
            max_speed=0.0,
            min_speed=0.0,
            hello_interval=1.0,
            neighbor_timeout=3.0,
            sim_duration=60.0,
            flow_count=3,
            packet_rate=2.0,
            traffic_start=20.0,
            traffic_stop=50.0,
            rng_seed=seed_source,
        )
        from cbrsim.config import generate_initial_placement

        placement = generate_initial_placement(cfg, random.Random(f"{cfg.rng_seed}:placement"))
        adj = bidirectional_disc_adjacency(placement, cfg.tx_range)
        if not is_connected(adj):
            continue
        topologies += 1
        sim = Simulation(cfg)
        routes = route_spy(sim)
        report = sim.run()
        for _, _, _, hops in routes:
            for a, b in zip(hops, hops[1:]):
                assert adj[a][b], f"route {hops} uses non-edge {a}-{b}"
            validated_routes += 1
        assert report.data_delivered == report.data_sent > 0, (
            f"seed {seed_source}: sent {report.data_sent}, delivered {report.data_delivered}, "
            f"drops {report.drop_queue}/{report.drop_no_route}/{report.drop_forward_fail}"
        )
    assert validated_routes > 0
