import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrsim.clustering import (
    _UNCHANGED,
    PATIENCE_EXTRA_ROUNDS,
    WARMUP_ROUNDS,
    Role,
    aggregate_mobility,
    build_hello,
    check_invariants,
    expire_neighbors,
    hello_size_bytes,
    on_hello_received,
    relative_mobility,
    run_election,
    table_snapshot,
)
from cbrsim.config import Protocol
from cbrsim.errors import InvariantError
from cbrsim.routing import RouteRequestPacket, control_size_bytes, process_rreq
from conftest import (
    add_neighbor,
    advertised_ids,
    assert_election_settled,
    make_state,
    set_neighbor_role,
)

AFTER_WARMUP = 100.0


# -- relative mobility (formula oracle) --------------------------------------


def test_relative_mobility_identity():
    assert relative_mobility(3.7, 3.7) == 0.0


def test_relative_mobility_twenty_db():
    assert relative_mobility(100.0, 1.0) == pytest.approx(20.0, rel=1e-9)


def test_relative_mobility_receding():
    assert relative_mobility(0.1, 1.0) == pytest.approx(-10.0, rel=1e-9)


def test_relative_mobility_rejects_nonpositive():
    with pytest.raises(ValueError):
        relative_mobility(0.0, 1.0)
    with pytest.raises(ValueError):
        relative_mobility(1.0, -2.0)


@given(
    a=st.floats(1e-12, 1e12),
    b=st.floats(1e-12, 1e12),
)
@settings(max_examples=300, deadline=None)
def test_relative_mobility_antisymmetric(a, b):
    assert relative_mobility(a, b) == pytest.approx(-relative_mobility(b, a), abs=1e-9)


@given(
    a=st.floats(1e-9, 1e9),
    b=st.floats(1e-9, 1e9),
    c=st.floats(1e-6, 1e6),
)
@settings(max_examples=300, deadline=None)
def test_relative_mobility_scale_invariant(a, b, c):
    assert relative_mobility(a * c, b * c) == pytest.approx(
        relative_mobility(a, b), abs=1e-6
    )


# -- aggregate mobility (formula oracle) -------------------------------------


def test_aggregate_empty_is_zero():
    assert aggregate_mobility([]) == 0.0


def test_aggregate_all_zero():
    assert aggregate_mobility([0.0, 0.0, 0.0]) == 0.0


def test_aggregate_hand_value():
    assert aggregate_mobility([3.0, -4.0]) == pytest.approx(12.5, rel=1e-9)


def test_aggregate_sums_squares_left_to_right():
    # 1e16 + 1 rounds back to 1e16 twice; a compensated sum keeps the 2
    assert aggregate_mobility([1e8, 1.0, 1.0]) == 1e16 / 3


@given(st.lists(st.floats(-1e3, 1e3), max_size=40))
@settings(max_examples=300, deadline=None)
def test_aggregate_nonnegative_and_zero_iff_all_zero(samples):
    value = aggregate_mobility(samples)
    assert value >= 0.0
    # physical relative-mobility samples sit on a dB scale, far from the
    # subnormal range where squaring could underflow
    if samples and any(abs(s) > 1e-100 for s in samples):
        assert value > 0.0


# -- hello handling ----------------------------------------------------------


def hello_from(state):
    return build_hello(state)


def test_first_hello_creates_entry_without_rel_sample():
    receiver = make_state(1)
    sender = make_state(2)
    outcome = on_hello_received(receiver, hello_from(sender), 0.5, now=0.0)
    entry = receiver.neighbors[2]
    assert entry.last_rx_power == 0.5
    assert entry.rel_mobility is None
    assert entry.bidirectional is False
    assert outcome.old_role is Role.UNDECIDED


def test_second_hello_computes_rel_mobility_and_refreshes_expiry():
    receiver = make_state(1)
    sender = make_state(2)
    on_hello_received(receiver, hello_from(sender), 1.0, now=0.0)
    on_hello_received(receiver, hello_from(sender), 100.0, now=2.0)
    entry = receiver.neighbors[2]
    assert entry.rel_mobility == pytest.approx(20.0, rel=1e-9)
    assert entry.expires_at == 2.0 + receiver.neighbor_timeout
    assert receiver.own_mobility == pytest.approx(400.0, rel=1e-9)


def test_hello_listing_us_makes_link_bidirectional():
    receiver = make_state(1)
    sender = make_state(2)
    add_neighbor(sender, 1)  # sender heard us already
    on_hello_received(receiver, hello_from(sender), 1.0, now=0.0)
    assert receiver.neighbors[2].bidirectional is True


def test_hello_sizes_differ_only_by_metric_field():
    plain = hello_size_bytes(5, Protocol.CBRP)
    cross = hello_size_bytes(5, Protocol.CROSS_CBRP)
    assert plain == 20 + 8 * 5
    assert cross == plain + 4


# -- lowest-id election ------------------------------------------------------


def test_lid_lowest_of_three_becomes_head():
    # ids {5, 2, 9} fully meshed: 2 heads the cluster, the others join.
    nodes = {nid: make_state(nid) for nid in (5, 2, 9)}
    for nid, state in nodes.items():
        for other in nodes:
            if other != nid:
                add_neighbor(state, other)
    run_election(nodes[2], AFTER_WARMUP)
    assert nodes[2].role is Role.CLUSTER_HEAD
    for nid in (5, 9):
        set_neighbor_role(nodes[nid], 2, Role.CLUSTER_HEAD)
        run_election(nodes[nid], AFTER_WARMUP)
        assert nodes[nid].role is Role.MEMBER
        assert nodes[nid].head_ids == {2}


def test_lid_isolated_node_heads_singleton():
    lone = make_state(4)
    run_election(lone, AFTER_WARMUP)
    assert lone.role is Role.CLUSTER_HEAD
    assert lone.head_ids == {4}


def test_lid_head_duel_higher_id_steps_down():
    high = make_state(7, role=Role.CLUSTER_HEAD)
    add_neighbor(high, 4, role=Role.CLUSTER_HEAD)
    run_election(high, AFTER_WARMUP)
    assert high.role is Role.MEMBER
    assert high.head_ids == {4}

    low = make_state(4, role=Role.CLUSTER_HEAD)
    add_neighbor(low, 7, role=Role.CLUSTER_HEAD)
    run_election(low, AFTER_WARMUP)
    assert low.role is Role.CLUSTER_HEAD


def test_lid_waits_for_warmup():
    state = make_state(1)
    run_election(state, now=0.5)
    assert state.role is Role.UNDECIDED


def test_lid_member_never_challenges_head():
    member = make_state(1, role=Role.MEMBER)
    add_neighbor(member, 6, role=Role.CLUSTER_HEAD)
    add_neighbor(member, 9, role=Role.MEMBER)
    run_election(member, AFTER_WARMUP)
    assert member.role is Role.MEMBER
    assert member.head_ids == {6}


def test_lid_blocked_by_lower_member_until_patience():
    # Chain-end case: the only neighbor is a lower-id member of a far cluster.
    state = make_state(3)
    state.undecided_since = 0.0
    add_neighbor(state, 2, role=Role.MEMBER)
    patience = state.neighbor_timeout + PATIENCE_EXTRA_ROUNDS * state.hello_interval
    early = WARMUP_ROUNDS * state.hello_interval + 0.1
    assert early < patience
    run_election(state, early)
    assert state.role is Role.UNDECIDED
    run_election(state, patience + 0.1)
    assert state.role is Role.CLUSTER_HEAD


def test_lid_ignores_mobility_values():
    # the lowest id wins although its own value is the highest and every
    # neighbor advertises a calmer one
    nodes = {
        nid: make_state(nid, broadcast_mobility=m)
        for nid, m in ((1, 9.0), (2, 0.5), (3, 0.1))
    }
    for nid, state in nodes.items():
        for other, peer in nodes.items():
            if other != nid:
                add_neighbor(state, other, advertised_mobility=peer.broadcast_mobility)
    for state in nodes.values():
        run_election(state, AFTER_WARMUP)
    assert [nodes[nid].role for nid in (1, 2, 3)] == [
        Role.CLUSTER_HEAD, Role.UNDECIDED, Role.UNDECIDED
    ]

    head = make_state(1, role=Role.CLUSTER_HEAD, broadcast_mobility=9.0)
    add_neighbor(head, 2, role=Role.CLUSTER_HEAD, advertised_mobility=0.5)
    run_election(head, AFTER_WARMUP)
    assert head.role is Role.CLUSTER_HEAD


# -- mobility-aware election -------------------------------------------------


def test_cross_lowest_mobility_wins_tie_breaks_by_id():
    # mutual neighbors with values {node1: 4.0, node2: 1.5, node3: 1.5}
    nodes = {
        1: make_state(1, protocol=Protocol.CROSS_CBRP, broadcast_mobility=4.0),
        2: make_state(2, protocol=Protocol.CROSS_CBRP, broadcast_mobility=1.5),
        3: make_state(3, protocol=Protocol.CROSS_CBRP, broadcast_mobility=1.5),
    }
    advertised = {1: 4.0, 2: 1.5, 3: 1.5}
    for nid, state in nodes.items():
        for other, m in advertised.items():
            if other != nid:
                add_neighbor(state, other, advertised_mobility=m)
    for nid in (1, 2, 3):
        run_election(nodes[nid], AFTER_WARMUP)
    assert nodes[2].role is Role.CLUSTER_HEAD
    assert nodes[1].role is Role.UNDECIDED  # blocked by lower-valued rivals
    assert nodes[3].role is Role.UNDECIDED  # loses the tie on id


def test_cross_total_tie_degenerates_to_lowest_id():
    nodes = {nid: make_state(nid, protocol=Protocol.CROSS_CBRP) for nid in (5, 2, 9)}
    for nid, state in nodes.items():
        for other in nodes:
            if other != nid:
                add_neighbor(state, other, advertised_mobility=0.0)
    run_election(nodes[2], AFTER_WARMUP)
    assert nodes[2].role is Role.CLUSTER_HEAD
    run_election(nodes[5], AFTER_WARMUP)
    assert nodes[5].role is Role.UNDECIDED


def test_cross_head_duel_lower_value_survives():
    stable = make_state(
        9, protocol=Protocol.CROSS_CBRP, role=Role.CLUSTER_HEAD,
        broadcast_mobility=2.0,
    )
    add_neighbor(stable, 1, role=Role.CLUSTER_HEAD, advertised_mobility=5.0)
    run_election(stable, AFTER_WARMUP)
    assert stable.role is Role.CLUSTER_HEAD

    mobile = make_state(
        1, protocol=Protocol.CROSS_CBRP, role=Role.CLUSTER_HEAD,
        broadcast_mobility=5.0,
    )
    add_neighbor(mobile, 9, role=Role.CLUSTER_HEAD, advertised_mobility=2.0)
    run_election(mobile, AFTER_WARMUP)
    assert mobile.role is Role.MEMBER
    assert mobile.head_ids == {9}


def test_cross_head_steps_down_on_a_receipt_that_changes_only_mobility():
    # The second hello changes no link or role, only the rival head's
    # advertised value (5.0 -> 1.0 against our 2.0): a head with an adjacent
    # head must still run its election step on it.
    head = make_state(
        9, protocol=Protocol.CROSS_CBRP, role=Role.CLUSTER_HEAD,
        broadcast_mobility=2.0,
    )
    rival_table = {9: (True, Role.CLUSTER_HEAD)}
    hello = hello_with_table(1, rival_table, Role.CLUSTER_HEAD, 5.0)
    outcome = on_hello_received(head, hello, 1.0, AFTER_WARMUP)
    assert not outcome.changed and head.role is Role.CLUSTER_HEAD
    hello = hello_with_table(1, rival_table, Role.CLUSTER_HEAD, 1.0)
    outcome = on_hello_received(head, hello, 1.0, AFTER_WARMUP + 1.0)
    assert outcome.changed and outcome.new_role is Role.MEMBER
    assert head.head_ids == {1}


def test_cross_member_with_lower_value_does_not_challenge():
    # least-cluster-change damping: a calmer member near a busier head stays put
    member = make_state(
        5, protocol=Protocol.CROSS_CBRP, role=Role.MEMBER,
        broadcast_mobility=0.5,
    )
    add_neighbor(member, 2, role=Role.CLUSTER_HEAD, advertised_mobility=3.0)
    run_election(member, AFTER_WARMUP)
    assert member.role is Role.MEMBER
    assert member.head_ids == {2}


def test_cross_unknown_advertised_value_never_wins():
    state = make_state(
        8, protocol=Protocol.CROSS_CBRP, broadcast_mobility=100.0
    )
    add_neighbor(state, 9, advertised_mobility=None)
    run_election(state, AFTER_WARMUP)
    assert state.role is Role.CLUSTER_HEAD


# -- expiry ------------------------------------------------------------------


def test_expire_keeps_fresh_entries():
    state = make_state(1)
    add_neighbor(state, 2, expires_at=50.0)
    removed, _ = expire_neighbors(state, now=10.0)
    assert removed == []
    assert 2 in state.neighbors


def test_expire_sole_head_triggers_reelection():
    member = make_state(3, role=Role.MEMBER)
    add_neighbor(member, 9, role=Role.CLUSTER_HEAD, expires_at=5.0)
    removed, outcome = expire_neighbors(member, now=AFTER_WARMUP)
    assert removed == [9]
    assert member.role is Role.CLUSTER_HEAD  # alone now, heads a singleton
    assert outcome.send_hello


def test_expire_head_keeps_singleton_cluster():
    head = make_state(2, role=Role.CLUSTER_HEAD)
    add_neighbor(head, 5, role=Role.MEMBER, expires_at=1.0)
    removed, outcome = expire_neighbors(head, now=AFTER_WARMUP)
    assert removed == [5]
    assert head.role is Role.CLUSTER_HEAD
    assert not outcome.changed


def test_expired_samples_leave_the_aggregate():
    state = make_state(1)
    add_neighbor(state, 2, rel_mobility=3.0, expires_at=5.0)
    add_neighbor(state, 3, rel_mobility=-4.0, expires_at=50.0)
    assert state.own_mobility == aggregate_mobility([3.0, -4.0])
    expire_neighbors(state, now=10.0)
    assert state.own_mobility == pytest.approx(16.0, rel=1e-12)


# -- head contact ------------------------------------------------------------


def test_adjacent_heads_resolve_within_one_hello_exchange():
    # two standing heads discover each other; the losing side steps down the
    # moment it processes the winner's hello, so the overlap never outlives
    # one hello round
    a = make_state(3, role=Role.CLUSTER_HEAD)
    b = make_state(8, role=Role.CLUSTER_HEAD)
    add_neighbor(a, 8)  # entries exist so the hellos read as bidirectional
    add_neighbor(b, 3)
    # hellos cross in flight: both still advertise the head role
    hello_a = build_hello(a)
    hello_b = build_hello(b)
    out_b = on_hello_received(b, hello_a, 1.0, now=AFTER_WARMUP)
    out_a = on_hello_received(a, hello_b, 1.0, now=AFTER_WARMUP + 0.5)
    assert b.role is Role.MEMBER and b.head_ids == {3}
    assert a.role is Role.CLUSTER_HEAD
    assert out_b.changed and not out_a.changed


# -- gateways ----------------------------------------------------------------


def test_gateway_set_member_bridging_two_clusters():
    # member 4 of head 1 hears head 6 of another cluster; member 2 hears no
    # one outside, so a head's request copy goes through 4 alone
    head = make_state(1, role=Role.CLUSTER_HEAD)
    add_neighbor(
        head, 4, role=Role.MEMBER,
        advertised_neighbors={1: (True, Role.CLUSTER_HEAD), 6: (True, Role.CLUSTER_HEAD)},
    )
    add_neighbor(head, 2, role=Role.MEMBER, advertised_neighbors={1: (True, Role.CLUSTER_HEAD)})
    request = RouteRequestPacket(
        target=42,
        recorded_route=(9,),
        next_hop=1,
        size_bytes=control_size_bytes(1),
        seen={9},
    )
    result = process_rreq(head, request)
    assert [p.next_hop for p in result.forwards] == [4]


# -- state invariants --------------------------------------------------------


def test_invariant_checker_rejects_member_without_bidirectional_head():
    bad = make_state(1, role=Role.MEMBER)
    add_neighbor(bad, 2, bidirectional=False, role=Role.CLUSTER_HEAD)
    with pytest.raises(InvariantError, match="node 1: member with no head"):
        check_invariants(bad)


@pytest.mark.parametrize(
    "link",
    [None, (False, Role.CLUSTER_HEAD), (True, Role.MEMBER), (True, Role.UNDECIDED)],
    ids=["no-entry", "one-way-head", "member", "undecided"],
)
def test_invariant_checker_rejects_adjacent_heads_that_drift_from_the_table(link):
    # adjacent_heads lists 2, written past set_link_role, while the table
    # holds no bidirectional head entry for it; head 3 is a real one.
    bad = make_state(1, role=Role.MEMBER)
    add_neighbor(bad, 3, role=Role.CLUSTER_HEAD)
    if link is not None:
        add_neighbor(bad, 2, bidirectional=link[0], role=link[1])
    bad.adjacent_heads.add(2)
    with pytest.raises(InvariantError, match="node 1: head 2 is not a bidirectional"):
        check_invariants(bad)


def test_invariant_checker_accepts_consistent_states():
    head = make_state(1, role=Role.CLUSTER_HEAD)
    check_invariants(head)
    member = make_state(2, role=Role.MEMBER)
    add_neighbor(member, 1, role=Role.CLUSTER_HEAD)
    check_invariants(member)
    check_invariants(make_state(3))


# -- derived-data caches (property) -------------------------------------------

HEAD = Role.CLUSTER_HEAD
ROLES = st.sampled_from(list(Role))
HELLO_STEP = st.tuples(
    st.just("hello"),
    st.integers(1, 6),  # sender
    st.dictionaries(st.integers(0, 8), st.tuples(st.booleans(), ROLES), max_size=8),
    ROLES,  # sender role
    st.floats(1e-6, 1e3),  # reception power
    st.floats(0.0, 50.0),  # sender's own mobility
    st.floats(0.0, 2.0),  # time advance
    st.booleans(),  # read the metric after this step
)
EXPIRY_STEP = st.tuples(st.just("expire"), st.floats(0.0, 5.0), st.booleans())


def hello_with_table(sender_id, table, role, mobility):
    sender = make_state(sender_id, role=role)
    for nid, (bidir, nrole) in table.items():
        if nid != sender_id:
            add_neighbor(sender, nid, bidirectional=bidir, role=nrole)
    return replace(build_hello(sender), sender_mobility=mobility)


def live_aggregate(state):
    return aggregate_mobility(
        [e.rel_mobility for e in state.neighbors.values() if e.rel_mobility is not None]
    )


@given(
    protocol=st.sampled_from(list(Protocol)),
    steps=st.lists(st.one_of(HELLO_STEP, EXPIRY_STEP), max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_caches_match_their_sources(protocol, steps):
    state = make_state(0, protocol=protocol)
    now = 0.0
    sent = []  # (hello, table as it was built)
    kept, kept_table = table_snapshot(state), {}
    for step in steps:
        if step[0] == "hello":
            _, sid, table, role, power, mobility, dt, read = step
            now += dt
            hello = hello_with_table(sid, table, role, mobility)
            sent.append((hello, dict(hello.neighbor_table)))
            on_hello_received(state, hello, power, now)
        else:
            _, dt, read = step
            now += dt
            expire_neighbors(state, now)
        if read:
            assert state.own_mobility.hex() == live_aggregate(state).hex()
        for e in state.neighbors.values():
            assert e.advertised_heads == advertised_ids(e.advertised_neighbors, HEAD)
        assert state.adjacent_heads == {
            nid for nid, e in state.neighbors.items()
            if e.bidirectional and e.role is Role.CLUSTER_HEAD
        }
        members = {
            nid: e for nid, e in state.neighbors.items()
            if e.bidirectional and e.role is Role.MEMBER
        }
        assert state.adjacent_members.keys() == members.keys()
        assert all(state.adjacent_members[nid] is e for nid, e in members.items())
        # What a step whose inputs did not change may skip.
        assert_election_settled(state, now)
        # The kept hello table: rebuilt after a link, role or entry changed,
        # reused otherwise.  table_snapshot leaves broadcast_mobility alone.
        fresh = {
            nid: (e.bidirectional, e.role)
            for nid, e in sorted(state.neighbors.items())
        }
        table, heads = snapshot = table_snapshot(state)
        assert list(table.items()) == list(fresh.items())
        # The heads, taken from adjacent_heads, equal a scan of the table.
        assert heads == advertised_ids(fresh, HEAD)
        if fresh == kept_table:
            assert snapshot is kept
        kept, kept_table = snapshot, fresh
    # own_mobility's one loop gives aggregate_mobility's bits.
    assert state.own_mobility.hex() == live_aggregate(state).hex()
    for hello, table in sent:
        assert dict(hello.neighbor_table) == table
        assert list(hello.neighbor_table) == sorted(table)
        assert hello.advertised_heads == advertised_ids(table, HEAD)
        with pytest.raises(TypeError):
            hello.neighbor_table[0] = (True, Role.CLUSTER_HEAD)
    # The outcomes skipped steps share are never written.
    for role, outcome in _UNCHANGED.items():
        assert (outcome.old_role, outcome.new_role, outcome.send_hello) == (role, role, False)
        assert outcome.changed is False


def test_hello_table_is_shared_by_every_receiver():
    sender = make_state(2)
    add_neighbor(sender, 1, role=Role.CLUSTER_HEAD)
    hello = build_hello(sender)
    receivers = [make_state(nid) for nid in (1, 3, 4)]
    for r in receivers:
        on_hello_received(r, hello, 1.0, now=0.0)
    for r in receivers:
        entry = r.neighbors[2]
        assert entry.advertised_neighbors is hello.neighbor_table
        assert entry.advertised_heads is hello.advertised_heads == {1}
    assert receivers[0].neighbors[2].bidirectional is True  # node 1 is listed
    assert receivers[1].neighbors[2].bidirectional is False


def test_mobility_is_summed_on_read():
    state = make_state(1)
    on_hello_received(state, hello_with_table(2, {}, Role.UNDECIDED, 0.0), 1.0, now=0.0)
    on_hello_received(state, hello_with_table(2, {}, Role.UNDECIDED, 0.0), 10.0, now=1.0)
    assert state.own_mobility == 100.0
    on_hello_received(state, hello_with_table(2, {}, Role.UNDECIDED, 0.0), 10.0, now=2.0)
    assert state.own_mobility == 0.0
