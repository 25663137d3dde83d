import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrsim.errors import InvariantError
from cbrsim.mobility import WaypointLeg, next_leg, position_at
from conftest import make_cfg, static_cfg


def test_zero_pause_means_pause_equals_arrival():
    cfg = make_cfg(pause_time=0.0)
    leg = next_leg((10.0, 10.0), 5.0, cfg, random.Random(0))
    assert leg.pause_until == leg.arrive_time


def test_degenerate_speed_interval():
    cfg = make_cfg(min_speed=7.0, max_speed=7.0)
    leg = next_leg((0.0, 0.0), 0.0, cfg, random.Random(1))
    assert leg.speed == 7.0


def test_zero_length_leg_permitted():
    cfg = make_cfg()
    origin = (5.0, 5.0)
    leg = next_leg(origin, 3.0, cfg, random.Random(2))
    degenerate = leg.__class__(
        origin=origin,
        destination=origin,
        speed=leg.speed,
        depart_time=3.0,
        arrive_time=3.0,
        pause_until=3.0,
    )
    assert position_at(degenerate, 3.0) == origin


def test_position_at_endpoints():
    cfg = make_cfg(pause_time=1.0)
    leg = next_leg((100.0, 50.0), 2.0, cfg, random.Random(3))
    assert position_at(leg, leg.depart_time) == leg.origin
    assert position_at(leg, leg.arrive_time) == leg.destination
    assert position_at(leg, leg.pause_until) == leg.destination


def test_position_at_midpoint_hand_value():
    # 100 m at 10 m/s: 5 s in, the node sits exactly halfway.
    cfg = make_cfg()
    leg = next_leg((0.0, 0.0), 0.0, cfg, random.Random(0))
    leg = leg.__class__(
        origin=(0.0, 0.0),
        destination=(100.0, 0.0),
        speed=10.0,
        depart_time=0.0,
        arrive_time=10.0,
        pause_until=10.0,
    )
    assert position_at(leg, 5.0) == (50.0, 0.0)


def test_position_outside_span_raises():
    cfg = make_cfg()
    leg = next_leg((0.0, 0.0), 10.0, cfg, random.Random(4))
    with pytest.raises(InvariantError):
        position_at(leg, 9.0)
    with pytest.raises(InvariantError):
        position_at(leg, leg.pause_until + 1.0)


def test_legs_chain_continuously():
    cfg = make_cfg(pause_time=0.5)
    rng = random.Random(7)
    leg = next_leg((40.0, 40.0), 0.0, cfg, rng)
    for _ in range(50):
        end = position_at(leg, leg.pause_until)
        nxt = next_leg(leg.destination, leg.pause_until, cfg, rng)
        assert nxt.origin == end
        assert nxt.depart_time == leg.pause_until
        leg = nxt


@given(seed=st.integers(0, 10_000), frac=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_positions_stay_in_area_and_speed_bounded(seed, frac):
    cfg = make_cfg(max_speed=12.0)
    rng = random.Random(seed)
    leg = next_leg((200.0, 200.0), 0.0, cfg, rng)
    t = leg.depart_time + frac * (leg.pause_until - leg.depart_time)
    x, y = position_at(leg, t)
    assert 0.0 <= x <= cfg.area_width
    assert 0.0 <= y <= cfg.area_height
    assert leg.speed <= cfg.max_speed + 1e-12
    # finite-difference speed never exceeds the leg speed
    t2 = min(t + 0.125, leg.pause_until)
    if t2 > t:
        x2, y2 = position_at(leg, t2)
        assert math.dist((x, y), (x2, y2)) <= leg.speed * (t2 - t) + 1e-9


def test_arrival_time_consistent_with_distance():
    cfg = make_cfg()
    rng = random.Random(11)
    leg = next_leg((100.0, 100.0), 4.0, cfg, rng)
    travel = math.dist(leg.origin, leg.destination) / leg.speed
    assert leg.arrive_time == pytest.approx(4.0 + travel, rel=1e-12)


def test_static_mode_holds_position_forever():
    cfg = static_cfg()
    leg = next_leg((123.0, 45.0), 0.0, cfg, random.Random(0))
    assert math.isinf(leg.pause_until)
    assert position_at(leg, 1e6) == (123.0, 45.0)


COORD = st.floats(0.0, 2000.0)


@given(
    origin=st.tuples(COORD, COORD),
    destination=st.tuples(COORD, COORD),
    depart=st.floats(0.0, 1e4),
    travel=st.floats(1e-6, 1e3),
    pause=st.floats(0.0, 10.0),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_position_is_the_leg_formula_bit_for_bit(origin, destination, depart, travel, pause, frac):
    # position_at reads the span and deltas the leg derived once; they must give
    # the bits of the formula on the six fields, and the span check must hold.
    arrive = depart + travel
    leg = WaypointLeg(origin, destination, 1.0, depart, arrive, arrive + pause)
    (ox, oy), (dx, dy) = origin, destination
    t = depart + frac * (arrive - depart)
    if depart < t < arrive:
        expected = (
            ox + (t - depart) / (arrive - depart) * (dx - ox),
            oy + (t - depart) / (arrive - depart) * (dy - oy),
        )
    else:
        expected = destination if t >= arrive else origin
    assert [v.hex() for v in position_at(leg, t)] == [v.hex() for v in expected]
    assert position_at(leg, arrive + pause) == destination
    with pytest.raises(InvariantError):
        position_at(leg, depart - 2e-9)
    with pytest.raises(InvariantError):
        position_at(leg, arrive + pause + 2e-9)


def test_legs_compare_by_their_six_fields():
    fields = ((1.0, 2.0), (3.0, 4.0), 2.0, 0.0, 1.5, 2.5)
    leg = WaypointLeg(*fields)
    assert leg == WaypointLeg(*fields) and hash(leg) == hash(WaypointLeg(*fields))
    for i, other in enumerate(((1.0, 2.5), (3.0, 4.5), 2.5, 0.5, 1.75, 3.0)):
        changed = list(fields)
        changed[i] = other
        assert leg != WaypointLeg(*changed)
