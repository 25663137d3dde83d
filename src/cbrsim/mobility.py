"""Random-waypoint motion: closed-form position of every node at any time.

Each node repeatedly draws a uniform destination in the area and a uniform
speed in [min_speed, max_speed], travels in a straight line, then pauses.
Positions are evaluated lazily per leg instead of integrated per tick, so the
engine can sample exact positions only at event instants.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .config import ScenarioConfig
from .errors import InvariantError

Position = tuple[float, float]

_TIME_SLACK = 1e-9


@dataclass(frozen=True)
class WaypointLeg:
    """One travel segment: origin to destination at a fixed speed, then pause.

    A static scenario (max_speed == 0) is represented by a single leg with
    speed 0 and an infinite pause.
    """

    origin: Position
    destination: Position
    speed: float
    depart_time: float
    arrive_time: float
    pause_until: float


def next_leg(
    current: Position, now: float, cfg: ScenarioConfig, rng: random.Random
) -> WaypointLeg:
    """Draw the next waypoint leg starting at ``current`` at time ``now``.

    Draw order is destination x, destination y, speed; keep it fixed so that
    seeded runs stay reproducible.
    """
    if cfg.is_static:
        return WaypointLeg(current, current, 0.0, now, now, math.inf)
    dest = (rng.uniform(0.0, cfg.area_width), rng.uniform(0.0, cfg.area_height))
    speed = rng.uniform(cfg.min_speed, cfg.max_speed)
    distance = math.dist(current, dest)
    arrive = now + distance / speed
    return WaypointLeg(current, dest, speed, now, arrive, arrive + cfg.pause_time)


def position_at(leg: WaypointLeg, t: float) -> Position:
    """Position on ``leg`` at time ``t`` (linear travel, then parked).

    The engine's one leg check: ``t`` must lie within [depart_time,
    pause_until], with 1e-9 s of slack.  No read falls in the slack past
    ``pause_until``: the node's arrival event runs at exactly that time.
    """
    if t < leg.depart_time - _TIME_SLACK or t > leg.pause_until + _TIME_SLACK:
        raise InvariantError(
            f"t={t} outside leg span [{leg.depart_time}, {leg.pause_until}]"
        )
    if t >= leg.arrive_time:
        return leg.destination
    if t <= leg.depart_time:
        return leg.origin
    frac = (t - leg.depart_time) / (leg.arrive_time - leg.depart_time)
    ox, oy = leg.origin
    dx, dy = leg.destination
    return (ox + frac * (dx - ox), oy + frac * (dy - oy))
