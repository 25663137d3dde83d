"""Random-waypoint motion: closed-form position of every node at any time.

Each node repeatedly draws a uniform destination in the area and a uniform
speed in [min_speed, max_speed], travels in a straight line, then pauses.
Positions are evaluated lazily per leg instead of integrated per tick, so the
engine can sample exact positions only at event instants.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .config import ScenarioConfig
from .errors import InvariantError

Position = tuple[float, float]

_TIME_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class WaypointLeg:
    """One travel segment: origin to destination at a fixed speed, then pause.

    A static scenario (max_speed == 0) is represented by a single leg with
    speed 0 and an infinite pause.  The travel span and deltas are derived
    once, for ``position_at``.
    """

    origin: Position
    destination: Position
    speed: float
    depart_time: float
    arrive_time: float
    pause_until: float
    span: float = field(init=False, repr=False, compare=False)
    dx: float = field(init=False, repr=False, compare=False)
    dy: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (ox, oy), (x, y) = self.origin, self.destination
        put = object.__setattr__  # the class is frozen
        put(self, "span", self.arrive_time - self.depart_time)
        put(self, "dx", x - ox)
        put(self, "dy", y - oy)


def next_leg(
    current: Position, now: float, cfg: ScenarioConfig, rng: random.Random
) -> WaypointLeg:
    """Draw the next waypoint leg starting at ``current`` at time ``now``.

    Draw order is destination x, destination y, speed; keep it fixed so that
    seeded runs stay reproducible.
    """
    if cfg.max_speed == 0.0:  # static scenario: nodes hold their positions
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
    ``pause_until``: the node's arrival event runs at exactly that time.  A
    read inside the travel span, the common case, needs one chained test.
    """
    if leg.depart_time < t < leg.arrive_time:
        frac = (t - leg.depart_time) / leg.span
        ox, oy = leg.origin
        return (ox + frac * leg.dx, oy + frac * leg.dy)
    if leg.depart_time - _TIME_SLACK <= t <= leg.pause_until + _TIME_SLACK:
        return leg.destination if t >= leg.arrive_time else leg.origin
    raise InvariantError(f"t={t} outside leg span [{leg.depart_time}, {leg.pause_until}]")
