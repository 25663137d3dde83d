"""Constant-bit-rate workload: flows over disjoint endpoint pairs."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .config import ScenarioConfig


@dataclass(frozen=True)
class Flow:
    flow_id: int
    src: int
    dst: int
    rate: float
    packet_size: int
    start_time: float


@dataclass(slots=True)
class DataPacket:
    """One application payload packet.  The engine tracks it as in flight
    until it is classified exactly once: delivered, dropped, or swept up at the
    simulation horizon."""

    flow_id: int
    src: int
    dst: int
    size_bytes: int
    created_at: float
    route: tuple[int, ...] | None = None
    next_hop: int | None = None

    control = False


def generate_flows(cfg: ScenarioConfig, rng: random.Random) -> list[Flow]:
    """Flows with pairwise-disjoint endpoints (unless relaxed), deterministic
    per seed.  Start times stagger uniformly over one packet period to avoid
    synchronized bursts."""
    count = cfg.effective_flow_count
    period = 1.0 / cfg.packet_rate
    if cfg.allow_shared_endpoints:
        pairs = []
        for _ in range(count):
            src, dst = rng.sample(range(cfg.node_count), 2)
            pairs.append((src, dst))
    else:
        chosen = rng.sample(range(cfg.node_count), 2 * count)
        pairs = [(chosen[2 * i], chosen[2 * i + 1]) for i in range(count)]
    return [
        Flow(
            flow_id=i,
            src=src,
            dst=dst,
            rate=cfg.packet_rate,
            packet_size=cfg.packet_size,
            start_time=cfg.traffic_start + rng.uniform(0.0, period),
        )
        for i, (src, dst) in enumerate(pairs)
    ]
