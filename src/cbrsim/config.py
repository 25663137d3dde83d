"""Scenario descriptions: validated parameters, file parsing, topology seeding.

A scenario file is flat UTF-8 text, one ``key=value`` per line, ``#`` comments,
with the composite key ``area=WxH`` accepted as shorthand for
``area_width``/``area_height``.  Unset keys take the defaults below, which
follow the standard 100-node, 1000x1000 m, 250 m-range benchmark setup.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from enum import Enum

from .errors import ConfigError


class Protocol(Enum):
    """Cluster-head election variant used by a run."""

    CBRP = "cbrp"
    CROSS_CBRP = "cross-cbrp"


def parse_protocol(text: str) -> Protocol:
    norm = text.strip().lower().replace("_", "-")
    if norm == "cbrp":
        return Protocol.CBRP
    if norm in ("cross-cbrp", "crosscbrp", "cross"):
        return Protocol.CROSS_CBRP
    raise ConfigError(f"unknown protocol {text!r} (expected cbrp or cross-cbrp)")


def _parse_bool(text: str) -> bool:
    norm = text.strip().lower()
    if norm in ("true", "yes", "1", "on"):
        return True
    if norm in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, validated description of one experiment.

    Instances are immutable; use :meth:`with_overrides` to derive variants.
    ``flow_count=None`` means "as many disjoint flows as the node count
    supports, at most 50"; ``formation_grace=None`` means
    ``2 * hello_interval + neighbor_timeout``; ``traffic_stop=None`` means
    traffic runs until ``sim_duration``.
    """

    node_count: int = 100
    area_width: float = 1000.0
    area_height: float = 1000.0
    max_speed: float = 20.0
    min_speed: float = 0.1
    pause_time: float = 0.0
    tx_range: float = 250.0
    sim_duration: float = 300.0
    protocol: Protocol = Protocol.CBRP
    hello_interval: float = 2.0
    neighbor_timeout: float = 6.0
    flow_count: int | None = None
    packet_rate: float = 4.0
    packet_size: int = 512
    queue_capacity: int = 50
    link_rate: float = 2_000_000.0
    path_loss_exponent: float = 2.0
    tx_power: float = 1.0
    rng_seed: int = 0
    allow_shared_endpoints: bool = False
    fading_enabled: bool = False
    formation_grace: float | None = None
    rreq_timeout: float = 2.0
    rreq_max_retries: int = 3
    traffic_start: float = 0.0
    traffic_stop: float | None = None

    def __post_init__(self) -> None:
        _validate(self)

    @property
    def effective_flow_count(self) -> int:
        if self.flow_count is not None:
            return self.flow_count
        return min(50, self.node_count // 2)

    @property
    def flow_count_was_defaulted(self) -> bool:
        return self.flow_count is None

    @property
    def effective_formation_grace(self) -> float:
        if self.formation_grace is not None:
            return self.formation_grace
        return 2.0 * self.hello_interval + self.neighbor_timeout

    @property
    def effective_traffic_stop(self) -> float:
        if self.traffic_stop is not None:
            return self.traffic_stop
        return self.sim_duration

    @property
    def is_static(self) -> bool:
        return self.max_speed == 0.0

    def with_overrides(self, **overrides) -> "ScenarioConfig":
        """Derived config with the given fields replaced (re-validated)."""
        return replace(self, **overrides)


def _validate(cfg: ScenarioConfig) -> None:
    def fail(constraint: str, detail: str) -> None:
        raise ConfigError(f"constraint violated: {constraint} ({detail})")

    # NaN compares false against every bound below, and inf passes the
    # positivity checks, so non-finite values are refused up front.
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            fail(f"{f.name} is finite", f"{f.name}={value}")
    if cfg.node_count < 2:
        fail("node_count >= 2", f"node_count={cfg.node_count}")
    if cfg.area_width <= 0 or cfg.area_height <= 0:
        fail("area dimensions > 0", f"area={cfg.area_width}x{cfg.area_height}")
    if cfg.max_speed == 0.0:
        # Static scenario: nodes hold their initial positions.
        if cfg.min_speed != 0.0:
            fail("0 < min_speed <= max_speed",
                 f"min_speed={cfg.min_speed}, max_speed={cfg.max_speed}; "
                 "a static run needs min_speed=0 as well")
    elif not (0.0 < cfg.min_speed <= cfg.max_speed):
        fail("0 < min_speed <= max_speed",
             f"min_speed={cfg.min_speed}, max_speed={cfg.max_speed}")
    if cfg.pause_time < 0:
        fail("pause_time >= 0", f"pause_time={cfg.pause_time}")
    if cfg.tx_range <= 0:
        fail("tx_range > 0", f"tx_range={cfg.tx_range}")
    if cfg.sim_duration <= 0:
        fail("sim_duration > 0", f"sim_duration={cfg.sim_duration}")
    if cfg.hello_interval <= 0:
        fail("hello_interval > 0", f"hello_interval={cfg.hello_interval}")
    if cfg.neighbor_timeout <= 0:
        fail("neighbor_timeout > 0", f"neighbor_timeout={cfg.neighbor_timeout}")
    if cfg.flow_count is not None:
        if cfg.flow_count < 1:
            fail("flow_count >= 1", f"flow_count={cfg.flow_count}")
        if not cfg.allow_shared_endpoints and 2 * cfg.flow_count > cfg.node_count:
            fail("flow_count <= node_count / 2",
                 f"{cfg.flow_count} disjoint flows need "
                 f"{2 * cfg.flow_count} endpoint nodes but node_count={cfg.node_count}; "
                 "set allow_shared_endpoints=true to relax")
    if cfg.packet_rate <= 0:
        fail("packet_rate > 0", f"packet_rate={cfg.packet_rate}")
    if cfg.packet_size <= 0:
        fail("packet_size > 0", f"packet_size={cfg.packet_size}")
    if cfg.queue_capacity < 1:
        fail("queue_capacity >= 1", f"queue_capacity={cfg.queue_capacity}")
    if cfg.link_rate <= 0:
        fail("link_rate > 0", f"link_rate={cfg.link_rate}")
    if not (2.0 <= cfg.path_loss_exponent <= 6.0):
        fail("2 <= path_loss_exponent <= 6",
             f"path_loss_exponent={cfg.path_loss_exponent}")
    if cfg.tx_power <= 0:
        fail("tx_power > 0", f"tx_power={cfg.tx_power}")
    if cfg.formation_grace is not None and cfg.formation_grace < 0:
        fail("formation_grace >= 0", f"formation_grace={cfg.formation_grace}")
    if cfg.rreq_timeout <= 0:
        fail("rreq_timeout > 0", f"rreq_timeout={cfg.rreq_timeout}")
    if cfg.rreq_max_retries < 0:
        fail("rreq_max_retries >= 0", f"rreq_max_retries={cfg.rreq_max_retries}")
    if cfg.traffic_start < 0:
        fail("traffic_start >= 0", f"traffic_start={cfg.traffic_start}")
    if cfg.traffic_stop is not None and cfg.traffic_stop < cfg.traffic_start:
        fail("traffic_start <= traffic_stop",
             f"start={cfg.traffic_start}, stop={cfg.traffic_stop}")


# One parser per config key, in field order, chosen by the field's annotation
# text (annotations here are postponed) with any ``| None`` dropped.
_TYPE_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "Protocol": parse_protocol}
_FIELD_PARSERS = {
    f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")] for f in fields(ScenarioConfig)
}


def parse_setting(key: str, value: str, where: str) -> dict:
    """Parse one ``key=value`` setting into the config fields it sets.

    Accepts ``area=WxH``.  ``where`` names the setting's origin (``line 3``,
    ``--max_speed``) and prefixes every error message.
    """
    if key == "area":
        w_text, _, h_text = value.lower().partition("x")
        try:
            return {"area_width": float(w_text), "area_height": float(h_text)}
        except ValueError:
            raise ConfigError(f"{where}: area must look like 1000x1000, got {value!r}") from None
    parser = _FIELD_PARSERS.get(key)
    if parser is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return {key: parser(value)}
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError:
        raise ConfigError(f"{where}: bad value {value!r} for key {key!r}") from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse scenario-file contents into a validated :class:`ScenarioConfig`.

    Raises :class:`ConfigError` with a line number on syntax errors, with
    both line numbers when two lines set one field (``area`` sets two), or
    with the violated constraint's name on invariant violations.
    """
    values: dict = {}
    set_on: dict[str, int] = {}  # field -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        parsed = parse_setting(key.strip(), value.strip(), f"line {lineno}")
        for name in parsed:
            if name in set_on:
                raise ConfigError(
                    f"line {lineno}: {name} is already set on line {set_on[name]}"
                )
            set_on[name] = lineno
        values.update(parsed)
    return ScenarioConfig(**values)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config as scenario-file text; ``parse_config`` round-trips it."""
    lines = []
    for key in _FIELD_PARSERS:
        value = getattr(cfg, key)
        if value is None:
            continue
        if isinstance(value, Protocol):
            value = value.value
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def generate_initial_placement(
    cfg: ScenarioConfig, rng: random.Random
) -> list[tuple[float, float]]:
    """Node positions drawn uniformly over the area, one per node.

    Deterministic for a given generator state.
    """
    return [
        (rng.uniform(0.0, cfg.area_width), rng.uniform(0.0, cfg.area_height))
        for _ in range(cfg.node_count)
    ]
