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
    try:
        return Protocol(text.strip())
    except ValueError:
        expected = " or ".join(p.value for p in Protocol)
        raise ConfigError(f"unknown protocol {text!r} (expected {expected})") from None


def _parse_bool(text: str) -> bool:
    norm = text.strip().lower()
    if norm in ("true", "yes", "1", "on"):
        return True
    if norm in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


# Each field annotation's accepted value types and its parser for text.  An int
# stands for a float without conversion, so ``max_speed=20`` stays 20.
_FIELD_TYPES = {
    "int": ((int,), int),
    "float": ((int, float), float),
    "bool": ((bool,), _parse_bool),
    "Protocol": ((Protocol,), parse_protocol),
}


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
    def effective_formation_grace(self) -> float:
        if self.formation_grace is not None:
            return self.formation_grace
        return 2.0 * self.hello_interval + self.neighbor_timeout

    @property
    def effective_traffic_stop(self) -> float:
        if self.traffic_stop is not None:
            return self.traffic_stop
        return self.sim_duration

    def with_overrides(self, **overrides) -> "ScenarioConfig":
        """Derived config with the given fields replaced (re-validated)."""
        return replace(self, **overrides)


# Lower bounds by field; an unset optional field (None) has none.
_MINIMA = {
    "node_count": 2, "pause_time": 0, "flow_count": 1, "queue_capacity": 1,
    "formation_grace": 0, "rreq_max_retries": 0, "traffic_start": 0,
}
_POSITIVE_FIELDS = (
    "area_width", "area_height", "tx_range", "sim_duration", "hello_interval",
    "neighbor_timeout", "packet_rate", "packet_size", "link_rate", "tx_power",
    "rreq_timeout",
)


def _validate(cfg: ScenarioConfig) -> None:
    def fail(constraint: str, detail: str) -> None:
        raise ConfigError(f"constraint violated: {constraint} ({detail})")

    # Each value must have its field's type, or "false" would enable a switch;
    # isinstance counts a bool as an int, so a bool passes only a bool field.
    # NaN compares false against every bound below, and inf passes the
    # positivity checks, so non-finite values are refused up front.
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind = f.type.removesuffix(" | None")
        types = _FIELD_TYPES[kind][0] + ((type(None),) if kind != f.type else ())
        if not isinstance(value, types) or isinstance(value, bool) != (bool in types):
            fail(f"{f.name} is {f.type}", f"{f.name}={value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            fail(f"{f.name} is finite", f"{f.name}={value}")
    for name, least in _MINIMA.items():
        value = getattr(cfg, name)
        if value is not None and value < least:
            fail(f"{name} >= {least}", f"{name}={value}")
    for name in _POSITIVE_FIELDS:
        if getattr(cfg, name) <= 0:
            fail(f"{name} > 0", f"{name}={getattr(cfg, name)}")
    if cfg.max_speed == 0.0:
        # Static scenario: nodes hold their initial positions.
        if cfg.min_speed != 0.0:
            fail("0 < min_speed <= max_speed",
                 f"min_speed={cfg.min_speed}, max_speed={cfg.max_speed}; "
                 "a static run needs min_speed=0 as well")
    elif not (0.0 < cfg.min_speed <= cfg.max_speed):
        fail("0 < min_speed <= max_speed",
             f"min_speed={cfg.min_speed}, max_speed={cfg.max_speed}")
    flows = cfg.flow_count
    if flows is not None and not cfg.allow_shared_endpoints and 2 * flows > cfg.node_count:
        fail("flow_count <= node_count / 2",
             f"{flows} disjoint flows need {2 * flows} endpoint nodes but "
             f"node_count={cfg.node_count}; set allow_shared_endpoints=true to relax")
    if not (2.0 <= cfg.path_loss_exponent <= 6.0):
        fail("2 <= path_loss_exponent <= 6",
             f"path_loss_exponent={cfg.path_loss_exponent}")
    if cfg.traffic_stop is not None and cfg.traffic_stop < cfg.traffic_start:
        fail("traffic_start <= traffic_stop",
             f"start={cfg.traffic_start}, stop={cfg.traffic_stop}")


# One parser per config key, in field order, chosen by the field's annotation
# text (annotations here are postponed) with any ``| None`` dropped.
_FIELD_PARSERS = {
    f.name: _FIELD_TYPES[f.type.removesuffix(" | None")][1] for f in fields(ScenarioConfig)
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
