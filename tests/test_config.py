import random
import re
import statistics

import pytest

from cbrsim.config import (
    _MINIMA,
    _POSITIVE_FIELDS,
    Protocol,
    ScenarioConfig,
    generate_initial_placement,
    parse_config,
    serialize_config,
)
from cbrsim.errors import ConfigError


def test_defaults_match_benchmark_setup():
    cfg = ScenarioConfig()
    assert cfg.node_count == 100
    assert (cfg.area_width, cfg.area_height) == (1000.0, 1000.0)
    assert cfg.tx_range == 250.0
    assert cfg.pause_time == 0.0
    assert cfg.sim_duration == 300.0
    assert cfg.packet_size == 512
    assert cfg.queue_capacity == 50


def test_parse_basic_file_with_defaults():
    text = "node_count=100\narea=1000x1000\nmax_speed=20\ntx_range=250"
    cfg = parse_config(text)
    assert cfg.node_count == 100
    assert cfg.area_width == 1000.0 and cfg.area_height == 1000.0
    assert cfg.max_speed == 20.0
    assert cfg.tx_range == 250.0
    # unspecified keys take defaults
    assert cfg.packet_size == 512
    assert cfg.queue_capacity == 50


def test_parse_empty_file_is_all_defaults():
    assert parse_config("") == ScenarioConfig()


def test_parse_zero_max_speed_names_constraint():
    with pytest.raises(ConfigError, match="min_speed <= max_speed"):
        parse_config("max_speed=0")


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nnode_count=42  # trailing\n")
    assert cfg.node_count == 42


def test_parse_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("node_count=5\nnonsense line\n")


def test_parse_unknown_key_reports_line():
    # replications was a knob nothing read; it is gone, not ignored.  The old
    # spelling hello_interval_BI had an alias that nothing used; it is gone too.
    for text in ("definitely_not_a_key=1", "replications=5", "hello_interval_BI=1.5"):
        with pytest.raises(ConfigError, match="line 1.*unknown key"):
            parse_config(text)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            "node_count=10\nnode_count=20", "line 2: node_count is already set on line 1",
            id="same-key",
        ),
        pytest.param(
            "area=500x400\ntx_range=200\narea_width=600",
            "line 3: area_width is already set on line 1",
            id="area-then-width",
        ),
        pytest.param(
            "area_height=300\narea=500x400", "line 2: area_height is already set on line 1",
            id="height-then-area",
        ),
    ],
)
def test_parse_repeated_key_names_both_lines(text, message):
    # Catches a file whose later line silently overrides an earlier one.
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config(text)


def test_parse_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 1.*bad value"):
        parse_config("node_count=many")


def test_protocol_spellings():
    assert parse_config("protocol=cbrp").protocol is Protocol.CBRP
    assert parse_config("protocol=cross-cbrp").protocol is Protocol.CROSS_CBRP


@pytest.mark.parametrize("spelling", ["crosscbrp", "CBRP"])
def test_only_the_protocol_values_are_spellings(spelling):
    # A scenario file accepts what --protocol accepts: Protocol's values.
    with pytest.raises(ConfigError, match=f"line 1: unknown protocol '{spelling}'"):
        parse_config(f"protocol={spelling}")


def test_flow_disjointness_constraint():
    with pytest.raises(ConfigError, match="flow_count <= node_count / 2"):
        parse_config("node_count=100\nflow_count=60")
    relaxed = parse_config("node_count=100\nflow_count=60\nallow_shared_endpoints=true")
    assert relaxed.effective_flow_count == 60


def test_flow_count_defaulting():
    assert ScenarioConfig().effective_flow_count == 50
    assert ScenarioConfig(node_count=24).effective_flow_count == 12
    assert ScenarioConfig().flow_count is None
    assert ScenarioConfig(flow_count=10).flow_count == 10


def test_path_loss_exponent_bounds():
    with pytest.raises(ConfigError, match="path_loss_exponent"):
        ScenarioConfig(path_loss_exponent=1.5)
    with pytest.raises(ConfigError, match="path_loss_exponent"):
        ScenarioConfig(path_loss_exponent=6.5)


@pytest.mark.parametrize(
    "key, value, constraint",
    [("fading_enabled", "false", "fading_enabled is bool"),
     ("node_count", 10.5, "node_count is int"),
     ("node_count", True, "node_count is int"),
     ("protocol", "cbrp", "protocol is Protocol")],
    ids=["bool-as-str", "int-as-float", "int-as-bool", "protocol-as-str"],
)
def test_constructor_rejects_a_value_of_the_wrong_type(key, value, constraint):
    # The string "false" is truthy: accepted, it would turn fading on.
    with pytest.raises(ConfigError, match=f"constraint violated: {constraint} "):
        ScenarioConfig(**{key: value})


# One out-of-range value per bounded field, with the constraint it breaks.
BOUND_CASES = [
    ("node_count", 1, "node_count >= 2"),
    ("pause_time", -1.0, "pause_time >= 0"),
    ("flow_count", 0, "flow_count >= 1"),
    ("queue_capacity", 0, "queue_capacity >= 1"),
    ("formation_grace", -0.5, "formation_grace >= 0"),
    ("rreq_max_retries", -1, "rreq_max_retries >= 0"),
    ("traffic_start", -1.0, "traffic_start >= 0"),
    ("packet_size", 0, "packet_size > 0"),
    *[
        (name, 0.0, f"{name} > 0")
        for name in (
            "area_width", "area_height", "tx_range", "sim_duration", "hello_interval",
            "neighbor_timeout", "packet_rate", "link_rate", "tx_power", "rreq_timeout",
        )
    ],
]


@pytest.mark.parametrize("key, value, constraint", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
def test_constructor_rejects_a_value_out_of_its_bound(key, value, constraint):
    with pytest.raises(ConfigError, match=re.escape(f"constraint violated: {constraint} (")):
        ScenarioConfig(**{key: value})


def test_bound_cases_cover_every_bounded_field():
    assert {c[0] for c in BOUND_CASES} == _MINIMA.keys() | set(_POSITIVE_FIELDS)


@pytest.mark.parametrize(
    "overrides, constraint",
    [({"min_speed": 5.0, "max_speed": 2.0}, "0 < min_speed <= max_speed"),
     ({"min_speed": 0.0, "max_speed": 10.0}, "0 < min_speed <= max_speed"),
     ({"traffic_start": 10.0, "traffic_stop": 5.0}, "traffic_start <= traffic_stop")],
    ids=["min-above-max", "moving-with-zero-min", "stop-before-start"],
)
def test_constructor_rejects_an_inverted_pair(overrides, constraint):
    with pytest.raises(ConfigError, match=re.escape(f"constraint violated: {constraint} (")):
        ScenarioConfig(**overrides)


def test_constructor_keeps_an_int_for_a_float_field_and_none_for_an_optional():
    # Not coerced: runs.csv writes max_speed=20 as given.
    cfg = ScenarioConfig(max_speed=20, flow_count=None, traffic_stop=None)
    assert repr(cfg.max_speed) == "20"


def test_static_scenario_requires_both_speeds_zero():
    cfg = ScenarioConfig(max_speed=0.0, min_speed=0.0)
    assert (cfg.max_speed, cfg.min_speed) == (0.0, 0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(max_speed=0.0, min_speed=0.5)


def test_derived_defaults():
    cfg = ScenarioConfig(hello_interval=2.0, neighbor_timeout=6.0)
    assert cfg.effective_formation_grace == 10.0
    assert cfg.effective_traffic_stop == cfg.sim_duration
    assert ScenarioConfig(formation_grace=25.0).effective_formation_grace == 25.0


def test_round_trip_identity():
    cfg = ScenarioConfig(
        node_count=37,
        area_width=512.5,
        area_height=321.25,
        max_speed=17.0,
        min_speed=0.3,
        protocol=Protocol.CROSS_CBRP,
        flow_count=9,
        packet_rate=3.5,
        rng_seed=99,
        allow_shared_endpoints=True,
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_of_parsed_text():
    text = "node_count=12\narea=300x200\nprotocol=cross-cbrp\nmin_speed=0.2\nmax_speed=5"
    once = parse_config(text)
    assert parse_config(serialize_config(once)) == once


def test_placement_within_area_and_deterministic():
    cfg = ScenarioConfig(node_count=50, area_width=200.0, area_height=100.0)
    a = generate_initial_placement(cfg, random.Random("s"))
    b = generate_initial_placement(cfg, random.Random("s"))
    assert a == b
    assert len(a) == 50
    assert all(0 <= x <= 200 and 0 <= y <= 100 for x, y in a)


def test_placement_single_node():
    cfg = ScenarioConfig(node_count=2)
    pts = generate_initial_placement(cfg, random.Random(0))
    assert len(pts) == 2


def test_placement_mean_converges_to_area_center():
    # Law of large numbers over many seeded placements.
    cfg = ScenarioConfig(node_count=100)
    xs = []
    for seed in range(1000):
        pts = generate_initial_placement(cfg, random.Random(seed))
        xs.extend(p[0] for p in pts)
    assert abs(statistics.fmean(xs) - 500.0) < 30.0


FLOAT_FIELDS = [
    "area_width",
    "area_height",
    "max_speed",
    "min_speed",
    "pause_time",
    "tx_range",
    "sim_duration",
    "hello_interval",
    "neighbor_timeout",
    "packet_rate",
    "link_rate",
    "path_loss_exponent",
    "tx_power",
    "formation_grace",
    "rreq_timeout",
    "traffic_start",
    "traffic_stop",
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_constructor_rejects_non_finite_floats(key, value):
    with pytest.raises(ConfigError, match=f"{key} is finite"):
        ScenarioConfig(**{key: float(value)})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_parse_config_rejects_non_finite_floats(key, value):
    with pytest.raises(ConfigError, match=f"{key} is finite"):
        parse_config(f"{key}={value}\n")
