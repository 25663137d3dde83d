import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrsim.clustering import Role
from cbrsim.config import Protocol, ScenarioConfig
from cbrsim.errors import InvariantError
from cbrsim.metrics import (
    MetricsLedger,
    aggregate,
    finalize,
    paired_comparison,
    report_from_row,
    report_to_row,
)
from conftest import make_cfg


def fresh_ledger(grace=10.0):
    return MetricsLedger(formation_grace=grace)


def finalize_cfg(**kw):
    return make_cfg(**kw)


# -- role-change counting ------------------------------------------------------


def test_member_to_head_after_grace_counts():
    led = fresh_ledger()
    led.record_role_change(1, Role.MEMBER, Role.CLUSTER_HEAD, now=50.0)
    assert led.ch_changes == 1


def test_undecided_to_member_never_counts():
    led = fresh_ledger()
    led.record_role_change(1, Role.UNDECIDED, Role.MEMBER, now=50.0)
    assert led.ch_changes == 0


def test_changes_during_formation_grace_do_not_count():
    led = fresh_ledger(grace=10.0)
    led.record_role_change(1, Role.CLUSTER_HEAD, Role.MEMBER, now=5.0)
    assert led.ch_changes == 0
    assert len(led.role_changes) == 1  # still logged


def test_same_role_rejected():
    led = fresh_ledger()
    with pytest.raises(ValueError):
        led.record_role_change(1, Role.MEMBER, Role.MEMBER, now=50.0)


# -- finalize -------------------------------------------------------------------


def test_zero_data_reports_nan_not_error():
    report = finalize(fresh_ledger(), finalize_cfg())
    assert math.isnan(report.pdr)
    assert math.isnan(report.mean_delay_s)
    assert report.throughput_bps == 0.0


def test_all_delivered_gives_unit_pdr():
    led = fresh_ledger()
    led.data_sent = 7
    for _ in range(7):
        led.record_delivery(0.01, 512)
    report = finalize(led, finalize_cfg())
    assert report.pdr == 1.0


def test_throughput_hand_value():
    # 1200 deliveries of 512 bytes over 300 s: 16384 bit/s
    led = fresh_ledger()
    led.data_sent = 1200
    for _ in range(1200):
        led.record_delivery(0.02, 512)
    cfg = finalize_cfg(sim_duration=300.0)
    report = finalize(led, cfg)
    assert report.throughput_bps == pytest.approx(16384.0, rel=1e-12)
    assert report.throughput_pps == pytest.approx(4.0, rel=1e-12)


def test_mean_delay_sums_latencies_in_delivery_order():
    # 1e16 + 1 rounds back to 1e16 twice; a compensated sum keeps the 2
    led = fresh_ledger()
    led.data_sent = 3
    for latency in (1e16, 1.0, 1.0):
        led.record_delivery(latency, 512)
    assert finalize(led, finalize_cfg()).mean_delay_s == 1e16 / 3


def test_conservation_enforced():
    led = fresh_ledger()
    led.data_sent = 3
    led.record_delivery(0.01, 512)
    with pytest.raises(InvariantError):
        finalize(led, finalize_cfg())
    led.drop_queue += 1
    led.in_flight_at_horizon = 1
    report = finalize(led, finalize_cfg())
    assert report.data_sent == 3


def test_csv_row_round_trip():
    led = fresh_ledger()
    led.data_sent = 2
    led.record_delivery(0.25, 512)
    led.drop_no_route += 1
    led.hello_sent = 10
    report = finalize(led, finalize_cfg())
    assert report_from_row(report_to_row(report)) == report


# -- aggregation ----------------------------------------------------------------


def sample_report(seed=0, protocol="cbrp", ch=10, pdr=0.9, **kw):
    led = fresh_ledger()
    led.data_sent = 10
    for _ in range(9):
        led.record_delivery(0.1, 512)
    led.drop_no_route += 1
    led.ch_changes = ch
    cfg = make_cfg(
        rng_seed=seed,
        protocol=Protocol.CBRP if protocol == "cbrp" else Protocol.CROSS_CBRP,
        **kw,
    )
    return finalize(led, cfg)


def test_single_report_stddev_marked_na():
    stats = aggregate([sample_report()])
    assert stats["ch_changes"].stddev is None
    assert stats["ch_changes"].mean == 10.0


def test_identical_reports_zero_stddev():
    reports = [sample_report(seed=s) for s in range(5)]
    stats = aggregate(reports)
    assert stats["pdr"].stddev == 0.0
    assert stats["pdr"].n == 5


def test_heterogeneous_reports_rejected():
    a = sample_report(seed=0, max_speed=10.0)
    b = sample_report(seed=1, max_speed=20.0)
    with pytest.raises(ValueError, match="heterogeneous"):
        aggregate([a, b])


def test_paired_comparison_directions():
    baseline = [sample_report(seed=s, ch=20) for s in range(3)]
    variant = [sample_report(seed=s, protocol="cross-cbrp", ch=10) for s in range(3)]
    rows = {c.metric: c for c in paired_comparison(baseline, variant)}
    assert rows["ch_changes"].improvement_pct == pytest.approx(50.0)
    assert rows["ch_changes"].per_seed_delta == {0: -10.0, 1: -10.0, 2: -10.0}
    assert rows["pdr"].improvement_pct == pytest.approx(0.0)


def test_paired_comparison_requires_shared_seeds():
    a = [sample_report(seed=0)]
    b = [sample_report(seed=1, protocol="cross-cbrp")]
    with pytest.raises(ValueError):
        paired_comparison(a, b)


@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=7))
@settings(max_examples=200, deadline=None)
def test_aggregate_matches_numpy_bit_for_bit(values):
    # The summary used numpy's mean and ddof=1 std; the plain sums add left to
    # right as numpy does below eight samples, so summary.csv keeps its bits.
    np = pytest.importorskip("numpy")
    reports = [replace(sample_report(seed=s), mean_delay_s=v) for s, v in enumerate(values)]
    stats = aggregate(reports)["mean_delay_s"]
    assert stats.mean == float(np.mean(values))
    assert stats.stddev == float(np.std(values, ddof=1))
