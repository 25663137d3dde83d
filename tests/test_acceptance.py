"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The desk-scale sweep
configurations are frozen here; every tolerance is stated inline.
"""

import math
import subprocess
import sys
import time

import pytest

from cbrsim.clustering import aggregate_mobility, relative_mobility
from cbrsim.cli import ExperimentPlan, SweepAxis, run_sweep
from cbrsim.config import Protocol, ScenarioConfig, generate_initial_placement
from cbrsim.engine import Simulation
from cbrsim.metrics import SUMMARY_METRICS
from cbrsim.radio import channel_gain
from conftest import bidirectional_disc_adjacency, child_env, is_connected, route_spy

SEEDS = (0, 1, 2, 3, 4)

# Desk-scale operating point for the mobile sweeps: 25 nodes on 500 x 500 m
# keeps per-disc density comparable to the 100-node / 1000 x 1000 benchmark,
# a 1 s hello interval keeps the mobility estimates fresh at 10-30 m/s, and
# the 30 s grace excludes formation settling from the churn counts.
SWEEP_BASE = dict(
    node_count=25,
    area_width=500.0,
    area_height=500.0,
    min_speed=0.1,
    max_speed=20.0,
    sim_duration=300.0,
    hello_interval=1.0,
    neighbor_timeout=3.0,
    formation_grace=30.0,
    flow_count=10,
    packet_rate=4.0,
)

# The rate sweep runs over a 32 kbit/s link so the data plane saturates as the
# offered rate grows (queueing delay and queue drops rise sharply with rate).
RATE_SWEEP_BASE = dict(SWEEP_BASE, link_rate=32_000.0)

SPEEDS = (10.0, 20.0, 30.0)
RATES = (1.0, 2.0, 4.0, 8.0)


def announce(criterion: int, ok: bool, detail: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {verdict} ({time.monotonic() - started:.1f}s): {detail}")


def cell_means(result, metric: str):
    return {key: stats[metric].mean for key, stats in result.summary.items()}


@pytest.fixture(scope="module")
def speed_sweep(tmp_path_factory):
    plan = ExperimentPlan(
        base=ScenarioConfig(**SWEEP_BASE),
        axis=SweepAxis.MAX_SPEED,
        values=SPEEDS,
        protocols=(Protocol.CBRP, Protocol.CROSS_CBRP),
        seeds=SEEDS,
    )
    out = tmp_path_factory.mktemp("speed_sweep")
    return run_sweep(plan, out)


@pytest.fixture(scope="module")
def rate_sweep(tmp_path_factory):
    plan = ExperimentPlan(
        base=ScenarioConfig(**RATE_SWEEP_BASE),
        axis=SweepAxis.PACKET_RATE,
        values=RATES,
        protocols=(Protocol.CBRP, Protocol.CROSS_CBRP),
        seeds=SEEDS,
    )
    out = tmp_path_factory.mktemp("rate_sweep")
    return run_sweep(plan, out)


def test_criterion_1_formula_oracles():
    started = time.monotonic()
    ok = True
    detail = []
    # relative mobility: log-ratio identities to 1e-9 relative tolerance
    checks = [
        (relative_mobility(3.7, 3.7), 0.0),
        (relative_mobility(100.0, 1.0), 20.0),
        (relative_mobility(0.1, 1.0), -10.0),
        (aggregate_mobility([]), 0.0),
        (aggregate_mobility([0.0, 0.0, 0.0]), 0.0),
        (aggregate_mobility([3.0, -4.0]), 12.5),
    ]
    for got, want in checks:
        if want == 0.0:
            ok &= got == 0.0
        else:
            ok &= math.isclose(got, want, rel_tol=1e-9)
    for n in (2.0, 3.0, 4.0):
        for x in (1.0, 50.0, 250.0):
            ratio = channel_gain(n, x) / channel_gain(n, 2 * x)
            ok &= math.isclose(ratio, 2.0**n, rel_tol=1e-9)
    detail.append("relative/aggregate mobility and distance-ratio law at 1e-9")
    announce(1, ok, "; ".join(detail), started)
    assert ok


def test_criterion_2_cli_determinism(tmp_path):
    started = time.monotonic()
    cfg_path = tmp_path / "desk.cfg"
    cfg_path.write_text(
        "node_count=25\narea=500x500\nmax_speed=15\nmin_speed=0.1\n"
        "sim_duration=60\nhello_interval=1\nneighbor_timeout=3\n"
        "flow_count=5\npacket_rate=2\n"
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "cbrsim", "--config", str(cfg_path),
                "--protocol", "both", "--seed", "7", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "runs.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    announce(2, ok, "two `python -m cbrsim` processes, byte-identical runs.csv", started)
    assert ok


def test_criterion_3_static_fixpoint():
    started = time.monotonic()
    base = dict(
        node_count=25,
        area_width=500.0,
        area_height=500.0,
        max_speed=0.0,
        min_speed=0.0,
        sim_duration=300.0,
        formation_grace=30.0,
        flow_count=1,
        packet_rate=1.0,
        rng_seed=0,
    )
    snapshots = {}
    ch_counts = {}
    late_changes = {}
    for protocol in (Protocol.CBRP, Protocol.CROSS_CBRP):
        cfg = ScenarioConfig(protocol=protocol, **base)
        sim = Simulation(cfg)
        report = sim.run()
        ch_counts[protocol] = report.ch_changes
        late_changes[protocol] = [
            rc for rc in sim.ledger.role_changes if rc[0] > cfg.effective_formation_grace
        ]
        snapshots[protocol] = [
            (nid, role, heads) for nid, role, heads, _ in sim.cluster_snapshot()
        ]
    ok = (
        ch_counts[Protocol.CBRP] == 0
        and ch_counts[Protocol.CROSS_CBRP] == 0
        and not late_changes[Protocol.CBRP]
        and not late_changes[Protocol.CROSS_CBRP]
        and snapshots[Protocol.CBRP] == snapshots[Protocol.CROSS_CBRP]
    )
    announce(
        3,
        ok,
        f"zero changes after grace for both variants; cluster sets equal "
        f"(ch={ch_counts[Protocol.CBRP]}/{ch_counts[Protocol.CROSS_CBRP]})",
        started,
    )
    assert ok


def test_criterion_4_speed_sweep_churn_trend(speed_sweep):
    started = time.monotonic()
    ch = cell_means(speed_sweep, "ch_changes")
    per_speed_ok = []
    for speed in SPEEDS:
        base = ch[(speed, "cbrp")]
        variant = ch[(speed, "cross-cbrp")]
        per_speed_ok.append(variant < base)
    monotone = {}
    for protocol in ("cbrp", "cross-cbrp"):
        seq = [ch[(speed, protocol)] for speed in SPEEDS]
        monotone[protocol] = all(a <= b for a, b in zip(seq, seq[1:]))
    ok = all(per_speed_ok) and all(monotone.values())
    summary = ", ".join(
        f"v={speed:g}: {ch[(speed, 'cbrp')]:.1f} vs {ch[(speed, 'cross-cbrp')]:.1f}"
        for speed in SPEEDS
    )
    announce(4, ok, f"head changes (baseline vs variant) {summary}; "
                    f"monotone in speed: {monotone}", started)
    assert all(per_speed_ok), f"variant not below baseline at every speed: {summary}"
    assert all(monotone.values()), f"churn not non-decreasing in speed: {summary}"


def test_criterion_5_speed_sweep_delivery_trend(speed_sweep):
    started = time.monotonic()
    pdr = cell_means(speed_sweep, "pdr")
    thr = cell_means(speed_sweep, "throughput_bps")
    pdr_ok = [pdr[(s, "cross-cbrp")] >= pdr[(s, "cbrp")] for s in SPEEDS]
    thr_ok = [thr[(s, "cross-cbrp")] >= thr[(s, "cbrp")] for s in SPEEDS]
    ok = all(pdr_ok) and all(thr_ok)
    summary = ", ".join(
        f"v={s:g}: pdr {pdr[(s, 'cbrp')]:.4f}->{pdr[(s, 'cross-cbrp')]:.4f}"
        for s in SPEEDS
    )
    announce(5, ok, f"variant delivery/throughput at least baseline's: {summary}", started)
    assert ok, summary


def test_criterion_6_rate_sweep_trends(rate_sweep):
    # The churn-vs-rate clause asserts the queueing-pressure mechanism: under
    # a collision-free serialized medium with control-priority queues, hello
    # delivery delay is bounded by one data-packet residual, which stays far
    # below the neighbor timeout in any configuration whose data plane still
    # functions, so churn stays flat in offered rate (see the delivery and
    # queue metrics, which do respond strongly).  The clause is asserted as
    # stated; a red outcome here records that bound honestly.
    started = time.monotonic()
    ch = cell_means(rate_sweep, "ch_changes")
    pdr = cell_means(rate_sweep, "pdr")
    ch_monotone = {}
    pdr_monotone = {}
    for protocol in ("cbrp", "cross-cbrp"):
        ch_seq = [ch[(r, protocol)] for r in RATES]
        pdr_seq = [pdr[(r, protocol)] for r in RATES]
        ch_monotone[protocol] = all(a <= b for a, b in zip(ch_seq, ch_seq[1:]))
        pdr_monotone[protocol] = all(a >= b for a, b in zip(pdr_seq, pdr_seq[1:]))
    variant_below = [ch[(r, "cross-cbrp")] <= ch[(r, "cbrp")] for r in RATES]
    ok = all(ch_monotone.values()) and all(pdr_monotone.values()) and all(variant_below)
    ch_text = "; ".join(
        f"{p}: " + ",".join(f"{ch[(r, p)]:.1f}" for r in RATES)
        for p in ("cbrp", "cross-cbrp")
    )
    pdr_text = "; ".join(
        f"{p}: " + ",".join(f"{pdr[(r, p)]:.3f}" for r in RATES)
        for p in ("cbrp", "cross-cbrp")
    )
    announce(
        6,
        ok,
        f"churn vs rate [{ch_text}] monotone={ch_monotone}; "
        f"variant<=baseline at every rate: {all(variant_below)}; "
        f"pdr vs rate [{pdr_text}] non-increasing={pdr_monotone}",
        started,
    )
    assert all(variant_below), f"variant churn above baseline: {ch_text}"
    assert all(pdr_monotone.values()), f"delivery ratio not non-increasing: {pdr_text}"
    assert all(ch_monotone.values()), (
        f"churn not non-decreasing in rate: {ch_text} "
        "(bounded hello delay under the collision-free medium; see notes)"
    )


def test_criterion_7_routing_oracle():
    started = time.monotonic()
    topologies = 0
    candidate = 0
    routes_checked = 0
    while topologies < 50:
        candidate += 1
        cfg = ScenarioConfig(
            node_count=12 + (candidate % 4),  # 12..15 nodes
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
            rng_seed=1000 + candidate,
        )
        placement = generate_initial_placement(
            cfg, __import__("random").Random(f"{cfg.rng_seed}:placement")
        )
        adjacency = bidirectional_disc_adjacency(placement, cfg.tx_range)
        if not is_connected(adjacency):
            continue
        topologies += 1
        sim = Simulation(cfg)
        routes = route_spy(sim)
        report = sim.run()
        for _, _, _, hops in routes:
            assert len(set(hops)) == len(hops), f"repeated id in route {hops}"
            for a, b in zip(hops, hops[1:]):
                assert adjacency[a][b], f"route {hops} uses non-edge {a}-{b}"
            routes_checked += 1
        assert report.data_sent > 0
        assert report.data_delivered == report.data_sent, (
            f"topology seed {cfg.rng_seed}: delivered {report.data_delivered} "
            f"of {report.data_sent} (drops q={report.drop_queue} "
            f"nr={report.drop_no_route} ff={report.drop_forward_fail} "
            f"if={report.in_flight_at_horizon})"
        )
    ok = routes_checked > 0
    announce(
        7,
        ok,
        f"50 connected static topologies, {routes_checked} routes valid, "
        "every data packet delivered",
        started,
    )
    assert ok


def test_criterion_8_structural_invariants(speed_sweep, rate_sweep):
    # Queue capacity/ordering, cluster diameter, route uniqueness, and packet
    # conservation are asserted inside the engine on every operation; any
    # violation raises and fails the runs behind criteria 2-7.  Reconcile the
    # conservation identity over every sweep report here.
    started = time.monotonic()
    reports = list(speed_sweep.reports.values()) + list(rate_sweep.reports.values())
    ok = len(reports) == 70
    for report in reports:
        classified = (
            report.data_delivered
            + report.drop_queue
            + report.drop_no_route
            + report.drop_forward_fail
            + report.in_flight_at_horizon
        )
        ok &= classified == report.data_sent
    announce(
        8,
        ok,
        f"conservation reconciled over {len(reports)} runs; in-run assertions "
        "(queue order/capacity, cluster diameter, route uniqueness) raised nothing",
        started,
    )
    assert ok


def test_criterion_9_transmit_power_scale_invariance():
    started = time.monotonic()
    base = ScenarioConfig(**SWEEP_BASE).with_overrides(max_speed=20.0, rng_seed=0)
    ok = True
    detail = []
    for protocol in (Protocol.CBRP, Protocol.CROSS_CBRP):
        logs = []
        for power in (1.0, 1000.0):
            cfg = base.with_overrides(protocol=protocol, tx_power=power)
            sim = Simulation(cfg)
            sim.run()
            logs.append(sim.ledger.role_changes)
        same = logs[0] == logs[1]
        ok &= same
        detail.append(f"{protocol.value}: {len(logs[0])} role changes, identical={same}")
    announce(9, ok, "; ".join(detail), started)
    assert ok
