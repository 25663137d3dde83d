"""Run accounting: per-event counters, the five per-run performance measures,
and aggregation across seeds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .clustering import Role, sum_in_order
from .config import ScenarioConfig
from .errors import InvariantError


@dataclass
class MetricsLedger:
    """Counters and event logs accumulated by one simulation run."""

    formation_grace: float
    ch_changes: int = 0
    role_changes: list[tuple[float, int, str, str]] = field(default_factory=list)
    data_sent: int = 0
    data_delivered: int = 0
    delivered_bytes: int = 0
    hello_sent: int = 0
    rreq_sent: int = 0
    rrep_sent: int = 0
    latency_total: float = 0.0  # summed left to right as deliveries happen
    # Every emitted packet is delivered, dropped for one of these three causes,
    # or still in flight at the horizon.
    drop_queue: int = 0
    drop_no_route: int = 0
    drop_forward_fail: int = 0
    in_flight_at_horizon: int = 0
    rreq_losses: int = 0
    rrep_losses: int = 0

    def record_role_change(
        self, node_id: int, old_role: Role, new_role: Role, now: float
    ) -> None:
        """Log every transition; count a cluster-head change only when exactly
        one side of the transition is the head role and formation is over."""
        if old_role is new_role:
            raise ValueError("not a role change")
        self.role_changes.append((now, node_id, old_role.value, new_role.value))
        involves_head = (old_role is Role.CLUSTER_HEAD) != (new_role is Role.CLUSTER_HEAD)
        if involves_head and now > self.formation_grace:
            self.ch_changes += 1

    def record_delivery(self, latency: float, size_bytes: int) -> None:
        self.data_delivered += 1
        self.delivered_bytes += size_bytes
        self.latency_total += latency


@dataclass(frozen=True)
class RunReport:
    """One row of results; the CSV contract for a single simulation run."""

    protocol: str
    seed: int
    max_speed: float
    packet_rate: float
    ch_changes: int
    pdr: float
    throughput_bps: float
    overhead_pkts: int
    mean_delay_s: float
    throughput_pps: float
    data_sent: int
    data_delivered: int
    drop_queue: int
    drop_no_route: int
    drop_forward_fail: int
    in_flight_at_horizon: int
    hello_sent: int
    rreq_sent: int
    rrep_sent: int
    rreq_losses: int
    rrep_losses: int


CSV_COLUMNS = [f.name for f in fields(RunReport)]

# Ledger counters that a RunReport carries over unchanged, under the same name.
_LEDGER_COUNTERS = [
    name for name in CSV_COLUMNS if name in {f.name for f in fields(MetricsLedger)}
]

# Field.type holds the annotation's text: annotations here are postponed.
_COLUMN_PARSERS = {"str": str, "int": int, "float": float}


def report_to_row(report: RunReport) -> list[str]:
    return [str(getattr(report, col)) for col in CSV_COLUMNS]


def report_from_row(row: list[str]) -> RunReport:
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(row)}")
    return RunReport(
        **{f.name: _COLUMN_PARSERS[f.type](text) for f, text in zip(fields(RunReport), row)}
    )


def finalize(ledger: MetricsLedger, cfg: ScenarioConfig) -> RunReport:
    """Fold a completed run's ledger into the five headline measures.

    A run that sent no data reports PDR and mean delay as nan rather than
    failing on the division.
    """
    sent = ledger.data_sent
    total_classified = (
        ledger.data_delivered
        + ledger.drop_queue
        + ledger.drop_no_route
        + ledger.drop_forward_fail
        + ledger.in_flight_at_horizon
    )
    if total_classified != sent:
        raise InvariantError(
            f"packet conservation broken: sent {sent}, classified {total_classified}"
        )
    delivered = ledger.data_delivered
    pdr = delivered / sent if sent else math.nan
    mean_delay = ledger.latency_total / delivered if delivered else math.nan
    return RunReport(
        protocol=cfg.protocol.value,
        seed=cfg.rng_seed,
        max_speed=cfg.max_speed,
        packet_rate=cfg.packet_rate,
        pdr=pdr,
        throughput_bps=ledger.delivered_bytes * 8.0 / cfg.sim_duration,
        overhead_pkts=ledger.hello_sent + ledger.rreq_sent + ledger.rrep_sent,
        mean_delay_s=mean_delay,
        throughput_pps=delivered / cfg.sim_duration,
        **{name: getattr(ledger, name) for name in _LEDGER_COUNTERS},
    )


SUMMARY_METRICS = ["ch_changes", "pdr", "throughput_bps", "overhead_pkts", "mean_delay_s"]

# Direction of improvement when comparing the mobility-aware variant against
# the baseline: lower is better for churn and delay, higher for the rest.
LOWER_IS_BETTER = {"ch_changes", "mean_delay_s", "overhead_pkts"}


@dataclass(frozen=True)
class MetricStats:
    mean: float
    stddev: float | None  # None marks n/a (single run)
    n: int


def aggregate(reports: list[RunReport]) -> dict[str, MetricStats]:
    """Mean and sample standard deviation per metric over seeded runs.

    All reports must describe the same cell (protocol and sweep values equal,
    only the seed varying).
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    first = reports[0]
    for r in reports[1:]:
        if (r.protocol, r.max_speed, r.packet_rate) != (
            first.protocol,
            first.max_speed,
            first.packet_rate,
        ):
            raise ValueError(
                "heterogeneous configs: aggregation requires identical "
                "protocol and sweep values across reports"
            )
    stats = {}
    for metric in SUMMARY_METRICS:
        values = [getattr(r, metric) for r in reports]
        mean = _mean(values)
        std = _sample_std(values, mean) if len(values) > 1 else None
        stats[metric] = MetricStats(mean=mean, stddev=std, n=len(values))
    return stats


def _mean(values: list[float]) -> float:
    return sum_in_order(values) / len(values)


def _sample_std(values: list[float], mean: float) -> float:
    """Standard deviation with Bessel's correction (n - 1 denominator)."""
    return math.sqrt(sum_in_order([(v - mean) * (v - mean) for v in values]) / (len(values) - 1))


@dataclass(frozen=True)
class PairedComparison:
    metric: str
    baseline_mean: float
    variant_mean: float
    per_seed_delta: dict[int, float]  # variant - baseline, per shared seed
    improvement_pct: float  # positive when the variant is better


def paired_comparison(
    baseline: list[RunReport], variant: list[RunReport]
) -> list[PairedComparison]:
    """Seed-matched comparison of two protocol variants on shared seeds."""
    base_by_seed = {r.seed: r for r in baseline}
    var_by_seed = {r.seed: r for r in variant}
    shared = sorted(base_by_seed.keys() & var_by_seed.keys())
    if not shared:
        raise ValueError("no shared seeds between the two report sets")
    rows = []
    for metric in SUMMARY_METRICS:
        base_vals = [getattr(base_by_seed[s], metric) for s in shared]
        var_vals = [getattr(var_by_seed[s], metric) for s in shared]
        base_mean = _mean(base_vals)
        var_mean = _mean(var_vals)
        deltas = {s: v - b for s, b, v in zip(shared, base_vals, var_vals)}
        if base_mean == 0 or math.isnan(base_mean) or math.isnan(var_mean):
            pct = math.nan
        elif metric in LOWER_IS_BETTER:
            pct = (base_mean - var_mean) / base_mean * 100.0
        else:
            pct = (var_mean - base_mean) / base_mean * 100.0
        rows.append(
            PairedComparison(
                metric=metric,
                baseline_mean=base_mean,
                variant_mean=var_mean,
                per_seed_delta=deltas,
                improvement_pct=pct,
            )
        )
    return rows
