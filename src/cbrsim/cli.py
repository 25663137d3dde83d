"""Command-line entry point: single runs, speed/rate sweeps, paired protocol
comparison, and report emission.

Outputs land in the --out directory: ``runs.csv`` (one row per run),
``summary.csv`` (per-cell means and standard deviations), ``report.txt``
(human-readable tables, including the paired protocol comparison), and
``config.txt`` (the base config).  All output is deterministic: rerunning the
same command reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .config import (
    Protocol,
    ScenarioConfig,
    _FIELD_PARSERS,
    parse_config,
    parse_setting,
    serialize_config,
)
from .engine import TRACE_HEADERS, Simulation
from .errors import ConfigError, InvariantError
from .metrics import (
    CSV_COLUMNS,
    SUMMARY_METRICS,
    RunReport,
    aggregate,
    paired_comparison,
    report_from_row,
    report_to_row,
)

# Headline improvement figures from the protocols' original evaluation,
# echoed in report.txt as context only; nothing is gated on them.
REFERENCE_IMPROVEMENTS = [
    ("ch_changes vs speed", "37% fewer cluster-head changes on average"),
    ("pdr vs speed", "about 9% higher packet delivery ratio"),
    ("throughput vs speed", "about 8.5% higher throughput"),
    ("ch_changes vs rate", "about 30% fewer changes at low rate, 10% at high"),
]


class SweepAxis(Enum):
    NONE = "none"
    MAX_SPEED = "speed"
    PACKET_RATE = "rate"


# The config field (and RunReport column) each sweep axis varies.
_AXIS_FIELDS = {SweepAxis.MAX_SPEED: "max_speed", SweepAxis.PACKET_RATE: "packet_rate"}


@dataclass(frozen=True)
class ExperimentPlan:
    """Cross product of sweep values, protocol variants, and seeds.

    Seeds repeat across protocols so variant comparisons are paired on
    identical placements, mobility, and traffic.
    """

    base: ScenarioConfig
    axis: SweepAxis
    values: tuple[float, ...]
    protocols: tuple[Protocol, ...]
    seeds: tuple[int, ...]

    def __post_init__(self):
        # A repeated value, protocol or seed would run one cell twice and
        # count it as two replicates with zero spread.
        lists = {"protocols": self.protocols, "seeds": self.seeds}
        if self.axis is not SweepAxis.NONE:
            lists["values"] = self.values
        elif self.values:  # no cell would run them
            raise ConfigError(f"values {self.values!r} need a sweep axis")
        for name, items in lists.items():
            if not items or len(set(items)) < len(items):
                raise ConfigError(f"{name} must be non-empty and distinct, got {items!r}")
        # Build every cell's config up front, so a bad sweep value fails
        # before any run writes a row.
        for cell in self.cells():
            self.config_for(*cell)

    def cells(self):
        axis_values = self.values if self.axis is not SweepAxis.NONE else (None,)
        for value in axis_values:
            for protocol in self.protocols:
                for seed in self.seeds:
                    yield value, protocol, seed

    def config_for(self, value, protocol: Protocol, seed: int) -> ScenarioConfig:
        overrides = {"protocol": protocol, "rng_seed": seed}
        if self.axis in _AXIS_FIELDS:
            overrides[_AXIS_FIELDS[self.axis]] = value
        return self.base.with_overrides(**overrides)


@dataclass
class SweepResult:
    """What a sweep produced: its plan, each run's report and per-cell aggregates."""

    plan: ExperimentPlan
    reports: dict[tuple, RunReport]  # (axis value, protocol value, seed) -> report
    summary: dict  # (axis value, protocol value) -> {metric: MetricStats}


def _number_text(x: float) -> str:
    """Shortest text that reads back as ``x``, without a trailing ".0": 5.0 is
    "5", and 10.0000001 and 10.0000002 stay apart (``:g`` rounds both to 10)."""
    return repr(x).removesuffix(".0")


def run_sweep(
    plan: ExperimentPlan,
    out_dir: str | Path,
    *,
    resume: bool = False,
    trace: bool = False,
) -> SweepResult:
    """Execute a plan's run set, writing runs.csv incrementally plus the
    summary artifacts.

    ``config.txt`` records the plan's base config.  With ``resume``, cells
    already present in runs.csv are reused instead of re-simulated, provided
    ``config.txt`` holds the same base config.  With ``trace``, each simulated
    cell writes one CSV per ``TRACE_HEADERS`` stem as it runs.  A cell that
    breaches an invariant leaves its own config in ``invariant_config.txt``,
    and its trace rows so far: the run is deterministic, so that file replays
    the breach.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    runs_path = out / "runs.csv"
    config_path = out / "config.txt"
    base_text = serialize_config(plan.base)
    existing: dict[tuple, RunReport] = {}
    if resume and runs_path.exists():
        if not config_path.exists() or config_path.read_text(encoding="utf-8") != base_text:
            raise ConfigError(
                f"cannot resume: {config_path} is missing or records another base config"
            )
        for report in read_runs_csv(runs_path):
            key = (report.protocol, report.seed, report.max_speed, report.packet_rate)
            existing[key] = report
    config_path.write_text(base_text, encoding="utf-8")
    reports: dict[tuple, RunReport] = {}
    with open(runs_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for value, protocol, seed in plan.cells():
            cfg = plan.config_for(value, protocol, seed)
            key = (cfg.protocol.value, cfg.rng_seed, cfg.max_speed, cfg.packet_rate)
            report = existing.get(key)
            if report is None:
                with ExitStack() as trace_files:
                    sinks = _open_trace_sinks(trace_files, out, cfg) if trace else None
                    try:
                        report = Simulation(cfg, trace=sinks).run()
                    except InvariantError:
                        (out / "invariant_config.txt").write_text(
                            serialize_config(cfg), encoding="utf-8"
                        )
                        raise
            reports[(value, protocol.value, seed)] = report
            writer.writerow(report_to_row(report))
            fh.flush()
    cells = group_cells(read_runs_csv(runs_path), plan.axis)
    summary = {key: aggregate(group) for key, group in cells.items()}
    result = SweepResult(plan=plan, reports=reports, summary=summary)
    write_summary_csv(out / "summary.csv", summary, plan.axis)
    (out / "report.txt").write_text(format_report(result, cells), encoding="utf-8")
    return result


def _open_trace_sinks(stack: ExitStack, out: Path, cfg: ScenarioConfig) -> dict:
    """Open one CSV per ``TRACE_HEADERS`` stem for ``cfg``'s run on ``stack``,
    its header written, and return each file's row writer by stem."""
    speed, rate = _number_text(cfg.max_speed), _number_text(cfg.packet_rate)
    tag = f"{cfg.protocol.value}_seed{cfg.rng_seed}_v{speed}_r{rate}"
    sinks = {}
    for stem, header in TRACE_HEADERS.items():
        fh = stack.enter_context(open(out / f"{stem}_{tag}.csv", "w", newline=""))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        sinks[stem] = writer.writerow
    return sinks


def read_runs_csv(path: str | Path) -> list[RunReport]:
    """Parse runs.csv; a bad header, column count or value is a ConfigError
    naming the path and line, so a truncated file cannot be resumed."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CSV_COLUMNS:
            raise ConfigError(f"unexpected runs.csv header in {path}")
        try:
            return [report_from_row(row) for row in reader]
        except ValueError as exc:
            raise ConfigError(f"{path} line {reader.line_num}: {exc}") from None


def group_cells(reports: list[RunReport], axis: SweepAxis) -> dict[tuple, list[RunReport]]:
    """Group reports into (axis value, protocol) cells, in sorted cell order.

    ``run_sweep`` groups parsed runs.csv rows alone, which is the
    reproducibility contract for summary.csv.
    """
    name = _AXIS_FIELDS.get(axis)
    cells: dict[tuple, list[RunReport]] = {}
    for report in reports:
        key = (None if name is None else getattr(report, name), report.protocol)
        cells.setdefault(key, []).append(report)
    return dict(sorted(cells.items(), key=lambda kv: (kv[0][0] is None, kv[0])))


def write_summary_csv(path: Path, summary: dict, axis: SweepAxis) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["sweep_axis", "axis_value", "protocol", "n_runs"]
        for metric in SUMMARY_METRICS:
            header += [f"{metric}_mean", f"{metric}_std"]
        writer.writerow(header)
        for (value, protocol), stats in summary.items():
            n = stats[SUMMARY_METRICS[0]].n
            row = [axis.value, "" if value is None else value, protocol, n]
            for metric in SUMMARY_METRICS:
                cell = stats[metric]
                row.append(cell.mean)
                row.append("" if cell.stddev is None else cell.stddev)
            writer.writerow(row)


def format_report(result: SweepResult, cells: dict[tuple, list[RunReport]]) -> str:
    plan = result.plan
    summary = result.summary
    lines = ["simulation sweep report", "=" * 40, ""]
    lines.append("base configuration:")
    for cfg_line in serialize_config(plan.base).strip().splitlines():
        lines.append(f"  {cfg_line}")
    if plan.base.flow_count is None:
        lines.append(
            f"  # flow_count defaulted to {plan.base.effective_flow_count} "
            "(disjoint endpoints capped at node_count/2, at most 50)"
        )
    lines.append("")
    lines.append(f"sweep axis: {plan.axis.value}")
    lines.append(f"seeds: {', '.join(str(s) for s in plan.seeds)}")
    lines.append("")
    lines.append("per-cell means (stddev) over seeds:")
    lines.append(
        f"{'axis':>8} {'protocol':>12}" + "".join(f" {m:>24}" for m in SUMMARY_METRICS)
    )
    for (value, protocol), stats in summary.items():
        columns = []
        for metric in SUMMARY_METRICS:
            s = stats[metric]
            std = "n/a" if s.stddev is None else f"{s.stddev:.3g}"
            columns.append(f"{s.mean:.6g} ({std})".rjust(24))
        axis_text = "-" if value is None else _number_text(value)
        lines.append(f"{axis_text:>8} {protocol:>12}" + "".join(f" {c}" for c in columns))
    lines.append("")
    protocols_present = {p for _, p in summary.keys()}
    if {Protocol.CBRP.value, Protocol.CROSS_CBRP.value} <= protocols_present:
        lines.append("paired comparison (mobility-aware variant vs baseline, shared seeds):")
        lines.append(
            f"{'axis':>8} {'metric':>16} {'baseline':>14} {'variant':>14} {'improvement':>12}"
        )
        for (value, protocol), base_reports in cells.items():
            var_reports = cells.get((value, Protocol.CROSS_CBRP.value))
            if protocol != Protocol.CBRP.value or var_reports is None:
                continue
            for comparison in paired_comparison(base_reports, var_reports):
                axis_text = "-" if value is None else _number_text(value)
                lines.append(
                    f"{axis_text:>8} {comparison.metric:>16} "
                    f"{comparison.baseline_mean:>14.6g} {comparison.variant_mean:>14.6g} "
                    f"{comparison.improvement_pct:>11.2f}%"
                )
        lines.append("")
        lines.append("reference improvements from the protocols' original evaluation")
        lines.append("(context only, not gated):")
        for name, text in REFERENCE_IMPROVEMENTS:
            lines.append(f"  {name}: {text}")
    lines.append("")
    return "\n".join(lines)


class _Once(argparse.Action):
    """Store a flag's value and refuse the flag a second time, rather than let
    the repeat override it; a scenario file likewise sets each key once."""

    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given twice")
        setattr(namespace, self.dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simrun",
        description="Deterministic cluster-routing simulator: single runs and sweeps.",
    )
    parser.add_argument("--config", action=_Once, help="scenario file (key=value lines)")
    parser.add_argument(
        "--protocol",
        action=_Once,
        choices=[*(p.value for p in Protocol), "both"],
        help="protocol variant to run (default: from config)",
    )
    parser.add_argument(
        "--sweep",
        action=_Once,
        help="sweep axis and values, e.g. speed=10,20,30 or rate=1,2,4,8",
    )
    seed_group = parser.add_mutually_exclusive_group()
    seed_group.add_argument("--seeds", type=int, action=_Once, help="run seeds 0..N-1")
    seed_group.add_argument("--seed", type=int, action=_Once, help="run a single seed")
    parser.add_argument("--out", action=_Once, help="output directory (default: simout)")
    parser.add_argument("--trace", action="store_true", help="export event traces")
    parser.add_argument(
        "--resume", action="store_true", help="skip runs already present in runs.csv"
    )
    # Every config key is also a long flag; CLI beats file beats defaults.
    for key in _FIELD_PARSERS:
        if key == "protocol":
            continue
        parser.add_argument(f"--{key}", action=_Once, help=argparse.SUPPRESS)
    parser.add_argument("--area", action=_Once, help="area as WxH meters")
    return parser


def plan_from_args(args) -> ExperimentPlan:
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
            raise ConfigError(f"cannot read --config {args.config}: {exc}") from None
        base = parse_config(text)
    else:
        base = ScenarioConfig()
    overrides = {}
    for key in (*_FIELD_PARSERS, "area"):
        raw = getattr(args, key)
        if raw is not None and key != "protocol":
            parsed = parse_setting(key, raw, f"--{key}")
            for name in parsed:
                if name in overrides:  # only --area sets a field another flag sets
                    raise ConfigError(f"--{key}: {name} is already set by --{name}")
            overrides.update(parsed)
    if overrides:
        base = base.with_overrides(**overrides)
    if args.protocol == "both":
        protocols = tuple(Protocol)
    elif args.protocol:
        protocols = (Protocol(args.protocol),)
    else:
        protocols = (base.protocol,)
    if args.seeds is not None:
        seeds = tuple(range(args.seeds))
    elif args.seed is not None:
        seeds = (args.seed,)
    else:
        seeds = (base.rng_seed,)
    axis = SweepAxis.NONE
    values: tuple[float, ...] = ()
    if args.sweep:
        name, _, value_text = args.sweep.partition("=")
        name = name.strip().lower()
        axis = next((a for a in _AXIS_FIELDS if a.value == name), None)
        if axis is None:
            raise ConfigError(f"unknown sweep axis {name!r} (expected speed or rate)")
        try:
            values = tuple(float(v) for v in value_text.split(",") if v.strip())
        except ValueError:
            raise ConfigError(f"bad sweep values {value_text!r}") from None
        field = _AXIS_FIELDS[axis]
        if field in overrides:  # the sweep sets that field in every cell
            raise ConfigError(f"--sweep: {field} is already set by --{field}")
    return ExperimentPlan(base=base, axis=axis, values=values, protocols=protocols, seeds=seeds)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = Path("simout" if args.out is None else args.out)
    try:
        plan = plan_from_args(args)
        run_sweep(plan, out, resume=args.resume, trace=args.trace)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(
            f"internal invariant breach: {exc}\n"
            f"replay: python -m cbrsim --config {out / 'invariant_config.txt'} --trace",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
