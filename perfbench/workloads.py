"""Benchmark workloads: the inputs each one generates from a seed, and how
it drives cbrsim through the public API.

Every repetition of a workload runs the same pool of scenario seeds.  The
simulated load of one scenario swings up to threefold between scenario
seeds (the route-request flood is chaotic), so a scenario drawn per
``--seed`` would make run-to-run spread measure scenario difficulty rather
than the program.  ``--seed`` sets the order in which the pool runs.  A
disjoint held-out pool confirms claims on inputs not used while tuning.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from pathlib import Path

POOL = (0, 1)
HELD_OUT_POOL = (2, 3)

# The acceptance suite's desk-scale operating point: 25 nodes on 500 x 500 m
# at 20 m/s, 1 s hellos, 10 flows of 4 packets/s.
DESK = dict(
    node_count=25,
    area_width=500.0,
    area_height=500.0,
    min_speed=0.1,
    max_speed=20.0,
    hello_interval=1.0,
    neighbor_timeout=3.0,
    formation_grace=30.0,
    flow_count=10,
    packet_rate=4.0,
)

# A few nodes for a few simulated seconds: keeps each workload's shape (two
# protocols, or a rate x protocol x seed sweep) for the benchmark self-test.
TINY = dict(node_count=8, area_width=300.0, area_height=300.0, sim_duration=5.0, flow_count=2)


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict
    rates: tuple[float, ...] = field(default=())  # non-empty: a run_sweep over packet rates

    @property
    def is_sweep(self) -> bool:
        return bool(self.rates)

    @property
    def run_count(self) -> int:
        return len(POOL) * 2 * max(1, len(self.rates))


WORKLOADS = {
    w.name: w
    for w in (
        # Hello processing and both election rules dominate; direct
        # Simulation runs, so the harness is bypassed.
        Workload("desk-mobile", dict(DESK, sim_duration=90.0)),
        # The paper's 100 nodes on 1000 x 1000 m with 50 flows: the
        # cluster-head route-request flood dominates and router state grows.
        Workload("default-100", dict(sim_duration=10.0)),
        # The acceptance rate-sweep base (desk plus a 32 kbit/s link): many
        # independent cells through run_sweep, high-rate queues full of data.
        Workload("rate-sweep", dict(DESK, link_rate=32_000.0, sim_duration=40.0), rates=(2.0, 8.0)),
    )
}


def rotated(items: tuple, n: int) -> tuple:
    n %= len(items)
    return items[n:] + items[:n]


def build_inputs(cbrsim, workload: Workload, seed: int, tiny: bool = False, held_out: bool = False):
    """The generated inputs: a list of ScenarioConfig, or an ExperimentPlan."""
    pool = HELD_OUT_POOL if held_out else POOL
    base = cbrsim.ScenarioConfig(**dict(workload.base, **(TINY if tiny else {})))
    protocols = (cbrsim.Protocol.CBRP, cbrsim.Protocol.CROSS_CBRP)
    if workload.is_sweep:
        return cbrsim.ExperimentPlan(
            base=base,
            axis=cbrsim.SweepAxis.PACKET_RATE,
            values=rotated(workload.rates, seed),
            protocols=rotated(protocols, seed // 2),
            seeds=rotated(pool, seed // 4),
        )
    runs = tuple((key, p) for key in pool for p in protocols)
    return [base.with_overrides(protocol=p, rng_seed=key) for key, p in rotated(runs, seed)]


def first_config(inputs):
    """The config of the first simulation a workload constructs."""
    if isinstance(inputs, list):
        return inputs[0]
    return inputs.config_for(*next(inputs.cells()))


def execute(cbrsim, inputs, out_dir: Path) -> list[list[str]]:
    """Run the workload to its last report; return one row per simulation run,
    in run order, each field rendered with ``str``."""
    if isinstance(inputs, list):
        reports = [cbrsim.Simulation(cfg).run() for cfg in inputs]
    else:
        result = cbrsim.run_sweep(inputs, out_dir)
        reports = [result.reports[(v, p.value, s)] for v, p, s in inputs.cells()]
    return [[str(v) for v in astuple(r)] for r in reports]


def check_sweep_files(out_dir: Path, runs: int) -> None:
    lines = (out_dir / "runs.csv").read_text(encoding="utf-8").splitlines()
    if len(lines) != runs + 1:
        raise RuntimeError(f"runs.csv has {len(lines) - 1} rows, expected {runs}")
    for name in ("summary.csv", "report.txt"):
        if not (out_dir / name).read_text(encoding="utf-8").strip():
            raise RuntimeError(f"{name} is empty")
