"""Outside-in tracing of cbrsim's layers.

Each boundary is a public function or method of one layer, wrapped on the
name its caller resolves (``cbrsim.engine.position_at``, not
``cbrsim.mobility.position_at``), so no file under ``src/`` changes.  A
boundary aggregates its call count, total time and self time (total minus
the time spent in wrapped callees).  Spans are kept only per simulation run;
per-call spans would number in the millions.  ``restore`` puts every
attribute back.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

SETUP_BOUNDARIES = ("engine.init", "config.placement", "traffic.flows")


class Tracer:
    def __init__(self, cbrsim, only: tuple[str, ...] | None = None):
        self.stats: dict[str, list] = {}  # boundary -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.cells: list[float] = []  # host seconds per simulation: __init__ + run
        self._stack = [0.0]  # time spent in wrapped callees, one slot per open call
        self._patches: list[tuple[object, str, object]] = []
        self._depth: dict = {}  # live InterfaceQueue -> packets it holds
        self._init_s = 0.0
        if cbrsim is not None:
            self._install(cbrsim, only)

    def _install(self, cbrsim, only) -> None:
        engine, clustering, routing, cli = cbrsim.engine, cbrsim.clustering, cbrsim.routing, cbrsim.cli
        sim, queue = engine.Simulation, engine.InterfaceQueue
        self._accepted = engine.QueueOutcome.ACCEPTED
        self._dropped = engine.QueueOutcome.DROPPED_INCOMING
        boundaries = [
            (sim, "__init__", "engine.init", self._on_init),
            (sim, "run", "engine.run", self._on_run),
            (queue, "enqueue", "queue.enqueue", self._on_enqueue),
            (queue, "pop_head", "queue.pop", self._on_pop),
            (clustering, "on_hello_received", "clustering.hello_rx", self._on_hello),
            (clustering, "expire_neighbors", "clustering.expire", self._on_expire),
            (clustering, "build_hello", "clustering.build_hello", None),
            (routing, "process_rreq", "routing.rreq", self._on_rreq),
            (routing, "process_rrep", "routing.rrep", None),
            (routing, "originate_rreq", "routing.originate", self._on_originate),
            (routing, "forward_data", "routing.forward_data", None),
            (engine, "position_at", "mobility.position", None),
            (engine, "next_leg", "mobility.next_leg", None),
            (engine, "channel_gain", "radio.gain", None),
            (engine, "finalize", "metrics.finalize", None),
            (engine, "generate_initial_placement", "config.placement", None),
            (engine, "generate_flows", "traffic.flows", None),
            (cbrsim, "run_sweep", "cli.run_sweep", None),
            (cli, "write_summary_csv", "cli.summary", None),
            (cli, "format_report", "cli.report", None),
        ]
        for owner, attr, name, hook in boundaries:
            if only is None or name in only:
                self._patch(owner, attr, self.timed(getattr(owner, attr), name, hook))
        if only is None:
            self._patch(sim, "schedule", self._counting_schedule(sim.schedule))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every wrapped attribute."""
        return list(self._patches)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers -------------------------------------------------------------

    def timed(self, fn, name: str, hook):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                callees = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - callees
            if hook is not None:
                hook(args, result, dt)
            return result

        return wrapper

    def _counting_schedule(self, fn):
        counters = self.counters

        def schedule(sim, time, kind, payload):
            counters[kind.value] += 1
            return fn(sim, time, kind, payload)

        return schedule

    # -- hooks: counts read from the values each boundary returns -------------

    def _on_init(self, args, result, dt) -> None:
        self._init_s = dt

    def _on_run(self, args, result, dt) -> None:
        self.cells.append(self._init_s + dt)
        self._depth.clear()

    def _on_enqueue(self, args, result, dt) -> None:
        outcome, evicted = result
        queue = args[0]
        c = self.counters
        if outcome is self._dropped:
            c["queue.drops"] += 1
            return
        c["queue.accepted"] += 1
        if evicted is not None:
            c["queue.drops"] += 1
        elif outcome is self._accepted:
            depth = self._depth.get(queue, 0) + 1
            self._depth[queue] = depth
            if depth > c["queue.depth_peak"]:
                c["queue.depth_peak"] = depth

    def _on_pop(self, args, result, dt) -> None:
        self._depth[args[0]] -= 1

    def _on_hello(self, args, outcome, dt) -> None:
        if outcome.changed:
            self.counters["clustering.role_changes"] += 1

    def _on_expire(self, args, result, dt) -> None:
        self._on_hello(args, result[1], dt)

    def _on_rreq(self, args, result, dt) -> None:
        if result.reply is None and not result.forwards:
            self.counters["routing.rreq_dup"] += 1
        self.counters["routing.rreq_copies"] += len(result.forwards)

    def _on_originate(self, args, result, dt) -> None:
        if result.packets:
            self.counters["routing.discoveries"] += 1
            self.counters["routing.rreq_copies"] += len(result.packets)


def calibrate(calls: int = 100_000, rounds: int = 5) -> float:
    """Host seconds a timed wrapper adds to one call, median over rounds."""

    def noop(x):
        return x

    wrapped = Tracer(None).timed(noop, "calibration", None)
    clock = time.perf_counter
    costs = []
    for _ in range(rounds):
        t0 = clock()
        for i in range(calls):
            noop(i)
        t1 = clock()
        for i in range(calls):
            wrapped(i)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
