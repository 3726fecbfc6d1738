"""Outside-in layer tracing: time the program's public layer functions
by wrapping them from the benchmark's side, without touching ``src/``.

:class:`LayerTracer` swaps each traced method on its class (or function
on its module) for a wrapper that opens a span, calls the original, and
closes the span.  Spans nest, and each layer is charged its *self* time:
the span's duration minus the time covered by its child spans.  Closed
spans are folded into per-layer totals in memory (a saturated run closes
millions of them) and the totals are written out once, by
:meth:`LayerTracer.layers`, after the run.  :meth:`LayerTracer.remove`
puts every original back.

The wrappers only observe: they pass arguments and results through
unchanged, so a traced run simulates exactly what an untraced one does
(``run.py`` checks this by comparing the two runs' digests).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

#: Layers whose calls per task are reported.
PER_TASK_LAYERS = (
    "network.route", "matching.candidates", "rms.price", "rms.plan",
    "scheduling.choose", "virtualizer.plan", "metrics.record",
)


class LayerTracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Child time of each open span; the bottom entry is the root.
        self._stack: list[float] = [0.0]
        self._originals: list[tuple[object, str, object]] = []
        self.candidates_returned = 0
        self.commits = 0
        #: Network.connect/disconnect calls made inside DReAMSim.run
        #: (grid construction during set-up is not counted).
        self.network_writes = 0
        self._in_run = False
        self.events = 0

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _span(self, name: str, fn, after=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        self._replace(owner, attr, self._span(name, getattr(owner, attr), after))

    def install(self, strategy_cls) -> None:
        """Wrap every traced layer; *strategy_cls* is the active
        scheduling strategy's class."""
        import repro.sim.experiment as experiment
        from repro.grid.network import Network
        from repro.grid.rms import ResourceManagementSystem as RMS
        from repro.grid.virtualizer import VirtualizationLayer
        from repro.sim.metrics import MetricsCollector
        from repro.sim.simulator import DReAMSim
        from repro.sim.workload import SyntheticWorkload

        def count_candidates(args, result):
            self.candidates_returned += len(result)

        def count_commit(args, result):
            self.commits += 1

        self._patch(experiment, "build_grid", "experiment.build_grid")
        self._patch(SyntheticWorkload, "generate", "workload.generate")
        self._patch(Network, "transfer_time", "network.route")
        for attr in ("connect", "disconnect"):
            self._count_writes(Network, attr)
        self._patch(RMS, "find_candidates", "matching.candidates", count_candidates)
        self._patch(RMS, "estimate_cost_s", "rms.price")
        self._patch(RMS, "plan_placement", "rms.plan")
        self._patch(RMS, "commit", "rms.lifecycle", count_commit)
        for attr in ("begin_execution", "finish_execution", "abort_placement"):
            self._patch(RMS, attr, "rms.lifecycle")
        self._patch(strategy_cls, "choose", "scheduling.choose")
        self._patch(
            VirtualizationLayer, "plan_rpe_configuration", "virtualizer.plan"
        )
        for attr in sorted(vars(MetricsCollector)):
            if attr.startswith("record_"):
                self._patch(MetricsCollector, attr, "metrics.record")
        self._patch(MetricsCollector, "report", "metrics.report")
        self._patch_run(DReAMSim)

    def _count_writes(self, owner, attr: str) -> None:
        """Count calls of a topology mutator made inside the run; no
        span, so set-up's grid construction stays in build_grid."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._in_run:
                self.network_writes += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def _patch_run(self, sim_cls) -> None:
        """``DReAMSim.run`` is a span that also marks the run for
        :meth:`_count_writes` and reads the engine's event count."""
        traced = self._span("simulator.run", sim_cls.run)

        @functools.wraps(sim_cls.run)
        def run(sim, *args, **kwargs):
            self._in_run = True
            try:
                return traced(sim, *args, **kwargs)
            finally:
                self._in_run = False
                self.events = sim.engine.processed_events

        self._replace(sim_cls, "run", run)

    def exclude(self, duration: float) -> None:
        """Keep *duration* (spent outside the program, inside whatever
        span is open) out of every span's self time."""
        self._stack[-1] += duration

    def remove(self) -> None:
        """Restore every wrapped attribute to its original."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layers(self, *, tasks: int, report, speed: float) -> dict[str, float]:
        """Per-layer metrics of the finished traced run; self times are
        scaled by *speed* to the reference host's speed."""
        calls = self.calls
        self_s = {name: s * speed for name, s in self.self_s.items()}
        routes = calls["network.route"]
        candidates = calls["matching.candidates"]
        plans = calls["rms.plan"]
        out = {
            "network.route.calls": routes,
            "network.writes": self.network_writes,
            "network.writes_per_route": self.network_writes / routes if routes else 0.0,
            "matching.candidates.calls": candidates,
            "matching.candidates.per_call": (
                self.candidates_returned / candidates if candidates else 0.0
            ),
            "rms.price.calls": calls["rms.price"],
            "rms.plan.calls": plans,
            "rms.plan.yield": self.commits / plans if plans else 0.0,
            "rms.lifecycle.calls": calls["rms.lifecycle"],
            "scheduling.choose.calls": calls["scheduling.choose"],
            "virtualizer.plan.calls": calls["virtualizer.plan"],
            "engine.events": self.events,
            "engine.events_per_task": self.events / tasks,
            "metrics.record.calls": calls["metrics.record"],
            "faults.events": report.fault_events,
            "faults.retries": report.retries,
        }
        # simulator.run's self time is the event loop, the dispatch
        # passes and the handlers: DReAMSim.run minus every layer below.
        for name in ("network.route", "matching.candidates", "rms.price",
                     "rms.plan", "rms.lifecycle", "scheduling.choose",
                     "virtualizer.plan", "simulator.run", "metrics.record",
                     "metrics.report", "workload.generate",
                     "experiment.build_grid"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in PER_TASK_LAYERS:
            out[f"{name}.calls_per_task"] = calls[name] / tasks
        return out
