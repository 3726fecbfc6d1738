"""Host-phase profiler: where the *simulator process* spends wall time.

The causal ledger in :mod:`repro.sim.analysis` explains simulated time;
this module explains host time -- which simulator phase (event-engine
pop/push, matchmaking, dispatch bookkeeping, fault injection, telemetry
sampling, metrics reduction) burns the wall-clock at 1e6 tasks.  That
is the evidence ROADMAP item 1's "vectorize dispatch/matchmaking"
follow-up needs, so the ``sim-scale-1e5`` bench case records the
matchmaking/dispatch share through this profiler.

Design constraints, in order:

* **Zero cost when disabled.**  The simulator holds ``hostprof=None``
  by default and every instrumentation site is a single ``is not
  None`` check; the golden traces stay byte-identical either way (the
  profiler never touches simulated state, only ``perf_counter_ns``).
* **Self-time scopes.**  Scopes nest (dispatch calls matchmaking);
  entering a child charges the elapsed slice to the parent, so phase
  seconds are exclusive self-time and sum to the profiled span.
  ``DReAMSim.run`` opens one ``engine`` scope per run around the whole
  event loop, so ``engine`` keeps the pop/push and handler glue that
  no nested scope takes back, and its call count is 1 per run.
* **Cheap.**  ``enter``/``leave`` are two dict updates and one
  ``perf_counter_ns`` call each -- the enabled overhead budget is <5%
  wall on the quick bench suite.
"""

from __future__ import annotations

from time import perf_counter_ns

#: Canonical phase order for tables and dashboards.  ``other`` is the
#: remainder of the profiled span not inside any scope (Python-side
#: glue between events).
HOST_PHASES = (
    "engine", "matchmaking", "dispatch", "faults", "telemetry", "metrics",
    "other",
)


class HostPhaseProfiler:
    """Accumulates exclusive self-time per named simulator phase."""

    __slots__ = ("_ns", "_calls", "_stack", "_mark", "_open")

    def __init__(self) -> None:
        self._ns: dict[str, int] = {}
        self._calls: dict[str, int] = {}
        self._stack: list[str] = []
        self._mark: int = 0
        self._open = False

    # -- scope protocol -------------------------------------------------
    def start(self) -> None:
        """Open the profiled span; unscoped time becomes ``other``."""
        self._mark = perf_counter_ns()
        self._open = True

    def stop(self) -> None:
        """Close the span, charging the trailing slice."""
        if not self._open:
            return
        self._charge(perf_counter_ns())
        self._open = False

    def enter(self, phase: str) -> None:
        """Begin *phase*; the elapsed slice goes to the enclosing scope."""
        now = perf_counter_ns()
        if self._open:
            self._charge(now)
        else:
            self._mark = now
            self._open = True
        self._stack.append(phase)
        self._calls[phase] = self._calls.get(phase, 0) + 1

    def leave(self) -> None:
        """End the innermost scope, charging its trailing slice."""
        now = perf_counter_ns()
        self._charge(now)
        if self._stack:
            self._stack.pop()

    def _charge(self, now: int) -> None:
        phase = self._stack[-1] if self._stack else "other"
        self._ns[phase] = self._ns.get(phase, 0) + (now - self._mark)
        self._mark = now

    # -- results --------------------------------------------------------
    def phase_seconds(self) -> dict[str, float]:
        """Exclusive seconds per phase, canonical order first."""
        out = {p: self._ns[p] / 1e9 for p in HOST_PHASES if p in self._ns}
        for phase in sorted(self._ns):
            if phase not in out:
                out[phase] = self._ns[phase] / 1e9
        return out

    def call_counts(self) -> dict[str, int]:
        return dict(sorted(self._calls.items()))

    def total_seconds(self) -> float:
        return sum(self._ns.values()) / 1e9

    def phase_share(self) -> dict[str, float]:
        """Fraction of the profiled span per phase (sums to 1)."""
        total_s = self.total_seconds()
        if total_s <= 0:
            return {}
        return {p: s / total_s for p, s in self.phase_seconds().items()}

    def table(self) -> str:
        """ASCII phase table for ``repro simulate --profile-host``."""
        from repro.report import ascii_table

        seconds = self.phase_seconds()
        total = sum(seconds.values())
        rows = [
            (
                phase,
                f"{s:.4f}",
                f"{s / total:.1%}" if total > 0 else "-",
                self._calls.get(phase, 0),
            )
            for phase, s in seconds.items()
        ]
        rows.append(("total", f"{total:.4f}", "100.0%" if total > 0 else "-",
                     sum(self._calls.values())))
        return ascii_table(
            ["phase", "host s", "share", "calls"], rows,
            title="Host-phase profile (exclusive wall time)",
        )
