"""Simulation metrics: per-task records, per-resource utilization,
reconfiguration statistics, and aggregate reports.

These are the observables DReAMSim exists to measure: waiting times,
turnaround, how often configuration reuse fires, how much time the grid
burns reconfiguring, and how busy each processing element is under a
given scheduling strategy.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field, fields
from math import isnan

import numpy as np


@dataclass(frozen=True)
class TaskMetrics:
    """Timeline of one task through the simulator: one collector row."""

    key: object
    function: str = ""
    #: Owning tenant label ("" in single-tenant runs).
    tenant: str = ""
    pe_kind: str = ""
    node_id: int | None = None
    resource_index: int | None = None
    slices: int = 0
    arrival: float = 0.0
    dispatch: float | None = None
    start: float | None = None
    finish: float | None = None
    transfer_time: float = 0.0
    synthesis_time: float = 0.0
    reconfig_time: float = 0.0
    reused_configuration: bool = False
    discarded: bool = False
    # --- fault-injection observables (all zero in fault-free runs) ---
    failed: bool = False
    failure_reason: str | None = None
    faults: int = 0
    fell_back_to_gpp: bool = False
    first_fault: float | None = None
    #: Setup/execution seconds thrown away by faults (work that had to
    #: be redone or was abandoned).
    wasted_time_s: float = 0.0
    #: The same waste weighted by the fabric slices it occupied.
    wasted_slice_seconds: float = 0.0
    # --- resilience observables (all zero/None when the layer is off) ---
    #: Worst deadline this task missed: None, "soft", or "hard".
    deadline_missed: str | None = None
    #: A speculative replica finished before the primary.
    speculative_win: bool = False
    # --- overload-protection observables (zero when admission is off) ---
    #: Terminal rejection by the admission controller / load shedder.
    shed: bool = False

    @property
    def wait_time(self) -> float | None:
        """Arrival to dispatch: queueing delay."""
        if self.dispatch is None:
            return None
        return self.dispatch - self.arrival

    @property
    def turnaround(self) -> float | None:
        if self.finish is None:
            return None
        return self.finish - self.arrival


@dataclass
class ResourceUsage:
    """Busy-time accumulator for one PE (or fabric region)."""

    label: str
    busy_s: float = 0.0
    tasks_executed: int = 0

    def utilization(self, horizon_s: float) -> float:
        if horizon_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / horizon_s)


@dataclass
class SimulationReport:
    """Aggregates over a finished run."""

    horizon_s: float
    completed: int
    discarded: int
    pending: int
    mean_wait_s: float
    p95_wait_s: float
    mean_turnaround_s: float
    makespan_s: float
    reconfigurations: int
    total_reconfig_time_s: float
    reuse_hits: int
    reuse_rate: float
    mean_utilization: float
    per_resource_utilization: dict[str, float]
    tasks_by_pe_kind: dict[str, int]
    # --- fault-injection / recovery aggregates (defaults keep stored
    # reports from fault-free runs loadable) ---
    failed: int = 0
    fault_events: int = 0
    retries: int = 0
    gpp_fallbacks: int = 0
    #: Fraction of node-seconds the grid's nodes were up over the run.
    availability: float = 1.0
    #: Mean time to repair: first fault to eventual completion, over
    #: tasks that recovered.
    mttr_s: float = 0.0
    #: Setup/execution seconds lost to faults (redone or abandoned).
    wasted_work_s: float = 0.0
    #: The same waste weighted by occupied fabric slices.
    wasted_slice_seconds: float = 0.0
    #: Completed tasks per second of horizon -- throughput that *only*
    #: counts work that survived the faults.
    goodput_tasks_per_s: float = 0.0
    # --- adaptive-resilience aggregates (defaults keep stored reports
    # from pre-resilience runs loadable) ---
    #: Soft / hard deadline misses counted by the watchdog.
    deadline_soft_misses: int = 0
    deadline_hard_misses: int = 0
    #: Fraction of submitted tasks that missed any deadline.
    deadline_miss_rate: float = 0.0
    #: Circuit-breaker trips (CLOSED -> OPEN episodes) across nodes.
    quarantines: int = 0
    #: Node-seconds spent quarantined (OPEN or HALF_OPEN).
    quarantine_time_s: float = 0.0
    #: Progress checkpoints taken and the execution time they cost.
    checkpoints: int = 0
    checkpoint_overhead_s: float = 0.0
    #: Fault-hit progress preserved by checkpoints instead of redone.
    wasted_work_saved_s: float = 0.0
    #: Checkpoint resumes re-placed after a fault or timeout.
    migrations: int = 0
    #: Speculative replicas: launched, won, and the loser-side waste.
    speculative_launches: int = 0
    speculative_wins: int = 0
    speculative_win_rate: float = 0.0
    speculative_wasted_s: float = 0.0
    # --- latency percentiles (defaults keep stored reports from
    # earlier runs loadable; ``p95_wait_s`` above predates these) ---
    p50_wait_s: float = 0.0
    p99_wait_s: float = 0.0
    p50_turnaround_s: float = 0.0
    p95_turnaround_s: float = 0.0
    p99_turnaround_s: float = 0.0
    # --- overload-protection aggregates (defaults keep stored reports
    # from pre-admission runs loadable) ---
    #: Submissions rejected terminally by admission / load shedding.
    shed: int = 0
    #: Backpressure deferral events (one submission may defer several
    #: times before it is finally admitted or shed).
    admission_deferrals: int = 0
    #: Matchmaking rounds vetoed by the utilization gate.
    placements_gated: int = 0
    #: Low-priority tasks brownout stage 2 forced onto GPP execution.
    brownout_degraded: int = 0
    #: Brownout stage transitions (escalations + recoveries).
    brownout_transitions: int = 0
    brownout_max_stage: int = 0
    #: Simulated seconds spent at any brownout stage > 0.
    brownout_time_s: float = 0.0
    #: Completions per second *while degraded* -- the throughput the
    #: protected system still delivered under overload.
    overload_goodput_tasks_per_s: float = 0.0
    # --- control-plane fault-tolerance aggregates (defaults keep
    # stored reports from pre-failover runs loadable) ---
    #: Primary RMS crashes / gray-failure episodes injected.
    rms_crashes: int = 0
    rms_gray_events: int = 0
    #: Warm-standby promotions that completed.
    failovers: int = 0
    #: Sim seconds the control plane could not make placement
    #: decisions (crash + gray windows, failover takeover included).
    control_plane_downtime_s: float = 0.0
    #: Confirmed failure detections and their death-to-confirm latency.
    detections: int = 0
    detection_latency_p50_s: float = 0.0
    detection_latency_p95_s: float = 0.0
    #: Suspicions that cleared (or confirms that proved wrong) -- the
    #: detector's false-positive count.
    false_suspicions: int = 0
    #: Placements whose lease lapsed while the control plane was dark.
    leases_expired: int = 0
    #: Placements orphaned by control-plane loss -- every one of them
    #: re-queued, so recovered == orphaned (the conservation invariant
    #: extends over failover).
    orphaned_tasks: int = 0
    orphans_recovered: int = 0
    # --- per-tenant aggregates (empty in single-tenant runs; defaults
    # keep stored reports loadable) ---
    #: tenant -> {completed, shed, failed, mean/p50/p95/p99 wait and
    #: turnaround}, tenants in order of first arrival.
    per_tenant: dict[str, dict[str, float]] = field(default_factory=dict)
    # --- SLO monitoring aggregates (zero/empty unless the run armed an
    # ``SLOSpec``; defaults keep stored reports loadable) ---
    #: Objectives the monitor evaluated over the run.
    slo_objectives: int = 0
    #: Breach episodes (begin/end pairs) across all objectives.
    slo_breaches: int = 0
    #: Burn-rate alerts fired and resolved (horizon-close included).
    slo_alerts_fired: int = 0
    slo_alerts_resolved: int = 0
    #: objective name -> fraction of the horizon spent in compliance.
    slo_attainment: dict[str, float] = field(default_factory=dict)
    #: objective name -> error budget left (1 = untouched, 0 = spent).
    slo_error_budget_remaining: dict[str, float] = field(default_factory=dict)
    #: objective name -> sim seconds spent in breach.
    slo_breach_seconds: dict[str, float] = field(default_factory=dict)
    #: Names of objectives that blew their error budget.
    slo_violated: list[str] = field(default_factory=list)
    # --- host-phase profile (empty unless the run was profiled with
    # sim/hostprof.py; defaults keep stored reports loadable) ---
    #: Exclusive host wall seconds per simulator phase (engine pop/push,
    #: matchmaking, dispatch, faults, telemetry, metrics, other).
    host_phase_s: dict[str, float] = field(default_factory=dict)
    host_phase_calls: dict[str, int] = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        """Human-readable report (printed by benches and examples)."""
        lines = [
            f"horizon              {self.horizon_s:10.2f} s",
            f"completed / discarded / pending   {self.completed} / {self.discarded} / {self.pending}",
            f"mean wait            {self.mean_wait_s:10.4f} s   "
            f"(p50 {self.p50_wait_s:.4f}  p95 {self.p95_wait_s:.4f}  p99 {self.p99_wait_s:.4f})",
            f"mean turnaround      {self.mean_turnaround_s:10.4f} s   "
            f"(p50 {self.p50_turnaround_s:.4f}  p95 {self.p95_turnaround_s:.4f}  "
            f"p99 {self.p99_turnaround_s:.4f})",
            f"makespan             {self.makespan_s:10.2f} s",
            f"reconfigurations     {self.reconfigurations:6d}  ({self.total_reconfig_time_s:.3f} s total)",
            f"configuration reuse  {self.reuse_hits:6d}  (rate {self.reuse_rate:.2%})",
            f"mean PE utilization  {self.mean_utilization:10.2%}",
            "tasks by PE kind     "
            + ", ".join(f"{k}: {v}" for k, v in sorted(self.tasks_by_pe_kind.items())),
        ]
        if self.fault_events or self.failed:
            lines += [
                f"faults / retries / fallbacks   {self.fault_events} / {self.retries} / {self.gpp_fallbacks}",
                f"failed tasks         {self.failed:6d}",
                f"availability         {self.availability:10.2%}",
                f"MTTR                 {self.mttr_s:10.4f} s",
                f"wasted work          {self.wasted_work_s:10.4f} s   ({self.wasted_slice_seconds:.1f} slice-s)",
                f"goodput              {self.goodput_tasks_per_s:10.4f} tasks/s",
            ]
        if (
            self.deadline_soft_misses
            or self.deadline_hard_misses
            or self.quarantines
            or self.checkpoints
            or self.speculative_launches
        ):
            lines += [
                f"deadline misses      soft {self.deadline_soft_misses} / "
                f"hard {self.deadline_hard_misses}   (miss rate {self.deadline_miss_rate:.2%})",
                f"quarantines          {self.quarantines:6d}  ({self.quarantine_time_s:.2f} node-s)",
                f"checkpoints          {self.checkpoints:6d}  "
                f"(overhead {self.checkpoint_overhead_s:.3f} s, saved {self.wasted_work_saved_s:.3f} s)",
                f"migrations           {self.migrations:6d}",
                f"speculation          {self.speculative_launches} launched / "
                f"{self.speculative_wins} won  (win rate {self.speculative_win_rate:.2%}, "
                f"wasted {self.speculative_wasted_s:.3f} s)",
            ]
        if (
            self.shed
            or self.admission_deferrals
            or self.placements_gated
            or self.brownout_transitions
        ):
            lines += [
                f"overload protection  shed {self.shed} / deferred "
                f"{self.admission_deferrals} / gated {self.placements_gated}",
                f"brownout             {self.brownout_transitions} transitions  "
                f"(max stage {self.brownout_max_stage}, "
                f"{self.brownout_time_s:.2f} s degraded, "
                f"{self.brownout_degraded} forced to GPP)",
                f"goodput (degraded)   {self.overload_goodput_tasks_per_s:10.4f} tasks/s",
            ]
        if self.rms_crashes or self.rms_gray_events or self.detections or self.orphaned_tasks:
            lines += [
                f"control plane        {self.rms_crashes} crashes / "
                f"{self.rms_gray_events} gray  "
                f"({self.control_plane_downtime_s:.2f} s dark, "
                f"{self.failovers} failovers)",
                f"detection latency    p50 {self.detection_latency_p50_s:.3f} s  "
                f"p95 {self.detection_latency_p95_s:.3f} s  "
                f"({self.detections} confirmed, "
                f"{self.false_suspicions} false suspicions)",
                f"orphans              {self.orphaned_tasks} orphaned / "
                f"{self.orphans_recovered} recovered  "
                f"({self.leases_expired} leases expired)",
            ]
        for name, row in self.per_tenant.items():
            lines.append(
                f"tenant {name:<14s}{int(row['completed'])} done / "
                f"{int(row['shed'])} shed / {int(row['failed'])} failed   "
                f"(p95 wait {row['p95_wait_s']:.4f} s, "
                f"p95 turnaround {row['p95_turnaround_s']:.4f} s)"
            )
        if self.slo_objectives:
            lines.append(
                f"SLO                  {self.slo_objectives} objectives / "
                f"{len(self.slo_violated)} violated   "
                f"({self.slo_breaches} breaches, "
                f"{self.slo_alerts_fired} alerts fired / "
                f"{self.slo_alerts_resolved} resolved)"
            )
            for name, attainment in self.slo_attainment.items():
                budget = self.slo_error_budget_remaining.get(name, 0.0)
                verdict = "VIOLATED" if name in self.slo_violated else "ok"
                lines.append(
                    f"  {name:<32s} attainment {attainment:8.2%}  "
                    f"budget left {budget:7.2%}  {verdict}"
                )
        if self.host_phase_s:
            total = sum(self.host_phase_s.values())
            parts = ", ".join(
                f"{phase} {seconds / total:.1%}" if total > 0 else phase
                for phase, seconds in self.host_phase_s.items()
            )
            lines.append(
                f"host phases          {total:.3f} s wall  ({parts})"
            )
        return lines


#: Layout version of ``repro simulate --report-json`` dumps.
REPORT_DUMP_FORMAT = 1


def report_dump(spec, report: SimulationReport, *, energy=None) -> dict:
    """A self-describing JSON document for one finished run.

    Carries the full spec, the report, and a provenance stamp so
    ``repro diff`` can compare two dumps -- or refuse, when the stamps
    show the runs are not comparable.
    """
    from dataclasses import asdict

    from repro.provenance import run_provenance

    return {
        "format": REPORT_DUMP_FORMAT,
        "kind": "report-dump",
        "provenance": run_provenance(spec),
        "spec": asdict(spec),
        "report": asdict(report),
        "energy": asdict(energy) if energy is not None else None,
    }


def write_report_dump(path, spec, report: SimulationReport, *, energy=None) -> None:
    """Persist a :func:`report_dump` document (``repro diff`` input)."""
    import json
    from pathlib import Path

    Path(path).write_text(
        json.dumps(report_dump(spec, report, energy=energy),
                   indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )



def _tenant_row(
    *,
    completed: int,
    shed: int,
    failed: int,
    waits: np.ndarray,
    turnarounds: np.ndarray,
) -> dict[str, float]:
    """One tenant's aggregate row of :attr:`SimulationReport.per_tenant`."""
    return {
        "completed": completed,
        "shed": shed,
        "failed": failed,
        "mean_wait_s": float(waits.mean()) if waits.size else 0.0,
        "p50_wait_s": float(np.percentile(waits, 50)) if waits.size else 0.0,
        "p95_wait_s": float(np.percentile(waits, 95)) if waits.size else 0.0,
        "p99_wait_s": float(np.percentile(waits, 99)) if waits.size else 0.0,
        "mean_turnaround_s": (
            float(turnarounds.mean()) if turnarounds.size else 0.0
        ),
        "p50_turnaround_s": (
            float(np.percentile(turnarounds, 50)) if turnarounds.size else 0.0
        ),
        "p95_turnaround_s": (
            float(np.percentile(turnarounds, 95)) if turnarounds.size else 0.0
        ),
        "p99_turnaround_s": (
            float(np.percentile(turnarounds, 99)) if turnarounds.size else 0.0
        ),
    }


_NAN = float("nan")

#: One growable column per :class:`TaskMetrics` field: the ``array``
#: typecode and the value a row holds until a record sets it.  NaN, and
#: -1 in an ``"i"`` column, mean "unset" and read back as the field's
#: default.  ``"b"`` columns are flags; the str fields hold int32 codes
#: into the collector's interning tables.
_COLUMNS: dict[str, tuple[str, float]] = {
    "function": ("i", -1),
    "tenant": ("i", -1),
    "pe_kind": ("i", -1),
    "node_id": ("i", -1),
    "resource_index": ("i", -1),
    "slices": ("i", 0),
    "arrival": ("d", 0.0),
    "dispatch": ("d", _NAN),
    "start": ("d", _NAN),
    "finish": ("d", _NAN),
    "transfer_time": ("d", 0.0),
    "synthesis_time": ("d", 0.0),
    "reconfig_time": ("d", 0.0),
    "reused_configuration": ("b", 0),
    "discarded": ("b", 0),
    "failed": ("b", 0),
    "failure_reason": ("i", -1),
    "faults": ("i", 0),
    "fell_back_to_gpp": ("b", 0),
    "first_fault": ("d", _NAN),
    "wasted_time_s": ("d", 0.0),
    "wasted_slice_seconds": ("d", 0.0),
    "deadline_missed": ("i", -1),
    "speculative_win": ("b", 0),
    "shed": ("b", 0),
}
_STRING_FIELDS = ("function", "tenant", "pe_kind", "failure_reason", "deadline_missed")
_DEFAULTS = {f.name: f.default for f in fields(TaskMetrics)}


class _Strings:
    """Interning table of one str column: codes in order of first use."""

    __slots__ = ("codes", "names")

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}
        self.names: list[str] = []

    def code(self, name: str) -> int:
        code = self.codes.get(name)
        if code is None:
            code = self.codes[name] = len(self.names)
            self.names.append(name)
        return code


class _Columns(dict):
    """Column name -> growable ``array``.  A column is created on its
    first use, one unset value per existing row, so a field that no
    record sets (the fault fields of a fault-free run, the tenant of a
    single-tenant one) costs no memory."""

    def __init__(self) -> None:
        super().__init__()
        self.rows = 0
        self._blank_row: list[tuple[Callable[[float], None], float]] = []

    def __missing__(self, name: str) -> array:
        typecode, fill = _COLUMNS[name]
        column = self[name] = array(typecode, [fill]) * self.rows
        self._blank_row.append((column.append, fill))
        return column

    def append_row(self) -> int:
        """Append one row of unset values; returns its index."""
        for append, fill in self._blank_row:
            append(fill)
        self.rows += 1
        return self.rows - 1


class _TaskTable(Mapping):
    """Read-only view of a collector's rows: key -> :class:`TaskMetrics`,
    in arrival order.  Each lookup builds the row from the columns."""

    __slots__ = ("_collector",)

    def __init__(self, collector: "MetricsCollector") -> None:
        self._collector = collector

    def __getitem__(self, key: object) -> TaskMetrics:
        return self._collector._row(key, self._collector._index[key])

    def __contains__(self, key: object) -> bool:
        return key in self._collector._index

    def __iter__(self) -> Iterator[object]:
        return iter(self._collector._index)

    def __len__(self) -> int:
        return len(self._collector._index)


class MetricsCollector:
    """Accumulates task and resource records during a run.

    Each task is one row of growable ``array`` columns: about 80 bytes
    in a fault-free run, 120 with every column in use, so a
    million-task run stays small.  :attr:`tasks` reads the rows back as
    :class:`TaskMetrics`, and :meth:`report` aggregates the columns with
    numpy.
    """

    def __init__(self) -> None:
        #: key -> row, in arrival order.
        self._index: dict[object, int] = {}
        self._columns = _Columns()
        self._strings = {name: _Strings() for name in _STRING_FIELDS}
        self.tasks: Mapping[object, TaskMetrics] = _TaskTable(self)
        self.resources: dict[str, ResourceUsage] = {}
        #: Node ids ever part of the grid (denominator of availability).
        self.known_nodes: set[int] = set()
        #: node_id -> time it went down (open downtime window).
        self._down_since: dict[int, float] = {}
        #: node_id -> accumulated downtime of closed windows.
        self._downtime: dict[int, float] = {}
        self.fault_events = 0
        self.retry_events = 0
        self.fallback_events = 0
        # --- adaptive-resilience counters ---
        self.deadline_soft_misses = 0
        self.deadline_hard_misses = 0
        self.checkpoint_events = 0
        self.checkpoint_overhead_s = 0.0
        self.wasted_work_saved_s = 0.0
        self.migration_events = 0
        self.speculative_launches = 0
        self.speculative_wins = 0
        self.speculative_wasted_s = 0.0
        #: Pushed by the simulator from its HealthTracker at report time.
        self.quarantines = 0
        self.quarantine_time_s = 0.0
        # --- overload-protection counters ---
        self.shed_events = 0
        self.defer_events = 0
        self.brownout_degraded = 0
        #: Pushed by the simulator from its AdmissionController at
        #: report time (see :meth:`record_admission_stats`).
        self.placements_gated = 0
        self.brownout_transitions = 0
        self.brownout_max_stage = 0
        self.brownout_time_s = 0.0
        self.brownout_completions = 0
        # --- control-plane fault-tolerance counters ---
        self.orphan_events = 0
        #: Pushed by the simulator from its ReplicatedRMS wrapper and
        #: heartbeat bookkeeping at report time
        #: (see :meth:`record_failover_stats`).
        self.rms_crashes = 0
        self.rms_gray_events = 0
        self.failovers = 0
        self.control_plane_downtime_s = 0.0
        self.detections = 0
        self.detection_latency_p50_s = 0.0
        self.detection_latency_p95_s = 0.0
        self.false_suspicions = 0
        self.leases_expired = 0
        # --- SLO monitoring results ---
        #: Pushed by the simulator from its SLOMonitor at report time
        #: (see :meth:`record_slo_stats`); ``SLOResult``-shaped objects.
        self.slo_results: list = []

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def _row(self, key: object, i: int) -> TaskMetrics:
        row = {}  # fields without a column keep their defaults
        for name, column in self._columns.items():
            value = column[i]
            if value != value or (value == -1 and column.typecode == "i"):
                row[name] = _DEFAULTS[name]
            elif name in self._strings:
                row[name] = self._strings[name].names[value]
            elif column.typecode == "b":
                row[name] = bool(value)
            else:
                row[name] = value
        return TaskMetrics(key=key, **row)

    def time_of(
        self, key: object, event: str, default: float | None = None
    ) -> float | None:
        """``tasks[key].<event>`` for a timestamp field (``arrival``,
        ``dispatch``, ``start``, ``finish``, ``first_fault``) without
        building the row; *default* until the event happens."""
        i = self._index[key]
        column = self._columns.get(event)
        time = _NAN if column is None else column[i]
        return default if isnan(time) else time

    # ------------------------------------------------------------------
    # Recording (called by the simulator)
    # ------------------------------------------------------------------
    def record_arrival(
        self, key: object, time: float, function: str = "", tenant: str = ""
    ) -> None:
        if key in self._index:
            raise ValueError(f"duplicate task key {key!r}")
        columns = self._columns
        i = columns.append_row()
        columns["arrival"][i] = time
        columns["function"][i] = self._strings["function"].code(function)
        if tenant:
            columns["tenant"][i] = self._strings["tenant"].code(tenant)
        # Indexed only once the row is written.
        self._index[key] = i

    def record_dispatch(
        self,
        key: object,
        time: float,
        *,
        pe_kind: str,
        node_id: int,
        transfer_time: float,
        synthesis_time: float,
        reconfig_time: float,
        reused: bool,
        resource_index: int | None = None,
        slices: int = 0,
    ) -> None:
        i = self._index[key]
        columns = self._columns
        columns["dispatch"][i] = time
        columns["pe_kind"][i] = self._strings["pe_kind"].code(pe_kind)
        columns["node_id"][i] = node_id
        columns["resource_index"][i] = -1 if resource_index is None else resource_index
        columns["slices"][i] = slices
        columns["transfer_time"][i] = transfer_time
        columns["synthesis_time"][i] = synthesis_time
        columns["reconfig_time"][i] = reconfig_time
        columns["reused_configuration"][i] = reused

    def record_start(self, key: object, time: float) -> None:
        self._columns["start"][self._index[key]] = time

    def record_finish(self, key: object, time: float, resource_label: str) -> None:
        i = self._index[key]
        self._columns["finish"][i] = time
        usage = self.resources.setdefault(resource_label, ResourceUsage(resource_label))
        start = self._columns["start"][i]
        if not isnan(start):
            usage.busy_s += time - start
        usage.tasks_executed += 1

    def record_discard(self, key: object, time: float) -> None:
        self._columns["discarded"][self._index[key]] = True

    # ------------------------------------------------------------------
    # Fault-injection recording
    # ------------------------------------------------------------------
    def record_fault(
        self,
        key: object,
        time: float,
        *,
        reason: str,
        wasted_time_s: float = 0.0,
        wasted_slice_seconds: float = 0.0,
    ) -> None:
        i = self._index[key]
        columns = self._columns
        columns["faults"][i] += 1
        if isnan(columns["first_fault"][i]):
            columns["first_fault"][i] = time
        columns["failure_reason"][i] = self._strings["failure_reason"].code(reason)
        columns["wasted_time_s"][i] += wasted_time_s
        columns["wasted_slice_seconds"][i] += wasted_slice_seconds
        self.fault_events += 1

    def record_retry(self, key: object, time: float) -> None:
        self.retry_events += 1

    def record_fallback(self, key: object, time: float) -> None:
        self._columns["fell_back_to_gpp"][self._index[key]] = True
        self.fallback_events += 1

    def record_failed(self, key: object, time: float, *, reason: str) -> None:
        i = self._index[key]
        self._columns["failed"][i] = True
        self._columns["failure_reason"][i] = self._strings["failure_reason"].code(reason)

    # ------------------------------------------------------------------
    # Adaptive-resilience recording
    # ------------------------------------------------------------------
    def record_deadline_miss(self, key: object, time: float, *, hard: bool) -> None:
        """A hard miss overrides a soft one; a soft one never overrides
        a hard one."""
        i = self._index[key]
        missed = self._columns["deadline_missed"]
        if hard:
            missed[i] = self._strings["deadline_missed"].code("hard")
            self.deadline_hard_misses += 1
        else:
            if missed[i] == -1:
                missed[i] = self._strings["deadline_missed"].code("soft")
            self.deadline_soft_misses += 1

    def record_wasted(
        self, key: object, time: float, *, wasted_time_s: float,
        wasted_slice_seconds: float,
    ) -> None:
        """Waste from a non-fault teardown (a watchdog cancellation)."""
        i = self._index[key]
        self._columns["wasted_time_s"][i] += wasted_time_s
        self._columns["wasted_slice_seconds"][i] += wasted_slice_seconds

    def record_checkpoint(self, key: object, time: float, *, overhead_s: float) -> None:
        self.checkpoint_events += 1
        self.checkpoint_overhead_s += overhead_s

    def record_checkpoint_restore(self, key: object, saved_s: float) -> None:
        """A fault/timeout destroyed a placement but *saved_s* seconds
        of its progress survived in the last checkpoint."""
        self.wasted_work_saved_s += saved_s

    def record_migration(self, key: object, time: float) -> None:
        self.migration_events += 1

    def record_speculation(self, key: object, time: float) -> None:
        self.speculative_launches += 1

    def record_speculation_result(
        self,
        key: object,
        time: float,
        *,
        win: bool,
        wasted_s: float,
        node_id: int | None = None,
        resource_index: int | None = None,
    ) -> None:
        """First finisher decided: *win* means the replica beat the
        primary; *wasted_s* is the loser's burned placement time.  On a
        win the task's placement attribution moves to the replica's
        node/resource (where it actually completed)."""
        if win:
            i = self._index[key]
            columns = self._columns
            columns["speculative_win"][i] = True
            if node_id is not None:
                columns["node_id"][i] = node_id
                columns["resource_index"][i] = (
                    -1 if resource_index is None else resource_index
                )
            self.speculative_wins += 1
        self.speculative_wasted_s += max(0.0, wasted_s)

    def record_orphan(
        self,
        key: object,
        time: float,
        *,
        wasted_time_s: float = 0.0,
        wasted_slice_seconds: float = 0.0,
    ) -> None:
        """A control-plane loss orphaned this task's placement and the
        recovery path re-queued it (:mod:`repro.sim.failover`).  Not a
        fault: the node did nothing wrong and no retry budget burns."""
        self.record_wasted(
            key,
            time,
            wasted_time_s=wasted_time_s,
            wasted_slice_seconds=wasted_slice_seconds,
        )
        self.orphan_events += 1

    def record_failover_stats(
        self,
        *,
        rms_crashes: int,
        rms_gray: int,
        failovers: int,
        downtime_s: float,
        detection_latencies: list[float],
        false_suspicions: int,
        leases_expired: int,
    ) -> None:
        """Pushed once by the simulator (from its ReplicatedRMS wrapper
        and heartbeat bookkeeping) just before the report is built."""
        self.rms_crashes = rms_crashes
        self.rms_gray_events = rms_gray
        self.failovers = failovers
        self.control_plane_downtime_s = downtime_s
        self.detections = len(detection_latencies)
        if detection_latencies:
            latencies = np.asarray(detection_latencies, dtype=float)
            self.detection_latency_p50_s = float(np.percentile(latencies, 50))
            self.detection_latency_p95_s = float(np.percentile(latencies, 95))
        self.false_suspicions = false_suspicions
        self.leases_expired = leases_expired

    def record_quarantine_stats(self, *, episodes: int, total_s: float) -> None:
        """Pushed once by the simulator (from its HealthTracker) just
        before the report is built."""
        self.quarantines = episodes
        self.quarantine_time_s = total_s

    # ------------------------------------------------------------------
    # Overload-protection recording
    # ------------------------------------------------------------------
    def record_shed(self, key: object, time: float, *, reason: str) -> None:
        """Terminal rejection by admission control or load shedding.
        Deliberately does *not* mark the task discarded: ``discarded``
        keeps counting only age-based queue discards."""
        self._columns["shed"][self._index[key]] = True
        self.shed_events += 1

    def record_defer(self, key: object, time: float) -> None:
        self.defer_events += 1

    def record_degrade(self, key: object, time: float) -> None:
        self.brownout_degraded += 1

    def record_admission_stats(
        self,
        *,
        gated: int,
        transitions: int,
        max_stage: int,
        brownout_time_s: float,
        brownout_completions: int,
    ) -> None:
        """Pushed once by the simulator (from its AdmissionController)
        just before the report is built."""
        self.placements_gated = gated
        self.brownout_transitions = transitions
        self.brownout_max_stage = max_stage
        self.brownout_time_s = brownout_time_s
        self.brownout_completions = brownout_completions

    # ------------------------------------------------------------------
    # SLO monitoring recording
    # ------------------------------------------------------------------
    def record_slo_stats(self, results: list) -> None:
        """Pushed once by the simulator (from its finalized SLOMonitor)
        just before the report is built.  *results* are
        :class:`repro.sim.slo.SLOResult` instances."""
        self.slo_results = list(results)

    # ------------------------------------------------------------------
    # Node availability windows
    # ------------------------------------------------------------------
    def register_node(self, node_id: int) -> None:
        self.known_nodes.add(node_id)

    def record_node_down(self, node_id: int, time: float) -> None:
        self.known_nodes.add(node_id)
        self._down_since.setdefault(node_id, time)

    def record_node_up(self, node_id: int, time: float) -> None:
        since = self._down_since.pop(node_id, None)
        if since is not None:
            self._downtime[node_id] = self._downtime.get(node_id, 0.0) + (time - since)


    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, horizon_s: float) -> SimulationReport:
        # Zero-copy numpy views of the columns (a column never created
        # reads as its unset value in every row); every aggregate is
        # taken in row (arrival) order.  Counting goes through
        # count_nonzero, Counter and array.count rather than further
        # numpy kernels: each kernel's first use adds to a small run's
        # resident memory.
        n = len(self._index)
        col = {}
        for name, (typecode, fill) in _COLUMNS.items():
            dtype = bool if typecode == "b" else typecode
            column = self._columns.get(name)
            col[name] = (
                np.frombuffer(column, dtype=dtype)
                if column is not None
                else np.broadcast_to(np.array(fill, dtype=dtype), n)
            )
        arrival, dispatch, finish = col["arrival"], col["dispatch"], col["finish"]
        discarded, failed, shed = col["discarded"], col["failed"], col["shed"]
        finished = ~np.isnan(finish)
        pending = ~finished & ~discarded & ~failed & ~shed
        dispatched = ~np.isnan(dispatch)
        all_waits = dispatch - arrival
        all_turnarounds = finish - arrival
        waits = all_waits[finished & dispatched]
        turnarounds = all_turnarounds[finished]
        reconfig_times = col["reconfig_time"][finished]
        reconfig_times = reconfig_times[reconfig_times.nonzero()]
        reuse_hits = int(np.count_nonzero(finished & col["reused_configuration"]))
        utilizations = {
            label: usage.utilization(horizon_s) for label, usage in self.resources.items()
        }
        # By-kind counts in order of first finished appearance.
        kind_counts = Counter(col["pe_kind"][finished].tolist())
        kinds = self._strings["pe_kind"]
        by_kind = {
            kinds.names[code] if code >= 0 else "": count
            for code, count in kind_counts.items()
        }
        hw_tasks = kind_counts.get(kinds.codes.get("RPE"), 0)
        # Recovery aggregates.  Downtime windows still open at the
        # horizon (a node that never rejoined) are closed against it.
        downtime = dict(self._downtime)
        for node_id, since in self._down_since.items():
            downtime[node_id] = downtime.get(node_id, 0.0) + max(
                0.0, horizon_s - since
            )
        node_seconds = len(self.known_nodes) * horizon_s
        availability = (
            max(0.0, 1.0 - sum(downtime.values()) / node_seconds)
            if node_seconds > 0
            else 1.0
        )
        first_fault = col["first_fault"]
        repairs = (finish - first_fault)[finished & ~np.isnan(first_fault)]
        completed = int(np.count_nonzero(finished))
        # Per-tenant aggregates, tenants in order of first arrival (the
        # order of their codes).  A stable sort groups each tenant's
        # rows and keeps them in arrival order.
        per_tenant: dict[str, dict[str, float]] = {}
        tenant_names = self._strings["tenant"].names
        if tenant_names:
            tenants = col["tenant"]
            order = np.argsort(tenants, kind="stable")
            edges = np.searchsorted(tenants[order], np.arange(len(tenant_names) + 1))
            for code, name in enumerate(tenant_names):
                rows = order[edges[code]:edges[code + 1]]
                done = rows[finished[rows]]
                per_tenant[name] = _tenant_row(
                    completed=len(done),
                    shed=int(np.count_nonzero(shed[rows])),
                    failed=int(np.count_nonzero(failed[rows])),
                    waits=all_waits[done[dispatched[done]]],
                    turnarounds=all_turnarounds[done],
                )
        slo = self.slo_results
        return SimulationReport(
            horizon_s=horizon_s,
            completed=completed,
            discarded=int(np.count_nonzero(discarded)),
            pending=int(np.count_nonzero(pending)),
            mean_wait_s=float(waits.mean()) if waits.size else 0.0,
            p95_wait_s=float(np.percentile(waits, 95)) if waits.size else 0.0,
            p50_wait_s=float(np.percentile(waits, 50)) if waits.size else 0.0,
            p99_wait_s=float(np.percentile(waits, 99)) if waits.size else 0.0,
            mean_turnaround_s=float(turnarounds.mean()) if turnarounds.size else 0.0,
            p50_turnaround_s=(
                float(np.percentile(turnarounds, 50)) if turnarounds.size else 0.0
            ),
            p95_turnaround_s=(
                float(np.percentile(turnarounds, 95)) if turnarounds.size else 0.0
            ),
            p99_turnaround_s=(
                float(np.percentile(turnarounds, 99)) if turnarounds.size else 0.0
            ),
            makespan_s=float(finish[finished].max()) if completed else 0.0,
            reconfigurations=len(reconfig_times),
            # Python left-fold sums: numpy's pairwise summation rounds
            # differently.
            total_reconfig_time_s=sum(reconfig_times.tolist()),
            reuse_hits=reuse_hits,
            reuse_rate=reuse_hits / hw_tasks if hw_tasks else 0.0,
            mean_utilization=(
                float(np.mean(list(utilizations.values()))) if utilizations else 0.0
            ),
            per_resource_utilization=utilizations,
            tasks_by_pe_kind=by_kind,
            failed=int(np.count_nonzero(failed)),
            fault_events=self.fault_events,
            retries=self.retry_events,
            gpp_fallbacks=self.fallback_events,
            availability=availability,
            mttr_s=float(repairs.mean()) if repairs.size else 0.0,
            wasted_work_s=self._total("wasted_time_s"),
            wasted_slice_seconds=self._total("wasted_slice_seconds"),
            goodput_tasks_per_s=completed / horizon_s if horizon_s > 0 else 0.0,
            deadline_soft_misses=self.deadline_soft_misses,
            deadline_hard_misses=self.deadline_hard_misses,
            deadline_miss_rate=(
                (n - self._columns["deadline_missed"].count(-1)) / n
                if "deadline_missed" in self._columns
                else 0.0
            ),
            quarantines=self.quarantines,
            quarantine_time_s=self.quarantine_time_s,
            checkpoints=self.checkpoint_events,
            checkpoint_overhead_s=self.checkpoint_overhead_s,
            wasted_work_saved_s=self.wasted_work_saved_s,
            migrations=self.migration_events,
            speculative_launches=self.speculative_launches,
            speculative_wins=self.speculative_wins,
            speculative_win_rate=(
                self.speculative_wins / self.speculative_launches
                if self.speculative_launches
                else 0.0
            ),
            speculative_wasted_s=self.speculative_wasted_s,
            shed=int(np.count_nonzero(shed)),
            admission_deferrals=self.defer_events,
            placements_gated=self.placements_gated,
            brownout_degraded=self.brownout_degraded,
            brownout_transitions=self.brownout_transitions,
            brownout_max_stage=self.brownout_max_stage,
            brownout_time_s=self.brownout_time_s,
            overload_goodput_tasks_per_s=(
                self.brownout_completions / self.brownout_time_s
                if self.brownout_time_s > 0
                else 0.0
            ),
            rms_crashes=self.rms_crashes,
            rms_gray_events=self.rms_gray_events,
            failovers=self.failovers,
            control_plane_downtime_s=self.control_plane_downtime_s,
            detections=self.detections,
            detection_latency_p50_s=self.detection_latency_p50_s,
            detection_latency_p95_s=self.detection_latency_p95_s,
            false_suspicions=self.false_suspicions,
            leases_expired=self.leases_expired,
            orphaned_tasks=self.orphan_events,
            orphans_recovered=self.orphan_events,
            per_tenant=per_tenant,
            slo_objectives=len(slo),
            slo_breaches=sum(r.breach_count for r in slo),
            slo_alerts_fired=sum(r.alerts_fired for r in slo),
            slo_alerts_resolved=sum(r.alerts_resolved for r in slo),
            slo_attainment={r.name: r.attainment for r in slo},
            slo_error_budget_remaining={r.name: r.error_budget_remaining for r in slo},
            slo_breach_seconds={r.name: r.breach_seconds for r in slo},
            slo_violated=[r.name for r in slo if r.violated],
        )

    def _total(self, name: str) -> float:
        """Left-fold sum of a float column in row order: 0 with no rows,
        0.0 when no record wrote the column."""
        column = self._columns.get(name)
        if column is None:
            return 0.0 if self._index else 0
        return sum(column)
