"""Unit tests for the simulation metrics collector."""

import hashlib
import json
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from repro.sim.metrics import MetricsCollector, ResourceUsage, TaskMetrics

#: Reports, energy reports and row digests recorded from the collector
#: before it stored its rows in columns.
REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "metrics_reference.json")
    .read_text(encoding="ascii")
)

#: Every field a row exposes, in digest order.
ROW_FIELDS = (
    "key", "function", "tenant", "pe_kind", "node_id", "resource_index",
    "slices", "arrival", "dispatch", "start", "finish", "transfer_time",
    "synthesis_time", "reconfig_time", "reused_configuration", "discarded",
    "failed", "failure_reason", "faults", "fell_back_to_gpp",
    "speculative_win", "shed", "deadline_missed", "first_fault",
    "wasted_time_s", "wasted_slice_seconds", "wait_time", "turnaround",
)


def record_one(collector, key, *, arrival, dispatch, start, finish, reconfig=0.0, reused=False):
    collector.record_arrival(key, arrival)
    collector.record_dispatch(
        key,
        dispatch,
        pe_kind="RPE",
        node_id=0,
        transfer_time=0.1,
        synthesis_time=0.0,
        reconfig_time=reconfig,
        reused=reused,
    )
    collector.record_start(key, start)
    collector.record_finish(key, finish, "node0:RPE0")


class TestTaskMetrics:
    def test_derived_times(self):
        tm = TaskMetrics(key=1, arrival=1.0, dispatch=3.0, finish=10.0)
        assert tm.wait_time == 2.0
        assert tm.turnaround == 9.0

    def test_undefined_until_events_happen(self):
        tm = TaskMetrics(key=1, arrival=1.0)
        assert tm.wait_time is None
        assert tm.turnaround is None


class TestResourceUsage:
    def test_utilization_clamped(self):
        usage = ResourceUsage("r", busy_s=15.0)
        assert usage.utilization(10.0) == 1.0
        assert usage.utilization(30.0) == pytest.approx(0.5)
        assert usage.utilization(0.0) == 0.0


class TestCollector:
    def test_duplicate_key_rejected(self):
        collector = MetricsCollector()
        collector.record_arrival(1, 0.0)
        with pytest.raises(ValueError):
            collector.record_arrival(1, 0.0)
        assert len(collector.tasks) == 1

    def test_duplicate_arrival_leaves_first_row_intact(self):
        collector = MetricsCollector()
        record_one(collector, "a", arrival=0.0, dispatch=1.0, start=1.5, finish=3.5)
        before = collector.tasks["a"]
        report_before = repr(collector.report(10.0))
        with pytest.raises(ValueError):
            collector.record_arrival("a", 7.0, function="other", tenant="t1")
        assert len(collector.tasks) == 1
        assert collector.tasks["a"] == before
        assert collector.tasks["a"].arrival == 0.0
        assert repr(collector.report(10.0)) == report_before

    def test_report_aggregates(self):
        collector = MetricsCollector()
        record_one(collector, "a", arrival=0.0, dispatch=1.0, start=1.5, finish=3.5, reconfig=0.5)
        record_one(collector, "b", arrival=0.0, dispatch=3.0, start=3.0, finish=5.0, reused=True)
        collector.record_arrival("c", 4.0)  # still pending
        collector.record_arrival("d", 4.0)
        collector.record_discard("d", 9.0)

        report = collector.report(horizon_s=10.0)
        assert report.completed == 2
        assert report.pending == 1
        assert report.discarded == 1
        assert report.mean_wait_s == pytest.approx((1.0 + 3.0) / 2)
        assert report.mean_turnaround_s == pytest.approx((3.5 + 5.0) / 2)
        assert report.makespan_s == 5.0
        assert report.reconfigurations == 1
        assert report.total_reconfig_time_s == pytest.approx(0.5)
        assert report.reuse_hits == 1
        assert report.reuse_rate == pytest.approx(0.5)
        # busy time: (3.5-1.5) + (5.0-3.0) = 4 over 10 s horizon
        assert report.per_resource_utilization["node0:RPE0"] == pytest.approx(0.4)
        assert report.tasks_by_pe_kind == {"RPE": 2}

    def test_empty_report(self):
        report = MetricsCollector().report(horizon_s=5.0)
        assert report.completed == 0
        assert report.mean_wait_s == 0.0
        assert report.reuse_rate == 0.0
        assert report.mean_utilization == 0.0

    def test_summary_lines_render(self):
        collector = MetricsCollector()
        record_one(collector, "a", arrival=0.0, dispatch=1.0, start=1.0, finish=2.0)
        lines = collector.report(5.0).summary_lines()
        assert any("completed" in line for line in lines)
        assert any("reuse" in line for line in lines)

    def test_report_matches_reference_on_synthetic_events(self):
        collector = MetricsCollector()
        record_one(collector, "a", arrival=0.0, dispatch=1.0, start=1.5, finish=3.5, reconfig=0.5)
        record_one(collector, "b", arrival=0.2, dispatch=3.0, start=3.0, finish=5.0, reused=True)
        record_one(collector, "c", arrival=0.4, dispatch=0.4, start=0.6, finish=9.1)
        collector.record_arrival("d", 4.0)
        collector.record_discard("d", 9.0)
        collector.record_arrival("e", 5.0)  # pending forever
        # At 10 s node0:RPE0 is saturated (utilization capped at 1.0);
        # at 20 s its utilization is the busy-time ratio itself.
        for horizon in ("10.0", "20.0"):
            report = collector.report(float(horizon))
            assert repr(report) == REFERENCE["synthetic"][horizon]

    def test_rows_grow_past_many_arrivals(self):
        collector = MetricsCollector()
        for i in range(100):
            record_one(collector, i, arrival=float(i), dispatch=i + 0.5, start=i + 0.5, finish=i + 2.0)
        report = collector.report(200.0)
        assert (report.completed, report.pending, report.discarded) == (100, 0, 0)
        assert report.mean_wait_s == 0.5
        assert report.p95_wait_s == 0.5
        assert report.mean_turnaround_s == 2.0
        assert report.makespan_s == 101.0
        assert report.total_reconfig_time_s == 0
        assert report.per_resource_utilization == {"node0:RPE0": 0.75}
        assert report.tasks_by_pe_kind == {"RPE": 100}
        assert list(collector.tasks) == list(range(100))
        assert collector.tasks[99] == TaskMetrics(
            key=99, function="", pe_kind="RPE", node_id=0, arrival=99.0,
            dispatch=99.5, start=99.5, finish=101.0, transfer_time=0.1,
        )

    def test_task_rows_expose_arrival_and_dispatch(self):
        """The simulator reads a task's arrival, dispatch and start
        mid-run; those reads agree with the row, including None before
        the event."""
        collector = MetricsCollector()
        collector.record_arrival("t", 1.25)
        assert "t" in collector.tasks and "nope" not in collector.tasks
        assert len(collector.tasks) == 1
        row = collector.tasks["t"]
        assert row.arrival == collector.time_of("t", "arrival") == 1.25
        assert row.dispatch is None
        assert collector.time_of("t", "dispatch") is None
        assert collector.time_of("t", "dispatch", 7.0) == 7.0
        collector.record_dispatch(
            "t", 2.5, pe_kind="GPP", node_id=1, transfer_time=0.0,
            synthesis_time=0.0, reconfig_time=0.0, reused=False,
        )
        assert collector.tasks["t"].dispatch == collector.time_of("t", "dispatch") == 2.5
        assert collector.tasks["t"].resource_index is None
        assert collector.time_of("t", "start") is None
        collector.record_start("t", 3.0)
        assert collector.tasks["t"].start == collector.time_of("t", "start") == 3.0

    def test_tasks_is_a_read_only_mapping_in_arrival_order(self):
        collector = MetricsCollector()
        for key in ("z", "a", "m"):
            collector.record_arrival(key, 0.0, "fft", tenant="t1")
        assert list(collector.tasks) == list(collector.tasks.keys()) == ["z", "a", "m"]
        assert [row.key for row in collector.tasks.values()] == ["z", "a", "m"]
        assert [key for key, _ in collector.tasks.items()] == ["z", "a", "m"]
        row = collector.tasks["a"]
        assert (row.function, row.tenant, row.pe_kind) == ("fft", "t1", "")
        with pytest.raises(FrozenInstanceError):
            row.arrival = 5.0
        with pytest.raises(TypeError):
            collector.tasks["a"] = row
        with pytest.raises(KeyError):
            collector.tasks["nope"]

    def test_codes_hold_more_than_32768_distinct_tenants(self):
        collector = MetricsCollector()
        for i in range(32_770):
            collector.record_arrival(i, float(i), tenant=f"tenant{i}")
        assert len(collector.tasks) == 32_770
        last = collector.tasks[32_769]
        assert (last.tenant, last.arrival) == ("tenant32769", 32_769.0)
        report = collector.report(1.0)
        assert len(report.per_tenant) == 32_770
        assert list(report.per_tenant)[-1] == "tenant32769"


class TestDrillDownRules:
    def test_speculative_win_moves_the_placement_to_the_replica(self):
        collector = MetricsCollector()
        record_one(collector, "t", arrival=0.0, dispatch=0.0, start=0.0, finish=1.0)
        collector.record_dispatch(
            "t", 0.0, pe_kind="RPE", node_id=0, transfer_time=0.0,
            synthesis_time=0.0, reconfig_time=0.0, reused=False,
            resource_index=2,
        )
        collector.record_speculation_result("t", 1.0, win=False, wasted_s=0.5)
        row = collector.tasks["t"]
        assert (row.speculative_win, row.node_id, row.resource_index) == (False, 0, 2)
        collector.record_speculation_result(
            "t", 1.0, win=True, wasted_s=0.5, node_id=3, resource_index=1
        )
        row = collector.tasks["t"]
        assert (row.speculative_win, row.node_id, row.resource_index) == (True, 3, 1)
        assert collector.report(2.0).speculative_wasted_s == 1.0

    def test_first_fault_is_set_once_and_faults_count(self):
        collector = MetricsCollector()
        collector.record_arrival("t", 0.0)
        collector.record_fault("t", 1.0, reason="seu", wasted_time_s=0.25,
                               wasted_slice_seconds=100.0)
        collector.record_fault("t", 2.0, reason="crash", wasted_time_s=0.5)
        collector.record_wasted("t", 2.5, wasted_time_s=0.25, wasted_slice_seconds=1.0)
        collector.record_fallback("t", 3.0)
        row = collector.tasks["t"]
        assert (row.first_fault, row.faults, row.failure_reason) == (1.0, 2, "crash")
        assert (row.wasted_time_s, row.wasted_slice_seconds) == (1.0, 101.0)
        assert row.fell_back_to_gpp is True
        assert row.failed is False

    def test_record_failed_overwrites_the_fault_reason(self):
        collector = MetricsCollector()
        collector.record_arrival("t", 0.0)
        collector.record_fault("t", 1.0, reason="seu")
        collector.record_failed("t", 2.0, reason="retry budget exhausted")
        row = collector.tasks["t"]
        assert (row.failed, row.failure_reason) == (True, "retry budget exhausted")

    def test_hard_deadline_miss_overrides_soft_never_the_reverse(self):
        collector = MetricsCollector()
        for key in ("soft", "soft-then-hard", "hard-then-soft"):
            collector.record_arrival(key, 0.0)
        collector.record_deadline_miss("soft", 1.0, hard=False)
        collector.record_deadline_miss("soft-then-hard", 1.0, hard=False)
        collector.record_deadline_miss("soft-then-hard", 2.0, hard=True)
        collector.record_deadline_miss("hard-then-soft", 1.0, hard=True)
        collector.record_deadline_miss("hard-then-soft", 2.0, hard=False)
        assert {k: row.deadline_missed for k, row in collector.tasks.items()} == {
            "soft": "soft", "soft-then-hard": "hard", "hard-then-soft": "hard",
        }
        report = collector.report(3.0)
        assert (report.deadline_soft_misses, report.deadline_hard_misses) == (3, 2)
        assert report.deadline_miss_rate == 1.0

    def test_shed_is_not_discarded(self):
        collector = MetricsCollector()
        collector.record_arrival("t", 0.0)
        collector.record_shed("t", 0.5, reason="queue full")
        row = collector.tasks["t"]
        assert (row.shed, row.discarded) == (True, False)
        report = collector.report(1.0)
        assert (report.shed, report.discarded, report.pending) == (1, 0, 0)


def reference_specs():
    from repro.grid.health import HealthPolicy
    from repro.sim.admission import (
        AdmissionSpec,
        BrownoutSpec,
        QueueBoundSpec,
        UtilizationSpec,
    )
    from repro.sim.experiment import ExperimentSpec
    from repro.sim.failover import FailoverSpec, HeartbeatSpec
    from repro.sim.faults import FaultSpec
    from repro.sim.resilience import (
        CheckpointSpec,
        DeadlineSpec,
        ResilienceSpec,
        SpeculationSpec,
    )
    from repro.sim.slo import SLOObjective, SLOSpec

    base = ExperimentSpec(
        tasks=40, configurations=4, arrival_rate_per_s=8.0,
        area_range=(2_000, 14_000), gpp_fraction=0.2, seed=7,
    )
    chaos = FaultSpec(
        crash_rate_per_s=0.25, downtime_range_s=(1.0, 3.0),
        config_fault_prob=0.35, seu_rate_per_s=0.2, horizon_s=8.0,
    )
    return {
        "plain": base,
        "chaos": base.with_(faults=chaos),
        "resilience": base.with_(
            faults=chaos,
            seed=11,
            resilience=ResilienceSpec(
                breaker=HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=4.0),
                deadlines=DeadlineSpec(soft_factor=2.0, hard_factor=6.0, slack_s=0.25),
                checkpoint=CheckpointSpec(interval_s=0.1),
                speculation=SpeculationSpec(slowdown_factor=1.5),
            ),
        ),
        # Admission (shed, defer, brownout), control-plane crashes with
        # a standby, SLO objectives and two tenants at once.
        "armed": base.with_(
            tasks=60, arrival_rate_per_s=40.0, tenants=2, low_priority_fraction=0.3,
            faults=FaultSpec(
                crash_rate_per_s=0.1, downtime_range_s=(1.0, 3.0),
                config_fault_prob=0.2, rms_crash_rate_per_s=0.4,
                rms_downtime_range_s=(1.0, 3.0), horizon_s=8.0,
            ),
            admission=AdmissionSpec(
                queue=QueueBoundSpec(max_pending=10, defer=True),
                utilization=UtilizationSpec(threshold=0.8),
                brownout=BrownoutSpec(enter_pending=4, exit_pending=2, dwell_s=0.5),
            ),
            failover=FailoverSpec(
                heartbeat=HeartbeatSpec(interval_s=0.5), standbys=1, lease_s=3.0
            ),
            slo=SLOSpec(objectives=(
                SLOObjective("latency", 0.5, percentile=95.0, window_s=5.0),
                SLOObjective("queue-depth", 2.0, window_s=5.0),
                SLOObjective("latency", 0.5, percentile=90.0, window_s=5.0,
                             tenant="tenant0"),
            )),
        ),
    }


def row_digest(tasks) -> str:
    """sha256 over the ``repr`` of every row's fields, in arrival order.
    Of the ``(job_id, task_id)`` key only the task id counts: JSS job
    ids are process-global."""
    digest = hashlib.sha256()
    for key, row in tasks.items():
        assert row.key == key
        fields = (key[1],) + tuple(getattr(row, f) for f in ROW_FIELDS[1:])
        digest.update(repr(fields).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestReferenceRuns:
    """Seeded experiments must reproduce the recorded report, energy
    report and per-task rows exactly.  The chaos and resilience runs
    push faults, retries, fallbacks, deadline misses, checkpoints and
    migrations through the collector; the armed run adds admission,
    failover, SLO objectives and tenants."""

    @pytest.mark.parametrize("name", ["plain", "chaos", "resilience", "armed"])
    def test_run_matches_reference(self, name):
        from repro.sim.experiment import run_experiment
        from repro.sim.simulator import DReAMSim

        sims = []
        run = DReAMSim.run

        def keep(sim, *args, **kwargs):
            sims.append(sim)
            return run(sim, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DReAMSim, "run", keep)
            result = run_experiment(reference_specs()[name], audit_energy=True)
        expected = REFERENCE["runs"][name]
        # repr also tells a numpy scalar from the float it equals.
        assert repr(result.report) == expected["report"]
        assert repr(result.energy) == expected["energy"]
        assert row_digest(sims[0].metrics.tasks) == expected["digest"]
