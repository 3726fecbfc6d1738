"""Property-based tests for control-plane fault tolerance.

The headline invariant extends PR 7's exact conservation over the
failover path: whatever control-plane faults fire -- RMS crashes, gray
failures, heartbeat loss, correlated node-crash bursts -- and whatever
failover policy is armed (none, detection-only, replicated with
leases), every submission still reaches exactly one terminal state::

    submitted == completed + failed + discarded + shed

with **zero tasks lost**: an orphaned placement is re-queued, never
dropped.  Checked both from the report and from the online trace
ledger, with admission control riding along.
Determinism rides along too: the only randomness the failover layer
can introduce (heartbeat-loss draws) lives on its own fault stream, so
identically-seeded runs replay identical traces.
"""

from hypothesis import given, settings, strategies as st

from repro.core.node import Node
from repro.grid.network import Network
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.sim.admission import AdmissionSpec, QueueBoundSpec
from repro.sim.failover import FailoverSpec, HeartbeatSpec
from repro.sim.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.sim.simulator import DReAMSim
from repro.sim.tracing import (
    InMemorySink,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
)
from repro.sim.workload import (
    ConfigurationPool,
    PoissonArrivals,
    SyntheticWorkload,
    WorkloadSpec,
)

heartbeat_specs = st.builds(
    HeartbeatSpec,
    interval_s=st.floats(0.25, 1.0),
    suspect_after=st.floats(1.5, 4.0),
    # Strictly above any suspect_after drawn, so validation holds by
    # construction.
    confirm_after=st.floats(4.5, 9.0),
    ewma_alpha=st.floats(0.1, 1.0),
    min_samples=st.integers(1, 4),
)

#: Leases must exceed the heartbeat interval (validated); drawing from
#: (1.5, 8.0) against intervals capped at 1.0 keeps specs valid.
failover_specs = st.builds(
    FailoverSpec,
    heartbeat=st.one_of(st.none(), heartbeat_specs),
    standbys=st.integers(0, 2),
    takeover_delay_s=st.floats(0.0, 1.0),
    lease_s=st.one_of(st.none(), st.floats(1.5, 8.0)),
)

#: Control-plane chaos: RMS crashes and gray failures, lost
#: heartbeats, plus the classic node crashes and correlated bursts.
control_plane_faults = st.builds(
    FaultSpec,
    crash_rate_per_s=st.floats(0.0, 0.06),
    downtime_range_s=st.just((2.0, 8.0)),
    config_fault_prob=st.floats(0.0, 0.3),
    rms_crash_rate_per_s=st.floats(0.0, 0.08),
    rms_downtime_range_s=st.just((2.0, 6.0)),
    rms_gray_rate_per_s=st.floats(0.0, 0.05),
    rms_gray_duration_range_s=st.just((1.0, 4.0)),
    heartbeat_loss_prob=st.floats(0.0, 0.2),
    burst_rate_per_s=st.floats(0.0, 0.02),
    burst_size=st.integers(1, 2),
    horizon_s=st.just(40.0),
)

#: A slim admission layer so backpressure and failover compose.
admission_specs = st.one_of(
    st.none(),
    st.builds(
        AdmissionSpec,
        queue=st.builds(
            QueueBoundSpec,
            max_pending=st.integers(4, 16),
            defer=st.booleans(),
        ),
    ),
)


def run_chaos_burst(failover, faults, admission, seed, tasks):
    """One seeded bursty run over a 2-node hybrid grid with
    control-plane chaos armed; returns (report, checker, lines)."""
    network = Network.fully_connected([0, 1])
    rms = ResourceManagementSystem(network=network)
    for node_id in range(2):
        node = Node(node_id=node_id)
        node.add_gpp(GPPSpec(cpu_model=f"cpu{node_id}", mips=1_500))
        node.add_rpe(device_by_model("XC5VLX155"), regions=2)
        rms.register_node(node)
    pool = ConfigurationPool(4, area_range=(2_000, 12_000), seed=seed)
    pool.populate_repository(
        rms.virtualization.repository,
        [rpe.device for node in rms.nodes for rpe in node.rpes],
    )
    workload = SyntheticWorkload(
        WorkloadSpec(
            task_count=tasks,
            gpp_fraction=0.5,
            required_time_range_s=(0.2, 1.5),
            low_priority_fraction=0.4,
        ),
        pool,
        PoissonArrivals(rate_per_s=8.0),
        seed=seed,
    )
    checker = TraceInvariantChecker()
    sink = InMemorySink()
    sim = DReAMSim(
        rms,
        tracer=Tracer(checker, sink),
        faults=FaultInjector(faults, seed=seed) if faults is not None else None,
        retry=RetryPolicy(backoff_base_s=0.2),
        admission=admission,
        failover=failover,
    )
    sim.submit_workload(workload.generate())
    report = sim.run()
    lines = [e.to_json() for e in canonical_events(list(sink.events))]
    return report, checker, lines


@given(
    failover=st.one_of(st.none(), failover_specs),
    faults=control_plane_faults,
    admission=admission_specs,
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(1, 24),
)
@settings(max_examples=25, deadline=None)
def test_conservation_holds_under_control_plane_chaos(
    failover, faults, admission, seed, tasks
):
    report, checker, _ = run_chaos_burst(
        failover, faults, admission, seed, tasks
    )
    # Exact accounting, from the report...
    assert (
        report.completed + report.failed + report.discarded + report.shed
        == tasks
    )
    # ... zero tasks stranded: orphan recovery re-queues, never drops.
    assert report.pending == 0
    # ... and independently from the online trace ledger.
    checker.assert_quiescent()
    checker.assert_no_lost_tasks()
    checker.assert_conservation()
    assert checker.conservation()["submitted"] == tasks
    # Every orphan was recovered (the counters are two views of the
    # same ledger and must agree).
    assert report.orphans_recovered == report.orphaned_tasks
    # Feature-off implies metric-zero.
    if failover is None or not failover.enabled:
        assert report.failovers == 0
        assert report.false_suspicions == 0
        assert report.leases_expired == 0
    if failover is None or failover.standbys == 0:
        assert report.failovers == 0
    if faults.rms_crash_rate_per_s == 0 and faults.rms_gray_rate_per_s == 0:
        assert report.rms_crashes == 0
        assert report.rms_gray_events == 0
        assert report.control_plane_downtime_s == 0.0
    assert report.control_plane_downtime_s >= 0.0
    assert report.detection_latency_p95_s >= report.detection_latency_p50_s


@given(
    failover=failover_specs,
    faults=control_plane_faults,
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_identical_chaos_runs_reproduce_traces(failover, faults, seed):
    *_, first = run_chaos_burst(failover, faults, None, seed, 12)
    *_, second = run_chaos_burst(failover, faults, None, seed, 12)
    assert first == second
