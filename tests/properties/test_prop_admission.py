"""Property-based tests for the overload-protection layer.

The headline invariant is **exact conservation**: whatever admission
policies are armed -- bounded queue with or without backpressure,
token-bucket rate limiting, utilization gating, staged brownout -- and
whatever faults fire alongside them, every submission reaches exactly
one terminal state::

    submitted == completed + failed + discarded + shed

checked both from the report and from the online trace ledger.
Determinism rides along: identical seeded runs must reproduce
identical traces even with admission and faults both armed, because
no admission decision ever draws randomness.
"""

from hypothesis import given, settings, strategies as st

from repro.core.node import Node
from repro.grid.network import Network
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.sim.admission import (
    AdmissionSpec,
    BrownoutSpec,
    QueueBoundSpec,
    TokenBucketSpec,
    UtilizationSpec,
)
from repro.sim.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.sim.simulator import DReAMSim
from repro.sim.tracing import InMemorySink, TraceInvariantChecker, Tracer, canonical_events
from repro.sim.workload import (
    ConfigurationPool,
    PoissonArrivals,
    SyntheticWorkload,
    WorkloadSpec,
)

queue_specs = st.builds(
    QueueBoundSpec,
    max_pending=st.integers(1, 12),
    defer=st.booleans(),
    defer_delay_s=st.floats(0.1, 1.0),
    max_defers=st.integers(1, 5),
)

rate_specs = st.builds(
    TokenBucketSpec,
    rate_per_s=st.floats(0.5, 20.0),
    burst=st.floats(1.0, 10.0),
)

utilization_specs = st.builds(
    UtilizationSpec,
    threshold=st.floats(0.3, 1.0, exclude_min=True),
)

#: enter strictly above exit, so the hysteresis invariant holds by
#: construction (8-20 vs 0-7).
brownout_specs = st.builds(
    BrownoutSpec,
    enter_pending=st.integers(8, 20),
    exit_pending=st.integers(0, 7),
    dwell_s=st.floats(0.1, 1.5),
    max_stage=st.integers(1, 3),
)

admission_specs = st.builds(
    AdmissionSpec,
    queue=st.one_of(st.none(), queue_specs),
    rate=st.one_of(st.none(), rate_specs),
    utilization=st.one_of(st.none(), utilization_specs),
    brownout=st.one_of(st.none(), brownout_specs),
)

fault_specs = st.builds(
    FaultSpec,
    crash_rate_per_s=st.floats(0.0, 0.08),
    downtime_range_s=st.just((2.0, 8.0)),
    config_fault_prob=st.floats(0.0, 0.4),
    seu_rate_per_s=st.floats(0.0, 0.1),
    horizon_s=st.just(40.0),
)


def run_protected_burst(admission, faults, seed, tasks):
    """One seeded bursty run (arrivals fast enough to exercise the
    queue bound) over a 2-node hybrid grid with admission armed;
    returns (report, checker, lines)."""
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
    )
    sim.submit_workload(workload.generate())
    report = sim.run()
    lines = [e.to_json() for e in canonical_events(list(sink.events))]
    return report, checker, lines


@given(
    admission=admission_specs,
    faults=st.one_of(st.none(), fault_specs),
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(1, 24),
)
@settings(max_examples=25, deadline=None)
def test_conservation_holds_under_any_admission_policy(
    admission, faults, seed, tasks
):
    report, checker, _ = run_protected_burst(
        admission, faults, seed, tasks
    )
    # Exact accounting, from the report...
    assert (
        report.completed + report.failed + report.discarded + report.shed
        == tasks
    )
    assert report.pending == 0
    # ... and independently from the online trace ledger.
    checker.assert_quiescent()
    checker.assert_no_lost_tasks()
    checker.assert_conservation()
    ledger = checker.conservation()
    assert ledger["submitted"] == tasks
    assert ledger["shed"] == report.shed
    # Policy-off implies metric-zero.
    if admission.queue is None and admission.rate is None:
        if admission.brownout is None:
            assert report.shed == 0
    if admission.brownout is None:
        assert report.brownout_transitions == 0
        assert report.brownout_time_s == 0.0
        assert report.brownout_degraded == 0
    if admission.utilization is None:
        assert report.placements_gated == 0
    if not (admission.queue is not None and admission.queue.defer):
        assert report.admission_deferrals == 0
    assert report.brownout_time_s >= 0.0
    assert 0 <= report.brownout_max_stage <= 3


@given(
    admission=admission_specs,
    faults=st.one_of(st.none(), fault_specs),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_identical_protected_runs_reproduce_traces(admission, faults, seed):
    *_, first = run_protected_burst(admission, faults, seed, 12)
    *_, second = run_protected_burst(admission, faults, seed, 12)
    assert first == second
