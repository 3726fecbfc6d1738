"""Property-based tests for the dispatch pass's no-fit memo.

``DReAMSim._dispatch_pending`` remembers, for one pass, the
:func:`~repro.core.matching.fit_key` of every task that found no
available PE, and declines later entries with the same key without a
search.  Two properties make that exact, and both are pinned here over
random grids (GPPs, GPUs, RPEs with 1-4 regions, resident
configurations and hosted soft cores left over from earlier work) and
random task mixes (GPP, GPU, soft-core, bitstream and HDL tasks):

* **The key is sufficient** -- tasks with equal keys get identical
  candidate lists from the same grid state.
* **Commits are monotone** -- after any ``rms.commit(plan_placement(t))``
  every task whose available-candidate list was empty still has an
  empty list.

A differential battery then runs the simulator with the memo live and
with it defeated (``fit_key`` patched to return a fresh ``object()``,
so no lookup ever hits) under admission, faults, failover, resilience
and SLO objectives armed together.  Traces, reports
and the placement telemetry counters must agree exactly, and every
run's phase ledger must conserve (phases sum to turnaround).

The pending queue files entries by ``fit_key``, so the defeated key
also gives every entry a class of its own, which turns the
class-indexed pass back into a per-entry FIFO walk.  A deep-queue
battery compares the two at hundreds of queued entries, and a model
test pins the queue's order, membership and length.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import repro.grid.rms as rms_module
import repro.sim.simulator as simulator_module
from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.node import Node
from repro.core.matching import fit_key
from repro.core.task import simple_task
from repro.grid.health import HealthPolicy
from repro.grid.rms import ResourceManagementSystem, SchedulingError
from repro.hardware.bitstream import Bitstream, HDLDesign
from repro.hardware.catalog import device_by_model
from repro.hardware.fabric import RegionState
from repro.hardware.gpp import GPPSpec
from repro.hardware.gpu import GPUSpec
from repro.hardware.softcore import RHO_VEX_2ISSUE, RHO_VEX_4ISSUE, RHO_VEX_8ISSUE
from repro.hardware.taxonomy import PEClass
from repro.sim.admission import (
    AdmissionSpec,
    BrownoutSpec,
    QueueBoundSpec,
    UtilizationSpec,
)
from repro.sim.analysis import analyze_events
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.failover import FailoverSpec, HeartbeatSpec
from repro.sim.faults import FaultSpec
from repro.sim.resilience import DeadlineSpec, ResilienceSpec, SpeculationSpec
from repro.sim.simulator import DReAMSim, _Entry, _PendingQueue
from repro.sim.slo import SLOObjective, SLOSpec
from repro.sim.telemetry import TelemetryRegistry
from repro.sim.tracing import (
    InMemorySink,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
)

MODELS = ("XC5VLX30", "XC5VLX85", "XC5VLX155", "XC6VLX240T")
FUNCTIONS = ("fft", "fir", "aes")
SOFTCORES = (RHO_VEX_2ISSUE, RHO_VEX_4ISSUE, RHO_VEX_8ISSUE)


# ----------------------------------------------------------------------
# Monotonicity of the candidate search under commits
# ----------------------------------------------------------------------
@st.composite
def grids(draw):
    nodes = []
    for node_id in range(draw(st.integers(1, 3))):
        node = Node(node_id=node_id)
        for i in range(draw(st.integers(0, 2))):
            node.add_gpp(GPPSpec(cpu_model=f"cpu{i}",
                                 mips=draw(st.sampled_from((800, 1_500, 3_000)))))
        for _ in range(draw(st.integers(0, 1))):
            node.add_gpu(GPUSpec(model="gpu", shader_cores=draw(
                st.sampled_from((128, 512)))))
        for _ in range(draw(st.integers(0, 2))):
            rpe = node.add_rpe(device_by_model(draw(st.sampled_from(MODELS))),
                               regions=draw(st.integers(1, 4)))
            leave_residents(draw, rpe)
        nodes.append(node)
    return nodes


def leave_residents(draw, rpe):
    """Idle configurations that earlier work left on *rpe*: maybe a
    hosted soft core, then maybe an accelerator per free region."""
    core = draw(st.sampled_from((None,) + SOFTCORES))
    if (core is not None and core.fits_on(rpe.device)
            and rpe.fabric.can_place(core.required_slices())):
        rpe.host_softcore(core)
    fabric = rpe.fabric
    for region in fabric.regions:
        function = draw(st.sampled_from((None,) + FUNCTIONS))
        if function is None or region.state is not RegionState.FREE:
            continue
        bitstream = Bitstream(1, rpe.device.model, 1_000_000, region.slices,
                              implements=function)
        fabric.begin_reconfiguration(region, bitstream)
        fabric.finish_reconfiguration(region)


@st.composite
def requirement_classes(draw):
    """One (ExecReq, function) class; several tasks may share it."""
    kind = draw(st.sampled_from(
        ("gpp", "gpu", "softcore", "bitstream", "hdl", "resident")
    ))
    function = draw(st.sampled_from(FUNCTIONS))
    if kind == "gpp":
        constraints = draw(st.sampled_from(((), (MinValue("mips", 1_000),))))
        return ExecReq(PEClass.GPP, constraints, Artifacts("x")), ""
    if kind == "gpu":
        constraints = draw(st.sampled_from(((), (MinValue("shader_cores", 256),))))
        return ExecReq(PEClass.GPU, constraints, Artifacts("x")), ""
    if kind == "softcore":
        core = draw(st.sampled_from(SOFTCORES))
        return ExecReq(PEClass.SOFTCORE, (), Artifacts("x", softcore=core)), ""
    if kind == "resident":
        # No artifacts and one fixed constraint: the function alone
        # decides resident-configuration reuse, so it alone tells two
        # such classes apart.
        return ExecReq(PEClass.RPE, (MinValue("slices", 2_000),),
                       Artifacts("x")), function
    slices = draw(st.integers(1_000, 30_000))
    if kind == "bitstream":
        bitstream = Bitstream(
            draw(st.integers(1, 4)), draw(st.sampled_from(MODELS)),
            1_000_000, slices, implements=function,
        )
        artifacts = Artifacts("x", bitstream=bitstream)
    else:
        artifacts = Artifacts("x", hdl_design=HDLDesign(
            f"{function}_acc", "VHDL", 500, estimated_slices=slices,
            implements=function,
        ))
    constraints = draw(st.sampled_from(((), (MinValue("slices", slices),))))
    return ExecReq(PEClass.RPE, constraints, artifacts), function


@st.composite
def task_pools(draw):
    """Tasks drawn from a few requirement classes; tasks of one class
    differ only in fields the key leaves out (ids, input sizes)."""
    classes = draw(st.lists(requirement_classes(), min_size=1, max_size=6))
    tasks = []
    for task_id in range(draw(st.integers(len(classes), 14))):
        exec_req, function = classes[task_id % len(classes)]
        in_bytes = draw(st.sampled_from((0, 10_000, 5_000_000)))
        exec_req = ExecReq(
            exec_req.node_type,
            exec_req.constraints,
            Artifacts(
                "x",
                input_data_bytes=in_bytes,
                hdl_design=exec_req.artifacts.hdl_design,
                bitstream=exec_req.artifacts.bitstream,
                softcore=exec_req.artifacts.softcore,
            ),
        )
        tasks.append(simple_task(task_id, exec_req, 1.0, in_bytes=in_bytes,
                                 function=function, workload_mi=1_000.0))
    return tasks


def plan(rms, task):
    try:
        return rms.plan_placement(task)
    except SchedulingError:
        return None


def available(rms, task):
    return rms.find_candidates(task, require_available=True)


@given(
    nodes=grids(),
    tasks=task_pools(),
    finished=st.lists(st.integers(0, 13), max_size=8),
    in_flight=st.lists(st.integers(0, 13), max_size=4),
    order=st.lists(st.integers(0, 13), min_size=1, max_size=14),
)
@settings(max_examples=150, deadline=None)
def test_commit_never_turns_an_empty_candidate_list_non_empty(
    nodes, tasks, finished, in_flight, order
):
    rms = ResourceManagementSystem()
    for node in nodes:
        rms.register_node(node)
    # Earlier work leaves resident configurations and hosted soft cores
    # behind; in-flight work holds PEs and regions.
    for i in finished:
        placement = plan(rms, tasks[i % len(tasks)])
        if placement is not None:
            rms.run_placement(placement)
    for i in in_flight:
        placement = plan(rms, tasks[i % len(tasks)])
        if placement is not None:
            rms.commit(placement)

    # One dispatch pass: plan and commit in order.
    empty: set[int] = set()
    for i in order:
        lists = [available(rms, t) for t in tasks]
        for a, b in zip(tasks, lists):
            for c, d in zip(tasks, lists):
                if fit_key(a) == fit_key(c):
                    assert b == d, (a.task_id, c.task_id)
        empty |= {j for j, found in enumerate(lists) if not found}
        placement = plan(rms, tasks[i % len(tasks)])
        if placement is None:
            continue
        rms.commit(placement)
        for j in empty:
            assert available(rms, tasks[j]) == [], tasks[j].task_id


def test_fit_key_ignores_input_data():
    bitstream = Bitstream(1, "XC5VLX155", 1_000_000, 5_000, implements="fft")

    def task(task_id, in_bytes):
        artifacts = Artifacts("x", input_data_bytes=in_bytes, bitstream=bitstream)
        return simple_task(task_id, ExecReq(PEClass.RPE, (), artifacts), 1.0,
                           sources=(7,), in_bytes=in_bytes, function="fft")

    assert fit_key(task(1, 0)) == fit_key(task(2, 9_999))
    gpp = simple_task(3, ExecReq(PEClass.GPP, (), Artifacts("x")), 1.0,
                      function="fft")
    assert fit_key(task(1, 0)) != fit_key(gpp)


# ----------------------------------------------------------------------
# Differential: memo live vs. defeated
# ----------------------------------------------------------------------
#: No outer ``none``: the utilization gate is the one admission policy
#: a memo hit has to reproduce call by call, so keep it in reach.
admission_specs = st.builds(
    AdmissionSpec,
    queue=st.one_of(st.none(), st.builds(
        QueueBoundSpec, max_pending=st.integers(4, 24), defer=st.booleans(),
    )),
    utilization=st.one_of(st.builds(
        UtilizationSpec, threshold=st.floats(0.3, 1.0, exclude_min=True),
    ), st.none()),
    brownout=st.one_of(st.none(), st.builds(
        BrownoutSpec,
        enter_pending=st.integers(8, 20),
        exit_pending=st.integers(0, 7),
        dwell_s=st.floats(0.1, 1.5),
        max_stage=st.integers(1, 3),
    )),
)

fault_specs = st.one_of(
    st.none(),
    st.builds(
        FaultSpec,
        crash_rate_per_s=st.floats(0.0, 0.08),
        downtime_range_s=st.just((2.0, 8.0)),
        config_fault_prob=st.floats(0.0, 0.4),
        seu_rate_per_s=st.floats(0.0, 0.1),
        link_fault_rate_per_s=st.floats(0.0, 0.08),
        rms_crash_rate_per_s=st.floats(0.0, 0.05),
        rms_downtime_range_s=st.just((1.0, 4.0)),
        heartbeat_loss_prob=st.floats(0.0, 0.2),
        horizon_s=st.just(30.0),
    ),
)

failover_specs = st.one_of(
    st.none(),
    st.builds(
        FailoverSpec,
        heartbeat=st.one_of(st.none(), st.builds(
            HeartbeatSpec,
            interval_s=st.floats(0.25, 1.0),
            suspect_after=st.floats(1.5, 4.0),
            confirm_after=st.floats(4.5, 9.0),
        )),
        standbys=st.integers(0, 2),
        lease_s=st.one_of(st.none(), st.floats(1.5, 8.0)),
    ),
)

resilience_specs = st.one_of(
    st.none(),
    st.builds(
        ResilienceSpec,
        breaker=st.one_of(st.none(), st.builds(
            HealthPolicy,
            open_threshold=st.floats(0.3, 0.9),
            min_events=st.integers(1, 4),
            open_duration_s=st.floats(2.0, 15.0),
        )),
        deadlines=st.one_of(st.none(), st.builds(
            DeadlineSpec,
            soft_factor=st.floats(2.0, 6.0),
            hard_factor=st.floats(8.0, 30.0),
            reschedule=st.booleans(),
        )),
        speculation=st.one_of(st.none(), st.builds(
            SpeculationSpec, slowdown_factor=st.floats(1.2, 3.0),
        )),
    ),
)

slo_specs = st.one_of(
    st.none(),
    st.builds(
        lambda target, window: SLOSpec(objectives=(
            SLOObjective("latency", target, name="lat", window_s=window),
            SLOObjective("queue-depth", 8.0, name="depth", window_s=window),
        )),
        st.floats(0.5, 5.0),
        st.floats(1.0, 20.0),
    ),
)

COUNTERS = ("rms_placements_deferred_total", "rms_placements_gated_total",
            "rms_placements_planned_total")


def run_armed(spec):
    """One traced, telemetry-armed run, checked online for trace
    invariants and afterwards for phase-ledger conservation; returns
    everything that must not depend on the memo (trace lines, report,
    counter series and the end state of every instrument) plus the
    number of candidate searches."""
    sink = InMemorySink()
    telemetry = TelemetryRegistry()
    searches = 0
    search = rms_module.find_candidates

    def counting(*args, **kwargs):
        nonlocal searches
        searches += 1
        return search(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rms_module, "find_candidates", counting)
        report = run_experiment(
            spec, tracer=Tracer(TraceInvariantChecker(), sink),
            telemetry=telemetry,
        ).report
    events = list(sink.events)
    # Every terminal task's phase ledger sums to its turnaround.
    assert analyze_events(events).conservation_violations() == []
    lines = [e.to_json() for e in canonical_events(events)]
    counters = {
        name: [i.points for i in telemetry.series(name)] for name in COUNTERS
    }
    return (lines, repr(report), counters, telemetry.open_metrics()), searches


@given(
    admission=admission_specs,
    faults=fault_specs,
    failover=failover_specs,
    resilience=resilience_specs,
    slo=slo_specs,
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(10, 60),
)
@settings(max_examples=40, deadline=None)
def test_memo_matches_a_defeated_memo(
    admission, faults, failover, resilience, slo, seed, tasks
):
    assert_memo_matches_defeated(ExperimentSpec(
        tasks=tasks, configurations=4, arrival_rate_per_s=16.0,
        area_range=(2_000, 14_000), gpp_fraction=0.4, seed=seed,
        tenants=2, low_priority_fraction=0.3,
        admission=admission, faults=faults, failover=failover,
        resilience=resilience, slo=slo,
    ))


@pytest.mark.parametrize("threshold", [0.4, 0.75])
def test_memo_hits_keep_the_utilization_gate_order(threshold):
    """A pass can record a no-fit while the gate is open and then, after
    a commit, cross the threshold: a later memo hit must count as gated,
    exactly like the search it skips."""
    memo, defeated = assert_memo_matches_defeated(ExperimentSpec(
        tasks=60, configurations=4, arrival_rate_per_s=16.0,
        area_range=(2_000, 14_000), gpp_fraction=0.4, seed=0,
        admission=AdmissionSpec(utilization=UtilizationSpec(threshold=threshold)),
    ))
    assert memo < defeated  # the memo really did skip searches


def assert_memo_matches_defeated(spec):
    """Run *spec* with the memo live and defeated; the outcomes must be
    identical.  Returns the two runs' candidate-search counts."""
    memo, memo_searches = run_armed(spec)
    with pytest.MonkeyPatch.context() as patch:
        # A fresh object never equals a stored key: every lookup misses.
        patch.setattr(simulator_module, "fit_key", lambda task: object())
        defeated, defeated_searches = run_armed(spec)
    trace, report, counters, instruments = memo
    assert trace == defeated[0]
    assert report == defeated[1]
    assert counters == defeated[2]
    assert instruments == defeated[3]
    return memo_searches, defeated_searches


# ----------------------------------------------------------------------
# Deep queues: the class-indexed pass vs. a per-entry walk
# ----------------------------------------------------------------------
def deep_spec(seed, tasks, *, threshold=0.9, enter=60, exit=30, dwell=0.5):
    """32 tasks/s on the default grid with a brownout that reaches
    stages 2 and 3, the utilization gate, mid-queue discards, crashes
    behind a heartbeat detector (suspects) and faults that exclude
    nodes, all armed together."""
    return ExperimentSpec(
        tasks=tasks, configurations=4, arrival_rate_per_s=32.0,
        area_range=(2_000, 14_000), gpp_fraction=0.4, seed=seed,
        tenants=2, low_priority_fraction=0.3, discard_after_s=10.0,
        admission=AdmissionSpec(
            utilization=UtilizationSpec(threshold=threshold),
            brownout=BrownoutSpec(
                enter_pending=enter, exit_pending=exit, dwell_s=dwell,
            ),
        ),
        faults=FaultSpec(
            crash_rate_per_s=0.2, downtime_range_s=(2.0, 6.0),
            config_fault_prob=0.2, seu_rate_per_s=0.05,
            heartbeat_loss_prob=0.3, horizon_s=tasks / 32.0,
        ),
        failover=FailoverSpec(
            heartbeat=HeartbeatSpec(
                interval_s=0.5, suspect_after=2.0, confirm_after=6.0,
            ),
            standbys=1, lease_s=4.0,
        ),
    )


def assert_deep_queue_matches_per_entry_walk(spec):
    """Like :func:`assert_memo_matches_defeated`, with the queue's
    length checked against its contents after every pass; returns the
    trace lines."""
    dispatch = DReAMSim._dispatch_pending

    def checked(sim):
        dispatch(sim)
        queued = list(sim.pending)
        assert len(sim.pending) == len(queued) == len(set(map(id, queued)))
        assert all(entry in sim.pending for entry in queued)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DReAMSim, "_dispatch_pending", checked)
        live, _ = run_armed(spec)
        patch.setattr(simulator_module, "fit_key", lambda task: object())
        defeated, _ = run_armed(spec)
    trace, report, counters, instruments = live
    assert trace == defeated[0]
    assert report == defeated[1]
    assert counters == defeated[2]
    assert instruments == defeated[3]
    return trace


@pytest.mark.parametrize("seed,tasks", [(0, 200), (1, 300), (2, 400)])
def test_class_indexed_pass_matches_a_per_entry_walk_on_deep_queues(seed, tasks):
    events = [
        json.loads(line)
        for line in assert_deep_queue_matches_per_entry_walk(deep_spec(seed, tasks))
    ]
    kinds = {e["kind"] for e in events}
    # Every armed mechanism really fired, on a queue dozens deep.
    assert {2, 3} <= {e["stage"] for e in events if e["kind"] == "brownout"}
    assert {"degrade", "shed", "discard", "heartbeat-suspect", "fault"} <= kinds
    assert max(e.get("depth", 0) for e in events) >= 60


@given(
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(200, 400),
    threshold=st.floats(0.5, 1.0),
    enter=st.integers(30, 90),
    exit=st.integers(0, 29),
    dwell=st.floats(0.2, 2.0),
)
@settings(max_examples=8, deadline=None)
def test_class_indexed_pass_matches_on_random_deep_queues(
    seed, tasks, threshold, enter, exit, dwell
):
    assert_deep_queue_matches_per_entry_walk(deep_spec(
        seed, tasks, threshold=threshold, enter=enter, exit=exit, dwell=dwell,
    ))


# ----------------------------------------------------------------------
# The pending queue against a plain-list model
# ----------------------------------------------------------------------
QUEUE_TASKS = (
    simple_task(0, ExecReq(PEClass.GPP, (), Artifacts("x")), 1.0),
    simple_task(1, ExecReq(PEClass.GPP, (), Artifacts("x")), 1.0, function="fft"),
    simple_task(2, ExecReq(PEClass.RPE, (MinValue("slices", 2_000),),
                           Artifacts("x")), 1.0, function="fir"),
)


@given(ops=st.lists(
    st.tuples(st.sampled_from(("append", "remove", "reappend")),
              st.integers(0, 40), st.booleans()),
    max_size=80,
))
@settings(max_examples=150, deadline=None)
def test_pending_queue_matches_a_list(ops):
    """Iteration is global append order across classes; removal from
    the middle, ``in`` and ``len`` behave; a re-appended entry goes to
    the tail."""
    queue = _PendingQueue()
    model: list[_Entry] = []
    removed: list[_Entry] = []
    for op, n, flag in ops:
        if op == "append":
            entry = _Entry(key=len(model) + len(removed),
                           task=QUEUE_TASKS[n % len(QUEUE_TASKS)])
            if flag:
                entry.excluded_nodes.add(n)
            queue.append(entry, degradable=n % 2 == 0)
            model.append(entry)
        elif op == "remove" and model:
            entry = model.pop(n % len(model))
            queue.remove(entry)
            removed.append(entry)
        elif op == "reappend" and removed:
            entry = removed.pop(n % len(removed))
            queue.append(entry, degradable=flag)
            model.append(entry)
        assert list(queue) == model
        assert len(queue) == len(model)
        assert all(entry in queue for entry in model)
        assert not any(entry in queue for entry in removed)
