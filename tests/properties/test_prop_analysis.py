"""Property-based tests for causal run analysis.

The headline invariant is conservation: whatever the run throws at a
task -- admission deferrals, brownout, faults with retries and GPP
fallback, control-plane failover with orphan recovery -- the phase
ledger folded from its trace must sum to its turnaround exactly
(within 1e-9).  The analysis layer is a pure
fold over the trace, so determinism is structural: identical traces
must analyze identically, down to the exemplar task ids.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.analysis import CONSERVATION_TOL, PHASES, analyze_events
from repro.sim.tracing import TraceEvent
from tests.properties.test_prop_failover import (
    admission_specs,
    control_plane_faults,
    failover_specs,
    run_chaos_burst,
)


def analyze_lines(lines):
    return analyze_events([TraceEvent.from_json(line) for line in lines])


@given(
    failover=st.one_of(st.none(), failover_specs),
    faults=st.one_of(st.none(), control_plane_faults),
    admission=admission_specs,
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(1, 24),
)
@settings(max_examples=25, deadline=None)
def test_phases_sum_to_turnaround_under_chaos(
    failover, faults, admission, seed, tasks
):
    report, _, lines = run_chaos_burst(
        failover, faults, admission, seed, tasks
    )
    analysis = analyze_lines(lines)
    # Every submission folded into a ledger...
    assert len(analysis.ledgers) == tasks
    # ... and every terminal ledger conserves exactly.
    assert analysis.conservation_violations(tol=CONSERVATION_TOL) == []
    # The ledger's outcome census agrees with the report's.
    outcomes = [l.outcome for l in analysis.ledgers.values()]
    assert outcomes.count("complete") == report.completed
    assert outcomes.count("failed") == report.failed
    assert outcomes.count("shed") == report.shed
    assert outcomes.count("discarded") == report.discarded
    # No phase can absorb negative time.
    for ledger in analysis.ledgers.values():
        for phase in PHASES:
            assert ledger.phases[phase] >= 0.0
    # Feature-off implies phase-zero: no admission layer, no admission
    # or brownout time; no faults, no recovery or orphan time.
    if admission is None:
        for ledger in analysis.ledgers.values():
            assert ledger.phases["admission"] == 0.0
            assert ledger.phases["brownout"] == 0.0
    if faults is None:
        for ledger in analysis.ledgers.values():
            assert ledger.phases["recovery"] == 0.0
            assert ledger.phases["orphan"] == 0.0


@given(
    faults=control_plane_faults,
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(4, 24),
)
@settings(max_examples=10, deadline=None)
def test_exemplars_are_deterministic_for_a_seed(faults, seed, tasks):
    """Same seed, same run, same analysis: the exemplar capture has no
    hidden iteration-order or tie-break nondeterminism."""
    *_, first_lines = run_chaos_burst(None, faults, None, seed, tasks)
    *_, second_lines = run_chaos_burst(None, faults, None, seed, tasks)
    first = analyze_lines(first_lines)
    second = analyze_lines(second_lines)
    assert first.percentiles == second.percentiles
    for bucket in ("p50", "p95", "p99"):
        assert (
            [l.key for l in first.exemplars.get(bucket, [])]
            == [l.key for l in second.exemplars.get(bucket, [])]
        )
    assert first.dominant_phase("p99") == second.dominant_phase("p99")
