"""Property-based differential: the two run entry points agree.

An :class:`ExperimentSpec` and its seed name exactly one workload.
:func:`run_experiment` submits it eagerly (one JSS job per task);
:func:`run_scale_experiment` bulk-submits the same workload as
columns.  Both record into the one metrics collector, and submission
is a host-side choice only, so the two reports must be equal down to
``repr`` (which also tells a numpy scalar from the float it equals).
The specs arm admission, faults, failover, resilience and SLO
objectives together, with flash crowds, low-priority tasks and tenants.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.experiment import ExperimentSpec, run_experiment, run_scale_experiment
from tests.properties.test_prop_nofit_memo import (
    admission_specs,
    failover_specs,
    fault_specs,
    resilience_specs,
    slo_specs,
)

flash_crowds = st.one_of(
    st.none(),
    st.tuples(st.floats(0.0, 3.0), st.floats(0.5, 3.0), st.floats(1.0, 8.0)),
)


@given(
    admission=st.one_of(st.none(), admission_specs),
    faults=fault_specs,
    failover=failover_specs,
    resilience=resilience_specs,
    slo=slo_specs,
    flash_crowd=flash_crowds,
    low_priority_fraction=st.sampled_from((0.0, 0.3, 0.7)),
    tenants=st.sampled_from((1, 2)),
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(0, 60),
)
@settings(max_examples=200, deadline=None)
def test_scale_path_reports_what_the_standard_path_reports(
    admission, faults, failover, resilience, slo, flash_crowd,
    low_priority_fraction, tenants, seed, tasks,
):
    spec = ExperimentSpec(
        tasks=tasks, configurations=4, arrival_rate_per_s=16.0,
        area_range=(2_000, 14_000), gpp_fraction=0.4, seed=seed,
        admission=admission, faults=faults, failover=failover,
        resilience=resilience, slo=slo, flash_crowd=flash_crowd,
        low_priority_fraction=low_priority_fraction, tenants=tenants,
    )
    assert repr(run_scale_experiment(spec).report) == repr(
        run_experiment(spec).report
    )
