"""Work-counter regression tests for the dispatch pass (no timing).

Under overload every arrival and completion re-runs the pending FIFO.
The pass's no-fit memo searches for candidates at most once per
requirement class per pass, so the number of ``find_candidates`` calls
per task must stay small and flat as a saturated run grows.  Without
the memo the canonical two-node grid at 32 tasks/s made ~215 calls per
task at 650 tasks, growing with the queue depth.
"""

import pytest

import repro.grid.rms as rms_module
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment

#: The canonical two-node grid (the CLI defaults): ~4 tasks/s capacity.
CANONICAL = (
    NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
    NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
)


def candidate_searches_per_task(tasks: int) -> float:
    calls = 0
    search = rms_module.find_candidates

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return search(*args, **kwargs)

    spec = ExperimentSpec(
        nodes=CANONICAL, arrival_rate_per_s=32.0, tasks=tasks,
        configurations=8, gpp_fraction=0.4, seed=0,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rms_module, "find_candidates", counting)
        report = run_experiment(spec).report
    assert report.completed == tasks
    return calls / tasks


@pytest.fixture(scope="module")
def searches():
    return {n: candidate_searches_per_task(n) for n in (300, 600)}


def test_saturated_run_searches_few_times_per_task(searches):
    assert searches[300] < 10
    assert searches[600] < 10


def test_searches_per_task_stay_flat_as_the_queue_grows(searches):
    assert searches[600] <= 1.5 * searches[300]
