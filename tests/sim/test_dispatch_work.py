"""Work-counter regression tests for the dispatch pass (no timing).

Under overload every arrival and completion re-runs the pending FIFO.
The pass's no-fit memo searches for candidates at most once per
requirement class per pass, and the class-indexed queue skips the rest
of a class that cannot fit, so both the ``find_candidates`` calls and
the entries the pass visits (``_try_dispatch`` calls) per task must
stay small and flat as a saturated run grows.  Without the memo the
canonical two-node grid at 32 tasks/s made ~215 searches per task at
650 tasks, and with the memo but a per-entry walk ~215 visits per
task, both growing with the queue depth.
"""

import pytest

import repro.grid.rms as rms_module
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.simulator import DReAMSim

#: The canonical two-node grid (the CLI defaults): ~4 tasks/s capacity.
CANONICAL = (
    NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
    NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
)


def work_per_task(tasks: int) -> dict[str, float]:
    """Candidate searches and pending-entry visits per task of one
    saturated run."""
    counts = {"searches": 0, "visits": 0}
    search = rms_module.find_candidates
    visit = DReAMSim._try_dispatch

    def counting_search(*args, **kwargs):
        counts["searches"] += 1
        return search(*args, **kwargs)

    def counting_visit(*args, **kwargs):
        counts["visits"] += 1
        return visit(*args, **kwargs)

    spec = ExperimentSpec(
        nodes=CANONICAL, arrival_rate_per_s=32.0, tasks=tasks,
        configurations=8, gpp_fraction=0.4, seed=0,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rms_module, "find_candidates", counting_search)
        patch.setattr(DReAMSim, "_try_dispatch", counting_visit)
        report = run_experiment(spec).report
    assert report.completed == tasks
    return {name: count / tasks for name, count in counts.items()}


@pytest.fixture(scope="module")
def work():
    return {n: work_per_task(n) for n in (300, 600)}


def test_saturated_run_searches_few_times_per_task(work):
    assert work[300]["searches"] < 10
    assert work[600]["searches"] < 10


def test_searches_per_task_stay_flat_as_the_queue_grows(work):
    assert work[600]["searches"] <= 1.5 * work[300]["searches"]


def test_saturated_run_visits_few_entries_per_task(work):
    assert work[300]["visits"] < 8
    assert work[600]["visits"] < 8


def test_visits_per_task_stay_flat_as_the_queue_grows(work):
    assert work[600]["visits"] <= 1.5 * work[300]["visits"]
