"""The benchmark's workloads: one ExperimentSpec builder per name.

Every workload runs strategy ``hybrid-cost`` with 8 configurations,
``gpp_fraction`` 0.4 and area range (2000, 12000), on the default
engine and the default metrics collector.  Arrivals are open-loop
Poisson in *simulated* time; the host run is one batch job per rep.

A run of the benchmark executes reps of a workload on ``SUBSEEDS``
seeds derived from ``--seed`` (:func:`sub_seed`), so a reported median
is taken over several independent draws of the workload rather than
over one draw's luck.

``repro`` is imported lazily inside :func:`build_spec`, so
``run.py`` can read names and sizes without importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seeds per run, each derived from ``--seed``.
SUBSEEDS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload was chosen, its dominant layers, and the layers
    #: it bypasses (an optimization of those should leave it unchanged).
    why: str
    tasks: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "wide-grid",
            "64-node mesh, empty queue: routing and pricing grow with node "
            "count, one placement try per task. Dominant: network.route. "
            "Bypassed: dispatch rescans, faults.",
            tasks=160,
        ),
        Workload(
            "saturated",
            "2-node grid at 32 tasks/s, unbounded FIFO: every event rescans "
            "the queue. Dominant: matching.candidates + rms.plan. Bypassed: "
            "network.route, faults.",
            tasks=650,
        ),
        Workload(
            "long-stream",
            "2-node grid at 2 tasks/s, light load: fixed per-task cost of "
            "engine, collector and workload path, plus memory. Dominant: "
            "network.route, simulator.run. Bypassed: rescans, faults.",
            tasks=8_000,
        ),
        Workload(
            "link-chaos",
            "16 nodes under crashes, config faults, SEUs, link faults and a "
            "partition: topology writes beside route reads. Dominant: "
            "network.route. Only user of faults and retries.",
            tasks=1_200,
        ),
    )
}


def sub_seed(seed: int, index: int) -> int:
    """Seed of rep *index* of a run started with ``--seed seed``."""
    return seed * 1_000 + index


def scaled_tasks(workload: Workload, scale: float) -> int:
    return max(4, round(workload.tasks * scale))


def build_spec(name: str, seed: int, tasks: int):
    """The :class:`ExperimentSpec` of workload *name*."""
    from repro.sim.experiment import ExperimentSpec, NodeSpec
    from repro.sim.faults import FaultSpec

    common = dict(
        strategy="hybrid-cost",
        configurations=8,
        gpp_fraction=0.4,
        area_range=(2_000, 12_000),
        tasks=tasks,
        seed=seed,
    )
    # The canonical two-node reference grid (the CLI defaults).
    canonical = (
        NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",),
                 regions_per_rpe=3),
        NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",),
                 regions_per_rpe=2),
    )
    if name == "wide-grid":
        return ExperimentSpec(
            nodes=tuple(NodeSpec() for _ in range(64)),
            arrival_rate_per_s=4.0,
            **common,
        )
    if name == "saturated":
        # Far above the grid's ~4 tasks/s capacity, so the backlog is set
        # by the arrivals more than by the drawn service times, and the
        # rescan cost varies little from seed to seed.
        return ExperimentSpec(nodes=canonical, arrival_rate_per_s=32.0, **common)
    if name == "long-stream":
        return ExperimentSpec(nodes=canonical, arrival_rate_per_s=2.0, **common)
    if name == "link-chaos":
        rate = 4.0
        horizon = tasks / rate  # faults cover the whole arrival horizon
        return ExperimentSpec(
            nodes=tuple(NodeSpec() for _ in range(16)),
            arrival_rate_per_s=rate,
            faults=FaultSpec(
                crash_rate_per_s=0.04,
                config_fault_prob=0.10,
                seu_rate_per_s=0.01,
                link_fault_rate_per_s=0.5,
                degrade_factor=0.1,
                partition_window=(0.4 * horizon, 0.5 * horizon),
                horizon_s=horizon,
            ),
            **common,
        )
    raise ValueError(f"unknown workload {name!r}")
