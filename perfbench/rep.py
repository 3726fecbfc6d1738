"""One rep: one workload run once through ``run_experiment``, in a
fresh process.

Usage (from the repository root)::

    python3 perfbench/rep.py --workload wide-grid --seed 0 --tasks 160 --trace 0

prints one JSON object: host times at the reference host's speed (see
``calibrate.py``), the RSS growth over the post-import RSS, the
simulated statistics with their digest, and, with ``--trace 1``, the
per-layer metrics of :class:`~tracer.LayerTracer`.
``run.py`` starts one such process per rep, so no rep inherits heap
state or an RSS high-water mark from another.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _status_kib(field: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def _reset_peak_rss() -> None:
    """Reset the RSS high-water mark to the current RSS."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def simulated_stats(report) -> dict:
    return {
        "completed": report.completed,
        "failed": report.failed,
        "discarded": report.discarded,
        "shed": report.shed,
        "pending": report.pending,
        "makespan_s": report.makespan_s,
        "mean_turnaround_s": report.mean_turnaround_s,
        "p95_turnaround_s": report.p95_turnaround_s,
        "reuse_rate": report.reuse_rate,
        "reconfigurations": report.reconfigurations,
        "retries": report.retries,
    }


def digest(stats: dict) -> str:
    """Digest of the simulated statistics (floats by exact repr)."""
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()[:16]


def run_rep(name: str, seed: int, tasks: int, trace: bool) -> dict:
    import repro.sim.experiment as experiment
    from repro.scheduling import ALL_STRATEGIES
    from repro.sim.simulator import DReAMSim

    from calibrate import SpeedSampler
    from tracer import LayerTracer
    from workloads import build_spec

    spec = build_spec(name, seed, tasks)
    tracer = None
    if trace:
        tracer = LayerTracer()
        tracer.install(ALL_STRATEGIES[spec.strategy])
    # Timestamps of the entry to and exit from DReAMSim.run, which split
    # set-up from the run (outermost wrapper, outside the tracer's span).
    marks: dict[str, float] = {}
    traced_run = DReAMSim.run

    @functools.wraps(traced_run)
    def marked_run(sim, *args, **kwargs):
        marks["run_start"] = time.perf_counter()
        try:
            return traced_run(sim, *args, **kwargs)
        finally:
            marks["run_end"] = time.perf_counter()

    DReAMSim.run = marked_run
    sampler = SpeedSampler(on_sample=tracer.exclude if tracer else None)
    _reset_peak_rss()
    rss_base = _status_kib("VmRSS")
    try:
        with sampler:
            start = time.perf_counter()
            report = experiment.run_experiment(spec).report
            end = time.perf_counter()
    finally:
        DReAMSim.run = traced_run
        if tracer is not None:
            tracer.remove()
    rss_peak = _status_kib("VmHWM")

    stats = simulated_stats(report)
    run_start, run_end = marks["run_start"], marks["run_end"]
    out = {
        "workload": name,
        "seed": seed,
        "tasks": spec.tasks,
        "stats": stats,
        "digest": digest(stats),
        "speed": sampler.speed(),
        "setup_s": sampler.host_time(start, run_start),
        "run_s": sampler.host_time(run_start, run_end),
        "wall_s": sampler.host_time(start, end),
        "raw_wall_s": end - start,
        "peak_rss_mb": (rss_peak - rss_base) / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.layers(
            tasks=spec.tasks, report=report, speed=sampler.speed()
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark rep.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tasks", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the whole rep, so the speed samples describe the CPU
    # the program ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    print(json.dumps(run_rep(args.workload, args.seed, args.tasks, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
