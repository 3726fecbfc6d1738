"""The repository benchmark: DReAMSim host time, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload all --seconds 10
    python3 perfbench/run.py --workload wide-grid --seed 3 --seconds 20 --trace 1

Each workload (see ``workloads.py``) runs through the public
``repro.sim.experiment.run_experiment`` entry point, one fresh process
per rep (``rep.py``).  A run cycles over ``SUBSEEDS`` seeds derived
from ``--seed``, one rep per seed in turn, until ``--seconds`` have
passed and at least ``MIN_REPS`` reps have run.

``--trace 0`` reports the end-to-end metrics, as the median over the
reps: ``setup_s`` (entering ``run_experiment`` until ``DReAMSim.run`` is
entered), ``us_per_task`` (host time in ``DReAMSim.run`` per task),
``wall_s`` (the whole ``run_experiment`` call) and ``peak_rss_mb`` (RSS
high-water mark over the post-import RSS).  ``--trace 1`` pairs every
untraced rep with a traced rep of the same seed and reports the
per-layer metrics of ``tracer.py`` instead, as medians over the traced
reps.  Host times are scaled to the reference host's speed, measured
while each rep runs (``calibrate.py``); the unscaled wall time and the
host's speed are printed beside them.

Every rep's outputs are checked: tasks are conserved (completed +
failed + discarded + shed + pending == tasks), a seed repeated within
the run reproduces its digest of simulated statistics, a traced rep
reproduces its untraced twin's digest, and at the default seed every
digest equals the one stored in ``reference.json``.  A rep failing any
check counts in ``failed``; ``error_rate`` is failed / attempted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when one failed, and 2 when the
program's sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

from workloads import SUBSEEDS, WORKLOADS, scaled_tasks, sub_seed  # noqa: E402

DEFAULT_SEED = 0
#: Task scale of the smoke test; ``--write-reference`` stores its
#: digests next to the full-size ones.
SMOKE_SCALE = 0.02
MIN_REPS = 4
#: No new rep starts after this many seconds in one workload, and a rep
#: (normally a few seconds) is killed after REP_TIMEOUT_S, so a run ends
#: within three minutes even on a slow host.
REP_CUTOFF_S = 110.0
REP_TIMEOUT_S = 30.0

END_TO_END = {
    "setup_s": "s",
    "us_per_task": "us",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "network.route.calls": "count",
    "network.route.self_s": "s",
    "network.route.calls_per_task": "count",
    "network.writes": "count",
    "network.writes_per_route": "ratio",
    "matching.candidates.calls": "count",
    "matching.candidates.self_s": "s",
    "matching.candidates.per_call": "count",
    "matching.candidates.calls_per_task": "count",
    "rms.price.calls": "count",
    "rms.price.self_s": "s",
    "rms.price.calls_per_task": "count",
    "rms.plan.calls": "count",
    "rms.plan.self_s": "s",
    "rms.plan.yield": "fraction",
    "rms.plan.calls_per_task": "count",
    "rms.lifecycle.calls": "count",
    "rms.lifecycle.self_s": "s",
    "scheduling.choose.calls": "count",
    "scheduling.choose.self_s": "s",
    "scheduling.choose.calls_per_task": "count",
    "virtualizer.plan.calls": "count",
    "virtualizer.plan.self_s": "s",
    "virtualizer.plan.calls_per_task": "count",
    "simulator.run.self_s": "s",
    "engine.events": "count",
    "engine.events_per_task": "count",
    "metrics.record.calls": "count",
    "metrics.record.self_s": "s",
    "metrics.record.calls_per_task": "count",
    "metrics.report.self_s": "s",
    "workload.generate.self_s": "s",
    "experiment.build_grid.self_s": "s",
    "faults.events": "count",
    "faults.retries": "count",
    "trace.overhead": "ratio",
}


#: Spans that run before DReAMSim.run, so outside the traced run_s.
SETUP_SPANS = ("workload.generate.self_s", "experiment.build_grid.self_s")


class RepFailed(Exception):
    """A rep crashed or failed an output check."""


def run_rep(name: str, seed: int, tasks: int, trace: bool) -> dict:
    """One rep in a fresh process (``rep.py``); returns its JSON."""
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", name, "--seed", str(seed),
        "--tasks", str(tasks), "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"rep timed out after {REP_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RepFailed(f"rep exited with code {proc.returncode}: {tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RepFailed(f"rep printed no result: {proc.stdout[-200:]!r}") from None


def check_rep(rep: dict, tasks: int, expected_digest: str | None) -> None:
    stats = rep["stats"]
    accounted = (stats["completed"] + stats["failed"] + stats["discarded"]
                 + stats["shed"] + stats["pending"])
    if rep["tasks"] != tasks or accounted != tasks:
        raise RepFailed(f"conservation: {accounted} of {tasks} tasks accounted for")
    if expected_digest is not None and rep["digest"] != expected_digest:
        raise RepFailed(
            f"digest {rep['digest']} != expected {expected_digest} "
            f"(seed {rep['seed']}, stats {stats})"
        )


def measure(name: str, args, reference: dict) -> dict:
    """Run the reps of one workload; returns counts, medians, failures."""
    tasks = scaled_tasks(WORKLOADS[name], args.scale)
    seeds = [sub_seed(args.seed, i) for i in range(SUBSEEDS)]
    stored = (
        reference.get(name, {}).get(str(tasks))
        if args.seed == DEFAULT_SEED else None
    )
    digests: dict[int, str] = {}
    if stored is not None:
        digests = dict(zip(seeds, stored))
    samples: dict[str, list[float]] = {}
    attempted = failed = 0
    start = time.monotonic()
    i = 0
    while i < MIN_REPS or time.monotonic() - start < args.seconds:
        if time.monotonic() - start > REP_CUTOFF_S:
            print(f"{name}: rep cutoff reached after {i} reps", file=sys.stderr)
            break
        seed = seeds[i % SUBSEEDS]
        i += 1
        attempted += 1
        try:
            rep = run_rep(name, seed, tasks, False)
            check_rep(rep, tasks, digests.get(seed))
            digests.setdefault(seed, rep["digest"])
            values = {
                "setup_s": rep["setup_s"],
                "us_per_task": rep["run_s"] / tasks * 1e6,
                "wall_s": rep["wall_s"],
                "peak_rss_mb": rep["peak_rss_mb"],
                "raw_wall_s": rep["raw_wall_s"],
                "speed": rep["speed"],
            }
            if args.trace:
                traced = run_rep(name, seed, tasks, True)
                check_rep(traced, tasks, digests[seed])
                values = dict(traced["layers"])
                values["run_s"] = traced["run_s"]
                values["trace.overhead"] = traced["run_s"] / rep["run_s"]
        except RepFailed as exc:
            failed += 1
            print(f"{name}: rep {i} (seed {seed}) failed: {exc}", file=sys.stderr)
            continue
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    wanted = PER_LAYER if args.trace else END_TO_END
    medians = {key: statistics.median(v) for key, v in samples.items()}
    return {
        "attempted": attempted,
        "failed": failed,
        "reps": attempted - failed,
        "metrics": {key: medians[key] for key in wanted if key in medians},
        "medians": medians,
    }


def print_workload(name: str, result: dict, trace: bool) -> None:
    error_rate = result["failed"] / result["attempted"]
    medians = result["medians"]
    print(f"{name}  ({result['reps']} of {result['attempted']} reps ok, "
          f"error_rate {error_rate:.4f} fraction)")
    if not trace and medians:
        print(f"  host speed {medians['speed']:.3f} x reference; "
              f"unscaled wall_s {medians['raw_wall_s']:.4f} s")
    units = PER_LAYER if trace else END_TO_END
    for key, value in result["metrics"].items():
        share = ""
        if trace and key.endswith(".self_s") and key not in SETUP_SPANS:
            share = f"   {100 * value / medians['run_s']:5.1f}% of traced run_s"
        print(f"  {key:36s} {value:14.6g} {units[key]}{share}")


def write_reference() -> int:
    reference: dict = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for scale in (1.0, SMOKE_SCALE):
            tasks = scaled_tasks(workload, scale)
            digests = []
            for i in range(SUBSEEDS):
                rep = run_rep(name, sub_seed(DEFAULT_SEED, i), tasks, False)
                check_rep(rep, tasks, None)
                digests.append(rep["digest"])
            reference[name][str(tasks)] = digests
            print(f"{name} @ {tasks} tasks: {digests}")
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="DReAMSim host-time benchmark (see module docstring)."
    )
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced reps")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="task-count scale (the smoke test uses "
                        f"{SMOKE_SCALE})")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's digests and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: no program sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from all, "
                     + ", ".join(WORKLOADS))
    if args.scale <= 0 or args.seed < 0 or args.seconds < 0:
        parser.error("--scale must be positive, --seed and --seconds non-negative")
    if args.write_reference:
        return write_reference()

    reference = json.loads(REFERENCE.read_text())
    results = {}
    for name in names:
        results[name] = measure(name, args, reference)
        print_workload(name, results[name], bool(args.trace))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    correct = failed == 0 and all(
        len(r["metrics"]) == len(units) for r in results.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
