"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It runs both modes of ``run.py`` on every workload at ``SMOKE_SCALE``
(the default seed, whose digests ``reference.json`` stores for that
size), and checks that every metric is emitted with its unit, that
every output check passed, that the output checks do catch a broken
rep, and that ``BENCHMARK.json`` matches the benchmark's own tables.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, MIN_REPS, PER_LAYER, SMOKE_SCALE, RepFailed, check_rep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, table", [(0, END_TO_END), (1, PER_LAYER)])
def test_all_workloads_emit_every_metric_and_pass_checks(trace, table):
    proc = bench("--workload", "all", "--seconds", "0",
                 "--scale", str(SMOKE_SCALE), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == MIN_REPS * len(WORKLOADS)
    expected = {f"{w}.{m}": unit for w in WORKLOADS for m, unit in table.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in WORKLOADS:
        assert f"{name}  ({MIN_REPS} of {MIN_REPS} reps ok, error_rate 0.0000" in proc.stdout


def test_one_workload_reports_bare_metric_names():
    proc = bench("--workload", "link-chaos", "--seconds", "0",
                 "--scale", str(SMOKE_SCALE))
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    assert set(metrics) == set(END_TO_END)
    assert all(v["value"] > 0 for v in metrics.values())


def test_checks_reject_lost_tasks_and_wrong_digests():
    stats = {"completed": 3, "failed": 1, "discarded": 0, "shed": 0, "pending": 0}
    rep = {"tasks": 4, "seed": 0, "stats": stats, "digest": "abc"}
    check_rep(rep, 4, "abc")
    with pytest.raises(RepFailed, match="conservation"):
        check_rep(rep, 5, None)
    with pytest.raises(RepFailed, match="digest"):
        check_rep(rep, 4, "def")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "wide-grid", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    for metric in spec["end_to_end"]:
        assert metric["better"] == "lower" and 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
