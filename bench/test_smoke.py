"""Smoke test of the benchmark itself.

Runs every workload at the tiny "smoke" episode length with tracing off and
on, and checks that every metric BENCHMARK.json names is printed with its
unit, that the fingerprint check fires on a perturbed reference, and that
the benchmark refuses to run without the program's source.

Usage, from the repository root:
    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402


def run_bench(workload, trace=0, cwd=ROOT, extra=()):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_prints_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def test_fingerprint_check_fires_on_perturbed_reference(tmp_path):
    doc = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    key = "finger/uic/setpoint/theta2/t0.005"
    doc["episodes"][key]["hash"] = "0" * 64
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_bench("finger-ic-setpoints", extra=("--reference", str(perturbed)))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert f"mismatch: {key}" in proc.stdout


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("table", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_picks_table_grid_points():
    default = workloads.plan("table", 0, "full")
    assert len(default) == 30
    for call in default:
        grid = (workloads.experiments.THETA_GRID if call.experiment == "setpoint"
                else workloads.experiments.OMEGA_GRID)
        assert np.isclose(grid[call.grid_indices[0]], 0.5 * np.pi)
    assert workloads.plan("table", 7, "full") == workloads.plan("table", 7, "full")
    assert workloads.plan("table", 7, "full") != default
    assert workloads.plan("spirob-qp-track", 7, "full") == workloads.plan(
        "spirob-qp-track", 0, "full")


def test_reference_covers_every_seedable_episode():
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["episodes"]
    for scale in workloads.EPISODE_T_END:
        for workload in workloads.WORKLOADS:
            for call in workloads.reference_plan(workload, scale):
                for i in call.grid_indices:
                    assert call.episode_key(i) in reference
