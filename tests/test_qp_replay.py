"""tools/qp_replay.py: the QPs of one benchmark round, replayed."""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
QP_LAWS = ["clf-qp", "soft-id-clf-qp", "ic-qp"]

_spec = importlib.util.spec_from_file_location("qp_replay", ROOT / "tools" / "qp_replay.py")
qp_replay = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(qp_replay)


def test_smoke_replay():
    cmd = [sys.executable, str(ROOT / "tools" / "qp_replay.py"), "--workload",
           "spirob-qp-track", "--scale", "smoke", "--repeats", "2"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and list(result["laws"]) == QP_LAWS
    for law, entry in result["laws"].items():
        assert entry["solves"] == 5 and entry["mismatches"] == 0 and entry["us"] > 0
        assert any(line.strip().startswith(f"{law}: solve_qp.us") for line in lines), law
    assert "correct: true" in lines


def test_records_the_rounds_qps_by_law():
    from clfqp import controllers

    solve = controllers.solve_qp
    records = qp_replay.record("table", scale="smoke")
    assert controllers.solve_qp is solve
    # 3 robots x (one set point + one tracking rate) x 3 steps per QP law
    assert {law: len(r) for law, r in records.items()} == {law: 18 for law in QP_LAWS}


def test_a_changed_solution_is_a_mismatch():
    records = qp_replay.record("spirob-qp-track", scale="smoke")["ic-qp"]

    def nudged(prob, warm_start=None):
        sol = qp_replay.qp.solve_qp(prob, warm_start=warm_start)
        return dataclasses.replace(sol, x_star=sol.x_star + 1e-15 * (1 + abs(sol.x_star)))

    assert qp_replay.replay({"ic-qp": records}, 1)["ic-qp"]["mismatches"] == 0
    assert qp_replay.replay({"ic-qp": records}, 2, solve=nudged)["ic-qp"]["mismatches"] == \
        len(records)


def test_each_pass_goes_over_every_law():
    solution = SimpleNamespace(x_star=np.zeros(1), status=qp_replay.qp.QpStatus.OPTIMAL,
                               active_set=(), iterations=1)
    by_law = {law: [qp_replay.Record(prob=(law, i), warm_start=None, solution=solution)
                    for i in range(n)] for law, n in (("clf-qp", 2), ("ic-qp", 3))}
    order = []

    def stub(prob, warm_start=None):
        order.append(prob)
        return solution

    result = qp_replay.replay(by_law, 3, solve=stub)
    one_pass = [("clf-qp", 0), ("clf-qp", 1), ("ic-qp", 0), ("ic-qp", 1), ("ic-qp", 2)]
    assert order == one_pass * 3
    assert {law: (r["solves"], r["mismatches"]) for law, r in result.items()} == {
        "clf-qp": (2, 0), "ic-qp": (3, 0)}
