"""Replay the QPs of one benchmark round through ``solve_qp``.

Records every QP that one round of a benchmark workload solves (the plan
comes from ``bench/workloads.py``, unchanged), with the warm start it was
given and the solution it got, then solves them again in process in
REPEATS passes, each pass over every law's QPs in turn, in order. A law's
time is the mean over its QPs of each one's fastest solve, in
microseconds, so host noise that moves a whole benchmark run's per-layer
times barely moves it, and a slow phase of the host lands on every law
alike rather than on the law whose passes it overlaps.

Every replayed solution must equal the recorded one bit for bit (x_star
with its signs, status, active set, iterations); the exit status is 1
when one does not. The last line of standard output is one JSON object.

Usage, from anywhere:
    python3 tools/qp_replay.py --workload spirob-qp-track [--repeats 20] \\
        [--seed 0] [--scale full]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# Every matrix is small; BLAS threads only add contention (as in bench/run.py).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from clfqp import controllers, qp  # noqa: E402


@dataclass
class Record:
    """One recorded solve: the problem, its warm start and its solution."""

    prob: qp.QpProblem
    warm_start: tuple | None
    solution: qp.QpSolution


def record(workload: str, seed: int = 0, scale: str = "full") -> dict[str, list[Record]]:
    """Every QP one round of ``workload`` solves, by law, in solve order."""
    calls = workloads.plan(workload, seed, scale)
    specs = workloads.setup(calls)
    by_law = {}
    law = [None]
    solve = controllers.solve_qp

    def recording(prob, warm_start=None, max_iter=None):
        sol = solve(prob, warm_start=warm_start, max_iter=max_iter)
        by_law.setdefault(law[0], []).append(Record(prob, warm_start, sol))
        return sol

    controllers.solve_qp = recording
    try:
        with tempfile.TemporaryDirectory() as out:
            for call in calls:      # one suite call at a time, to know its law
                law[0] = call.controller
                workloads.run_round([call], specs, Path(out))
    finally:
        controllers.solve_qp = solve
    return by_law


def same(a: qp.QpSolution, b: qp.QpSolution) -> bool:
    """Bitwise equality of the parts of a solution a step uses."""
    return (np.array_equal(a.x_star, b.x_star)
            and np.array_equal(np.signbit(a.x_star), np.signbit(b.x_star))
            and a.status is b.status and a.active_set == b.active_set
            and a.iterations == b.iterations)


def replay(by_law: dict[str, list[Record]], repeats: int, solve=qp.solve_qp) -> dict:
    """Every law's records solved ``repeats`` times with ``solve``, in
    ``repeats`` passes that each go over every law's records in turn. Per
    law: the mean over its records of each one's fastest solve, in
    microseconds, and the solves not bitwise equal to their record (counted
    in the first pass)."""
    best = {law: np.full(len(records), np.inf) for law, records in by_law.items()}
    mismatches = dict.fromkeys(by_law, 0)
    for r in range(repeats):
        for law, records in by_law.items():
            for i, rec in enumerate(records):
                t0 = time.perf_counter()
                sol = solve(rec.prob, warm_start=rec.warm_start)
                best[law][i] = min(best[law][i], time.perf_counter() - t0)
                if r == 0:
                    mismatches[law] += not same(sol, rec.solution)
    return {law: {"solves": len(records), "us": float(best[law].mean()) * 1e6,
                  "iters_mean": float(np.mean([rec.solution.iterations for rec in records])),
                  "mismatches": mismatches[law]}
            for law, records in by_law.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    laws = replay(record(args.workload, args.seed, args.scale), args.repeats)
    for law, r in laws.items():
        print(f"{law:>15}: solve_qp.us = {r['us']:.1f} us over {r['solves']} solves "
              f"(each the fastest of {args.repeats}), iters_mean {r['iters_mean']:.3f}, "
              f"mismatches {r['mismatches']}")
    correct = all(r["mismatches"] == 0 for r in laws.values())
    print(f"correct: {str(correct).lower()}")
    print(json.dumps({"workload": args.workload, "repeats": args.repeats,
                      "correct": correct, "laws": laws}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
