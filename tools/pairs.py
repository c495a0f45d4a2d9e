"""Paired benchmark comparison of two checkouts.

Runs ``bench/run.py`` in a parent checkout and a changed checkout, pair by
pair, alternating which side runs first so that a drift in host load
favours neither, and summarises every end-to-end metric:

- each side's median and quartiles over the pairs;
- the change's wins: the pairs in which it is better than the parent in the
  direction BENCHMARK.json declares for the metric (a tie is no win);
- whether the gap between the medians exceeds the parent's interquartile
  spread.

``setup_s`` moves with host load by about as much as its bound, so after
every pair each side also runs two fresh-process set-up probes
(``bench/setup_probe.py``, timed as ``bench/run.py`` times setup_s), in the
order first, second, second, first; their summary is printed beside
setup_s and their raw values go in the JSON line under ``setup_probe``.

Whether ``setup_s`` held the compile time of ``src/clfqp`` is reported
beside it and in the JSON line under ``bytecode``: whether the child runs
write bytecode (they inherit this process's environment, and a non-empty
PYTHONDONTWRITEBYTECODE stops them) and whether each checkout had
``src/clfqp/__pycache__`` before the workload's first run and after its
last. A checkout without it, under children that write none, compiles every
source in every fresh process.

A speed claim here needs the change to win at least 9 of 10 pairs and the
median gap to exceed the parent's spread, on an unchanged fingerprint.
Pair i runs both sides with benchmark seed SEED + i. ``--workload`` may be
given several times: the workloads are compared one after another, each
ending on its summary and one line holding a JSON object with its raw
values, so "the claimed metric is better and no other is worse" takes one
command. The exit status is 1 when a run failed or reported
``correct: false``.

Usage, from anywhere:
    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload table \\
        [--workload spirob-qp-track ...] --pairs 10 --seconds 35 [--seed 0] \\
        [--scale smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              scale: str) -> dict:
    """The result line of one untraced benchmark run in ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0", "--scale", scale]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(checkout: Path, workload: str, seed: int, scale: str) -> float:
    """Seconds from starting a fresh interpreter in ``checkout`` to a ready
    workload: ``bench/setup_probe.py`` prints time.monotonic() when ready."""
    cmd = [sys.executable, "bench/setup_probe.py", workload, str(seed), scale]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")     # as bench/run.py sets it
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/setup_probe.py exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def has_pycache(args) -> dict:
    """Whether each checkout has compiled sources in src/clfqp/__pycache__."""
    return {side: (getattr(args, side) / "src" / "clfqp" / "__pycache__").is_dir()
            for side in ("parent", "change")}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles (q1, median, q3) of each side, the change's win count and
    whether the gap between the medians exceeds the parent's spread."""
    p, c = np.asarray(parent), np.asarray(change)
    p_q1, p_med, p_q3 = np.percentile(p, [25, 50, 75])
    c_q1, c_med, c_q3 = np.percentile(c, [25, 50, 75])
    wins = int(np.sum(c < p if better == "lower" else c > p))
    gap = c_med - p_med if better == "higher" else p_med - c_med
    return {"parent_quartiles": [float(p_q1), float(p_med), float(p_q3)],
            "change_quartiles": [float(c_q1), float(c_med), float(c_q3)],
            "wins": wins, "gap_beyond_iqr": bool(gap > p_q3 - p_q1)}


def report(name: str, s: dict, unit: str, direction: str, n: int) -> None:
    """One summary line of ``summarize``'s result over ``n`` pairs."""
    (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = s["parent_quartiles"], s["change_quartiles"]
    rel = c_med / p_med - 1.0 if p_med else float("nan")
    print(f"{name:>17} [{unit}, {direction} is better]: "
          f"parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
          f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  "
          f"{rel:+.1%}  wins {s['wins']} of {n}  "
          f"gap beyond parent IQR: {'yes' if s['gap_beyond_iqr'] else 'no'}")


def compare(args, workload: str, better: dict) -> bool:
    """Run ``args.pairs`` pairs of ``workload``, print their summary and its
    JSON line; returns whether every run was correct."""
    runs = {"parent": [], "change": []}
    probes = {"parent": [], "change": []}
    correct = True
    bytecode = {"writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
                "pycache_before": has_pycache(args)}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(getattr(args, side), workload, args.seed + i,
                               args.seconds, args.scale)
            correct &= result["correct"] is True and result["failed"] == 0
            runs[side].append(result)
        for side in order + order[::-1]:
            probes[side].append(probe_setup(getattr(args, side), workload,
                                            args.seed + i, args.scale))
        values = {side: runs[side][-1]["metrics"] for side in runs}
        print(f"{workload} pair {i + 1}/{args.pairs} seed {args.seed + i} first={order[0]}: "
              + " ".join(f"{name} {values['parent'][name]['value']:.4g}"
                         f"->{values['change'][name]['value']:.4g}" for name in better)
              + " setup probes " + " ".join(
                  f"{side} {probes[side][-2]:.4g},{probes[side][-1]:.4g}" for side in probes),
              flush=True)

    n = args.pairs
    bytecode["pycache_after"] = has_pycache(args)
    summary = {}
    setup_probe = dict(summarize(probes["parent"], probes["change"], "lower"),
                       unit="s", better="lower", **probes)
    print(f"\n{workload}, {n} pairs of {args.seconds:g} s (median [q1, q3]; "
          "wins = pairs where the change is better)")
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        s = summarize(values["parent"], values["change"], direction)
        unit = runs["change"][0]["metrics"][name]["unit"]
        report(name, s, unit, direction, n)
        summary[name] = dict(s, unit=unit, better=direction, **values)
        if name == "setup_s":
            report("setup probe", setup_probe, "s", "lower", 2 * n)
            before, after = bytecode["pycache_before"], bytecode["pycache_after"]
            print(f"{'bytecode':>17}: child runs write it: "
                  f"{'yes' if bytecode['writes_bytecode'] else 'no'}; src/clfqp/__pycache__ "
                  "before/after: " + ", ".join(
                      f"{side} {'yes' if before[side] else 'no'}/{'yes' if after[side] else 'no'}"
                      for side in before))
    print(f"correct: {str(correct).lower()}")
    print(json.dumps({"workload": workload, "pairs": n, "correct": correct,
                      "metrics": summary, "setup_probe": setup_probe,
                      "bytecode": bytecode}), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload to compare; repeat to compare several in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed of the first pair")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    correct = [compare(args, workload, better) for workload in args.workload]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
