"""clfqp benchmark.

Runs one workload (see workloads.py) in rounds for a fixed time budget from
one process on one thread, checks every episode against the committed
fingerprints in reference.json, and prints every metric by name with its
unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With ``--trace 1`` rounds alternate between
untraced and traced with spans around the public clfqp functions
(tracer.py); the metrics are the per-layer metrics. Spans and a
full result record are written under .bench_out/ in the working directory.

Usage, from the repository root:
    python3 bench/run.py --workload table --seed 0 --seconds 35 --trace 0
"""

import os

# Every matrix is at most 46x46; BLAS threads only add contention.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

MIN_TAIL_SAMPLES = 1020      # p99 then has at least ten samples beyond it
HOST_SAMPLES_PER_ROUND = 30
# Fastest HostProbe.run time on the 2-core Xeon host the benchmark was
# written on, measured when the host was quiet; timings are scaled to it.
HOST_NOMINAL_S = 2.0e-3


def require_source() -> None:
    """Put the checkout's src/ first on sys.path; exit if it is missing."""
    if not (SRC / "clfqp" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'clfqp'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import clfqp

    if not Path(clfqp.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported clfqp from {clfqp.__file__}, not from {SRC}")


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(args) -> float:
    """Seconds from starting a fresh interpreter to a ready workload."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), args.workload,
           str(args.seed), args.scale]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


class HostProbe:
    """A fixed computation that uses no clfqp code (small numpy arrays, a
    Cholesky solve and a Python loop, like a control step). Its time tracks
    how fast the shared host runs at the moment."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((27, 27))
        self._np = np
        self._spd = a @ a.T + 27.0 * np.eye(27)
        self._vec = rng.standard_normal((27, 3))

    def run(self) -> float:
        """Seconds one pass of the computation takes."""
        np = self._np
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(40):
            c = np.cumsum(self._vec, axis=0)
            y = np.linalg.solve(np.linalg.cholesky(self._spd), np.cross(c, self._vec))
            acc += float(np.einsum("ij,ij->", y, y)) + sum(i * 0.5 for i in range(50))
        return time.perf_counter() - t0


class Timeline:
    """Timestamps of one round: a mark before the first suite call, at the
    entry of every controller step and after each suite call, plus the
    latency of every controller step. Consecutive marks cut the round into
    segments that are the same work in every round. With a probe, each
    mark after a suite call first runs the HostProbe ``probes_per_mark``
    times; those times go to ``host`` and are taken out of the segment they
    fell in."""

    def __init__(self, probe: HostProbe | None = None, probes_per_mark: int = 0):
        self.marks: list[float] = []
        self.bounds: list[int] = []      # indices of the suite-call marks
        self.latencies: list[float] = []
        self.host: list[float] = []
        self.paused: list[int] = []      # segment index of each host entry
        self._probe = probe
        self._probes_per_mark = probes_per_mark

    def mark(self):
        if self._probe is not None and self.marks:
            for _ in range(self._probes_per_mark):
                self.paused.append(len(self.marks) - 1)
                self.host.append(self._probe.run())
        self.bounds.append(len(self.marks))
        self.marks.append(time.perf_counter())

    def segments(self):
        import numpy as np

        seconds = np.diff(self.marks)
        np.subtract.at(seconds, self.paused, self.host)
        return seconds


class TimedController:
    """Controller proxy that marks the timeline at every step."""

    def __init__(self, inner, timeline: Timeline, wrap):
        self._inner = inner
        self._timeline = timeline
        self._step = wrap("controllers.step", inner.step)

    def reset(self):
        self._inner.reset()

    def step(self, state, ref):
        t0 = time.perf_counter()
        self._timeline.marks.append(t0)
        out = self._step(state, ref)
        self._timeline.latencies.append(time.perf_counter() - t0)
        return out


def no_wrap(name, fn):
    return fn


def run_rounds(calls, specs, out_dir, budget, tracer=None):
    """Repeat the workload's round until another round would overrun the
    budget; at least one round always runs. With a tracer, rounds alternate
    untraced and traced, so that both kinds see the same host load, and end
    on a traced round. Returns the (result, timeline) pairs of the untraced
    and of the traced rounds."""
    from clfqp import experiments

    import workloads

    original = experiments.make_controller
    current = [None, no_wrap]      # timeline and wrap of the running round

    def make_timed(name, model, gains):
        return TimedController(original(name, model, gains), *current)

    experiments.make_controller = make_timed
    probe = HostProbe()
    probes_per_mark = -(-HOST_SAMPLES_PER_ROUND // len(calls))
    untraced, traced = [], []
    start = time.perf_counter()
    try:
        while True:
            tracing = tracer is not None and len(traced) < len(untraced)
            # no probes in traced rounds: their time would land in the spans
            current[:] = [Timeline() if tracing else Timeline(probe, probes_per_mark),
                          tracer.wrap if tracing else no_wrap]
            if tracing:
                tracer.install()
            try:
                result = workloads.run_round(calls, specs, out_dir, current[1],
                                             current[0].mark)
            finally:
                if tracing:
                    tracer.uninstall()
            timeline = current[0]
            (traced if tracing else untraced).append((result, timeline))
            marks = timeline.marks
            over = time.perf_counter() - start + marks[-1] - marks[0] > budget
            if over and (tracer is None or tracing):
                return untraced, traced
    finally:
        experiments.make_controller = original


def fastest(rounds):
    """Interference-filtered round over identical rounds. Returns the round's
    seconds with every segment at its fastest, every step position's fastest
    latency, a pooled latency sample that keeps each position's k fastest
    (k chosen so the sample has at least MIN_TAIL_SAMPLES values), the
    seconds of every suite call, and the host factor: HOST_NOMINAL_S over
    the mean of every HostProbe position's fastest time (1.0 for rounds
    run without probes)."""
    import numpy as np

    timelines = [t for _, t in rounds]
    segments = np.min([t.segments() for t in timelines], axis=0)
    ordered = np.sort([t.latencies for t in timelines], axis=0)
    k = -(-MIN_TAIL_SAMPLES // ordered.shape[1])
    bounds = timelines[0].bounds
    per_call = [float(segments[a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])]
    host = 1.0
    if timelines[0].host:
        host = HOST_NOMINAL_S / float(np.min([t.host for t in timelines], axis=0).mean())
    return float(segments.sum()), ordered[0], ordered[:k].ravel(), per_call, host


def percentile(values, q: int) -> float:
    return statistics.quantiles(values.tolist(), n=100)[q - 1]


def end_to_end_metrics(rounds, specs, setup_times) -> tuple[dict, dict]:
    import workloads

    wall, step_fastest, pooled, per_call, host = fastest(rounds)
    wall, step_fastest, pooled = wall * host, step_fastest * host, pooled * host
    per_call = [seconds * host for seconds in per_call]
    first = rounds[0][0]
    p99 = percentile(pooled, 99)
    cell_time, cell_steps = {}, {}
    for cell, seconds, steps in zip(first.call_cells, per_call, first.call_steps):
        cell_time[cell] = cell_time.get(cell, 0.0) + seconds
        cell_steps[cell] = cell_steps.get(cell, 0) + steps
    cell_rate = {cell: cell_steps[cell] / cell_time[cell] for cell in cell_time}
    proj_s = sum(workloads.full_protocol_steps(specs[cell.split("/")[0]]) / rate
                 for cell, rate in cell_rate.items())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "steps_per_s": first.steps / wall,
        "ctrl_step_p50_us": percentile(step_fastest, 50) * 1e6,
        "table_proj_h": proj_s / 3600.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = [float(t.segments().sum()) for _, t in rounds]
    extra = {"host_factor": host,
             "ctrl_step_p99_us": p99 * 1e6,
             "ctrl_step_samples": len(pooled),
             "ctrl_step_beyond_p99": int((pooled > p99).sum()),
             "raw_round_wall_s": raw,
             "setup_s_runs": setup_times,
             "cell_steps_per_s": cell_rate}
    return metrics, extra


# per-layer metric -> (span, statistic); statistics are per call unless named
# per step or per row, in microseconds unless named ms
SPAN_METRICS = {
    "multibody.chain_pose.us": ("multibody.chain_pose", "us"),
    "multibody.chain_pose.calls_per_step": ("multibody.chain_pose", "calls_per_step"),
    "multibody.chain_motion.us": ("multibody.chain_motion", "us"),
    "multibody.chain_motion.calls_per_step": ("multibody.chain_motion", "calls_per_step"),
    "multibody.bias_terms.self_us": ("multibody.bias_terms", "self_us"),
    "multibody.bias_terms.calls_per_step": ("multibody.bias_terms", "calls_per_step"),
    "multibody.solve_inertia.us": ("multibody.solve_inertia", "us"),
    "multibody.solve_inertia.calls_per_step": ("multibody.solve_inertia", "calls_per_step"),
    "kinematics.task_state.self_us": ("kinematics.task_state", "self_us"),
    "kinematics.task_state.calls_per_step": ("kinematics.task_state", "calls_per_step"),
    "linalg.pinv.us": ("linalg.pinv", "us"),
    "linalg.pinv.calls_per_step": ("linalg.pinv", "calls_per_step"),
    "qp.QpProblem.us": ("qp.QpProblem", "us"),
    "qp.solve_qp.us": ("qp.solve_qp", "us"),
    "qp.solve_qp.calls_per_step": ("qp.solve_qp", "calls_per_step"),
    "controllers.step.self_us": ("controllers.step", "self_us"),
    "sim.step.self_us": ("sim.step", "self_us"),
    "sim.run.self_us_per_step": ("sim.run", "self_us_per_step"),
    "experiments.suite.self_ms": ("experiments.suite", "self_ms"),
    "robots.builtin_registry.ms": ("robots.builtin_registry", "ms"),
}


def layer_metrics(tracer, traced, untraced) -> dict:
    agg = tracer.aggregate()
    steps = agg["controllers.step"][0]
    metrics = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        calls, total, self_time = agg.get(span, (0, 0.0, 0.0))
        value = {"us": total * 1e6 / max(calls, 1),
                 "self_us": self_time * 1e6 / max(calls, 1),
                 "ms": total * 1e3 / max(calls, 1),
                 "self_ms": self_time * 1e3 / max(calls, 1),
                 "calls_per_step": calls / steps,
                 "self_us_per_step": self_time * 1e6 / steps}[stat]
        metrics[metric] = value
    solves = len(tracer.qp_iterations)
    metrics["qp.solve_qp.iters_mean"] = sum(tracer.qp_iterations) / max(solves, 1)
    metrics["qp.solve_qp.iters_max"] = max(tracer.qp_iterations, default=0)
    metrics["qp.warm_hit_frac"] = tracer.qp_warm_hits / max(solves, 1)
    metrics["qp.infeasible_frac"] = tracer.qp_infeasible / max(solves, 1)
    rows = sum(r.csv_rows for r, _ in traced)
    csv_total = agg.get("experiments.export_trajectory_csv", (0, 0.0, 0.0))[1]
    metrics["experiments.export_trajectory_csv.us_per_row"] = csv_total * 1e6 / max(rows, 1)
    untraced_wall, _, pooled, _, host = fastest(untraced)
    metrics["trace_overhead_frac"] = fastest(traced)[0] / untraced_wall - 1.0
    metrics["ctrl_step_p99_us"] = percentile(pooled * host, 99) * 1e6
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table", "spirob-qp-track", "finger-ic-setpoints"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="episode lengths; smoke is for the benchmark's own test")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    require_source()
    import workloads
    from tracer import Tracer

    facts = machine_facts()
    reference = json.loads(args.reference.read_text(encoding="utf-8"))["episodes"]
    calls = workloads.plan(args.workload, args.seed, args.scale)
    out_dir = ROOT / ".bench_out"
    csv_dir = out_dir / "csv" / args.workload
    csv_dir.mkdir(parents=True, exist_ok=True)

    extra: dict = {}
    if args.trace == 0:
        setup_times = [measure_setup(args)
                       for _ in range(workloads.SETUP_REPEATS[args.scale])]
        specs = workloads.setup(calls)
        rounds, _ = run_rounds(calls, specs, csv_dir, args.seconds)
        metrics, extra = end_to_end_metrics(rounds, specs, setup_times)
        wanted = declared["end_to_end"]
    else:
        specs = workloads.setup(calls)
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(3):
                workloads.robots.builtin_registry()
        finally:
            tracer.uninstall()
        untraced, traced = run_rounds(calls, specs, csv_dir, args.seconds, tracer)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        rounds = untraced + traced
        metrics = layer_metrics(tracer, traced, untraced)
        wanted = declared["per_layer"]

    results = [r for r, _ in rounds]
    codes = [code for r in results for _, _, code in r.episodes]
    attempted = len(codes)
    failures = {code: codes.count(code) for code in workloads.FAILURE_CODES}
    fail_frac = sum(failures.values()) / attempted
    mismatched = [key for r in results for key, fp, _ in r.episodes if reference.get(key) != fp]
    if args.trace == 0:
        metrics["episode_ok_frac"] = 1.0 - fail_frac
    else:
        metrics["episode_fail_frac"] = fail_frac
        metrics["result_mismatch_frac"] = len(mismatched) / attempted
        metrics.update({f"episode_fail.{code}": n for code, n in failures.items()})
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                           f"{sorted(units)}")

    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload={args.workload} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"rounds={len(rounds)} episodes/round={len(results[0].episodes)} "
          f"control_steps/round={results[0].steps}")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    if args.trace == 0:
        print(f"ctrl_step_p99_us = {extra['ctrl_step_p99_us']!r} us "
              f"(not gated; {extra['ctrl_step_samples']} samples, "
              f"{extra['ctrl_step_beyond_p99']} beyond p99)")
        print(f"host factor = {extra['host_factor']!r} (times above are scaled by it)")
        print("raw round wall_s = " + " ".join(f"{w:.4f}" for w in extra["raw_round_wall_s"]))
        for cell, rate in extra["cell_steps_per_s"].items():
            print(f"cell {cell} steps_per_s = {rate!r} 1/s")
    if args.trace == 0:
        print(f"episode_fail_frac = {fail_frac!r} ratio")
        print(f"result_mismatch_frac = {len(mismatched) / attempted!r} ratio")
    print("failures: " + " ".join(f"{k}={v}" for k, v in failures.items()))
    print(f"mismatches: {len(mismatched)} of {attempted} episodes"
          + "".join(f"\n  mismatch: {key}" for key in sorted(set(mismatched))))

    record = {"args": {k: str(v) for k, v in vars(args).items()}, "machine": facts,
              "metrics": metrics, "units": units, "extra": extra, "failures": failures,
              "attempted": attempted, "mismatched": mismatched}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not mismatched, "attempted": attempted,
                      "failed": len(mismatched),
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
