"""Workload definitions for the clfqp benchmark.

A workload is a fixed list of suite calls (one "round"). The benchmark
repeats rounds until its time budget is spent, so every round computes the
same episodes and each episode can be checked against a stored fingerprint.

Workloads (all closed loop, one process, one thread):

- ``table``: all 15 robot x controller cells, each with one set point and
  one tracking rate at a short episode length. The seed picks each cell's
  theta from THETA_GRID and omega from OMEGA_GRID; seed 0 gives 0.5 pi and
  0.5 pi everywhere. It is the only workload with helix and the only one
  with closed-form and QP laws side by side.
- ``spirob-qp-track``: spirob x {clf-qp, soft-id-clf-qp, ic-qp} tracking at
  omega = 0.5 pi with longer episodes, so QP assembly and solve dominate
  the control step. clf-qp holds its input through an infeasible stretch at
  the start. The seed is ignored.
- ``finger-ic-setpoints``: finger x {ic, uic} over the whole THETA_GRID, one
  setpoint_suite call per controller, with every trajectory written as CSV
  and every suite summarised. No QP runs here. The seed is ignored.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clfqp import controllers, experiments, multibody, robots

ROBOTS = ("finger", "helix", "spirob")
WORKLOADS = ("table", "spirob-qp-track", "finger-ic-setpoints")

# Episode length in seconds per workload and scale. "smoke" exists only so
# the benchmark's own test can run every workload in a few seconds.
EPISODE_T_END = {
    "full": {"table": 0.02, "spirob-qp-track": 0.17, "finger-ic-setpoints": 0.07},
    "smoke": {"table": 0.003, "spirob-qp-track": 0.005, "finger-ic-setpoints": 0.005},
}
SETUP_REPEATS = {"full": 7, "smoke": 1}

DEFAULT_THETA_INDEX = 1   # THETA_GRID[1] = 0.5 pi
DEFAULT_OMEGA_INDEX = 4   # OMEGA_GRID[4] = 0.5 pi

FAILURE_CODES = ("task_divergence", "speed_limit", "qp_infeasible", "non_finite")


@dataclass(frozen=True)
class SuiteCall:
    """One call into setpoint_suite or tracking_suite."""

    robot: str
    controller: str
    experiment: str          # "setpoint" or "tracking"
    grid_indices: tuple      # indices into THETA_GRID or OMEGA_GRID
    t_end: float
    export: bool = False

    @property
    def cell(self) -> str:
        return f"{self.robot}/{self.controller}"

    def episode_key(self, grid_index: int) -> str:
        kind = "theta" if self.experiment == "setpoint" else "omega"
        return (f"{self.robot}/{self.controller}/{self.experiment}/"
                f"{kind}{grid_index}/t{self.t_end!r}")


def table_choices(seed: int) -> list[tuple[int, int]]:
    """(theta index, omega index) for each table cell, in cell order."""
    cells = len(ROBOTS) * len(controllers.CONTROLLER_NAMES)
    if seed == 0:
        return [(DEFAULT_THETA_INDEX, DEFAULT_OMEGA_INDEX)] * cells
    rng = random.Random(seed)
    return [(rng.randrange(len(experiments.THETA_GRID)),
             rng.randrange(len(experiments.OMEGA_GRID))) for _ in range(cells)]


def plan(workload: str, seed: int, scale: str) -> list[SuiteCall]:
    """The suite calls of one round."""
    t_end = EPISODE_T_END[scale][workload]
    if workload == "table":
        cells = [(r, c) for r in ROBOTS for c in controllers.CONTROLLER_NAMES]
        calls = []
        for (robot, ctrl), (th, om) in zip(cells, table_choices(seed)):
            calls.append(SuiteCall(robot, ctrl, "setpoint", (th,), t_end))
            calls.append(SuiteCall(robot, ctrl, "tracking", (om,), t_end))
        return calls
    if workload == "spirob-qp-track":
        return [SuiteCall("spirob", ctrl, "tracking", (DEFAULT_OMEGA_INDEX,), t_end)
                for ctrl in ("clf-qp", "soft-id-clf-qp", "ic-qp")]
    if workload == "finger-ic-setpoints":
        every_theta = tuple(range(len(experiments.THETA_GRID)))
        return [SuiteCall("finger", ctrl, "setpoint", every_theta, t_end, export=True)
                for ctrl in ("ic", "uic")]
    raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def reference_plan(workload: str, scale: str) -> list[SuiteCall]:
    """Suite calls covering every episode any seed can select."""
    calls = plan(workload, 0, scale)
    if workload != "table":
        return calls
    every_theta = tuple(range(len(experiments.THETA_GRID)))
    every_omega = tuple(range(len(experiments.OMEGA_GRID)))
    return [SuiteCall(c.robot, c.controller, c.experiment,
                      every_theta if c.experiment == "setpoint" else every_omega,
                      c.t_end) for c in calls]


def setup(calls: list[SuiteCall]) -> dict:
    """Ready the workload: parse the built-in specs, build every model and
    controller it uses, and compile each chain with one bias_terms call.
    Returns the RobotSpecFile objects the suites are called with."""
    registry = robots.builtin_registry()
    specs = {}
    for robot in sorted({c.robot for c in calls}):
        spec = registry[robot]
        model, gains = spec.load()
        for ctrl in sorted({c.controller for c in calls if c.robot == robot}):
            controllers.make_controller(ctrl, model, gains[ctrl])
        multibody.bias_terms(model, model.rest_state())
        specs[robot] = spec
    return specs


def full_protocol_steps(spec) -> int:
    """Control steps of one cell's full paper protocol: every THETA_GRID set
    point for SETPOINT_T_END plus every OMEGA_GRID rate for two cycles."""
    cfg = experiments.sim_config_for(spec, experiments.SETPOINT_T_END)
    dt_ctrl = cfg.dt_physics * cfg.control_decimation
    setpoints = len(experiments.THETA_GRID) * round(experiments.SETPOINT_T_END / dt_ctrl)
    tracking = sum(round(4.0 * np.pi / w / dt_ctrl) for w in experiments.OMEGA_GRID)
    return setpoints + tracking


def trajectory_hash(traj) -> str:
    """sha256 over the raw float64 bytes of the input log u, then q."""
    h = hashlib.sha256()
    for arr in (traj.u, traj.q):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def fingerprint(episode) -> dict:
    """Bitwise record of one episode: metric at repr precision, row count,
    failure reason, and the u/q hash."""
    traj = episode.trajectory
    return {"metric": repr(float(episode.metric)), "rows": len(traj),
            "failure": episode.failure_reason if episode.failed else "",
            "hash": trajectory_hash(traj)}


def failure_code(episode) -> str:
    """Named cause of a failed episode, one of FAILURE_CODES."""
    reason = episode.failure_reason
    if reason.startswith("task error beyond"):
        return "task_divergence"
    if reason.startswith("joint speed beyond"):
        return "speed_limit"
    if reason.startswith("QP infeasible"):
        return "qp_infeasible"
    # NonFinite messages, and a metric that came out non-finite
    return "non_finite"


@dataclass
class RoundResult:
    steps: int = 0
    csv_rows: int = 0
    call_cells: list = field(default_factory=list)   # cell of each suite call
    call_steps: list = field(default_factory=list)   # control steps of each suite call
    episodes: list = field(default_factory=list)     # (key, fingerprint, failure code or "")


def run_round(calls: list[SuiteCall], specs: dict, out_dir: Path, wrap=None,
              mark=None) -> RoundResult:
    """Run one round of suite calls.

    ``wrap(name, fn)`` may instrument the benchmark's own calls into the
    suite and export functions; ``mark()`` is called before the first suite
    call and after each one, exports included.
    """
    wrap = wrap or (lambda name, fn: fn)
    mark = mark or (lambda: None)
    setpoint_suite = wrap("experiments.suite", experiments.setpoint_suite)
    tracking_suite = wrap("experiments.suite", experiments.tracking_suite)
    export_csv = wrap("experiments.export_trajectory_csv", experiments.export_trajectory_csv)
    result = RoundResult()
    mark()
    for call in calls:
        overrides = {"t_end": call.t_end}
        if call.experiment == "setpoint":
            grid = tuple(experiments.THETA_GRID[i] for i in call.grid_indices)
            summary, trajs = setpoint_suite(specs[call.robot], call.controller,
                                            thetas=grid, sim_overrides=overrides)
        else:
            grid = tuple(experiments.OMEGA_GRID[i] for i in call.grid_indices)
            summary, trajs = tracking_suite(specs[call.robot], call.controller,
                                            omegas=grid, sim_overrides=overrides)
        if call.export:
            stem = f"{call.robot}-{call.controller}-{call.experiment}"
            for i, traj in zip(call.grid_indices, trajs):
                export_csv(traj, out_dir / f"{stem}-{i}.csv")
                result.csv_rows += len(traj)
            experiments.export_summary([summary], out_dir / f"{stem}-summary.txt")
        mark()
        steps = sum(len(t) for t in trajs)
        result.steps += steps
        result.call_cells.append(call.cell)
        result.call_steps.append(steps)
        for i, ep in zip(call.grid_indices, summary.episodes):
            result.episodes.append((call.episode_key(i), fingerprint(ep),
                                    failure_code(ep) if ep.failed else ""))
    return result
