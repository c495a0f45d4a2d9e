"""Benchmark protocol: elliptic set-point and tracking references, episode
execution with failure detection, Table-style metric aggregation, and CSV
export of trajectories.

Set points sit on an ellipse in the xz-plane (semi axes L/3 and L/8, tilted
45 degrees, center offset s L - b from the base along the tilt, s the spec's
``workspace_scale``) no farther from the base than L; tracking sweeps the
same ellipse at constant angular rate, two full cycles per episode.

Each episode's SimConfig holds its protocol length and whatever the robot
spec's ``sim`` section, then the caller's overrides, set (``sim_config_for``);
a key there that is not a SimConfig protocol key, or a t_end in the spec, is
a ValidationError naming the spec.

Both suites pass only their reference, protocol length and metric to one
runner. It hands all of a call's episodes, one controller and one stop
condition each, to one lockstep ``sim.run``: their states are evaluated and
integrated as the rows of one stacked chain pass per step. ``run`` alone
ends every episode, each on its own: at its t_end (tracking rates differ in
length), or failed on its stop, on a non-finite input or state, or on a
numerical error of its own row. Each episode's stop (``_episode_stop``)
ends it on task divergence, on joint-speed blowup, or at the control step
that completes round(INFEASIBLE_WINDOW / dt_ctrl) consecutive infeasible
QPs, dt_ctrl the control step. Every episode is bitwise what it would be
run alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .controllers import Reference, make_controller
from .multibody import RobotModel, RobotState
# builtin_registry stays a name of this module: bench/tracer.py patches it here
from .robots import ValidationError, builtin_registry, resolve_spec  # noqa: F401
from .sim import SIM_DEFAULTS, SimConfig, Trajectory, run

THETA_GRID = tuple(t * np.pi for t in (0.0, 0.5, 1.0, 1.5))
OMEGA_GRID = tuple(w * np.pi for w in (0.1, 0.2, 0.3, 0.4, 0.5))

SETPOINT_T_END = 10.0
DIVERGENCE_FACTOR = 2.0          # |e| beyond this multiple of L means divergence
SPEED_LIMIT = 1e3                # rad/s; joint-space divergence guard
INFEASIBLE_WINDOW = 1.0          # s; round(this / dt_ctrl) infeasible QPs in a row fail


@dataclass(frozen=True)
class EllipseParams:
    """Geometry of the benchmark ellipse (all lengths in meters)."""

    a: float
    b: float
    phi: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0.0:
            raise ValueError("ellipse parameters must be positive")

    @classmethod
    def for_robot(cls, model: RobotModel, workspace_scale: float = 1.0) -> "EllipseParams":
        """Benchmark ellipse for a robot of arclength L: a = L/3, b = L/8,
        phi = 45 deg, and the center offset s L - b for the workspace scale
        s its spec sets (``RobotSpecFile.workspace_scale``, 1 by default)."""
        length = model.L
        b = length / 8.0
        return cls(a=length / 3.0, b=b, phi=np.pi / 4.0, c=workspace_scale * length - b)

    @cached_property
    def tilt(self) -> tuple[float, float]:
        """(sin phi, cos phi), worked out on first use."""
        return np.sin(self.phi), np.cos(self.phi)


def ellipse_point(params: EllipseParams, theta: float) -> tuple[float, float]:
    """Point on the tilted ellipse at parameter theta, in the xz-plane."""
    s, c_phi = params.tilt
    radial = params.b * np.sin(theta) - params.c
    along = params.a * np.cos(theta)
    x = along * c_phi - radial * s
    z = along * s + radial * c_phi
    return float(x), float(z)


def _embed(point_xz: tuple[float, float], task_dim: int) -> np.ndarray:
    x, z = point_xz
    return np.array([x, z]) if task_dim == 2 else np.array([x, 0.0, z])


def setpoint_reference(params: EllipseParams, theta: float, task_dim: int) -> Reference:
    return Reference.setpoint(_embed(ellipse_point(params, theta), task_dim))


def ellipse_trajectory(params: EllipseParams, omega: float, task_dim: int) -> Reference:
    """Moving reference theta(t) = omega t with analytic derivatives."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    a, b = params.a, params.b
    s, c_phi = params.tilt

    def pos(t: float) -> np.ndarray:
        return _embed(ellipse_point(params, omega * t), task_dim)

    def vel(t: float) -> np.ndarray:
        th = omega * t
        dx = -a * omega * np.sin(th) * c_phi - b * omega * np.cos(th) * s
        dz = -a * omega * np.sin(th) * s + b * omega * np.cos(th) * c_phi
        return _embed((dx, dz), task_dim)

    def acc(t: float) -> np.ndarray:
        th = omega * t
        ddx = -a * omega ** 2 * np.cos(th) * c_phi + b * omega ** 2 * np.sin(th) * s
        ddz = -a * omega ** 2 * np.cos(th) * s - b * omega ** 2 * np.sin(th) * c_phi
        return _embed((ddx, ddz), task_dim)

    return Reference(y_ref=pos, dy_ref=vel, ddy_ref=acc)


@dataclass
class EpisodeResult:
    parameter: float              # theta [rad] or omega [rad/s]
    trajectory: Trajectory
    metric: float                 # final error [cm] or MSE [cm^2]
    failed: bool
    failure_reason: str = ""


@dataclass
class MetricSummary:
    """Aggregated benchmark cell for one (robot, controller, experiment)."""

    robot: str
    controller: str
    experiment: str
    episodes: list = field(default_factory=list)

    @property
    def metrics(self) -> list:
        return [ep.metric for ep in self.episodes if not ep.failed]

    @property
    def mean(self):
        vals = self.metrics
        return float(np.mean(vals)) if vals else None

    @property
    def std(self):
        vals = self.metrics
        return float(np.std(vals)) if vals else None

    @property
    def any_failed(self) -> bool:
        return any(ep.failed for ep in self.episodes)

    def cell_text(self) -> str:
        unit = "cm" if self.experiment == "setpoint" else "cm^2"
        if not self.episodes:
            return "no episodes"
        if all(ep.failed for ep in self.episodes):
            return "Failed Convergence"
        text = f"{self.mean:.2f} +/- {self.std:.2f} {unit}"
        if self.any_failed:
            failed = sum(ep.failed for ep in self.episodes)
            text += f" (Failed Convergence in {failed}/{len(self.episodes)})"
        return text


def sim_config_for(robot, t_end: float, overrides: dict | None = None) -> SimConfig:
    """SimConfig from the robot spec's sim section plus overrides, over the
    given t_end; an unknown key or a bad value is a ValidationError naming
    the override or the spec it came from, and so is a t_end in the spec:
    the protocol length belongs to the experiment.

    Only the spec document is read; the model is not built. An explicit
    t_end override departs from the benchmark protocol and is meant for
    smoke tests; it is echoed in the output metadata like any other override.
    """
    spec = resolve_spec(robot)
    section, overrides = spec.data.get("sim", {}), overrides or {}
    for where, keys in (("sim", section), ("sim override", overrides)):
        unknown = [key for key in keys if key not in SIM_DEFAULTS]
        if unknown:
            raise ValidationError(f"{spec.source or spec.name}: unknown {where} keys {unknown}")
    if "t_end" in section:
        raise ValidationError(f"{spec.source or spec.name}: sim.t_end is set by the experiment, "
                              "not by the spec")
    try:
        return SimConfig(**{"t_end": t_end, **section, **overrides})
    except ValueError as exc:
        merged = exc
    # the spec is at fault when its section fails over the protocol t_end
    # alone, the overrides otherwise; SimConfig's messages begin with the
    # field they reject
    try:
        SimConfig(**{"t_end": t_end, **section})
    except ValueError as exc:
        raise ValidationError(f"{spec.source or spec.name}: sim.{exc}") from None
    keys = ", ".join(f"sim.{key}" for key in overrides)
    raise ValidationError(f"override {keys}: {merged}") from None


def _episode_stop(model: RobotModel, cfg: SimConfig):
    """Stop condition of one episode: task divergence, joint-speed blowup,
    or a QP infeasible on round(INFEASIBLE_WINDOW / dt_ctrl) control steps
    in a row, which ends the episode at the last of them, the reason naming
    that count and dt_ctrl."""
    limit = DIVERGENCE_FACTOR * model.L
    dt_ctrl = cfg.dt_physics * cfg.control_decimation
    window = max(1, int(round(INFEASIBLE_WINDOW / dt_ctrl)))
    infeasible = f"QP infeasible on {window} consecutive control steps of {dt_ctrl * 1e3:g} ms"
    streak = 0

    def check(state: RobotState, task_error: np.ndarray, log) -> str:
        nonlocal streak
        # the 2-norm as np.linalg.norm forms it, without its wrapper
        if math.sqrt(task_error.dot(task_error)) > limit:
            return f"task error beyond {DIVERGENCE_FACTOR:.0f}L"
        if np.abs(state.dq).max() > SPEED_LIMIT:
            return f"joint speed beyond {SPEED_LIMIT:.0e} rad/s"
        streak = streak + 1 if log.qp_status == "Infeasible" else 0
        return infeasible if streak >= window else ""

    return check


def _reachable_setpoint(model: RobotModel, params: EllipseParams, theta: float) -> Reference:
    target = np.linalg.norm(ellipse_point(params, theta))
    if target > model.L + 1e-9:
        raise ValidationError(f"set point at {target:.3f} m exceeds reach {model.L:.3f} m")
    return setpoint_reference(params, theta, model.task_dim)


def _final_error_cm(traj: Trajectory, reference: Reference) -> float:
    target = reference.y_ref(traj.final_state.t)
    return float(np.linalg.norm(traj.final_task_position() - target) * 100.0)


def _mean_squared_error_cm2(traj: Trajectory, reference: Reference) -> float:
    if not len(traj):
        return float("nan")
    err = (traj.y - traj.y_ref) * 100.0
    return float(np.mean(np.sum(err ** 2, axis=1)))


def _suite(robot, controller: str, experiment: str, key: str, grid, sim_overrides,
           reference, t_end, metric) -> tuple[MetricSummary, list[Trajectory]]:
    """One episode per grid value, all in one lockstep ``run``: its reference
    is ``reference(model, params, value)``, its protocol length
    ``t_end(value)``, its stop ``_episode_stop`` and its score
    ``metric(traj, reference)``; a score that is not finite fails it."""
    grid = tuple(grid)
    spec = resolve_spec(robot)
    model, gains = spec.load()
    params = EllipseParams.for_robot(model, spec.workspace_scale)
    refs = [reference(model, params, value) for value in grid]
    cfgs = [sim_config_for(spec, t_end(value), sim_overrides) for value in grid]
    metas = [{"robot": model.name, "controller": controller, "experiment": experiment,
              key: value} for value in grid]
    controllers = [make_controller(controller, model, gains[controller]) for _ in grid]
    stops = [_episode_stop(model, cfg) for cfg in cfgs]
    trajs = run(model, controllers, refs, cfgs, stop_conditions=stops, metadata=metas)
    summary = MetricSummary(robot=model.name, controller=controller, experiment=experiment)
    for value, traj, ref in zip(grid, trajs, refs):
        score = metric(traj, ref)
        summary.episodes.append(EpisodeResult(parameter=value, trajectory=traj, metric=score,
                                              failed=traj.failed or not np.isfinite(score),
                                              failure_reason=traj.failure_reason))
    return summary, trajs


def setpoint_suite(robot, controller: str, thetas=THETA_GRID,
                   sim_overrides: dict | None = None
                   ) -> tuple[MetricSummary, list[Trajectory]]:
    """Run the set-point episodes; final error is |y(t_end) - y_ref| in cm.
    A set point farther from the base than the arclength L raises."""
    return _suite(robot, controller, "setpoint", "theta", thetas, sim_overrides,
                  reference=_reachable_setpoint, t_end=lambda theta: SETPOINT_T_END,
                  metric=_final_error_cm)


def tracking_suite(robot, controller: str, omegas=OMEGA_GRID,
                   sim_overrides: dict | None = None
                   ) -> tuple[MetricSummary, list[Trajectory]]:
    """Run the tracking episodes (two cycles each); metric is the mean over
    control-rate samples of |y - y_ref|^2 in cm^2."""
    return _suite(robot, controller, "tracking", "omega", omegas, sim_overrides,
                  reference=lambda model, params, omega: ellipse_trajectory(
                      params, omega, model.task_dim),
                  t_end=lambda omega: 4.0 * np.pi / omega, metric=_mean_squared_error_cm2)


# ---------------------------------------------------------------------------
# Export

def _axis_labels(n_t: int) -> list[str]:
    return ["x", "z"] if n_t == 2 else ["x", "y", "z"]


def trajectory_columns(traj: Trajectory) -> list[str]:
    axes = _axis_labels(traj.y.shape[1])
    m = traj.u.shape[1]
    return (["t"] + [f"e_{a}" for a in axes] + [f"y_{a}" for a in axes]
            + [f"yref_{a}" for a in axes] + ["V", "V_over_V0", "Vdot", "delta"]
            + [f"u_{i}" for i in range(1, m + 1)] + ["qp_status", "solve_time_ms"])


def export_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the control-rate log as CSV; floats keep full repr precision so
    a parse of the file reproduces values bit-for-bit."""
    cols = trajectory_columns(traj)
    err = traj.y - traj.y_ref
    v0 = traj.V[0] if len(traj) and np.isfinite(traj.V[0]) and traj.V[0] > 0.0 else 1.0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, val in sorted(traj.metadata.items()):
            fh.write(f"# {key}: {val}\n")
        if traj.failed:
            fh.write(f"# failed: {traj.failure_reason}\n")
        fh.write(",".join(cols) + "\n")
        for i in range(len(traj)):
            row = ([traj.t[i]] + list(err[i]) + list(traj.y[i]) + list(traj.y_ref[i])
                   + [traj.V[i], traj.V[i] / v0, traj.Vdot[i], traj.delta[i]]
                   + list(traj.u[i]))
            text = [repr(float(v)) for v in row]
            text.append(traj.qp_status[i])
            text.append(repr(float(traj.solve_time[i] * 1000.0)))
            fh.write(",".join(text) + "\n")


def read_trajectory_csv(path) -> dict:
    """Parse an exported trajectory CSV back into arrays (round-trip exact)."""
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    header = None
    for line in lines:
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            body.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: missing header row")
    status_idx = header.index("qp_status")
    data: dict = {"metadata": meta, "columns": header, "qp_status": []}
    numeric = {name: [] for i, name in enumerate(header) if i != status_idx}
    for parts in body:
        for i, name in enumerate(header):
            if i == status_idx:
                data["qp_status"].append(parts[i])
            else:
                numeric[name].append(float(parts[i]))
    for name, vals in numeric.items():
        data[name] = np.asarray(vals)
    return data


def export_summary(summaries: list[MetricSummary], path) -> None:
    """Structured text summary with per-episode metrics and mean +/- std."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in summaries:
            fh.write(f"[{s.robot} / {s.controller} / {s.experiment}]\n")
            unit = "cm" if s.experiment == "setpoint" else "cm^2"
            kind = "theta" if s.experiment == "setpoint" else "omega"
            for ep in s.episodes:
                status = f"FailedConvergence({ep.failure_reason})" if ep.failed else "ok"
                fh.write(f"  {kind}={ep.parameter!r} rad: metric={ep.metric!r} {unit}"
                         f" status={status}\n")
            mean = s.mean
            if mean is None:
                fh.write("  aggregate: Failed Convergence\n")
            else:
                fh.write(f"  aggregate: {mean!r} +/- {s.std!r} {unit}\n")
            fh.write("\n")


def write_gnuplot_script(csv_paths: list, out_path, title: str = "") -> None:
    """Emit a gnuplot script plotting normalized V and error magnitude."""
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("set datafile separator ','\n")
        fh.write("set key outside\nset xlabel 't [s]'\n")
        if title:
            fh.write(f"set title '{title}'\n")
        fh.write("set logscale y\nset ylabel 'V / V(0)'\n")
        plots = ", ".join(
            f"'{p}' using 1:(column('V_over_V0')) with lines title '{os.path.basename(str(p))}'"
            for p in csv_paths)
        fh.write(f"plot {plots}\n")
