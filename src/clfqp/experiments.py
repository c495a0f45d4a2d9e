"""Benchmark protocol: elliptic set-point and tracking references, episode
execution with failure detection, Table-style metric aggregation, and CSV
export of trajectories.

Set points sit on an ellipse in the xz-plane (semi axes L/3 and L/8, tilted
45 degrees, center offset from the base along the tilt); tracking sweeps
the same ellipse at constant angular rate, two full cycles per episode.

A suite call hands all its episodes, one controller each, to one lockstep
``sim.run``: their states are evaluated and integrated as the rows of one
stacked chain pass per step, and each episode leaves the batch at its own
t_end (tracking rates differ in length), on its stop condition or on a
non-finite state. Every episode is bitwise what it would be run alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .controllers import Reference, make_controller
from .multibody import RobotModel, RobotState
from .robots import RobotSpecFile, builtin_registry
from .sim import SimConfig, Trajectory, run

THETA_GRID = tuple(t * np.pi for t in (0.0, 0.5, 1.0, 1.5))
OMEGA_GRID = tuple(w * np.pi for w in (0.1, 0.2, 0.3, 0.4, 0.5))

SETPOINT_T_END = 10.0
DIVERGENCE_FACTOR = 2.0          # |e| beyond this multiple of L means divergence
SPEED_LIMIT = 1e3                # rad/s; joint-space divergence guard
INFEASIBLE_WINDOW = 1.0          # s of persistent infeasibility before failing


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
    def for_robot(cls, model: RobotModel) -> "EllipseParams":
        """Benchmark ellipse for a robot: a = L/3, b = L/8, phi = 45 deg;
        the center offset is L - b, except 3L/4 - b for the spirob whose
        workspace is shorter than its arclength."""
        length = model.L
        b = length / 8.0
        c = (0.75 * length - b) if model.name == "spirob" else (length - b)
        return cls(a=length / 3.0, b=b, phi=np.pi / 4.0, c=c)


def ellipse_point(params: EllipseParams, theta: float) -> tuple[float, float]:
    """Point on the tilted ellipse at parameter theta, in the xz-plane."""
    s, c_phi = np.sin(params.phi), np.cos(params.phi)
    radial = params.b * np.sin(theta) - params.c
    x = params.a * np.cos(theta) * c_phi - radial * s
    z = params.a * np.cos(theta) * s + radial * c_phi
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
    a, b, phi = params.a, params.b, params.phi
    s, c_phi = np.sin(phi), np.cos(phi)

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


def _resolve_spec(robot) -> RobotSpecFile:
    """Accept a builtin name or a RobotSpecFile; return the spec."""
    if isinstance(robot, RobotSpecFile):
        return robot
    registry = builtin_registry()
    if robot not in registry:
        raise KeyError(f"unknown robot {robot!r}; built-ins: {sorted(registry)}")
    return registry[robot]


def sim_config_for(robot, t_end: float, overrides: dict | None = None) -> SimConfig:
    """SimConfig from the robot spec's sim section plus overrides.

    Only the spec document is read; the model is not built. An explicit
    t_end override departs from the benchmark protocol and is meant for
    smoke tests; it is echoed in the output metadata like any other override.
    """
    prefs = dict(_resolve_spec(robot).data.get("sim", {}))
    prefs.update(overrides or {})
    return SimConfig(dt_physics=float(prefs.get("dt_physics", 1e-3)),
                     control_decimation=int(prefs.get("control_decimation", 1)),
                     integrator=prefs.get("integrator", "rk4"),
                     t_end=float(prefs.get("t_end", t_end)))


def _divergence_stop(model: RobotModel):
    """Stop-condition closure: task divergence or joint-speed blowup."""
    limit = DIVERGENCE_FACTOR * model.L

    def check(state: RobotState, task_error: np.ndarray) -> str:
        if np.linalg.norm(task_error) > limit:
            return f"task error beyond {DIVERGENCE_FACTOR:.0f}L"
        if np.max(np.abs(state.dq)) > SPEED_LIMIT:
            return f"joint speed beyond {SPEED_LIMIT:.0e} rad/s"
        return ""

    return check


def _run_episodes(model, gains, controller_name, references, cfgs, metas) -> list[Trajectory]:
    """Run one suite's episodes in lockstep, one controller each; an episode
    that ran to t_end fails when its QP stayed infeasible too long."""
    controllers = [make_controller(controller_name, model, gains[controller_name])
                   for _ in references]
    trajs = run(model, controllers, references, cfgs, stop_condition=_divergence_stop(model),
                metadata=metas)
    for traj, cfg in zip(trajs, cfgs):
        if not traj.failed:
            reason = _persistent_infeasibility(traj, cfg)
            if reason:
                traj.failed = True
                traj.failure_reason = reason
    return trajs


def _persistent_infeasibility(traj: Trajectory, cfg: SimConfig) -> str:
    dt_ctrl = cfg.dt_physics * cfg.control_decimation
    window = max(1, int(round(INFEASIBLE_WINDOW / dt_ctrl)))
    streak = 0
    for status in traj.qp_status:
        streak = streak + 1 if status == "Infeasible" else 0
        if streak >= window:
            return f"QP infeasible for more than {INFEASIBLE_WINDOW:.0f} s"
    return ""


def setpoint_suite(robot, controller: str, thetas=THETA_GRID,
                   sim_overrides: dict | None = None
                   ) -> tuple[MetricSummary, list[Trajectory]]:
    """Run the set-point episodes; final error is |y(t_end) - y_ref| in cm."""
    thetas = tuple(thetas)
    spec = _resolve_spec(robot)
    model, gains = spec.load()
    params = EllipseParams.for_robot(model)
    for theta in thetas:
        target = np.linalg.norm(ellipse_point(params, theta))
        reach = model.L if model.name != "spirob" else 0.75 * model.L + params.a
        if target > reach + 1e-9:
            raise ValueError(f"set point at {target:.3f} m exceeds reach {reach:.3f} m")
    cfg = sim_config_for(spec, SETPOINT_T_END, sim_overrides)
    summary = MetricSummary(robot=model.name, controller=controller, experiment="setpoint")
    refs = [setpoint_reference(params, theta, model.task_dim) for theta in thetas]
    metas = [dict(robot=model.name, controller=controller, experiment="setpoint",
                  theta=theta) for theta in thetas]
    trajs = _run_episodes(model, gains, controller, refs, [cfg] * len(refs), metas)

    for theta, traj in zip(thetas, trajs):
        target = _embed(ellipse_point(params, theta), model.task_dim)
        err_cm = float(np.linalg.norm(traj.final_task_position() - target) * 100.0)
        failed = traj.failed or not np.isfinite(err_cm)
        summary.episodes.append(EpisodeResult(parameter=theta, trajectory=traj, metric=err_cm,
                                              failed=failed,
                                              failure_reason=traj.failure_reason))
    return summary, trajs


def tracking_suite(robot, controller: str, omegas=OMEGA_GRID,
                   sim_overrides: dict | None = None
                   ) -> tuple[MetricSummary, list[Trajectory]]:
    """Run the tracking episodes (two cycles each); metric is the mean over
    control-rate samples of |y - y_ref|^2 in cm^2."""
    omegas = tuple(omegas)
    spec = _resolve_spec(robot)
    model, gains = spec.load()
    params = EllipseParams.for_robot(model)
    summary = MetricSummary(robot=model.name, controller=controller, experiment="tracking")
    cfgs = [sim_config_for(spec, 4.0 * np.pi / omega, sim_overrides) for omega in omegas]
    refs = [ellipse_trajectory(params, omega, model.task_dim) for omega in omegas]
    metas = [dict(robot=model.name, controller=controller, experiment="tracking",
                  omega=omega) for omega in omegas]
    trajs = _run_episodes(model, gains, controller, refs, cfgs, metas)

    for omega, traj in zip(omegas, trajs):
        if len(traj):
            err = (traj.y - traj.y_ref) * 100.0
            mse = float(np.mean(np.sum(err ** 2, axis=1)))
        else:
            mse = float("nan")
        failed = traj.failed or not np.isfinite(mse)
        summary.episodes.append(EpisodeResult(parameter=omega, trajectory=traj, metric=mse,
                                              failed=failed,
                                              failure_reason=traj.failure_reason))
    return summary, trajs


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
