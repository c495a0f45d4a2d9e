"""Fixed-step closed-loop simulation.

Control inputs update every ``control_decimation`` physics steps and are
held constant in between (zero-order hold). State and per-step diagnostics
are logged at the control rate; a non-finite state aborts the run and the
partial trajectory is returned with a failure marker.

Each state is evaluated once. A controller step returns its evaluation of
the state in its log; the logged task position and velocity come from it,
and the first physics step after the control update reuses its dynamics
terms (RK4 stage k1, or the semi-implicit update), including the guarded
Cholesky factor of M, so the inertia guard runs once per evaluated M under
either integrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .controllers import ControlStepLog, Reference
from .kinematics import task_rows, task_state
from .multibody import DynamicsTerms, RobotModel, RobotState, bias_terms, forward_dynamics

INTEGRATORS = ("rk4", "semi-implicit-euler")


class NonFinite(RuntimeError):
    """State left the finite range; diagnostics carried in the message."""


@dataclass(frozen=True)
class SimConfig:
    dt_physics: float = 1e-3
    control_decimation: int = 1
    integrator: str = "rk4"
    t_end: float = 10.0
    initial_state: RobotState | None = None

    def __post_init__(self):
        if self.dt_physics <= 0.0:
            raise ValueError("dt_physics must be positive")
        if self.control_decimation < 1:
            raise ValueError("control_decimation must be at least 1")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")


def step(model: RobotModel, state: RobotState, u: np.ndarray,
         cfg: SimConfig, terms: DynamicsTerms | None = None) -> RobotState:
    """Advance one physics step under a constant input.

    The semi-implicit integrator treats the diagonal joint damping term
    implicitly (velocity update solves (M + dt D) v' = M v + dt (Bu - rest)),
    which stays stable for damping far stiffer than an explicit step allows;
    M itself still passes the inertia guard first, as in the RK4 step.
    ``terms``, if given, are the dynamics already evaluated at ``state``; the
    step then starts from them instead of re-evaluating the chain.
    """
    dt = cfg.dt_physics
    q, dq = state.q, state.dq
    if cfg.integrator == "semi-implicit-euler":
        if terms is None:
            terms = bias_terms(model, state)
        terms.factor  # inertia guard on M; the update below solves with M + dt D
        rest = terms.c_vec + terms.k_vec + terms.g_vec
        lhs = terms.M + dt * np.diag(model.D_s)
        dq_next = np.linalg.solve(lhs, terms.M @ dq + dt * (model.B @ u - rest))
        q_next = q + dt * dq_next
    else:
        k1d = forward_dynamics(model, state, u, terms=terms)
        k1q = dq
        k2d = forward_dynamics(model, RobotState(q + 0.5 * dt * k1q, dq + 0.5 * dt * k1d,
                                                 state.t), u)
        k2q = dq + 0.5 * dt * k1d
        k3d = forward_dynamics(model, RobotState(q + 0.5 * dt * k2q, dq + 0.5 * dt * k2d,
                                                 state.t), u)
        k3q = dq + 0.5 * dt * k2d
        k4d = forward_dynamics(model, RobotState(q + dt * k3q, dq + dt * k3d, state.t), u)
        k4q = dq + dt * k3d
        q_next = q + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        dq_next = dq + dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    if not (np.all(np.isfinite(q_next)) and np.all(np.isfinite(dq_next))):
        raise NonFinite(f"non-finite state at t={state.t + dt:.6f}")
    # Abort runaway states before squared terms overflow downstream.
    if max(np.max(np.abs(q_next)), np.max(np.abs(dq_next))) > 1e12:
        raise NonFinite(f"state magnitude exceeded 1e12 at t={state.t + dt:.6f}")
    return RobotState(q=q_next, dq=dq_next, t=state.t + dt)


@dataclass
class Trajectory:
    """Control-rate log of a run, as flat arrays plus lazy views.

    Rows sit on a uniform control-time grid; ``final_state`` holds the
    state at termination (one physics step past the last logged row).
    """

    model: RobotModel
    t: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    y_ref: np.ndarray
    u: np.ndarray
    mu: np.ndarray
    delta: np.ndarray
    V: np.ndarray
    Vdot: np.ndarray
    qp_status: list
    solve_time: np.ndarray
    saturated: np.ndarray
    final_state: RobotState | None = None
    failed: bool = False
    failure_reason: str = ""
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.shape[0]

    def state(self, i: int) -> RobotState:
        return RobotState(q=self.q[i], dq=self.dq[i], t=float(self.t[i]))

    def task_state(self, i: int):
        """Recompute the full task-space snapshot at a logged row."""
        return task_state(self.model, self.state(i))

    def log(self, i: int) -> ControlStepLog:
        return ControlStepLog(u=self.u[i], mu=self.mu[i], delta=float(self.delta[i]),
                              V=float(self.V[i]), Vdot=float(self.Vdot[i]),
                              qp_status=self.qp_status[i],
                              solve_time=float(self.solve_time[i]),
                              saturated=self.saturated[i])

    def final_task_position(self) -> np.ndarray:
        from .kinematics import forward_kinematics

        state = self.final_state if self.final_state is not None else self.state(len(self) - 1)
        return forward_kinematics(self.model, state.q)[task_rows(self.model)]


def run(model: RobotModel, controller, reference: Reference, cfg: SimConfig,
        stop_condition: Callable[[RobotState, np.ndarray], str] | None = None,
        metadata: dict | None = None) -> Trajectory:
    """Simulate the closed loop until t_end or failure.

    ``stop_condition(state, task_error)`` may return a failure reason to
    abort early (used by the benchmark suites for divergence detection).
    """
    state = cfg.initial_state if cfg.initial_state is not None else model.rest_state()
    dt_ctrl = cfg.dt_physics * cfg.control_decimation
    n_ctrl = int(round(cfg.t_end / dt_ctrl))
    n, m, n_t = model.n, model.m, model.task_dim
    rows = task_rows(model)

    traj = Trajectory(
        model=model,
        t=np.zeros(n_ctrl), q=np.zeros((n_ctrl, n)), dq=np.zeros((n_ctrl, n)),
        y=np.zeros((n_ctrl, n_t)), dy=np.zeros((n_ctrl, n_t)),
        y_ref=np.zeros((n_ctrl, n_t)), u=np.zeros((n_ctrl, m)),
        mu=np.zeros((n_ctrl, n_t)), delta=np.zeros(n_ctrl), V=np.zeros(n_ctrl),
        Vdot=np.zeros(n_ctrl), qp_status=[""] * n_ctrl,
        solve_time=np.zeros(n_ctrl), saturated=np.zeros((n_ctrl, m), dtype=bool),
        metadata=dict(metadata or {}, dt_physics=cfg.dt_physics,
                      control_decimation=cfg.control_decimation,
                      integrator=cfg.integrator, t_end=cfg.t_end))

    if hasattr(controller, "reset"):
        controller.reset()

    k = 0
    try:
        for k in range(n_ctrl):
            u, log = controller.step(state, reference)
            ev = log.evaluation
            shared = ev is not None and ev.state is state
            ts = ev.ts if shared else task_state(model, state)
            y_ref_k = np.asarray(reference.y_ref(state.t), dtype=float)
            traj.t[k] = state.t
            traj.q[k] = state.q
            traj.dq[k] = state.dq
            traj.y[k] = ts.y
            traj.dy[k] = ts.dy
            traj.y_ref[k] = y_ref_k
            traj.u[k] = u
            traj.mu[k] = log.mu
            traj.delta[k] = log.delta
            traj.V[k] = log.V
            traj.Vdot[k] = log.Vdot
            traj.qp_status[k] = log.qp_status
            traj.solve_time[k] = log.solve_time
            traj.saturated[k] = log.saturated
            if stop_condition is not None:
                reason = stop_condition(state, ts.y - y_ref_k)
                if reason:
                    raise _EarlyStop(reason)
            terms = ev.terms if shared else None
            for _ in range(cfg.control_decimation):
                state = step(model, state, u, cfg, terms=terms)
                terms = None
    except NonFinite as exc:
        traj.failed = True
        traj.failure_reason = str(exc)
        traj = _truncate(traj, k + 1)
    except _EarlyStop as exc:
        traj.failed = True
        traj.failure_reason = exc.reason
        traj = _truncate(traj, k + 1)
    traj.final_state = state
    return traj


class _EarlyStop(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _truncate(traj: Trajectory, rows: int) -> Trajectory:
    for name in ("t", "q", "dq", "y", "dy", "y_ref", "u", "mu", "delta", "V",
                 "Vdot", "solve_time", "saturated"):
        setattr(traj, name, getattr(traj, name)[:rows])
    traj.qp_status = traj.qp_status[:rows]
    return traj
