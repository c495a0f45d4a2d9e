"""Fixed-step closed-loop simulation.

Control inputs update every ``control_decimation`` physics steps and are
held constant in between (zero-order hold). State and per-step diagnostics
are logged at the control rate; a non-finite state aborts the run and the
partial trajectory is returned with a failure marker.

One loop runs every episode, alone or several of one model in lockstep
(``run`` given lists: one controller, reference and config per episode,
the configs differing at most in t_end). At each control step the
simulator evaluates every live episode's state once and attaches the
evaluation to a fresh ``RobotState`` (``RobotState.evaluation``), which it
hands the episode's controller. The logged task position and velocity
come from that evaluation, and the first physics step after the control
update reuses its dynamics terms (RK4 stage k1, or the semi-implicit
update), including the guarded Cholesky factor of M, so the inertia guard
runs once per evaluated M under either integrator. An evaluation points
back at its state, so the attachment is cleared once the controller has
stepped, and the pair is freed without waiting for the cyclic collector.

An RK4 step forms the joint force B u once. Each later stage (k2 to k4)
is a pair of plain arrays held to the rule RobotState enforces, finite
entries, and computes only its accelerations (``multibody.accelerations``):
the chain passes, M and h, the guarded factor of M and the solve. It builds
no state object and no dynamics terms, and its velocity is formed once and
serves as its position slope. A first stage without given terms is
computed the same way.

The states of the live episodes are the rows of one (B, n) array. Several
rows are evaluated in one stacked chain pass and advanced in one call of
``step``, with the inertia guard and the Cholesky solve per row; a single
row runs on the shapes of one state, where a step costs less. Each
controller still steps its own episode, and each episode leaves the batch
on its own: at its t_end, on its stop condition, or on a non-finite state.
Stacking changes no bit of any row: matrix-vector products over rows are
written (A @ x[..., None])[..., 0], the form whose every row is bitwise the
one-row A @ x, and the LAPACK calls stay per row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import multibody
from .controllers import ControlStepLog, Evaluation, Reference, evaluate
from .kinematics import TaskState, task_rows, task_state
from .multibody import DynamicsTerms, RobotModel, RobotState, bias_terms, matvec

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
        for name in ("dt_physics", "t_end"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        steps = self.control_decimation
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValueError(f"control_decimation must be an integer of at least 1, got {steps!r}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")


@dataclass(frozen=True)
class StateBatch:
    """The states of several episodes at one time: row i of q and dq, each
    (B, n), is episode i; q and dq of shape (n,) hold one episode on the
    shapes of one state. Entries are not checked on construction; a batch
    returned by ``step`` names in ``failure`` the NonFinite reason of each
    row that left the finite range ("" for the others, empty when none did)."""

    q: np.ndarray
    dq: np.ndarray
    t: float = 0.0
    failure: tuple[str, ...] = ()


def _stage(model: RobotModel, q: np.ndarray, dq: np.ndarray, force: np.ndarray) -> np.ndarray:
    """Joint accelerations at an RK4 stage state, held first to the rule
    RobotState enforces on every state, for every row at once."""
    if not (np.isfinite(q).all() and np.isfinite(dq).all()):
        raise ValueError("state entries must be finite")
    return multibody.accelerations(model, q, dq, force)


def _failures(q: np.ndarray, dq: np.ndarray, t: float):
    """None when every row of a stepped state may go on; otherwise the
    NonFinite reason of each row, "" for the rows that may."""
    finite = np.isfinite(q).all(-1) & np.isfinite(dq).all(-1)
    # Abort runaway states before squared terms overflow downstream.
    huge = np.maximum(np.abs(q).max(-1), np.abs(dq).max(-1)) > 1e12
    if finite.all() and not huge.any():
        return None
    return np.where(finite, np.where(huge, f"state magnitude exceeded 1e12 at t={t:.6f}", ""),
                    f"non-finite state at t={t:.6f}")


def step(model: RobotModel, state: RobotState | StateBatch, u: np.ndarray,
         cfg: SimConfig, terms: DynamicsTerms | None = None) -> RobotState | StateBatch:
    """Advance one physics step under a constant input.

    The semi-implicit integrator treats the diagonal joint damping term
    implicitly (velocity update solves (M + dt D) v' = M v + dt (Bu - rest)),
    which stays stable for damping far stiffer than an explicit step allows;
    M itself still passes the inertia guard first, as in the RK4 step.
    ``terms``, if given, are the dynamics already evaluated at ``state``; the
    step then starts from them instead of re-evaluating the chain.

    A StateBatch advances every row at once, with one row of ``u`` per row
    and ``terms`` stacked the same way; each row comes out bitwise as a
    step of its own would give it. A row leaving the finite range raises no
    NonFinite but is named in the returned batch's ``failure``; a non-finite
    RK4 stage state raises ValueError for any row, as a RobotState would.
    """
    dt = cfg.dt_physics
    q, dq = state.q, state.dq
    if cfg.integrator == "semi-implicit-euler":
        if terms is None:
            terms = bias_terms(model, state)
        terms.factor  # inertia guard on M; the update below solves with M + dt D
        rest = terms.c_vec + terms.k_vec + terms.g_vec
        lhs = terms.M + dt * np.diag(model.D_s)
        rhs = matvec(terms.M, dq) + dt * (matvec(model.B, u) - rest)
        dq_next = np.linalg.solve(lhs, rhs[..., None])[..., 0]
        q_next = q + dt * dq_next
    else:
        # Stage j's velocity is also its position slope k_jq (k_1q = dq).
        force = matvec(model.B, np.asarray(u, dtype=float))
        k1d = (multibody.accelerations(model, q, dq, force) if terms is None
               else multibody.solve_inertia(terms, force - terms.h))
        k2q = dq + 0.5 * dt * k1d
        k2d = _stage(model, q + 0.5 * dt * dq, k2q, force)
        k3q = dq + 0.5 * dt * k2d
        k3d = _stage(model, q + 0.5 * dt * k2q, k3q, force)
        k4q = dq + dt * k3d
        k4d = _stage(model, q + dt * k3q, k4q, force)
        q_next = q + dt / 6.0 * (dq + 2.0 * k2q + 2.0 * k3q + k4q)
        dq_next = dq + dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    t_next = state.t + dt
    failures = _failures(q_next, dq_next, t_next)
    if isinstance(state, StateBatch):
        return StateBatch(q_next, dq_next, t_next,
                          () if failures is None else tuple(failures.reshape(-1).tolist()))
    if failures is not None:
        raise NonFinite(str(failures))
    return RobotState(q=q_next, dq=dq_next, t=t_next)


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

    Given lists of controllers, references and configs (and a list of
    metadata dicts, or None), ``run`` steps those episodes in lockstep and
    returns the list of their trajectories, each bitwise the one a run of
    its own gives; ``stop_condition`` applies to every episode, and the
    configs may differ only in t_end.
    """
    if not isinstance(controller, (list, tuple)):
        return _run_episodes(model, [controller], [reference], [cfg], stop_condition,
                             [metadata])[0]
    metadata = [None] * len(controller) if metadata is None else metadata
    if not len(controller) == len(reference) == len(cfg) == len(metadata):
        raise ValueError("need one reference, config and metadata entry per controller")
    return _run_episodes(model, controller, reference, cfg, stop_condition, metadata)


def _new_trajectory(model: RobotModel, cfg: SimConfig, metadata: dict | None) -> Trajectory:
    n_ctrl = int(round(cfg.t_end / (cfg.dt_physics * cfg.control_decimation)))
    n, m, n_t = model.n, model.m, model.task_dim
    return Trajectory(
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


def _log_row(traj: Trajectory, k: int, state: RobotState, ts: TaskState,
             reference: Reference, u: np.ndarray, log: ControlStepLog) -> np.ndarray:
    """Write control row k; returns the reference position it logged."""
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
    return y_ref_k


def _end(traj: Trajectory, final_state: RobotState, reason: str = "",
         rows: int | None = None) -> Trajectory:
    """Close an episode at ``final_state``; a reason marks it failed and
    keeps only its first ``rows`` rows."""
    if reason:
        traj.failed = True
        traj.failure_reason = reason
        for name in ("t", "q", "dq", "y", "dy", "y_ref", "u", "mu", "delta", "V",
                     "Vdot", "solve_time", "saturated"):
            setattr(traj, name, getattr(traj, name)[:rows])
        traj.qp_status = traj.qp_status[:rows]
    traj.final_state = final_state
    return traj


def _evaluate_rows(model: RobotModel, states: list[RobotState], q: np.ndarray,
                   dq: np.ndarray) -> DynamicsTerms:
    """Evaluate the states in the rows of q and dq and attach to each state
    its evaluation; returns the terms the first physics step starts from.
    One row is evaluated on the shapes of one state, several in one stacked
    pass whose per-row factors are those of the attached evaluations."""
    if len(states) == 1:
        ev = evaluate(model, states[0])
        object.__setattr__(states[0], "evaluation", ev)
        return ev.terms
    batch = StateBatch(q, dq)
    terms = bias_terms(model, batch)
    ts = task_state(model, batch, pose=terms.pose, motion=terms.motion)
    for state, row_terms, *row_ts in zip(states, terms.rows, ts.y, ts.dy, ts.J, ts.dJ,
                                         ts.N, ts.J_pinv):
        ev = Evaluation(state=state, terms=row_terms, ts=TaskState(*row_ts), model=model)
        object.__setattr__(state, "evaluation", ev)
    return terms


def _step_rows(model: RobotModel, q: np.ndarray, dq: np.ndarray, t: float,
               inputs: np.ndarray, cfg: SimConfig, terms: DynamicsTerms | None) -> StateBatch:
    """One physics step of the rows of q and dq; one row steps on the shapes
    of one state and comes back as a row."""
    if len(q) > 1:
        return step(model, StateBatch(q, dq, t), inputs, cfg, terms=terms)
    nxt = step(model, StateBatch(q[0], dq[0], t), inputs[0], cfg, terms=terms)
    return StateBatch(nxt.q[None], nxt.dq[None], nxt.t, nxt.failure)


def _run_episodes(model, controllers, references, cfgs, stop_condition,
                  metadata) -> list[Trajectory]:
    if not cfgs:
        return []
    cfg = cfgs[0]
    for other in cfgs[1:]:
        if ((other.dt_physics, other.control_decimation, other.integrator)
                != (cfg.dt_physics, cfg.control_decimation, cfg.integrator)
                or other.initial_state is not cfg.initial_state):
            raise ValueError("episodes run in lockstep may differ only in t_end")
    start = cfg.initial_state if cfg.initial_state is not None else model.rest_state()
    trajs = [_new_trajectory(model, c, meta) for c, meta in zip(cfgs, metadata)]
    for controller in controllers:
        if hasattr(controller, "reset"):
            controller.reset()

    # live[j] is the episode in row j of q and dq
    live = []
    for i, traj in enumerate(trajs):
        if len(traj):
            live.append(i)
        else:
            _end(traj, start)
    q = np.tile(start.q, (len(live), 1))
    dq = np.tile(start.dq, (len(live), 1))
    t = start.t
    k = 0
    while live:
        states = [RobotState(q=row_q, dq=row_dq, t=t) for row_q, row_dq in zip(q, dq)]
        terms = _evaluate_rows(model, states, q, dq)
        stay, inputs = [], []
        for j, (i, state) in enumerate(zip(live, states)):
            ts = state.evaluation.ts
            u, log = controllers[i].step(state, references[i])
            object.__setattr__(state, "evaluation", None)   # it points back at the state
            y_ref_k = _log_row(trajs[i], k, state, ts, references[i], u, log)
            reason = stop_condition(state, ts.y - y_ref_k) if stop_condition else ""
            if reason:
                _end(trajs[i], state, reason, k + 1)
            else:
                stay.append(j)
                inputs.append(u)
        if len(stay) < len(live):
            live, q, dq, terms = [live[j] for j in stay], q[stay], dq[stay], None
        inputs = np.array(inputs)
        for _ in range(cfg.control_decimation):
            if not live:
                break
            nxt = _step_rows(model, q, dq, t, inputs, cfg, terms)
            terms = None
            if nxt.failure:
                stay = []
                for j, reason in enumerate(nxt.failure):
                    if reason:
                        _end(trajs[live[j]], RobotState(q=q[j], dq=dq[j], t=t), reason, k + 1)
                    else:
                        stay.append(j)
                live, inputs = [live[j] for j in stay], inputs[stay]
                nxt = StateBatch(nxt.q[stay], nxt.dq[stay], nxt.t)
            q, dq, t = nxt.q, nxt.dq, nxt.t
        k += 1
        stay = []
        for j, i in enumerate(live):
            if len(trajs[i]) == k:
                _end(trajs[i], RobotState(q=q[j], dq=dq[j], t=t))
            else:
                stay.append(j)
        if len(stay) < len(live):
            live, q, dq = [live[j] for j in stay], q[stay], dq[stay]
    return trajs
