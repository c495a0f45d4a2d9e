"""Fixed-step closed-loop simulation.

Control inputs update every ``control_decimation`` physics steps and are
held constant in between (zero-order hold). State and per-step diagnostics
are logged at the control rate.

``SimConfig`` declares the simulation protocol. Its fields but the start
state are the protocol keys (``SIM_DEFAULTS``, with their defaults): the
only keys of a spec's ``sim`` section and of the CLI's ``--set sim.*``, and
the keys each trajectory's metadata records. A config runs at least one
control step: round(t_end / (dt_physics * control_decimation)) >= 1.

One loop runs and ends every episode: ``run`` takes lists, one controller,
reference, config and stop condition per episode, and steps the episodes of
one model in lockstep, the configs differing at most in t_end. An episode
ends at its t_end, or failed, with the rows it logged and a named reason:
on its stop condition, which sees each row it logs and that row's
``ControlStepLog`` (the benchmark suites stop on divergence and on a QP
that stays infeasible); on a non-finite input or state; or on a
LinAlgError or IllConditioned raised by its evaluation, its controller or
its physics step. At each control step the simulator evaluates every live
episode's state once and attaches the evaluation to a fresh ``RobotState``
(``RobotState.evaluation``), which it hands the episode's controller. The
logged task position and velocity come from that evaluation, and the first
physics step after the control update reuses its dynamics terms (RK4 stage
k1, or the semi-implicit update), including the guarded Cholesky factor of
M, so the inertia guard runs once per evaluated M under either integrator.
An evaluation points back at its state, so the attachment is cleared once
the controller has stepped, and the pair is freed without waiting for the
cyclic collector.

Each state is checked once. The start state is a checked RobotState, and
every stepped row passes ``_failures`` (finite entries of at most 1e12),
which settles the common case with one maximum magnitude per array; the
per-row states handed to the controllers, the stacked state of an
evaluation and the states episodes end at are built from those rows with
``RobotState.unchecked``, without checking them again. The RK4 stage
states are checked as they are formed.

An RK4 step forms the joint force B u once. Each later stage (k2 to k4)
is a pair of plain arrays held to the rule RobotState enforces, finite
entries, and computes only M and h (``multibody.accelerations``), then the
guarded factor of M's lower triangle and the solve: no state object, terms,
end effector or mirrored M. Its velocity is formed once and serves as its
position slope. A first stage without given terms is computed the same way.

The states of the live episodes are the rows of one (B, n) array. Several
rows are evaluated in one stacked chain pass and advanced in one ``step``,
which returns the reason each row ends on, with the inertia guard and the
Cholesky solve per row; a single row runs on the shapes of one state, where
a step costs less. Each controller steps its own episode, and each episode
leaves the batch on its own: a stacked evaluation or step that raises is
redone one row at a time (``_by_row``), so only the row that raised ends.
Stacking changes no bit of any row: matrix-vector products over rows are
written (A @ x[..., None])[..., 0], the form whose every row is bitwise the
one-row A @ x, and the LAPACK calls stay per row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from . import multibody
from ._lapack import solve
from .controllers import ControlStepLog, Evaluation, Reference, evaluate
from .kinematics import TaskState, task_rows, task_state
from .linalg import all_finite
from .multibody import (DynamicsTerms, IllConditioned, RobotModel, RobotState, bias_terms,
                        matvec)

INTEGRATORS = ("rk4", "semi-implicit-euler")


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
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not (math.isfinite(value) and value > 0.0)):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        steps = self.control_decimation
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValueError(f"control_decimation must be an integer of at least 1, got {steps!r}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        if round(self.t_end / (self.dt_physics * steps)) < 1:
            raise ValueError(f"t_end must give at least one control step, got {self.t_end!r}"
                             f" with dt_physics {self.dt_physics!r} and control_decimation"
                             f" {steps!r}")


SIM_DEFAULTS = {f.name: f.default for f in fields(SimConfig) if f.name != "initial_state"}


def _largest(a: np.ndarray) -> float:
    """max |a_ij| over every entry (0 for none): NaN when an entry is NaN,
    inf when one is infinite and none is NaN."""
    return np.maximum.reduce(np.absolute(a), None, initial=0.0)


def _failures(q: np.ndarray, dq: np.ndarray, t: float) -> list[str]:
    """The reason each stepped row of q and dq ends on, "" for a row that
    may go on. The common case, every entry of every row finite and at most
    1e12 in magnitude, is settled by one maximum magnitude per array, which
    a NaN makes NaN and an inf makes inf, so neither passes; otherwise each
    row gets the entrywise rule."""
    # Abort runaway states before squared terms overflow downstream.
    if _largest(q) <= 1e12 >= _largest(dq):
        return [""] * len(q)
    finite = np.isfinite(q).all(-1) & np.isfinite(dq).all(-1)
    huge = np.maximum(np.abs(q).max(-1), np.abs(dq).max(-1)) > 1e12
    return np.where(finite, np.where(huge, f"state magnitude exceeded 1e12 at t={t:.6f}", ""),
                    f"non-finite state at t={t:.6f}").tolist()


def _raised(exc: Exception, t: float) -> str:
    return f"{type(exc).__name__} at t={t:.6f}: {exc}"


_NUMERICAL = (LinAlgError, IllConditioned)


def _by_row(call: Callable, rows: int, t: float) -> tuple:
    """``call(None)``, one call over every row, and no reasons; if it raises
    a LinAlgError or IllConditioned, the results of ``call(j)`` for each row
    j alone, None where it raised, and the reason each row ends on."""
    try:
        return call(None), None
    except _NUMERICAL:
        pass
    results, reasons = [], []
    for j in range(rows):
        try:
            results.append(call(j))
            reasons.append("")
        except _NUMERICAL as exc:
            results.append(None)
            reasons.append(_raised(exc, t))
    return results, reasons


def step(model: RobotModel, q: np.ndarray, dq: np.ndarray, t: float, u: np.ndarray,
         cfg: SimConfig, terms: DynamicsTerms | None = None) -> tuple:
    """Advance the rows of q and dq, each (B, n), one physics step from time
    t under held inputs, row j of u for row j; returns the next rows and the
    reason each row ends on, "" for a row that goes on.

    The semi-implicit integrator treats the diagonal joint damping term
    implicitly (velocity update solves (M + dt D) v' = M v + dt (Bu - rest)),
    which stays stable for damping far stiffer than an explicit step allows;
    M itself still passes the inertia guard first, as in the RK4 step.
    ``terms``, if given, are the dynamics already evaluated at the rows
    (those of the one state for one row); the step then starts from them.

    Each row comes out bitwise as it steps alone. A row ends on leaving the
    finite range ("non-finite state at t=..." or "state magnitude exceeded
    1e12 at t=...", t after the step) or, keeping its state, on a
    LinAlgError or IllConditioned its step raises ("<ExceptionName> at
    t=...: <message>", t before it). A non-finite RK4 stage state raises
    ValueError for any row, as constructing a RobotState from it would.
    """
    def advance(j):
        if j is None and len(q) > 1:
            return _advance(model, q, dq, u, cfg, terms)
        i = j or 0   # one row, alone or the only one, on the shapes of one state
        row_terms = terms if len(q) == 1 or terms is None else terms.rows[i]
        q_next, dq_next = _advance(model, q[i], dq[i], u[i], cfg, row_terms)
        return (q_next[None], dq_next[None]) if j is None else (q_next, dq_next)

    nxt, raised = _by_row(advance, len(q), t)
    if raised is None:
        q_next, dq_next = nxt
        return q_next, dq_next, _failures(q_next, dq_next, t + cfg.dt_physics)
    q_next, dq_next = q.copy(), dq.copy()   # a row that raised keeps its state
    for j, row in enumerate(nxt):
        if row is not None:
            q_next[j], dq_next[j] = row
    reasons = _failures(q_next, dq_next, t + cfg.dt_physics)
    return q_next, dq_next, [first or reason for first, reason in zip(raised, reasons)]


def _stage(model: RobotModel, q: np.ndarray, dq: np.ndarray, force: np.ndarray) -> np.ndarray:
    """Joint accelerations at an RK4 stage state, held first to the rule
    RobotState enforces on every state, for every row at once."""
    if not all_finite(q, dq):
        raise ValueError("state entries must be finite")
    return multibody.accelerations(model, q, dq, force)


def _advance(model: RobotModel, q: np.ndarray, dq: np.ndarray, u: np.ndarray,
             cfg: SimConfig, terms: DynamicsTerms | None) -> tuple[np.ndarray, np.ndarray]:
    """The next q and dq of one physics step, for q and dq of shape (..., n)."""
    dt = cfg.dt_physics
    if cfg.integrator == "semi-implicit-euler":
        if terms is None:
            terms = bias_terms(model, RobotState(q, dq))
        terms.factor  # inertia guard on M; the update below solves with M + dt D
        rest = terms.c_vec + terms.k_vec + terms.g_vec
        lhs = terms.M + dt * np.diag(model.D_s)
        rhs = matvec(terms.M, dq) + dt * (matvec(model.B, u) - rest)
        dq_next = solve(lhs, rhs[..., None])[..., 0]
        return q + dt * dq_next, dq_next
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
    return (q + dt / 6.0 * (dq + 2.0 * k2q + 2.0 * k3q + k4q),
            dq + dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d))


@dataclass
class Trajectory:
    """Control-rate log of a run, as flat arrays plus lazy views.

    Rows sit on a uniform control-time grid; ``final_state``, set on every
    trajectory ``run`` returns, holds the state the episode ended at.
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

    def final_task_position(self) -> np.ndarray:
        from .kinematics import forward_kinematics

        return forward_kinematics(self.model, self.final_state.q)[task_rows(self.model)]


# The Trajectory columns with one entry per logged row
_ROWS = ("t", "q", "dq", "y", "dy", "y_ref", "u", "mu", "delta", "V", "Vdot", "qp_status",
         "solve_time", "saturated")


def run(model: RobotModel, controllers: list, references: list[Reference],
        cfgs: list[SimConfig], stop_conditions: list | None = None,
        metadata: list | None = None) -> list[Trajectory]:
    """Simulate the closed loops of episodes of one model in lockstep, each
    until its t_end or failure; returns their trajectories, each bitwise
    what the episode run alone gives. Each episode has one controller,
    reference and config (the configs differ at most in t_end), and a stop
    condition and a metadata dict, or None.

    ``stop(state, task_error, log)`` is called for every row its episode
    logs, with its state, task error y - y_ref and ControlStepLog; a reason
    it returns ends the episode failed at that row. A non-finite input ends
    it keeping that row, unapplied ("non-finite input at t=..."). A
    LinAlgError (``linalg.SvdFailure`` among them) or IllConditioned ends it
    with the rows logged before ("<ExceptionName> at t=...: <message>", t
    that of the control step or of the physics step's start); any other
    exception propagates.
    """
    n = len(controllers)
    stop_conditions, metadata = stop_conditions or [None] * n, metadata or [None] * n
    if not len(references) == len(cfgs) == len(stop_conditions) == len(metadata) == n:
        raise ValueError("need one reference, config, stop condition and metadata entry "
                         "per controller")
    return _run_episodes(model, controllers, references, cfgs, stop_conditions, metadata)


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
        metadata=dict(metadata or {}, **{key: getattr(cfg, key) for key in SIM_DEFAULTS}))


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
        for name in _ROWS:
            setattr(traj, name, getattr(traj, name)[:rows])
    traj.final_state = final_state
    return traj


def _drop(trajs: list[Trajectory], live: list[int], ends: dict, *rows: np.ndarray):
    """End the episodes of the rows in ``ends`` (row j -> the final state,
    reason and rows kept that ``_end`` takes) and return ``live`` and each
    array of ``rows`` without those rows."""
    if not ends:
        return live, *rows
    for j, end in ends.items():
        _end(trajs[live[j]], *end)
    keep = [j for j in range(len(live)) if j not in ends]
    return [live[j] for j in keep], *(a[keep] for a in rows)


def _evaluate_rows(model: RobotModel, states: list[RobotState], q: np.ndarray,
                   dq: np.ndarray, t: float) -> tuple:
    """Evaluate the states in the rows of q and dq and attach to each state
    its evaluation; returns the terms the first physics step starts from
    (None if the rows were redone one by one) and the reason each row ends
    on. One row is evaluated on the shapes of one state, several in one
    stacked pass whose per-row factors are those of the evaluations."""
    def attach(j):
        if j is not None or len(states) == 1:
            state = states[j or 0]
            ev = evaluate(model, state)
            object.__setattr__(state, "evaluation", ev)
            return ev.terms
        rows = RobotState.unchecked(q, dq)
        terms = bias_terms(model, rows)
        ts = task_state(model, rows, pose=terms.pose, motion=terms.motion)
        for state, row_terms, *row_ts in zip(states, terms.rows, ts.y, ts.dy, ts.J, ts.dJ,
                                             ts.N, ts.J_pinv):
            ev = Evaluation(state=state, terms=row_terms, ts=TaskState(*row_ts), model=model)
            object.__setattr__(state, "evaluation", ev)
        return terms

    terms, raised = _by_row(attach, len(states), t)
    return (terms, [""] * len(states)) if raised is None else (None, raised)


def _run_episodes(model, controllers, references, cfgs, stops, metadata) -> list[Trajectory]:
    if not cfgs:
        return []
    cfg = cfgs[0]
    for other in cfgs[1:]:
        if (any(getattr(other, key) != getattr(cfg, key) for key in SIM_DEFAULTS
                if key != "t_end") or other.initial_state is not cfg.initial_state):
            raise ValueError("episodes run in lockstep may differ only in t_end")
    start = cfg.initial_state if cfg.initial_state is not None else model.rest_state()
    trajs = [_new_trajectory(model, c, meta) for c, meta in zip(cfgs, metadata)]
    for controller in controllers:
        if hasattr(controller, "reset"):
            controller.reset()

    live = list(range(len(trajs)))   # live[j] is the episode in row j of q and dq
    q = np.tile(start.q, (len(live), 1))
    dq = np.tile(start.dq, (len(live), 1))
    t = start.t
    k = 0
    while True:
        done = {j: (RobotState.unchecked(q[j], dq[j], t),) for j, i in enumerate(live)
                if len(trajs[i]) == k}
        live, q, dq = _drop(trajs, live, done, q, dq)
        if not live:
            return trajs
        states = [RobotState.unchecked(row_q, row_dq, t) for row_q, row_dq in zip(q, dq)]
        terms, reasons = _evaluate_rows(model, states, q, dq, t)
        ends, inputs = {}, np.zeros((len(live), model.m))
        for j, (i, state, reason) in enumerate(zip(live, states, reasons)):
            if not reason:
                try:
                    ts = state.evaluation.ts
                    u, log = controllers[i].step(state, references[i])
                except _NUMERICAL as exc:
                    reason = _raised(exc, t)
                finally:
                    object.__setattr__(state, "evaluation", None)   # it points back at the state
            if reason:
                ends[j] = (state, reason, k)
                continue
            y_ref_k = _log_row(trajs[i], k, state, ts, references[i], u, log)
            reason = stops[i](state, ts.y - y_ref_k, log) if stops[i] else ""
            if not (reason or all_finite(u)):
                reason = f"non-finite input at t={t:.6f}"
            if reason:
                ends[j] = (state, reason, k + 1)
            inputs[j] = u
        if ends:
            terms = None
        live, q, dq, inputs = _drop(trajs, live, ends, q, dq, inputs)
        for _ in range(cfg.control_decimation):
            if not live:
                break
            q_next, dq_next, reasons = step(model, q, dq, t, inputs, cfg, terms)
            terms = None
            ends = {j: (RobotState.unchecked(q[j], dq[j], t), reason, k + 1)
                    for j, reason in enumerate(reasons) if reason}
            t += cfg.dt_physics
            live, q, dq, inputs = _drop(trajs, live, ends, q_next, dq_next, inputs)
        k += 1
