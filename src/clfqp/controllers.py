"""The five task-space control laws, each a per-step map from
(model, state, reference) to a bounded input u.

QP-based laws:

- clf-qp: picks a virtual task acceleration mu near a PD reference subject
  to the Lyapunov decrease row, with the input tied to mu through the
  input-output linearizing relation and boxed by the actuator bounds.
- soft-id-clf-qp and ic-qp: one full-body program (``full_body_qp_step``)
  over whole-body accelerations and inputs, imposing inverse dynamics as a
  hard equality only on the actuated rows of the collocated coordinates
  (T_a = B'), which leaves the unactuated rows soft and regularizes
  null-space motion. soft-id-clf-qp adds the Lyapunov decrease row and its
  relaxation delta; ic-qp solves the program without them.

Closed-form baselines (``impedance_step``):

- ic: operational-space impedance control with full cancellation of
  stiffness, damping, and gravity, clamped to the input box.
- uic: the same law with torque components in unactuated directions removed
  by a null-space correction before clamping (``uic=True``).

One ``Controller`` class runs any of the five laws by name. It makes the
maps that depend only on B, and the constant blocks of its QP
(``QpConstants``), once, and owns the warm-start and hold-previous-input
state of one episode; the *_step functions are pure.
Every step reads its state's chain evaluation through ``evaluate``: the one
the state carries when the simulator attached it (the simulator logs and
integrates from that same evaluation), otherwise one made on the spot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clf import ClfData, TaskError, clf_row, clf_terms, default_clf
from .kinematics import TaskState, task_state
from ._lapack import inv, svdvals
from .linalg import eye, pinv, svd
from .multibody import DynamicsTerms, RobotModel, RobotState, bias_terms, solve_inertia
from .qp import Bounds, PsdHessian, QpProblem, QpSolution, QpStatus, solve_qp

LAMBDA_REG = 1e-8        # task-inertia regularization for ic/uic

CONTROLLER_NAMES = ("clf-qp", "soft-id-clf-qp", "ic", "uic", "ic-qp")


class RankDeficientB(ValueError):
    """Actuation matrix has dependent columns; no collocated form exists."""


@dataclass(frozen=True)
class Reference:
    """Task-space reference: position, velocity, and acceleration, each a
    function of time. Set points carry zero derivatives."""

    y_ref: Callable[[float], np.ndarray]
    dy_ref: Callable[[float], np.ndarray]
    ddy_ref: Callable[[float], np.ndarray]

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.asarray(self.y_ref(t), dtype=float),
                np.asarray(self.dy_ref(t), dtype=float),
                np.asarray(self.ddy_ref(t), dtype=float))

    @classmethod
    def setpoint(cls, y: np.ndarray) -> "Reference":
        y = np.asarray(y, dtype=float)
        zero = np.zeros_like(y)
        return cls(y_ref=lambda t: y, dy_ref=lambda t: zero, ddy_ref=lambda t: zero)


@dataclass(frozen=True)
class Evaluation:
    """The chain of ``model`` evaluated once at a state: dynamics terms
    (with the guarded factor of M, made on first use) and the task-space
    snapshot, both from one pose and motion pass."""

    state: RobotState
    terms: DynamicsTerms
    ts: TaskState
    model: RobotModel


def evaluate(model: RobotModel, state: RobotState) -> Evaluation:
    """Dynamics terms and task state at ``state`` from one chain pass.

    An evaluation the state carries (``sim.run`` attaches the one it made to
    every state it hands a controller) is returned instead when it was made
    for this very state and model."""
    ev = state.evaluation
    if ev is not None and ev.state is state and ev.model is model:
        return ev
    terms = bias_terms(model, state)
    ts = task_state(model, state, pose=terms.pose, motion=terms.motion)
    return Evaluation(state=state, terms=terms, ts=ts, model=model)


@dataclass
class ControlStepLog:
    """Per-step diagnostics; u always lies inside the input box."""

    u: np.ndarray
    mu: np.ndarray
    delta: float
    V: float
    Vdot: float
    qp_status: str
    solve_time: float
    saturated: np.ndarray


@dataclass(frozen=True)
class CollocatedSplit:
    """Coordinate change T = [B'; W] splitting joints into actuated and
    unactuated parts. S (the first m rows of inv(T')) satisfies S B = I, so
    S (M qdd + h) = u is exactly the actuated block of the dynamics."""

    T: np.ndarray
    S: np.ndarray
    W: np.ndarray


def collocated_split(b: np.ndarray) -> CollocatedSplit:
    b = np.asarray(b, dtype=float)
    n, m = b.shape
    u_svd, sv, _ = svd(b, full_matrices=True)
    if m > 0 and (sv.size < m or sv[m - 1] <= 1e-12 * sv[0]):
        raise RankDeficientB("actuation matrix does not have full column rank")
    w = u_svd[:, m:].T
    t = np.vstack([b.T, w])
    tsv = svdvals(t)
    cond = tsv[0] / tsv[-1] if tsv[-1] > 0.0 else np.inf     # np.linalg.cond(t)
    if cond > 1e8:
        raise RankDeficientB(f"collocated transform condition {cond:.2e} too high")
    s = inv(t)[:, :m].T
    return CollocatedSplit(T=t, S=s, W=w)


def lie_terms(model: RobotModel, state: RobotState,
              terms: DynamicsTerms | None = None,
              ts: TaskState | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Second-order task dynamics pieces: ydd = Lf2y + LgLfy u.

    Lf2y = -J M^-1 h + dJ qd and LgLfy = J M^-1 B.
    """
    if terms is None:
        terms = bias_terms(model, state)
    if ts is None:
        ts = task_state(model, state, pose=terms.pose, motion=terms.motion)
    minv_cols = solve_inertia(terms, np.concatenate((terms.h[:, None], model.B), axis=1))
    lf2y = -ts.J @ minv_cols[:, 0] + ts.dJ @ state.dq
    lglfy = ts.J @ minv_cols[:, 1:]
    return lf2y, lglfy


def mu_ref(gains, err: TaskError) -> np.ndarray:
    """PD reference for the task error acceleration, critically damped
    through kd = 2 sqrt(kp)."""
    return -gains.kd * err.de - gains.kp * err.e


def _clamp(u: np.ndarray, model: RobotModel) -> np.ndarray:
    return np.minimum(np.maximum(u, model.u_min), model.u_max)


def _saturation_mask(u: np.ndarray, model: RobotModel) -> np.ndarray:
    tol = 1e-9 * (model.u_max - model.u_min)
    return (u <= model.u_min + tol) | (u >= model.u_max - tol)


@dataclass
class _StepData:
    """Shared per-step evaluations."""

    evaluation: Evaluation
    y_ref: np.ndarray
    dy_ref: np.ndarray
    ddy_ref: np.ndarray
    err: TaskError
    # (V, a0, a1) of the step's certificate at err (``clf.clf_terms``),
    # made once for the decrease row and the logged V and Vdot
    certificate: tuple | None = None

    @property
    def terms(self) -> DynamicsTerms:
        return self.evaluation.terms

    @property
    def ts(self) -> TaskState:
        return self.evaluation.ts


def _evaluate_step(model: RobotModel, state: RobotState, ref: Reference,
                   clf: ClfData | None = None) -> _StepData:
    ev = evaluate(model, state)
    y_ref, dy_ref, ddy_ref = ref.at(state.t)
    err = TaskError(e=ev.ts.y - y_ref, de=ev.ts.dy - dy_ref)
    return _StepData(evaluation=ev, y_ref=y_ref, dy_ref=dy_ref, ddy_ref=ddy_ref, err=err,
                     certificate=None if clf is None else clf_terms(clf, err))


@dataclass(frozen=True)
class QpConstants:
    """The blocks of a QP law's program that no step changes, made once per
    controller and read-only: the Hessian (clf-qp) or its constant blocks
    (full body: 2 w3 I, and 2 rho when certifying), A_eq with only its
    identity block filled, the input box with its inequality rows, and, for
    the full body, w2 I. clf-qp's whole Hessian is also kept as the
    ``PsdHessian`` it is, checked once here instead of once per step."""

    H: np.ndarray
    A_eq: np.ndarray
    bounds: Bounds
    w2_eye: np.ndarray | None = None
    hessian: PsdHessian | None = None

    def __post_init__(self):
        for arr in (self.H, self.A_eq, self.w2_eye):
            if arr is not None:
                arr.setflags(write=False)


def clf_qp_constants(model: RobotModel, gains) -> QpConstants:
    n_t, m = model.task_dim, model.m
    d = m + n_t + 1
    h_cost = np.zeros((d, d))
    h_cost[m:m + n_t, m:m + n_t] = 2.0 * gains.w1 * np.eye(n_t)
    h_cost[-1, -1] = 2.0 * gains.rho
    a_eq = np.zeros((m, d))
    a_eq[:, :m] = np.eye(m)
    lb = np.concatenate([model.u_min, np.full(n_t, -np.inf), [0.0]])
    ub = np.concatenate([model.u_max, np.full(n_t, np.inf), [np.inf]])
    hessian = PsdHessian.make(h_cost)
    return QpConstants(H=hessian.H, A_eq=a_eq, bounds=Bounds.make(lb, ub, d), hessian=hessian)


def clf_qp_step(model: RobotModel, state: RobotState, ref: Reference, gains,
                clf: ClfData, warm_start: tuple | None = None,
                u_hold: np.ndarray | None = None, consts: QpConstants | None = None
                ) -> tuple[np.ndarray, ControlStepLog, QpSolution]:
    """One step of the clf-qp law.

    Decision variables (u, mu, delta): minimize
    w1 ||mu - mu_ref||^2 + rho delta^2 subject to the Lyapunov decrease row,
    the linearizing equality u = (LgLfy)^+ (-Lf2y + mu + ydd_ref), the input
    box, and delta >= 0. On infeasibility the previous input is held.
    ``consts`` are ``clf_qp_constants(model, gains)``, when known.
    """
    data = _evaluate_step(model, state, ref, clf)
    consts = clf_qp_constants(model, gains) if consts is None else consts
    n_t, m = model.task_dim, model.m
    lf2y, lglfy = lie_terms(model, state, terms=data.terms, ts=data.ts)
    g_pinv = pinv(lglfy)

    d = m + n_t + 1
    f_cost = np.zeros(d)
    mu_des = mu_ref(gains, data.err)
    f_cost[m:m + n_t] = -2.0 * gains.w1 * mu_des

    a_eq = consts.A_eq.copy()
    a_eq[:, m:m + n_t] = -g_pinv
    b_eq = g_pinv @ (-lf2y + data.ddy_ref)

    row, rhs = clf_row(clf, data.err, data.certificate)
    a_in = np.zeros((1, d))
    a_in[0, m:] = row
    b_in = np.array([rhs])

    prob = QpProblem(consts.hessian, f_cost, a_eq, b_eq, a_in, b_in, bounds=consts.bounds)
    sol = solve_qp(prob, warm_start=warm_start)
    return _finish_qp_step(model, state, data, sol, u_hold,
                           lambda x: (x[:m], x[m:m + n_t], x[-1]))


def full_body_constants(model: RobotModel, gains, certify: bool) -> QpConstants:
    n, m = model.n, model.m
    d = n + m + 1 if certify else n + m
    h_cost = np.zeros((d, d))
    h_cost[n:n + m, n:n + m] = 2.0 * gains.w3 * np.eye(m)
    a_eq = np.zeros((m, d))
    a_eq[:, n:n + m] = -np.eye(m)
    lb_parts = [np.full(n, -np.inf), model.u_min]
    ub_parts = [np.full(n, np.inf), model.u_max]
    if certify:
        h_cost[-1, -1] = 2.0 * gains.rho
        lb_parts.append([0.0])
        ub_parts.append([np.inf])
    bounds = Bounds.make(np.concatenate(lb_parts), np.concatenate(ub_parts), d)
    return QpConstants(H=h_cost, A_eq=a_eq, bounds=bounds, w2_eye=gains.w2 * np.eye(n))


def full_body_qp_step(model: RobotModel, state: RobotState, ref: Reference, gains,
                      clf: ClfData | None, split: CollocatedSplit, certify: bool,
                      warm_start: tuple | None = None,
                      u_hold: np.ndarray | None = None,
                      consts: QpConstants | None = None
                      ) -> tuple[np.ndarray, ControlStepLog, QpSolution]:
    """One step of soft-id-clf-qp (``certify``) or ic-qp (not ``certify``).

    Decision variables (qdd, u), plus delta when certifying: minimize
    w1 ||mu - mu_ref||^2 + w2 ||qdd||^2 + w3 ||u||^2
    + w4 ||N qdd - qdd_null_ref||^2 (+ rho delta^2), with
    mu = J qdd + dJ qd - ydd_ref and qdd_null_ref = -d_null N qd, subject to
    the actuated-row equality S (M qdd + h) = u and the input box; when
    certifying, also to the Lyapunov row and delta >= 0. Without the
    certificate, ``clf`` (which may be None) only scores the logged V and
    Vdot. On infeasibility the previous input is held. ``consts`` are
    ``full_body_constants(model, gains, certify)``, when known.
    """
    data = _evaluate_step(model, state, ref, clf)
    consts = full_body_constants(model, gains, certify) if consts is None else consts
    n, m, n_t = model.n, model.m, model.task_dim
    jac, djac, nproj = data.ts.J, data.ts.dJ, data.ts.N

    d = n + m + 1 if certify else n + m
    mu_des = mu_ref(gains, data.err)
    mu_drift = djac @ state.dq - data.ddy_ref        # mu = J qdd + mu_drift
    qdd_null_ref = -gains.d_null * (nproj @ state.dq)

    h_cost = consts.H.copy()
    f_cost = np.zeros(d)
    # N is symmetric idempotent, so N'N = N.
    h_cost[:n, :n] = 2.0 * (gains.w1 * jac.T @ jac + consts.w2_eye + gains.w4 * nproj)
    f_cost[:n] = (2.0 * gains.w1 * jac.T @ (mu_drift - mu_des)
                  - 2.0 * gains.w4 * (nproj @ qdd_null_ref))

    a_eq = consts.A_eq.copy()
    a_eq[:, :n] = split.S @ data.terms.M
    b_eq = -split.S @ data.terms.h

    a_in = b_in = None
    if certify:
        row, rhs = clf_row(clf, data.err, data.certificate)     # over (mu, delta)
        a1 = row[:n_t]
        a_in = np.zeros((1, d))
        a_in[0, :n] = a1 @ jac
        a_in[0, -1] = row[-1]
        b_in = np.array([rhs - a1 @ mu_drift])

    prob = QpProblem(h_cost, f_cost, a_eq, b_eq, a_in, b_in, bounds=consts.bounds)
    sol = solve_qp(prob, warm_start=warm_start)
    return _finish_qp_step(model, state, data, sol, u_hold,
                           lambda x: (x[n:n + m], jac @ x[:n] + mu_drift,
                                      x[-1] if certify else 0.0))


def _finish_qp_step(model, state, data, sol, u_hold, read):
    """Applied input and log of a solved QP; ``read(x)`` gives the input,
    mu and delta of a solution. An infeasible QP holds ``u_hold``."""
    if sol.status is QpStatus.INFEASIBLE:
        u = _clamp(u_hold if u_hold is not None else np.zeros(model.m), model)
        mu, delta = None, np.nan
    else:
        u_cmd, mu, delta = read(sol.x_star)
        u, delta = _clamp(u_cmd, model), float(delta)
    log = _step_log(model, state, data, u, sol.status.value, sol.solve_time,
                    mu=mu, delta=delta)
    return u, log, sol


def _step_log(model, state, data, u, qp_status, solve_time, mu=None, delta=0.0):
    """Log of a step that applies u; without a planned ``mu`` (closed-form
    laws, held inputs) it logs the task error acceleration that u produces."""
    if mu is None:
        qdd = solve_inertia(data.terms, model.B @ u - data.terms.h)
        mu = data.ts.J @ qdd + data.ts.dJ @ state.dq - data.ddy_ref
    v, vdot = _certificate_values(data, mu)
    return ControlStepLog(u=u, mu=mu, delta=delta, V=v, Vdot=vdot, qp_status=qp_status,
                          solve_time=solve_time, saturated=_saturation_mask(u, model))


def _certificate_values(data, mu):
    if data.certificate is None:
        return np.nan, np.nan
    v, a0, a1 = data.certificate
    return v, a0 + float(a1 @ mu)


def actuation_maps(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B^+ and I - B B^+, the projector onto the joint torques B cannot
    produce; fixed per robot, so the closed-form controllers make them once."""
    b_pinv = pinv(b)
    return b_pinv, np.eye(b.shape[0]) - b @ b_pinv


def impedance_step(model: RobotModel, state: RobotState, ref: Reference, gains,
                   clf: ClfData | None = None,
                   maps: tuple[np.ndarray, np.ndarray] | None = None,
                   uic: bool = False) -> tuple[np.ndarray, ControlStepLog]:
    """Operational-space impedance law with full potential cancellation.

    Computes the task wrench f = Lambda ydd_des + h_task from PD error
    dynamics (kd = 2 sqrt(kp)), then clamps u = B^+ (J'f + D qd + K q + g)
    to the input box. With ``uic`` the unactuated torque components are
    removed first through the null-space correction
    tau_null = -[(I - Ip) N]^+ (I - Ip) J'f, where Ip = B B^+. ``maps`` are
    ``actuation_maps(model.B)``, when known.
    """
    data = _evaluate_step(model, state, ref, clf)
    maps = actuation_maps(model.B) if maps is None else maps
    u = _clamp(_impedance_torque(model, state, data, gains, maps, uic=uic), model)
    return u, _step_log(model, state, data, u, "ClosedForm", 0.0)


def _impedance_torque(model, state, data, gains, maps, uic: bool) -> np.ndarray:
    jac, djac = data.ts.J, data.ts.dJ
    terms = data.terms
    b_pinv, blocked = maps
    minv_jt = solve_inertia(terms, jac.T)
    lam_inv = jac @ minv_jt
    lam = inv(lam_inv + LAMBDA_REG * eye(model.task_dim))

    ydd_des = data.ddy_ref - gains.kd * data.err.de - gains.kp * data.err.e
    h_task = data.ts.J_pinv.T @ terms.c_vec - lam @ (djac @ state.dq)
    wrench = lam @ ydd_des + h_task

    tau_task = jac.T @ wrench
    if uic:
        nproj = data.ts.N
        tau_null = -pinv(blocked @ nproj) @ (blocked @ tau_task)
        tau_task = tau_task + nproj @ tau_null
    tau = tau_task + terms.d_vec + terms.k_vec + terms.g_vec
    return b_pinv @ tau


class Controller:
    """One of the five laws, chosen by ``name``. Makes the maps that depend
    only on B once (the collocated split for the full-body QPs, B^+ and
    I - B B^+ for ic/uic), and the constant blocks of a QP law, and owns the
    warm-start and hold-previous-input state of one episode at a time;
    ``reset`` clears it between episodes."""

    def __init__(self, name: str, model: RobotModel, gains):
        if name not in CONTROLLER_NAMES:
            raise KeyError(f"unknown controller {name!r}; choose from {CONTROLLER_NAMES}")
        self.name = name
        self.model = model
        self.gains = gains
        self.clf = default_clf(gains.eps, model.task_dim)
        if name == "clf-qp":
            self.consts = clf_qp_constants(model, gains)
        elif name in ("soft-id-clf-qp", "ic-qp"):
            self.split = collocated_split(model.B)
            self.consts = full_body_constants(model, gains, certify=name == "soft-id-clf-qp")
        else:
            self.maps = actuation_maps(model.B)
        self.reset()

    def reset(self):
        self._warm = None
        self._u_hold = _clamp(np.zeros(self.model.m), self.model)

    def step(self, state: RobotState, ref: Reference) -> tuple[np.ndarray, ControlStepLog]:
        name = self.name
        if name in ("ic", "uic"):
            return impedance_step(self.model, state, ref, self.gains, clf=self.clf,
                                  maps=self.maps, uic=name == "uic")
        if name == "clf-qp":
            u, log, sol = clf_qp_step(self.model, state, ref, self.gains, self.clf,
                                      warm_start=self._warm, u_hold=self._u_hold,
                                      consts=self.consts)
        else:
            u, log, sol = full_body_qp_step(self.model, state, ref, self.gains, self.clf,
                                            self.split, certify=name == "soft-id-clf-qp",
                                            warm_start=self._warm, u_hold=self._u_hold,
                                            consts=self.consts)
        self._warm = sol.active_set or self._warm
        self._u_hold = u
        return u, log


def make_controller(name: str, model: RobotModel, gains) -> Controller:
    return Controller(name, model, gains)
