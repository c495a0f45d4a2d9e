"""The five task-space control laws, each a per-step map from
(controller, state, reference) to a bounded input u.

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
  by a null-space correction before clamping.

One ``Controller`` class runs any of the five laws by name. It makes every
piece of its law that no state changes (the certificate, the edges of the
saturation mask, the constant blocks of its QP (``QpConstants``) and the
collocated split, or the maps that depend only on B and the task ridge of
ic/uic) once, when it is built, and owns the warm-start and
hold-previous-input state of one episode. Each law is one
function ``law(ctrl, state, ref)`` returning ``(u, log, sol)`` (``sol`` is
None for ic and uic): it reads the model, gains, certificate, constant
blocks or maps, warm start and held input from its controller and never
changes it; only ``Controller.step`` updates the warm start and the held
input. A law whose program has two forms (soft-id-clf-qp or ic-qp, ic or
uic) reads which from ``ctrl.name``.
Every step reads its state's chain evaluation through ``evaluate``: the one
the state carries when the simulator attached it (the simulator logs and
integrates from that same evaluation), otherwise one made on the spot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clf import TaskError, clf_row, clf_terms, default_clf
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


def lie_terms(ev: Evaluation) -> tuple[np.ndarray, np.ndarray]:
    """Second-order task dynamics pieces at an evaluated state:
    ydd = Lf2y + LgLfy u.

    Lf2y = -J M^-1 h + dJ qd and LgLfy = J M^-1 B.
    """
    terms, ts = ev.terms, ev.ts
    minv_cols = solve_inertia(terms, np.concatenate((terms.h[:, None], ev.model.B), axis=1))
    lf2y = -ts.J @ minv_cols[:, 0] + ts.dJ @ ev.state.dq
    lglfy = ts.J @ minv_cols[:, 1:]
    return lf2y, lglfy


def mu_ref(gains, err: TaskError) -> np.ndarray:
    """PD reference for the task error acceleration, critically damped
    through kd = 2 sqrt(kp)."""
    return -gains.kd * err.de - gains.kp * err.e


def _clamp(u: np.ndarray, model: RobotModel) -> np.ndarray:
    return np.minimum(np.maximum(u, model.u_min), model.u_max)


def saturation_edges(model: RobotModel) -> tuple[np.ndarray, np.ndarray]:
    """The inputs at or beyond which an input counts as saturated: u_min and
    u_max moved inward by 1e-9 of the box width, read-only."""
    tol = 1e-9 * (model.u_max - model.u_min)
    edges = model.u_min + tol, model.u_max - tol
    for edge in edges:
        edge.setflags(write=False)
    return edges


@dataclass
class _StepData:
    """Shared per-step evaluations: the chain at the step's state, the
    reference acceleration, the task error, and (V, a0, a1) of the
    controller's certificate at that error (``clf.clf_terms``), made once for
    the decrease row and the logged V and Vdot."""

    evaluation: Evaluation
    ddy_ref: np.ndarray
    err: TaskError
    certificate: tuple


def _evaluate_step(ctrl: Controller, state: RobotState, ref: Reference) -> _StepData:
    ev = evaluate(ctrl.model, state)
    y_ref, dy_ref, ddy_ref = ref.at(state.t)
    err = TaskError(e=ev.ts.y - y_ref, de=ev.ts.dy - dy_ref)
    return _StepData(evaluation=ev, ddy_ref=ddy_ref, err=err,
                     certificate=clf_terms(ctrl.clf, err))


@dataclass(frozen=True)
class QpConstants:
    """The blocks of a QP law's program that no step changes, made once per
    controller and read-only: the Hessian (clf-qp) or its constant blocks
    (full body: 2 w3 I, and 2 rho when certifying), A_eq with only its
    identity block filled, the input box with its inequality rows, and, for
    the full body, w2 I and -S, which maps the bias forces h to b_eq.
    clf-qp's whole Hessian is also kept as the ``PsdHessian`` it is, checked
    once here instead of once per step."""

    H: np.ndarray
    A_eq: np.ndarray
    bounds: Bounds
    w2_eye: np.ndarray | None = None
    minus_S: np.ndarray | None = None
    hessian: PsdHessian | None = None

    def __post_init__(self):
        for arr in (self.H, self.A_eq, self.w2_eye, self.minus_S):
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


def clf_qp_step(ctrl: Controller, state: RobotState, ref: Reference
                ) -> tuple[np.ndarray, ControlStepLog, QpSolution]:
    """One step of the clf-qp law.

    Decision variables (u, mu, delta): minimize
    w1 ||mu - mu_ref||^2 + rho delta^2 subject to the Lyapunov decrease row,
    the linearizing equality u = (LgLfy)^+ (-Lf2y + mu + ydd_ref), the input
    box, and delta >= 0. On infeasibility the controller's held input is
    applied.
    """
    model, gains, consts = ctrl.model, ctrl.gains, ctrl.consts
    data = _evaluate_step(ctrl, state, ref)
    n_t, m = model.task_dim, model.m
    lf2y, lglfy = lie_terms(data.evaluation)
    g_pinv = pinv(lglfy)

    d = m + n_t + 1
    f_cost = np.zeros(d)
    mu_des = mu_ref(gains, data.err)
    f_cost[m:m + n_t] = -2.0 * gains.w1 * mu_des

    a_eq = consts.A_eq.copy()
    a_eq[:, m:m + n_t] = -g_pinv
    b_eq = g_pinv @ (-lf2y + data.ddy_ref)

    row, rhs = clf_row(ctrl.clf, data.err, data.certificate)
    a_in = np.zeros((1, d))
    a_in[0, m:] = row
    b_in = np.array([rhs])

    prob = QpProblem(consts.hessian, f_cost, a_eq, b_eq, a_in, b_in, bounds=consts.bounds)
    sol = solve_qp(prob, warm_start=ctrl._warm)
    return _finish_qp_step(ctrl, data, sol, lambda x: (x[:m], x[m:m + n_t], x[-1]))


def full_body_constants(model: RobotModel, gains, name: str,
                        split: CollocatedSplit) -> QpConstants:
    n, m = model.n, model.m
    certify = name == "soft-id-clf-qp"
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
    return QpConstants(H=h_cost, A_eq=a_eq, bounds=bounds, w2_eye=gains.w2 * np.eye(n),
                       minus_S=-split.S)


def full_body_qp_step(ctrl: Controller, state: RobotState, ref: Reference
                      ) -> tuple[np.ndarray, ControlStepLog, QpSolution]:
    """One step of soft-id-clf-qp, or of ic-qp, as ``ctrl.name`` says.

    Decision variables (qdd, u), plus delta for soft-id-clf-qp: minimize
    w1 ||mu - mu_ref||^2 + w2 ||qdd||^2 + w3 ||u||^2
    + w4 ||N qdd - qdd_null_ref||^2 (+ rho delta^2), with
    mu = J qdd + dJ qd - ydd_ref and qdd_null_ref = -d_null N qd, subject to
    the actuated-row equality S (M qdd + h) = u and the input box; for
    soft-id-clf-qp, also to the Lyapunov row and delta >= 0. ic-qp's
    certificate only scores the logged V and Vdot. On infeasibility the
    controller's held input is applied.
    """
    model, gains, consts = ctrl.model, ctrl.gains, ctrl.consts
    certify = ctrl.name == "soft-id-clf-qp"
    data = _evaluate_step(ctrl, state, ref)
    ev = data.evaluation
    n, m, n_t = model.n, model.m, model.task_dim
    jac, djac, nproj = ev.ts.J, ev.ts.dJ, ev.ts.N

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
    a_eq[:, :n] = ctrl.split.S @ ev.terms.M
    b_eq = consts.minus_S @ ev.terms.h

    a_in = b_in = None
    if certify:
        row, rhs = clf_row(ctrl.clf, data.err, data.certificate)     # over (mu, delta)
        a1 = row[:n_t]
        a_in = np.zeros((1, d))
        a_in[0, :n] = a1 @ jac
        a_in[0, -1] = row[-1]
        b_in = np.array([rhs - a1 @ mu_drift])

    prob = QpProblem(h_cost, f_cost, a_eq, b_eq, a_in, b_in, bounds=consts.bounds)
    sol = solve_qp(prob, warm_start=ctrl._warm)
    return _finish_qp_step(ctrl, data, sol,
                           lambda x: (x[n:n + m], jac @ x[:n] + mu_drift,
                                      x[-1] if certify else 0.0))


def _finish_qp_step(ctrl, data, sol, read):
    """Applied input and log of a solved QP; ``read(x)`` gives the input,
    mu and delta of a solution. An infeasible QP holds the controller's
    input."""
    if sol.status is QpStatus.INFEASIBLE:
        u = _clamp(ctrl._u_hold, ctrl.model)
        mu, delta = None, np.nan
    else:
        u_cmd, mu, delta = read(sol.x_star)
        u, delta = _clamp(u_cmd, ctrl.model), float(delta)
    return u, _step_log(ctrl, data, u, sol.status.value, sol.solve_time, mu, delta), sol


def _step_log(ctrl, data, u, qp_status, solve_time, mu=None, delta=0.0):
    """Log of a step that applies u; without a planned ``mu`` (closed-form
    laws, held inputs) it logs the task error acceleration that u produces."""
    ev = data.evaluation
    if mu is None:
        qdd = solve_inertia(ev.terms, ctrl.model.B @ u - ev.terms.h)
        mu = ev.ts.J @ qdd + ev.ts.dJ @ ev.state.dq - data.ddy_ref
    v, a0, a1 = data.certificate
    low, high = ctrl.saturation_edges
    return ControlStepLog(u=u, mu=mu, delta=delta, V=v, Vdot=a0 + float(a1 @ mu),
                          qp_status=qp_status, solve_time=solve_time,
                          saturated=(u <= low) | (u >= high))


def actuation_maps(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B^+ and I - B B^+, the projector onto the joint torques B cannot
    produce; fixed per robot, so the closed-form controllers make them once."""
    b_pinv = pinv(b)
    return b_pinv, np.eye(b.shape[0]) - b @ b_pinv


def impedance_step(ctrl: Controller, state: RobotState, ref: Reference
                   ) -> tuple[np.ndarray, ControlStepLog, None]:
    """Operational-space impedance law with full potential cancellation:
    ic, or uic, as ``ctrl.name`` says.

    Computes the task wrench f = Lambda ydd_des + h_task from PD error
    dynamics (kd = 2 sqrt(kp)), then clamps u = B^+ (J'f + D qd + K q + g)
    to the input box. uic removes the unactuated torque components first
    through the null-space correction
    tau_null = -[(I - Ip) N]^+ (I - Ip) J'f, where Ip = B B^+. There is no
    QP, so the solution slot is None.
    """
    data = _evaluate_step(ctrl, state, ref)
    u = _clamp(_impedance_torque(ctrl, data), ctrl.model)
    return u, _step_log(ctrl, data, u, "ClosedForm", 0.0), None


def _impedance_torque(ctrl, data) -> np.ndarray:
    gains, ev = ctrl.gains, data.evaluation
    jac, djac = ev.ts.J, ev.ts.dJ
    terms = ev.terms
    b_pinv, blocked = ctrl.maps
    minv_jt = solve_inertia(terms, jac.T)
    lam_inv = jac @ minv_jt
    lam = inv(lam_inv + ctrl.task_ridge)

    ydd_des = data.ddy_ref - gains.kd * data.err.de - gains.kp * data.err.e
    h_task = ev.ts.J_pinv.T @ terms.c_vec - lam @ (djac @ ev.state.dq)
    wrench = lam @ ydd_des + h_task

    tau_task = jac.T @ wrench
    if ctrl.name == "uic":
        nproj = ev.ts.N
        tau_null = -pinv(blocked @ nproj) @ (blocked @ tau_task)
        tau_task = tau_task + nproj @ tau_null
    tau = tau_task + terms.d_vec + terms.k_vec + terms.g_vec
    return b_pinv @ tau


_LAWS = {"clf-qp": clf_qp_step, "soft-id-clf-qp": full_body_qp_step,
         "ic": impedance_step, "uic": impedance_step, "ic-qp": full_body_qp_step}


class Controller:
    """One of the five laws, chosen by ``name``. It makes the pieces of its
    law that no state changes once, when it is built:

    - the certificate ``clf``;
    - the ``saturation_edges`` the logged saturation mask compares u with;
    - for a QP law, the constant blocks of its program (``consts``), and for
      the full-body QPs the collocated ``split``;
    - for ic/uic, the actuation ``maps`` B^+ and I - B B^+, and the
      ``task_ridge`` LAMBDA_REG I added to the task-space inverse inertia.

    The pieces its law does not use are None. It also owns the warm-start
    and hold-previous-input state of one episode at a time; ``reset``
    clears it between episodes."""

    def __init__(self, name: str, model: RobotModel, gains):
        if name not in CONTROLLER_NAMES:
            raise KeyError(f"unknown controller {name!r}; choose from {CONTROLLER_NAMES}")
        self.name = name
        self.model = model
        self.gains = gains
        self.clf = default_clf(gains.eps, model.task_dim)
        self.saturation_edges = saturation_edges(model)
        self.consts = self.split = self.maps = self.task_ridge = None
        if name == "clf-qp":
            self.consts = clf_qp_constants(model, gains)
        elif name in ("soft-id-clf-qp", "ic-qp"):
            self.split = collocated_split(model.B)
            self.consts = full_body_constants(model, gains, name, self.split)
        else:
            self.maps = actuation_maps(model.B)
            self.task_ridge = LAMBDA_REG * eye(model.task_dim)
            self.task_ridge.setflags(write=False)
        self.reset()

    def reset(self):
        self._warm = None
        self._u_hold = _clamp(np.zeros(self.model.m), self.model)

    def step(self, state: RobotState, ref: Reference) -> tuple[np.ndarray, ControlStepLog]:
        u, log, sol = _LAWS[self.name](self, state, ref)
        if sol is not None:
            self._warm = sol.active_set or self._warm
        self._u_hold = u
        return u, log


def make_controller(name: str, model: RobotModel, gains) -> Controller:
    return Controller(name, model, gains)
