"""Rapidly exponentially stabilizing quadratic Lyapunov certificate for the
task-error dynamics, with its decrease condition expressed as a row that is
linear in the virtual task acceleration.

V(eta) = eta' P_eps eta with P_eps = S P S, S = blockdiag(I/eps, I), where P
solves the double-integrator Riccati equation. Along eta_dot = F eta + G mu,

    Vdot(eta, mu) = a0(eta) + a1(eta) mu

which makes the softened decrease condition Vdot <= -V/eps + delta a single
linear inequality in (mu, delta) per control step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import all_finite, double_integrator_blocks, solve_care_double_integrator


@dataclass(frozen=True)
class TaskError:
    """Stacked task-space error state: position error e and velocity error,
    and eta = [e; de], made once per error."""

    e: np.ndarray
    de: np.ndarray
    eta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        object.__setattr__(self, "de", np.asarray(self.de, dtype=float))
        if not all_finite(self.e, self.de):
            raise ValueError("task error must be finite")
        object.__setattr__(self, "eta", np.concatenate([self.e, self.de]))


@dataclass(frozen=True)
class ClfData:
    """Certificate data: rate parameter, Riccati solution, and the scaled
    quadratic form P_eps with cached derivative operators."""

    eps: float
    P: np.ndarray
    P_eps: np.ndarray
    n_t: int

    @cached_property
    def drift_form(self) -> np.ndarray:
        """F' P_eps + P_eps F, the state-only part of Vdot."""
        f, _ = double_integrator_blocks(self.n_t)
        return f.T @ self.P_eps + self.P_eps @ f

    @cached_property
    def input_map(self) -> np.ndarray:
        """2 P_eps G, mapping eta to the mu-coefficient row of Vdot."""
        _, g = double_integrator_blocks(self.n_t)
        return 2.0 * self.P_eps @ g


def build_clf(Q: np.ndarray, R: np.ndarray, eps: float, n_t: int) -> ClfData:
    """Construct the certificate from diagonal Riccati weights and a rate."""
    if eps <= 0.0:
        raise ValueError("clf rate parameter must be positive")
    pair = solve_care_double_integrator(Q, R)
    if pair.n_t != n_t:
        raise ValueError(f"weights sized for n_t={pair.n_t}, expected {n_t}")
    scale = np.concatenate([np.full(n_t, 1.0 / eps), np.ones(n_t)])
    p_eps = scale[:, None] * pair.P * scale[None, :]
    return ClfData(eps=float(eps), P=pair.P, P_eps=p_eps, n_t=n_t)


def default_clf(eps: float, n_t: int) -> ClfData:
    """Certificate with identity Riccati weights; the PD reference carries
    the error shaping, so P stays robot-independent."""
    return build_clf(np.eye(2 * n_t), np.eye(n_t), eps, n_t)


def clf_value(clf: ClfData, err: TaskError) -> float:
    """V = eta' P_eps eta, nonnegative and zero only at eta = 0."""
    eta = err.eta
    return float(eta @ clf.P_eps @ eta)


def vdot_coeffs(clf: ClfData, err: TaskError) -> tuple[float, np.ndarray]:
    """Exact linear decomposition Vdot(eta, mu) = a0 + a1 mu."""
    eta = err.eta
    a0 = float(eta @ clf.drift_form @ eta)
    a1 = eta @ clf.input_map
    return a0, a1


def clf_terms(clf: ClfData, err: TaskError) -> tuple[float, float, np.ndarray]:
    """(V, a0, a1) at ``err``: the value and the decomposition of Vdot, which
    a step's decrease row and its logged V and Vdot share."""
    a0, a1 = vdot_coeffs(clf, err)
    return clf_value(clf, err), a0, a1


def clf_row(clf: ClfData, err: TaskError,
            terms: tuple[float, float, np.ndarray] | None = None
            ) -> tuple[np.ndarray, float]:
    """The decrease condition as an inequality row over (mu, delta).

    Returns (row, rhs) with row @ [mu; delta] <= rhs encoding
    a1 mu - delta <= -a0 - V/eps. ``terms`` are ``clf_terms(clf, err)``,
    when known.
    """
    v, a0, a1 = clf_terms(clf, err) if terms is None else terms
    row = np.concatenate([a1, [-1.0]])
    return row, -a0 - v / clf.eps
