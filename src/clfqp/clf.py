"""Rapidly exponentially stabilizing quadratic Lyapunov certificate for the
task-error dynamics, with its decrease condition expressed as a row that is
linear in the virtual task acceleration.

V(eta) = eta' P_eps eta with P_eps = S P S, S = blockdiag(I/eps, I), where P
solves the double-integrator Riccati equation F'P + PF - PGG'P + I = 0, in
closed form (Ames, Galloway, Sreenath and Grizzle, IEEE TAC 59(4), 2014).
Along eta_dot = F eta + G mu,

    Vdot(eta, mu) = a0(eta) + a1(eta) mu

which makes the softened decrease condition Vdot <= -V/eps + delta a single
linear inequality in (mu, delta) per control step. F = [[0, I], [0, 0]] and
G = [[0], [I]] hold only 0/1 blocks, so with P_eps = [[A, B], [B', C]] the
operators of Vdot are blocks of P_eps, bit for bit:
F'P_eps + P_eps F = [[0, A], [A, B + B']] and 2 P_eps G = 2 [B; C].
``clf_terms`` is the certificate's one evaluation at an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import all_finite


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
    """Certificate data: rate parameter, Riccati solution, the scaled
    quadratic form P_eps, and the operators of Vdot: F'P_eps + P_eps F
    (``drift_form``) and 2 P_eps G (``input_map``)."""

    eps: float
    P: np.ndarray
    P_eps: np.ndarray
    drift_form: np.ndarray
    input_map: np.ndarray


def default_clf(eps: float, n_t: int) -> ClfData:
    """Certificate with identity Riccati weights, whose solution is
    P = [[sqrt(3) I, I], [I, sqrt(3) I]]; the PD reference carries the
    error shaping, so P stays robot-independent."""
    if eps <= 0.0:
        raise ValueError("clf rate parameter must be positive")
    root3 = np.sqrt(3.0)
    p = np.kron([[root3, 1.0], [1.0, root3]], np.eye(n_t))
    scale = np.concatenate([np.full(n_t, 1.0 / eps), np.ones(n_t)])
    p_eps = scale[:, None] * p * scale[None, :]
    a, b = p_eps[:n_t, :n_t], p_eps[:n_t, n_t:]
    drift = np.zeros_like(p_eps)
    drift[:n_t, n_t:] = drift[n_t:, :n_t] = a
    drift[n_t:, n_t:] = b + b.T
    return ClfData(eps=float(eps), P=p, P_eps=p_eps, drift_form=drift,
                   input_map=2.0 * p_eps[:, n_t:])


def clf_terms(clf: ClfData, err: TaskError) -> tuple[float, float, np.ndarray]:
    """(V, a0, a1) at ``err``: V = eta' P_eps eta, nonnegative and zero only
    at eta = 0, and the exact linear decomposition Vdot(eta, mu) = a0 + a1 mu,
    which a step's decrease row and its logged V and Vdot share."""
    eta = err.eta
    return (float(eta @ clf.P_eps @ eta), float(eta @ clf.drift_form @ eta),
            eta @ clf.input_map)


def clf_row(clf: ClfData, terms: tuple[float, float, np.ndarray]) -> tuple[np.ndarray, float]:
    """The decrease condition as an inequality row over (mu, delta), from
    the ``clf_terms`` (V, a0, a1) of ``clf`` at an error.

    Returns (row, rhs) with row @ [mu; delta] <= rhs encoding
    a1 mu - delta <= -a0 - V/eps.
    """
    v, a0, a1 = terms
    row = np.concatenate([a1, [-1.0]])
    return row, -a0 - v / clf.eps
