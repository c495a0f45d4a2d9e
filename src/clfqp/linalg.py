"""Dense linear-algebra helpers: a checked SVD, the tolerant pseudoinverse
built on it, and the structured continuous-time algebraic Riccati solve
used to shape the quadratic Lyapunov certificate.

Every SVD whose factors are used goes through ``svd``. LAPACK's gesdd
(what ``np.linalg.svd`` calls) can return finite singular values with
non-finite U and V' and report success: it does on a 36 x 36 matrix of
a helix uic episode, kept as test data. ``svd`` returns a finite
gesdd result unchanged, so no bit of any other result moves, and redoes a
matrix whose factors are not finite with gesvd (``_lapack.dgesvd``).

Both SVDs come from ``_lapack``: gesdd is numpy's gufunc, called as
``np.linalg.svd`` calls it but without the wrapper's fixed cost per call,
and gesvd is scipy's LAPACK routine. ``_lapack`` also holds the other
numpy kernels of the per-step path (module docstring there); this module
adds ``matrix_rank`` on the singular values alone, ``eye``, the read-only
identity the per-step projectors subtract from, made once per size, and
``all_finite``, the check that every entry of whole arrays is finite, which
states, task errors, QP blocks and SVD factors go through.

The Riccati solve is specialised to task-error dynamics that are a stack of
decoupled double integrators, so it reduces to a per-axis closed form
instead of a general Schur method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import dgesvd, extobj_contextvar, make_extobj, svdvals
from ._lapack import svd as gesdd

DEFAULT_PINV_TOL = 1e-8


_QUIET = make_extobj(all="ignore")    # no floating-point warning or callback
_add = np.add.reduce


def all_finite(*arrays: np.ndarray) -> bool:
    """Whether every entry of every array is finite:
    ``all(np.isfinite(a).all() for a in arrays)``, at the cost of one sum
    per array. A NaN or infinite entry always makes the sum NaN or infinite,
    so an array whose sum is finite passes; one whose sum is not (which a
    sum of finite entries also is when it overflows) gets the entrywise
    test. The sums run with floating-point warnings off, so an overflow or
    inf - inf in them warns of nothing."""
    token = extobj_contextvar.set(_QUIET)
    try:
        for a in arrays:
            if not (math.isfinite(_add(a, None)) or np.isfinite(a).all()):
                return False
        return True
    finally:
        extobj_contextvar.reset(token)


class NonPositiveWeight(ValueError):
    """A Riccati weight that must be strictly positive is not."""


class SvdFailure(LinAlgError):
    """Neither gesdd nor gesvd gave a finite SVD of a matrix."""


def svd(a: np.ndarray, full_matrices: bool = False
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, s, vt) of ``np.linalg.svd(a, full_matrices)``, a float array of
    shape (..., M, N), with finite factors.

    A finite result of gesdd is returned as is. Otherwise each matrix of
    the stack is redone on its own: gesdd again, whose one-matrix bits are
    those of the stacked call, and gesvd where that is not finite either.
    SvdFailure is raised when gesvd fails too.
    """
    try:
        u, s, vt = gesdd(a, full_matrices=full_matrices)
        if all_finite(u, vt):
            return u, s, vt
    except LinAlgError:
        pass
    return _svd_each(a, full_matrices)


def _svd_each(a, full_matrices):
    """``svd`` of every matrix of the stack a, one call each."""
    k, m, n = min(a.shape[-2:]), *a.shape[-2:]
    lead = a.shape[:-2]
    u = np.empty(lead + ((m, m) if full_matrices else (m, k)))
    s = np.empty(lead + (k,))
    vt = np.empty(lead + ((n, n) if full_matrices else (k, n)))
    for i in np.ndindex(lead):
        u[i], s[i], vt[i] = _svd_one(a[i], full_matrices)
    return u, s, vt


def _svd_one(a, full_matrices):
    try:
        usv = gesdd(a, full_matrices=full_matrices)
        if all_finite(*usv):
            return usv
    except LinAlgError:
        pass
    *usv, info = dgesvd(a, full_matrices=int(full_matrices))
    if info != 0 or not all_finite(*usv):
        raise SvdFailure(f"no finite SVD of a {a.shape[0]}x{a.shape[1]} matrix "
                         f"(gesdd, then gesvd with info {info})")
    return usv


def matrix_rank(a: np.ndarray, tol: float | None = None) -> int:
    """``np.linalg.matrix_rank(a, tol)`` of a 2-D float array: the number of
    singular values above tol, by default numpy's max(M, N) eps sigma_max."""
    s = svdvals(a)
    if tol is None:
        tol = s.max(initial=0.0) * (max(a.shape) * np.finfo(float).eps)
    return int((s > tol).sum())


@lru_cache(maxsize=None)
def eye(n: int) -> np.ndarray:
    """The n x n identity, read-only and made once per n."""
    out = np.eye(n)
    out.setflags(write=False)
    return out


def pinv(a: np.ndarray, tol: float = DEFAULT_PINV_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a (..., M, N) array with a relative
    singular-value cutoff.

    Singular values below ``tol * sigma_max`` are treated as zero, so
    near-singular Jacobians degrade gracefully instead of amplifying noise.
    A zero matrix maps to a zero matrix. The arithmetic is that of
    ``np.linalg.pinv(a, rcond=tol)`` on one ``svd`` (so a non-finite gesdd
    factor is redone with gesvd), without the wrapper's argument handling,
    and gives its bits.
    """
    if tol <= 0.0:
        raise ValueError("pinv cutoff must be positive")
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        m, n = a.shape[-2:]
        return np.empty(a.shape[:-2] + (n, m))
    u, s, vt = svd(a)
    large = s > tol * s.max(-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return vt.swapaxes(-1, -2) @ (s[..., None] * u.swapaxes(-1, -2))


def double_integrator_blocks(n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """State matrices of the stacked task-error double integrator.

    Returns (F, G) with F = [[0, I], [0, 0]] and G = [[0], [I]], each block
    of size n_t.
    """
    eye = np.eye(n_t)
    f = np.zeros((2 * n_t, 2 * n_t))
    f[:n_t, n_t:] = eye
    g = np.zeros((2 * n_t, n_t))
    g[n_t:, :] = eye
    return f, g


@dataclass(frozen=True)
class CarePair:
    """Diagonal Riccati weights and the positive-definite solution P.

    Q weighs the stacked error state (position block first, then velocity),
    R weighs the virtual task acceleration. P solves
    F'P + PF - PGR^-1G'P + Q = 0 for the double-integrator (F, G).
    """

    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray

    @property
    def n_t(self) -> int:
        return self.R.shape[0]

    def residual(self) -> float:
        """Max-norm residual of the Riccati equation at P."""
        n_t = self.n_t
        f, g = double_integrator_blocks(n_t)
        r_inv = np.diag(1.0 / np.diag(self.R))
        res = f.T @ self.P + self.P @ f - self.P @ g @ r_inv @ g.T @ self.P + self.Q
        return float(np.max(np.abs(res)))


def solve_care_double_integrator(Q: np.ndarray, R: np.ndarray) -> CarePair:
    """Solve the Riccati equation for stacked double-integrator dynamics.

    Q must be diagonal (2*n_t x 2*n_t) with strictly positive entries on the
    position block; R diagonal positive definite (n_t x n_t). Per axis i,
    with Q = diag(q1, q2) and R = r the solution blocks are

        p2 = sqrt(q1 * r)
        p3 = sqrt(r * (q2 + 2 * p2))
        p1 = p2 * p3 / r

    assembled into P = [[diag(p1), diag(p2)], [diag(p2), diag(p3)]].

    Raises NonPositiveWeight if any q1 <= 0 or r <= 0 (P would be singular).
    """
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    n_t = R.shape[0]
    if Q.shape != (2 * n_t, 2 * n_t):
        raise ValueError(f"Q must be {2 * n_t}x{2 * n_t}, got {Q.shape}")
    if np.any(Q != np.diag(np.diag(Q))) or np.any(R != np.diag(np.diag(R))):
        raise ValueError("Q and R must be diagonal")

    q1 = np.diag(Q)[:n_t].copy()
    q2 = np.diag(Q)[n_t:].copy()
    r = np.diag(R).copy()
    if np.any(q1 <= 0.0):
        raise NonPositiveWeight("position weights q1 must be strictly positive")
    if np.any(r <= 0.0):
        raise NonPositiveWeight("input weights r must be strictly positive")
    if np.any(q2 < 0.0):
        raise NonPositiveWeight("velocity weights q2 must be nonnegative")

    p2 = np.sqrt(q1 * r)
    p3 = np.sqrt(r * (q2 + 2.0 * p2))
    p1 = p2 * p3 / r

    p = np.zeros((2 * n_t, 2 * n_t))
    p[:n_t, :n_t] = np.diag(p1)
    p[:n_t, n_t:] = np.diag(p2)
    p[n_t:, :n_t] = np.diag(p2)
    p[n_t:, n_t:] = np.diag(p3)
    return CarePair(Q=Q, R=R, P=p)
