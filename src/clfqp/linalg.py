"""Dense linear-algebra helpers: a checked SVD, the tolerant pseudoinverse
built on it, and the task-error double integrator's state matrices, which
the quadratic Lyapunov certificate is made for.

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
"""

from __future__ import annotations

import math
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
