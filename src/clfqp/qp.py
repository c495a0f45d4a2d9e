"""Dense convex quadratic programming.

Solves
    min  1/2 x'Hx + f'x
    s.t. A_eq x = b_eq
         A_in x <= b_in
         lb <= x <= ub

with a dual active-set iteration (Goldfarb-Idnani style) after eliminating
the equality constraints. Problems here are small (tens of variables, one
solve per control step), so every working-set change re-solves a dense KKT
system instead of updating factorizations. The working set of the previous
solve can be passed back in as a warm start.

Most of a solve at these sizes is fixed cost, so the fixed work is kept
small without changing a bit of the result:

- Built once. A caller whose box does not change makes its ``Bounds`` (the
  box and the inequality rows it adds) once and passes them to every
  problem; the QP laws in ``controllers`` also build their constant
  Hessian and A_eq blocks once per controller (``QpConstants``). Each
  working set fills one preallocated KKT matrix, whose Hessian block is
  written once, instead of assembling it with ``np.block`` per solve, and
  a warm-started solve skips the cold start's first solve with H.
- Warm-start seeding. One SVD of all candidate rows replaces a rank test
  per candidate whenever its smallest singular value clears the cutoff by
  more than the rounding of two SVDs: deleting rows never lowers the
  smallest singular value of a matrix with no more rows than columns, so
  the row-by-row test would keep every candidate. Otherwise the row-by-row
  test runs (``_independent_rows``).
- PSD check. A completed Cholesky factorisation of A = (H + H')/2
  certifies A + dA = R'R with |dA| <= g |R'||R|, g = (d+1)u / (1 - (d+1)u)
  (Demmel; Higham, *Accuracy and Stability of Numerical Algorithms*,
  Thm 10.3), hence lambda_min(A) >= -d g / (1 - g) max|A_ij|: at most
  2.4e-13 of the scale for d = 46, far inside the 1e-10 rule. Up to
  ``PSD_CERT_MAX_DIM``, where that bound leaves the rule a 100x margin,
  a completed ``dpotrf`` accepts H; a failed one (semidefinite Hessians
  such as clf-qp's) or a larger d falls back to the ``eigvalsh`` rule, so
  the check accepts and rejects exactly what the eigenvalue rule does.
  A Hessian that never changes is checked once, as a ``PsdHessian``: its
  problems take its read-only matrix without checking it again (clf-qp's
  H, which would otherwise fail ``dpotrf`` and run ``eigvalsh`` per step).
- Kernels. ``dpotrf`` is scipy's, taken from its compiled LAPACK extension
  by ``_lapack``, so that importing the solver does not import the
  ``scipy.linalg`` package (about 270 ms and 28 MB of a fresh process).
  The KKT and triangular solves, the ridged Cholesky factor, the
  eigenvalues of the PSD rule and the seeding SVD call numpy's LAPACK
  gufuncs through ``_lapack``: the bits of ``np.linalg.solve``,
  ``cholesky``, ``eigvalsh`` and ``svd``, and their ``LinAlgError`` on a
  singular or indefinite matrix, without the wrappers' fixed cost per call.
- KKT solves stay LU solves of the assembled system: reusing an LU factor
  or stacking right-hand sides changes the bits of the solution.
- Deferred factor. The Cholesky factor of the reduced Hessian serves only
  solves with an empty working set, so it is made by the first of them.
  A warm start that keeps its rows solves only KKT systems and never makes
  it.
- Diagnostics on demand. ``QpSolution.kkt_residual`` and ``.objective``
  are worked out on first read, from the arrays the solve ended with, and
  equal bit for bit what an eager computation gives; a caller that never
  reads them does not pay for them.
- The stationarity part of the KKT residual is Z Z' grad, from the
  null-space basis Z the elimination already made, instead of a
  least-squares solve for the equality multipliers. Only that diagnostic
  changes, and only in its rounding.
- The equality elimination's SVD is ``linalg.svd``, which redoes a
  non-finite gesdd result with gesvd and leaves a finite one as it is.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import cholesky, dpotrf, eigvalsh, solve, svdvals
from .linalg import all_finite, eye, matrix_rank, svd

FEAS_TOL = 1e-8          # absolute slack threshold for "satisfied"
DUAL_TOL = 1e-10         # multiplier nonnegativity slack
ZERO_DIR_TOL = 1e-11     # primal step directions below this are "no motion"
EQ_RANK_TOL = 1e-12      # relative singular-value cutoff for A_eq
SEED_RANK_TOL = 1e-10    # singular-value cutoff for independent warm-start rows
PSD_TOL = 1e-10          # H is PSD when lambda_min >= -PSD_TOL * max(1, max|H_ij|)

_EPS = np.finfo(float).eps
_BLOCKS = ("H", "f", "A_eq", "b_eq", "A_in", "b_in")


def cholesky_eig_bound(d: int) -> float:
    """Relative lower bound on lambda_min of a symmetric d x d matrix whose
    Cholesky factorisation runs to completion: lambda_min >= -bound * max|A_ij|
    (see the module docstring)."""
    g = (d + 1) * (_EPS / 2) / (1.0 - (d + 1) * (_EPS / 2))
    return d * g / (1.0 - g)


PSD_CERT_MAX_DIM = max(d for d in range(1, 1000) if cholesky_eig_bound(d) <= 1e-2 * PSD_TOL)


class QpStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    MAX_ITER = "MaxIter"


@dataclass(frozen=True)
class Bounds:
    """The box lb <= x <= ub and the inequality rows it adds: -x <= -lb on
    the finite lower bounds, then x <= ub on the finite upper bounds.
    Entries may be +-inf, never NaN. The arrays are read-only copies, so
    one Bounds can serve every problem of a caller whose box is fixed."""

    lb: np.ndarray
    ub: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray

    @classmethod
    def make(cls, lb, ub, d: int) -> "Bounds":
        lb = np.full(d, -np.inf) if lb is None else np.array(lb, dtype=float).ravel()
        ub = np.full(d, np.inf) if ub is None else np.array(ub, dtype=float).ravel()
        for name, v in (("lb", lb), ("ub", ub)):
            if v.shape != (d,):
                raise ValueError(f"{name} must have {d} entries, got {v.shape}")
            if np.isnan(v).any():
                raise ValueError(f"{name} contains NaN entries")
        if np.any(lb > ub):
            raise ValueError("lb must not exceed ub")
        lo = np.isfinite(lb)
        hi = np.isfinite(ub)
        rows = np.concatenate((-eye(d)[lo], eye(d)[hi]))
        rhs = np.concatenate([-lb[lo], ub[hi]])
        for arr in (lb, ub, rows, rhs):
            arr.setflags(write=False)
        return cls(lb=lb, ub=ub, rows=rows, rhs=rhs)


@dataclass(frozen=True)
class PsdHessian:
    """A Hessian checked once: a read-only copy that passed the finiteness,
    symmetry and PSD checks of ``QpProblem.validate`` when it was made, so
    one PsdHessian can serve every problem of a caller whose H does not
    change, and those problems skip the checks it already passed."""

    H: np.ndarray

    @classmethod
    def make(cls, h) -> "PsdHessian":
        h = np.array(h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
            raise ValueError(f"H must be a nonempty square matrix, got shape {h.shape}")
        if not all_finite(h):
            raise ValueError("H contains non-finite entries")
        _check_symmetric_psd(h)
        h.setflags(write=False)
        return cls(H=h)


@dataclass
class QpProblem:
    """Standard-form dense convex QP.

    H must be symmetric positive semidefinite. Missing constraint blocks may
    be passed as None. The box lb <= x <= ub is ``bounds``, made once by
    ``Bounds.make``, or None for no box. Instead of an array H a caller may
    pass a ``PsdHessian``, whose matrix becomes H unchecked.
    """

    H: np.ndarray | PsdHessian
    f: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    bounds: Bounds | None = None
    hessian: PsdHessian | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.H, PsdHessian):
            self.hessian, self.H = self.H, self.H.H
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.f = np.asarray(self.f, dtype=float).ravel()
        d = self.f.shape[0]
        if d == 0:
            raise ValueError("the QP has no decision variables (f is empty)")
        if self.H.shape != (d, d):
            raise ValueError(f"H must be {d}x{d}, got {self.H.shape}")
        if self.A_eq is None:
            self.A_eq = np.zeros((0, d))
            self.b_eq = np.zeros(0)
        else:
            self.A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
        if self.A_in is None:
            self.A_in = np.zeros((0, d))
            self.b_in = np.zeros(0)
        else:
            self.A_in = np.atleast_2d(np.asarray(self.A_in, dtype=float))
            self.b_in = np.asarray(self.b_in, dtype=float).ravel()
        if self.bounds is None:
            self.bounds = Bounds.make(None, None, d)
        elif self.bounds.lb.shape != (d,):
            raise ValueError(f"bounds must have {d} entries, got {self.bounds.lb.shape}")
        self.validate()

    @property
    def dim(self) -> int:
        return self.f.shape[0]

    def validate(self):
        blocks = [getattr(self, name) for name in _BLOCKS]
        if not all_finite(*blocks):
            for name, block in zip(_BLOCKS, blocks):
                if not all_finite(block):
                    raise ValueError(f"{name} contains non-finite entries")
        if self.hessian is None or self.H is not self.hessian.H:
            _check_symmetric_psd(self.H)

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.H @ x + self.f @ x)


_RESCALE_ABOVE = 2.0 ** 500


def _check_symmetric_psd(h: np.ndarray):
    """Reject a finite h unless it is symmetric to 1e-12 of its scale and
    its symmetric part has lambda_min >= -PSD_TOL * scale, scale being
    max(1, max|h_ij|). A completed Cholesky factorisation certifies the
    eigenvalue rule up to PSD_CERT_MAX_DIM (module docstring); otherwise the
    eigenvalues decide, and a non-finite one rejects h.

    An h with an entry above _RESCALE_ABOVE, near which h - h', h + h' or
    the eigenvalues can overflow, is checked as h and scale times 2^-s, the
    even power of two that brings the largest entry into [1/4, 1): an exact
    scaling (sqrt(2^-s) is a power of two too), so every difference, sum
    and Cholesky pivot only moves by 2^-s and the rule keeps its verdict."""
    scale = max(1.0, float(np.abs(h).max()))
    shift = 0
    if scale > _RESCALE_ABOVE:
        exp = math.frexp(scale)[1]
        shift = exp + (exp & 1)
        h, scale = np.ldexp(h, -shift), math.ldexp(scale, -shift)
    if np.abs(h - h.T).max() > 1e-12 * scale:
        raise ValueError("H must be symmetric (1e-12 relative)")
    h_sym = 0.5 * (h + h.T)
    if h_sym.shape[0] <= PSD_CERT_MAX_DIM and dpotrf(h_sym)[1] == 0:
        return
    w = eigvalsh(h_sym)
    if not (all_finite(w) and w[0] >= -PSD_TOL * scale):
        with np.errstate(over="ignore"):
            low = np.ldexp(w[0], shift)
        raise ValueError(f"H must be positive semidefinite (min eig {low:.3e})")


@dataclass
class QpSolution:
    """Result of ``solve_qp``. ``kkt_residual`` and ``objective`` are
    diagnostics: each is worked out on its first read, from the problem and
    the multipliers the solve ended with, and then kept. They read the
    problem's arrays as they are then, so a caller that changes a problem
    in place reads them first."""

    x_star: np.ndarray
    status: QpStatus
    iterations: int
    solve_time: float
    # Indices into the stacked inequality list (A_in rows, then lb rows,
    # then ub rows) that were active at the solution; reusable as warm start.
    active_set: tuple = field(default_factory=tuple)
    # (problem, stacked rows, right-hand sides, null-space basis, working
    # rows, their multipliers): what the diagnostics are made from
    _ending: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def kkt_residual(self) -> float:
        """Max-norm KKT residual of the original problem (``_kkt_residual``)."""
        prob, g_all, h_all, z_basis, idx, lam = self._ending
        lam_full = np.zeros(g_all.shape[0])
        lam_full[idx] = lam
        return _kkt_residual(prob, g_all, h_all, self.x_star, lam_full, z_basis)

    @cached_property
    def objective(self) -> float:
        return self._ending[0].objective(self.x_star)


def _stack_inequalities(prob: QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Fold bound constraints into the inequality block.

    Row order is stable: user rows, then finite lower bounds (as -x <= -lb),
    then finite upper bounds. Warm-start indices refer to this order.
    """
    bounds = prob.bounds
    if prob.A_in.shape[0] == 0:
        return bounds.rows, bounds.rhs
    return np.concatenate((prob.A_in, bounds.rows)), np.concatenate((prob.b_in, bounds.rhs))


def _eliminate_equalities(prob: QpProblem):
    """Return (x_p, Z, consistent) with x = x_p + Z z spanning A_eq x = b_eq."""
    d = prob.dim
    if prob.A_eq.shape[0] == 0:
        return np.zeros(d), eye(d), True
    u, s, vt = svd(prob.A_eq, full_matrices=True)
    rank = int((s > EQ_RANK_TOL * max(s[0], 1.0)).sum()) if s.size else 0
    x_p = vt[:rank].T @ ((u[:, :rank].T @ prob.b_eq) / s[:rank])
    z_basis = vt[rank:].T
    resid = np.abs(prob.A_eq @ x_p - prob.b_eq).max() if prob.b_eq.size else 0.0
    consistent = resid <= FEAS_TOL * (1.0 + np.abs(prob.b_eq).max(initial=0.0))
    return x_p, z_basis, consistent


def _chol_with_ridge(h: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of h, adding a tiny ridge if h is only semidefinite.

    The ridge is a numerical device, not a guard: ``QpProblem.validate``
    has already checked H symmetric and PSD, and nothing checks a solution
    against the problem afterwards. ``QpSolution.kkt_residual`` reports how
    far from optimal a solution is, when a caller reads it.
    """
    scale = max(1.0, float(np.abs(h).max()))
    ridge = 0.0
    for _ in range(6):
        try:
            return cholesky(h + ridge * eye(h.shape[0])), ridge
        except LinAlgError:
            ridge = max(ridge * 100.0, 1e-12 * scale)
    raise LinAlgError("reduced Hessian is not positive semidefinite")


class _WorkingSet:
    """Dual active-set state in the reduced (equality-free) space. z is set
    by the first ``solve_eqp``; the Cholesky factor of h by the first solve
    with an empty working set, the only one that uses it."""

    def __init__(self, h, f, g_rows, h_rhs):
        self.h = h
        self.f = f
        self.g = g_rows
        self.rhs = h_rhs
        self.idx: list[int] = []
        self.lam: list[float] = []
        self._chol = None
        # [[h, G_w'], [G_w, 0]] for any working set of distinct rows: h is
        # written once, the working rows per solve, the zero block never.
        nz, r = h.shape[0], g_rows.shape[0]
        self._kkt = np.zeros((nz + r, nz + r))
        self._kkt[:nz, :nz] = h

    def _solve_h(self, b):
        if self._chol is None:
            self._chol, _ = _chol_with_ridge(self.h)
        y = solve(self._chol, b)
        return solve(self._chol.T, y)

    def _kkt_matrix(self):
        nz, k = self.h.shape[0], len(self.idx)
        gw = self.g[self.idx]
        self._kkt[nz:nz + k, :nz] = gw
        self._kkt[:nz, nz:nz + k] = gw.T
        return self._kkt[:nz + k, :nz + k]

    def solve_eqp(self):
        """Minimize over the current working set treated as equalities."""
        if not self.idx:
            self.z = self._solve_h(-self.f)
            self.lam = []
            return
        rhs = np.concatenate([-self.f, self.rhs[self.idx]])
        sol = solve(self._kkt_matrix(), rhs)
        self.z = sol[: self.h.shape[0]]
        self.lam = list(sol[self.h.shape[0]:])

    def step_directions(self, n_p):
        """Directions (dz, r) for increasing the multiplier of normal n_p."""
        if not self.idx:
            return self._solve_h(n_p), np.zeros(0)
        rhs = np.concatenate([n_p, np.zeros(len(self.idx))])
        sol = solve(self._kkt_matrix(), rhs)
        return sol[: self.h.shape[0]], sol[self.h.shape[0]:]

    def drop(self, local_k: int):
        del self.idx[local_k]
        del self.lam[local_k]

    def add(self, p: int, lam_p: float):
        self.idx.append(p)
        self.lam.append(lam_p)


def solve_qp(prob: QpProblem, warm_start: tuple | None = None,
             max_iter: int | None = None) -> QpSolution:
    """Solve a dense convex QP.

    warm_start is the active_set of a previous, structurally identical
    solve; it seeds the working set and typically cuts the iteration count
    to a handful on consecutive control steps.
    """
    t0 = time.perf_counter()
    g_all, h_all = _stack_inequalities(prob)
    x_p, z_basis, consistent = _eliminate_equalities(prob)

    def finish(x, status, iters):
        idx, lam = [], []
        if status is not QpStatus.INFEASIBLE and ws is not None:
            idx, lam = ws.idx, ws.lam
        return QpSolution(
            x_star=x, status=status, iterations=iters,
            solve_time=time.perf_counter() - t0, active_set=tuple(sorted(idx)),
            _ending=(prob, g_all, h_all, z_basis, idx, lam))

    ws = None
    if not consistent:
        return finish(x_p, QpStatus.INFEASIBLE, 0)

    n_free = z_basis.shape[1]
    g_red = g_all @ z_basis
    h_red = h_all - g_all @ x_p
    if n_free == 0:
        # Equalities pin x completely; only feasibility remains to check.
        x = x_p
        viol = g_all @ x - h_all
        status = QpStatus.OPTIMAL if (viol.size == 0 or viol.max() <= FEAS_TOL) else QpStatus.INFEASIBLE
        return finish(x, status, 0)

    h_z = z_basis.T @ prob.H @ z_basis
    h_z = 0.5 * (h_z + h_z.T)
    f_z = z_basis.T @ (prob.H @ x_p + prob.f)
    ws = _WorkingSet(h_z, f_z, g_red, h_red)

    if warm_start:
        _seed_working_set(ws, warm_start)
    else:
        ws.solve_eqp()

    if max_iter is None:
        max_iter = 50 + 10 * g_all.shape[0]

    iters = 0
    while iters < max_iter:
        iters += 1
        slack = ws.g @ ws.z - ws.rhs
        if slack.size:
            slack[ws.idx] = -np.inf  # working-set rows are tight by construction
        p = int(slack.argmax()) if slack.size else -1
        if p < 0 or slack[p] <= FEAS_TOL:
            return finish(x_p + z_basis @ ws.z, QpStatus.OPTIMAL, iters)

        n_p = ws.g[p]
        s_p = slack[p]
        lam_p = 0.0
        while True:
            dz, r = ws.step_directions(n_p)
            curvature = float(n_p @ dz)
            moving = curvature > ZERO_DIR_TOL * (1.0 + float(np.abs(n_p) @ np.abs(dz)))

            t1 = np.inf
            block = -1
            for local, rate in enumerate(r):
                if rate > DUAL_TOL:
                    cand = ws.lam[local] / rate
                    if cand < t1:
                        t1, block = cand, local
            if not moving:
                if not np.isfinite(t1):
                    return finish(x_p + z_basis @ ws.z, QpStatus.INFEASIBLE, iters)
                for local, rate in enumerate(r):
                    ws.lam[local] -= t1 * rate
                lam_p += t1
                ws.drop(block)
                continue

            t2 = s_p / curvature
            t = min(t1, t2)
            ws.z = ws.z - t * dz
            for local, rate in enumerate(r):
                ws.lam[local] -= t * rate
            lam_p += t
            s_p -= t * curvature
            if t2 <= t1:
                ws.add(p, lam_p)
                break
            ws.drop(block)

    return finish(x_p + z_basis @ ws.z, QpStatus.MAX_ITER, iters)


def _independent_rows(g: np.ndarray, candidates: list[int]) -> list[int]:
    """The candidates, in order, that the row-by-row test keeps: a row is
    added when the kept rows plus it have full rank at SEED_RANK_TOL.

    Deleting rows of a matrix with no more rows than columns never lowers
    its smallest singular value (interlacing). So when sigma_min of all the
    candidate rows clears the cutoff by more than the rounding of two SVDs
    (each within 10 max(rows, cols) eps sigma_max of exact), every prefix the
    row-by-row test forms has full computed rank, and all are kept.
    """
    k, nz = len(candidates), g.shape[1]
    if 0 < k <= nz:
        s = svdvals(g[candidates])
        if s[-1] - SEED_RANK_TOL > 20 * nz * _EPS * s[0]:
            return list(candidates)
    rows = []
    for p in candidates:
        trial = rows + [p]
        if matrix_rank(g[trial], tol=SEED_RANK_TOL) == len(trial):
            rows = trial
    return rows


def _seed_working_set(ws: _WorkingSet, warm_start):
    """Install a previous active set, keeping rows independent and
    multipliers nonnegative so the dual iteration invariant holds."""
    rows = _independent_rows(ws.g, [p for p in warm_start if 0 <= p < ws.g.shape[0]])
    ws.idx = rows
    ws.lam = [0.0] * len(rows)
    while True:
        try:
            ws.solve_eqp()
        except LinAlgError:
            ws.idx, ws.lam = [], []
            ws.solve_eqp()
            return
        if not ws.lam:
            return
        worst = int(np.asarray(ws.lam).argmin())
        if ws.lam[worst] >= -DUAL_TOL:
            return
        ws.drop(worst)


def _kkt_residual(prob: QpProblem, g_all, h_all, x, lam, z_basis) -> float:
    """Max-norm KKT residual of the original problem at (x, lam). The
    stationarity part is the gradient left after the best equality
    multipliers, i.e. its projection Z Z' grad on the null space of A_eq."""
    grad = prob.H @ x + prob.f + g_all.T @ lam
    if prob.A_eq.shape[0]:
        grad = z_basis @ (z_basis.T @ grad)
        eq_viol = np.max(np.abs(prob.A_eq @ x - prob.b_eq))
    else:
        eq_viol = 0.0
    slack = g_all @ x - h_all if h_all.size else np.zeros(0)
    in_viol = float(np.max(slack, initial=0.0))
    comp = float(np.max(np.abs(lam * slack), initial=0.0)) if slack.size else 0.0
    dual_viol = float(np.max(-lam, initial=0.0))
    return max(float(np.max(np.abs(grad), initial=0.0)), eq_viol, max(0.0, in_viol), comp, dual_viol)
