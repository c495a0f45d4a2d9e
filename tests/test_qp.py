import warnings

import numpy as np
import pytest

from clfqp import qp
from clfqp.qp import FEAS_TOL, Bounds, QpProblem, QpSolution, QpStatus, solve_qp

from oracles import (
    assembled_kkt_qp,
    brute_force_qp,
    eigvalsh_psd_rule,
    row_by_row_independent,
)


def random_qp(rng, d=5, n_eq=2, n_in=3, bounded=False):
    """Strictly convex random QP with a guaranteed-feasible interior point."""
    a = rng.standard_normal((d, d))
    h = a.T @ a + 0.5 * np.eye(d)
    f = rng.standard_normal(d)
    x_feas = rng.standard_normal(d)
    a_eq = rng.standard_normal((n_eq, d)) if n_eq else None
    b_eq = a_eq @ x_feas if n_eq else None
    a_in = rng.standard_normal((n_in, d)) if n_in else None
    b_in = a_in @ x_feas + rng.uniform(0.0, 1.0, n_in) if n_in else None
    bounds = None
    if bounded:
        bounds = Bounds.make(x_feas - rng.uniform(0.5, 2.0, d),
                             x_feas + rng.uniform(0.5, 2.0, d), d)
    return QpProblem(h, f, a_eq, b_eq, a_in, b_in, bounds)


class TestWorkedExamples:
    def test_active_bound(self):
        # min x^2 s.t. x >= 1
        sol = solve_qp(QpProblem(np.array([[2.0]]), np.zeros(1),
                                 bounds=Bounds.make([1.0], None, 1)))
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(sol.x_star, [1.0], atol=1e-9)

    def test_symmetric_equality(self):
        # min ||x||^2 s.t. x1 + x2 = 1
        sol = solve_qp(QpProblem(2.0 * np.eye(2), np.zeros(2),
                                 A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0])))
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(sol.x_star, [0.5, 0.5], atol=1e-9)

    def test_unconstrained_stationary_point(self):
        # min 1/2 x' diag(2,2) x + (-2,-4)'x
        sol = solve_qp(QpProblem(np.diag([2.0, 2.0]), np.array([-2.0, -4.0])))
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(sol.x_star, [1.0, 2.0], atol=1e-9)


class TestAnalyticSuite:
    """Hand-built problems whose solutions are known in closed form."""

    def test_box_projection(self):
        # Projection of (3, -3) onto [-1, 1]^2.
        sol = solve_qp(QpProblem(2.0 * np.eye(2), np.array([-6.0, 6.0]),
                                 bounds=Bounds.make(-np.ones(2), np.ones(2), 2)))
        assert np.allclose(sol.x_star, [1.0, -1.0], atol=1e-9)

    def test_single_inequality_active(self):
        # min (x-2)^2 s.t. x <= 1  ->  x = 1
        sol = solve_qp(QpProblem(np.array([[2.0]]), np.array([-4.0]),
                                 A_in=np.array([[1.0]]), b_in=np.array([1.0])))
        assert np.allclose(sol.x_star, [1.0], atol=1e-9)

    def test_single_inequality_inactive(self):
        # min (x-2)^2 s.t. x <= 5  ->  x = 2, multiplier-free
        sol = solve_qp(QpProblem(np.array([[2.0]]), np.array([-4.0]),
                                 A_in=np.array([[1.0]]), b_in=np.array([5.0])))
        assert np.allclose(sol.x_star, [2.0], atol=1e-9)
        assert sol.active_set == ()

    def test_equality_and_bound(self):
        # min ||x||^2 s.t. x1 + x2 = 4, x1 <= 1  ->  (1, 3)
        sol = solve_qp(QpProblem(2.0 * np.eye(2), np.zeros(2),
                                 A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([4.0]),
                                 bounds=Bounds.make(None, [1.0, np.inf], 2)))
        assert np.allclose(sol.x_star, [1.0, 3.0], atol=1e-9)

    def test_weighted_distance_to_halfspace(self):
        # min (x1-1)^2 + 10 (x2-1)^2 s.t. x1 + x2 <= 0.
        # KKT: x = (1,1) - lam * (1/2, 1/20), lam from x1 + x2 = 0.
        h = np.diag([2.0, 20.0])
        f = np.array([-2.0, -20.0])
        lam = 2.0 / (0.5 + 0.05)
        expected = np.array([1.0 - lam / 2.0, 1.0 - lam / 20.0])
        sol = solve_qp(QpProblem(h, f, A_in=np.array([[1.0, 1.0]]), b_in=np.array([0.0])))
        assert np.allclose(sol.x_star, expected, atol=1e-9)

    def test_two_active_inequalities(self):
        # min ||x - (2,2)||^2 s.t. x1 <= 1, x2 <= 1 -> (1,1)
        sol = solve_qp(QpProblem(2.0 * np.eye(2), np.array([-4.0, -4.0]),
                                 A_in=np.eye(2), b_in=np.ones(2)))
        assert np.allclose(sol.x_star, [1.0, 1.0], atol=1e-9)

    def test_redundant_active_constraints(self):
        # x <= 1 given twice; solution on the bound, no cycling.
        sol = solve_qp(QpProblem(np.array([[2.0]]), np.array([-4.0]),
                                 A_in=np.array([[1.0], [1.0]]), b_in=np.array([1.0, 1.0])))
        assert np.allclose(sol.x_star, [1.0], atol=1e-9)
        assert sol.status is QpStatus.OPTIMAL


class TestInfeasibility:
    def test_contradictory_inequalities(self):
        prob = QpProblem(np.array([[2.0]]), np.zeros(1),
                         A_in=np.array([[1.0], [-1.0]]), b_in=np.array([-1.0, -1.0]))
        assert solve_qp(prob).status is QpStatus.INFEASIBLE

    def test_equality_conflicts_with_bounds(self):
        prob = QpProblem(2.0 * np.eye(2), np.zeros(2),
                         A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([10.0]),
                         bounds=Bounds.make(None, np.ones(2), 2))
        assert solve_qp(prob).status is QpStatus.INFEASIBLE

    def test_inconsistent_equalities(self):
        prob = QpProblem(2.0 * np.eye(2), np.zeros(2),
                         A_eq=np.array([[1.0, 0.0], [1.0, 0.0]]), b_eq=np.array([0.0, 1.0]))
        assert solve_qp(prob).status is QpStatus.INFEASIBLE

    def test_fully_pinned_infeasible(self):
        prob = QpProblem(2.0 * np.eye(2), np.zeros(2),
                         A_eq=np.eye(2), b_eq=np.array([2.0, 2.0]),
                         bounds=Bounds.make(None, np.ones(2), 2))
        assert solve_qp(prob).status is QpStatus.INFEASIBLE


class TestValidation:
    def test_asymmetric_h_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    def test_indefinite_h_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(np.diag([1.0, -1.0]), np.zeros(2))

    def test_empty_qp_rejected(self):
        with pytest.raises(ValueError, match="no decision variables"):
            QpProblem(np.zeros((0, 0)), np.zeros(0))

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Bounds.make([2.0], [1.0], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["H", "f", "A_eq", "b_eq", "A_in", "b_in"])
    def test_non_finite_entry_names_its_block(self, block, bad):
        blocks = dict(H=np.eye(3), f=np.zeros(3), A_eq=np.ones((1, 3)), b_eq=np.ones(1),
                      A_in=np.ones((2, 3)), b_in=np.ones(2))
        blocks[block] = blocks[block].copy()
        blocks[block].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{block} contains non-finite"):
            QpProblem(**blocks)

    @pytest.mark.parametrize("side", ["lb", "ub"])
    def test_nan_bound_rejected(self, side):
        # a NaN upper bound on x0 used to drop that bound: min (x0 - 2)^2
        # came back Optimal at x0 = 2 with no error
        bounds = dict(lb=np.array([-np.inf, 0.0]), ub=np.array([np.inf, 1.0]))
        bounds[side][0] = np.nan
        with pytest.raises(ValueError, match=f"^{side} contains NaN"):
            Bounds.make(d=2, **bounds)

    def test_infinite_bounds_allowed(self):
        bounds = Bounds.make([-np.inf, 0.0], [np.inf, 1.0], 2)
        prob = QpProblem(2.0 * np.eye(2), np.array([-4.0, 0.0]), bounds=bounds)
        sol = solve_qp(prob)
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(sol.x_star, [2.0, 0.0], atol=1e-9)
        # a problem keeps the read-only box it is given; without one it has none
        assert prob.bounds is bounds
        assert not any(a.flags.writeable for a in (bounds.lb, bounds.ub, bounds.rows, bounds.rhs))
        assert QpProblem(np.eye(2), np.zeros(2)).bounds.rows.shape == (0, 2)

    def test_bounds_misuse_rejected(self):
        made = Bounds.make(None, np.ones(2), 2)
        with pytest.raises(ValueError, match="entries"):
            QpProblem(np.eye(3), np.zeros(3), bounds=made)
        with pytest.raises(ValueError, match="ub must have 2 entries"):
            Bounds.make(None, np.ones(3), 2)


def _psd_case(rng, d, t, size=1.0, rank=None):
    """Symmetric d x d matrix with eigenvalues in size * [0.1, 1] except its
    least, t * 1e-10 * max(1, max|H_ij|) (with ``rank``: d - rank zeros)."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = size * rng.uniform(0.1, 1.0, d)
    w[: 1 if rank is None else d - rank] = 0.0
    if rank is None:
        w[0] = t * 1e-10 * max(1.0, float(np.max(np.abs((q * w) @ q.T))))
    h = (q * w) @ q.T
    return 0.5 * (h + h.T)


class TestPsdCertificate:
    """A completed Cholesky factorisation accepts H; otherwise the
    eigenvalue rule decides. Either way H is rejected exactly when the
    eigenvalue rule rejects it."""

    def _cases(self):
        rng = np.random.default_rng(31)
        for d in (1, 2, 5, 12, 31, 46):
            for size in (1.0, 1e3):
                yield _psd_case(rng, d, 1e9, size)                   # positive definite
                if d > 1:
                    yield _psd_case(rng, d, 0.0, size, rank=d // 2)  # singular PSD
                for t in (-10.0, -2.0, -1.1, -1.0, -0.9, -0.5, 0.0, 0.5, 1.0, 1.1, 2.0):
                    yield _psd_case(rng, d, t, size)                 # near the rule

    def test_rejects_exactly_as_eigenvalue_rule(self, monkeypatch):
        calls = {"potrf_ok": 0, "potrf_failed": 0}
        potrf = qp.dpotrf

        def counted(a, *args, **kwargs):
            out = potrf(a, *args, **kwargs)
            calls["potrf_ok" if out[1] == 0 else "potrf_failed"] += 1
            return out

        monkeypatch.setattr(qp, "dpotrf", counted)
        verdicts = set()
        for h in self._cases():
            accept = eigvalsh_psd_rule(h)
            verdicts.add(bool(accept))
            if accept:
                QpProblem(h, np.zeros(h.shape[0]))
            else:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    QpProblem(h, np.zeros(h.shape[0]))
        assert verdicts == {True, False}
        assert calls["potrf_ok"] > 0 and calls["potrf_failed"] > 0

    def test_bound_covers_the_rule(self):
        assert qp.PSD_CERT_MAX_DIM >= 46
        assert qp.cholesky_eig_bound(46) < 2.5e-13
        assert qp.cholesky_eig_bound(qp.PSD_CERT_MAX_DIM) <= 1e-2 * qp.PSD_TOL

    @pytest.mark.parametrize("d", [2, 46])
    def test_indefinite_h_uses_factorisation_then_eigenvalues(self, monkeypatch, d):
        seen = []
        potrf, eigvalsh = qp.dpotrf, qp.eigvalsh
        monkeypatch.setattr(qp, "dpotrf",
                            lambda a, *k, **kw: seen.append("potrf") or potrf(a, *k, **kw))
        monkeypatch.setattr(qp, "eigvalsh",
                            lambda a, *k, **kw: seen.append("eigvalsh") or eigvalsh(a, *k, **kw))
        h = _psd_case(np.random.default_rng(d), d, -1e7)     # lambda_min = -1e-3
        with pytest.raises(ValueError, match="positive semidefinite"):
            QpProblem(h, np.zeros(d))
        assert seen == ["potrf", "eigvalsh"]

    def test_beyond_the_bound_range_eigenvalues_alone(self, monkeypatch):
        seen = []
        potrf, eigvalsh = qp.dpotrf, qp.eigvalsh
        monkeypatch.setattr(qp, "dpotrf",
                            lambda a, *k, **kw: seen.append("potrf") or potrf(a, *k, **kw))
        monkeypatch.setattr(qp, "eigvalsh",
                            lambda a, *k, **kw: seen.append("eigvalsh") or eigvalsh(a, *k, **kw))
        d = qp.PSD_CERT_MAX_DIM + 1
        QpProblem(np.eye(d), np.zeros(d))
        with pytest.raises(ValueError, match="positive semidefinite"):
            QpProblem(np.diag(np.r_[-1.0, np.ones(d - 1)]), np.zeros(d))
        assert seen == ["eigvalsh", "eigvalsh"]


class TestPsdNearFloatMax:
    """Hessians with entries near the float maximum are checked by the same
    rule, on an exact power-of-two scaling, without an overflow warning."""

    @pytest.mark.parametrize("h", [
        np.diag([1e308, -1e308]),
        np.diag([1e308, -1e300]),        # lambda_min below -1e-10 * 1e308
        np.array([[1e308, 5e307], [5e307, -1e308]]),
    ])
    def test_indefinite_rejected(self, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive semidefinite"):
                qp.PsdHessian.make(h)
            with pytest.raises(ValueError, match="positive semidefinite"):
                QpProblem(h, np.zeros(2))

    @pytest.mark.parametrize("h", [
        np.full((2, 2), 1e308),
        np.diag([1e308, 0.0]),
        np.diag([1e308, -1.0]),           # lambda_min -1 is within -1e-10 * 1e308
    ])
    def test_within_the_rule_accepted(self, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(qp.PsdHessian.make(h).H, h)

    def test_asymmetric_rejected_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="symmetric"):
                qp.PsdHessian.make(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    def test_scaled_cases_keep_their_verdicts(self):
        # 2^600 moves the cases above the rescaling threshold, exactly
        for h in TestPsdCertificate()._cases():
            if np.abs(h).max() <= 1.0:
                continue       # the rule's scale is max(1, max|h_ij|), not homogeneous below 1
            big = np.ldexp(h, 600)
            assert np.abs(big).max() > qp._RESCALE_ABOVE
            accept = eigvalsh_psd_rule(h)
            if accept:
                qp.PsdHessian.make(big)
            else:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    qp.PsdHessian.make(big)

    def test_recorded_controller_hessians_keep_their_verdicts(self, controller_qps):
        for prob, _ in controller_qps:
            h = np.array(prob.H)
            assert np.abs(h).max() <= qp._RESCALE_ABOVE
            qp._check_symmetric_psd(h)
            qp._check_symmetric_psd(np.ldexp(h, 600))


class TestPsdHessian:
    """A Hessian made once as a PsdHessian is checked once, and its problems
    take it unchecked; every array H is still checked per problem."""

    @staticmethod
    def count_eigvalsh(monkeypatch):
        seen = []
        eigvalsh = qp.eigvalsh
        monkeypatch.setattr(qp, "eigvalsh",
                            lambda a, *k, **kw: seen.append(a.shape) or eigvalsh(a, *k, **kw))
        return seen

    def test_checked_once_read_only_copy(self, monkeypatch):
        seen = self.count_eigvalsh(monkeypatch)
        h = np.diag([0.0, 2.0, 4.0])     # semidefinite: dpotrf fails, eigvalsh decides
        hess = qp.PsdHessian.make(h)
        assert seen == [(3, 3)]
        assert hess.H is not h and np.array_equal(hess.H, h) and not hess.H.flags.writeable
        for _ in range(3):
            assert QpProblem(hess, np.ones(3)).H is hess.H
        assert seen == [(3, 3)]
        QpProblem(h, np.ones(3))
        assert seen == [(3, 3)] * 2

    def test_writable_indefinite_h_still_rejected(self):
        h = np.diag([-1.0, 2.0])
        with pytest.raises(ValueError, match="positive semidefinite"):
            QpProblem(h, np.zeros(2))
        # a problem whose H is replaced by an array is checked again
        prob = QpProblem(qp.PsdHessian.make(np.diag([0.0, 2.0])), np.zeros(2))
        prob.H = h
        with pytest.raises(ValueError, match="positive semidefinite"):
            prob.validate()

    @pytest.mark.parametrize("h,match", [
        (np.diag([1.0, -1.0]), "positive semidefinite"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "symmetric"),
        (np.diag([np.nan, 1.0]), "non-finite"),
        (np.zeros((2, 3)), "square"),
        (np.zeros((0, 0)), "square"),
    ])
    def test_make_rejects_what_a_problem_rejects(self, h, match):
        with pytest.raises(ValueError, match=match):
            qp.PsdHessian.make(h)

    def test_clf_qp_steps_make_no_eigvalsh_call(self, monkeypatch):
        from clfqp.controllers import Reference, make_controller
        from clfqp.multibody import RobotState
        from clfqp.robots import builtin_registry

        model, gains = builtin_registry()["finger"].load()
        ctrl = make_controller("clf-qp", model, gains["clf-qp"])
        ref = Reference.setpoint(np.array([0.05, -0.1]))
        seen = self.count_eigvalsh(monkeypatch)
        rng = np.random.default_rng(3)
        for _ in range(5):
            ctrl.step(RobotState(0.2 * rng.standard_normal(model.n), np.zeros(model.n)), ref)
        assert seen == []


class TestAgainstEnumerationOracle:
    def test_random_qps_match_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            prob = random_qp(rng, d=5, n_eq=2, n_in=3, bounded=bool(trial % 2))
            sol = solve_qp(prob)
            assert sol.status is QpStatus.OPTIMAL, f"trial {trial}: {sol.status}"
            ref = brute_force_qp(prob.H, prob.f, prob.A_eq, prob.b_eq,
                                 prob.A_in, prob.b_in, prob.bounds.lb, prob.bounds.ub)
            assert ref is not None
            assert np.max(np.abs(sol.x_star - ref)) < 1e-6, f"trial {trial}"
            assert sol.kkt_residual < 1e-6


class TestSolutionQuality:
    def test_kkt_residual_small_when_optimal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sol = solve_qp(random_qp(rng, bounded=True))
            assert sol.status is QpStatus.OPTIMAL
            assert sol.kkt_residual <= 1e-6

    def test_local_optimality_probe(self):
        # Feasible perturbations of size 1e-3 never improve the objective
        # by more than 1e-9.
        rng = np.random.default_rng(99)
        for _ in range(20):
            prob = random_qp(rng, d=4, n_eq=1, n_in=2, bounded=True)
            sol = solve_qp(prob)
            assert sol.status is QpStatus.OPTIMAL
            base = prob.objective(sol.x_star)
            tried = 0
            while tried < 100:
                step = rng.standard_normal(prob.dim)
                if prob.A_eq.shape[0]:
                    # stay on the equality manifold
                    step -= prob.A_eq.T @ np.linalg.lstsq(
                        prob.A_eq @ prob.A_eq.T, prob.A_eq @ step, rcond=None)[0]
                cand = sol.x_star + 1e-3 * step / max(np.linalg.norm(step), 1e-12)
                if (np.all(prob.A_in @ cand - prob.b_in <= 1e-12)
                        and np.all(cand >= prob.bounds.lb - 1e-12)
                        and np.all(cand <= prob.bounds.ub + 1e-12)):
                    tried += 1
                    assert prob.objective(cand) >= base - 1e-9

    def test_deterministic_resolve(self):
        rng = np.random.default_rng(1)
        prob = random_qp(rng, bounded=True)
        a = solve_qp(prob)
        b = solve_qp(prob)
        assert np.array_equal(a.x_star, b.x_star)
        assert a.iterations == b.iterations

    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(12)
        prob = random_qp(rng, d=6, n_eq=2, n_in=4, bounded=True)
        cold = solve_qp(prob)
        warm = solve_qp(prob, warm_start=cold.active_set)
        assert np.max(np.abs(cold.x_star - warm.x_star)) < 1e-9
        assert warm.iterations <= cold.iterations

    def test_max_iter_reports_best_iterate(self):
        rng = np.random.default_rng(2)
        prob = random_qp(rng, d=6, n_eq=0, n_in=8, bounded=True)
        sol = solve_qp(prob, max_iter=1)
        assert sol.status in (QpStatus.MAX_ITER, QpStatus.OPTIMAL)
        assert isinstance(sol, QpSolution)
        assert sol.x_star.shape == (6,)

    def test_constraints_satisfied_at_optimum(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            prob = random_qp(rng, bounded=True)
            sol = solve_qp(prob)
            assert sol.status is QpStatus.OPTIMAL
            assert np.max(prob.A_eq @ sol.x_star - prob.b_eq, initial=0.0) < 1e-6
            assert np.max(prob.A_in @ sol.x_star - prob.b_in, initial=0.0) < 1e-6
            assert np.all(sol.x_star >= prob.bounds.lb - 1e-6)
            assert np.all(sol.x_star <= prob.bounds.ub + 1e-6)


def _record_controller_qps():
    """Every QP, with the warm start it was given, that clf-qp,
    soft-id-clf-qp and ic-qp solve on each built-in robot over one set point
    (theta = 0.5 pi) and one tracking rate (omega = 0.5 pi), 20 ms each."""
    from clfqp import controllers, experiments

    recorded = []
    solve = controllers.solve_qp

    def recording(prob, warm_start=None, max_iter=None):
        recorded.append((prob, warm_start))
        return solve(prob, warm_start=warm_start, max_iter=max_iter)

    controllers.solve_qp = recording
    try:
        for robot in ("finger", "helix", "spirob"):
            for law in ("clf-qp", "soft-id-clf-qp", "ic-qp"):
                experiments.setpoint_suite(robot, law, thetas=(experiments.THETA_GRID[1],),
                                           sim_overrides={"t_end": 0.02})
                experiments.tracking_suite(robot, law, omegas=(experiments.OMEGA_GRID[4],),
                                           sim_overrides={"t_end": 0.02})
    finally:
        controllers.solve_qp = solve
    return recorded


@pytest.fixture(scope="module")
def controller_qps():
    return _record_controller_qps()


def _same_as_assembled_kkt(prob, warm_start):
    sol = solve_qp(prob, warm_start=warm_start)
    x, active, iterations, status, _ = assembled_kkt_qp(prob, warm_start=warm_start)
    return (np.array_equal(sol.x_star, x) and np.array_equal(np.signbit(sol.x_star), np.signbit(x))
            and sol.active_set == active and sol.iterations == iterations
            and sol.status.value == status)


class TestMatchesAssembledKktSolver:
    """The solver returns bit for bit what it returned before its fixed
    costs were cut (oracles.assembled_kkt_qp)."""

    def test_controller_qps(self, controller_qps):
        assert len(controller_qps) == 9 * 2 * 20
        assert sum(bool(warm) for _, warm in controller_qps) > 200
        for i, (prob, warm) in enumerate(controller_qps):
            assert _same_as_assembled_kkt(prob, warm), f"QP {i}, warm start {warm}"
            assert _same_as_assembled_kkt(prob, None), f"QP {i}, cold"

    def test_random_qps_and_warm_starts(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            prob = random_qp(rng, d=6, n_eq=trial % 3, n_in=4, bounded=bool(trial % 2))
            cold = solve_qp(prob)
            rows = 4 + (12 if trial % 2 else 0)
            for warm in (None, cold.active_set, tuple(rng.choice(rows, 3, replace=False)),
                         (0, 0, 1), (rows + 5, 1)):
                assert _same_as_assembled_kkt(prob, warm), f"trial {trial}, warm {warm}"


def _random_qps_and_warm_starts():
    """The 100 random problems of TestMatchesAssembledKktSolver, each cold
    and warm-started from its own active set."""
    rng = np.random.default_rng(17)
    out = []
    for trial in range(100):
        prob = random_qp(rng, d=6, n_eq=trial % 3, n_in=4, bounded=bool(trial % 2))
        out += [(prob, None), (prob, solve_qp(prob).active_set)]
    return out


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestDiagnosticsOnDemand:
    """kkt_residual and objective are worked out on first read, with the
    bits the solve used to compute at its end: _kkt_residual at the
    solution and the multipliers of the solver before the cut (the
    oracle), and prob.objective(x)."""

    def check(self, cases, monkeypatch):
        made = []
        residual = qp._kkt_residual
        monkeypatch.setattr(qp, "_kkt_residual", lambda *a: made.append(1) or residual(*a))
        sols = [solve_qp(prob, warm_start=warm) for prob, warm in cases]
        assert not made    # nothing is computed until it is read
        for (prob, warm), sol in zip(cases, sols):
            x, _, _, _, lam = assembled_kkt_qp(prob, warm_start=warm)
            g_all, h_all = qp._stack_inequalities(prob)
            _, z_basis, _ = qp._eliminate_equalities(prob)
            assert _bits(sol.kkt_residual) == _bits(residual(prob, g_all, h_all, x, lam, z_basis))
            assert _bits(sol.objective) == _bits(prob.objective(x))
            before = len(made)
            assert sol.kkt_residual == sol.kkt_residual and len(made) == before   # kept
        assert len(made) == len(cases)

    def test_controller_qps(self, controller_qps, monkeypatch):
        assert len(controller_qps) == 360
        self.check(controller_qps, monkeypatch)

    def test_random_qps(self, monkeypatch):
        self.check(_random_qps_and_warm_starts(), monkeypatch)


class TestDeferredFactor:
    """The reduced Hessian's Cholesky factor is made by the first solve with
    an empty working set, the only kind that uses it, and by no other."""

    def test_one_factor_exactly_when_the_working_set_empties(self, controller_qps,
                                                            monkeypatch):
        factors, emptied = [], []
        chol = qp._chol_with_ridge
        monkeypatch.setattr(qp, "_chol_with_ridge", lambda h: factors.append(1) or chol(h))
        for name in ("solve_eqp", "step_directions"):
            method = getattr(qp._WorkingSet, name)
            monkeypatch.setattr(qp._WorkingSet, name,
                                lambda ws, *a, m=method: emptied.append(not ws.idx) or m(ws, *a))
        counts = {0: 0, 1: 0}
        cold = [(prob, None) for prob, _ in controller_qps]
        for prob, warm in controller_qps + cold + _random_qps_and_warm_starts():
            del factors[:], emptied[:]
            assert _same_as_assembled_kkt(prob, warm)
            assert len(factors) == (1 if any(emptied) else 0)
            counts[len(factors)] += 1
        assert counts[0] > 200 and counts[1] > 400


class TestSeeding:
    """One SVD of all warm-start candidates keeps the rows that one rank
    test per candidate keeps."""

    def test_recorded_warm_starts(self, controller_qps):
        for prob, warm in controller_qps:
            if not warm:
                continue
            g_all, _ = qp._stack_inequalities(prob)
            _, z_basis, _ = qp._eliminate_equalities(prob)
            g = g_all @ z_basis
            cands = [p for p in warm if 0 <= p < g.shape[0]]
            assert qp._independent_rows(g, cands) == row_by_row_independent(g, cands)

    def test_sigma_min_near_the_cutoff(self, monkeypatch):
        rank_calls = []
        matrix_rank = qp.matrix_rank
        monkeypatch.setattr(qp, "matrix_rank",
                            lambda *a, **k: rank_calls.append(1) or matrix_rank(*a, **k))
        rng = np.random.default_rng(41)
        paths = set()
        for nz in (3, 8, 30):
            for k in sorted({1, nz // 2, nz}):
                for s_min in np.r_[1e-10 * np.logspace(-1, 1, 13),
                                   1e-10 * (1 + np.array([-1e-6, 1e-9, 1e-6, 1e-3]))]:
                    for s_max in (1.0, 1e3):
                        u, _ = np.linalg.qr(rng.standard_normal((k, k)))
                        v, _ = np.linalg.qr(rng.standard_normal((nz, nz)))
                        s = np.geomspace(s_max, s_min, k) if k > 1 else np.array([s_min])
                        g = np.vstack([(u * s) @ v[:k], rng.standard_normal((1, nz))])
                        order = list(rng.permutation(k))
                        for cands in (order, order + [order[0]], order + [k]):
                            before = len(rank_calls)
                            got = qp._independent_rows(g, cands)
                            paths.add(len(rank_calls) == before)
                            assert got == row_by_row_independent(g, cands), (nz, k, s_min)
        assert paths == {True, False}
