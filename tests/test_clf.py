import itertools

import numpy as np
import pytest

from clfqp.clf import TaskError, clf_row, clf_terms, default_clf


def err_from_eta(eta):
    n_t = eta.size // 2
    return TaskError(e=eta[:n_t], de=eta[n_t:])


def double_integrator(n_t):
    """F = [[0, I], [0, 0]] and G = [[0], [I]] of the stacked task-error
    double integrator, each block of size n_t."""
    f = np.zeros((2 * n_t, 2 * n_t))
    f[:n_t, n_t:] = np.eye(n_t)
    g = np.zeros((2 * n_t, n_t))
    g[n_t:] = np.eye(n_t)
    return f, g


def riccati_residual(p, q, r_scale, n_t):
    """Max-norm residual of F'P + PF - P G G' P / r_scale + Q = 0."""
    f, g = double_integrator(n_t)
    return np.abs(f.T @ p + p @ f - p @ g @ g.T @ p / r_scale + q).max()


class TestBuild:
    def test_closed_form_solves_riccati(self):
        for eps, n_t in itertools.product((0.01, 0.05, 0.5, 1.0, 1.7), (1, 2, 3)):
            clf = default_clf(eps, n_t)
            eye = np.eye(n_t)
            expected = np.block([[np.sqrt(3.0) * eye, eye], [eye, np.sqrt(3.0) * eye]])
            assert clf.P.tobytes() == expected.tobytes()
            assert riccati_residual(clf.P, np.eye(2 * n_t), 1.0, n_t) <= 1e-15
            # P_eps = S P S solves the equation for weights (S S / eps, eps I)
            s = np.concatenate([np.full(n_t, 1.0 / eps), np.ones(n_t)])
            q_eps = np.diag(s ** 2 / eps)
            assert riccati_residual(clf.P_eps, q_eps, eps, n_t) <= 1e-14 * q_eps.max()
            if eps == 1.0:
                assert np.array_equal(clf.P_eps, clf.P)

    def test_p_eps_positive_definite(self):
        for eps in (0.01, 0.05, 1.0):
            clf = default_clf(eps, 3)
            assert np.linalg.eigvalsh(clf.P_eps)[0] > 0.0

    @pytest.mark.parametrize("n_t", [2, 3])
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2, 0.5, 1.0, 1.7])
    def test_operators_are_the_products_bitwise(self, eps, n_t):
        # the blocks of P_eps stored in closed form are F'P_eps + P_eps F
        # and 2 P_eps G, bit for bit
        clf = default_clf(eps, n_t)
        f, g = double_integrator(n_t)
        for stored, product in ((clf.drift_form, f.T @ clf.P_eps + clf.P_eps @ f),
                                (clf.input_map, 2.0 * clf.P_eps @ g)):
            assert stored.shape == product.shape
            assert stored.tobytes() == product.tobytes()

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            default_clf(0.0, 2)


class TestValue:
    def test_zero_error(self):
        clf = default_clf(0.1, 2)
        assert clf_terms(clf, TaskError(np.zeros(2), np.zeros(2)))[0] == 0.0

    def test_unit_direction(self):
        clf = default_clf(1.0, 1)
        # P = [[sqrt(3), 1], [1, sqrt(3)]]; eta = (1, 0) -> V = sqrt(3)
        v = clf_terms(clf, TaskError(np.array([1.0]), np.array([0.0])))[0]
        assert v == pytest.approx(np.sqrt(3.0))

    def test_quadratic_homogeneity_and_positivity(self):
        clf = default_clf(0.05, 3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            eta = rng.standard_normal(6)
            v1 = clf_terms(clf, err_from_eta(eta))[0]
            v2 = clf_terms(clf, err_from_eta(2.0 * eta))[0]
            assert v1 > 0.0
            assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


class TestVdotCoeffs:
    def test_zero_error_gives_zero(self):
        clf = default_clf(0.2, 2)
        a0, a1 = clf_terms(clf, TaskError(np.zeros(2), np.zeros(2)))[1:]
        assert a0 == 0.0
        assert np.array_equal(a1, np.zeros(2))

    def test_scalar_expansion(self):
        # a1 = 2 (p2 e + p3 de) for P_eps = [[p1, p2], [p2, p3]].
        clf = default_clf(0.4, 1)
        p2 = clf.P_eps[0, 1]
        p3 = clf.P_eps[1, 1]
        e, de = 0.7, -0.3
        _, a1 = clf_terms(clf, TaskError(np.array([e]), np.array([de])))[1:]
        assert a1[0] == pytest.approx(2.0 * (p2 * e + p3 * de), rel=1e-12)

    def test_matches_finite_difference(self):
        clf = default_clf(0.05, 2)
        f, g = double_integrator(2)
        rng = np.random.default_rng(1)
        dt = 1e-7
        for _ in range(20):
            eta = rng.standard_normal(4)
            mu = rng.standard_normal(2)
            a0, a1 = clf_terms(clf, err_from_eta(eta))[1:]
            eta_next = eta + dt * (f @ eta + g @ mu)
            vdot_fd = (clf_terms(clf, err_from_eta(eta_next))[0]
                       - clf_terms(clf, err_from_eta(eta))[0]) / dt
            vdot = a0 + a1 @ mu
            assert vdot_fd == pytest.approx(vdot, rel=1e-4, abs=1e-8)


class TestClfRow:
    def test_zero_error_forces_nonnegative_delta_only(self):
        clf = default_clf(0.1, 2)
        row, rhs = clf_row(clf, clf_terms(clf, TaskError(np.zeros(2), np.zeros(2))))
        assert np.array_equal(row, [0.0, 0.0, -1.0])
        assert rhs == 0.0

    def test_satisfied_row_implies_decrease(self):
        clf = default_clf(0.08, 2)
        rng = np.random.default_rng(2)
        for _ in range(30):
            eta = rng.standard_normal(4)
            err = err_from_eta(eta)
            row, rhs = clf_row(clf, clf_terms(clf, err))
            a1 = row[:-1]
            # feasible mu with delta = 0: min-norm solution of a1 mu = rhs'
            slack_needed = rhs
            mu = a1 * slack_needed / (a1 @ a1)
            v, a0, a1c = clf_terms(clf, err)
            vdot = a0 + a1c @ mu
            assert vdot <= -v / clf.eps + 1e-9

    def test_homogeneity_of_row(self):
        clf = default_clf(0.05, 1)
        eta = np.array([0.4, -0.2])
        row1, rhs1 = clf_row(clf, clf_terms(clf, err_from_eta(eta)))
        row2, rhs2 = clf_row(clf, clf_terms(clf, err_from_eta(2.0 * eta)))
        assert np.allclose(row2[:-1], 2.0 * row1[:-1], rtol=1e-12)
        assert row2[-1] == row1[-1] == -1.0
        assert rhs2 == pytest.approx(4.0 * rhs1, rel=1e-12)


class TestExponentialCertificate:
    def test_decay_bound_along_trajectories(self):
        # Integrate eta_dot = F eta + G mu with the cheapest mu satisfying
        # the decrease condition at delta = 0; V must obey the envelope.
        clf = default_clf(0.2, 2)
        f, g = double_integrator(2)
        rng = np.random.default_rng(3)
        dt = 1e-4
        for _ in range(20):
            eta = rng.standard_normal(4)
            v0 = clf_terms(clf, err_from_eta(eta))[0]
            t = 0.0
            for _ in range(2000):
                err = err_from_eta(eta)
                v, a0, a1 = clf_terms(clf, err)
                bound = -a0 - v / clf.eps
                denom = a1 @ a1
                mu = a1 * min(0.0, bound) / denom if denom > 1e-14 else np.zeros(2)
                eta = eta + dt * (f @ eta + g @ mu)
                t += dt
            v_end = clf_terms(clf, err_from_eta(eta))[0]
            assert v_end <= v0 * np.exp(-t / clf.eps) * 1.02 + 1e-12
