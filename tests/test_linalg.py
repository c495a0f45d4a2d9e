import numpy as np
import pytest
import scipy.linalg

from pathlib import Path

from clfqp import linalg
from clfqp.linalg import (
    CarePair,
    NonPositiveWeight,
    SvdFailure,
    double_integrator_blocks,
    pinv,
    solve_care_double_integrator,
    svd,
)

from oracles import penrose_defect, svd_pinv

DATA = Path(__file__).resolve().parent / "data"


def same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def rank_deficient(rng, shape, rank):
    *lead, m, n = shape
    return rng.standard_normal((*lead, m, rank)) @ rng.standard_normal((*lead, rank, n))


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        assert np.allclose(pinv(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-14)

    def test_zero_matrix(self):
        assert np.array_equal(pinv(np.zeros((2, 4))), np.zeros((4, 2)))

    def test_random_rect_matches_svd_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 5))
        ap = pinv(a)
        assert np.max(np.abs(a @ ap @ a - a)) < 1e-8
        assert np.allclose(ap, svd_pinv(a), atol=1e-10)

    def test_penrose_identities_across_ranks(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            rank = int(rng.integers(0, min(m, n) + 1))
            a = (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
                 if rank else np.zeros((m, n)))
            assert penrose_defect(a, pinv(a)) < 1e-8

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            pinv(np.eye(2), tol=0.0)


class TestPinvBitsOfNumpy:
    """pinv runs np.linalg.pinv's arithmetic without its wrapper."""

    @pytest.mark.parametrize("shape,rank", [
        ((2, 27), 2), ((3, 9), 3), ((27, 3), 3),        # one state
        ((5, 2, 9), 2), ((4, 3, 27), 3),                # stacked rows
        ((3, 5), 1), ((6, 6), 4), ((5, 2, 6), 1),       # rank-deficient
    ])
    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    def test_random(self, shape, rank, tol):
        rng = np.random.default_rng(sum(shape) + rank)
        for _ in range(20):
            a = rank_deficient(rng, shape, rank)
            assert same_bits(pinv(a, tol), np.linalg.pinv(a, rcond=tol))

    @pytest.mark.parametrize("shape", [(2, 4), (4, 2), (3, 2, 4), (0, 3), (3, 0), (0, 0),
                                       (4, 0, 3), (0, 2, 3)])
    def test_zero_and_empty(self, shape):
        a = np.zeros(shape)
        assert same_bits(pinv(a), np.linalg.pinv(a, rcond=1e-8))

    def test_every_pinv_of_short_lockstep_suites(self, monkeypatch):
        from clfqp import controllers, experiments, kinematics

        seen = []

        def checked(a, tol=linalg.DEFAULT_PINV_TOL):
            got = pinv(a, tol)
            seen.append(np.ndim(a))
            assert same_bits(got, np.linalg.pinv(np.asarray(a, dtype=float), rcond=tol))
            return got

        monkeypatch.setattr(kinematics, "pinv", checked)
        monkeypatch.setattr(controllers, "pinv", checked)
        for law in ("clf-qp", "uic"):
            experiments.tracking_suite("spirob", law, sim_overrides={"t_end": 0.005})
        assert set(seen) == {2, 3}


class TestSvd:
    """One SVD for every site whose factors are used: a finite gesdd result
    as is, gesvd where gesdd's factors are not finite."""

    def test_finite_result_is_numpys(self):
        rng = np.random.default_rng(4)
        for shape, full in (((3, 7), True), ((7, 3), False), ((4, 2, 6), False)):
            a = rng.standard_normal(shape)
            for got, want in zip(svd(a, full), np.linalg.svd(a, full_matrices=full)):
                assert same_bits(got, want)

    def test_helix_matrix_where_gesdd_gives_nan_factors(self):
        # (I - B B^+) N of helix uic tracking at omega = 0.2 pi, t = 1.03 s:
        # 36 x 36, 27 singular values above the cutoff (matrix_rank's own
        # tolerance counts 28). gesdd (np.linalg.svd) returned finite
        # singular values with non-finite U and V' here, reporting success.
        a = np.load(DATA / "helix_uic_blocked_null.npy")
        u, s, vt = svd(a)
        assert all(np.isfinite(f).all() for f in (u, s, vt))
        assert np.abs((u * s) @ vt - a).max() < 1e-13
        got = pinv(a)
        assert np.isfinite(got).all()
        u, s, vt, info = scipy.linalg.lapack.dgesvd(a, full_matrices=0)
        keep = s > linalg.DEFAULT_PINV_TOL * s[0]
        assert info == 0 and keep.sum() == 27
        gesvd_pinv = (vt[keep].T / s[keep]) @ u[:, keep].T
        # the kept singular values are >= 0.67 and the cut ones <= 1.3e-14,
        # so the two SVDs' pseudoinverses agree to rounding
        assert np.abs(got - gesvd_pinv).max() < 1e-12
        assert penrose_defect(a, got) < 1e-12

    @staticmethod
    def nan_factors_where(monkeypatch, bad):
        """gesdd as on the helix matrix: non-finite U for every matrix m
        with bad(m)."""
        real = linalg.gesdd

        def fake(a, full_matrices=True, **kw):
            u, s, vt = real(a, full_matrices=full_matrices, **kw)
            mask = np.array([bad(m) for m in a.reshape(-1, *a.shape[-2:])])
            u.reshape(-1, *u.shape[-2:])[mask] = np.nan
            return u, s, vt

        monkeypatch.setattr(linalg, "gesdd", fake)
        return real

    @pytest.mark.parametrize("full", [False, True])
    def test_stack_redoes_only_the_bad_matrix(self, monkeypatch, full):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 5, 3))
        real = self.nan_factors_where(monkeypatch, lambda m: m[0, 0] == a[2, 0, 0])
        got = svd(a, full)
        want = real(a, full_matrices=full)
        for g, w in zip(got, want):
            for i in (0, 1, 3):
                assert same_bits(g[i], w[i])
        redone = scipy.linalg.lapack.dgesvd(a[2], full_matrices=int(full))[:3]
        for g, r in zip(got, redone):
            assert same_bits(g[2], r)
        thin = scipy.linalg.lapack.dgesvd(a[2], full_matrices=0)[:3]
        assert same_bits(pinv(a[2]), svd_pinv_from(*thin))

    def test_nonconvergence_error_falls_back(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(linalg, "gesdd", fails)
        a = np.arange(6.0).reshape(2, 3)
        u, s, vt = svd(a)
        assert np.abs((u * s) @ vt - a).max() < 1e-13

    def test_both_failing_raise_a_named_error(self, monkeypatch):
        self.nan_factors_where(monkeypatch, lambda m: True)
        monkeypatch.setattr(linalg, "dgesvd",
                            lambda a, full_matrices: (a, a[0], a, 1))
        with pytest.raises(SvdFailure, match="gesvd with info 1") as info:
            pinv(np.eye(3))
        assert isinstance(info.value, np.linalg.LinAlgError)


def svd_pinv_from(u, s, vt, tol=linalg.DEFAULT_PINV_TOL):
    """np.linalg.pinv's arithmetic on given factors."""
    large = s > tol * s.max(-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s.copy())
    s[~large] = 0
    return vt.swapaxes(-1, -2) @ (s[..., None] * u.swapaxes(-1, -2))


class TestCare:
    def test_unit_weights_scalar_axis(self):
        pair = solve_care_double_integrator(np.eye(2), np.eye(1))
        expected = np.array([[np.sqrt(3.0), 1.0], [1.0, np.sqrt(3.0)]])
        assert np.allclose(pair.P, expected, atol=1e-12)
        assert pair.residual() < 1e-12

    def test_position_only_weight(self):
        pair = solve_care_double_integrator(np.diag([4.0, 0.0]), np.eye(1))
        assert np.allclose(pair.P, np.array([[4.0, 2.0], [2.0, 2.0]]), atol=1e-12)
        assert pair.residual() < 1e-12

    def test_zero_r_rejected(self):
        with pytest.raises(NonPositiveWeight):
            solve_care_double_integrator(np.diag([1.0, 0.0]), np.zeros((1, 1)))

    def test_zero_q1_rejected(self):
        with pytest.raises(NonPositiveWeight):
            solve_care_double_integrator(np.diag([0.0, 1.0]), np.eye(1))

    def test_block_assembly_multi_axis(self):
        q = np.diag([1.0, 4.0, 2.0, 0.5, 0.0, 3.0])
        r = np.diag([1.0, 2.0, 0.7])
        pair = solve_care_double_integrator(q, r)
        assert pair.residual() < 1e-9
        assert np.all(np.linalg.eigvalsh(pair.P) > 0)

    def test_matches_schur_solver(self):
        # scipy solves the same equation by an independent Schur method.
        rng = np.random.default_rng(3)
        for _ in range(25):
            n_t = int(rng.integers(1, 4))
            q = np.diag(rng.uniform(0.1, 100.0, 2 * n_t))
            r = np.diag(rng.uniform(0.1, 100.0, n_t))
            pair = solve_care_double_integrator(q, r)
            f, g = double_integrator_blocks(n_t)
            p_ref = scipy.linalg.solve_continuous_are(f, g, q, r)
            assert np.allclose(pair.P, p_ref, rtol=1e-8, atol=1e-9)

    def test_random_weights_residual_and_definiteness(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            n_t = int(rng.integers(1, 4))
            q = np.diag(rng.uniform(0.1, 100.0, 2 * n_t))
            r = np.diag(rng.uniform(0.1, 100.0, n_t))
            pair = solve_care_double_integrator(q, r)
            assert pair.residual() <= 1e-9
            assert np.linalg.eigvalsh(pair.P)[0] > 0.0

    def test_carepair_reports_dims(self):
        pair = solve_care_double_integrator(np.eye(4), np.eye(2))
        assert pair.n_t == 2
        assert isinstance(pair, CarePair)


class TestMatrixRank:
    """matrix_rank counts the singular values above numpy's cutoff."""

    def test_matches_numpy(self):
        rng = np.random.default_rng(12)
        for shape, rank in (((3, 27), 2), ((27, 3), 3), ((6, 6), 4), ((5, 2), 1)):
            a = rank_deficient(rng, shape, rank)
            assert linalg.matrix_rank(a) == np.linalg.matrix_rank(a) == rank
            for tol in (1e-10, 1.0, 1e3):
                assert linalg.matrix_rank(a, tol=tol) == np.linalg.matrix_rank(a, tol=tol)
        assert linalg.matrix_rank(np.zeros((3, 2))) == np.linalg.matrix_rank(np.zeros((3, 2))) == 0


class TestEye:
    def test_read_only_identity_made_once(self):
        for n in (1, 3, 27):
            ident = linalg.eye(n)
            assert linalg.eye(n) is ident
            assert same_bits(ident, np.eye(n)) and not ident.flags.writeable


BIG = 1e308
FINITENESS_CASES = {
    "finite": np.arange(6.0),
    "nan": np.array([1.0, np.nan, 2.0]),
    "inf": np.array([np.inf, 1.0]),
    "-inf": np.array([-2.0, -np.inf]),
    "both infs": np.array([np.inf, -np.inf]),
    "sum overflows up": np.array([BIG, BIG, 1.0]),
    "sum overflows down": np.array([-BIG, -BIG]),
    "sum overflows, then comes back": np.array([BIG, BIG, -BIG, -BIG]),
    "empty": np.zeros(0),
    "empty rows": np.zeros((0, 3)),
    "rows": np.arange(12.0).reshape(4, 3),
    "rows, one nan": np.where(np.arange(12).reshape(4, 3) == 7, np.nan, 1.0),
    "rows overflowing": np.full((3, 2), -BIG),
    "scalar": np.array(3.0),
    "scalar nan": np.array(np.nan),
}


def entrywise(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


class TestAllFinite:
    """all_finite answers what the entrywise test answers, warns of nothing
    (pytest makes warnings errors) and leaves numpy's error state as it
    was."""

    @pytest.mark.parametrize("name", FINITENESS_CASES)
    def test_one_array(self, name):
        a = FINITENESS_CASES[name]
        before = np.geterr()
        assert linalg.all_finite(a) is bool(entrywise(a))
        assert np.geterr() == before

    def test_every_pair(self):
        for a in FINITENESS_CASES.values():
            for b in FINITENESS_CASES.values():
                assert linalg.all_finite(a, b) is bool(entrywise(a, b))
        assert linalg.all_finite() is True

    def test_under_a_raising_error_state(self):
        with np.errstate(all="raise"):
            assert linalg.all_finite(FINITENESS_CASES["sum overflows up"])
            assert not linalg.all_finite(FINITENESS_CASES["both infs"])
            assert np.geterr()["over"] == "raise"

    def test_checks_keep_their_texts(self):
        from clfqp.clf import TaskError
        from clfqp.multibody import RobotState
        from clfqp.qp import PsdHessian, QpProblem

        big = np.array([BIG, BIG])
        RobotState(big, -big)
        TaskError(big, big)
        QpProblem(np.eye(2), big)
        PsdHessian.make(np.diag(np.full(3, 0.7 * BIG)))    # the sum overflows, h + h' not
        bad = np.array([1.0, np.nan])
        with pytest.raises(ValueError, match="^state entries must be finite$"):
            RobotState(np.zeros(2), bad)
        with pytest.raises(ValueError, match="^task error must be finite$"):
            TaskError(np.array([np.inf, 0.0]), np.zeros(2))
        with pytest.raises(ValueError, match="^H contains non-finite entries$"):
            PsdHessian.make(np.diag(bad))
        for name, blocks in (("f", dict(f=bad)),
                             ("b_eq", dict(A_eq=np.eye(2), b_eq=bad)),
                             ("A_in", dict(A_in=np.diag(bad), b_in=np.zeros(2)))):
            args = {"H": np.eye(2), "f": np.zeros(2), **blocks}
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                QpProblem(**args)
