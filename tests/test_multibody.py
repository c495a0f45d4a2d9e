import dataclasses

import numpy as np
import pytest

from clfqp import multibody, sim
from clfqp.controllers import Reference, make_controller
from clfqp.multibody import (
    COND_LIMIT,
    ChainMotion,
    ChainPose,
    DynamicsTerms,
    IllConditioned,
    RobotState,
    bias_terms,
    chain_pose,
    cross3,
    factor_inertia,
    forward_dynamics,
    gravitational_potential,
    mass_matrix,
    solve_inertia,
    total_energy,
)
from clfqp.robots import GainSet, builtin_registry

from oracles import (
    christoffel_coriolis,
    fd_gradient,
    loop_chain_pose,
    ten_cross_chain_motion,
    tril_mass_matrix,
    two_link_mass_matrix,
    two_pass_inverse_dynamics,
)
from toys import (ball_chain, evaluated_accelerations, h_vector, pendulum, rk4_rollout,
                  straight_chain, two_link, two_link_params)

MODELS = ["finger", "helix", "spirob", "ball_chain", "two_link"]


def load_model(name):
    toys = {"ball_chain": ball_chain, "two_link": two_link}
    return toys[name]() if name in toys else builtin_registry()[name].load()[0]


def bitwise_equal(a, b) -> bool:
    """Same shape and the same float64 bit patterns, signed zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMassMatrix:
    def test_point_mass_pendulum(self):
        model = pendulum(length=1.0, mass=1.0)
        assert np.allclose(mass_matrix(model, np.zeros(1)), [[1.0]], atol=1e-14)

    def test_two_link_matches_textbook(self):
        model = two_link()
        p = two_link_params()
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 2)
            expected = two_link_mass_matrix(q2=q[1], **p)
            assert np.allclose(mass_matrix(model, q), expected, atol=1e-12)

    def test_symmetry(self):
        model = ball_chain()
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = mass_matrix(model, rng.uniform(-1.0, 1.0, model.n))
            assert np.max(np.abs(m - m.T)) < 1e-12

    def test_positive_definite(self):
        rng = np.random.default_rng(2)
        for model in (two_link(), ball_chain()):
            for _ in range(10):
                m = mass_matrix(model, rng.uniform(-1.0, 1.0, model.n))
                assert np.linalg.eigvalsh(m)[0] > 0.0


class TestChainPose:
    @pytest.mark.parametrize("name", MODELS)
    def test_matches_per_dof_loop(self, name):
        model = load_model(name)
        rng = np.random.default_rng(3)
        for scale in (1e-3, 0.5, 1.0, 4.0):
            q = rng.uniform(-scale, scale, model.n)
            pose = chain_pose(model, q)
            expected = loop_chain_pose(model._chain, q)
            for f in dataclasses.fields(ChainPose):
                assert np.array_equal(getattr(pose, f.name), expected[f.name]), f.name


class TestCross3:
    @pytest.mark.parametrize("n", [1, 4, 36])
    def test_matches_np_cross_bitwise(self, n):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, n, 3))
        b = rng.standard_normal((n, 3))
        # zeros of both signs and repeated components exercise signed zeros
        a[0, 0] = (0.0, -0.0, 1.0)
        b[-1] = (-0.0, 0.0, 0.0)
        for x, y in ((a[0], b), (a[1], b[0]), (a, b), (b, a[1]), (b[0], a)):
            assert bitwise_equal(cross3(x, y), np.cross(x, y))


class TestReshapedDynamics:
    """The merged cross products, the stacked Newton-Euler pass and the
    masked symmetrisation reproduce their one-pass-per-term forms bit for
    bit, signed zeros included."""

    @pytest.mark.parametrize("name", MODELS)
    def test_matches_unmerged_passes(self, name):
        model = load_model(name)
        rng = np.random.default_rng(12)
        for scale in (0.0, 1e-3, 0.5, 1.0, 4.0):
            q = rng.uniform(-scale, scale, model.n)
            for dq in (np.zeros(model.n), rng.uniform(-3.0 * scale, 3.0 * scale, model.n)):
                terms = bias_terms(model, RobotState(q, dq))
                pose = chain_pose(model, q)
                motion = ten_cross_chain_motion(pose, dq)
                for f in dataclasses.fields(ChainMotion):
                    assert bitwise_equal(getattr(terms.motion, f.name), motion[f.name]), f.name
                motion = terms.motion
                expected = dict(
                    M=tril_mass_matrix(pose),
                    c_vec=two_pass_inverse_dynamics(pose, motion, with_gravity=False),
                    d_vec=model.D_s * dq,
                    k_vec=model.K_s * q,
                    g_vec=two_pass_inverse_dynamics(pose, None, with_gravity=True))
                for key, value in expected.items():
                    assert bitwise_equal(getattr(terms, key), value), (key, scale)


class TestBiasTerms:
    def test_gravity_zero_when_hanging(self):
        model = pendulum()
        terms = bias_terms(model, model.rest_state())
        assert np.allclose(terms.g_vec, [0.0], atol=1e-14)

    def test_gravity_horizontal_pendulum(self):
        model = pendulum(length=1.0, mass=1.0)
        state = RobotState(q=np.array([np.pi / 2]), dq=np.zeros(1))
        assert np.allclose(bias_terms(model, state).g_vec, [9.81], atol=1e-12)

    def test_no_velocity_no_coriolis_no_damping(self):
        model = two_link(d_s=(0.3, 0.3))
        state = RobotState(q=np.array([0.4, -0.7]), dq=np.zeros(2))
        terms = bias_terms(model, state)
        assert np.allclose(terms.c_vec, 0.0, atol=1e-14)
        assert np.allclose(terms.d_vec, 0.0, atol=1e-14)

    def test_coriolis_matches_christoffel_oracle(self):
        model = two_link()
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = rng.uniform(-1.5, 1.5, 2)
            dq = rng.uniform(-2.0, 2.0, 2)
            c_mat = christoffel_coriolis(lambda qq: mass_matrix(model, qq), q, dq)
            terms = bias_terms(model, RobotState(q, dq))
            assert np.allclose(terms.c_vec, c_mat @ dq, atol=1e-7)

    def test_gravity_is_potential_gradient(self):
        rng = np.random.default_rng(4)
        for model in (two_link(), ball_chain()):
            for _ in range(5):
                q = rng.uniform(-1.0, 1.0, model.n)
                g = bias_terms(model, RobotState(q, np.zeros(model.n))).g_vec
                g_fd = fd_gradient(lambda qq: gravitational_potential(model, qq), q)
                assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-8)

    def test_stiffness_and_damping_are_diagonal_restoring_forces(self):
        model = pendulum(k_s=2.0, d_s=0.5, gravity=(0.0, 0.0, 0.0))
        terms = bias_terms(model, RobotState(np.array([0.5]), np.array([1.2])))
        assert np.allclose(terms.k_vec, [1.0], atol=1e-14)
        assert np.allclose(terms.d_vec, [0.6], atol=1e-14)


class TestPassivity:
    def test_mdot_minus_2c_is_skew(self):
        model = two_link()
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, 2)
            dq = rng.uniform(-2.0, 2.0, 2)
            c_mat = christoffel_coriolis(lambda qq: mass_matrix(model, qq), q, dq)
            h = 1e-6
            m_dot = np.zeros((2, 2))
            for k in range(2):
                dqk = np.zeros(2)
                dqk[k] = h
                m_dot += (mass_matrix(model, q + dqk) - mass_matrix(model, q - dqk)) \
                    / (2.0 * h) * dq[k]
            assert abs(dq @ (m_dot - 2.0 * c_mat) @ dq) < 1e-8


class TestHVector:
    def test_zero_at_rest_without_potentials(self):
        model = two_link(gravity=(0.0, 0.0, 0.0))
        assert np.allclose(h_vector(model, model.rest_state()), 0.0, atol=1e-14)

    def test_pure_stiffness(self):
        model = pendulum(k_s=2.0, gravity=(0.0, 0.0, 0.0))
        state = RobotState(np.array([0.5]), np.zeros(1))
        assert np.allclose(h_vector(model, state), [1.0], atol=1e-14)

    def test_sums_components(self):
        model = two_link(k_s=(0.5, 0.2), d_s=(0.1, 0.3))
        rng = np.random.default_rng(6)
        for _ in range(50):
            state = RobotState(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
            terms = bias_terms(model, state)
            expected = terms.c_vec + terms.d_vec + terms.k_vec + terms.g_vec
            assert np.array_equal(h_vector(model, state), expected)

    def test_summed_once_per_terms(self):
        model = two_link(k_s=(0.5, 0.2), d_s=(0.1, 0.3))
        terms = bias_terms(model, RobotState(np.array([0.3, -0.2]), np.array([0.5, -0.1])))
        h = terms.h
        assert terms.h is h
        assert bitwise_equal(h, terms.c_vec + terms.d_vec + terms.k_vec + terms.g_vec)

    @pytest.mark.parametrize("name", MODELS)
    def test_dof_count_counted_once(self, name):
        model = load_model(name)
        assert model.n == sum(joint.dofs for joint in model.joints)
        assert vars(model)["n"] == model.n


class TestForwardDynamics:
    def test_zero_everything(self):
        model = two_link(gravity=(0.0, 0.0, 0.0))
        qdd = forward_dynamics(model, model.rest_state(), np.zeros(2))
        assert np.allclose(qdd, 0.0, atol=1e-14)

    def test_scalar_algebra_pendulum(self):
        model = pendulum(gravity=(0.0, 0.0, 0.0))
        qdd = forward_dynamics(model, model.rest_state(), np.array([2.0]))
        assert np.allclose(qdd, [2.0], atol=1e-12)

    def test_residual_random_states(self):
        rng = np.random.default_rng(7)
        for model in (two_link(k_s=(0.5, 0.5), d_s=(0.1, 0.1)), ball_chain()):
            for _ in range(10):
                state = RobotState(rng.uniform(-1, 1, model.n), rng.uniform(-1, 1, model.n))
                u = rng.uniform(-1, 1, model.m)
                terms = bias_terms(model, state)
                qdd = forward_dynamics(model, state, u, terms=terms)
                resid = terms.M @ qdd + terms.h - model.B @ u
                assert np.max(np.abs(resid)) < 1e-10

    def test_ill_conditioned_raises(self):
        with pytest.raises(IllConditioned):
            solve_inertia(np.diag([1.0, 1e-14]), np.ones(2))


class TestStageAccelerations:
    """multibody.accelerations, which an integrator stage calls, against the
    solve of a state evaluation (bias_terms' terms and their factor): the
    same bits, signed zeros included, for one row and for rows stacked,
    though the stage builds no terms and leaves the upper triangle of M
    unmirrored."""

    MODELS = {"finger": None, "helix": None, "spirob": None, "ball_chain": ball_chain,
              "two_link": lambda: two_link(k_s=(0.4, 0.2), d_s=(0.1, 0.05)),
              "pendulum": lambda: pendulum(k_s=0.3, d_s=0.1), "straight_chain": straight_chain}

    def states(self, model, rows):
        """(q, dq, force): at rest with zeros of both signs and no force, then
        at a random state with -0.0 entries under a random input."""
        rng = np.random.default_rng(21)
        shape = (rows, model.n) if rows > 1 else (model.n,)
        rest = np.zeros(shape)
        rest[..., ::2] = -0.0
        yield rest, -rest, multibody.matvec(model.B, np.zeros(shape[:-1] + (model.m,)))
        q = 0.6 * rng.standard_normal(shape)
        dq = 1.5 * rng.standard_normal(shape)
        q[..., ::3] = -0.0
        dq[..., 1::3] = -0.0
        u = np.clip(rng.standard_normal(shape[:-1] + (model.m,)), model.u_min, model.u_max)
        yield q, dq, multibody.matvec(model.B, u)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_bitwise_the_evaluation(self, name, rows):
        toy = self.MODELS[name]
        model = toy() if toy is not None else builtin_registry()[name].load()[0]
        for q, dq, force in self.states(model, rows):
            assert bitwise_equal(multibody.accelerations(model, q, dq, force),
                                 evaluated_accelerations(model, q, dq, force))

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_guarded_triangle_is_the_evaluations(self, monkeypatch, name, rows):
        # the guard reads only M's lower triangle, with the diagonal: the
        # stage's has the evaluation's bits
        toy = self.MODELS[name]
        model = toy() if toy is not None else builtin_registry()[name].load()[0]
        seen = []
        original = multibody.factor_inertia
        monkeypatch.setattr(multibody, "factor_inertia",
                            lambda mass: seen.append(mass) or original(mass))
        for q, dq, force in self.states(model, rows):
            multibody.accelerations(model, q, dq, force)
            stage = np.array(seen[-rows:]).reshape(q.shape + (model.n,))
            want = bias_terms(model, RobotState(q, dq)).M
            assert bitwise_equal(np.tril(stage), np.tril(want))

    def test_evaluation_keeps_its_own_frames(self):
        # the stage's frame buffer is the chain's; a pose kept on terms never
        # shares it, so a later stage changes no bit of it
        model = builtin_registry()["spirob"].load()[0]
        rng = np.random.default_rng(22)
        q, dq = rng.standard_normal((2, model.n))
        terms = bias_terms(model, RobotState(q, dq))
        kept = {f.name: getattr(terms.pose, f.name).copy() for f in dataclasses.fields(ChainPose)}
        multibody.accelerations(model, -q, dq, np.zeros(model.n))
        assert not np.shares_memory(terms.pose.rot, model._chain.frames)
        for name, value in kept.items():
            assert bitwise_equal(getattr(terms.pose, name), value), name


class TestInertiaGuard:
    """The condition guard runs once per evaluated M and still fires on every
    path that solves with M."""

    model = two_link()
    state = RobotState(np.array([0.3, -0.2]), np.array([0.5, -0.1]))

    @pytest.fixture
    def strict(self, monkeypatch):
        # any M that is not a multiple of the identity now fails the guard
        monkeypatch.setattr(multibody, "COND_LIMIT", 1.0)

    def test_guard_runs_once_per_evaluation(self, monkeypatch):
        factor_calls, eig_calls = [], []
        factor = multibody.factor_inertia
        eigvalsh = multibody.eigvalsh
        monkeypatch.setattr(multibody, "factor_inertia",
                            lambda m: factor_calls.append(1) or factor(m))
        monkeypatch.setattr(multibody, "eigvalsh", lambda a: eig_calls.append(1) or eigvalsh(a))
        terms = bias_terms(self.model, self.state)
        first = solve_inertia(terms, np.ones(2))
        second = solve_inertia(terms, np.eye(2))
        assert len(factor_calls) == 1
        # the trace bound settles a well-conditioned M without eigenvalues
        assert eig_calls == []
        assert np.array_equal(first, solve_inertia(terms.M, np.ones(2)))
        assert np.array_equal(second, solve_inertia(terms.M, np.eye(2)))

    @pytest.mark.parametrize("n", [2, 6, 27])
    def test_raises_exactly_when_eigenvalue_rule_does(self, n):
        rng = np.random.default_rng(n)
        conds = list(np.logspace(0.0, 16.0, 33))
        conds += [COND_LIMIT * (1.0 + r) for r in (-0.1, -1e-3, -1e-6, -1e-9, 0.0,
                                                   1e-9, 1e-6, 1e-3, 0.1)]
        conds += [multibody._BOUND_MARGIN * COND_LIMIT * (1.0 + r) for r in (-1e-3, 0.0, 1e-3)]
        for cond in conds:
            basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
            spectrum = np.exp(rng.uniform(0.0, np.log(cond), n))
            spectrum[:2] = (1.0, cond)
            m = (basis * spectrum) @ basis.T
            m = 0.5 * (m + m.T)
            w = np.linalg.eigvalsh(m)
            if w[0] <= 0.0 or w[-1] / w[0] > COND_LIMIT:
                with pytest.raises(IllConditioned):
                    factor_inertia(m)
            else:
                low = factor_inertia(m)
                assert np.array_equal(low, np.tril(low))
                assert np.allclose(low @ low.T, m, rtol=1e-12, atol=1e-12 * w[-1])

    def test_indefinite_and_singular_raise(self):
        basis, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((4, 4)))
        for spectrum in ([2.0, 1.0, 0.5, -0.5], [1.0, 1.0, 1.0, 0.0], [-1.0, -2.0, -3.0, -4.0]):
            with pytest.raises(IllConditioned):
                factor_inertia((basis * spectrum) @ basis.T)

    def test_failed_factorisation_never_returns_a_factor(self, monkeypatch):
        m = bias_terms(self.model, self.state).M
        monkeypatch.setattr(multibody, "dpotrf", lambda a, lower: (np.zeros_like(a), 1))
        # M itself is well conditioned, so the eigenvalue check passes it
        with pytest.raises(np.linalg.LinAlgError):
            factor_inertia(m)
        with pytest.raises(IllConditioned):
            factor_inertia(np.diag([1.0, 1e-14]))

    def test_failed_inverse_falls_back_to_eigenvalues(self, monkeypatch):
        m = bias_terms(self.model, self.state).M
        expected = factor_inertia(m)
        calls = []
        eigvalsh = multibody.eigvalsh
        monkeypatch.setattr(multibody, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        monkeypatch.setattr(multibody, "dtrtri", lambda c, lower: (c, 1))
        assert np.array_equal(factor_inertia(m), expected)
        assert len(calls) == 1

    def test_forward_dynamics(self, strict):
        model, state = self.model, self.state
        with pytest.raises(IllConditioned):
            forward_dynamics(model, state, np.zeros(2))
        with pytest.raises(IllConditioned):
            forward_dynamics(model, state, np.zeros(2), terms=bias_terms(model, state))

    @pytest.mark.parametrize("integrator", sim.INTEGRATORS)
    def test_sim_step(self, strict, integrator):
        # the step names the row it ends rather than raising
        model, state = self.model, self.state
        cfg = sim.SimConfig(integrator=integrator)
        for terms in (None, bias_terms(model, state)):
            _, _, reasons = sim.step(model, state.q[None], state.dq[None], state.t,
                                     np.zeros((1, 2)), cfg, terms=terms)
            assert len(reasons) == 1
            assert reasons[0].startswith(f"IllConditioned at t={state.t:.6f}: inertia matrix")

    @pytest.mark.parametrize("controller", ["clf-qp", "ic"])
    def test_controller_step(self, strict, controller):
        gains = GainSet(kp=100.0, eps=0.1, w1=1.0, w2=0.1, w3=0.05, w4=0.05,
                        rho=1000.0, d_null=1.0)
        ctrl = make_controller(controller, self.model, gains)
        with pytest.raises(IllConditioned):
            ctrl.step(self.state, Reference.setpoint(np.array([0.2, -0.1])))


class TestEnergy:
    def test_conservation_undamped_two_link(self):
        model = two_link(k_s=(0.8, 0.5))
        q0 = np.array([0.6, -0.4])
        e0 = total_energy(model, RobotState(q0, np.zeros(2)))
        qs, dqs = rk4_rollout(model, q0, np.zeros(2),
                              lambda t, q, dq: np.zeros(2), dt=1e-4, steps=5000)
        e1 = total_energy(model, RobotState(qs[-1], dqs[-1]))
        assert abs(e1 - e0) < 1e-3 * abs(e0)

    def test_conservation_ball_chain(self):
        model = ball_chain(d_s=0.0)
        q0 = 0.3 * np.ones(model.n)
        e0 = total_energy(model, RobotState(q0, np.zeros(model.n)))
        qs, dqs = rk4_rollout(model, q0, np.zeros(model.n),
                              lambda t, q, dq: np.zeros(3), dt=1e-4, steps=2000)
        e1 = total_energy(model, RobotState(qs[-1], dqs[-1]))
        assert abs(e1 - e0) < 1e-3 * max(abs(e0), 1e-9)


class TestTypes:
    def test_state_rejects_nan(self):
        with pytest.raises(ValueError):
            RobotState(q=np.array([np.nan]), dq=np.zeros(1))

    def test_dynamics_terms_h_property(self):
        terms = DynamicsTerms(M=np.eye(1), c_vec=np.array([1.0]), d_vec=np.array([2.0]),
                              k_vec=np.array([3.0]), g_vec=np.array([4.0]))
        assert terms.h == pytest.approx(10.0)

    def test_model_validation_catches_bad_bounds(self):
        with pytest.raises(ValueError):
            two_link(u_lim=-1.0)
