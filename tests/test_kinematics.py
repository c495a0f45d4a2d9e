import numpy as np

from clfqp.kinematics import (
    forward_kinematics,
    null_projector,
    task_rows,
    task_state,
)
from clfqp.multibody import RobotState

from oracles import fd_jacobian
from toys import (ball_chain, jacobian, jacobian_dot, pendulum, rk4_rollout, straight_chain,
                  two_link)


class TestForwardKinematics:
    def test_straight_chain_hangs_down(self):
        model = straight_chain(n_links=4, length=0.06)
        assert np.allclose(forward_kinematics(model, np.zeros(4)),
                           [0.0, 0.0, -0.24], atol=1e-14)

    def test_pendulum_quarter_turn(self):
        model = pendulum(length=1.0)
        assert np.allclose(forward_kinematics(model, np.array([np.pi / 2])),
                           [1.0, 0.0, 0.0], atol=1e-14)

    def test_ball_chain_reach_preserved(self):
        model = ball_chain(n_links=3, length=0.2)
        y = forward_kinematics(model, np.zeros(model.n))
        assert np.isclose(np.linalg.norm(y), 0.6, atol=1e-12)


class TestJacobian:
    def test_pendulum_analytic(self):
        model = pendulum(length=1.0)
        j = jacobian(model, np.zeros(1))
        assert np.allclose(j, [[1.0], [0.0]], atol=1e-14)
        q = np.array([0.3])
        assert np.allclose(jacobian(model, q),
                           [[np.cos(0.3)], [np.sin(0.3)]], atol=1e-12)

    def test_matches_fd_oracle(self):
        rng = np.random.default_rng(0)
        for model in (two_link(), ball_chain(), straight_chain()):
            rows = task_rows(model)
            for _ in range(50):
                q = rng.uniform(-1.2, 1.2, model.n)
                j = jacobian(model, q)
                j_fd = fd_jacobian(lambda qq: forward_kinematics(model, qq)[rows], q)
                denom = max(np.max(np.abs(j_fd)), 1e-9)
                assert np.max(np.abs(j - j_fd)) / denom < 1e-5

    def test_straight_chain_lever_arms(self):
        # At q = 0 the x-row columns equal the distances to the tip.
        model = straight_chain(n_links=4, length=0.06)
        j = jacobian(model, np.zeros(4))
        assert np.allclose(j[0], [0.24, 0.18, 0.12, 0.06], atol=1e-12)
        assert np.allclose(j[1], 0.0, atol=1e-12)

    def test_rank_bounded(self):
        model = ball_chain()
        rng = np.random.default_rng(1)
        for _ in range(10):
            j = jacobian(model, rng.uniform(-1, 1, model.n))
            assert np.linalg.matrix_rank(j) <= min(model.task_dim, model.n)


class TestJacobianDot:
    def test_zero_velocity(self):
        model = two_link()
        dj = jacobian_dot(model, np.array([0.4, -0.2]), np.zeros(2))
        assert np.allclose(dj, 0.0, atol=1e-14)

    def test_pendulum_analytic(self):
        model = pendulum(length=1.0)
        q, dq = np.array([0.7]), np.array([1.3])
        expected = np.array([[-np.sin(0.7) * 1.3], [np.cos(0.7) * 1.3]])
        assert np.allclose(jacobian_dot(model, q, dq), expected, atol=1e-12)

    def test_matches_directional_fd(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for model in (two_link(), ball_chain(), straight_chain()):
            for _ in range(50):
                q = rng.uniform(-1.2, 1.2, model.n)
                dq = rng.uniform(-1.5, 1.5, model.n)
                dj = jacobian_dot(model, q, dq)
                dj_fd = (jacobian(model, q + h * dq) - jacobian(model, q - h * dq)) / (2 * h)
                denom = max(np.max(np.abs(dj_fd)), 1e-9)
                assert np.max(np.abs(dj - dj_fd)) / denom < 1e-4


class TestNullProjector:
    def test_square_full_rank_gives_zero(self):
        assert np.allclose(null_projector(np.eye(3)), 0.0, atol=1e-12)

    def test_single_row(self):
        n = null_projector(np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(n, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_random_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            j = rng.standard_normal((3, 10))
            n = null_projector(j)
            assert np.max(np.abs(n @ n - n)) < 1e-8
            assert np.max(np.abs(j @ n)) < 1e-8
            assert np.max(np.abs(n - n.T)) < 1e-10

    def test_bounded_at_straight_singularity(self):
        # A straight planar chain has rank-1 J; the cutoff keeps N finite.
        model = straight_chain(n_links=4)
        j = jacobian(model, np.zeros(4))
        n = null_projector(j)
        assert np.all(np.isfinite(n))
        assert np.max(np.abs(n @ n - n)) < 1e-8
        assert np.max(np.abs(j @ n)) < 1e-6


class TestTaskState:
    def test_velocity_constructed_from_jacobian(self):
        model = two_link()
        state = RobotState(np.array([0.3, 0.5]), np.array([-0.2, 0.8]))
        ts = task_state(model, state)
        assert np.array_equal(ts.dy, ts.J @ state.dq)

    def test_projector_invariants(self):
        model = ball_chain()
        rng = np.random.default_rng(4)
        for _ in range(10):
            state = RobotState(rng.uniform(-1, 1, model.n), rng.uniform(-1, 1, model.n))
            ts = task_state(model, state)
            assert np.max(np.abs(ts.N @ ts.N - ts.N)) < 1e-8
            assert np.max(np.abs(ts.J @ ts.N)) < 1e-8

    def test_chain_rule_along_trajectory(self):
        # Second FD of y(t) along a rollout matches J qdd + dJ qd.
        from clfqp.multibody import forward_dynamics

        model = two_link(k_s=(0.6, 0.4), d_s=(0.05, 0.05))
        dt = 1e-4
        u_fn = lambda t, q, dq: np.array([0.3, -0.2])
        qs, dqs = rk4_rollout(model, np.array([0.4, -0.3]), np.array([0.5, 0.2]),
                              u_fn, dt=dt, steps=200)
        rows = task_rows(model)
        ys = np.array([forward_kinematics(model, q)[rows] for q in qs])
        for i in range(60, 140, 17):
            ydd_fd = (ys[i + 1] - 2 * ys[i] + ys[i - 1]) / dt ** 2
            state = RobotState(qs[i], dqs[i])
            ts = task_state(model, state)
            qdd = forward_dynamics(model, state, np.array([0.3, -0.2]))
            ydd = ts.J @ qdd + ts.dJ @ state.dq
            assert np.max(np.abs(ydd - ydd_fd)) / max(np.max(np.abs(ydd)), 1e-9) < 1e-3
