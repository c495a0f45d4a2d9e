import dataclasses
import warnings

import numpy as np
import pytest

from clfqp.clf import TaskError, default_clf
from clfqp.controllers import (
    CONTROLLER_NAMES,
    RankDeficientB,
    Reference,
    clf_qp_step,
    collocated_split,
    evaluate,
    full_body_qp_step,
    impedance_step,
    lie_terms,
    make_controller,
    mu_ref,
)
from clfqp.kinematics import forward_kinematics, task_rows, task_state
from clfqp.linalg import pinv
from clfqp.multibody import RobotModel, RobotState, bias_terms, forward_dynamics
from clfqp.qp import QpStatus
from clfqp.robots import GainSet

from oracles import pinv_each_step_impedance_torque
from toys import ball_chain, pendulum, rk4_rollout, straight_chain, two_link


def gset(**kw):
    base = dict(kp=100.0, eps=0.1, w1=1.0, w2=0.1, w3=0.05, w4=0.05,
                rho=1000.0, d_null=1.0)
    base.update(kw)
    return GainSet(**base)


def setpoint_at_fk(model, q):
    return Reference.setpoint(forward_kinematics(model, q)[task_rows(model)])


RANK_DEFICIENT_TOL = 1e-8


class RankDeficientWarning(UserWarning):
    """The decoupling matrix lost rank; the pseudoinverse branch is live."""


def io_linearizing_u(model: RobotModel, state: RobotState, ref: Reference,
                     mu: np.ndarray) -> np.ndarray:
    """Input that renders the task error dynamics edd = mu (exactly when the
    decoupling matrix is square and invertible, least-squares otherwise)."""
    _, _, ddy_ref = ref.at(state.t)
    lf2y, lglfy = lie_terms(evaluate(model, state))
    sv = np.linalg.svd(lglfy, compute_uv=False)
    if sv.size and sv[-1] < RANK_DEFICIENT_TOL * sv[0]:
        warnings.warn("decoupling matrix is rank deficient at this state",
                      RankDeficientWarning, stacklevel=2)
    return pinv(lglfy) @ (-lf2y + mu + ddy_ref)


def same_bits(a, b) -> bool:
    """Equal values, NaN included, and equal sign bits (so -0.0 != 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestCollocatedSplit:
    def test_identity_stack(self):
        b = np.vstack([np.eye(2), np.zeros((2, 2))])
        split = collocated_split(b)
        assert np.allclose(split.S @ b, np.eye(2), atol=1e-12)
        assert np.allclose(split.W @ b, 0.0, atol=1e-12)

    def test_finger_like_pairs(self):
        b = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, 0.5]])
        split = collocated_split(b)
        assert np.allclose(split.S @ b, np.eye(2), atol=1e-12)

    def test_random_tall(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((10, 3))
        split = collocated_split(b)
        assert np.allclose(split.W @ b, 0.0, atol=1e-10)
        assert np.linalg.cond(split.T) < 1e8
        assert np.allclose(split.S @ b, np.eye(3), atol=1e-10)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientB):
            collocated_split(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))


class TestLieTerms:
    def test_rest_zero_potential(self):
        model = pendulum(gravity=(0.0, 0.0, 0.0))
        lf2y, lglfy = lie_terms(evaluate(model, model.rest_state()))
        assert np.allclose(lf2y, 0.0, atol=1e-14)
        assert np.allclose(lglfy, [[1.0], [0.0]], atol=1e-12)

    def test_velocity_term_vanishes_at_rest(self):
        model = two_link(k_s=(0.4, 0.2))
        state = RobotState(np.array([0.3, -0.2]), np.zeros(2))
        ts = task_state(model, state)
        lf2y, _ = lie_terms(evaluate(model, state))
        # with qd = 0 the dJ qd term is absent: Lf2y = -J M^-1 h exactly
        terms = bias_terms(model, state)
        expected = -ts.J @ np.linalg.solve(terms.M, terms.h)
        assert np.allclose(lf2y, expected, atol=1e-12)

    def test_matches_simulation_oracle(self):
        model = two_link(k_s=(0.5, 0.3), d_s=(0.02, 0.02))
        rng = np.random.default_rng(1)
        rows = task_rows(model)
        dt = 1e-6
        for _ in range(10):
            q = rng.uniform(-1.0, 1.0, 2)
            dq = rng.uniform(-1.0, 1.0, 2)
            u = rng.uniform(-0.5, 0.5, 2)
            lf2y, lglfy = lie_terms(evaluate(model, RobotState(q, dq)))
            qs, dqs = rk4_rollout(model, q, dq, lambda *a: u, dt, 2)
            ys = [forward_kinematics(model, qq)[rows] for qq in qs]
            ydd_fd = (ys[2] - 2 * ys[1] + ys[0]) / dt ** 2
            ydd = lf2y + lglfy @ u
            assert np.max(np.abs(ydd - ydd_fd)) / max(np.max(np.abs(ydd)), 1e-9) < 1e-3


class TestIoLinearizingU:
    def test_exact_on_square_system(self):
        model = two_link(k_s=(0.5, 0.3))
        rng = np.random.default_rng(2)
        for _ in range(10):
            state = RobotState(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
            mu = rng.uniform(-2, 2, 2)
            ref = Reference.setpoint(np.zeros(2))
            u = io_linearizing_u(model, state, ref, mu)
            ts = task_state(model, state)
            qdd = forward_dynamics(model, state, u)
            edd = ts.J @ qdd + ts.dJ @ state.dq
            assert np.allclose(edd, mu, atol=1e-9)

    def test_tracks_constant_mu_in_simulation(self):
        model = two_link(k_s=(0.5, 0.3), d_s=(0.01, 0.01))
        ref = Reference.setpoint(np.zeros(2))
        mu = np.array([0.4, -0.3])
        rows = task_rows(model)
        dt = 1e-5
        q, dq = np.array([0.5, -0.4]), np.array([0.1, 0.2])

        def u_fn(t, qq, dd):
            return io_linearizing_u(model, RobotState(qq, dd, t), ref, mu)

        qs, dqs = rk4_rollout(model, q, dq, u_fn, dt, 200)
        ys = np.array([forward_kinematics(model, qq)[rows] for qq in qs])
        ydd_fd = (ys[2:] - 2 * ys[1:-1] + ys[:-2]) / dt ** 2
        rms = np.sqrt(np.mean((ydd_fd - mu) ** 2))
        assert rms / np.linalg.norm(mu) < 0.02

    def test_rank_deficiency_warns(self):
        model = straight_chain(n_links=3)
        state = model.rest_state()  # straight chain: positional J is rank 1
        with pytest.warns(RankDeficientWarning):
            io_linearizing_u(model, state, Reference.setpoint(np.zeros(2)), np.zeros(2))


class TestMuRef:
    def test_zero_error(self):
        err = TaskError(np.zeros(2), np.zeros(2))
        assert np.array_equal(mu_ref(gset(), err), np.zeros(2))

    def test_position_term(self):
        err = TaskError(np.array([0.01, 0.0]), np.zeros(2))
        out = mu_ref(gset(kp=500.0), err)
        assert np.allclose(out, [-5.0, 0.0], atol=1e-12)

    def test_velocity_term_critically_damped(self):
        err = TaskError(np.zeros(2), np.array([0.1, 0.0]))
        out = mu_ref(gset(kp=500.0), err)
        assert out[0] == pytest.approx(-2.0 * np.sqrt(500.0) * 0.1)
        assert out[1] == 0.0


class TestClfQpStep:
    def test_converged_equilibrium_gives_zero(self):
        model = two_link(gravity=(0.0, 0.0, 0.0))
        state = model.rest_state()
        ref = setpoint_at_fk(model, np.zeros(2))
        u, log, sol = clf_qp_step(make_controller("clf-qp", model, gset()), state, ref)
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(u, 0.0, atol=1e-9)
        assert log.delta == pytest.approx(0.0, abs=1e-9)

    def test_mu_equals_reference_when_row_inactive(self):
        # when the PD reference already satisfies the decrease condition the
        # quadratic cost alone fixes mu = mu_ref
        model = two_link(gravity=(0.0, 0.0, 0.0))
        clf = default_clf(0.5, 2)
        rng = np.random.default_rng(3)
        g = gset(kp=100.0, eps=0.5)
        ctrl = make_controller("clf-qp", model, g)
        tested = 0
        while tested < 5:
            q = rng.uniform(-0.3, 0.3, 2)
            state = RobotState(q, np.zeros(2))
            ref = setpoint_at_fk(model, q + rng.uniform(-0.02, 0.02, 2))
            ts = task_state(model, state)
            err = TaskError(ts.y - ref.y_ref(0.0), ts.dy)
            from clfqp.clf import clf_row

            row, rhs = clf_row(clf, err)
            mu_des = mu_ref(g, err)
            if row[:-1] @ mu_des > rhs - 1e-6:
                continue  # row would be active; skip this sample
            tested += 1
            u, log, sol = clf_qp_step(ctrl, state, ref)
            assert sol.status is QpStatus.OPTIMAL
            assert np.allclose(log.mu, mu_des, atol=1e-7)
            assert log.delta == pytest.approx(0.0, abs=1e-9)

    def test_saturation_far_from_target(self):
        model = two_link(u_lim=1e-3, k_s=(0.2, 0.2))
        state = model.rest_state()
        ref = Reference.setpoint(np.array([0.6, 0.2]))
        u, log, sol = clf_qp_step(make_controller("clf-qp", model, gset(kp=500.0)), state, ref)
        assert np.any(log.saturated)
        assert np.all(u >= model.u_min) and np.all(u <= model.u_max)
        assert log.delta >= 0.0 or np.isnan(log.delta)

    def test_infeasible_holds_previous_input(self):
        # the linearizing equality confines u to a subspace through the
        # origin; a pull-only input box away from the origin misses it
        model = straight_chain(n_links=4, k_s=2.0)
        object.__setattr__(model, "u_min", np.full(4, 0.1))
        object.__setattr__(model, "u_max", np.full(4, 0.2))
        state = RobotState(np.array([0.8, -0.5, 0.6, -0.3]),
                           np.array([2.0, -1.0, 1.5, -0.5]))
        ref = Reference.setpoint(np.array([0.1, -0.1]))
        ctrl = make_controller("clf-qp", model, gset(kp=500.0))
        u_prev = np.full(4, 0.15)
        ctrl._u_hold = u_prev
        u, log, sol = clf_qp_step(ctrl, state, ref)
        assert sol.status is QpStatus.INFEASIBLE
        assert np.array_equal(u, u_prev)
        assert log.qp_status == "Infeasible"


class TestSoftIdClfQpStep:
    def test_balanced_equilibrium_certificate(self):
        model = two_link(gravity=(0.0, 0.0, 0.0))
        state = model.rest_state()
        ref = setpoint_at_fk(model, np.zeros(2))
        ctrl = make_controller("soft-id-clf-qp", model, gset())
        u, log, sol = full_body_qp_step(ctrl, state, ref)
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(u, 0.0, atol=1e-8)
        assert log.delta == pytest.approx(0.0, abs=1e-8)

    def test_decrease_condition_holds_at_optimum(self):
        model = two_link(k_s=(0.4, 0.2), d_s=(0.05, 0.05))
        ctrl = make_controller("soft-id-clf-qp", model, gset())
        rng = np.random.default_rng(4)
        for _ in range(20):
            state = RobotState(rng.uniform(-0.8, 0.8, 2), rng.uniform(-1, 1, 2))
            ref = Reference.setpoint(rng.uniform(-0.3, 0.3, 2))
            u, log, sol = full_body_qp_step(ctrl, state, ref)
            assert sol.status is QpStatus.OPTIMAL
            assert log.Vdot <= -log.V / ctrl.clf.eps + log.delta + 1e-6

    def test_actuated_rows_consistent_with_physics(self):
        # S(M qdd_physical + h) = u for the applied input, always
        model = straight_chain(n_links=4)
        b = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, 0.5]])
        model = straight_chain(n_links=4)
        object.__setattr__(model, "B", b)
        object.__setattr__(model, "u_min", np.array([-5.0, -5.0]))
        object.__setattr__(model, "u_max", np.array([5.0, 5.0]))
        ctrl = make_controller("soft-id-clf-qp", model, gset())
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = RobotState(rng.uniform(-0.5, 0.5, 4), rng.uniform(-0.5, 0.5, 4))
            ref = Reference.setpoint(rng.uniform(-0.1, 0.1, 2))
            u, log, sol = full_body_qp_step(ctrl, state, ref)
            terms = bias_terms(model, state)
            qdd = forward_dynamics(model, state, u, terms=terms)
            assert np.allclose(ctrl.split.S @ (terms.M @ qdd + terms.h), u, atol=1e-8)


class TestIcQpStep:
    def test_same_equilibrium_zero(self):
        model = two_link(gravity=(0.0, 0.0, 0.0))
        state = model.rest_state()
        ref = setpoint_at_fk(model, np.zeros(2))
        u, log, sol = full_body_qp_step(make_controller("ic-qp", model, gset()), state, ref)
        assert np.allclose(u, 0.0, atol=1e-8)

    def test_cost_never_above_soft_id(self):
        # removing the Lyapunov row can only reduce the optimal cost when
        # both programs share weights
        model = two_link(k_s=(0.4, 0.2))
        g = gset(eps=0.05)
        soft, ic = (make_controller(name, model, g) for name in ("soft-id-clf-qp", "ic-qp"))
        rng = np.random.default_rng(6)
        for _ in range(15):
            state = RobotState(rng.uniform(-0.8, 0.8, 2), rng.uniform(-1, 1, 2))
            ref = Reference.setpoint(rng.uniform(-0.3, 0.3, 2))
            _, _, sol_soft = full_body_qp_step(soft, state, ref)
            _, _, sol_ic = full_body_qp_step(ic, state, ref)
            assert sol_ic.objective <= sol_soft.objective + 1e-9


class TestImpedance:
    def test_zero_at_converged_rest(self):
        model = two_link(gravity=(0.0, 0.0, 0.0))
        state = model.rest_state()
        ref = setpoint_at_fk(model, np.zeros(2))
        u, log, sol = impedance_step(make_controller("ic", model, gset()), state, ref)
        assert np.allclose(u, 0.0, atol=1e-9) and sol is None

    def test_clamping_is_exact(self):
        model = two_link(u_lim=1e-3, k_s=(0.2, 0.2))
        state = model.rest_state()
        ref = Reference.setpoint(np.array([0.5, 0.3]))
        u, log, _ = impedance_step(make_controller("ic", model, gset(kp=500.0)), state, ref)
        assert np.all(np.abs(u) <= 1e-3)
        assert np.any(np.abs(u) == 1e-3)

    def test_critically_damped_convergence(self):
        # on the fully actuated arm, started away from the straight-chain
        # singularity, the closed loop converges without overshoot
        from clfqp.sim import SimConfig, run

        model = two_link(k_s=(0.0, 0.0), gravity=(0.0, 0.0, 0.0))
        ref = setpoint_at_fk(model, np.array([0.55, -0.5]))
        ctrl = make_controller("ic", model, gset(kp=100.0))
        cfg = SimConfig(t_end=2.0,
                        initial_state=RobotState(np.array([0.3, -0.2]), np.zeros(2)))
        (traj,) = run(model, [ctrl], [ref], [cfg])
        err = np.linalg.norm(traj.y - traj.y_ref, axis=1)
        e0 = err[0]
        assert err[-1] < 1e-4
        # no overshoot beyond 1% of the initial error after first crossing
        crossed = np.argmax(err < 0.01 * e0)
        if crossed > 0:
            assert np.all(err[crossed:] <= 0.011 * e0)


class TestUic:
    def test_equals_ic_when_fully_actuated(self):
        model = two_link(k_s=(0.3, 0.1))
        ic, uic = (make_controller(name, model, gset()) for name in ("ic", "uic"))
        rng = np.random.default_rng(7)
        for _ in range(10):
            state = RobotState(rng.uniform(-0.8, 0.8, 2), rng.uniform(-0.5, 0.5, 2))
            ref = Reference.setpoint(rng.uniform(-0.2, 0.2, 2))
            u_ic, _, _ = impedance_step(ic, state, ref)
            u_uic, _, _ = impedance_step(uic, state, ref)
            assert np.allclose(u_ic, u_uic, atol=1e-8)

    def test_unactuated_residual_least_squares(self):
        # (I - Ip)(J'f + N tau_null) should be the least-squares residual of
        # removing unactuated torque, never larger than without correction.
        # With maps (I, I - Ip) the library returns the joint torque itself;
        # uic minus ic is its correction N tau_null.
        from clfqp import controllers

        model = straight_chain(n_links=4)
        b = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, 0.5]])
        object.__setattr__(model, "B", b)
        object.__setattr__(model, "u_min", np.array([-5.0, -5.0]))
        object.__setattr__(model, "u_max", np.array([5.0, 5.0]))

        blocked = np.eye(4) - b @ pinv(b)
        ic, uic = (make_controller(name, model, gset()) for name in ("ic", "uic"))
        ic.maps = uic.maps = (np.eye(4), blocked)
        rng = np.random.default_rng(8)
        for _ in range(50):
            state = RobotState(rng.uniform(-0.6, 0.6, 4), rng.uniform(-0.5, 0.5, 4))
            ref = Reference.setpoint(rng.uniform(-0.1, 0.1, 2) + np.array([0.0, -0.2]))
            data = controllers._evaluate_step(ic, state, ref)
            tau_ic = controllers._impedance_torque(ic, data)
            tau_uic = controllers._impedance_torque(uic, data)
            terms = data.evaluation.terms
            tau_task = tau_ic - terms.d_vec - terms.k_vec - terms.g_vec
            n_tau_null = tau_uic - tau_ic
            resid = blocked @ (tau_task + n_tau_null)
            # least-squares optimality: residual orthogonal to achievable span
            gram = (blocked @ data.evaluation.ts.N).T @ resid
            assert np.max(np.abs(gram)) < 1e-8
            assert np.linalg.norm(resid) <= np.linalg.norm(blocked @ tau_task) + 1e-12

    def test_zero_at_rest_toy(self):
        model = two_link(gravity=(0.0, 0.0, 0.0))
        ref = setpoint_at_fk(model, np.zeros(2))
        u, _, _ = impedance_step(make_controller("uic", model, gset()), model.rest_state(), ref)
        assert np.allclose(u, 0.0, atol=1e-9)


class TestSharedPseudoinverses:
    """ic and uic take J^+ from the task state and make B^+ and I - B B^+
    once per controller, with the same bits as recomputing them per step."""

    @pytest.mark.parametrize("uic", [False, True])
    @pytest.mark.parametrize("robot", ["finger", "helix", "spirob"])
    def test_torque_matches_pinv_each_step(self, robot, uic):
        from clfqp import controllers
        from clfqp.experiments import EllipseParams, setpoint_reference
        from clfqp.robots import builtin_registry

        model, gains = builtin_registry()[robot].load()
        g = gains["uic" if uic else "ic"]
        ref = setpoint_reference(EllipseParams.for_robot(model), 0.5 * np.pi, model.task_dim)
        ctrl = make_controller("uic" if uic else "ic", model, g)
        rng = np.random.default_rng(12)
        for _ in range(5):
            state = RobotState(0.4 * rng.standard_normal(model.n),
                               rng.standard_normal(model.n))
            data = controllers._evaluate_step(ctrl, state, ref)
            got = controllers._impedance_torque(ctrl, data)
            ev = data.evaluation
            want = pinv_each_step_impedance_torque(model, ev.terms, ev.ts, data.err,
                                                   data.ddy_ref, state.dq, g.kp, g.kd, uic)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                np.signbit(want))

    @pytest.mark.parametrize("name,per_step", [("ic", 1), ("uic", 2)])
    def test_pinv_calls_per_step(self, monkeypatch, name, per_step):
        from clfqp import controllers, kinematics, linalg

        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return linalg.pinv(a, *args, **kwargs)

        monkeypatch.setattr(controllers, "pinv", counted)
        monkeypatch.setattr(kinematics, "pinv", counted)
        model = straight_chain(n_links=4)
        ctrl = make_controller(name, model, gset())
        assert calls == [model.B.shape]
        ref = Reference.setpoint(np.array([0.05, -0.2]))
        rng = np.random.default_rng(13)
        for _ in range(3):
            ctrl.step(RobotState(rng.uniform(-0.5, 0.5, 4), rng.uniform(-1, 1, 4)), ref)
        # J^+ in the task state, and for uic the pseudoinverse of (I - B B^+) N
        assert len(calls) == 1 + 3 * per_step


class TestControllerObjects:
    def test_one_name_list(self):
        from clfqp import controllers, robots

        assert robots.CONTROLLER_NAMES is controllers.CONTROLLER_NAMES


    def test_factory_names(self):
        model = two_link()
        for name in CONTROLLER_NAMES:
            ctrl = make_controller(name, model, gset())
            assert ctrl.name == name
        with pytest.raises(KeyError):
            make_controller("mpc", model, gset())

    def test_bounds_invariant_all_controllers(self):
        model = two_link(u_lim=0.05, k_s=(0.3, 0.3))
        rng = np.random.default_rng(9)
        ref = Reference.setpoint(np.array([0.4, 0.3]))
        for name in CONTROLLER_NAMES:
            ctrl = make_controller(name, model, gset(kp=500.0))
            for _ in range(10):
                state = RobotState(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
                u, log = ctrl.step(state, ref)
                assert np.all(u >= model.u_min) and np.all(u <= model.u_max)

    def test_determinism_bitwise(self):
        model = two_link(k_s=(0.4, 0.2))
        ref = Reference.setpoint(np.array([0.2, -0.1]))
        state = RobotState(np.array([0.3, -0.2]), np.array([0.5, -0.1]))
        for name in CONTROLLER_NAMES:
            u1, _ = make_controller(name, model, gset()).step(state, ref)
            u2, _ = make_controller(name, model, gset()).step(state, ref)
            assert np.array_equal(u1, u2)

    def test_qp_constants_made_once(self, monkeypatch):
        # a controller builds its constant QP blocks once, read-only, and
        # steps with the bits of a controller built after its steps
        from clfqp import controllers

        model = two_link(k_s=(0.4, 0.2), u_lim=2.0)
        ref = Reference.setpoint(np.array([0.2, -0.1]))
        states = [RobotState(np.array([0.3, -0.2]), np.array([0.5, -0.1])),
                  RobotState(np.array([0.1, 0.4]), np.array([-0.3, 0.2]))]
        for name in ("clf-qp", "soft-id-clf-qp", "ic-qp"):
            ctrl = make_controller(name, model, gset())
            assert not ctrl.consts.H.flags.writeable and not ctrl.consts.A_eq.flags.writeable
            with monkeypatch.context() as m:
                for builder in ("clf_qp_constants", "full_body_constants"):
                    m.setattr(controllers, builder, None)
                logs = [ctrl.step(s, ref)[1] for s in states]
            fresh = make_controller(name, model, gset())
            for state, log in zip(states, logs):
                assert np.array_equal(fresh.step(state, ref)[1].u, log.u)

    def test_certificate_made_once_per_step(self, monkeypatch):
        # a step works out V, a0 and a1 once for the decrease row and the
        # logged V and Vdot, with the bits of working them out for each
        from clfqp import clf as clf_module
        from clfqp import controllers

        model = two_link(k_s=(0.4, 0.2), u_lim=2.0)
        ref = Reference.setpoint(np.array([0.2, -0.1]))
        state = RobotState(np.array([0.3, -0.2]), np.array([0.5, -0.1]))
        for name in CONTROLLER_NAMES:
            calls = []
            ctrl = make_controller(name, model, gset())
            with monkeypatch.context() as m:
                vdot = clf_module.vdot_coeffs
                m.setattr(clf_module, "vdot_coeffs", lambda *a: calls.append(1) or vdot(*a))
                u, log = ctrl.step(state, ref)
            assert len(calls) == 1, name
            data = controllers._evaluate_step(ctrl, state, ref)
            a0, a1 = vdot(default_clf(gset().eps, 2), data.err)
            assert log.V == clf_module.clf_value(default_clf(gset().eps, 2), data.err)
            assert log.Vdot == a0 + float(a1 @ log.mu)

    def test_equivalence_full_actuation(self):
        # clf-qp and soft-id-clf-qp drive the same fully actuated toy to
        # final errors within 1e-4 m of each other
        from clfqp.sim import SimConfig, run

        # with the extra regularizers off, the two programs coincide on a
        # square fully actuated system
        model = two_link(k_s=(0.0, 0.0), d_s=(0.05, 0.05), gravity=(0.0, 0.0, 0.0))
        ref = setpoint_at_fk(model, np.array([0.55, -0.5]))
        start = RobotState(np.array([0.4, -0.3]), np.zeros(2))
        g = gset(kp=200.0, eps=0.1, w2=0.0, w3=0.0, w4=0.0)
        finals = {}
        for name in ("clf-qp", "soft-id-clf-qp"):
            ctrl = make_controller(name, model, g)
            (traj,) = run(model, [ctrl], [ref], [SimConfig(t_end=2.0, initial_state=start)])
            assert not traj.failed
            finals[name] = traj.final_task_position()
        assert np.linalg.norm(finals["clf-qp"] - finals["soft-id-clf-qp"]) < 1e-4


def finger_case():
    from clfqp.experiments import EllipseParams, setpoint_reference
    from clfqp.robots import builtin_registry

    model, gains = builtin_registry()["finger"].load()
    ref = setpoint_reference(EllipseParams.for_robot(model), 0.5 * np.pi, model.task_dim)
    return model, gains, ref


def two_link_case():
    model = two_link(k_s=(0.4, 0.2), u_lim=2.0)
    gains = {name: gset() for name in CONTROLLER_NAMES}
    return model, gains, Reference.setpoint(np.array([0.2, -0.1]))


def per_step_saturation_mask(u, model):
    """The saturation mask as each step worked it out before its edges were
    made once per controller."""
    tol = 1e-9 * (model.u_max - model.u_min)
    return (u <= model.u_min + tol) | (u >= model.u_max - tol)


def edge_inputs(model):
    """Inputs on the box, 1e-10 inside and outside it, on the saturation
    edges and one float inside them, and mixed rows."""
    lo, hi = model.u_min, model.u_max
    tol = 1e-9 * (hi - lo)
    lo_edge, hi_edge = lo + tol, hi - tol
    rows = [lo, hi, lo + 1e-10, hi - 1e-10, lo - 1e-10, hi + 1e-10, lo_edge, hi_edge,
            np.nextafter(lo_edge, np.inf), np.nextafter(hi_edge, -np.inf), 0.5 * (lo + hi)]
    mixed = np.where(np.arange(model.m) % 2 == 0, lo_edge, np.nextafter(hi_edge, -np.inf))
    return rows + [mixed, mixed[::-1].copy()]


class TestConstantsMadeOnce:
    """What a controller makes once gives the bits the per-step formulas
    gave, and no step changes it."""

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    @pytest.mark.parametrize("case", [finger_case, two_link_case], ids=["finger", "two-link"])
    def test_saturation_mask_is_the_per_step_formula(self, monkeypatch, case, name):
        from clfqp import controllers

        model, gains, ref = case()
        ctrl = make_controller(name, model, gains[name])
        state = RobotState(np.full(model.n, 0.05), np.full(model.n, 0.1))
        inputs = edge_inputs(model)
        for u in inputs:
            with monkeypatch.context() as m:
                m.setattr(controllers, "_clamp", lambda _, model, u=u: u.copy())
                _, log = ctrl.step(state, ref)
            want = per_step_saturation_mask(u, model)
            assert log.saturated.dtype == want.dtype and np.array_equal(log.saturated, want)
        masks = [per_step_saturation_mask(u, model) for u in inputs]
        assert all(m.all() for m in masks[:8]) and not any(m.any() for m in masks[8:11])

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    @pytest.mark.parametrize("case", [finger_case, two_link_case], ids=["finger", "two-link"])
    def test_steps_leave_the_constants_unchanged(self, case, name):
        model, gains, ref = case()
        ctrl = make_controller(name, model, gains[name])

        def constants():
            arrays = [ctrl.clf.P_eps, *ctrl.saturation_edges]
            if name in ("ic", "uic"):
                arrays += [*ctrl.maps, ctrl.task_ridge]
            else:
                c = ctrl.consts
                arrays += [c.H, c.A_eq, c.bounds.lb, c.bounds.ub, c.bounds.rows, c.bounds.rhs]
                if name != "clf-qp":
                    arrays += [c.w2_eye, c.minus_S, ctrl.split.T, ctrl.split.S, ctrl.split.W]
                    assert same_bits(c.minus_S, -ctrl.split.S) and not c.minus_S.flags.writeable
            return [a.copy() for a in arrays]

        before = constants()
        assert not any(edge.flags.writeable for edge in ctrl.saturation_edges)
        if name in ("ic", "uic"):
            assert not ctrl.task_ridge.flags.writeable
            assert same_bits(ctrl.task_ridge, 1e-8 * np.eye(model.task_dim))
        rng = np.random.default_rng(15)
        for k in range(3):
            ctrl.step(RobotState(0.3 * rng.standard_normal(model.n),
                                 rng.standard_normal(model.n), 0.01 * k), ref)
        assert all(same_bits(a, b) for a, b in zip(constants(), before))


PIECES = ("clf", "saturation_edges", "consts", "split", "maps", "task_ridge")


class TestSharedConstants:
    """Controllers of one model, law and gain set share that law's
    constants, each keeping its own warm start and held input; a change to
    anything the constants are made from gets new ones."""

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_shared_constants_own_episode_state(self, name):
        model, gains, ref = finger_case()
        a = make_controller(name, model, gains[name])
        b = make_controller(name, model, gains[name])
        assert all(getattr(a, p) is getattr(b, p) for p in PIECES)
        assert a._u_hold is not b._u_hold
        rng = np.random.default_rng(21)
        a.step(RobotState(0.3 * rng.standard_normal(model.n), rng.standard_normal(model.n)),
               ref)
        assert b._warm is None and same_bits(b._u_hold, np.clip(0.0, model.u_min, model.u_max))
        assert not same_bits(a._u_hold, b._u_hold)
        # equal gains, made apart, share too; other gains or another law do not
        c = make_controller(name, model, GainSet(**dataclasses.asdict(gains[name])))
        assert all(getattr(a, p) is getattr(c, p) for p in PIECES)
        other = dataclasses.replace(gains[name], eps=2.0 * gains[name].eps)
        assert make_controller(name, model, other).clf is not a.clf
        law = "ic" if name != "ic" else "uic"
        assert make_controller(law, model, gains[name]).clf is not a.clf

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_swapped_fields_get_new_constants(self, name):
        model = straight_chain(n_links=4)
        before = make_controller(name, model, gset())
        b = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, 0.5]])
        object.__setattr__(model, "B", b)
        object.__setattr__(model, "u_min", np.array([-5.0, -5.0]))
        object.__setattr__(model, "u_max", np.array([5.0, 5.0]))
        after = make_controller(name, model, gset())
        assert after.saturation_edges is not before.saturation_edges
        assert same_bits(after.saturation_edges[1], np.full(2, 5.0) - 1e-9 * np.full(2, 10.0))
        if name in ("ic", "uic"):
            assert same_bits(after.maps[0], pinv(b))
        else:
            assert after.consts.bounds.lb.shape != before.consts.bounds.lb.shape
        if name in ("soft-id-clf-qp", "ic-qp"):
            assert same_bits(after.split.S, collocated_split(b).S)
        # a field changed in place, not swapped, misses as well
        model.u_max[:] = 4.0
        assert same_bits(make_controller(name, model, gset()).saturation_edges[1],
                         np.full(2, 4.0) - 1e-9 * np.full(2, 9.0))


class TestOneLawForm:
    """Controller.step is its law called on the same controller, bit for
    bit, over steps that carry a warm start and include one infeasible hold;
    a law call leaves the warm start and the held input as they were."""

    LAWS = {"clf-qp": clf_qp_step, "soft-id-clf-qp": full_body_qp_step,
            "ic": impedance_step, "uic": impedance_step, "ic-qp": full_body_qp_step}
    INFEASIBLE_AT = 2

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    @pytest.mark.parametrize("robot", ["finger", "two-link"])
    def test_step_is_its_law(self, monkeypatch, robot, name):
        import dataclasses

        from clfqp import controllers

        model, gains, ref = finger_case() if robot == "finger" else two_link_case()
        ctrl = make_controller(name, model, gains[name])
        solve, k = controllers.solve_qp, [0]

        def solve_or_fail(prob, warm_start=None):
            # the solver's answer, marked infeasible on one step
            sol = solve(prob, warm_start=warm_start)
            if k[0] == self.INFEASIBLE_AT:
                return dataclasses.replace(sol, status=QpStatus.INFEASIBLE, active_set=())
            return sol

        monkeypatch.setattr(controllers, "solve_qp", solve_or_fail)
        rng = np.random.default_rng(14)
        inputs, statuses = [], []
        for k[0] in range(4):
            state = RobotState(0.3 * rng.standard_normal(model.n),
                               rng.standard_normal(model.n), 0.01 * k[0])
            warm, hold = ctrl._warm, ctrl._u_hold
            held = hold.copy()
            u_law, log_law, sol = self.LAWS[name](ctrl, state, ref)
            assert ctrl._warm is warm and ctrl._u_hold is hold and same_bits(hold, held)
            u, log = ctrl.step(state, ref)
            assert same_bits(u, u_law)
            for field in ("mu", "delta", "V", "Vdot", "saturated"):
                assert same_bits(getattr(log, field), getattr(log_law, field)), field
            assert log.qp_status == log_law.qp_status
            assert (sol is None) == (name in ("ic", "uic"))
            if sol is not None:
                assert ctrl._warm == (sol.active_set or warm)
            assert ctrl._u_hold is u
            inputs.append(u)
            statuses.append(log.qp_status)
        if name not in ("ic", "uic"):
            assert statuses[self.INFEASIBLE_AT] == "Infeasible"
            assert same_bits(inputs[self.INFEASIBLE_AT], inputs[self.INFEASIBLE_AT - 1])
