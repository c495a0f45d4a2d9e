import dataclasses

import numpy as np
import pytest

from clfqp import kinematics, multibody, sim
from clfqp.controllers import make_controller
from clfqp.experiments import EllipseParams, ellipse_trajectory
from clfqp.kinematics import task_state
from clfqp.multibody import RobotState
from clfqp.robots import builtin_registry
from clfqp.sim import SimConfig, run

LOGGED = ("t", "q", "dq", "y", "dy", "y_ref", "u", "mu", "delta", "V", "Vdot",
          "solve_time", "saturated")


def finger():
    """The finger model, its gains and an elliptic tracking reference."""
    model, gains = builtin_registry()["finger"].load()
    ref = ellipse_trajectory(EllipseParams.for_robot(model), 0.5 * np.pi, model.task_dim)
    return model, gains, ref


def start_state(model):
    return RobotState(q=0.1 * np.ones(model.n), dq=np.zeros(model.n))


def reference_loop(model, controller, ref, cfg):
    """sim.run rebuilt from public calls, each evaluating its state anew."""
    state = cfg.initial_state
    controller.reset()
    rows = {name: [] for name in LOGGED}
    for _ in range(int(round(cfg.t_end / (cfg.dt_physics * cfg.control_decimation)))):
        u, log = controller.step(state, ref)
        ts = task_state(model, state)
        values = dict(t=state.t, q=state.q, dq=state.dq, y=ts.y, dy=ts.dy,
                      y_ref=ref.y_ref(state.t), u=u, mu=log.mu, delta=log.delta,
                      V=log.V, Vdot=log.Vdot, solve_time=log.solve_time,
                      saturated=log.saturated)
        for name in LOGGED:
            rows[name].append(values[name])
        for _ in range(cfg.control_decimation):
            state = sim.step(model, state, u, cfg)
    return {name: np.array(v) for name, v in rows.items()}, state


class _WithoutEvaluation:
    """Controller proxy whose logs carry no evaluation."""

    def __init__(self, inner):
        self._inner = inner

    def reset(self):
        self._inner.reset()

    def step(self, state, ref):
        u, log = self._inner.step(state, ref)
        return u, dataclasses.replace(log, evaluation=None)


class _HoldFirst:
    """Controller proxy that repeats its first output, log included."""

    def __init__(self, inner):
        self._inner = inner
        self._first = None

    def reset(self):
        self._inner.reset()
        self._first = None

    def step(self, state, ref):
        if self._first is None:
            self._first = self._inner.step(state, ref)
        return self._first


class TestSharedEvaluation:
    @pytest.mark.parametrize("integrator", sim.INTEGRATORS)
    @pytest.mark.parametrize("controller", ["clf-qp", "ic"])
    def test_decimated_run_matches_plain_loop(self, integrator, controller):
        model, gains, ref = finger()
        cfg = SimConfig(dt_physics=1e-3, control_decimation=3, integrator=integrator,
                        t_end=0.024, initial_state=start_state(model))
        traj = run(model, make_controller(controller, model, gains[controller]), ref, cfg)
        rows, final = reference_loop(
            model, make_controller(controller, model, gains[controller]), ref, cfg)
        assert not traj.failed and len(traj) == 8
        for name in LOGGED:
            # solve_time is wall clock, the one logged value that may differ
            if name != "solve_time":
                np.testing.assert_array_equal(getattr(traj, name), rows[name], err_msg=name)
        np.testing.assert_array_equal(traj.final_state.q, final.q)
        np.testing.assert_array_equal(traj.final_state.dq, final.dq)

    def test_log_without_evaluation_falls_back(self):
        model, gains, ref = finger()
        cfg = SimConfig(t_end=0.01, initial_state=start_state(model))
        shared = run(model, make_controller("ic", model, gains["ic"]), ref, cfg)
        plain = run(model, _WithoutEvaluation(make_controller("ic", model, gains["ic"])),
                    ref, cfg)
        for name in LOGGED:
            np.testing.assert_array_equal(getattr(shared, name), getattr(plain, name))

    def test_stale_evaluation_is_not_reused(self):
        # a log evaluated at an earlier state must not stand in for this one
        model, gains, ref = finger()
        cfg = SimConfig(t_end=0.01, initial_state=start_state(model))
        held = run(model, _HoldFirst(make_controller("ic", model, gains["ic"])), ref, cfg)
        plain = run(model, _WithoutEvaluation(
            _HoldFirst(make_controller("ic", model, gains["ic"]))), ref, cfg)
        for name in LOGGED:
            np.testing.assert_array_equal(getattr(held, name), getattr(plain, name))

    def test_four_chain_poses_per_control_step(self, monkeypatch):
        model, gains, ref = finger()
        calls = []
        original = multibody.chain_pose

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(multibody, "chain_pose", counted)
        monkeypatch.setattr(kinematics, "chain_pose", counted)
        cfg = SimConfig(t_end=0.01, initial_state=start_state(model))
        traj = run(model, make_controller("clf-qp", model, gains["clf-qp"]), ref, cfg)
        # one evaluation shared by controller, log and RK4 k1, then k2..k4
        assert len(traj) == 10
        assert len(calls) == 4 * len(traj)


class TestConvergenceOrder:
    """Halving dt on the two-link toy under a constant input shrinks the
    error at a fixed time against a fine-step RK4 reference (512 steps of
    toys.rk4_rollout) by 2^p: p about 4 for RK4, about 1 for semi-implicit
    Euler."""

    HORIZON = 0.4
    U = np.array([0.3, -0.2])
    Q0, DQ0 = np.array([0.4, -0.3]), np.array([0.5, -0.2])

    @pytest.fixture(scope="class")
    def setup(self):
        from toys import rk4_rollout, two_link

        model = two_link(k_s=(0.5, 0.3), d_s=(0.2, 0.1))
        qs, dqs = rk4_rollout(model, self.Q0, self.DQ0, lambda t, q, dq: self.U,
                              self.HORIZON / 512, 512)
        return model, np.concatenate([qs[-1], dqs[-1]])

    @pytest.mark.parametrize("integrator,order", [("rk4", 4.0), ("semi-implicit-euler", 1.0)])
    def test_observed_order(self, setup, integrator, order):
        model, reference = setup
        errors = []
        for steps in (16, 32, 64):
            cfg = SimConfig(dt_physics=self.HORIZON / steps, integrator=integrator)
            state = RobotState(self.Q0, self.DQ0)
            for _ in range(steps):
                state = sim.step(model, state, self.U, cfg)
            errors.append(np.max(np.abs(np.concatenate([state.q, state.dq]) - reference)))
        observed = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(observed - order) < 0.15 * order), observed
