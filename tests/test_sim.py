import gc

import numpy as np
import pytest

from clfqp import kinematics, multibody, sim
from clfqp.controllers import ControlStepLog, Evaluation, make_controller
from clfqp.experiments import EllipseParams, ellipse_trajectory
from clfqp.kinematics import task_state
from clfqp.multibody import RobotState, bias_terms, forward_dynamics
from clfqp.robots import builtin_registry
from clfqp.sim import SimConfig, StateBatch, run

from oracles import rk4_step
from toys import ball_chain, two_link

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


class _Constant:
    """Controller that applies a fixed input and never evaluates its state."""

    def __init__(self, model):
        self.u = 0.3 * model.u_max
        self.log = ControlStepLog(u=self.u, mu=np.zeros(model.task_dim), delta=0.0,
                                  V=np.nan, Vdot=np.nan, qp_status="Constant",
                                  solve_time=0.0, saturated=np.zeros(model.m, dtype=bool))

    def step(self, state, ref):
        return self.u, self.log


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("episodes", [1, 3])
    def test_task_state_logged_without_controller_evaluation(self, episodes):
        # the simulator evaluates each state itself, whatever the controller reads
        model, _, ref = finger()
        cfg = SimConfig(t_end=0.01, initial_state=start_state(model))
        trajs = run(model, [_Constant(model) for _ in range(episodes)], [ref] * episodes,
                    [cfg] * episodes)
        for traj in trajs:
            assert not traj.failed and len(traj) == 10
            assert not same_bits(traj.y[0], traj.y[-1])
            for i in range(len(traj)):
                ts = task_state(model, traj.state(i))
                assert same_bits(traj.y[i], ts.y) and same_bits(traj.dy[i], ts.dy)

    def test_initial_state_gets_no_evaluation(self):
        model, gains, ref = finger()
        cfg = SimConfig(t_end=0.003, initial_state=start_state(model))
        run(model, make_controller("ic", model, gains["ic"]), ref, cfg)
        assert cfg.initial_state.evaluation is None

    @pytest.mark.parametrize("episodes", [1, 4])
    def test_no_evaluation_outlives_the_run(self, episodes):
        # an evaluation left attached to its state would form a reference
        # cycle that only the cyclic collector frees
        model, gains, ref = finger()
        cfg = SimConfig(t_end=0.005, initial_state=start_state(model))
        controllers = [make_controller("clf-qp", model, gains["clf-qp"])
                       for _ in range(episodes)]
        gc.collect()
        gc.disable()
        try:
            trajs = run(model, controllers, [ref] * episodes, [cfg] * episodes)
            left = [obj for obj in gc.get_objects() if isinstance(obj, Evaluation)]
        finally:
            gc.enable()
        assert [len(traj) for traj in trajs] == [5] * episodes
        assert left == []

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


class TestRk4Step:
    """sim.step against the RK4 body it replaced (oracles.rk4_step), whose
    every stage ran the full forward dynamics: the same bits, signed zeros
    included, with one state or several stacked, with or without the first
    stage's terms given."""

    MODELS = {"finger": None, "helix": None, "spirob": None,
              "ball_chain": ball_chain, "two_link": lambda: two_link(k_s=(0.4, 0.2),
                                                                      d_s=(0.1, 0.05))}

    def model(self, name):
        toy = self.MODELS[name]
        return toy() if toy is not None else builtin_registry()[name].load()[0]

    @pytest.mark.parametrize("given_terms", [False, True])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_bitwise_the_full_stage_rk4(self, name, rows, given_terms):
        model = self.model(name)
        rng = np.random.default_rng(12)
        q = 0.6 * rng.standard_normal((rows, model.n))
        dq = 1.5 * rng.standard_normal((rows, model.n))
        dq[:, 0] = -0.0
        u = np.clip(rng.standard_normal((rows, model.m)), model.u_min, model.u_max)
        if rows == 1:
            q, dq, u = q[0], dq[0], u[0]
            state = RobotState(q, dq, 0.25)
        else:
            state = StateBatch(q, dq, 0.25)
        cfg = SimConfig(dt_physics=2e-3)
        terms = bias_terms(model, state) if given_terms else None
        nxt = sim.step(model, state, u, cfg, terms=terms)
        want_q, want_dq = rk4_step(
            lambda qq, dd: forward_dynamics(model, StateBatch(qq, dd), u), q, dq, 2e-3)
        assert type(nxt) is type(state) and nxt.t == 0.25 + 2e-3
        assert same_bits(nxt.q, want_q) and same_bits(nxt.dq, want_dq)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_every_stage_m_is_guarded(self, monkeypatch, rows):
        # the first stage's factor is given with its terms; k2..k4 each
        # guard their own M, one factor_inertia call per row, and with the
        # limit lowered the second stage's M is rejected
        model = self.model("two_link")
        q, dq = np.full((rows, model.n), 0.2), np.zeros((rows, model.n))
        u = np.zeros((rows, model.m))
        state = StateBatch(q, dq) if rows > 1 else RobotState(q[0], dq[0])
        u = u if rows > 1 else u[0]
        terms = bias_terms(model, state)
        terms.factor
        calls = []
        original = multibody.factor_inertia
        monkeypatch.setattr(multibody, "factor_inertia",
                            lambda mass: calls.append(mass.shape) or original(mass))
        sim.step(model, state, u, SimConfig(), terms=terms)
        assert calls == [(model.n, model.n)] * (3 * rows)
        monkeypatch.setattr(multibody, "COND_LIMIT", 1.0)
        with pytest.raises(multibody.IllConditioned):
            sim.step(model, state, u, SimConfig(), terms=terms)
        assert len(calls) == 3 * rows + 1

    @pytest.mark.parametrize("rows", [1, 3])
    def test_non_finite_stage_with_given_terms_raises(self, rows):
        # the first stage's terms given, the second stage state is the first
        # to be checked, and fails as a RobotState would
        model = self.model("two_link")
        q = np.full((rows, model.n), 0.2)
        dq = np.zeros((rows, model.n))
        u = np.zeros((rows, model.m))
        u[-1] = np.inf
        state = StateBatch(q, dq) if rows > 1 else RobotState(q[0], dq[0])
        u = u if rows > 1 else u[0]
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="state entries must be finite"):
                sim.step(model, state, u, SimConfig(), terms=bias_terms(model, state))


class TestSimConfigValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
    @pytest.mark.parametrize("name", ["dt_physics", "t_end"])
    def test_non_finite_or_non_positive_time_names_its_field(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            SimConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [0, -2, 1.5, 2.0, True, "2", None])
    def test_control_decimation_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="^control_decimation must be an integer"):
            SimConfig(control_decimation=bad)

    def test_numpy_integer_decimation_accepted(self):
        assert SimConfig(control_decimation=np.int64(3)).control_decimation == 3


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
