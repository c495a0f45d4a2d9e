import dataclasses
import gc

import numpy as np
import pytest

from clfqp import multibody, sim
from clfqp.controllers import ControlStepLog, Evaluation, make_controller
from clfqp.experiments import EllipseParams, ellipse_trajectory, sim_config_for
from clfqp.kinematics import task_state
from clfqp.multibody import RobotState, bias_terms
from clfqp.robots import builtin_registry
from clfqp.sim import SimConfig, run

from oracles import entrywise_failures, rk4_step
from toys import ball_chain, evaluated_accelerations, two_link

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
            q, dq, reasons = sim.step(model, state.q[None], state.dq[None], state.t, u[None], cfg)
            assert reasons == [""]
            state = RobotState(q[0], dq[0], state.t + cfg.dt_physics)
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
        (traj,) = run(model, [make_controller(controller, model, gains[controller])], [ref],
                      [cfg])
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
                ts = task_state(model, RobotState(traj.q[i], traj.dq[i], traj.t[i]))
                assert same_bits(traj.y[i], ts.y) and same_bits(traj.dy[i], ts.dy)

    def test_initial_state_gets_no_evaluation(self):
        model, gains, ref = finger()
        cfg = SimConfig(t_end=0.003, initial_state=start_state(model))
        run(model, [make_controller("ic", model, gains["ic"])], [ref], [cfg])
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
        original = multibody._pose_pass   # under chain_pose and every RK4 stage

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(multibody, "_pose_pass", counted)
        cfg = SimConfig(t_end=0.01, initial_state=start_state(model))
        (traj,) = run(model, [make_controller("clf-qp", model, gains["clf-qp"])], [ref], [cfg])
        # one evaluation shared by controller, log and RK4 k1, then k2..k4
        assert len(traj) == 10
        assert len(calls) == 4 * len(traj)


class TestRk4Step:
    """sim.step against the RK4 body it replaced (oracles.rk4_step), every
    stage of it solved through a state evaluation (the terms bias_terms
    makes and their factor): the same bits, signed zeros included, for one
    row (stepped on the shapes of one state) or several stacked, with or
    without the first stage's terms given."""

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
        # one row's terms and oracle on the shapes of one state
        state = RobotState(q, dq) if rows > 1 else RobotState(q[0], dq[0])
        held = u if rows > 1 else u[0]
        cfg = SimConfig(dt_physics=2e-3)
        terms = bias_terms(model, state) if given_terms else None
        q_next, dq_next, reasons = sim.step(model, q, dq, 0.25, u, cfg, terms=terms)
        force = multibody.matvec(model.B, held)
        want_q, want_dq = rk4_step(
            lambda qq, dd: evaluated_accelerations(model, qq, dd, force), state.q, state.dq,
            2e-3)
        assert reasons == [""] * rows
        assert same_bits(q_next, want_q.reshape(q.shape))
        assert same_bits(dq_next, want_dq.reshape(dq.shape))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_every_stage_m_is_guarded(self, monkeypatch, rows):
        # the first stage's factor is given with its terms; k2..k4 each
        # guard their own M, one factor_inertia call per row, and with the
        # limit lowered the second stage's M is rejected: first the stacked
        # stage's first row, then each row's stage alone, every row named
        model = self.model("two_link")
        q, dq = np.full((rows, model.n), 0.2), np.zeros((rows, model.n))
        u = np.zeros((rows, model.m))
        terms = bias_terms(model, RobotState(q, dq) if rows > 1 else RobotState(q[0], dq[0]))
        terms.factor
        calls = []
        original = multibody.factor_inertia
        monkeypatch.setattr(multibody, "factor_inertia",
                            lambda mass: calls.append(mass.shape) or original(mass))
        assert sim.step(model, q, dq, 0.0, u, SimConfig(), terms=terms)[2] == [""] * rows
        assert calls == [(model.n, model.n)] * (3 * rows)
        monkeypatch.setattr(multibody, "COND_LIMIT", 1.0)
        q_next, dq_next, reasons = sim.step(model, q, dq, 0.0, u, SimConfig(), terms=terms)
        assert len(calls) == 3 * rows + 1 + rows
        assert len(reasons) == rows and all(
            r.startswith("IllConditioned at t=0.000000: inertia matrix condition")
            for r in reasons)
        assert same_bits(q_next, q) and same_bits(dq_next, dq)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_non_finite_stage_with_given_terms_raises(self, rows):
        # the first stage's terms given, the second stage state is the first
        # to be checked, and fails as a RobotState would
        model = self.model("two_link")
        q = np.full((rows, model.n), 0.2)
        dq = np.zeros((rows, model.n))
        u = np.zeros((rows, model.m))
        u[-1] = np.inf
        terms = bias_terms(model, RobotState(q, dq) if rows > 1 else RobotState(q[0], dq[0]))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="state entries must be finite"):
                sim.step(model, q, dq, 0.0, u, SimConfig(), terms=terms)


class TestFailures:
    """sim._failures gives the entrywise rule's reason for every row, for
    one row and for four, whichever entries make a row end."""

    HUGE, NON_FINITE = ("state magnitude exceeded 1e12 at t=0.125000",
                        "non-finite state at t=0.125000")
    ENTRIES = {"finite": (0.5, ""), "big": (1e12, ""), "huge": (2e12, HUGE),
               "neg-huge": (-1e300, HUGE), "nan": (np.nan, NON_FINITE),
               "inf": (np.inf, NON_FINITE), "neg-inf": (-np.inf, NON_FINITE)}

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("where", ["q", "dq"])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_entrywise_reasons(self, rows, where, entry):
        value, reason = self.ENTRIES[entry]
        rng = np.random.default_rng(23)
        for bad_row in range(rows):
            q, dq = rng.standard_normal((rows, 5)), rng.standard_normal((rows, 5))
            (q if where == "q" else dq)[bad_row, 3] = value
            if rows > 1:     # another row ends on inf, another on magnitude
                q[(bad_row + 1) % rows, 0] = -np.inf
                dq[(bad_row + 2) % rows, 4] = 5e12
            got = sim._failures(q, dq, 0.125)
            assert got == entrywise_failures(q, dq, 0.125)
            assert got[bad_row] == reason

    def test_nan_beside_an_inf_or_a_huge_entry(self):
        q = np.array([[np.nan, 1e13], [1.0, 2.0], [np.inf, np.nan]])
        dq = np.array([[0.0, 0.0], [3e12, np.nan], [0.0, 0.0]])
        assert sim._failures(q, dq, 0.0) == entrywise_failures(q, dq, 0.0)
        assert sim._failures(q, dq, 0.0) == ["non-finite state at t=0.000000"] * 3


class TestStatesCheckedOnce:
    """run checks the start state once and every stepped row once (in
    sim._failures); it builds no RobotState that checks the rows again."""

    @pytest.mark.parametrize("episodes", [1, 3])
    def test_no_state_is_checked_again(self, monkeypatch, episodes):
        model, gains, ref = finger()
        cfgs = [SimConfig(t_end=0.006 + 0.002 * i, control_decimation=2)
                for i in range(episodes)]
        ctrls = [make_controller("ic", model, gains["ic"]) for _ in range(episodes)]
        checked, failures = [], []
        post_init, failures_of = RobotState.__post_init__, sim._failures
        monkeypatch.setattr(RobotState, "__post_init__",
                            lambda state: checked.append(state.q.shape) or post_init(state))
        monkeypatch.setattr(sim, "_failures",
                            lambda q, dq, t: failures.append(q.shape) or failures_of(q, dq, t))
        trajs = run(model, ctrls, [ref] * episodes, cfgs)
        assert checked == [(model.n,)]     # model.rest_state(), the start state
        assert len(failures) == 2 * len(trajs[-1])    # one per physics step
        assert all(not traj.failed for traj in trajs)


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

    @pytest.mark.parametrize("t_end,dt,decimation", [(4e-4, 1e-3, 1), (5e-4, 1e-3, 1),
                                                     (1.9e-3, 1e-3, 4), (1.0, 3.0, 1)])
    def test_t_end_without_a_control_step_names_t_end(self, t_end, dt, decimation):
        # round(t_end / (dt_physics * control_decimation)) control steps,
        # ties to even: an episode that would log no row is no config
        with pytest.raises(ValueError, match="^t_end must give at least one control step, "
                                             f"got {t_end!r} with dt_physics {dt!r}"):
            SimConfig(t_end=t_end, dt_physics=dt, control_decimation=decimation)

    @pytest.mark.parametrize("t_end,dt,decimation", [(6e-4, 1e-3, 1), (2.1e-3, 1e-3, 4),
                                                     (2.0, 3.0, 1)])
    def test_t_end_of_one_control_step_accepted(self, t_end, dt, decimation):
        SimConfig(t_end=t_end, dt_physics=dt, control_decimation=decimation)


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
            q, dq = self.Q0[None], self.DQ0[None]
            for _ in range(steps):
                q, dq, _ = sim.step(model, q, dq, 0.0, self.U[None], cfg)
            errors.append(np.max(np.abs(np.concatenate([q[0], dq[0]]) - reference)))
        observed = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(observed - order) < 0.15 * order), observed


class TestRk4Stability:
    """Every built-in robot's passive dynamics, linearized about rest
    (M ddq + D_s dq + (K_s + dg/dq) q = 0), keep each mode inside RK4's
    stability region at the spec's physics step; ten times the damping
    puts some mode outside it on every robot."""

    @staticmethod
    def amplification(model, dt, fd_step=1e-6):
        """Largest |R(z)| over the modes, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
        the RK4 amplification factor at z = lambda dt."""
        n = model.n
        zero = np.zeros(n)
        dg = np.zeros((n, n))
        for k in range(n):
            dq = np.zeros(n)
            dq[k] = fd_step
            g_plus = bias_terms(model, RobotState(dq, zero)).g_vec
            g_minus = bias_terms(model, RobotState(-dq, zero)).g_vec
            dg[:, k] = (g_plus - g_minus) / (2.0 * fd_step)
        m_inv = np.linalg.inv(bias_terms(model, RobotState(zero, zero)).M)
        a = np.block([[np.zeros((n, n)), np.eye(n)],
                      [-m_inv @ (np.diag(model.K_s) + dg), -m_inv @ np.diag(model.D_s)]])
        z = np.linalg.eigvals(a) * dt
        return np.abs(1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0).max()

    @pytest.mark.parametrize("name", ["finger", "helix", "spirob"])
    def test_built_ins_stable_and_ten_times_damping_not(self, name):
        spec = builtin_registry()[name]
        model, _ = spec.load()
        cfg = sim_config_for(spec, 1.0)
        assert cfg.integrator == "rk4"
        assert self.amplification(model, cfg.dt_physics) < 1.0
        damped = dataclasses.replace(model, D_s=10.0 * model.D_s)
        assert self.amplification(damped, cfg.dt_physics) > 1.0
