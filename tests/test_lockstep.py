"""Episodes stepped in lockstep: the stacked chain evaluations, the stacked
physics step and sim.run over several episodes give every episode bitwise
what it gets on its own."""

import dataclasses

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from clfqp import experiments, kinematics, multibody, sim
from clfqp.controllers import CONTROLLER_NAMES, ControlStepLog, evaluate, make_controller
from clfqp.experiments import EllipseParams, setpoint_reference
from clfqp.kinematics import task_state
from clfqp.linalg import SvdFailure
from clfqp.multibody import IllConditioned, RobotState, accelerations, bias_terms, solve_inertia
from clfqp.robots import builtin_registry
from clfqp.sim import SimConfig, run

from toys import ball_chain, two_link

MODELS = ["finger", "helix", "spirob", "ball_chain", "two_link"]
ROBOTS = ["finger", "helix", "spirob"]
LOGGED = ("t", "q", "dq", "y", "dy", "y_ref", "u", "mu", "delta", "V", "Vdot", "saturated")
# An input inside finger's box, in every entry, that marks a row.
MARKER = 0.015625
# Sweep rates whose two-cycle episodes last 5, 4 and 2 control steps at 1 kHz.
UNEQUAL_OMEGAS = tuple(w * np.pi for w in (800.0, 1000.0, 2000.0))


def load_model(name):
    toys = {"ball_chain": ball_chain, "two_link": two_link}
    return toys[name]() if name in toys else builtin_registry()[name].load()[0]


def bitwise_equal(a, b) -> bool:
    """Same shape and the same float64 bit patterns, signed zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_rows(model, rows, seed):
    rng = np.random.default_rng(seed)
    q = 0.6 * rng.standard_normal((rows, model.n))
    dq = 1.5 * rng.standard_normal((rows, model.n))
    q[0], dq[0] = 0.0, -0.0
    return q, dq


def assert_same_episode(got, want):
    """Two trajectories with the same rows, bits, ending and final state."""
    assert len(got) == len(want)
    for name in LOGGED:
        assert bitwise_equal(getattr(got, name), getattr(want, name)), name
    assert got.qp_status == want.qp_status
    assert (got.failed, got.failure_reason) == (want.failed, want.failure_reason)
    assert bitwise_equal(got.final_state.q, want.final_state.q)
    assert bitwise_equal(got.final_state.dq, want.final_state.dq)
    assert got.final_state.t == want.final_state.t
    assert got.metadata == want.metadata


class TestMatvec:
    @pytest.mark.parametrize("shape", [(4, 2), (2, 4), (27, 9), (3, 36), (36, 36)])
    def test_rows_keep_one_row_bits(self, shape):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5,) + shape)
        x = rng.standard_normal((5, shape[1]))
        for got, a_row, x_row in zip(multibody.matvec(a, x), a, x):
            assert bitwise_equal(got, a_row @ x_row)
        for got, x_row in zip(multibody.matvec(a[0], x), x):
            assert bitwise_equal(got, a[0] @ x_row)
        assert bitwise_equal(multibody.matvec(a[0], x[0]), a[0] @ x[0])


class TestStackedEvaluation:
    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("name", MODELS)
    def test_rows_match_single_states(self, name, rows):
        model = load_model(name)
        q, dq = random_rows(model, rows, seed=3)
        u = np.random.default_rng(4).standard_normal((rows, model.m))
        batch = RobotState(q, dq)
        terms = bias_terms(model, batch)
        ts = task_state(model, batch, pose=terms.pose, motion=terms.motion)
        qdd = solve_inertia(terms, multibody.matvec(model.B, u) - terms.h)
        for i in range(rows):
            state = RobotState(q[i], dq[i])
            one = bias_terms(model, state)
            one_ts = task_state(model, state)
            for f in ("M", "c_vec", "d_vec", "k_vec", "g_vec"):
                assert bitwise_equal(getattr(terms, f)[i], getattr(one, f)), f
            for f in ("axes_w", "origins", "rot", "com_w", "inertia_w", "ee", "offsets_w"):
                assert bitwise_equal(getattr(terms.pose, f)[i], getattr(one.pose, f)), f
            for f in dataclasses.fields(multibody.ChainMotion):
                assert bitwise_equal(getattr(terms.motion, f.name)[i],
                                     getattr(one.motion, f.name)), f.name
            for f in dataclasses.fields(kinematics.TaskState):
                assert bitwise_equal(getattr(ts, f.name)[i], getattr(one_ts, f.name)), f.name
            assert bitwise_equal(qdd[i], accelerations(model, q[i], dq[i], model.B @ u[i]))

    @pytest.mark.parametrize("name", ["spirob", "ball_chain"])
    def test_two_leading_axes(self, name):
        model = load_model(name)
        q, dq = random_rows(model, 6, seed=14)
        grid = bias_terms(model, RobotState(q.reshape(2, 3, -1), dq.reshape(2, 3, -1)))
        flat = bias_terms(model, RobotState(q, dq))
        for f in ("M", "c_vec", "d_vec", "k_vec", "g_vec"):
            got = getattr(grid, f)
            assert bitwise_equal(got.reshape((6,) + got.shape[2:]), getattr(flat, f)), f

    def test_stacked_factor_is_the_rows_factors(self):
        model = load_model("finger")
        terms = bias_terms(model, RobotState(*random_rows(model, 3, seed=5)))
        assert [f is r.factor for f, r in zip(terms.factor, terms.rows)] == [True] * 3
        assert terms.rows is terms.rows


def step_alone(model, q, dq, t, u, cfg, i):
    """sim.step of row i alone, on the shapes of one state."""
    return sim.step(model, q[i:i + 1], dq[i:i + 1], t, u[i:i + 1], cfg)


class TestStackedStep:
    @pytest.mark.parametrize("integrator", sim.INTEGRATORS)
    @pytest.mark.parametrize("name", MODELS)
    def test_rows_match_single_steps(self, name, integrator):
        model = load_model(name)
        q, dq = random_rows(model, 4, seed=6)
        u = np.random.default_rng(7).standard_normal((4, model.m))
        cfg = SimConfig(integrator=integrator)
        for terms in (None, bias_terms(model, RobotState(q, dq))):
            q_next, dq_next, reasons = sim.step(model, q, dq, 0.125, u, cfg, terms=terms)
            assert reasons == [""] * 4
            for i in range(4):
                one_q, one_dq, one_reasons = step_alone(model, q, dq, 0.125, u, cfg, i)
                assert bitwise_equal(q_next[i], one_q[0]) and bitwise_equal(dq_next[i], one_dq[0])
                assert one_reasons == [""]

    @pytest.mark.parametrize("integrator", sim.INTEGRATORS)
    def test_runaway_row_is_named_not_raised(self, integrator):
        model = load_model("finger")
        q, dq = random_rows(model, 3, seed=8)
        u = np.zeros((3, model.m))
        u[1] = 1e12
        cfg = SimConfig(integrator=integrator)
        q_next, dq_next, reasons = sim.step(model, q, dq, 0.125, u, cfg)
        # one episode on the shapes of one state names its failure once
        _, _, alone = step_alone(model, q, dq, 0.125, u, cfg, 1)
        assert alone == [f"state magnitude exceeded 1e12 at t={0.125 + cfg.dt_physics:.6f}"]
        assert reasons == ["", alone[0], ""]
        one_q, _, _ = step_alone(model, q, dq, 0.125, u, cfg, 2)
        assert bitwise_equal(q_next[2], one_q[0])

    def test_non_finite_row_is_named(self):
        model = load_model("finger")
        q, dq = random_rows(model, 2, seed=9)
        u = np.zeros((2, model.m))
        u[0] = 1e308
        cfg = SimConfig(integrator="semi-implicit-euler")
        _, _, reasons = sim.step(model, q, dq, 0.0, u, cfg)
        assert reasons == [f"non-finite state at t={cfg.dt_physics:.6f}", ""]

    @pytest.mark.parametrize("given_terms", [False, True])
    @pytest.mark.parametrize("integrator", sim.INTEGRATORS)
    def test_raising_row_is_named_the_others_step_alone(self, monkeypatch, integrator,
                                                        given_terms):
        # The guard of the middle row's first-stage M runs with COND_LIMIT
        # lowered, so that row's step raises IllConditioned, stacked or
        # alone; the stacked step is redone row by row, names that row and
        # keeps its state, and every other row is bitwise its one-row step.
        # The M is told by its lower triangle, all the guard reads: an RK4
        # stage leaves the upper one unmirrored.
        model = load_model("finger")
        q, dq = random_rows(model, 3, seed=15)
        u = np.random.default_rng(16).uniform(-0.5, 0.5, (3, model.m))
        cfg = SimConfig(integrator=integrator)
        clean = [step_alone(model, q, dq, 0.125, u, cfg, i) for i in (0, 2)]
        terms = bias_terms(model, RobotState(q, dq)) if given_terms else None
        marked = np.tril(bias_terms(model, RobotState(q[1], dq[1])).M)
        original = multibody.factor_inertia

        def factor_inertia(mass):
            with monkeypatch.context() as patch:
                if bitwise_equal(np.tril(mass), marked):
                    patch.setattr(multibody, "COND_LIMIT", 1.0)
                return original(mass)

        monkeypatch.setattr(multibody, "factor_inertia", factor_inertia)
        q_next, dq_next, reasons = sim.step(model, q, dq, 0.125, u, cfg, terms=terms)
        assert reasons[0] == reasons[2] == ""
        assert reasons[1].startswith("IllConditioned at t=0.125000: inertia matrix condition ")
        assert reasons[1].endswith(" exceeds 1e+00")
        assert bitwise_equal(q_next[1], q[1]) and bitwise_equal(dq_next[1], dq[1])
        for i, (one_q, one_dq, _) in zip((0, 2), clean):
            assert bitwise_equal(q_next[i], one_q[0]) and bitwise_equal(dq_next[i], one_dq[0])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_non_finite_stage_raises_like_a_state(self, rows):
        # A stage state that leaves the finite range fails as constructing a
        # RobotState from it would, in one episode or in any row of several.
        model = load_model("finger")
        q, dq = random_rows(model, rows, seed=10)
        u = np.zeros((rows, model.m))
        u[-1] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="state entries must be finite"):
                sim.step(model, q, dq, 0.0, u, SimConfig())


class TestAttachedEvaluation:
    def test_used_only_for_its_own_state_and_model(self):
        model, gains = builtin_registry()["finger"].load()
        state = RobotState(*[r[1] for r in random_rows(model, 2, seed=11)])
        attached = evaluate(model, state)
        object.__setattr__(state, "evaluation", attached)
        assert evaluate(model, state) is attached
        moved = dataclasses.replace(state, t=1.0)
        assert moved.evaluation is attached
        assert evaluate(model, moved) is not attached
        other = dataclasses.replace(model, name="copy")
        assert evaluate(other, state) is not attached
        assert bitwise_equal(evaluate(other, state).terms.M, attached.terms.M)


def suite(experiment, robot, controller, grid, overrides):
    if experiment == "setpoint":
        return experiments.setpoint_suite(robot, controller, thetas=grid,
                                          sim_overrides=overrides)
    return experiments.tracking_suite(robot, controller, omegas=grid, sim_overrides=overrides)


class TestLockstepSuites:
    """A suite's episodes in lockstep equal the same episodes run one per
    suite call, which sim.run steps unstacked."""

    def check(self, experiment, robot, controller, grid, overrides):
        summary, trajs = suite(experiment, robot, controller, grid, overrides)
        assert len(trajs) == len(grid) > 1
        for value, ep, traj in zip(grid, summary.episodes, trajs):
            one_summary, (one,) = suite(experiment, robot, controller, (value,), overrides)
            assert_same_episode(traj, one)
            assert repr(ep.metric) == repr(one_summary.episodes[0].metric)
            assert ep.failed == one_summary.episodes[0].failed
        return trajs

    @pytest.mark.parametrize("controller", CONTROLLER_NAMES)
    @pytest.mark.parametrize("robot", ROBOTS)
    def test_setpoints_every_cell(self, robot, controller):
        self.check("setpoint", robot, controller, experiments.THETA_GRID, {"t_end": 0.004})

    @pytest.mark.parametrize("controller", CONTROLLER_NAMES)
    @pytest.mark.parametrize("robot", ROBOTS)
    def test_unequal_tracking_lengths_every_cell(self, robot, controller):
        trajs = self.check("tracking", robot, controller, UNEQUAL_OMEGAS, {})
        assert [len(t) for t in trajs] == [5, 4, 2]

    @pytest.mark.parametrize("integrator,decimation",
                             [("semi-implicit-euler", 1), ("rk4", 3),
                              ("semi-implicit-euler", 3)])
    @pytest.mark.parametrize("controller", CONTROLLER_NAMES)
    def test_integrators_and_decimation(self, controller, integrator, decimation):
        overrides = {"integrator": integrator, "control_decimation": decimation}
        for robot in ("finger", "spirob"):
            trajs = self.check("tracking", robot, controller, UNEQUAL_OMEGAS, overrides)
            assert [len(t) for t in trajs] == [round(n / decimation) for n in (5, 4, 2)]


class _BlowUp:
    """Controller proxy that commands a runaway (or NaN) input from a given step on."""

    def __init__(self, inner, from_step, size=1e4):
        self._inner = inner
        self._from = from_step
        self._size = size
        self._k = 0

    def reset(self):
        self._inner.reset()
        self._k = 0

    def step(self, state, ref):
        u, log = self._inner.step(state, ref)
        self._k += 1
        return (u if self._k <= self._from else np.full_like(u, self._size)), log


class _RaiseFrom:
    """Controller proxy that raises a given exception from a given time on."""

    def __init__(self, inner, t_from, error):
        self._inner = inner
        self._t_from = t_from
        self._error = error

    def reset(self):
        self._inner.reset()

    def step(self, state, ref):
        if state.t >= self._t_from:
            raise self._error
        return self._inner.step(state, ref)


class TestLockstepEndings:
    """Episodes leave the batch on their own; every other episode goes on
    as if run alone."""

    def setup_method(self):
        self.model, self.gains = builtin_registry()["finger"].load()
        params = EllipseParams.for_robot(self.model)
        self.refs = [setpoint_reference(params, th, self.model.task_dim)
                     for th in experiments.THETA_GRID]

    def controllers(self, name="ic"):
        return [make_controller(name, self.model, self.gains[name]) for _ in self.refs]

    def compare(self, make, cfgs, make_stops=lambda: None):
        """Run the episodes in lockstep and one by one, each with fresh
        controllers and stop conditions, and check that they agree."""
        metas = [{"episode": i} for i in range(len(cfgs))]
        together = run(self.model, make(), self.refs, cfgs, stop_conditions=make_stops(),
                       metadata=metas)
        alone = [run(self.model, [c], [r], [cfg], stop_conditions=[stop], metadata=[meta])[0]
                 for c, r, cfg, stop, meta in zip(make(), self.refs, cfgs,
                                                  make_stops() or [None] * len(cfgs), metas)]
        for got, want in zip(together, alone):
            assert_same_episode(got, want)
        return together

    def test_stop_condition_mid_batch(self):
        cfg = SimConfig(t_end=0.008)
        start = self.model.rest_state()
        y0 = kinematics.forward_kinematics(self.model, start.q)[kinematics.task_rows(self.model)]
        errors = sorted(np.linalg.norm(y0 - r.y_ref(0.0)) for r in self.refs)
        limit = 0.5 * (errors[1] + errors[2])

        def stop(state, task_error, log):
            assert isinstance(log, ControlStepLog)
            return "far" if state.t > 0.0025 and np.linalg.norm(task_error) > limit else ""

        trajs = self.compare(self.controllers, [cfg] * 4, lambda: [stop] * 4)
        assert sorted(len(t) for t in trajs) == [4, 4, 8, 8]
        assert sorted(t.failure_reason for t in trajs) == ["", "", "far", "far"]

    @pytest.mark.parametrize("decimation", [1, 3])
    def test_non_finite_mid_batch(self, decimation):
        cfg = SimConfig(t_end=0.012, control_decimation=decimation)

        def make():
            ctrls = self.controllers("uic")
            ctrls[1] = _BlowUp(ctrls[1], from_step=2)
            return ctrls

        trajs = self.compare(make, [cfg] * 4)
        assert [t.failed for t in trajs] == [False, True, False, False]
        assert trajs[1].failure_reason.startswith("state magnitude exceeded 1e12")
        assert 0 < len(trajs[1]) < len(trajs[0]) == 12 // decimation

    @pytest.mark.parametrize("integrator", ["rk4", "semi-implicit-euler"])
    def test_non_finite_input_ends_its_row_only(self, integrator):
        self.refs = self.refs[:3]
        cfg = SimConfig(t_end=0.006, integrator=integrator)

        def make():
            ctrls = self.controllers()
            ctrls[1] = _BlowUp(ctrls[1], from_step=2, size=np.nan)
            return ctrls

        trajs = self.compare(make, [cfg] * 3)
        assert [t.failed for t in trajs] == [False, True, False]
        assert trajs[1].failure_reason == "non-finite input at t=0.002000"
        assert [len(t) for t in trajs] == [6, 3, 6]
        assert np.isnan(trajs[1].u[-1]).all() and np.isfinite(trajs[1].u[:-1]).all()
        assert trajs[1].final_state.t == trajs[1].t[-1]

    @pytest.mark.parametrize("error", [SvdFailure("gesvd did not converge"),
                                       IllConditioned("inertia matrix condition 1e+13"),
                                       LinAlgError("Singular matrix")])
    def test_numerical_error_ends_its_row_only(self, error):
        self.refs = self.refs[:3]
        cfg = SimConfig(t_end=0.006)

        def make():
            ctrls = self.controllers()
            ctrls[1] = _RaiseFrom(ctrls[1], 0.0015, error)
            return ctrls

        trajs = self.compare(make, [cfg] * 3)
        assert [t.failed for t in trajs] == [False, True, False]
        assert trajs[1].failure_reason == f"{type(error).__name__} at t=0.002000: {error}"
        assert [len(t) for t in trajs] == [6, 2, 6]
        assert trajs[1].final_state.t == 0.002
        assert trajs[1].final_state.evaluation is None

    def test_other_errors_propagate(self):
        ctrls = self.controllers()
        ctrls[1] = _RaiseFrom(ctrls[1], 0.0015, TypeError("not a number"))
        with pytest.raises(TypeError, match="not a number"):
            run(self.model, ctrls, self.refs, [SimConfig(t_end=0.006)] * len(ctrls))

    def poison_physics_step(self, monkeypatch, error):
        """Make the RK4 stages k2-k4 raise ``error`` for a row whose input is
        MARKER in every entry."""
        poison = multibody.matvec(self.model.B, np.full(self.model.m, MARKER))
        original = multibody.accelerations

        def accelerations(model, q, dq, force):
            if (force == poison).all(-1).any():
                raise error
            return original(model, q, dq, force)

        monkeypatch.setattr(multibody, "accelerations", accelerations)

    def marked_controllers(self):
        """ic controllers; the second commands MARKER from its third step on."""
        ctrls = self.controllers()
        ctrls[1] = _BlowUp(ctrls[1], from_step=2, size=MARKER)
        return ctrls

    @pytest.mark.parametrize("error", [IllConditioned("inertia matrix condition 1e+13"),
                                       SvdFailure("gesvd did not converge"),
                                       LinAlgError("Singular matrix")])
    def test_numerical_error_in_physics_step_ends_its_row_only(self, monkeypatch, error):
        self.poison_physics_step(monkeypatch, error)
        cfg = SimConfig(t_end=0.006)
        trajs = self.compare(self.marked_controllers, [cfg] * 4)
        assert [t.failed for t in trajs] == [False, True, False, False]
        assert trajs[1].failure_reason == f"{type(error).__name__} at t=0.002000: {error}"
        assert [len(t) for t in trajs] == [6, 3, 6, 6]
        assert trajs[1].final_state.t == trajs[1].t[-1] == 0.002
        # the other rows are those of runs without the poisoned input
        clean = run(self.model, self.controllers(), self.refs, [cfg] * 4,
                    metadata=[{"episode": i} for i in range(4)])
        for i in (0, 2, 3):
            assert_same_episode(trajs[i], clean[i])

    def test_other_errors_in_physics_step_propagate(self, monkeypatch):
        self.poison_physics_step(monkeypatch, TypeError("not a number"))
        with pytest.raises(TypeError, match="not a number"):
            run(self.model, self.marked_controllers(), self.refs, [SimConfig(t_end=0.006)] * 4)

    @pytest.mark.parametrize("error", [SvdFailure("gesvd did not converge"),
                                       IllConditioned("inertia matrix condition 1e+13")])
    def test_numerical_error_in_evaluation_ends_its_row_only(self, monkeypatch, error):
        cfg = SimConfig(t_end=0.006)
        poison = run(self.model, self.controllers()[1:2], self.refs[1:2], [cfg])[0].q[2]
        original_task_state, original_evaluate = sim.task_state, sim.evaluate

        def check(q):
            if (q == poison).all(-1).any():
                raise error

        monkeypatch.setattr(sim, "task_state", lambda model, batch, **kw: (
            check(batch.q), original_task_state(model, batch, **kw))[1])
        monkeypatch.setattr(sim, "evaluate", lambda model, state: (
            check(state.q), original_evaluate(model, state))[1])
        trajs = self.compare(self.controllers, [cfg] * 4)
        assert [t.failed for t in trajs] == [False, True, False, False]
        assert trajs[1].failure_reason == f"{type(error).__name__} at t=0.002000: {error}"
        assert [len(t) for t in trajs] == [6, 2, 6, 6]
        assert trajs[1].final_state.t == 0.002
        assert bitwise_equal(trajs[1].final_state.q, poison)

    def test_episode_of_one_row(self):
        # the shortest episode a config allows logs one row
        cfgs = [SimConfig(t_end=0.004), SimConfig(t_end=6e-4), SimConfig(t_end=0.002),
                SimConfig(t_end=0.004)]
        trajs = self.compare(self.controllers, cfgs)
        assert [len(t) for t in trajs] == [4, 1, 2, 4]
        assert trajs[1].final_state.t == 0.001

    def test_no_episodes(self):
        assert run(self.model, [], [], []) == []
        summary, trajs = experiments.setpoint_suite("finger", "ic", thetas=())
        assert trajs == [] and summary.episodes == []

    def test_configs_must_agree_but_for_t_end(self):
        cfgs = [SimConfig(t_end=0.004)] * 3 + [SimConfig(t_end=0.004, dt_physics=5e-4)]
        with pytest.raises(ValueError, match="only in t_end"):
            run(self.model, self.controllers(), self.refs, cfgs)

    def test_one_evaluation_per_control_step_for_all_rows(self, monkeypatch):
        calls = []
        original = multibody._pose_pass   # under chain_pose and every RK4 stage

        def counted(ch, q, buffer=False):
            calls.append(q.shape)
            return original(ch, q, buffer)

        monkeypatch.setattr(multibody, "_pose_pass", counted)
        cfgs = [SimConfig(t_end=t_end) for t_end in (0.005, 0.003, 0.002, 0.002)]
        trajs = run(self.model, self.controllers(), self.refs, cfgs)
        # the shared evaluation, then RK4 stages k2..k4, each over every live
        # row; the last episode left goes on unstacked
        n = self.model.n
        assert [len(t) for t in trajs] == [5, 3, 2, 2]
        assert calls == [(4, n)] * 8 + [(2, n)] * 4 + [(n,)] * 8

    @pytest.mark.parametrize("integrator", sim.INTEGRATORS)
    def test_guard_once_per_evaluated_row(self, monkeypatch, integrator):
        calls = []
        original = multibody.factor_inertia

        def counted(mass):
            calls.append(mass.shape)
            return original(mass)

        monkeypatch.setattr(multibody, "factor_inertia", counted)
        cfg = SimConfig(t_end=0.005, integrator=integrator)
        run(self.model, self.controllers("uic"), self.refs, [cfg] * 4)
        # each row's control-step M serves its controller and the first
        # physics stage; RK4 factors each row's k2..k4 M once more
        per_step = 4 * (4 if integrator == "rk4" else 1)
        assert calls == [(self.model.n, self.model.n)] * (5 * per_step)
