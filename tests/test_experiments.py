import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from clfqp import experiments
from clfqp.multibody import RobotState
from clfqp.robots import RobotSpecFile, builtin_registry, resolve_spec
from oracles import row_by_row_trajectory_csv
from test_lockstep import assert_same_episode

SHORT = {"t_end": 0.002}


@pytest.fixture
def load_calls(monkeypatch):
    calls = []
    load = RobotSpecFile.load
    monkeypatch.setattr(RobotSpecFile, "load", lambda spec: calls.append(spec.name) or load(spec))
    return calls


class TestSpecLoads:
    """A suite call builds its model once, whatever its episode count."""

    @pytest.mark.parametrize("robot", ["finger", "spec"])
    def test_setpoint_suite_loads_once(self, load_calls, robot):
        robot = builtin_registry()["finger"] if robot == "spec" else robot
        summary, trajs = experiments.setpoint_suite(
            robot, "ic", thetas=experiments.THETA_GRID[:2], sim_overrides=SHORT)
        assert len(trajs) == 2 and not summary.any_failed
        assert load_calls == ["finger"]

    def test_tracking_suite_loads_once(self, load_calls):
        summary, trajs = experiments.tracking_suite(
            "finger", "ic", omegas=experiments.OMEGA_GRID[:3], sim_overrides=SHORT)
        assert len(trajs) == 3 and not summary.any_failed
        assert load_calls == ["finger"]

    def test_sim_config_reads_spec_without_loading(self, load_calls):
        spec = builtin_registry()["finger"]
        sim_prefs = {"dt_physics": 5e-4, "control_decimation": 2,
                     "integrator": "semi-implicit-euler"}
        spec = RobotSpecFile(name=spec.name, text=spec.text, data=dict(spec.data, sim=sim_prefs))
        cfg = experiments.sim_config_for(spec, 3.0, {"control_decimation": 4})
        assert (cfg.dt_physics, cfg.control_decimation, cfg.integrator, cfg.t_end) == (
            5e-4, 4, "semi-implicit-euler", 3.0)
        assert load_calls == []


def same_bits(a, b) -> bool:
    """Equal values, NaN included, and equal sign bits (so -0.0 != 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestCsvRoundTrip:
    @pytest.mark.parametrize("controller", ["uic", "clf-qp"])
    def test_every_column_reads_back_exactly(self, tmp_path, controller):
        _, trajs = experiments.setpoint_suite("finger", controller,
                                              sim_overrides={"t_end": 0.006})
        assert len(trajs) == len(experiments.THETA_GRID)    # one lockstep run
        for i, traj in enumerate(trajs):
            path = tmp_path / f"episode{i}.csv"
            experiments.export_trajectory_csv(traj, path)
            data = experiments.read_trajectory_csv(path)
            assert data["columns"] == experiments.trajectory_columns(traj)
            err = traj.y - traj.y_ref
            v0 = traj.V[0] if np.isfinite(traj.V[0]) and traj.V[0] > 0.0 else 1.0
            expected = {"t": traj.t, "V": traj.V, "V_over_V0": traj.V / v0,
                        "Vdot": traj.Vdot, "delta": traj.delta,
                        "solve_time_ms": traj.solve_time * 1000.0}
            for k, axis in enumerate(("x", "z")):
                expected.update({f"e_{axis}": err[:, k], f"y_{axis}": traj.y[:, k],
                                 f"yref_{axis}": traj.y_ref[:, k]})
            for k in range(traj.u.shape[1]):
                expected[f"u_{k + 1}"] = traj.u[:, k]
            assert set(expected) == set(data["columns"]) - {"qp_status"}
            for name, values in expected.items():
                assert same_bits(data[name], values), name
            assert data["qp_status"] == traj.qp_status
            assert data["metadata"]["theta"] == str(traj.metadata["theta"])


class TestCsvBytes:
    """The exporter writes the bytes of the row-by-row writer it replaced
    (``oracles.row_by_row_trajectory_csv``)."""

    @staticmethod
    def assert_same_file(traj, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        experiments.export_trajectory_csv(traj, got)
        row_by_row_trajectory_csv(traj, want, experiments.trajectory_columns(traj))
        assert got.read_bytes() == want.read_bytes()

    def test_held_inputs_with_nan_delta(self, tmp_path):
        _, (traj,) = experiments.tracking_suite("spirob", "clf-qp",
                                                omegas=experiments.OMEGA_GRID[4:5],
                                                sim_overrides={"t_end": 0.01})
        assert np.isnan(traj.delta).any() and "Infeasible" in traj.qp_status
        assert traj.metadata
        self.assert_same_file(traj, tmp_path)

    def test_failed_episode_and_edge_values(self, tmp_path):
        _, trajs = experiments.setpoint_suite("finger", "uic",
                                              thetas=experiments.THETA_GRID[:1],
                                              sim_overrides={"t_end": 0.004})
        traj = trajs[0]
        u = traj.u.copy()
        u[0, 0], u[1, 0], u[2, 0] = -0.0, 1e-310, -np.inf
        delta = traj.delta.copy()
        delta[1] = np.nan
        edited = dataclasses.replace(traj, u=u, delta=delta, failed=True,
                                     failure_reason="non-finite input at t=0.002000",
                                     metadata={**traj.metadata, "note": "a: b, c"})
        self.assert_same_file(edited, tmp_path)
        text = (tmp_path / "got.csv").read_text(encoding="utf-8")
        assert "# failed: non-finite input at t=0.002000\n" in text

    @pytest.mark.parametrize("v0", [0.0, np.nan])
    def test_unusable_first_value_and_no_rows(self, tmp_path, v0):
        _, trajs = experiments.setpoint_suite("finger", "ic",
                                              thetas=experiments.THETA_GRID[:1],
                                              sim_overrides={"t_end": 0.003})
        traj = trajs[0]
        V = traj.V.copy()
        V[0] = v0
        self.assert_same_file(dataclasses.replace(traj, V=V), tmp_path)
        empty = {name: getattr(traj, name)[:0] for name in
                 ("t", "y", "y_ref", "u", "V", "Vdot", "delta", "solve_time")}
        self.assert_same_file(dataclasses.replace(traj, qp_status=[], **empty), tmp_path)


class TestOneShotGrids:
    """A grid given as a generator is read once, into the same episodes as
    the tuple grid."""

    @pytest.mark.parametrize("suite,key,grid", [
        (experiments.setpoint_suite, "thetas", experiments.THETA_GRID[:3]),
        (experiments.tracking_suite, "omegas", experiments.OMEGA_GRID[-2:]),
    ])
    def test_generator_grid_equals_tuple_grid(self, suite, key, grid):
        want, want_trajs = suite("finger", "ic", sim_overrides=SHORT, **{key: grid})
        got, got_trajs = suite("finger", "ic", sim_overrides=SHORT,
                               **{key: (value for value in grid)})
        assert len(got.episodes) == len(got_trajs) == len(grid)
        for a, b in zip(got.episodes, want.episodes):
            assert (a.parameter, repr(a.metric), a.failed, a.failure_reason) == (
                b.parameter, repr(b.metric), b.failed, b.failure_reason)
        for a, b in zip(got_trajs, want_trajs):
            for name in ("t", "q", "dq", "y", "y_ref", "u", "mu", "delta", "V", "Vdot",
                         "saturated"):
                assert same_bits(getattr(a, name), getattr(b, name)), name
            assert a.qp_status == b.qp_status and a.metadata == b.metadata
            assert same_bits(a.final_state.q, b.final_state.q)


def _workloads(monkeypatch):
    """bench/workloads.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class _ReportsInfeasible:
    """Controller that holds zero input and reports its QP infeasible on the
    control steps in ``rows``."""

    def __init__(self, model, rows):
        self.model, self.rows, self.k = model, set(rows), 0

    def reset(self):
        self.k = 0

    def step(self, state, ref):
        from clfqp.controllers import ControlStepLog

        status = "Infeasible" if self.k in self.rows else "Optimal"
        self.k += 1
        u = np.zeros(self.model.m)
        return u, ControlStepLog(u=u, mu=np.zeros(self.model.task_dim), delta=0.0, V=1.0,
                                 Vdot=0.0, qp_status=status, solve_time=0.0,
                                 saturated=np.zeros(self.model.m, dtype=bool))


class _AlwaysInfeasible:
    """Controller proxy that reports every QP it steps infeasible."""

    def __init__(self, inner):
        self._inner = inner

    def reset(self):
        self._inner.reset()

    def step(self, state, ref):
        u, log = self._inner.step(state, ref)
        return u, dataclasses.replace(log, qp_status="Infeasible")


class TestFailureDetection:
    def log(self, status="Optimal"):
        from clfqp.controllers import ControlStepLog

        return ControlStepLog(u=np.zeros(2), mu=np.zeros(2), delta=0.0, V=1.0, Vdot=0.0,
                              qp_status=status, solve_time=0.0,
                              saturated=np.zeros(2, dtype=bool))

    def test_divergence_stop(self):
        from clfqp.sim import SimConfig
        from toys import two_link

        model = two_link()
        check = experiments._episode_stop(model, SimConfig())
        limit = experiments.DIVERGENCE_FACTOR * model.L
        rest = model.rest_state()
        assert check(rest, np.array([0.0, 0.99 * limit]), self.log()) == ""
        assert check(rest, np.array([0.0, 1.01 * limit]), self.log()) == "task error beyond 2L"
        at_limit = RobotState(np.zeros(2), np.array([0.0, -experiments.SPEED_LIMIT]))
        assert check(at_limit, np.zeros(2), self.log()) == ""
        fast = RobotState(np.zeros(2), np.array([0.0, -1.01 * experiments.SPEED_LIMIT]))
        assert check(fast, np.zeros(2), self.log()) == "joint speed beyond 1e+03 rad/s"

    @pytest.mark.parametrize("decimation", [1, 4])
    def test_persistent_infeasibility(self, monkeypatch, decimation):
        """A QP infeasible on every control step of INFEASIBLE_WINDOW ends the
        episode at the step that completes the window; a shorter streak
        does not, and a lockstep sibling is untouched."""
        from clfqp.sim import SimConfig, run
        from toys import two_link

        model = two_link()
        cfg = SimConfig(dt_physics=1e-2, control_decimation=decimation, t_end=2.2)
        window = round(experiments.INFEASIBLE_WINDOW / (cfg.dt_physics * decimation))
        rows = round(cfg.t_end / (cfg.dt_physics * decimation))
        assert rows > 2 * window
        streaks = [range(3, 3 + window - 1),                          # one short
                   [*range(0, window - 1), *range(window, 2 * window - 1)],  # two short
                   range(3, 3 + window),                              # one full
                   range(rows - window, rows)]                        # full at the end
        refs = [experiments.Reference.setpoint(np.array([0.1, -0.8]))] * len(streaks)
        cfgs = [cfg] * len(streaks)

        def episodes(together):
            ctrls = [_ReportsInfeasible(model, streak) for streak in streaks]
            stops = [experiments._episode_stop(model, cfg) for cfg in cfgs]
            if together:
                return run(model, ctrls, refs, cfgs, stops)
            return [run(model, *([arg] for arg in args))[0]
                    for args in zip(ctrls, refs, cfgs, stops)]

        trajs = episodes(together=True)
        for got, want in zip(trajs, episodes(together=False)):
            assert_same_episode(got, want)
        # the reason names what was counted: window rows, each infeasible
        reason = f"QP infeasible on {window} consecutive control steps of {10 * decimation} ms"
        assert [t.failure_reason for t in trajs] == ["", "", reason, reason]
        assert [len(t) for t in trajs] == [rows, rows, 3 + window, rows]
        assert trajs[2].qp_status[-window:] == ["Infeasible"] * window
        assert trajs[2].qp_status[-window - 1] != "Infeasible"
        # the boundary row lies (window - 1) control steps after the first
        dt_ctrl = cfg.dt_physics * decimation
        assert round((trajs[2].t[-1] - trajs[2].t[-window]) / dt_ctrl) == window - 1
        assert trajs[2].final_state.t == trajs[2].t[-1]
        episode = experiments.EpisodeResult(0.0, trajs[2], 0.0, True, trajs[2].failure_reason)
        assert _workloads(monkeypatch).failure_code(episode) == "qp_infeasible"

    def test_suite_stops_each_episode_on_its_own(self, monkeypatch):
        """The suites give each episode its own stop: one that stays
        infeasible ends alone, and its sibling is the one a suite call of
        its own gives."""
        make = experiments.make_controller
        made = []

        def make_controller(name, model, gains):
            made.append(make(name, model, gains))
            return _AlwaysInfeasible(made[-1]) if len(made) == 2 else made[-1]

        monkeypatch.setattr(experiments, "make_controller", make_controller)
        monkeypatch.setattr(experiments, "INFEASIBLE_WINDOW", 0.04)   # 10 control steps
        overrides = {"t_end": 0.06, "control_decimation": 4}
        grid = experiments.THETA_GRID[:2]
        summary, (ok, stopped) = experiments.setpoint_suite("finger", "ic", thetas=grid,
                                                            sim_overrides=overrides)
        assert not ok.failed and stopped.failure_reason == (
            "QP infeasible on 10 consecutive control steps of 4 ms")
        assert (len(ok), len(stopped)) == (15, 10)
        _, (alone,) = experiments.setpoint_suite("finger", "ic", thetas=grid[:1],
                                                 sim_overrides=overrides)
        assert_same_episode(ok, alone)


class TestReach:
    """Set points are checked against the arclength L on every robot; the
    ellipse follows the spec's workspace_scale, never the robot's name."""

    @pytest.mark.parametrize("robot", ["finger", "helix", "spirob"])
    def test_every_grid_point_is_accepted(self, robot):
        spec = builtin_registry()[robot]
        model, _ = spec.load()
        params = experiments.EllipseParams.for_robot(model, spec.workspace_scale)
        reach = [np.linalg.norm(experiments.ellipse_point(params, theta))
                 for theta in experiments.THETA_GRID]
        assert max(reach) <= model.L + 1e-9
        summary, _ = experiments.setpoint_suite(robot, "ic", sim_overrides=SHORT)
        assert len(summary.episodes) == len(experiments.THETA_GRID)

    @pytest.mark.parametrize("robot,scale", [("finger", 1.0), ("helix", 1.0),
                                             ("spirob", 0.75)])
    def test_center_offset(self, robot, scale):
        spec = builtin_registry()[robot]
        assert spec.workspace_scale == scale
        model, _ = spec.load()
        params = experiments.EllipseParams.for_robot(model, spec.workspace_scale)
        assert params.c == scale * model.L - model.L / 8.0

    def spec_file(self, tmp_path, robot, old, new):
        text = builtin_registry()[robot].text
        assert text.count(old) == 1
        path = tmp_path / f"{robot}-copy.yaml"
        path.write_text(text.replace(old, new), encoding="utf-8")
        return str(path)

    def test_setpoint_beyond_reach_raises(self, tmp_path):
        path = self.spec_file(tmp_path, "finger", "task_dim: 2\n",
                              "task_dim: 2\nworkspace_scale: 1.2\n")
        with pytest.raises(ValueError, match="exceeds reach"):
            experiments.setpoint_suite(path, "ic", thetas=experiments.THETA_GRID[:1],
                                       sim_overrides=SHORT)

    def test_cli_exits_65_beyond_reach(self, tmp_path, capsys):
        from clfqp import cli

        path = self.spec_file(tmp_path, "finger", "task_dim: 2\n",
                              "task_dim: 2\nworkspace_scale: 1.2\n")
        code = cli.main(["run", "--robot", path, "--controller", "ic", "--experiment",
                         "setpoint", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert "exceeds reach 0.240 m" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0.0", "-1", "true", "wide"])
    def test_bad_scale_is_validation_error(self, tmp_path, scale):
        from clfqp.robots import ValidationError

        path = self.spec_file(tmp_path, "finger", "task_dim: 2\n",
                              f"task_dim: 2\nworkspace_scale: {scale}\n")
        with pytest.raises(ValidationError, match="bad workspace_scale"):
            experiments.setpoint_suite(path, "ic", sim_overrides=SHORT)

    @pytest.mark.parametrize("scale", ["0.1", "0.125"])
    def test_scale_of_an_eighth_or_less_is_validation_error(self, tmp_path, capsys, scale):
        # the centre offset s L - L/8 would put the ellipse at or behind the base
        from clfqp import cli
        from clfqp.robots import ValidationError

        path = self.spec_file(tmp_path, "spirob", "workspace_scale: 0.75\n",
                              f"workspace_scale: {scale}\n")
        with pytest.raises(ValidationError, match=f"{path}: bad workspace_scale"):
            resolve_spec(path).workspace_scale
        code = cli.main(["run", "--robot", path, "--controller", "ic", "--experiment",
                         "setpoint", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert "bad workspace_scale" in capsys.readouterr().err

    def test_scale_just_above_an_eighth_is_accepted(self, tmp_path):
        path = self.spec_file(tmp_path, "spirob", "workspace_scale: 0.75\n",
                              "workspace_scale: 0.13\n")
        spec = resolve_spec(path)
        params = experiments.EllipseParams.for_robot(spec.load()[0], spec.workspace_scale)
        assert spec.workspace_scale == 0.13 and params.c > 0.0

    def test_renamed_spirob_runs_the_same_episodes(self, tmp_path):
        path = self.spec_file(tmp_path, "spirob", "name: spirob\n", "name: coil\n")
        for suite in (experiments.setpoint_suite, experiments.tracking_suite):
            want, want_trajs = suite("spirob", "ic", sim_overrides=SHORT)
            got, got_trajs = suite(path, "ic", sim_overrides=SHORT)
            assert got.robot == "coil"
            for a, b in zip(got.episodes, want.episodes):
                assert (a.parameter, repr(a.metric), a.failed) == (
                    b.parameter, repr(b.metric), b.failed)
            for a, b in zip(got_trajs, want_trajs):
                for name in ("t", "q", "dq", "y", "y_ref", "u", "V", "Vdot"):
                    assert same_bits(getattr(a, name), getattr(b, name)), name
                assert same_bits(a.final_state.q, b.final_state.q)
        params = [experiments.EllipseParams.for_robot(spec.load()[0], spec.workspace_scale)
                  for spec in (resolve_spec("spirob"), resolve_spec(path))]
        assert params[0] == params[1]


class TestSimSection:
    """A spec's sim values reach SimConfig as written; one it rejects, or a
    key that is not one of SimConfig's protocol fields, is a ValidationError
    naming the spec file and the key."""

    def spec_with_sim(self, tmp_path, lines):
        text = builtin_registry()["finger"].text
        path = tmp_path / "finger-copy.yaml"
        path.write_text(text.replace("task_dim: 2\n", "task_dim: 2\nsim:\n" + "".join(
            f"  {line}\n" for line in lines), 1), encoding="utf-8")
        return str(path)

    def test_values_pass_through(self, tmp_path):
        path = self.spec_with_sim(tmp_path, ["dt_physics: 5.0e-4", "control_decimation: 2",
                                             "integrator: semi-implicit-euler"])
        cfg = experiments.sim_config_for(path, 3.0)
        assert (cfg.dt_physics, cfg.control_decimation, cfg.integrator, cfg.t_end) == (
            5e-4, 2, "semi-implicit-euler", 3.0)

    # PyYAML reads 1e-3 (no decimal point) as a string
    @pytest.mark.parametrize("line,key", [("control_decimation: 2.7", "control_decimation"),
                                          ("control_decimation: true", "control_decimation"),
                                          ("dt_physics: 1e-3", "dt_physics")])
    def test_bad_value_is_validation_error(self, tmp_path, capsys, line, key):
        from clfqp import cli
        from clfqp.robots import ValidationError

        path = self.spec_with_sim(tmp_path, [line])
        with pytest.raises(ValidationError) as info:
            experiments.sim_config_for(path, 1.0)
        assert str(info.value).startswith(f"{path}: sim.{key} must be ")
        code = cli.main(["run", "--robot", path, "--controller", "ic", "--experiment",
                         "setpoint", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert f"{path}: sim.{key} must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("lines,keys", [(["dt: 0.5", "control_decimaton: 3"],
                                             ["dt", "control_decimaton"]),
                                            (["initial_state: 0"], ["initial_state"])])
    def test_unknown_key_is_validation_error(self, tmp_path, capsys, lines, keys):
        from clfqp import cli
        from clfqp.robots import ValidationError

        path = self.spec_with_sim(tmp_path, lines)
        message = f"{path}: unknown sim keys {keys}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            experiments.sim_config_for(path, 1.0)
        code = cli.main(["run", "--robot", path, "--controller", "ic", "--experiment",
                         "setpoint", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_t_end_in_spec_is_validation_error(self, tmp_path, capsys):
        from clfqp import cli
        from clfqp.robots import ValidationError

        path = self.spec_with_sim(tmp_path, ["dt_physics: 1.0e-3", "t_end: 0.5"])
        message = f"{path}: sim.t_end is set by the experiment, not by the spec"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            experiments.sim_config_for(path, 1.0)
        code = cli.main(["run", "--robot", path, "--controller", "ic", "--experiment",
                         "tracking", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_t_end_override_still_sets_every_episode(self, tmp_path):
        from clfqp import cli

        assert experiments.sim_config_for("finger", 1.0, {"t_end": 0.5}).t_end == 0.5
        out = tmp_path / "out"
        code = cli.main(["run", "--robot", "finger", "--controller", "ic", "--experiment",
                         "tracking", "--set", "sim.t_end=0.002", "--out", str(out)])
        assert code == cli.EXIT_OK
        files = sorted(out.glob("*.csv"))
        assert len(files) == len(experiments.OMEGA_GRID)
        assert [len(experiments.read_trajectory_csv(f)["t"]) for f in files] == [2] * 5

    @pytest.mark.parametrize("overrides,blamed", [
        ({"control_decimation": 20000}, "override sim.control_decimation: "),
        ({"dt_physics": 20.0}, "override sim.dt_physics: "),
        ({"dt_physics": 0.5, "control_decimation": 40},
         "override sim.dt_physics, sim.control_decimation: ")])
    def test_override_that_leaves_no_step_blames_the_overrides(self, overrides, blamed):
        # finger's spec has no sim section, so only the overrides can be at fault
        from clfqp.robots import ValidationError

        with pytest.raises(ValidationError) as info:
            experiments.sim_config_for("finger", 10.0, overrides)
        assert str(info.value).startswith(
            blamed + "t_end must give at least one control step")

    def test_bad_spec_value_blames_the_spec_beside_a_good_override(self, tmp_path):
        from clfqp.robots import ValidationError

        path = self.spec_with_sim(tmp_path, ["control_decimation: 2.7"])
        with pytest.raises(ValidationError) as info:
            experiments.sim_config_for(path, 1.0, {"dt_physics": 5e-4})
        assert str(info.value).startswith(f"{path}: sim.control_decimation must be ")

    def test_spec_that_fails_only_with_an_override_blames_the_override(self, tmp_path):
        from clfqp.robots import ValidationError

        path = self.spec_with_sim(tmp_path, ["control_decimation: 100"])
        assert experiments.sim_config_for(path, 1.0).control_decimation == 100
        with pytest.raises(ValidationError) as info:
            experiments.sim_config_for(path, 1.0, {"t_end": 0.05})
        assert str(info.value).startswith("override sim.t_end: t_end must give ")

    def test_unknown_override_key_is_validation_error(self):
        from clfqp.robots import ValidationError

        with pytest.raises(ValidationError,
                           match=r"^finger: unknown sim override keys \['initial_state'\]$"):
            experiments.sim_config_for("finger", 1.0, {"initial_state": None})

    def test_defaults_and_metadata_come_from_simconfig(self):
        from clfqp.sim import SimConfig, _new_trajectory

        cfg = experiments.sim_config_for("finger", 2.0)
        assert cfg == SimConfig(t_end=2.0)
        model, _ = builtin_registry()["finger"].load()
        assert _new_trajectory(model, cfg, {"robot": "finger"}).metadata == {
            "robot": "finger", "dt_physics": 1e-3, "control_decimation": 1,
            "integrator": "rk4", "t_end": 2.0}


class TestEllipseDerivatives:
    @pytest.mark.parametrize("task_dim", [2, 3])
    def test_match_central_differences(self, task_dim):
        params = experiments.EllipseParams(a=0.1, b=0.04, phi=np.pi / 4.0, c=0.2)
        omega = 0.5 * np.pi
        ref = experiments.ellipse_trajectory(params, omega, task_dim)
        h1, h2 = 1e-5, 1e-3
        for t in (0.0, 0.3, 1.1, 2.5, 3.9):
            y, dy, ddy = ref.at(t)
            assert y.shape == dy.shape == ddy.shape == (task_dim,)
            dy_fd = (ref.y_ref(t + h1) - ref.y_ref(t - h1)) / (2.0 * h1)
            ddy_fd = (ref.y_ref(t + h2) - 2.0 * y + ref.y_ref(t - h2)) / h2 ** 2
            assert np.allclose(dy, dy_fd, rtol=0.0, atol=1e-9)
            assert np.allclose(ddy, ddy_fd, rtol=0.0, atol=1e-6)


class TestEllipseBits:
    """The tilt's sine and cosine are made once per ellipse and give the
    bits of working them out at every point."""

    @pytest.mark.parametrize("task_dim", [2, 3])
    def test_points_match_the_per_call_formula(self, task_dim):
        params = experiments.EllipseParams(a=0.1, b=0.04, phi=np.pi / 4.0, c=0.2)
        omega = 0.3 * np.pi
        ref = experiments.ellipse_trajectory(params, omega, task_dim)
        rows = [0, 2] if task_dim == 3 else [0, 1]
        for t in np.linspace(0.0, 7.0, 29):
            theta = omega * t
            s, c_phi = np.sin(params.phi), np.cos(params.phi)
            radial = params.b * np.sin(theta) - params.c
            x = params.a * np.cos(theta) * c_phi - radial * s
            z = params.a * np.cos(theta) * s + radial * c_phi
            assert experiments.ellipse_point(params, theta) == (float(x), float(z))
            assert same_bits(ref.y_ref(t)[rows], np.array([x, z]))
