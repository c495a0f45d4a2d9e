import numpy as np
import pytest

from clfqp import experiments
from clfqp.multibody import RobotState
from clfqp.robots import RobotSpecFile, builtin_registry

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


class TestFailureDetection:
    def test_divergence_stop(self):
        from toys import two_link

        model = two_link()
        check = experiments._divergence_stop(model)
        limit = experiments.DIVERGENCE_FACTOR * model.L
        rest = model.rest_state()
        assert check(rest, np.array([0.0, 0.99 * limit])) == ""
        assert check(rest, np.array([0.0, 1.01 * limit])) == "task error beyond 2L"
        at_limit = RobotState(np.zeros(2), np.array([0.0, -experiments.SPEED_LIMIT]))
        assert check(at_limit, np.zeros(2)) == ""
        fast = RobotState(np.zeros(2), np.array([0.0, -1.01 * experiments.SPEED_LIMIT]))
        assert check(fast, np.zeros(2)) == "joint speed beyond 1e+03 rad/s"

    @pytest.mark.parametrize("decimation", [1, 4])
    def test_persistent_infeasibility(self, decimation):
        from clfqp.sim import SimConfig, _new_trajectory
        from toys import two_link

        cfg = SimConfig(dt_physics=2.5e-3, control_decimation=decimation, t_end=3.0)
        window = round(experiments.INFEASIBLE_WINDOW / (cfg.dt_physics * decimation))
        traj = _new_trajectory(two_link(), cfg, None)
        assert len(traj) > 2 * window + 2

        def scan(streaks):
            traj.qp_status = ["Optimal"] * len(traj)
            for start, length in streaks:
                traj.qp_status[start:start + length] = ["Infeasible"] * length
            return experiments._persistent_infeasibility(traj, cfg)

        assert scan([(3, window - 1)]) == ""
        assert scan([(0, window - 1), (window, window - 1)]) == ""
        assert scan([(3, window)]) == "QP infeasible for more than 1 s"
        assert scan([(len(traj) - window, window)]) == "QP infeasible for more than 1 s"


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
