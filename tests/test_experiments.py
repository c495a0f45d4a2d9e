import numpy as np
import pytest

from clfqp import experiments
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
