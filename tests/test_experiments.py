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
