import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def clfqp(module, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["clfqp", "clfqp.cli"])
class TestModuleEntry:
    def test_list_succeeds(self, module):
        proc = clfqp(module, "list", "robots")
        assert proc.returncode == 0
        assert proc.stdout.split() == ["finger", "helix", "spirob"]

    def test_bad_controller_fails(self, module, tmp_path):
        proc = clfqp(module, "run", "--robot", "finger", "--controller", "no-such-law",
                     "--experiment", "setpoint", "--out", str(tmp_path))
        assert proc.returncode != 0
        assert "no-such-law" in proc.stderr


class TestRun:
    def test_setpoint_smoke_run(self, tmp_path):
        from clfqp.experiments import read_trajectory_csv

        proc = clfqp("clfqp", "run", "--robot", "finger", "--controller", "uic",
                     "--experiment", "setpoint", "--set", "sim.t_end=0.005",
                     "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 4
        assert (tmp_path / "finger_uic_setpoint_summary.txt").is_file()
        for path in csvs:
            data = read_trajectory_csv(path)
            assert len(data["t"]) == 5
            assert data["metadata"]["override_t_end"] == "0.005"

    def test_bad_flag_is_usage_error(self, tmp_path):
        proc = clfqp("clfqp", "run", "--robot", "finger", "--controller", "uic",
                     "--experiment", "setpoint", "--no-such-flag", "--out", str(tmp_path))
        assert proc.returncode == 64
        assert "no-such-flag" in proc.stderr


class TestFailedConvergence:
    def test_failed_episode_exits_2_and_still_writes(self, monkeypatch, tmp_path, capsys):
        from clfqp import cli, experiments

        suite = experiments.setpoint_suite

        def one_failed(*args, **kwargs):
            summary, trajs = suite(*args, **kwargs)
            episode = summary.episodes[1]
            episode.failed = episode.trajectory.failed = True
            episode.failure_reason = episode.trajectory.failure_reason = "task error beyond 2L"
            return summary, trajs

        monkeypatch.setattr(experiments, "setpoint_suite", one_failed)
        code = cli.main(["run", "--robot", "finger", "--controller", "ic",
                         "--experiment", "setpoint", "--set", "sim.t_end=0.003",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_FAILED_CONVERGENCE == 2
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 4
        reasons = [experiments.read_trajectory_csv(p)["metadata"].get("failed") for p in csvs]
        assert [r for r in reasons if r] == ["task error beyond 2L"]
        text = (tmp_path / "finger_ic_setpoint_summary.txt").read_text(encoding="utf-8")
        assert text.count("status=FailedConvergence(task error beyond 2L)") == 1
        assert text.count("status=ok") == 3
        assert "Failed Convergence in 1/4" in capsys.readouterr().out
