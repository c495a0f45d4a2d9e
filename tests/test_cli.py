import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


class TestSingleExperiment:
    @pytest.mark.parametrize("flag,kind,experiment",
                             [("--theta", "theta", "setpoint"),
                              ("--omega", "omega", "tracking")])
    def test_one_episode(self, flag, kind, experiment, tmp_path):
        from clfqp import cli, experiments

        code = cli.main(["run", "--robot", "finger", "--controller", "ic",
                         "--experiment", "single", flag, "0.5", "--set", "sim.t_end=0.003",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        (path,) = tmp_path.glob("*.csv")
        assert path.name == f"finger_ic_single_{kind}0.5pi.csv"
        data = experiments.read_trajectory_csv(path)
        assert data["metadata"]["experiment"] == experiment
        assert data["metadata"][kind] == repr(0.5 * np.pi)
        assert len(data["t"]) == 3
        assert (tmp_path / "finger_ic_single_summary.txt").is_file()

    @pytest.mark.parametrize("flags", [[], ["--theta", "0.5", "--omega", "0.5"]])
    def test_needs_exactly_one_parameter(self, flags, tmp_path, capsys):
        from clfqp import cli

        code = cli.main(["run", "--robot", "finger", "--controller", "ic",
                         "--experiment", "single", *flags, "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION == 65
        assert capsys.readouterr().err == (
            "validation error: single experiment needs exactly one of --theta/--omega\n")
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("flag,value,message", [
        ("--theta", "nan", "theta must be finite, got nan"),
        ("--theta", "inf", "theta must be finite, got inf"),
        ("--omega", "0", "omega must be finite and positive, got 0.0"),
        ("--omega", "-1", "omega must be finite and positive, got -1.0"),
        ("--omega", "nan", "omega must be finite and positive, got nan")])
    def test_bad_parameter_is_validation_error(self, flag, value, message, tmp_path, capsys):
        from clfqp import cli

        code = cli.main(["run", "--robot", "finger", "--controller", "ic",
                         "--experiment", "single", flag, value, "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment", ["setpoint", "tracking"])
    @pytest.mark.parametrize("flag", ["--theta", "--omega"])
    def test_parameter_needs_single(self, experiment, flag, tmp_path, capsys):
        from clfqp import cli

        code = cli.main(["run", "--robot", "finger", "--controller", "ic",
                         "--experiment", experiment, flag, "0.5", "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"validation error: {flag} needs --experiment single\n")
        assert not any(tmp_path.iterdir())


class TestRobotArgument:
    def test_unknown_robot_is_validation_error(self, tmp_path, capsys):
        from clfqp import cli

        code = cli.main(["run", "--robot", "no-such-robot", "--controller", "ic",
                         "--experiment", "setpoint", "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: unknown robot 'no-such-robot'; "
            "built-ins: ['finger', 'helix', 'spirob']\n")

    def test_non_utf8_spec_is_validation_error(self, tmp_path, capsys):
        from clfqp import cli

        path = tmp_path / "bad.yaml"
        path.write_bytes(b"schema_version: 1\n# \xff\n")
        assert cli.main(["list", "gains", "--robot", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"validation error: {path}: cannot read spec: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("robot", ["finger", "helix", "spirob"])
    def test_exported_spec_path_runs_like_the_built_in(self, robot, tmp_path, capsys):
        from dataclasses import astuple

        from clfqp import cli
        from clfqp.robots import resolve_spec

        path = tmp_path / f"{robot}.yaml"
        assert cli.main(["export-spec", "--robot", robot, "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["list", "gains", "--robot", robot]) == 0
        builtin = capsys.readouterr().out
        assert cli.main(["list", "gains", "--robot", str(path)]) == 0
        assert capsys.readouterr().out == builtin
        model, gains = resolve_spec(robot).load()
        loaded, loaded_gains = resolve_spec(str(path)).load()
        for name in ("B", "u_min", "u_max", "K_s", "D_s"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes(), name
        assert list(loaded_gains) == list(gains)
        for ctrl, gain in gains.items():
            got = np.array(astuple(loaded_gains[ctrl]))
            assert got.tobytes() == np.array(astuple(gain)).tobytes(), ctrl


    def test_list_gains_prints_every_field_in_order(self, capsys):
        from clfqp import cli

        assert cli.main(["list", "gains", "--robot", "spirob"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("soft-id-clf-qp: kp=500 eps=0.01 w1=1 w2=0.2 w3=0.5 w4=0.1 "
                            "rho=1000 d_null=1")
        assert lines[4] == "ic-qp: kp=2000 eps=0.01 w1=1 w2=0.2 w3=0.5 w4=0 rho=1000 d_null=1"


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

    def test_helix_uic_runs_through_a_nan_gesdd_factor(self, tmp_path):
        # At t = 1.03 s gesdd returns non-finite U and V' for uic's
        # (I - B B^+) N (tests/data); linalg.svd redoes it with gesvd, so
        # the episode runs to its end instead of stopping on a NaN input.
        from clfqp import cli, experiments

        code = cli.main(["run", "--robot", "helix", "--controller", "uic",
                         "--experiment", "single", "--omega", "0.2",
                         "--set", "sim.t_end=1.1", "--out", str(tmp_path)])
        assert code == 0
        (path,) = tmp_path.glob("*.csv")
        data = experiments.read_trajectory_csv(path)
        assert len(data["t"]) == 1100 and "failed" not in data["metadata"]

    def test_bad_ee_offset_is_validation_error(self, tmp_path, capsys):
        from clfqp import cli

        path = tmp_path / "finger.yaml"
        assert cli.main(["export-spec", "--robot", "finger", "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        path.write_text(text + "ee_offset: [0, 0]\n", encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["list", "gains", "--robot", str(path)])
        assert code == cli.EXIT_VALIDATION == 65
        assert capsys.readouterr().err == (
            f"validation error: {path}: ee_offset must be 3 finite numbers, got [0, 0]\n")


class TestBadSimOverride:
    @pytest.mark.parametrize("pair", ["sim.t_end=-1", "sim.integrator=euler",
                                      "sim.dt_physics=nan", "sim.t_end=inf",
                                      "sim.t_end=0.0004"])
    def test_exits_as_validation_error_naming_the_key(self, pair, tmp_path, capsys):
        from clfqp import cli

        code = cli.main(["run", "--robot", "finger", "--controller", "ic",
                         "--experiment", "setpoint", "--set", pair, "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION == 65
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: override {pair.partition('=')[0]}: ")
        assert not any(tmp_path.iterdir())

    def test_override_that_leaves_no_step_blames_the_override(self, tmp_path, capsys):
        # finger's spec has no sim section: the override alone is at fault
        from clfqp import cli

        code = cli.main(["run", "--robot", "finger", "--controller", "ic",
                         "--experiment", "setpoint", "--set", "sim.dt_physics=20",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION == 65
        assert capsys.readouterr().err.startswith(
            "validation error: override sim.dt_physics: t_end must give at least one "
            "control step")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("pair", ["sim.dt=1", "sim.initial_state=0"])
    def test_unknown_key_exits_as_validation_error(self, pair, tmp_path, capsys):
        from clfqp import cli

        code = cli.main(["run", "--robot", "finger", "--controller", "ic",
                         "--experiment", "setpoint", "--set", pair, "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION == 65
        assert capsys.readouterr().err == (
            f"validation error: unknown override key {pair.partition('=')[0]!r}\n")
        assert not any(tmp_path.iterdir())

    def test_sim_keys_are_simconfig_fields_but_the_start_state(self):
        from clfqp import cli

        assert cli.SIM_KEYS == {"dt_physics": float, "control_decimation": int,
                                "integrator": str, "t_end": float}


class TestBadGain:
    def test_spec_gain_names_the_spec_and_law(self, tmp_path, capsys):
        from clfqp import cli

        path = tmp_path / "f.yaml"
        assert cli.main(["export-spec", "--robot", "finger", "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        old = "  ic:\n    kp: 500.0\n"
        assert text.count(old) == 1
        path.write_text(text.replace(old, "  ic:\n    kp: -1.0\n"), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["run", "--robot", str(path), "--controller", "ic",
                         "--experiment", "setpoint", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION == 65
        assert capsys.readouterr().err == (
            f"validation error: {path}: gains[ic]: gain kp must be positive\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pair,message", [
        ("gains.kp=-1", "override gains.kp: gain kp must be positive"),
        ("gains.w2=-0.5", "override gains.w2: gain w2 must be nonnegative"),
        ("gains.kp=nan", "override gains.kp: gain kp must be finite, got nan"),
        ("gains.w1=nan", "override gains.w1: gain w1 must be finite, got nan"),
        ("gains.rho=nan", "override gains.rho: gain rho must be finite, got nan"),
        ("gains.eps=inf", "override gains.eps: gain eps must be finite, got inf")])
    def test_override_gain_names_the_override(self, pair, message, tmp_path, capsys):
        from clfqp import cli

        code = cli.main(["run", "--robot", "finger", "--controller", "ic",
                         "--experiment", "setpoint", "--set", "gains.eps=0.1", "--set", pair,
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION == 65
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not any(tmp_path.iterdir())


class TestUnknownSpecKey:
    @pytest.mark.parametrize("line,message", [
        ("workspace_scal: 0.75", "unknown keys ['workspace_scal']"),
        ("sim: 3", "sim must be a mapping, got 3")])
    def test_exits_as_validation_error_naming_the_key(self, line, message, tmp_path, capsys):
        from clfqp import cli

        path = tmp_path / "finger.yaml"
        assert cli.main(["export-spec", "--robot", "finger", "--out", str(path)]) == 0
        path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["run", "--robot", str(path), "--controller", "ic",
                         "--experiment", "setpoint", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION == 65
        assert capsys.readouterr().err == f"validation error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()


class TestInfiniteWorkspaceScale:
    @pytest.mark.parametrize("experiment", ["setpoint", "tracking"])
    def test_exits_as_validation_error(self, experiment, tmp_path, capsys):
        from clfqp import cli

        path = tmp_path / "spirob.yaml"
        assert cli.main(["export-spec", "--robot", "spirob", "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert text.count("workspace_scale: 0.75\n") == 1
        path.write_text(text.replace("workspace_scale: 0.75\n", "workspace_scale: .inf\n"),
                        encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["run", "--robot", str(path), "--controller", "ic",
                         "--experiment", experiment, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION == 65
        assert capsys.readouterr().err == (f"validation error: {path}: bad workspace_scale inf"
                                           " (a finite number above 1/8)\n")
        assert not (tmp_path / "out").exists()


class TestMalformedSpecValue:
    @pytest.mark.parametrize("old,new,message", [
        ("symmetric: 1.0", "symmetric: abc", "bounds: could not convert string to float: 'abc'"),
        ("symmetric: 1.0", "min: [-1.0, -1.0]", "bounds: missing 'max'"),
        ("symmetric: 1.0", "symmetric: .nan", "u_min entries must be finite"),
        ("stiffness:\n- 0.1\n", "stiffness:\n- .nan\n", "K_s entries must be finite"),
        ("damping:\n- 0.01\n", "damping:\n- .inf\n", "D_s entries must be finite"),
        ("arm: 0.5\n    - joints", "arm: .nan\n    - joints", "B entries must be finite"),
        ("- -9.81\n", "- .nan\n", "gravity must be 3 finite numbers, got (0.0, 0.0, nan)"),
        ("links:\n- mass: 0.05\n", "links:\n- mass: .nan\n",
         "links[0] mass must be finite, got nan"),
        ("links:\n- mass: 0.05\n  com:\n  - 0.0\n", "links:\n- mass: 0.05\n  com:\n  - .nan\n",
         "links[0] com must be 3 finite numbers, got (nan, 0.0, -0.03)"),
        ("  - 6.25e-07\n  length: 0.06\njoints:", "  - .nan\n  length: 0.06\njoints:",
         "links[3] inertia must be 3 finite numbers, got (1.53125e-05, 1.53125e-05, nan)"),
        ("  - 6.25e-07\n  length: 0.06\njoints:", "  length: 0.06\njoints:",
         "links[3] inertia must be 3 finite numbers, got (1.53125e-05, 1.53125e-05)"),
        ("- -9.81\n", "", "gravity must be 3 finite numbers, got (0.0, 0.0)"),
        ("length: 0.06\njoints:", "length: .inf\njoints:",
         "links[3] length must be finite, got inf")])
    def test_exits_as_validation_error_naming_spec_and_section(self, old, new, message,
                                                               tmp_path, capsys):
        from clfqp import cli

        path = tmp_path / "f.yaml"
        assert cli.main(["export-spec", "--robot", "finger", "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["run", "--robot", str(path), "--controller", "ic",
                         "--experiment", "setpoint", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION == 65
        assert capsys.readouterr().err == f"validation error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()
