import re

import numpy as np
import pytest
import yaml

from clfqp.robots import (
    SPEC_KEYS,
    GainSet,
    ParseError,
    RobotSpecFile,
    ValidationError,
    builtin_registry,
    loads_robot,
    resolve_spec,
)

from toys import load_builtin

MINIMAL = """
schema_version: 1
name: mini
task_dim: 2
links:
  - {mass: 0.1, com: [0, 0, -0.05], inertia: [1.0e-4, 1.0e-4, 1.0e-6], length: 0.1}
  - {mass: 0.1, com: [0, 0, -0.05], inertia: [1.0e-4, 1.0e-4, 1.0e-6], length: 0.1}
joints:
  - {type: revolute, axis: [0, -1, 0]}
  - {type: revolute, axis: [0, -1, 0]}
stiffness: 0.05
damping: 0.01
actuation: {matrix: [[1.0, 0.0], [0.0, 1.0]]}
bounds: {symmetric: 2.0}
gains:
  clf-qp: {kp: 100.0, eps: 0.1, w1: 1.0, rho: 500.0}
"""


class TestBuiltins:
    def test_registry_names(self):
        assert sorted(builtin_registry()) == ["finger", "helix", "spirob"]

    def test_finger_dimensions(self):
        model, _ = load_builtin("finger")
        assert (model.n, model.m) == (4, 2)
        assert model.L == pytest.approx(0.24)
        assert model.task_dim == 2

    def test_helix_dimensions(self):
        model, _ = load_builtin("helix")
        assert (model.n, model.m) == (36, 9)
        assert model.L == pytest.approx(0.45)
        assert model.task_dim == 3

    def test_spirob_dimensions(self):
        model, _ = load_builtin("spirob")
        assert (model.n, model.m) == (27, 3)
        assert model.L == pytest.approx(0.50)
        assert model.task_dim == 3

    def test_finger_clfqp_gain_row(self):
        _, gains = load_builtin("finger")
        g = gains["clf-qp"]
        assert (g.kp, g.eps, g.w1, g.rho) == (500.0, 0.05, 1.0, 1000.0)

    def test_spirob_soft_id_gain_row(self):
        _, gains = load_builtin("spirob")
        g = gains["soft-id-clf-qp"]
        assert (g.kp, g.eps, g.w1, g.w2, g.w3, g.w4, g.rho) == \
            (500.0, 0.01, 1.0, 0.2, 0.5, 0.1, 1000.0)

    def test_unknown_robot_lookup_fails(self):
        with pytest.raises(KeyError):
            load_builtin("unknown")

    def test_actuation_full_column_rank(self):
        for name in ("finger", "helix", "spirob"):
            model, _ = load_builtin(name)
            assert np.linalg.matrix_rank(model.B) == model.m


class TestGainSet:
    def test_kd_derived_from_kp(self):
        g = GainSet(kp=500.0, eps=0.05)
        assert g.kd == pytest.approx(2.0 * np.sqrt(500.0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            GainSet(kp=0.0, eps=0.05)
        with pytest.raises(ValidationError):
            GainSet(kp=1.0, eps=-1.0)
        with pytest.raises(ValidationError):
            GainSet(kp=1.0, eps=0.1, rho=0.0)
        with pytest.raises(ValidationError):
            GainSet(kp=1.0, eps=0.1, w2=-0.5)

    def test_missing_controller_rows_inherit_defaults(self):
        model, gains = loads_robot(MINIMAL)
        assert set(gains) == {"clf-qp", "soft-id-clf-qp", "ic", "uic", "ic-qp"}
        assert gains["ic"].kp == 500.0
        assert gains["clf-qp"].kp == 100.0


class TestResolveSpec:
    def test_builtin_name_and_spec_object(self):
        spec = resolve_spec("finger")
        assert spec.name == "finger" and spec.data == builtin_registry()["finger"].data
        assert resolve_spec(spec) is spec

    def test_spec_path(self, tmp_path):
        path = tmp_path / "mini.yaml"
        path.write_text(MINIMAL, encoding="utf-8")
        spec = resolve_spec(str(path))
        assert isinstance(spec, RobotSpecFile)
        assert (spec.name, spec.text) == ("mini", MINIMAL)
        assert spec.load()[0].n == 2

    def test_bad_spec_path_names_the_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace("schema_version: 1", "schema_version: 99"),
                        encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: schema_version"):
            resolve_spec(str(path))

    def test_model_error_names_the_path(self, tmp_path):
        # the path, not the file's stem
        path = tmp_path / "badmass.yaml"
        path.write_text(MINIMAL.replace("mass: 0.1", "mass: -0.1"), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            resolve_spec(str(path)).load()
        assert str(info.value) == f"{path}: link masses must be positive"

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(MINIMAL.encode() + b"# \xff\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: cannot read spec: "
                                             "'utf-8' codec can't decode byte 0xff"):
            resolve_spec(str(path))

    def test_unreadable_file_names_the_path(self, tmp_path, monkeypatch):
        path = tmp_path / "locked.yaml"
        path.write_text(MINIMAL, encoding="utf-8")

        read = type(path).read_text

        def refuse(self, *args, **kwargs):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return read(self, *args, **kwargs)

        monkeypatch.setattr(type(path), "read_text", refuse)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: cannot read spec: "
                                             r"\[Errno 13\] Permission denied"):
            resolve_spec(str(path))

    def test_unknown_name_lists_the_built_ins(self):
        with pytest.raises(KeyError) as info:
            resolve_spec("unknown")
        assert info.value.args == ("unknown robot 'unknown'; built-ins: "
                                   "['finger', 'helix', 'spirob']",)

    def test_directory_is_not_a_spec(self, tmp_path):
        # nor is a path where no file is
        for path in (tmp_path, tmp_path / "nope.yaml"):
            with pytest.raises(KeyError) as info:
                resolve_spec(str(path))
            assert info.value.args[0].startswith(f"unknown robot {str(path)!r}; built-ins: ")


class TestParsing:
    def test_minimal_loads(self):
        model, gains = loads_robot(MINIMAL)
        assert model.n == 2
        assert model.m == 2

    def test_invalid_yaml(self):
        with pytest.raises(ParseError):
            loads_robot("links: [unclosed")
        with pytest.raises(ParseError, match="invalid YAML"):
            loads_robot(MINIMAL + "bounds: {min: [0.0\n")

    def test_builtin_specs_parse_like_safe_load(self):
        for name, spec in builtin_registry().items():
            assert spec.data == yaml.safe_load(spec.text), name

    def test_wrong_schema_version(self):
        with pytest.raises(ParseError, match="schema_version"):
            loads_robot(MINIMAL.replace("schema_version: 1", "schema_version: 99"))

    def test_missing_field_named(self):
        bad = MINIMAL.replace("task_dim: 2\n", "")
        with pytest.raises(ParseError, match="task_dim"):
            loads_robot(bad)

    def test_unknown_joint_type(self):
        bad = MINIMAL.replace("type: revolute", "type: prismatic")
        with pytest.raises(ParseError, match="joint"):
            loads_robot(bad)

    def test_unknown_gain_key(self):
        bad = MINIMAL.replace("rho: 500.0", "rho: 500.0, kq: 2")
        with pytest.raises(ParseError, match="gains"):
            loads_robot(bad)

    @pytest.mark.parametrize("line,message", [
        ("workspace_scal: 0.75", "unknown keys ['workspace_scal']"),
        ("sim: [0.001]", "sim must be a mapping, got [0.001]"),
        ("sim:", "sim must be a mapping, got None")])
    def test_unread_key_named(self, line, message):
        with pytest.raises(ParseError, match=f"^<string>: {re.escape(message)}$"):
            loads_robot(MINIMAL + line + "\n")

    def test_every_spec_key_is_read(self):
        # a document with every key loads, so no key of SPEC_KEYS is refused
        text = MINIMAL + "gravity: [0, 0, -9.81]\nee_offset: [0, 0, -0.01]\n" \
            "workspace_scale: 0.75\nsim: {dt_physics: 5.0e-4}\n"
        assert set(yaml.safe_load(text)) == set(SPEC_KEYS)
        assert loads_robot(text)[0].n == 2

    @pytest.mark.parametrize("robot,path,value,message", [
        ("finger", ("bounds", "symmetric"), "abc",
         "bounds: could not convert string to float: 'abc'"),
        ("finger", ("bounds",), {"min": [-1.0, -1.0]}, "bounds: missing 'max'"),
        ("finger", ("gains", "ic", "kp"), "abc",
         "gains[ic]: could not convert string to float: 'abc'"),
        ("finger", ("gains", "ic"), 3.0, "gains[ic]: 'float' object is not iterable"),
        ("finger", ("stiffness",), ["stiff"] * 4,
         "stiffness: could not convert string to float: 'stiff'"),
        ("finger", ("damping",), None,
         "damping: 'NoneType' object is not iterable"),
        ("finger", ("actuation", "tendon_pairs"), {}, "actuation: missing 'pairs'"),
        ("finger", ("links", 1, "mass"), "heavy",
         "links[1]: could not convert string to float: 'heavy'"),
        ("finger", ("joints", 0), 3, "joints[0]: 'int' object has no attribute 'get'"),
        ("finger", ("gravity",), [0.0, "down", 0.0],
         "gravity: could not convert string to float: 'down'"),
        ("helix", ("actuation", "base_cables", "modules"), None,
         "actuation: int() argument must be a string, a bytes-like object or a real number,"
         " not 'NoneType'"),
        ("spirob", ("actuation", "spiral_cables", "base_arm"), "x",
         "actuation: could not convert string to float: 'x'"),
        ("finger", ("actuation",), {"matrix": [1.0, 2.0, 3.0, 4.0]},
         "actuation: tuple index out of range")])
    def test_malformed_value_names_source_and_section(self, robot, path, value, message):
        data = yaml.safe_load(builtin_registry()[robot].text)
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ParseError, match=f"^f.yaml: {re.escape(message)}$"):
            loads_robot(yaml.safe_dump(data), source="f.yaml")

    @pytest.mark.parametrize("ctrl,key,value,message", [
        ("ic", "kp", -1.0, "gain kp must be positive"),
        ("soft-id-clf-qp", "w3", -0.2, "gain w3 must be nonnegative")])
    def test_bad_gain_names_source_and_law(self, ctrl, key, value, message):
        data = yaml.safe_load(builtin_registry()["finger"].text)
        data["gains"][ctrl][key] = value
        expected = f"f.yaml: gains[{ctrl}]: {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            loads_robot(yaml.safe_dump(data), source="f.yaml")

    def test_validation_error_names_invariant(self):
        bad = MINIMAL.replace("mass: 0.1", "mass: -0.1")
        with pytest.raises((ParseError, ValidationError), match="mass"):
            loads_robot(bad)

    @pytest.mark.parametrize("offset", ["[0, 0]", "[0, 0, 0, 1]", "[0, .nan, 0]", "[a, b, c]",
                                        "5"])
    def test_ee_offset_must_be_three_finite_numbers(self, offset):
        bad = MINIMAL.replace("task_dim: 2\n", f"task_dim: 2\nee_offset: {offset}\n")
        with pytest.raises(ValidationError, match="^<string>: ee_offset must be 3 finite"):
            loads_robot(bad)

    def test_ee_offset_of_three_numbers_loads(self):
        model, _ = loads_robot(MINIMAL.replace("task_dim: 2\n",
                                               "task_dim: 2\nee_offset: [0, 0, -0.08]\n"))
        assert list(model.ee_offset) == [0, 0, -0.08]

    # np.isclose(norm, 1, atol=1e-9): |norm - 1| <= 1e-9 + 1e-5
    @pytest.mark.parametrize("norm,ok", [(1.0 + 1.00005e-5, True), (1.0 - 1.00005e-5, True),
                                         (1.0 + 1.00015e-5, False), (1.0 - 1.00015e-5, False)])
    def test_axis_norm_rule(self, norm, ok):
        # the second joint's axis gets the norm
        head, _, tail = MINIMAL.rpartition("axis: [0, -1, 0]")
        text = head + f"axis: [0, {-norm!r}, 0]" + tail
        if ok:
            assert loads_robot(text)[0].joints[1].axis[1] == -norm
        else:
            with pytest.raises(ValidationError,
                               match="^<string>: revolute joints need a unit 3-vector axis$"):
                loads_robot(text)

    def test_rank_deficient_explicit_matrix(self):
        bad = MINIMAL.replace("matrix: [[1.0, 0.0], [0.0, 1.0]]",
                              "matrix: [[1.0, 2.0], [2.0, 4.0]]")
        with pytest.raises(ValidationError, match="rank"):
            loads_robot(bad)


class TestRouting:
    def test_tendon_pairs_expansion(self):
        model, _ = load_builtin("finger")
        b = model.B
        assert b.shape == (4, 2)
        assert b[0, 0] == b[1, 0] > 0
        assert b[2, 1] == b[3, 1] > 0
        assert b[0, 1] == b[2, 0] == 0.0

    def test_base_cables_reach_structure(self):
        model, _ = load_builtin("helix")
        b = model.B
        # module-1 cables touch only the first 4 ball joints (12 DOFs)
        assert np.allclose(b[12:, 0:3], 0.0)
        assert np.any(b[:12, 0:3] != 0.0)
        # module-3 cables touch everything
        assert np.any(b[24:, 6:9] != 0.0)

    def test_spiral_equal_rates_lose_rank(self):
        # symmetric cables with a common spiral rate span only two bending
        # patterns; the loader must reject the rank-deficient result
        registry = builtin_registry()
        doc = dict(registry["spirob"].data)
        act = {k: dict(v) for k, v in doc["actuation"].items()}
        act["spiral_cables"]["spiral_rates_deg"] = [0.0, 0.0, 0.0]
        doc = dict(doc, actuation=act)
        with pytest.raises(ValidationError, match="rank"):
            loads_robot(yaml.safe_dump(doc))


class TestProtocolKeys:
    def test_spec_file_keeps_the_protocol_keys(self, tmp_path):
        from clfqp.experiments import SETPOINT_T_END, EllipseParams, sim_config_for

        spec = builtin_registry()["spirob"]
        sim = {"dt_physics": 5e-4, "control_decimation": 2}
        path = tmp_path / "spirob-sim.yaml"
        path.write_text(yaml.safe_dump(dict(spec.data, sim=sim)), encoding="utf-8")
        spec2 = resolve_spec(str(path))
        model, _ = spec.load()
        model2, _ = spec2.load()
        assert spec2.workspace_scale == spec.workspace_scale == 0.75
        assert (EllipseParams.for_robot(model2, spec2.workspace_scale)
                == EllipseParams.for_robot(model, spec.workspace_scale))
        assert (sim_config_for(spec2, SETPOINT_T_END)
                == sim_config_for(spec, SETPOINT_T_END, sim))
        assert spec2.data.get("sim") == sim
