"""Benchmark robot descriptions and their controller gain tables.

Robots are described by a versioned YAML document (see ``specs/`` for the
built-in finger, helix, and spirob files) whose top-level keys are those of
``SPEC_KEYS``; any other key is a ParseError that names it. The actuation
matrix may be given explicitly or through a tendon-routing shorthand that is
expanded at load time; everything else maps directly onto RobotModel fields.

The optional ``workspace_scale`` (a finite number above 1/8, 1 by default;
the spirob sets 0.75) is the share of the arclength L at which the benchmark
ellipse is centered (``experiments.EllipseParams.for_robot``). It and the
optional ``sim`` section, a mapping of ``sim.SimConfig``'s protocol keys but
``t_end``, which each experiment sets (``experiments.sim_config_for``), are
the spec's protocol keys.

All numeric values of the built-in robots (masses, stiffness, damping,
moment arms, bounds) are desk-scale stand-ins recorded only in the spec
files, never in code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .controllers import CONTROLLER_NAMES
from .multibody import Joint, Link, RobotModel

SCHEMA_VERSION = 1
PROTOCOL_KEYS = ("sim", "workspace_scale")
SPEC_KEYS = ("schema_version", "name", "task_dim", "gravity", "links", "joints", "stiffness",
             "damping", "actuation", "bounds", "gains", "ee_offset") + PROTOCOL_KEYS


class ParseError(ValueError):
    """Spec document failed to parse; message carries field diagnostics."""


class ValidationError(ValueError):
    """Parsed document violates a model invariant, named in the message."""


@dataclass(frozen=True)
class GainSet:
    """Controller gains, defaulting to a spec row's fallbacks. kd is always
    derived as 2 sqrt(kp) (critically damped error dynamics), never stored
    in a spec; it is worked out once per gain set."""

    kp: float = 500.0
    eps: float = 0.05
    w1: float = 1.0
    w2: float = 0.0
    w3: float = 0.0
    w4: float = 0.0
    rho: float = 1000.0
    d_null: float = 1.0

    def __post_init__(self):
        for name in GAIN_DEFAULTS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"gain {name} must be finite, got {value!r}")
        for name in ("kp", "eps", "rho"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"gain {name} must be positive")
        for name in ("w1", "w2", "w3", "w4", "d_null"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"gain {name} must be nonnegative")

    @cached_property
    def kd(self) -> float:
        return 2.0 * np.sqrt(self.kp)


GAIN_DEFAULTS = {f.name: f.default for f in fields(GainSet)}


@dataclass(frozen=True)
class RobotSpecFile:
    """A robot spec document plus its parsed form. ``source`` is the path
    of a document read from a file; its errors name that path, those of a
    built-in document its name."""

    name: str
    text: str
    data: dict = field(repr=False)
    source: str = ""

    def load(self) -> tuple[RobotModel, dict[str, GainSet]]:
        return _build_model(self.data, source=self.source or self.name)

    @property
    def workspace_scale(self) -> float:
        """The spec's ``workspace_scale``, 1 unless it sets a finite number
        above 1/8: the ellipse is centred s L - L/8 from the base, so a scale
        of 1/8 or less would put its centre at or behind the base."""
        scale = self.data.get("workspace_scale", 1.0)
        if type(scale) not in (int, float) or not 0.125 < scale < math.inf:
            raise ValidationError(f"{self.source or self.name}: bad workspace_scale {scale!r}"
                                  " (a finite number above 1/8)")
        return float(scale)


# libyaml's parser when PyYAML was built with it; same safe constructors.
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_document(text: str, source: str) -> dict:
    try:
        data = yaml.load(text, Loader=_SafeLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"{source}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{source}: document must be a mapping")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"{source}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    unknown = [key for key in data if key not in SPEC_KEYS]
    if unknown:
        raise ParseError(f"{source}: unknown keys {unknown}")
    if not isinstance(data.get("sim", {}), dict):
        raise ParseError(f"{source}: sim must be a mapping, got {data['sim']!r}")
    return data


class _Section:
    """Context of reading one section of a spec: a LookupError, TypeError,
    ValueError or AttributeError raised there (a missing key, a value of the
    wrong kind or shape) becomes a ParseError naming the source and the
    section."""

    def __init__(self, source: str, name: str):
        self.where = f"{source}: {name}"

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if (kind is None or issubclass(kind, (ParseError, ValidationError))
                or not issubclass(kind, (LookupError, TypeError, ValueError, AttributeError))):
            return False
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ParseError(f"{self.where}: {detail}") from exc


def _require(data: dict, key: str, source: str):
    if key not in data:
        raise ParseError(f"{source}: missing required field {key!r}")
    return data[key]


def loads_robot(text: str, source: str = "<string>") -> tuple[RobotModel, dict[str, GainSet]]:
    """Load a robot spec from a YAML string."""
    return _build_model(_parse_document(text, source), source=source)


def _build_model(data: dict, source: str) -> tuple[RobotModel, dict[str, GainSet]]:
    name = _require(data, "name", source)
    # output file names are built from it
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValidationError(f"{source}: name must be one plain file-name component, "
                              f"got {name!r}")
    task_dim = _require(data, "task_dim", source)
    with _Section(source, "gravity"):
        gravity = tuple(float(v) for v in data.get("gravity", (0.0, 0.0, -9.81)))

    links = []
    for i, entry in enumerate(_require(data, "links", source)):
        with _Section(source, f"links[{i}]"):
            links.append(Link(mass=float(entry["mass"]),
                              com=tuple(float(v) for v in entry["com"]),
                              inertia=tuple(float(v) for v in entry["inertia"]),
                              length=float(entry["length"])))

    joints = []
    for i, entry in enumerate(_require(data, "joints", source)):
        with _Section(source, f"joints[{i}]"):
            kind = entry.get("type")
            if kind == "revolute":
                axis = entry.get("axis")
                if axis is None:
                    raise ParseError(f"{source}: joints[{i}]: revolute joint needs an axis")
                joints.append(Joint(kind="revolute", axis=tuple(float(v) for v in axis)))
            elif kind == "ball":
                joints.append(Joint(kind="ball"))
            else:
                raise ParseError(f"{source}: joints[{i}]: unknown joint type {kind!r}")

    n = sum(j.dofs for j in joints)
    with _Section(source, "stiffness"):
        k_s = _per_dof_array(_require(data, "stiffness", source), n, joints,
                             f"{source}: stiffness")
    with _Section(source, "damping"):
        d_s = _per_dof_array(_require(data, "damping", source), n, joints, f"{source}: damping")

    with _Section(source, "actuation"):
        b_matrix = _expand_actuation(_require(data, "actuation", source), joints, links, source)
        m = b_matrix.shape[1]

    with _Section(source, "bounds"):
        bounds = _require(data, "bounds", source)
        if "symmetric" in bounds:
            lim = float(bounds["symmetric"])
            u_min, u_max = np.full(m, -lim), np.full(m, lim)
        else:
            u_min = np.asarray(bounds["min"], dtype=float)
            u_max = np.asarray(bounds["max"], dtype=float)

    gains = {}
    table = data.get("gains", {}) or {}
    for ctrl in CONTROLLER_NAMES:
        with _Section(source, f"gains[{ctrl}]") as section:
            row = table.get(ctrl, {})
            unknown = set(row) - set(GAIN_DEFAULTS)
            if unknown:
                raise ParseError(f"{section.where}: unknown keys {sorted(unknown)}")
            try:
                gains[ctrl] = GainSet(**{k: float(v) for k, v in row.items()})
            except ValidationError as exc:
                raise ValidationError(f"{section.where}: {exc}") from None

    try:
        model = RobotModel(name=name, links=tuple(links), joints=tuple(joints),
                           K_s=k_s, D_s=d_s, B=b_matrix, u_min=u_min, u_max=u_max,
                           task_dim=int(task_dim), gravity=gravity,
                           ee_offset=data.get("ee_offset"))
    except ValueError as exc:
        raise ValidationError(f"{source}: {exc}") from exc
    return model, gains


def _per_dof_array(value, n, joints, label) -> np.ndarray:
    """Accept a scalar, a per-DOF list, or a per-joint list of per-DOF values."""
    if np.isscalar(value):
        return np.full(n, float(value))
    flat = []
    for v in value:
        if isinstance(v, (list, tuple)):
            flat.extend(float(x) for x in v)
        else:
            flat.append(float(v))
    arr = np.asarray(flat, dtype=float)
    if arr.shape == (len(joints),) and n != len(joints):
        # one value per joint, broadcast over each joint's DOFs
        arr = np.concatenate([np.full(j.dofs, arr[i]) for i, j in enumerate(joints)])
    if arr.shape != (n,):
        raise ParseError(f"{label}: expected {n} entries, got {arr.shape}")
    return arr


def _expand_actuation(spec: dict, joints, links, source) -> np.ndarray:
    """Expand an actuation section to an explicit n x m matrix."""
    n = sum(j.dofs for j in joints)
    if "matrix" in spec:
        return np.asarray(spec["matrix"], dtype=float)
    if "tendon_pairs" in spec:
        pairs = spec["tendon_pairs"]["pairs"]
        b = np.zeros((n, len(pairs)))
        for c, pair in enumerate(pairs):
            for j in pair["joints"]:
                b[int(j), c] = float(pair["arm"])
        return b
    if "base_cables" in spec:
        return _base_cable_matrix(spec["base_cables"], joints, source)
    if "spiral_cables" in spec:
        return _spiral_cable_matrix(spec["spiral_cables"], joints, source)
    raise ParseError(f"{source}: actuation needs 'matrix' or a routing shorthand")


def _base_cable_matrix(cfg: dict, joints, source) -> np.ndarray:
    """Base-mounted cables through ball-joint modules.

    Cable i of module k is routed from the base through every segment up to
    module k, applying at each ball joint it passes a bending moment of
    magnitude ``cable_radius`` at the cable azimuth plus a small constant
    ``torsion_arm`` twist (helical routing); the twist keeps the three
    cables of a module independent despite their symmetric spacing.
    """
    modules = int(cfg["modules"])
    per_module = int(cfg["joints_per_module"])
    radius = float(cfg["cable_radius"])
    torsion = float(cfg["torsion_arm"])
    azimuths = np.deg2rad(np.asarray(cfg.get("azimuths_deg", (0.0, 120.0, 240.0)), dtype=float))
    signs = np.asarray(cfg.get("torsion_signs", [1.0] * azimuths.size), dtype=float)
    if signs.shape != azimuths.shape:
        raise ParseError(f"{source}: base_cables torsion_signs length mismatch")
    if any(j.kind != "ball" for j in joints):
        raise ParseError(f"{source}: base_cables routing expects ball joints")
    if len(joints) != modules * per_module:
        raise ParseError(f"{source}: base_cables modules*joints_per_module != joint count")
    n = 3 * len(joints)
    b = np.zeros((n, modules * len(azimuths)))
    for k in range(modules):
        for i, az in enumerate(azimuths):
            col = k * len(azimuths) + i
            reach = (k + 1) * per_module
            for j in range(reach):
                b[3 * j + 0, col] = radius * np.sin(az)
                b[3 * j + 1, col] = -radius * np.cos(az)
                b[3 * j + 2, col] = signs[i] * torsion
    return b


def _spiral_cable_matrix(cfg: dict, joints, source) -> np.ndarray:
    """Tip-to-base cables on an alternating-axis chain with tapered arms.

    Cable i sits at azimuth ``azimuths_deg[i] + j * spiral_rates_deg[i]`` at
    joint j with moment arm ``base_arm * arm_taper**j``. Distinct spiral
    rates (counter-wound cables) are what give the matrix full column rank;
    with equal rates the three symmetric cables span only the two bending
    patterns.
    """
    azimuths = np.deg2rad(np.asarray(cfg["azimuths_deg"], dtype=float))
    rates = np.deg2rad(np.asarray(cfg["spiral_rates_deg"], dtype=float))
    base_arm = float(cfg["base_arm"])
    taper = float(cfg["arm_taper"])
    if azimuths.shape != rates.shape:
        raise ParseError(f"{source}: spiral_cables azimuths/rates length mismatch")
    if any(j.kind != "revolute" for j in joints):
        raise ParseError(f"{source}: spiral_cables routing expects revolute joints")
    n = len(joints)
    b = np.zeros((n, azimuths.size))
    for i in range(azimuths.size):
        for j, joint in enumerate(joints):
            az = azimuths[i] + j * rates[i]
            arm = base_arm * taper ** j
            bend = np.array([np.sin(az), -np.cos(az), 0.0]) * arm
            b[j, i] = bend @ np.asarray(joint.axis)
    return b


def builtin_registry() -> dict[str, RobotSpecFile]:
    """Embedded default specs for the three benchmark robots."""
    registry = {}
    for entry in resources.files("clfqp.specs").iterdir():
        if entry.name.endswith(".yaml"):
            name = entry.name[: -len(".yaml")]
            registry[name] = _read_spec(entry, name)
    return registry


def _read_spec(entry, name: str, source: str = "") -> RobotSpecFile:
    """The spec document in file ``entry`` (a path or a package resource);
    a file that cannot be read or is not UTF-8 is a ParseError naming
    ``source``, the file's path, or for a built-in its name."""
    where = source or name
    try:
        text = entry.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise ParseError(f"{where}: cannot read spec: {exc}") from exc
    return RobotSpecFile(name=name, text=text, data=_parse_document(text, source=where),
                         source=source)


def resolve_spec(robot) -> RobotSpecFile:
    """The spec of ``robot``: a RobotSpecFile as given, a built-in name, or
    the path of a spec file; KeyError when it is none of these."""
    if isinstance(robot, RobotSpecFile):
        return robot
    registry = builtin_registry()
    if robot in registry:
        return registry[robot]
    path = Path(robot)
    if path.is_file():
        return _read_spec(path, path.stem, source=str(path))
    raise KeyError(f"unknown robot {robot!r}; built-ins: {sorted(registry)}")
