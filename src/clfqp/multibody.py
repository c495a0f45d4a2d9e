"""Serial-chain rigid-body dynamics with compliant joints.

Implements every term of

    M(q) qdd + C(q, qd) qd + D qd + K q + g(q) = B u

for a chain of rigid segments connected by revolute (1-DOF) or ball (3-DOF)
joints. Ball joints are parameterized by intrinsic XYZ rotation angles and
unrolled internally into three chained elementary rotations, so q stays a
plain real vector and all recursions are single-DOF.

Conventions: the base sits at the world origin; each link frame has its
origin at the link's joint and the link extends along local -z, so q = 0 is
a straight chain hanging along gravity. The inertia matrix comes from the
composite-rigid-body recursion and the bias forces from recursive
Newton-Euler passes, both evaluated in world coordinates.

``bias_terms`` keeps the pose and motion pass it was computed from, so the
task-space maps at the same state reuse them instead of rebuilding the
chain. One state evaluation runs the pose pass, the motion pass, the
composite-rigid-body pass and a single Newton-Euler pass that carries the
Coriolis and the gravity loads side by side on a leading axis; each is a
fixed handful of array operations, whatever the chain length (the pose
pass's running product of the joint rotations is the one loop over the
elements). Each pass is one function of plain arrays. ``bias_terms``
wraps their results as ``ChainPose``, ``ChainMotion`` and ``DynamicsTerms``,
with the end effector and M mirrored. ``accelerations``, an integrator
stage, calls the same passes and keeps only M and h: no objects, no end
effector, and M's upper triangle left unmirrored, as the guarded factor
reads only the lower one. For one row it runs the frame product in the
model's frame buffer, which only a stage call writes and nothing it returns
points into, so one model's stages must not run in two threads at once.

The recursions take leading batch axes: ``chain_pose``, ``chain_motion``,
the mass matrix, the Newton-Euler pass, ``bias_terms`` and
``accelerations`` accept q and dq of shape (..., n), so the states of
several episodes (one ``RobotState`` row each) are evaluated in one pass,
and without a leading axis they run on the shapes of one state. The passes
stay the composite-rigid-body and Newton-Euler recursions (Featherstone,
Rigid Body Dynamics Algorithms, 2008); only the axes they run over grow. Every row
comes out bitwise as evaluated alone: the elementwise operations, cumsum,
the einsums and the stacked matmuls keep each row's operations and order,
and a matrix-vector product over rows is written ``matvec(a, x)``, i.e.
(a @ x[..., None])[..., 0], whose rows keep the bits of a @ x (x @ a.T and
an einsum over the batch do not).

The inertia guard and the Cholesky factorisation run once per evaluated M:
the terms keep the guarded factor, and every ``solve_inertia`` with those
terms reuses it. Both call LAPACK (``dpotrf``, ``dpotrs``, ``dtrtri``)
directly, and for terms stacked along a leading axis they run row by row.
The routines are scipy's, taken from its compiled LAPACK extension by
``_lapack`` rather than through ``scipy.linalg``, whose package import
costs a fresh process about 270 ms and 28 MB for nothing used here. The
einsums and the guard's ``eigvalsh`` likewise call numpy's compiled kernels
through ``_lapack`` (``c_einsum``, the ``eigvalsh`` gufunc), and the
one-state frame product calls ``ndarray.dot``: the same C functions as
``np.einsum``, ``np.linalg.eigvalsh`` and ``np.dot``, without their
wrappers' cost per call.
The guard rejects an M that is not positive definite or whose
condition number exceeds COND_LIMIT; it first tries the cheap upper bound
cond(M) <= trace(M) ||L^-1||_F^2 from the factor L, and only when that bound
does not settle the question runs the exact eigenvalue check. Both
integrators in ``sim`` run the guard once per evaluated M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import c_einsum, dpotrf, dpotrs, dtrtri, eigvalsh
from .linalg import all_finite, matrix_rank

GRAVITY_DEFAULT = (0.0, 0.0, -9.81)
COND_LIMIT = 1e12
# The trace bound settles the guard only when it is within this fraction of
# COND_LIMIT, which leaves room for its rounding error near the limit.
_BOUND_MARGIN = 0.5


class IllConditioned(RuntimeError):
    """The inertia matrix is numerically singular; the model is broken."""


@dataclass(frozen=True)
class Link:
    """One rigid segment: mass [kg], COM offset [m] in the link frame,
    diagonal rotational inertia about the COM [kg m^2], and length [m]."""

    mass: float
    com: tuple[float, float, float]
    inertia: tuple[float, float, float]
    length: float


@dataclass(frozen=True)
class Joint:
    """Joint preceding a link: 'revolute' with a unit axis, or 'ball'."""

    kind: str
    axis: tuple[float, float, float] | None = None

    @property
    def dofs(self) -> int:
        return 1 if self.kind == "revolute" else 3


@dataclass(frozen=True)
class RobotState:
    """Joint positions [rad], velocities [rad/s], and time [s], all finite,
    of one state (shape (n,)) or of several at one time, as rows (..., n).

    ``unchecked`` builds the state of rows already held to that rule
    without checking them again.

    ``evaluation`` may carry a ``controllers.Evaluation`` made beforehand
    for exactly this state; it is used only while its ``state`` is this very
    object. ``sim.run`` attaches the one it made to each state it hands a
    controller and clears it once the controller has stepped, since the
    evaluation points back at the state."""

    q: np.ndarray
    dq: np.ndarray
    t: float = 0.0
    evaluation: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "dq", np.asarray(self.dq, dtype=float))
        if not all_finite(self.q, self.dq):
            raise ValueError("state entries must be finite")

    @classmethod
    def unchecked(cls, q: np.ndarray, dq: np.ndarray, t: float = 0.0) -> "RobotState":
        """The state of float arrays q and dq already held to the rule, such
        as rows of states that passed it: built without converting or
        checking them again."""
        state = object.__new__(cls)
        state.__dict__.update(q=q, dq=dq, t=t, evaluation=None)
        return state


@dataclass(frozen=True)
class DynamicsTerms:
    """The dynamics quintuple at one state: inertia matrix plus the four
    generalized-force vectors (Coriolis, damping, stiffness, gravity).

    ``pose`` and ``motion`` are the chain passes the terms were computed
    from, when known."""

    M: np.ndarray
    c_vec: np.ndarray
    d_vec: np.ndarray
    k_vec: np.ndarray
    g_vec: np.ndarray
    pose: ChainPose | None = field(default=None, repr=False, compare=False)
    motion: ChainMotion | None = field(default=None, repr=False, compare=False)

    @cached_property
    def h(self) -> np.ndarray:
        """c + d + k + g, summed on first use."""
        return self.c_vec + self.d_vec + self.k_vec + self.g_vec

    @cached_property
    def factor(self):
        """Guarded Cholesky factor of M, made on first use. Terms stacked
        along one leading axis hold the list of their rows' factors."""
        if self.M.ndim == 2:
            return factor_inertia(self.M)
        return [row.factor for row in self.rows]

    @cached_property
    def rows(self) -> list[DynamicsTerms]:
        """The terms of each row of terms stacked along one leading axis,
        made once, so a row's factor serves the row and the stack alike."""
        return [DynamicsTerms(*row)
                for row in zip(self.M, self.c_vec, self.d_vec, self.k_vec, self.g_vec)]


def _as_floats(value) -> np.ndarray:
    """value as a float array; an empty one when it is not numeric or ragged."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        return np.empty(0)


_BALL_AXES = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
              np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True)
class RobotModel:
    """Immutable description of a serial-chain robot.

    B maps the m inputs to joint torques; u_min/u_max bound the inputs.
    K_s and D_s are constant diagonal joint stiffness and damping. task_dim
    selects the controlled end-effector coordinates: 2 for planar (x, z),
    3 for spatial.
    """

    name: str
    links: tuple[Link, ...]
    joints: tuple[Joint, ...]
    K_s: np.ndarray
    D_s: np.ndarray
    B: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    task_dim: int
    gravity: tuple[float, float, float] = GRAVITY_DEFAULT
    ee_offset: tuple[float, float, float] | None = None

    def __post_init__(self):
        for name in ("K_s", "D_s", "B", "u_min", "u_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        self.validate()

    def validate(self):
        if len(self.links) != len(self.joints):
            raise ValueError("need one joint per link")
        for name in ("K_s", "D_s", "B", "u_min", "u_max"):
            if not all_finite(getattr(self, name)):
                raise ValueError(f"{name} entries must be finite")
        vectors = [("gravity", self.gravity)]
        for i, link in enumerate(self.links):
            for name in ("mass", "length"):
                value = getattr(link, name)
                if not math.isfinite(value):
                    raise ValueError(f"links[{i}] {name} must be finite, got {value!r}")
            vectors += [(f"links[{i}] com", link.com), (f"links[{i}] inertia", link.inertia)]
        for name, value in vectors:
            if len(value) != 3 or not all(map(math.isfinite, value)):
                raise ValueError(f"{name} must be 3 finite numbers, got {value!r}")
        n = self.n
        if self.K_s.shape != (n,) or self.D_s.shape != (n,):
            raise ValueError(f"K_s and D_s must have {n} entries")
        if np.any(self.K_s < 0.0) or np.any(self.D_s < 0.0):
            raise ValueError("stiffness and damping must be nonnegative")
        if any(link.mass <= 0.0 for link in self.links):
            raise ValueError("link masses must be positive")
        if any(link.length <= 0.0 for link in self.links):
            raise ValueError("link lengths must be positive")
        if self.B.ndim != 2 or self.B.shape[0] != n:
            raise ValueError(f"B must be {n}xM, got {self.B.shape}")
        m = self.m
        if m > n:
            raise ValueError("more inputs than degrees of freedom")
        if matrix_rank(self.B) < m:
            raise ValueError("B must have full column rank")
        if self.u_min.shape != (m,) or self.u_max.shape != (m,):
            raise ValueError(f"input bounds must have {m} entries")
        if np.any(self.u_min >= self.u_max):
            raise ValueError("u_min must be strictly below u_max")
        if self.task_dim not in (2, 3):
            raise ValueError("task_dim must be 2 or 3")
        for joint in self.joints:
            if joint.kind not in ("revolute", "ball"):
                raise ValueError(f"unknown joint kind {joint.kind!r}")
        axes = [joint.axis for joint in self.joints if joint.kind == "revolute"]
        if axes:
            # the rule of np.isclose(norm, 1, atol=1e-9), for all axes at once,
            # with the norm's arithmetic
            arr = _as_floats(axes)
            if (arr.shape != (len(axes), 3)
                    or not (np.abs(np.sqrt((arr * arr).sum(axis=1)) - 1.0) <= 1e-9 + 1e-5).all()):
                raise ValueError("revolute joints need a unit 3-vector axis")
        if self.ee_offset is not None:
            offset = _as_floats(self.ee_offset)
            if offset.shape != (3,) or not all_finite(offset):
                raise ValueError(f"ee_offset must be 3 finite numbers, got {self.ee_offset!r}")

    @cached_property
    def n(self) -> int:
        return sum(j.dofs for j in self.joints)

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def L(self) -> float:
        return float(sum(link.length for link in self.links))

    @cached_property
    def _chain(self) -> "_CompiledChain":
        return _compile_chain(self)

    def rest_state(self) -> RobotState:
        return RobotState(q=np.zeros(self.n), dq=np.zeros(self.n), t=0.0)


@dataclass(frozen=True)
class _CompiledChain:
    """Per-elementary-DOF arrays driving the vectorized recursions."""

    offsets: np.ndarray        # (n, 3) translation from parent element, parent frame
    axes: np.ndarray           # (n, 3) local rotation axis
    mass: np.ndarray           # (n,)   body mass attached to this element (0 for
                               #        intermediate ball-rotation frames)
    com_local: np.ndarray      # (n, 3)
    inertia_local: np.ndarray  # (n, 3) diagonal about COM
    ee_local: np.ndarray       # (3,)  end-effector point in last element frame
    gravity: np.ndarray        # (3,)
    axis_outer: np.ndarray     # (n, 3, 3) axis axis' per element
    axis_skew: np.ndarray      # (n, 3, 3) cross-product matrix of each axis
    f_gravity: np.ndarray      # (n, 3) gravity load -m g on each body
    spatial_rest: np.ndarray   # (n, 6, 6) zeros but m I in the lower-right block
    lower: np.ndarray          # (n, n) bool, lower triangle with the diagonal
    # The frame buffer of a one-row stage: its elementary rotations and the
    # frames they chain into (identity first), and per element the
    # (parent, elementary, child) row views the running product takes.
    rotations: np.ndarray      # (n, 3, 3)
    frames: np.ndarray         # (n + 1, 3, 3)
    frame_steps: tuple


def _compile_chain(model: RobotModel) -> _CompiledChain:
    offsets, axes, mass, com, inertia = [], [], [], [], []
    prev_tip = np.zeros(3)
    for link, joint in zip(model.links, model.joints):
        sub_axes = ([np.asarray(joint.axis, dtype=float)] if joint.kind == "revolute"
                    else list(_BALL_AXES))
        for k, ax in enumerate(sub_axes):
            offsets.append(prev_tip if k == 0 else np.zeros(3))
            axes.append(ax)
            last = k == len(sub_axes) - 1
            mass.append(link.mass if last else 0.0)
            com.append(np.asarray(link.com, dtype=float) if last else np.zeros(3))
            inertia.append(np.asarray(link.inertia, dtype=float) if last else np.zeros(3))
        prev_tip = np.array([0.0, 0.0, -link.length])
    ee = (np.asarray(model.ee_offset, dtype=float) if model.ee_offset is not None
          else prev_tip)
    axes = np.array(axes)
    mass = np.array(mass)
    gravity = np.asarray(model.gravity, dtype=float)
    rotations = np.empty((len(axes), 3, 3))
    frames = np.empty((len(axes) + 1, 3, 3))
    frames[0] = _EYE3
    return _CompiledChain(
        offsets=np.array(offsets), axes=axes, mass=mass,
        com_local=np.array(com), inertia_local=np.array(inertia),
        ee_local=ee, gravity=gravity,
        axis_outer=axes[:, :, None] * axes[:, None, :], axis_skew=_skew(axes),
        f_gravity=-mass[:, None] * gravity[None, :],
        spatial_rest=np.pad(mass[:, None, None] * np.eye(3), ((0, 0), (3, 0), (3, 0))),
        lower=np.tri(len(axes), dtype=bool), rotations=rotations, frames=frames,
        frame_steps=tuple(zip(frames, rotations, frames[1:])))


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, broadcasting the leading ones; much
    cheaper than np.cross for the small stacked arrays of the recursions.

    Component i is a[i+1] b[i+2] - a[i+2] b[i+1] (indices mod 3), the same
    products and differences as the component-wise formula."""
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x over the leading axes of either, for x of shape (..., k): each
    row is bitwise the one-row product a @ x (``x @ a.T`` and an einsum are
    not)."""
    return (a @ x[..., None])[..., 0]


_EYE3 = np.eye(3)


def _rodrigues_stack(ch: _CompiledChain, angles: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Elementary rotation of every element, written to the C-ordered
    ``out`` of shape (..., n, 3, 3): R = c I + (1 - c) a a' + s [a]x about
    each element's axis a.

    Each entry is (a_i a_j) (1 - c) + [a]x_ij s, plus c on the diagonal:
    the products and sums of the per-entry Rodrigues formula, so the result
    is bitwise that of evaluating the formula one DOF at a time."""
    c, s = np.cos(angles), np.sin(angles)
    # rot is C-ordered, so the reshape below is a view, whose entries 0, 4
    # and 8 per element are the diagonal
    rot = np.multiply(ch.axis_outer, (1.0 - c)[..., None, None], out=out)
    rot += ch.axis_skew * s[..., None, None]
    rot.reshape(c.shape + (9,))[..., ::4] += c[..., None]
    return rot


@dataclass
class ChainPose:
    """World-frame kinematics of every elementary DOF at a configuration;
    all fields but ``mass`` and ``gravity`` lead with its batch axes."""

    axes_w: np.ndarray    # (n, 3) joint axes
    origins: np.ndarray   # (n, 3) joint origins
    rot: np.ndarray       # (n, 3, 3) frame orientations
    com_w: np.ndarray     # (n, 3) body COM positions
    inertia_w: np.ndarray  # (n, 3, 3) body inertias about COM
    mass: np.ndarray
    ee: np.ndarray        # (3,) end-effector position
    gravity: np.ndarray
    offsets_w: np.ndarray = field(default=None)  # (n, 3) origin[k] - origin[k-1]


def _pose_pass(ch: _CompiledChain, q: np.ndarray, buffer: bool = False) -> tuple:
    """The pose pass at q, of shape (..., n): the arrays rot, axes_w,
    origins, offsets_w, com_w and inertia_w of ``ChainPose``. With
    ``buffer`` (one row only) the pass writes the chain's frame buffer
    through its prebuilt row views, and rot is a view of it."""
    # Only the running product stays sequential; its order fixes the rounding.
    # It steps along the elements (first axis after the swap), each product
    # covering every leading index; the swap back restores the axis order.
    if buffer:
        rots = _rodrigues_stack(ch, q, ch.rotations)
        frames, steps = ch.frames, ch.frame_steps
    else:
        rots = _rodrigues_stack(ch, q, np.empty(q.shape + (3, 3))).swapaxes(0, -3)
        frames = np.empty((len(rots) + 1,) + rots.shape[1:])
        frames[0] = _EYE3      # the identity frame, over every leading index
        steps = zip(frames, rots, frames[1:])
    # For one state ndarray.dot makes the same BLAS dgemm call as matmul,
    # with less overhead per call; stacked states need matmul's loop over them.
    product = np.matmul if rots.ndim > 3 else np.ndarray.dot
    for parent, elementary, child in steps:
        product(parent, elementary, out=child)
    frames = np.ascontiguousarray(frames.swapaxes(0, -3))
    rot = frames[..., 1:, :, :]
    rot_prev = frames[..., :-1, :, :]     # parent frame of each element, identity first
    axes_w = (rot_prev @ ch.axes[:, :, None])[..., 0]
    origins = (rot_prev @ ch.offsets[:, :, None])[..., 0].cumsum(-2)
    com_w = origins + c_einsum("...kij,kj->...ki", rot, ch.com_local)
    inertia_w = c_einsum("...kij,kj,...klj->...kil", rot, ch.inertia_local, rot)
    offsets_w = np.empty_like(origins)    # np.diff from a zero origin
    offsets_w[..., 0, :] = origins[..., 0, :]
    np.subtract(origins[..., 1:, :], origins[..., :-1, :], out=offsets_w[..., 1:, :])
    return rot, axes_w, origins, offsets_w, com_w, inertia_w


def chain_pose(model: RobotModel, q: np.ndarray) -> ChainPose:
    """Forward pass: world placement of every element at configuration q,
    of shape (..., n); every field gains the same leading axes."""
    ch = model._chain
    rot, axes_w, origins, offsets_w, com_w, inertia_w = _pose_pass(ch, q)
    ee = origins[..., -1, :] + rot[..., -1, :, :] @ ch.ee_local
    return ChainPose(axes_w=axes_w, origins=origins, rot=rot, com_w=com_w,
                     inertia_w=inertia_w, mass=ch.mass, ee=ee,
                     gravity=ch.gravity, offsets_w=offsets_w)


@dataclass
class ChainMotion:
    """World-frame velocity pass at (q, dq), with zero joint acceleration;
    every field leads with the batch axes of (q, dq)."""

    omega: np.ndarray       # (n, 3) link angular velocities
    domega: np.ndarray      # (n, 3) angular accelerations for qdd = 0
    v_origin: np.ndarray    # (n, 3) joint-origin velocities
    a_origin: np.ndarray    # (n, 3) joint-origin accelerations for qdd = 0
    a_com: np.ndarray       # (n, 3)


def _motion_pass(axes_w, offsets_w, origins, com_w, dq: np.ndarray) -> tuple:
    """The velocity pass with velocities dq, (..., n), over a pose's arrays:
    the arrays omega, domega, v_origin, a_origin and a_com of ``ChainMotion``."""
    spin = axes_w * dq[..., None]
    omega = spin.cumsum(-2)
    omega_prev = omega - spin
    w_spin = cross3(omega_prev, spin)
    domega = w_spin.cumsum(-2)
    domega_prev = domega - w_spin

    w_d = cross3(omega_prev, offsets_w)
    v_origin = w_d.cumsum(-2)
    a_origin = (cross3(domega_prev, offsets_w) + cross3(omega_prev, w_d)).cumsum(-2)

    arm = com_w - origins
    w_arm = cross3(omega, arm)
    a_com = a_origin + cross3(domega, arm) + cross3(omega, w_arm)
    return omega, domega, v_origin, a_origin, a_com


def chain_motion(pose: ChainPose, dq: np.ndarray) -> ChainMotion:
    """Velocity pass at the pose's configuration with velocities dq, (..., n)."""
    return ChainMotion(*_motion_pass(pose.axes_w, pose.offsets_w, pose.origins, pose.com_w, dq))


# Row-major entries of [v]x: the component of v each takes (3 is a zero
# column for the diagonal) and its sign.
_SKEW_SRC = np.array([3, 2, 1, 2, 3, 0, 1, 0, 3])
_SKEW_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


def _skew(v: np.ndarray) -> np.ndarray:
    """Stacked skew matrices for an (..., 3) array."""
    padded = np.concatenate((v, np.zeros(v.shape[:-1] + (1,))), axis=-1)
    return (padded.take(_SKEW_SRC, -1) * _SKEW_SIGN).reshape(v.shape[:-1] + (3, 3))


def _mass_lower(ch: _CompiledChain, axes_w, origins, com_w, inertia_w) -> np.ndarray:
    """The composite-rigid-body pass over a pose's arrays: a matrix whose
    lower triangle, with the diagonal, is M's; the upper one is left as the
    product made it. + 0.0 turns a -0.0 entry into +0.0."""
    s_motion = np.concatenate((axes_w, cross3(origins, axes_w)), axis=-1)

    cx = _skew(com_w)
    m = ch.mass[:, None, None]
    m_cx = m * cx
    spatial = np.empty(cx.shape[:-2] + (6, 6))
    spatial[...] = ch.spatial_rest      # m I already in the lower-right block
    np.add(inertia_w, m * c_einsum("...kij,...klj->...kil", cx, cx),
           out=spatial[..., :3, :3])
    spatial[..., :3, 3:] = m_cx
    np.negative(m_cx, out=spatial[..., 3:, :3])

    composite = spatial[..., ::-1, :, :].cumsum(-3)[..., ::-1, :, :]
    f = c_einsum("...kij,...kj->...ki", composite, s_motion)
    return f @ s_motion.swapaxes(-1, -2) + 0.0


def _mirrored(ch: _CompiledChain, low: np.ndarray) -> np.ndarray:
    """M from ``_mass_lower``: its lower triangle mirrored onto the upper."""
    return np.where(ch.lower, low, low.swapaxes(-1, -2))


def _newton_euler(ch: _CompiledChain, axes_w, origins, com_w, inertia_w, omega, domega,
                  a_com) -> tuple[np.ndarray, np.ndarray]:
    """Coriolis and gravity joint torques from one Newton-Euler pass with
    qdd = 0 over a pose's and a motion's arrays, run on a leading axis of
    length 2: the Coriolis half moves under zero gravity, the gravity half
    is at rest under the body loads ``ch.f_gravity`` (-m g)."""
    # (force, moment) x (Coriolis, gravity)
    loads = np.empty((2, 2) + inertia_w.shape[:-2] + (3,))
    f_body, moment_origin = loads
    np.multiply(ch.mass[:, None], a_com, out=f_body[0])
    f_body[1] = ch.f_gravity
    moment_origin[...] = cross3(com_w, f_body)
    moment_origin[0] += (c_einsum("...kij,...kj->...ki", inertia_w, domega)
                         + cross3(omega, c_einsum("...kij,...kj->...ki", inertia_w, omega)))
    moment_origin[1] += 0.0    # the rest pass adds a zero body moment
    f_sub, m_sub = loads[..., ::-1, :].cumsum(-2)[..., ::-1, :]
    n_joint = m_sub - cross3(origins, f_sub)
    return (c_einsum("...ki,...ki->...k", axes_w, n_joint[0]),
            c_einsum("...ki,...ki->...k", axes_w, n_joint[1]))


def bias_terms(model: RobotModel, state: RobotState) -> DynamicsTerms:
    """All dynamics terms at a state: a RobotState of one state, or of
    stacked rows (q and dq of shape (..., n)), stacked terms then.

    Coriolis forces come from a Newton-Euler pass with zero acceleration and
    zero gravity, gravity from a rest pass (both in one stacked pass);
    damping and stiffness are the diagonal restoring forces D_s qd and K_s q.
    """
    ch = model._chain
    pose = chain_pose(model, state.q)
    motion = chain_motion(pose, state.dq)
    axes_w, origins, com_w, inertia_w = pose.axes_w, pose.origins, pose.com_w, pose.inertia_w
    mass = _mirrored(ch, _mass_lower(ch, axes_w, origins, com_w, inertia_w))
    c_vec, g_vec = _newton_euler(ch, axes_w, origins, com_w, inertia_w, motion.omega,
                                 motion.domega, motion.a_com)
    return DynamicsTerms(M=mass, c_vec=c_vec, d_vec=model.D_s * state.dq,
                         k_vec=model.K_s * state.q, g_vec=g_vec, pose=pose, motion=motion)


def accelerations(model: RobotModel, q: np.ndarray, dq: np.ndarray,
                  force: np.ndarray) -> np.ndarray:
    """Joint accelerations M^-1 (force - h) at (q, dq), of shape (..., n),
    for a joint force such as B u of the same shape: an integrator stage.

    The passes of ``bias_terms`` on plain arrays, h summed ((c + d) + k) + g
    as ``DynamicsTerms.h`` sums it, the inertia guard once per M and a
    Cholesky solve per row: the bits of a solve with ``bias_terms`` at
    (q, dq), without its objects, end effector or mirrored M.
    """
    ch = model._chain
    one_row = q.ndim == 1
    _, axes_w, origins, offsets_w, com_w, inertia_w = _pose_pass(ch, q, buffer=one_row)
    omega, domega, _, _, a_com = _motion_pass(axes_w, offsets_w, origins, com_w, dq)
    mass = _mass_lower(ch, axes_w, origins, com_w, inertia_w)
    c_vec, g_vec = _newton_euler(ch, axes_w, origins, com_w, inertia_w, omega, domega, a_com)
    rhs = force - (c_vec + model.D_s * dq + model.K_s * q + g_vec)
    if one_row:
        return _potrs(factor_inertia(mass), rhs)
    return np.array([_potrs(factor_inertia(row), b) for row, b in zip(mass, rhs)])


def factor_inertia(mass: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of M (upper triangle zero), guarding against a
    degenerate M; only the lower triangle of M, with the diagonal, is read.

    M is rejected with IllConditioned unless it is positive definite with
    condition number at most COND_LIMIT, the rule of the exact eigenvalue
    check. Since trace(M) >= lambda_max and ||L^-1||_F^2 = trace(M^-1) >=
    1 / lambda_min, the bound trace(M) ||L^-1||_F^2 is never below cond(M);
    when it lies within _BOUND_MARGIN * COND_LIMIT, M passes without an
    eigenvalue decomposition. Otherwise, or when the factorisation or the
    triangular inverse fails, the eigenvalue check decides, and a failed
    factorisation never returns a factor.
    """
    factor, info = dpotrf(mass, lower=1)
    if info == 0:
        inv, inv_info = dtrtri(factor, lower=1)
        inv = inv.ravel("K")
        if inv_info == 0 and mass.trace() * (inv @ inv) <= _BOUND_MARGIN * COND_LIMIT:
            return factor
    w = eigvalsh(mass)
    if w[0] <= 0.0 or w[-1] / w[0] > COND_LIMIT:
        raise IllConditioned(
            f"inertia matrix condition {w[-1] / max(w[0], 1e-300):.2e} exceeds {COND_LIMIT:.0e}")
    if info != 0:
        raise LinAlgError(f"inertia matrix factorisation failed (potrf info {info})")
    return factor


def solve_inertia(terms: DynamicsTerms, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs by Cholesky with the guarded factor of M that
    ``terms`` keep (``factor_inertia``, made on first use), so repeated
    solves with one evaluation skip the guard and the factorisation. Terms
    stacked along one leading axis solve each row of ``rhs`` with that
    row's factor.
    """
    factor = terms.factor
    if isinstance(factor, list):
        return np.array([_potrs(row, b) for row, b in zip(factor, rhs)])
    return _potrs(factor, rhs)


def _potrs(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    x, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x
