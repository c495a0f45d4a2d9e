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
elements). ``bias_terms`` packages the result as ``DynamicsTerms``;
``accelerations``, which an integrator stage calls, runs the same sequence
and keeps only M and h, for the guarded factor and the solve.

The recursions take leading batch axes: ``chain_pose``, ``chain_motion``,
the mass matrix, the Newton-Euler pass, ``bias_terms`` and
``forward_dynamics`` accept q and dq of shape (..., n), so the states of
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
the terms keep the guarded factor, and every ``solve_inertia`` given those
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
    return _CompiledChain(
        offsets=np.array(offsets), axes=axes, mass=mass,
        com_local=np.array(com), inertia_local=np.array(inertia),
        ee_local=ee, gravity=gravity,
        axis_outer=axes[:, :, None] * axes[:, None, :], axis_skew=_skew(axes),
        f_gravity=-mass[:, None] * gravity[None, :],
        spatial_rest=np.pad(mass[:, None, None] * np.eye(3), ((0, 0), (3, 0), (3, 0))),
        lower=np.tri(len(axes), dtype=bool))


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


def _rodrigues_stack(ch: _CompiledChain, angles: np.ndarray) -> np.ndarray:
    """Elementary rotation of every element, (..., n, 3, 3): R = c I
    + (1 - c) a a' + s [a]x about each element's axis a.

    Each entry is (a_i a_j) (1 - c) + [a]x_ij s, plus c on the diagonal:
    the products and sums of the per-entry Rodrigues formula, so the result
    is bitwise that of evaluating the formula one DOF at a time."""
    c, s = np.cos(angles), np.sin(angles)
    # rot is C-ordered whatever the layout of angles, so the reshape below
    # is a view, whose entries 0, 4 and 8 per element are the diagonal
    rot = np.multiply(ch.axis_outer, (1.0 - c)[..., None, None],
                      out=np.empty(c.shape + (3, 3)))
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


def chain_pose(model: RobotModel, q: np.ndarray) -> ChainPose:
    """Forward pass: world placement of every element at configuration q,
    of shape (..., n); every field gains the same leading axes."""
    ch = model._chain
    # Only the running product stays sequential; its order fixes the rounding.
    # It steps along the elements (first axis after the swap), each product
    # covering every leading index; the swap back restores the axis order.
    rots = _rodrigues_stack(ch, q).swapaxes(0, -3)
    frames = np.empty((len(rots) + 1,) + rots.shape[1:])
    frames[0] = _EYE3      # the identity frame, over every leading index
    # For one state ndarray.dot makes the same BLAS dgemm call as matmul,
    # with less overhead per call; stacked states need matmul's loop over them.
    product = np.matmul if rots.ndim > 3 else np.ndarray.dot
    for parent, elementary, child in zip(frames, rots, frames[1:]):
        product(parent, elementary, out=child)
    frames = np.ascontiguousarray(frames.swapaxes(0, -3))
    rot = frames[..., 1:, :, :]
    rot_prev = frames[..., :-1, :, :]     # parent frame of each element, identity first
    axes_w = (rot_prev @ ch.axes[:, :, None])[..., 0]
    origins = (rot_prev @ ch.offsets[:, :, None])[..., 0].cumsum(-2)
    com_w = origins + c_einsum("...kij,kj->...ki", rot, ch.com_local)
    inertia_w = c_einsum("...kij,kj,...klj->...kil", rot, ch.inertia_local, rot)
    ee = origins[..., -1, :] + rot[..., -1, :, :] @ ch.ee_local
    offsets_w = np.empty_like(origins)    # np.diff from a zero origin
    offsets_w[..., 0, :] = origins[..., 0, :]
    np.subtract(origins[..., 1:, :], origins[..., :-1, :], out=offsets_w[..., 1:, :])
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
    v_com: np.ndarray       # (n, 3)
    a_com: np.ndarray       # (n, 3)


def chain_motion(pose: ChainPose, dq: np.ndarray) -> ChainMotion:
    """Velocity pass at the pose's configuration with velocities dq, (..., n)."""
    spin = pose.axes_w * dq[..., None]
    omega = spin.cumsum(-2)
    omega_prev = omega - spin
    w_spin = cross3(omega_prev, spin)
    domega = w_spin.cumsum(-2)
    domega_prev = domega - w_spin

    d = pose.offsets_w
    w_d = cross3(omega_prev, d)
    v_origin = w_d.cumsum(-2)
    a_origin = (cross3(domega_prev, d) + cross3(omega_prev, w_d)).cumsum(-2)

    arm = pose.com_w - pose.origins
    w_arm = cross3(omega, arm)
    v_com = v_origin + w_arm
    a_com = a_origin + cross3(domega, arm) + cross3(omega, w_arm)
    return ChainMotion(omega=omega, domega=domega, v_origin=v_origin,
                       a_origin=a_origin, v_com=v_com, a_com=a_com)


# Row-major entries of [v]x: the component of v each takes (3 is a zero
# column for the diagonal) and its sign.
_SKEW_SRC = np.array([3, 2, 1, 2, 3, 0, 1, 0, 3])
_SKEW_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


def _skew(v: np.ndarray) -> np.ndarray:
    """Stacked skew matrices for an (..., 3) array."""
    padded = np.concatenate((v, np.zeros(v.shape[:-1] + (1,))), axis=-1)
    return (padded.take(_SKEW_SRC, -1) * _SKEW_SIGN).reshape(v.shape[:-1] + (3, 3))


def _mass_matrix_from_pose(pose: ChainPose, ch: _CompiledChain) -> np.ndarray:
    s_motion = np.concatenate((pose.axes_w, cross3(pose.origins, pose.axes_w)), axis=-1)

    cx = _skew(pose.com_w)
    m = pose.mass[:, None, None]
    m_cx = m * cx
    spatial = np.empty(cx.shape[:-2] + (6, 6))
    spatial[...] = ch.spatial_rest      # m I already in the lower-right block
    np.add(pose.inertia_w, m * c_einsum("...kij,...klj->...kil", cx, cx),
           out=spatial[..., :3, :3])
    spatial[..., :3, 3:] = m_cx
    np.negative(m_cx, out=spatial[..., 3:, :3])

    composite = spatial[..., ::-1, :, :].cumsum(-3)[..., ::-1, :, :]
    f = c_einsum("...kij,...kj->...ki", composite, s_motion)
    full = f @ s_motion.swapaxes(-1, -2)
    # Mirror the lower triangle; + 0.0 turns a -0.0 entry into +0.0.
    return np.where(ch.lower, full, full.swapaxes(-1, -2)) + 0.0


def mass_matrix(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Joint-space inertia matrix via the composite-rigid-body recursion."""
    return _mass_matrix_from_pose(chain_pose(model, np.asarray(q, dtype=float)),
                                  model._chain)


def _inverse_dynamics_zero_qdd(pose: ChainPose, motion: ChainMotion,
                               f_gravity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coriolis and gravity joint torques from one Newton-Euler pass with
    qdd = 0, run on a leading axis of length 2: the Coriolis half moves with
    ``motion`` under zero gravity, the gravity half is at rest under the
    body loads ``f_gravity`` (-m g)."""
    iw = pose.inertia_w
    loads = np.empty((2, 2) + iw.shape[:-2] + (3,))   # (force, moment) x (Coriolis, gravity)
    f_body, moment_origin = loads
    np.multiply(pose.mass[:, None], motion.a_com, out=f_body[0])
    f_body[1] = f_gravity
    moment_origin[...] = cross3(pose.com_w, f_body)
    moment_origin[0] += (c_einsum("...kij,...kj->...ki", iw, motion.domega)
                         + cross3(motion.omega,
                                  c_einsum("...kij,...kj->...ki", iw, motion.omega)))
    moment_origin[1] += 0.0    # the rest pass adds a zero body moment
    f_sub, m_sub = loads[..., ::-1, :].cumsum(-2)[..., ::-1, :]
    n_joint = m_sub - cross3(pose.origins, f_sub)
    return (c_einsum("...ki,...ki->...k", pose.axes_w, n_joint[0]),
            c_einsum("...ki,...ki->...k", pose.axes_w, n_joint[1]))


def bias_terms(model: RobotModel, state: RobotState) -> DynamicsTerms:
    """All dynamics terms at a state: a RobotState of one state, or of
    stacked rows (q and dq of shape (..., n)), stacked terms then.

    Coriolis forces come from a Newton-Euler pass with zero acceleration and
    zero gravity, gravity from a rest pass (both in one stacked pass);
    damping and stiffness are the diagonal restoring forces D_s qd and K_s q.
    """
    pose, motion, mass, c_vec, g_vec = _chain_passes(model, state.q, state.dq)
    return DynamicsTerms(M=mass, c_vec=c_vec, d_vec=model.D_s * state.dq,
                         k_vec=model.K_s * state.q, g_vec=g_vec, pose=pose, motion=motion)


def _chain_passes(model: RobotModel, q: np.ndarray, dq: np.ndarray) -> tuple:
    """The passes of one state evaluation at (q, dq), in their order: pose,
    motion, the mass matrix, then the Coriolis and gravity forces."""
    ch = model._chain
    pose = chain_pose(model, q)
    motion = chain_motion(pose, dq)
    mass = _mass_matrix_from_pose(pose, ch)
    c_vec, g_vec = _inverse_dynamics_zero_qdd(pose, motion, ch.f_gravity)
    return pose, motion, mass, c_vec, g_vec


def accelerations(model: RobotModel, q: np.ndarray, dq: np.ndarray,
                  force: np.ndarray) -> np.ndarray:
    """Joint accelerations M^-1 (force - h) at (q, dq), of shape (..., n),
    for a joint force such as B u of the same shape.

    The chain passes, h summed ((c + d) + k) + g as ``DynamicsTerms.h`` sums
    it, the inertia guard once per evaluated M and a Cholesky solve per row:
    the bits of a solve with ``bias_terms`` at (q, dq), without building the
    terms.
    """
    mass, c_vec, g_vec = _chain_passes(model, q, dq)[2:]
    rhs = force - (c_vec + model.D_s * dq + model.K_s * q + g_vec)
    if mass.ndim == 2:
        return _potrs(factor_inertia(mass), rhs)
    return np.array([_potrs(factor_inertia(row), b) for row, b in zip(mass, rhs)])


def h_vector(model: RobotModel, state: RobotState) -> np.ndarray:
    """Sum of Coriolis, damping, stiffness, and gravity forces."""
    return bias_terms(model, state).h


def factor_inertia(mass: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of M (upper triangle zero), guarding against a
    degenerate M.

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


def solve_inertia(mass: np.ndarray | DynamicsTerms, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs by Cholesky, guarding against a degenerate M.

    ``mass`` is M itself or the DynamicsTerms holding it; terms keep their
    guarded factor, so repeated solves with one evaluation skip the guard
    and the factorisation. Terms stacked along one leading axis solve each
    row of ``rhs`` with that row's factor.
    """
    factor = mass.factor if isinstance(mass, DynamicsTerms) else factor_inertia(mass)
    if isinstance(factor, list):
        return np.array([_potrs(row, b) for row, b in zip(factor, rhs)])
    return _potrs(factor, rhs)


def _potrs(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    x, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def forward_dynamics(model: RobotModel, state: RobotState, u: np.ndarray,
                     terms: DynamicsTerms | None = None) -> np.ndarray:
    """Joint accelerations qdd = M^-1 (B u - h).

    Input bounds are the controllers' business, not enforced here. Passing
    precomputed terms avoids re-evaluating the chain and reuses their
    guarded factor of M. A state stacked along a leading axis takes one
    input row per state row.
    """
    force = matvec(model.B, np.asarray(u, dtype=float))
    if terms is None:
        return accelerations(model, state.q, state.dq, force)
    return solve_inertia(terms, force - terms.h)


def gravitational_potential(model: RobotModel, q: np.ndarray) -> float:
    """Potential energy of gravity (zero with all COMs at the origin)."""
    pose = chain_pose(model, np.asarray(q, dtype=float))
    return float(-np.sum(pose.mass[:, None] * pose.gravity[None, :] * pose.com_w))


def total_energy(model: RobotModel, state: RobotState) -> float:
    """Kinetic plus gravitational plus elastic energy; conserved when the
    robot is undamped and unforced."""
    mass = mass_matrix(model, state.q)
    kinetic = 0.5 * state.dq @ mass @ state.dq
    elastic = 0.5 * state.q @ (model.K_s * state.q)
    return kinetic + gravitational_potential(model, state.q) + elastic
