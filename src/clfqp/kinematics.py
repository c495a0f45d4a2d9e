"""Task-space maps: forward kinematics, positional Jacobian, its analytic
time derivative, and the null-space projector I - J^+ J.

Planar robots control (x, z); spatial robots control (x, y, z). The
Jacobian derivative is assembled from the body-velocity recursion rather
than finite differences, so ydd = J qdd + dJ qd holds along trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eye, pinv
# chain_motion stays a name of this module: bench/tracer.py patches it here
from .multibody import (ChainMotion, ChainPose, RobotModel, RobotState,  # noqa: F401
                        chain_motion, chain_pose, cross3, matvec)


def task_rows(model: RobotModel) -> np.ndarray:
    """World coordinate indices controlled by this robot's task."""
    return np.array([0, 2]) if model.task_dim == 2 else np.array([0, 1, 2])


def forward_kinematics(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """End-effector position in base coordinates (base at the origin)."""
    return chain_pose(model, np.asarray(q, dtype=float)).ee


def _full_jacobian(pose) -> np.ndarray:
    """(..., 3, n) positional Jacobian: column k is axis_k x (ee - origin_k)."""
    return cross3(pose.axes_w, pose.ee[..., None, :] - pose.origins).swapaxes(-1, -2)


def _dj_full(pose, motion) -> np.ndarray:
    # d/dt [a_k x (ee - p_k)] with the axis carried by its link.
    v_ee = (motion.v_origin[..., -1, :]
            + cross3(motion.omega[..., -1, :], pose.ee - pose.origins[..., -1, :]))
    da = cross3(motion.omega, pose.axes_w)
    arm = pose.ee[..., None, :] - pose.origins
    darm = v_ee[..., None, :] - motion.v_origin
    return (cross3(da, arm) + cross3(pose.axes_w, darm)).swapaxes(-1, -2)


@dataclass(frozen=True)
class TaskState:
    """Task-space snapshot: position, velocity (J qd by construction),
    Jacobian, Jacobian derivative, null-space projector, and the Jacobian's
    pseudoinverse the projector was built from."""

    y: np.ndarray
    dy: np.ndarray
    J: np.ndarray
    dJ: np.ndarray
    N: np.ndarray
    J_pinv: np.ndarray


def task_state(model: RobotModel, state: RobotState, pose: ChainPose,
               motion: ChainMotion) -> TaskState:
    """The full task-space snapshot at a robot state, from the pose and
    motion passes made at it (those ``bias_terms`` keeps). A state whose q
    and dq have leading axes, with passes made for it, gives a snapshot
    whose fields have the same leading axes.
    """
    rows = task_rows(model)
    jac = _full_jacobian(pose).take(rows, -2)
    dj = _dj_full(pose, motion).take(rows, -2)
    jac_pinv = pinv(jac)
    return TaskState(y=pose.ee[..., rows], dy=matvec(jac, state.dq), J=jac, dJ=dj,
                     N=eye(jac.shape[-1]) - jac_pinv @ jac, J_pinv=jac_pinv)
