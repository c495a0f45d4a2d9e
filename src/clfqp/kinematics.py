"""Task-space maps: forward kinematics, positional Jacobian, its analytic
time derivative, and the null-space projector.

Planar robots control (x, z); spatial robots control (x, y, z). The
Jacobian derivative is assembled from the body-velocity recursion rather
than finite differences, so ydd = J qdd + dJ qd holds along trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eye, pinv
from .multibody import (ChainMotion, ChainPose, RobotModel, RobotState, chain_motion,
                        chain_pose, cross3, matvec)


def task_rows(model: RobotModel) -> np.ndarray:
    """World coordinate indices controlled by this robot's task."""
    return np.array([0, 2]) if model.task_dim == 2 else np.array([0, 1, 2])


def forward_kinematics(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """End-effector position in base coordinates (base at the origin)."""
    return chain_pose(model, np.asarray(q, dtype=float)).ee


def _full_jacobian(pose) -> np.ndarray:
    """(..., 3, n) positional Jacobian: column k is axis_k x (ee - origin_k)."""
    return cross3(pose.axes_w, pose.ee[..., None, :] - pose.origins).swapaxes(-1, -2)


def jacobian(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Task-space positional Jacobian (task_dim x n)."""
    pose = chain_pose(model, np.asarray(q, dtype=float))
    return _full_jacobian(pose).take(task_rows(model), -2)


def jacobian_dot(model: RobotModel, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Time derivative of the task Jacobian along (q, dq)."""
    pose = chain_pose(model, np.asarray(q, dtype=float))
    motion = chain_motion(pose, np.asarray(dq, dtype=float))
    return _dj_full(pose, motion).take(task_rows(model), -2)


def _dj_full(pose, motion) -> np.ndarray:
    # d/dt [a_k x (ee - p_k)] with the axis carried by its link.
    v_ee = (motion.v_origin[..., -1, :]
            + cross3(motion.omega[..., -1, :], pose.ee - pose.origins[..., -1, :]))
    da = cross3(motion.omega, pose.axes_w)
    arm = pose.ee[..., None, :] - pose.origins
    darm = v_ee[..., None, :] - motion.v_origin
    return (cross3(da, arm) + cross3(pose.axes_w, darm)).swapaxes(-1, -2)


def null_projector(jac: np.ndarray, jac_pinv: np.ndarray | None = None) -> np.ndarray:
    """N = I - J^+ J, the projector onto task-redundant joint motion.
    ``jac_pinv`` is J^+ when already known."""
    if jac_pinv is None:
        jac_pinv = pinv(jac)
    return eye(jac.shape[-1]) - jac_pinv @ jac


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


def task_state(model: RobotModel, state: RobotState, pose: ChainPose | None = None,
               motion: ChainMotion | None = None) -> TaskState:
    """Evaluate the full task-space snapshot at a robot state.

    ``pose`` and ``motion`` may carry the chain passes already made at this
    state (for example those kept by ``bias_terms``); missing ones are
    computed here. A state whose q and dq have leading axes, with passes
    made for it, gives a snapshot whose fields have the same leading axes.
    """
    if pose is None:
        pose = chain_pose(model, state.q)
    if motion is None:
        motion = chain_motion(pose, state.dq)
    rows = task_rows(model)
    jac = _full_jacobian(pose).take(rows, -2)
    dj = _dj_full(pose, motion).take(rows, -2)
    jac_pinv = pinv(jac)
    return TaskState(y=pose.ee[..., rows], dy=matvec(jac, state.dq), J=jac,
                     dJ=dj, N=null_projector(jac, jac_pinv), J_pinv=jac_pinv)
