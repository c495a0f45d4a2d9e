"""Small hand-checkable robot models, and shorthands built on the
package's public functions, shared across test modules."""

import numpy as np

from clfqp.controllers import evaluate
from clfqp.multibody import (Joint, Link, RobotModel, RobotState, accelerations, bias_terms,
                             chain_pose, solve_inertia)
from clfqp.robots import resolve_spec

Y_AXIS = (0.0, -1.0, 0.0)  # positive rotation swings the tip toward +x


def pendulum(length=1.0, mass=1.0, gravity=(0.0, 0.0, -9.81), k_s=0.0, d_s=0.0):
    """Point mass on a massless rod, one revolute joint about y."""
    return RobotModel(
        name="pendulum",
        links=(Link(mass=mass, com=(0.0, 0.0, -length), inertia=(0.0, 0.0, 0.0),
                    length=length),),
        joints=(Joint(kind="revolute", axis=Y_AXIS),),
        K_s=np.array([k_s]), D_s=np.array([d_s]),
        B=np.array([[1.0]]), u_min=np.array([-1e6]), u_max=np.array([1e6]),
        task_dim=2, gravity=gravity)


def two_link(m1=1.5, m2=0.8, l1=0.5, l2=0.4, gravity=(0.0, 0.0, -9.81),
             k_s=(0.0, 0.0), d_s=(0.0, 0.0), b=None, u_lim=1e6):
    """Planar two-link arm, uniform rods, fully actuated by default."""
    i1 = m1 * l1 ** 2 / 12.0
    i2 = m2 * l2 ** 2 / 12.0
    b = np.eye(2) if b is None else np.asarray(b, dtype=float)
    m = b.shape[1]
    return RobotModel(
        name="two_link",
        links=(Link(mass=m1, com=(0.0, 0.0, -l1 / 2.0), inertia=(i1, i1, 0.0), length=l1),
               Link(mass=m2, com=(0.0, 0.0, -l2 / 2.0), inertia=(i2, i2, 0.0), length=l2)),
        joints=(Joint(kind="revolute", axis=Y_AXIS), Joint(kind="revolute", axis=Y_AXIS)),
        K_s=np.asarray(k_s, dtype=float), D_s=np.asarray(d_s, dtype=float),
        B=b, u_min=np.full(m, -u_lim), u_max=np.full(m, u_lim),
        task_dim=2, gravity=gravity)


def two_link_params():
    """Parameters of two_link() in the textbook oracle's terms."""
    m1, m2, l1, l2 = 1.5, 0.8, 0.5, 0.4
    return dict(m1=m1, m2=m2, l1=l1, l2=l2, lc1=l1 / 2, lc2=l2 / 2,
                i1=m1 * l1 ** 2 / 12, i2=m2 * l2 ** 2 / 12)


def ball_chain(n_links=3, length=0.2, mass=0.3, k_s=1.0, d_s=0.05,
               gravity=(0.0, 0.0, -9.81)):
    """Spatial chain of ball joints (3 DOF each), base-cable style actuation."""
    radius = 0.02
    i_t = mass * (length ** 2 / 12.0 + radius ** 2 / 4.0)
    i_a = mass * radius ** 2 / 2.0
    links = tuple(Link(mass=mass, com=(0.0, 0.0, -length / 2.0),
                       inertia=(i_t, i_t, i_a), length=length)
                  for _ in range(n_links))
    joints = tuple(Joint(kind="ball") for _ in range(n_links))
    n = 3 * n_links
    # one torque generator per DOF of the first link, plus a distal pair
    b = np.zeros((n, 3))
    b[0, 0] = b[1, 1] = b[2, 2] = 0.01
    return RobotModel(
        name="ball_chain", links=links, joints=joints,
        K_s=np.full(n, k_s), D_s=np.full(n, d_s), B=b,
        u_min=np.full(3, -1e6), u_max=np.full(3, 1e6),
        task_dim=3, gravity=gravity)


def straight_chain(n_links=4, length=0.06, mass=0.05, k_s=0.2, d_s=0.01,
                   gravity=(0.0, 0.0, -9.81), u_lim=1e6):
    """Planar n-link chain, one revolute joint per link, diagonal actuation."""
    radius = 0.005
    i_t = mass * (length ** 2 / 12.0 + radius ** 2 / 4.0)
    i_a = mass * radius ** 2 / 2.0
    links = tuple(Link(mass=mass, com=(0.0, 0.0, -length / 2.0),
                       inertia=(i_t, i_t, i_a), length=length)
                  for _ in range(n_links))
    joints = tuple(Joint(kind="revolute", axis=Y_AXIS) for _ in range(n_links))
    return RobotModel(
        name="straight_chain", links=links, joints=joints,
        K_s=np.full(n_links, k_s), D_s=np.full(n_links, d_s),
        B=np.eye(n_links), u_min=np.full(n_links, -u_lim),
        u_max=np.full(n_links, u_lim), task_dim=2, gravity=gravity)


def rk4_rollout(model, q0, dq0, u_fn, dt, steps):
    """Plain fixed-step RK4 on the open-loop dynamics, for test oracles."""
    q = np.asarray(q0, dtype=float).copy()
    dq = np.asarray(dq0, dtype=float).copy()
    t = 0.0
    qs, dqs = [q.copy()], [dq.copy()]
    for _ in range(steps):
        force = model.B @ u_fn(t, q, dq)

        def deriv(qq, dd):
            return dd, accelerations(model, qq, dd, force)

        k1q, k1d = deriv(q, dq)
        k2q, k2d = deriv(q + 0.5 * dt * k1q, dq + 0.5 * dt * k1d)
        k3q, k3d = deriv(q + 0.5 * dt * k2q, dq + 0.5 * dt * k2d)
        k4q, k4d = deriv(q + dt * k3q, dq + dt * k3d)
        q = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        dq = dq + dt / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
        t += dt
        qs.append(q.copy())
        dqs.append(dq.copy())
    return np.array(qs), np.array(dqs)


def load_builtin(name):
    """(model, gains) of the built-in robot ``name``."""
    return resolve_spec(name).load()


def mass_matrix(model, q):
    """Joint-space inertia matrix M(q)."""
    q = np.asarray(q, dtype=float)
    return bias_terms(model, RobotState(q, np.zeros_like(q))).M


def gravitational_potential(model, q):
    """Potential energy of gravity (zero with all COMs at the origin)."""
    pose = chain_pose(model, np.asarray(q, dtype=float))
    return float(-np.sum(pose.mass[:, None] * pose.gravity[None, :] * pose.com_w))


def total_energy(model, state):
    """Kinetic plus gravitational plus elastic energy; conserved when the
    robot is undamped and unforced."""
    kinetic = 0.5 * state.dq @ mass_matrix(model, state.q) @ state.dq
    elastic = 0.5 * state.q @ (model.K_s * state.q)
    return kinetic + gravitational_potential(model, state.q) + elastic


def h_vector(model, state):
    """Sum of Coriolis, damping, stiffness, and gravity forces."""
    return bias_terms(model, state).h


def jacobian(model, q):
    """Task-space positional Jacobian (task_dim x n) at configuration q."""
    q = np.asarray(q, dtype=float)
    return evaluate(model, RobotState(q, np.zeros_like(q))).ts.J


def jacobian_dot(model, q, dq):
    """Time derivative of the task Jacobian along (q, dq)."""
    return evaluate(model, RobotState(q, dq)).ts.dJ


def evaluated_accelerations(model, q, dq, force):
    """M^-1 (force - h) at (q, dq) as a state evaluation makes it: the terms
    ``bias_terms`` builds there and their guarded factor."""
    terms = bias_terms(model, RobotState(q, dq))
    return solve_inertia(terms, force - terms.h)
