"""Independent reference implementations used only to check the library.

Everything here is deliberately brute force (enumeration, finite
differences, textbook closed forms) and shares no code with the package.
"""

import itertools

import numpy as np


def svd_pinv(a, tol=1e-8):
    """Pseudoinverse assembled term by term from the SVD."""
    a = np.asarray(a, dtype=float)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = tol * (s[0] if s.size else 0.0)
    out = np.zeros((a.shape[1], a.shape[0]))
    for i, sv in enumerate(s):
        if sv > cutoff:
            out += np.outer(vt[i], u[:, i]) / sv
    return out


def penrose_defect(a, a_pinv):
    """Largest violation of the four Penrose identities."""
    a = np.asarray(a, dtype=float)
    return max(
        np.max(np.abs(a @ a_pinv @ a - a), initial=0.0),
        np.max(np.abs(a_pinv @ a @ a_pinv - a_pinv), initial=0.0),
        np.max(np.abs((a @ a_pinv).T - a @ a_pinv), initial=0.0),
        np.max(np.abs((a_pinv @ a).T - a_pinv @ a), initial=0.0),
    )


def brute_force_qp(H, f, A_eq=None, b_eq=None, A_in=None, b_in=None,
                   lb=None, ub=None, feas_tol=1e-8):
    """Globally solve a small convex QP by enumerating active sets.

    Bounds are folded into inequality rows. Every subset of inequality rows
    is treated as active, the resulting KKT system is solved, and the best
    feasible candidate with nonnegative multipliers wins. Returns None if no
    candidate is feasible (infeasible problem, as far as enumeration can
    tell).
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float).ravel()
    d = f.size
    A_eq = np.zeros((0, d)) if A_eq is None else np.atleast_2d(A_eq)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    rows = [np.zeros((0, d))] if A_in is None else [np.atleast_2d(A_in)]
    rhs = [np.zeros(0)] if b_in is None else [np.asarray(b_in, dtype=float).ravel()]
    eye = np.eye(d)
    if lb is not None:
        lo = np.isfinite(lb)
        rows.append(-eye[lo])
        rhs.append(-np.asarray(lb, dtype=float)[lo])
    if ub is not None:
        hi = np.isfinite(ub)
        rows.append(eye[hi])
        rhs.append(np.asarray(ub, dtype=float)[hi])
    G = np.vstack(rows)
    h = np.concatenate(rhs)
    r = G.shape[0]
    # More than d - p independent active rows is impossible; dependent
    # supersets only reproduce solutions already found at smaller sets.
    max_active = min(r, d - A_eq.shape[0])

    best_x, best_obj = None, np.inf
    for k in range(max_active + 1):
        for active in itertools.combinations(range(r), k):
            A = np.vstack([A_eq, G[list(active)]])
            b = np.concatenate([b_eq, h[list(active)]])
            m = A.shape[0]
            kkt = np.block([[H, A.T], [A, np.zeros((m, m))]])
            rhs_v = np.concatenate([-f, b])
            try:
                sol = np.linalg.solve(kkt, rhs_v)
            except np.linalg.LinAlgError:
                continue
            x = sol[:d]
            lam_in = sol[d + A_eq.shape[0]:]
            if np.any(lam_in < -1e-9):
                continue
            if A_eq.shape[0] and np.max(np.abs(A_eq @ x - b_eq)) > feas_tol:
                continue
            if r and np.max(G @ x - h) > feas_tol:
                continue
            obj = 0.5 * x @ H @ x + f @ x
            if obj < best_obj - 1e-12:
                best_obj, best_x = obj, x
    return best_x


def fd_gradient(func, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = h
        g[i] = (func(x + dx) - func(x - dx)) / (2.0 * h)
    return g


def fd_jacobian(func, x, h=1e-6):
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x))
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = h
        jac[:, i] = (np.asarray(func(x + dx)) - np.asarray(func(x - dx))) / (2.0 * h)
    return jac


def two_link_mass_matrix(m1, m2, l1, l2, lc1, lc2, i1, i2, q2):
    """Closed-form inertia matrix of a planar two-link arm (textbook form).

    Angles are relative; lc are joint-to-COM distances along each link and
    i1/i2 are rotational inertias about the COMs.
    """
    a = i1 + i2 + m1 * lc1 ** 2 + m2 * (l1 ** 2 + lc2 ** 2)
    b = m2 * l1 * lc2
    c = i2 + m2 * lc2 ** 2
    return np.array([
        [a + 2.0 * b * np.cos(q2), c + b * np.cos(q2)],
        [c + b * np.cos(q2), c],
    ])


def christoffel_coriolis(mass_fn, q, dq, h=1e-6):
    """Coriolis matrix from Christoffel symbols of a finite-differenced M."""
    n = q.size
    dM = np.zeros((n, n, n))
    for k in range(n):
        dqk = np.zeros(n)
        dqk[k] = h
        dM[:, :, k] = (mass_fn(q + dqk) - mass_fn(q - dqk)) / (2.0 * h)
    C = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                C[i, j] += 0.5 * (dM[i, j, k] + dM[i, k, j] - dM[k, j, i]) * dq[k]
    return C


def _rodrigues(axis, angle):
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    v = 1.0 - c
    return np.array([
        [c + x * x * v, x * y * v - z * s, x * z * v + y * s],
        [y * x * v + z * s, c + y * y * v, y * z * v - x * s],
        [z * x * v - y * s, z * y * v + x * s, c + z * z * v],
    ])


def loop_chain_pose(chain, q):
    """World placement of every elementary DOF, one Rodrigues rotation per
    DOF in a Python loop. ``chain`` holds the per-DOF arrays of a compiled
    robot (offsets, axes, mass, com_local, inertia_local, ee_local, gravity);
    the result maps each ChainPose field name to its array."""
    n = chain.axes.shape[0]
    axes_w = np.empty((n, 3))
    origins = np.empty((n, 3))
    rot = np.empty((n, 3, 3))
    r = np.eye(3)
    p = np.zeros(3)
    for k in range(n):
        p = p + r @ chain.offsets[k]
        axes_w[k] = r @ chain.axes[k]
        r = r @ _rodrigues(chain.axes[k], q[k])
        origins[k] = p
        rot[k] = r
    return {
        "axes_w": axes_w,
        "origins": origins,
        "rot": rot,
        "com_w": origins + np.einsum("kij,kj->ki", rot, chain.com_local),
        "inertia_w": np.einsum("kij,kj,klj->kil", rot, chain.inertia_local, rot),
        "mass": chain.mass,
        "ee": origins[-1] + rot[-1] @ chain.ee_local,
        "gravity": chain.gravity,
        "offsets_w": np.diff(origins, axis=0, prepend=np.zeros((1, 3))),
    }


def ten_cross_chain_motion(pose, dq):
    """Velocity pass at (q, dq) with qdd = 0, written with one np.cross per
    cross product it needs (ten, three of them repeated); returns a dict
    keyed by ChainMotion field name."""
    spin = pose.axes_w * dq[:, None]
    omega = np.cumsum(spin, axis=0)
    omega_prev = omega - spin
    domega = np.cumsum(np.cross(omega_prev, spin), axis=0)
    domega_prev = domega - np.cross(omega_prev, spin)
    d = pose.offsets_w
    v_origin = np.cumsum(np.cross(omega_prev, d), axis=0)
    a_origin = np.cumsum(
        np.cross(domega_prev, d) + np.cross(omega_prev, np.cross(omega_prev, d)), axis=0)
    arm = pose.com_w - pose.origins
    a_com = a_origin + np.cross(domega, arm) + np.cross(omega, np.cross(omega, arm))
    return {"omega": omega, "domega": domega, "v_origin": v_origin,
            "a_origin": a_origin, "a_com": a_com}


def two_pass_inverse_dynamics(pose, motion, with_gravity):
    """Joint torques from Newton-Euler with qdd = 0, one pass per call:
    the moving chain without gravity, or (motion=None) the chain at rest
    under gravity."""
    if motion is None:
        f_body = -pose.mass[:, None] * pose.gravity[None, :] * (1.0 if with_gravity else 0.0)
        n_body = np.zeros_like(f_body)
    else:
        g = pose.gravity if with_gravity else np.zeros(3)
        f_body = pose.mass[:, None] * (motion.a_com - g[None, :])
        iw = pose.inertia_w
        n_body = (np.einsum("kij,kj->ki", iw, motion.domega)
                  + np.cross(motion.omega, np.einsum("kij,kj->ki", iw, motion.omega)))
    moment_origin = n_body + np.cross(pose.com_w, f_body)
    f_sub = np.cumsum(f_body[::-1], axis=0)[::-1]
    m_sub = np.cumsum(moment_origin[::-1], axis=0)[::-1]
    n_joint = m_sub - np.cross(pose.origins, f_sub)
    return np.einsum("ki,ki->k", pose.axes_w, n_joint)


def tril_mass_matrix(pose):
    """Composite-rigid-body inertia matrix, symmetrised by mirroring its
    lower triangle with np.tril."""
    n = pose.axes_w.shape[0]
    s_motion = np.hstack([pose.axes_w, np.cross(pose.origins, pose.axes_w)])
    cx = np.zeros((n, 3, 3))
    cx[:, 0, 1] = -pose.com_w[:, 2]
    cx[:, 0, 2] = pose.com_w[:, 1]
    cx[:, 1, 0] = pose.com_w[:, 2]
    cx[:, 1, 2] = -pose.com_w[:, 0]
    cx[:, 2, 0] = -pose.com_w[:, 1]
    cx[:, 2, 1] = pose.com_w[:, 0]
    m = pose.mass[:, None, None]
    spatial = np.zeros((n, 6, 6))
    spatial[:, :3, :3] = pose.inertia_w + m * np.einsum("kij,klj->kil", cx, cx)
    spatial[:, :3, 3:] = m * cx
    spatial[:, 3:, :3] = -m * cx
    spatial[:, 3:, 3:] = m * np.eye(3)
    composite = np.cumsum(spatial[::-1], axis=0)[::-1]
    f = np.einsum("kij,kj->ki", composite, s_motion)
    full = f @ s_motion.T
    return np.tril(full) + np.tril(full, -1).T


def pinv_each_step_impedance_torque(model, terms, ts, err, ddy_ref, dq, kp, kd, uic):
    """Commanded input of the ic (uic=False) or uic law before clamping,
    written as it was before the pseudoinverses were shared: J^+ and B^+
    (twice for uic) are recomputed at every call. M is solved through its
    plain Cholesky factor and the task inertia is regularised by 1e-8."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    def pinv(a):
        return np.linalg.pinv(a, rcond=1e-8)

    jac, djac = ts.J, ts.dJ
    factor, _ = dpotrf(terms.M, lower=1)
    minv_jt, _ = dpotrs(factor, jac.T, lower=1)
    lam = np.linalg.inv(jac @ minv_jt + 1e-8 * np.eye(model.task_dim))
    ydd_des = ddy_ref - kd * err.de - kp * err.e
    h_task = pinv(jac).T @ terms.c_vec - lam @ (djac @ dq)
    tau_task = jac.T @ (lam @ ydd_des + h_task)
    if uic:
        blocked = np.eye(model.n) - model.B @ pinv(model.B)
        tau_null = -pinv(blocked @ ts.N) @ (blocked @ tau_task)
        tau_task = tau_task + ts.N @ tau_null
    return pinv(model.B) @ (tau_task + terms.d_vec + terms.k_vec + terms.g_vec)


def eigvalsh_psd_rule(h):
    """True when H passes the eigenvalue PSD rule: the least eigenvalue of
    (H + H')/2 is at least -1e-10 max(1, max|H_ij|)."""
    h = np.asarray(h, dtype=float)
    scale = max(1.0, float(np.max(np.abs(h))))
    return np.linalg.eigvalsh(0.5 * (h + h.T))[0] >= -1e-10 * scale


def row_by_row_independent(g, candidates, tol=1e-10):
    """Candidates kept, in order, by one matrix_rank test per candidate: a
    row is added when the kept rows plus it have full rank at ``tol``."""
    rows = []
    for p in candidates:
        trial = rows + [p]
        if np.linalg.matrix_rank(g[trial], tol=tol) == len(trial):
            rows = trial
    return rows


def assembled_kkt_qp(prob, warm_start=None, max_iter=None):
    """The dual active-set solver as it was before its fixed costs were cut:
    the bound rows stacked per call, one matrix_rank test per warm-start
    candidate, an unconditional first solve with H, and every KKT system
    assembled with np.block. Reads H, f, A_eq, b_eq, A_in, b_in, lb, ub of
    ``prob`` (all present, lb/ub possibly infinite) and returns
    (x, active_set, iterations, status, multipliers) with status "Optimal",
    "Infeasible" or "MaxIter", and the multiplier of every stacked
    inequality row (zero off the working set, and all zero when
    infeasible)."""
    feas_tol, dual_tol, zero_dir_tol, eq_rank_tol = 1e-8, 1e-10, 1e-11, 1e-12
    d = prob.f.shape[0]
    eye = np.eye(d)
    lo, hi = np.isfinite(prob.lb), np.isfinite(prob.ub)
    g_all = np.vstack([prob.A_in, -eye[lo], eye[hi]])
    h_all = np.concatenate([prob.b_in, -prob.lb[lo], prob.ub[hi]])

    if prob.A_eq.shape[0] == 0:
        x_p, z_basis, consistent = np.zeros(d), np.eye(d), True
    else:
        u, s, vt = np.linalg.svd(prob.A_eq, full_matrices=True)
        rank = int(np.sum(s > eq_rank_tol * max(s[0], 1.0))) if s.size else 0
        x_p = vt[:rank].T @ ((u[:, :rank].T @ prob.b_eq) / s[:rank])
        z_basis = vt[rank:].T
        resid = np.max(np.abs(prob.A_eq @ x_p - prob.b_eq)) if prob.b_eq.size else 0.0
        consistent = resid <= feas_tol * (1.0 + np.max(np.abs(prob.b_eq), initial=0.0))
    no_lam = np.zeros(g_all.shape[0])
    if not consistent:
        return x_p, (), 0, "Infeasible", no_lam
    g = g_all @ z_basis
    rhs_all = h_all - g_all @ x_p
    if z_basis.shape[1] == 0:
        viol = g_all @ x_p - h_all
        ok = viol.size == 0 or np.max(viol) <= feas_tol
        return x_p, (), 0, "Optimal" if ok else "Infeasible", no_lam

    h = z_basis.T @ prob.H @ z_basis
    h = 0.5 * (h + h.T)
    f = z_basis.T @ (prob.H @ x_p + prob.f)
    scale, ridge = max(1.0, float(np.max(np.abs(h)))), 0.0
    for _ in range(6):
        try:
            chol = np.linalg.cholesky(h + ridge * np.eye(h.shape[0]))
            break
        except np.linalg.LinAlgError:
            ridge = max(ridge * 100.0, 1e-12 * scale)
    else:
        raise np.linalg.LinAlgError("reduced Hessian is not positive semidefinite")
    nz = h.shape[0]

    def solve_h(b):
        return np.linalg.solve(chol.T, np.linalg.solve(chol, b))

    def kkt_solve(idx, top, bottom):
        gw = g[idx]
        k = len(idx)
        kkt = np.block([[h, gw.T], [gw, np.zeros((k, k))]])
        sol = np.linalg.solve(kkt, np.concatenate([top, bottom]))
        return sol[:nz], list(sol[nz:])

    def stacked(idx, lam):
        lam_full = np.zeros(g_all.shape[0])
        for local, p in enumerate(idx):
            lam_full[p] = lam[local]
        return lam_full

    def solve_eqp(idx):
        if not idx:
            return solve_h(-f), []
        return kkt_solve(idx, -f, rhs_all[idx])

    idx, lam = [], []
    z = solve_h(-f)
    if warm_start:
        idx = row_by_row_independent(g, [p for p in warm_start if 0 <= p < g.shape[0]])
        lam = [0.0] * len(idx)
        while True:
            try:
                z, lam = solve_eqp(idx)
            except np.linalg.LinAlgError:
                idx = []
                z, lam = solve_eqp(idx)
                break
            if not lam:
                break
            worst = int(np.argmin(lam))
            if lam[worst] >= -dual_tol:
                break
            del idx[worst]
            del lam[worst]

    if max_iter is None:
        max_iter = 50 + 10 * g_all.shape[0]
    iters = 0
    while iters < max_iter:
        iters += 1
        slack = g @ z - rhs_all
        if slack.size:
            slack[idx] = -np.inf
        p = int(np.argmax(slack)) if slack.size else -1
        if p < 0 or slack[p] <= feas_tol:
            return x_p + z_basis @ z, tuple(sorted(idx)), iters, "Optimal", stacked(idx, lam)
        n_p, s_p, lam_p = g[p], slack[p], 0.0
        while True:
            if idx:
                dz, r = kkt_solve(idx, n_p, np.zeros(len(idx)))
            else:
                dz, r = solve_h(n_p), []
            curvature = float(n_p @ dz)
            moving = curvature > zero_dir_tol * (1.0 + float(np.abs(n_p) @ np.abs(dz)))
            t1, block = np.inf, -1
            for local, rate in enumerate(r):
                if rate > dual_tol and lam[local] / rate < t1:
                    t1, block = lam[local] / rate, local
            if not moving:
                if not np.isfinite(t1):
                    return x_p + z_basis @ z, (), iters, "Infeasible", no_lam
                for local, rate in enumerate(r):
                    lam[local] -= t1 * rate
                lam_p += t1
                del idx[block]
                del lam[block]
                continue
            t2 = s_p / curvature
            t = min(t1, t2)
            z = z - t * dz
            for local, rate in enumerate(r):
                lam[local] -= t * rate
            lam_p += t
            s_p -= t * curvature
            if t2 <= t1:
                idx.append(p)
                lam.append(lam_p)
                break
            del idx[block]
            del lam[block]
    return x_p + z_basis @ z, tuple(sorted(idx)), iters, "MaxIter", stacked(idx, lam)


def rk4_step(accel, q, dq, dt):
    """One classical RK4 step of q' = dq, dq' = accel(q, dq), written as the
    simulator wrote it before its stages were trimmed: every stage's
    accelerations evaluated afresh by ``accel``, and each stage velocity
    formed once for the stage state and again as that stage's position
    slope. Returns (q_next, dq_next)."""
    k1d = accel(q, dq)
    k1q = dq
    k2d = accel(q + 0.5 * dt * k1q, dq + 0.5 * dt * k1d)
    k2q = dq + 0.5 * dt * k1d
    k3d = accel(q + 0.5 * dt * k2q, dq + 0.5 * dt * k2d)
    k3q = dq + 0.5 * dt * k2d
    k4d = accel(q + dt * k3q, dq + dt * k3d)
    k4q = dq + dt * k3d
    q_next = q + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    dq_next = dq + dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    return q_next, dq_next


def row_by_row_trajectory_csv(traj, path, columns):
    """The trajectory CSV as the exporter wrote it before it stacked whole
    columns: one Python list per row and ``repr(float(v))`` per cell, one
    write per line. ``columns`` is the header row."""
    err = traj.y - traj.y_ref
    v0 = traj.V[0] if len(traj) and np.isfinite(traj.V[0]) and traj.V[0] > 0.0 else 1.0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, val in sorted(traj.metadata.items()):
            fh.write(f"# {key}: {val}\n")
        if traj.failed:
            fh.write(f"# failed: {traj.failure_reason}\n")
        fh.write(",".join(columns) + "\n")
        for i in range(len(traj)):
            row = ([traj.t[i]] + list(err[i]) + list(traj.y[i]) + list(traj.y_ref[i])
                   + [traj.V[i], traj.V[i] / v0, traj.Vdot[i], traj.delta[i]]
                   + list(traj.u[i]))
            text = [repr(float(v)) for v in row]
            text.append(traj.qp_status[i])
            text.append(repr(float(traj.solve_time[i] * 1000.0)))
            fh.write(",".join(text) + "\n")


def entrywise_failures(q, dq, t):
    """The reason each row of q and dq ends on, "" for a row that may go
    on, from one finiteness and one magnitude test per row: non-finite
    first, then beyond 1e12."""
    reasons = []
    for q_row, dq_row in zip(q, dq):
        if not (np.all(np.isfinite(q_row)) and np.all(np.isfinite(dq_row))):
            reasons.append(f"non-finite state at t={t:.6f}")
        elif max(np.max(np.abs(q_row)), np.max(np.abs(dq_row))) > 1e12:
            reasons.append(f"state magnitude exceeded 1e12 at t={t:.6f}")
        else:
            reasons.append("")
    return reasons
