"""One-point-at-a-time references for the stacked kernels.

These are the serial loops that the stacked numpy kernels replaced: a
scalar subgradient formula per coordinate, the power iteration on one
matrix, the min-norm box QP on one row, dist(0, d phi) at one point, and
the accelerated dual ascent with its Newton finish on one subproblem. The
stacked code must reproduce them row by row. The plain (unaccelerated)
dual ascent that the accelerated one replaced stays as an accuracy
reference, and so do the proximal-gradient loop that re-validated x in
every operation and the per-cell trace.csv writer that one format call
per row replaced.
"""

import math

import numpy as np

import proxbound as pb
from proxbound import _kernels as K
from proxbound.diagnostics import BOXQP_CAP, BOXQP_TOL
from proxbound.proxgrad import PROXGRAD_HEADER, _effective_step
from proxbound.vectors import as_vector


def subgrad_interval(kind, a, b, xi):
    """[lo, hi] of one coordinate's subdifferential, (None, None) outside
    the domain; a and b are that coordinate's two kernel parameters."""
    if kind == K.KIND_ZERO:
        return 0.0, 0.0
    if kind in (K.KIND_ABS, K.KIND_ENET):
        lo, hi = (a, a) if xi > 0.0 else (-a, -a) if xi < 0.0 else (-a, a)
        if kind == K.KIND_ENET:
            lo, hi = lo + b * xi, hi + b * xi
        return lo, hi
    if kind == K.KIND_BOX:
        if xi < a or xi > b:
            return None, None
        return (-np.inf if xi == a else 0.0), (np.inf if xi == b else 0.0)
    if kind == K.KIND_EPS:
        if xi > b:
            return a, a
        if xi == b:
            return 0.0, a
        if xi < -b:
            return -a, -a
        if xi == -b:
            return -a, 0.0
        return 0.0, 0.0
    if kind == K.KIND_CHECK:
        up, dn = a * b, a * (b - 1.0)
        return (up, up) if xi > 0.0 else (dn, dn) if xi < 0.0 else (dn, up)
    g = min(max(xi / b, -a), a)  # huber envelope
    return g, g


def subgrad_bounds(penalty, x):
    """Coordinatewise subdifferential of penalty at the point x."""
    kind, p1, p2 = penalty._packed(x.shape[0])
    p1, p2 = np.broadcast_to(p1, x.shape), np.broadcast_to(p2, x.shape)
    pairs = [subgrad_interval(kind, a, b, xi) for a, b, xi in zip(p1, p2, x)]
    if any(lo is None for lo, _ in pairs):
        raise pb.DomainError("x lies outside the penalty domain")
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def operator_norm_sq(A, rel_tol=1e-8, max_iter=10000):
    """Power iteration on A^T A from the package's seeded start vector."""
    M = A.T @ A
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(M.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ (M @ v))
        if abs(lam_new - lam) <= rel_tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def minnorm_boxqp(J, vlo, vhi, wlo, whi, step, tol, maxit):
    """min |v + J^T w| over one box product; returns (norm, iterations)."""
    v = np.minimum(np.maximum(np.zeros(vlo.shape[0]), vlo), vhi)
    w = np.minimum(np.maximum(np.zeros(J.shape[0]), wlo), whi)
    it = 0
    for it in range(1, maxit + 1):
        r = v + w @ J
        vn = np.minimum(np.maximum(v - step * r, vlo), vhi)
        wn = np.minimum(np.maximum(w - step * (J @ r), wlo), whi)
        move = math.sqrt(float(np.sum((vn - v) ** 2) + np.sum((wn - w) ** 2)))
        v, w = vn, wn
        if move / step <= tol:
            break
    return float(np.linalg.norm(v + w @ J)), it


def dist_to_stationarity(problem, x):
    """dist(0, d phi(x)) at one point; returns (dist, min-norm iterations)."""
    if isinstance(problem, pb.AdditiveProblem):
        lo, hi = subgrad_bounds(problem.g, x)
        target = -problem.f.grad(x)
        under = np.maximum(lo - target, 0.0)
        over = np.maximum(target - hi, 0.0)
        return float(np.linalg.norm(np.where(target < lo, under, over))), 0
    glo, ghi = subgrad_bounds(problem.g, x)
    cx, J = problem.c.eval_jac(x)
    hlo, hhi = subgrad_bounds(problem.h, cx)
    step = 1.0 / (1.0 + operator_norm_sq(J))
    return minnorm_boxqp(J, glo, ghi, hlo, hhi, step, BOXQP_TOL, BOXQP_CAP)


def _dual_step(pen, J, cbar, x, t, step, w):
    """Primal point y(w), its model value and the forward-backward map
    T(w) of one subproblem's dual; pen holds the kernel's three penalty
    arguments (g's and h's kernel triples and h's dual box)."""
    g, h, (hlo, hhi, hl1, hquad) = pen
    y = K.penalty_prox(*g, x - t * (w @ J), t)
    d = y - x
    z = cbar + J @ d
    fy = (K.penalty_value(*g, y) + K.penalty_value(*h, z)
          + (d @ d) / (2.0 * t))
    wh = w + step * (z - hquad * w)
    wh = np.sign(wh) * np.maximum(np.abs(wh) - step * hl1, 0.0)
    return y, fy, np.minimum(np.maximum(wh, hlo), hhi)


def _newton_matrix(pen, J, cbar, x, t, step, w):
    """Generalized Jacobian (I - P) + s P (t J diag(D_g) J^T + diag(hquad))
    of w - T(w) at w, with P the 0/1 derivative of the dual's clip and
    soft-threshold and D_g that of prox_{tg}."""
    g, _, (hlo, hhi, hl1, hquad) = pen
    u = x - t * (w @ J)
    z = cbar + J @ (K.penalty_prox(*g, u, t) - x)
    wh = w + step * (z - hquad * w)
    s = np.sign(wh) * np.maximum(np.abs(wh) - step * hl1, 0.0)
    p = (s > hlo) & (s < hhi)
    if np.any(hl1):
        p &= s != 0.0
    dg = K.penalty_prox_deriv(*g, u, t)
    A = t * (J * dg) @ J.T + np.diag(hquad)
    return np.diag(1.0 - p) + (step * p)[:, None] * A


def dual_ascent(pen, J, cbar, x, t, step, tol, fx, fslack, maxit):
    """FISTA with gradient-mapping restart on one subproblem's dual, with a
    semismooth Newton step tried at every iteration whose residual is at
    most K.NEWTON_SWITCH and kept if it lowers the residual. Returns
    (y, v, residual, iterations, converged, Newton steps tried), v being
    the dual point at which the loop stopped."""
    w = w_prev = np.zeros(cbar.shape[0])
    theta = 1.0
    newton = 0
    for it in range(1, maxit + 1):
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        v = w + ((theta - 1.0) / theta_next) * (w - w_prev)
        y, fy, tv = _dual_step(pen, J, cbar, x, t, step, v)
        resid = float(np.linalg.norm(tv - v)) / step
        if resid <= tol and fy <= fx + fslack:
            return y, v, resid, it, True, newton
        theta = 1.0 if (tv - v) @ (tv - w) < 0.0 else theta_next
        w_prev, w = w, tv
        if resid <= K.NEWTON_SWITCH:
            newton += 1
            M = _newton_matrix(pen, J, cbar, x, t, step, v)
            u = v + np.linalg.pinv(M) @ (tv - v)
            tu = _dual_step(pen, J, cbar, x, t, step, u)[2]
            if float(np.linalg.norm(tu - u)) / step < resid:
                theta, w_prev, w = 1.0, u, u
    return y, v, resid, maxit, False, newton


def plain_dual_ascent(pen, J, cbar, x, t, step, tol, fx, fslack, maxit):
    """The projected gradient loop that the accelerated ascent replaced;
    same arguments and returns as dual_ascent."""
    w = np.zeros(cbar.shape[0])
    for it in range(1, maxit + 1):
        y, fy, wnew = _dual_step(pen, J, cbar, x, t, step, w)
        resid = float(np.linalg.norm(wnew - w)) / step
        if resid <= tol and fy <= fx + fslack:
            return y, w, resid, it, True
        w = wnew
    return y, w, resid, maxit, False


def trace_csv(trace, zero_elapsed=False):
    """IterationTrace.to_csv as it was written, one f-string per cell."""
    lines = [",".join(trace.header)]
    for i in range(len(trace)):
        vals = []
        for name in trace.header:
            v = trace.data[name][i]
            if name == "elapsed_s" and zero_elapsed:
                v = 0.0
            if name in ("k", "backtracks", "inner_iters", "inner_newton"):
                vals.append(str(int(v)))
            else:
                vals.append(f"{v:.17g}")
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def prox_gradient(problem, x0, cfg):
    """The proximal-gradient loop through the public, validating operations
    g.prox, f.grad and problem.phi; returns an IterationTrace. A diverging
    iterate makes one of them raise ValueError."""
    x = as_vector(x0, problem.dim).copy()
    t = _effective_step(problem, cfg)
    beta = problem.f.beta
    trace = pb.IterationTrace(PROXGRAD_HEADER)
    trace.meta = {"t": t, "beta": beta}
    phi_x = problem.phi(x)
    for k in range(cfg.max_iter + 1):
        y = problem.g.prox(x - t * problem.f.grad(x), t)
        gnorm = float(np.linalg.norm((x - y) / t))
        cert = (1.0 + beta * t) * gnorm
        trace.iterates.append(x.copy())
        if gnorm <= cfg.eps or k == cfg.max_iter:
            trace.append(k=k, phi=phi_x, gnorm=gnorm, descent_residual=0.0,
                         certificate=cert, elapsed_s=0.0)
            trace.status = "Converged" if gnorm <= cfg.eps else "MaxIter"
            break
        phi_y = problem.phi(y)
        resid = phi_x - phi_y - gnorm * gnorm / (2.0 * beta)
        trace.append(k=k, phi=phi_x, gnorm=gnorm, descent_residual=resid,
                     certificate=cert, elapsed_s=0.0)
        x = y
        phi_x = phi_y
    trace.final_x = x
    return trace
