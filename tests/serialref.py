"""One-point-at-a-time references for the stacked kernels.

These are the serial loops that the stacked numpy kernels replaced: a
scalar subgradient formula per coordinate, the min-norm box QP on one row
(with its step from one matrix's squared norm), dist(0, d phi) at one
point, and the accelerated dual ascent with its Newton finish on one
subproblem, cold or from a start dual. The
stacked code must reproduce them row by row. The plain (unaccelerated)
dual ascent that the accelerated one replaced stays as an accuracy
reference, and so do the proximal-gradient loop that re-validated x in
every operation and the per-cell trace.csv writer that one format call
per row replaced. The constants bundle's one sample pool is pinned against
the per-estimator draws it replaced. The prox-linear model is written out
at one point, for the inequalities its subproblem solutions must meet.
"""

import dataclasses
import math

import numpy as np

import proxbound as pb
from proxbound import _kernels as K
from proxbound import diagnostics as D
from proxbound.diagnostics import BOXQP_CAP, BOXQP_TOL
from proxbound.proxgrad import (PROXGRAD_HEADER, _effective_step,
                                _prox_point_batch)
from proxbound.vectors import as_vector


def subgrad_interval(cls, a, b, xi):
    """[lo, hi] of one coordinate's subdifferential for a penalty of class
    cls, (None, None) outside the domain; a and b are that coordinate's
    parameters in the order the class stores them (0 where it has fewer)."""
    if cls is pb.Zero:
        return 0.0, 0.0
    if cls in (pb.AbsValue, pb.ElasticNet):
        lo, hi = (a, a) if xi > 0.0 else (-a, -a) if xi < 0.0 else (-a, a)
        if cls is pb.ElasticNet:
            lo, hi = lo + b * xi, hi + b * xi
        return lo, hi
    if cls is pb.BoxIndicator:
        if xi < a or xi > b:
            return None, None
        return (-np.inf if xi == a else 0.0), (np.inf if xi == b else 0.0)
    if cls is pb.EpsilonInsensitive:
        if xi > b:
            return a, a
        if xi == b:
            return 0.0, a
        if xi < -b:
            return -a, -a
        if xi == -b:
            return -a, 0.0
        return 0.0, 0.0
    if cls is pb.CheckFunction:
        up, dn = a * b, a * (b - 1.0)
        return (up, up) if xi > 0.0 else (dn, dn) if xi < 0.0 else (dn, up)
    g = min(max(xi / b, -a), a)  # huber envelope
    return g, g


def subgrad_bounds(penalty, x):
    """Coordinatewise subdifferential of penalty at the point x."""
    a, b = ([getattr(penalty, f.name) for f in dataclasses.fields(penalty)]
            + [0.0, 0.0])[:2]
    pairs = [subgrad_interval(type(penalty), a, b, xi) for xi in x]
    if any(lo is None for lo, _ in pairs):
        raise pb.DomainError("x lies outside the penalty domain")
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def model_value(problem, x, y):
    """The prox-linear model g(y) + h(c(x) + J(x)(y - x)) of a composite
    problem at base point x; exact at y = x."""
    cx, J = problem.c.eval_jac(x)
    return problem.g.value(y) + problem.h.value(cx + J @ (y - x))


def operator_norm_sq(A):
    """Squared spectral norm of one matrix, by eigvalsh as the package
    takes it; it sets the min-norm box QP's step."""
    return float(np.linalg.eigvalsh(A.T @ A)[-1])


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
    arguments (the penalties g and h and h's dual box)."""
    g, h, (hlo, hhi, hl1, hquad) = pen
    y = K.penalty_prox(g, x - t * (w @ J), t)
    d = y - x
    z = cbar + J @ d
    fy = (K.penalty_value(g, y) + K.penalty_value(h, z)
          + (d @ d) / (2.0 * t))
    wh = w + step * (z - hquad * w)
    wh = np.sign(wh) * np.maximum(np.abs(wh) - step * hl1, 0.0)
    return y, fy, np.minimum(np.maximum(wh, hlo), hhi)


def _newton_delta(pen, J, cbar, x, t, step, w, d):
    """Semismooth Newton step of one subproblem's dual at w: the solution
    of M delta = d = T(w) - w for the generalized Jacobian
    M = (I - P) + s P (t J diag(D_g) J^T + diag(hquad)) of w - T(w), with P
    the 0/1 derivative of the dual's clip and soft-threshold and D_g that
    of prox_{tg}. M is the identity on the clipped duals, so delta = d
    there. On the free duals F, delta_F is the min-norm least-squares
    solution of M_FF delta_F = d_F - M_FN d_N: by lstsq when hquad makes
    M_FF nonsingular, and otherwise, with M_FF = s t k k^T for k the free
    rows of J diag(D_g)^(1/2), as k (k^T k)^+2 k^T rhs / (s t), (k^T k)^+
    from eigh with the kernel's rank cut. The step then agrees with the
    kernel's to roundoff, which decides whether a step that is zero in
    exact arithmetic (d orthogonal to the range of M_FF) is kept."""
    g, _, (hlo, hhi, hl1, hquad) = pen
    u = x - t * (w @ J)
    z = cbar + J @ (K.penalty_prox(g, u, t) - x)
    wh = w + step * (z - hquad * w)
    s = np.sign(wh) * np.maximum(np.abs(wh) - step * hl1, 0.0)
    free = (s > hlo) & (s < hhi)
    if np.any(hl1):
        free &= s != 0.0
    dg = g._prox_deriv(u, t)
    # M's free rows are those of sA
    sA = step * (t * (J * dg) @ J.T + np.diag(hquad))
    clipped = ~free
    delta = d.copy()
    rhs = d[free] - sA[np.ix_(free, clipped)] @ d[clipped]
    if np.any(hquad):
        delta[free] = np.linalg.lstsq(sA[np.ix_(free, free)], rhs,
                                      rcond=None)[0]
        return delta
    k = (J * np.sqrt(dg))[free]
    lam, Q = np.linalg.eigh(k.T @ k)
    inv = np.array([1.0 / v if v > K.RANK_RCOND * lam[-1] else 0.0
                    for v in lam])
    delta[free] = k @ (Q @ (inv * inv * (Q.T @ (k.T @ rhs)))) / (step * t)
    return delta


def dual_ascent(pen, J, cbar, x, t, step, tol, fx, fslack, maxit, w0=None):
    """FISTA with gradient-mapping restart on one subproblem's dual, with a
    semismooth Newton step tried at every iteration whose residual is at
    most the row's gate. The gate starts at K.NEWTON_SWITCH; a step is
    kept if it lowers the residual and moves v by more than K.NEWTON_ULPS
    ulp of |v|, and a rejected step at residual r lowers the gate to
    K.NEWTON_RETRY * r if that is smaller. A start dual w0 (None: zeros)
    is clipped to h's dual box and tries the Newton step at iteration 1
    whatever its residual. Returns (y, v, residual, iterations, converged,
    Newton steps tried), v being the dual point at which the loop
    stopped."""
    hlo, hhi = pen[2][:2]
    w = (np.zeros(cbar.shape[0]) if w0 is None
         else np.minimum(np.maximum(w0, hlo), hhi))
    w_prev = w
    theta = 1.0
    gate = K.NEWTON_SWITCH
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
        if resid <= gate or (w0 is not None and it == 1):
            newton += 1
            u = v + _newton_delta(pen, J, cbar, x, t, step, v, tv - v)
            tu = _dual_step(pen, J, cbar, x, t, step, u)[2]
            moved = (np.linalg.norm(u - v)
                     > K.NEWTON_ULPS * np.spacing(np.linalg.norm(v)))
            if moved and float(np.linalg.norm(tu - u)) / step < resid:
                theta, w_prev, w = 1.0, u, u
            else:
                gate = min(gate, K.NEWTON_RETRY * resid)
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


def trace_csv(trace):
    """IterationTrace.to_csv as it was written, one f-string per cell."""
    lines = [",".join(trace.header)]
    for i in range(len(trace)):
        vals = []
        for name in trace.header:
            v = trace.data[name][i]
            if name in ("k", "backtracks", "inner_iters", "inner_newton"):
                vals.append(str(int(v)))
            else:
                vals.append(f"{v:.17g}")
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def prox_gradient(problem, x0, cfg):
    """The proximal-gradient loop through the public, validating operations
    g.prox, f.grad, f.value and g.value, with phi formed at every step;
    returns an IterationTrace. A diverging iterate makes one of them raise
    ValueError. A non-finite g at the next iterate ends the run Diverged on
    the current one, with a zero descent residual."""
    x = as_vector(x0, problem.dim).copy()
    t = _effective_step(problem, cfg)
    beta = problem.f.beta
    trace = pb.IterationTrace(PROXGRAD_HEADER)
    trace.meta = {"t": t, "beta": beta}
    phi_x = problem.phi(x)
    iterates = []
    for k in range(cfg.max_iter + 1):
        y = problem.g.prox(x - t * problem.f.grad(x), t)
        gnorm = float(np.linalg.norm((x - y) / t))
        cert = (1.0 + beta * t) * gnorm
        iterates.append(x.copy())
        status = ("Converged" if gnorm <= cfg.eps
                  else "MaxIter" if k == cfg.max_iter else None)
        if status is None:
            g_y = problem.g.value(y)
            if not math.isfinite(g_y):
                status = "Diverged"
        if status:
            trace.append(k=k, phi=phi_x, gnorm=gnorm, descent_residual=0.0,
                         certificate=cert, elapsed_s=0.0)
            trace.status = status
            break
        phi_y = problem.f.value(y) + g_y
        resid = phi_x - phi_y - gnorm * gnorm / (2.0 * beta)
        trace.append(k=k, phi=phi_x, gnorm=gnorm, descent_residual=resid,
                     certificate=cert, elapsed_s=0.0)
        x = y
        phi_x = phi_y
    trace.iterates = np.array(iterates)
    trace.final_x = x
    return trace


def constants_by_estimator(problem, ref, nu, t, n_samples, seed,
                           inner_tol=1e-10):
    """The bundle's constants and counters from one seeded draw per
    estimator, each accepted on its own: box(n) plus the ray probes for
    alpha and for additive gamma, box(min(n, 500)) for composite gamma and
    for L-hat, and box(min(n, 2000)) plus the probes and the prox points
    for L. Returns a dict keyed like constants.txt."""
    additive = isinstance(problem, pb.AdditiveProblem)
    probes = np.empty((0, problem.dim))
    if additive:
        probes = D._refine_extremal_rays(problem, ref, nu, t, seed, inner_tol)

    def draw(n, *extra):
        X = np.vstack([D.sample_box(ref, problem.dim, n, seed), *extra])
        Xa, gaps, _ = D._accepted(problem, ref, nu, X)
        return Xa, gaps, ref.dist_batch(Xa)

    def max_ratio(dists, denom):
        keep = denom > D.GNORM_SKIP
        return float(np.max(dists[keep] / denom[keep]))

    out = {}
    X, gaps, dists = draw(n_samples, probes)
    phi_mag = np.maximum(np.abs(gaps + ref.phi_star), abs(ref.phi_star))
    above = gaps > D.GAP_ULPS * np.spacing(phi_mag)
    keep = above & (dists > D.DIST_SKIP)
    out["alpha_hat"] = float(np.min(2.0 * gaps[keep] / dists[keep] ** 2))
    out["alpha_samples"] = int(np.sum(keep))
    out["alpha_roundoff_skips"] = int(np.sum(~above))
    if not additive:
        X, _, dists = draw(min(n_samples, 500))
    gnorms, work = D._gnorm_batch(problem, X, t, inner_tol)
    out["gamma_hat"] = max_ratio(dists, gnorms)
    out["gamma_samples"] = X.shape[0]
    out.update({f"gamma_{key}": v for key, v in work.items()})
    L_extra = [probes]
    if additive and problem.f_convex:
        X, _, dists = draw(min(n_samples, 500))
        P = _prox_point_batch(problem, X, t, inner_tol)
        out["L_hat_prox"] = max_ratio(dists, np.linalg.norm(X - P, axis=1) / t)
        out["prox_samples"] = X.shape[0]
        L_extra.append(P)
    X, _, dists = draw(min(n_samples, 2000), *L_extra)
    work = {}
    out["L_hat_sub"] = max_ratio(dists, D.dist_to_stationarity(problem, X,
                                                               counts=work))
    out["subdiff_samples"] = X.shape[0]
    out.update({f"subdiff_{key}": v for key, v in work.items()})
    return out
