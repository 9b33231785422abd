"""Hot numeric kernels, numpy only.

Each penalty operation is one vectorised expression per kind over the
last axis of its input, so a single point (n,) and a stack of points
(..., n) go through the same code and agree bit for bit: the penalty
value, the proximal map and the coordinatewise subgradient bounds.
Penalties are encoded as a triple (kind, p1, p2): an integer kind and two
parameters, each a float or an (n,) array broadcast over the leading
axes; see the table in :mod:`proxbound.penalties`. The derivative of the
proximal map serves the Newton steps of the dual ascent. The dual ascent
of the prox-linear subproblem (FISTA finished by semismooth Newton steps)
and the min-norm box QP behind dist(0, d phi) are one kernel each over a
stack of rows, used with a single row for one point and with blocks of
rows by the diagnostics.
"""

import numpy as np

from .errors import InnerSolveError

KIND_ZERO = 0
KIND_ABS = 1
KIND_ENET = 2
KIND_BOX = 3
KIND_EPS = 4
KIND_CHECK = 5
KIND_HUBER = 6

_INF = np.inf

# dual_ascent tries Newton steps on a row once its residual is this small:
# FISTA has then identified the active pieces; at 1e-2 or 1e-3 most steps
# are rejected and the solve gets slower
NEWTON_SWITCH = 1e-4


def penalty_value(kind, p1, p2, X):
    """Penalty value of each point along the last axis of X.

    A stack (..., n) gives an array of the leading shape, a single point
    (n,) a float; every point is summed exactly as a lone point would be,
    so the two agree bit for bit.
    """
    if kind == KIND_ZERO:
        v = np.zeros(X.shape[:-1])
    elif kind == KIND_ABS:
        v = (p1 * np.abs(X)).sum(axis=-1)
    elif kind == KIND_ENET:
        v = (p1 * np.abs(X) + 0.5 * p2 * X * X).sum(axis=-1)
    elif kind == KIND_BOX:
        v = np.where(np.any((X < p1) | (X > p2), axis=-1), _INF, 0.0)
    elif kind == KIND_EPS:
        v = (p1 * np.maximum(np.abs(X) - p2, 0.0)).sum(axis=-1)
    elif kind == KIND_CHECK:
        v = (p1 * np.maximum(p2 * X, (p2 - 1.0) * X)).sum(axis=-1)
    elif kind == KIND_HUBER:
        ax = np.abs(X)
        quad = ax <= p1 * p2
        v = np.where(quad, X * X / (2.0 * p2),
                     p1 * ax - 0.5 * p1 * p1 * p2).sum(axis=-1)
    else:
        raise ValueError(f"unknown penalty kind code {kind}")
    return float(v) if X.ndim == 1 else v


def penalty_prox(kind, p1, p2, X, t):
    """prox_{tg} of every point along the last axis of X, same shape as X."""
    if kind == KIND_ZERO:
        return X.copy()
    if kind == KIND_ABS:
        thr = t * p1
        return np.sign(X) * np.maximum(np.abs(X) - thr, 0.0)
    if kind == KIND_ENET:
        thr = t * p1
        return np.sign(X) * np.maximum(np.abs(X) - thr, 0.0) / (1.0 + t * p2)
    if kind == KIND_BOX:
        return np.minimum(np.maximum(X, p1), p2)
    if kind == KIND_EPS:
        ax = np.abs(X)
        sx = np.sign(X)
        out = np.where(ax <= p2, X, sx * p2)
        far = ax > p2 + t * p1
        return np.where(far, X - t * p1 * sx, out)
    if kind == KIND_CHECK:
        hi = t * p1 * p2
        lo = t * p1 * (p2 - 1.0)
        out = np.zeros_like(X)
        out = np.where(X > hi, X - hi, out)
        return np.where(X < lo, X - lo, out)
    if kind == KIND_HUBER:
        ax = np.abs(X)
        pt = p2 + t
        inner = ax <= p1 * pt
        return np.where(inner, X * p2 / pt, X - t * p1 * np.sign(X))
    raise ValueError(f"unknown penalty kind code {kind}")


def penalty_subgrad(kind, p1, p2, X):
    """Coordinatewise subdifferential [lo, hi] at every point along the last
    axis of X, plus whether every point lies in the penalty's domain (lo
    and hi are meaningless where it does not)."""
    if kind == KIND_ZERO:
        return np.zeros(X.shape), np.zeros(X.shape), True
    if kind in (KIND_ABS, KIND_ENET):
        s = np.sign(X) * p1
        lo = np.where(X == 0.0, -p1, s)
        hi = np.where(X == 0.0, p1, s)
        if kind == KIND_ENET:
            lo = lo + p2 * X
            hi = hi + p2 * X
        return lo, hi, True
    if kind == KIND_BOX:
        inside = not (np.any(X < p1) or np.any(X > p2))
        return (np.where(X == p1, -_INF, 0.0), np.where(X == p2, _INF, 0.0),
                inside)
    if kind == KIND_EPS:
        lo = np.where(X > p2, p1, np.where(X <= -p2, -p1, 0.0))
        hi = np.where(X >= p2, p1, np.where(X < -p2, -p1, 0.0))
        return lo, hi, True
    if kind == KIND_CHECK:
        up = p1 * p2
        dn = p1 * (p2 - 1.0)
        return np.where(X > 0.0, up, dn), np.where(X < 0.0, dn, up), True
    if kind == KIND_HUBER:
        g = np.minimum(np.maximum(X / p2, -p1), p1)
        return g, g.copy(), True
    raise ValueError(f"unknown penalty kind code {kind}")


def row_dots(A):
    """A[i] @ A[i] for every row, by the BLAS dot a lone vector would use."""
    return row_inner(A, A)


def row_inner(A, C):
    """A[i] @ C[i] for every row, by the BLAS dot a lone pair would use."""
    return np.matmul(A[:, None, :], C[:, :, None])[:, 0, 0]


def penalty_prox_deriv(kind, p1, p2, X, t):
    """Derivative of each coordinate of prox_{tg} at every point along the
    last axis of X, same shape as X: 0 or 1 on the pieces of the
    thresholding kinds, the shrink factor on the quadratic pieces. At a
    kink it is the derivative of the piece penalty_prox selects there."""
    if kind == KIND_ZERO:
        return np.ones(X.shape)
    if kind == KIND_ABS:
        return (np.abs(X) > t * p1).astype(np.float64)
    if kind == KIND_ENET:
        return (np.abs(X) > t * p1) / (1.0 + t * p2)
    if kind == KIND_BOX:
        return ((X > p1) & (X < p2)).astype(np.float64)
    if kind == KIND_EPS:
        ax = np.abs(X)
        return ((ax <= p2) | (ax > p2 + t * p1)).astype(np.float64)
    if kind == KIND_CHECK:
        return ((X > t * p1 * p2) | (X < t * p1 * (p2 - 1.0))).astype(
            np.float64)
    if kind == KIND_HUBER:
        inner = np.abs(X) <= p1 * (p2 + t)
        return np.where(inner, p2 / (p2 + t), 1.0)
    raise ValueError(f"unknown penalty kind code {kind}")


def _forward_backward(g, hbox, J, cbar, X, t, step, thr, quad, V):
    """The dual's forward-backward map T at the rows of V, with the pieces
    the stop test and the Newton step need: the prox argument
    U = X - t J^T v, the primal point y(v) = prox_{tg}(U), D = y - X, the
    model's inner value Z = cbar + J D, the pre-clip point S (the ascent
    step, soft-thresholded by thr) and T(v), S clipped to h's dual box."""
    U = X - t * np.matmul(V[:, None, :], J)[:, 0, :]
    Yr = penalty_prox(*g, U, t)
    D = Yr - X
    Z = cbar + np.matmul(J, D[:, :, None])[:, :, 0]
    S = V + step * (Z if quad is None else Z - quad * V)
    if thr is not None:
        S = np.sign(S) * np.maximum(np.abs(S) - thr, 0.0)
    return U, Yr, D, Z, S, np.minimum(np.maximum(S, hbox[0]), hbox[1])


def _newton_points(g, hbox, J, t, step, thr, quad, V, U, S, G):
    """Semismooth Newton points u = v + pinv(M)(T(v) - v) on the residual
    R(w) = w - T(w) at the rows of V, where
    M = (I - P) + s P (t J diag(D_g) J^T + diag(quad)), P being the 0/1
    derivative of the clip and soft-threshold at S and D_g that of
    prox_{tg} at U. M is singular once more than n duals are free (J has
    rank <= n), so the step is the pseudo-inverse (least-squares) one."""
    P = (S > hbox[0]) & (S < hbox[1])
    if thr is not None:
        P &= S != 0.0
    Dg = penalty_prox_deriv(*g, U, t)
    A = t * np.matmul(J * Dg[:, None, :], J.transpose(0, 2, 1))
    diag = np.arange(A.shape[1])
    if quad is not None:
        A[:, diag, diag] += quad
    M = (step * P)[:, :, None] * A
    M[:, diag, diag] += 1.0 - P
    return V + np.matmul(np.linalg.pinv(M), G[:, :, None])[:, :, 0]


def dual_ascent(g, h, hbox, J, cbar, X, t, steps, tol, fx, fslack, maxit):
    """Accelerated forward-backward ascent on the duals of B linearized
    subproblems, finished by semismooth Newton steps.

    Row b maximizes  <w, cbar_b> - h*(w)
    + min_y { g(y) + <J_b^T w, y - x_b> + |y - x_b|^2/2t }  over the box
    [hlo, hhi], with the extra dual terms hl1*|w|_1 (vapnik) and
    hquad*|w|^2/2 (huber envelope), by FISTA (Beck & Teboulle 2009) with
    step steps[b] and gradient-mapping adaptive restart (O'Donoghue &
    Candes 2015). Each row keeps its own momentum theta: the forward-backward
    map T is applied at the extrapolated point
    v = w + ((theta_k - 1)/theta_{k+1})(w - w_prev), with theta_1 = 1 and
    theta_{k+1} = (1 + sqrt(1 + 4 theta_k^2))/2, and the next iterate is
    T(v); a row whose step turns against its last move,
    (T(v) - v).(T(v) - w) < 0, restarts at theta = 1, which drops the
    momentum of its next step. Primal recovery y = prox_{tg}(x_b - t J_b^T v).
    A row stops once its dual fixed-point residual r = |T(v) - v|/step is
    <= tol and its model value g(y) + h(z) + |y - x_b|^2/2t is
    <= fx[b] + fslack[b]; the model value is evaluated only for rows whose
    residual passed. Finished rows retire, and the stacked arrays are
    compacted only when some row finishes.

    A row still running with r <= NEWTON_SWITCH also tries a semismooth
    Newton step u on R(w) = w - T(w) from v (see _newton_points), all such
    rows in one batched pseudo-inverse. u is taken only if
    |T(u) - u|/step < r, and the row then restarts its momentum at u
    (theta = 1, w_prev = w = u); otherwise the FISTA step stands. FISTA's
    warm-up identifies the active pieces; a Newton step from w = 0 is
    almost always rejected.

    g and h are the kernel triples (kind, p1, p2) of the two penalties and
    hbox is h.dual_box(m), the (m,) arrays (hlo, hhi, hl1, hquad).
    J is (B, m, n), cbar (B, m), X (B, n); steps, fx and fslack are (B,).
    Returns (Y, W, residuals, total row iterations, per-row iterations,
    Newton steps tried), W holding the dual point v at which each row
    stopped; the two totals are ints. Raises InnerSolveError at once when
    a residual is not finite, naming it and the iteration, and naming the
    worst residual when rows are still running after maxit iterations.
    """
    B = X.shape[0]
    Y = np.empty_like(X)
    W = np.zeros(cbar.shape)
    resid = np.full(B, _INF)
    iters = np.zeros(B, dtype=np.int64)
    newton = 0
    rows = np.arange(B)
    step = np.asarray(steps, dtype=np.float64)[:, None]
    limit = np.asarray(fx, dtype=np.float64) + fslack
    _, _, hl1, hquad = hbox
    # zero l1 / quadratic dual terms drop out of the update exactly
    thr = step * hl1 if np.any(hl1) else None
    quad = hquad if np.any(hquad) else None
    w = np.zeros(cbar.shape)
    w_prev = w
    theta = np.ones(B)
    for it in range(1, maxit + 1):
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        v = w + ((theta - 1.0) / theta_next)[:, None] * (w - w_prev)
        U, Yr, D, Z, S, Tv = _forward_backward(
            g, hbox, J, cbar, X, t, step, thr, quad, v)
        G = Tv - v
        r = np.sqrt(row_dots(G)) / step[:, 0]
        worst = r.max()
        if not worst < _INF:
            raise InnerSolveError(
                f"subproblem dual ascent residual is {worst} at iteration "
                f"{it}", residual=float(worst), iterations=it)
        if r.min() <= tol:
            passed = np.flatnonzero(r <= tol)
            fy = (penalty_value(*g, Yr[passed])
                  + penalty_value(*h, Z[passed])
                  + row_dots(D[passed]) / (2.0 * t))
            done = passed[fy <= limit[passed]]
            if done.size:
                out = rows[done]
                Y[out] = Yr[done]
                W[out] = v[done]
                resid[out] = r[done]
                iters[out] = it
                if done.size == rows.size:
                    return Y, W, resid, int(np.sum(iters)), iters, newton
                keep = np.ones(rows.size, dtype=bool)
                keep[done] = False
                (rows, J, cbar, X, step, limit, r, v, w, U, S, Tv, G,
                 theta_next) = (a[keep] for a in (
                     rows, J, cbar, X, step, limit, r, v, w, U, S, Tv, G,
                     theta_next))
                if thr is not None:
                    thr = thr[keep]
        theta = np.where(row_inner(G, Tv - w) < 0.0, 1.0, theta_next)
        w_prev, w = w, Tv
        if r.min() <= NEWTON_SWITCH:
            near = np.flatnonzero(r <= NEWTON_SWITCH)
            newton += near.size
            Jn, sn = J[near], step[near]
            tn = None if thr is None else thr[near]
            u = _newton_points(g, hbox, Jn, t, sn, tn, quad, v[near],
                               U[near], S[near], G[near])
            Tu = _forward_backward(g, hbox, Jn, cbar[near], X[near], t, sn,
                                   tn, quad, u)[5]
            better = np.sqrt(row_dots(Tu - u)) / sn[:, 0] < r[near]
            if better.any():
                took = near[better]
                w_prev = w_prev.copy()
                w[took] = w_prev[took] = u[better]
                theta[took] = 1.0
    worst = float(np.max(r))
    raise InnerSolveError(
        f"subproblem dual ascent stalled at residual {worst:.3e}",
        residual=worst, iterations=maxit)


def _residuals(V, W, J):
    """v_b + J_b^T w_b for every row."""
    return V + np.matmul(W[:, None, :], J)[:, 0, :]


def minnorm_boxqp(J, vlo, vhi, wlo, whi, steps, tol, maxit):
    """Minimize |v + J_b^T w| over the box product [vlo_b, vhi_b] x
    [wlo_b, whi_b] of each of B rows by projected gradient with step
    steps[b].

    J is (B, m, n), the bounds (B, n) and (B, m), steps (B,). A row stops
    once its move divided by its step is <= tol and then retires; rows still
    running after maxit iterations return their current norm. Each norm
    upper-bounds the row's true minimum and is exact at convergence, since
    the problem is convex. Returns (norms, total row iterations as an int,
    number of rows that ran into maxit). Raises InnerSolveError at once
    when a move is not finite, naming it and the iteration.
    """
    B = J.shape[0]
    norms = np.empty(B)
    if B == 0:
        return norms, 0, 0
    V = np.minimum(np.maximum(np.zeros(vlo.shape), vlo), vhi)
    W = np.minimum(np.maximum(np.zeros(wlo.shape), wlo), whi)
    step = np.asarray(steps, dtype=np.float64)[:, None]
    rows = np.arange(B)
    total = 0
    for it in range(1, maxit + 1):
        R = _residuals(V, W, J)
        VN = np.minimum(np.maximum(V - step * R, vlo), vhi)
        WN = np.minimum(np.maximum(
            W - step * np.matmul(J, R[:, :, None])[:, :, 0], wlo), whi)
        move = np.sqrt(np.sum((VN - V) ** 2, axis=1)
                       + np.sum((WN - W) ** 2, axis=1))
        worst = float(np.max(move))
        if not worst < _INF:
            raise InnerSolveError(
                f"min-norm box QP move is {worst} at iteration {it}",
                residual=worst, iterations=it)
        V, W = VN, WN
        done = move / step[:, 0] <= tol
        finished = int(np.count_nonzero(done))
        if finished:
            norms[rows[done]] = np.sqrt(row_dots(
                _residuals(V[done], W[done], J[done])))
            total += it * finished
            if finished == rows.size:
                return norms, total, 0
            keep = ~done
            rows, J, V, W = rows[keep], J[keep], V[keep], W[keep]
            vlo, vhi, wlo, whi = vlo[keep], vhi[keep], wlo[keep], whi[keep]
            step = step[keep]
    norms[rows] = np.sqrt(row_dots(_residuals(V, W, J)))
    return norms, total + maxit * rows.size, rows.size
