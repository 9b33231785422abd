"""Hot numeric kernels, numpy only.

Every penalty value and proximal map goes through penalty_value and
penalty_prox, which call the penalty's own formulas (see
:mod:`proxbound.penalties`); those work over the last axis of their input,
so a single point (n,) and a stack of points (..., n) go through the same
code and agree bit for bit. The dual ascent of the prox-linear subproblem
(FISTA finished by semismooth Newton steps) and the min-norm box QP behind
dist(0, d phi) are one kernel each over a stack of rows, used with a
single row for one point and with blocks of rows by the diagnostics. The
dual ascent reads h's conjugate as four floats (h.dual_box(): one box
[lo, hi] for every dual coordinate, an l1 and a quadratic coefficient),
so no per-coordinate array of them is formed. A Newton step forms no
pseudo-inverse: the clipped duals take their step exactly, and the free
ones are solved through the n x n Gram matrix of the Jacobian's free rows
(one batched eigh), or by one batched solve when h's dual has a quadratic
term.
"""

import numpy as np

from .errors import InnerSolveError

_INF = np.inf

# dual_ascent tries Newton steps on a row once its residual is at most the
# row's gate, which starts here: FISTA has mostly identified the active
# pieces by then. A row whose step is rejected at residual r waits until its
# residual is NEWTON_RETRY * r before it tries again, so a row whose pieces
# are still wrong stops paying for steps that are rejected (at one fixed
# switch of 1e-2 most one-row prox-linear solves did).
NEWTON_SWITCH = 1e-2
NEWTON_RETRY = 0.1

# a Newton point within this many ulp of |v| is v up to roundoff: counted
# as a rejected step, not as a kept one that restarts the row's momentum
NEWTON_ULPS = 4.0

# a Newton step's Gram eigenvalues at most this times the largest count as
# zero: the relative cut numpy's pseudo-inverse makes on singular values
RANK_RCOND = 1e-15


def penalty_value(g, X):
    """Value of the penalty g at each point along the last axis of X.

    A stack (..., n) gives an array of the leading shape, a single point
    (n,) a float; every point is summed exactly as a lone point would be,
    so the two agree bit for bit.
    """
    v = g._value(X)
    return float(v) if X.ndim == 1 else v


def penalty_prox(g, X, t):
    """prox_{tg} of every point along the last axis of X, same shape as X."""
    return g._prox(X, t)


def row_dots(A):
    """A[i] @ A[i] for every row, by the BLAS dot a lone vector would use."""
    return row_inner(A, A)


def row_inner(A, C):
    """A[i] @ C[i] for every row, by the BLAS dot a lone pair would use."""
    return np.matmul(A[:, None, :], C[:, :, None])[:, 0, 0]


def _forward_backward(g, dual, J, cbar, X, t, step, V):
    """The dual's forward-backward map T at the rows of V, with the pieces
    the stop test and the Newton step need: the prox argument
    U = X - t J^T v, the primal point y(v) = prox_{tg}(U), D = y - X, the
    model's inner value Z = cbar + J D, the pre-clip point S (the ascent
    step, soft-thresholded by step * l1) and T(v), S clipped to h's dual
    box; dual is h.dual_box(), the floats (lo, hi, l1, quad)."""
    lo, hi, l1, quad = dual
    U = X - t * np.matmul(V[:, None, :], J)[:, 0, :]
    Yr = penalty_prox(g, U, t)
    D = Yr - X
    Z = cbar + np.matmul(J, D[:, :, None])[:, :, 0]
    # zero l1 / quadratic dual terms drop out of the update exactly
    S = V + step * (Z - quad * V if quad else Z)
    if l1:
        S = np.sign(S) * np.maximum(np.abs(S) - step * l1, 0.0)
    return U, Yr, D, Z, S, np.minimum(np.maximum(S, lo), hi)


def _newton_points(g, dual, J, t, step, V, U, S, G):
    """Semismooth Newton points u = v + delta on the residual
    R(w) = w - T(w) at the rows of V, where M delta = G = T(v) - v and
    M = (I - P) + s P A, A = t J diag(D_g) J^T + quad I, P being the 0/1
    derivative of the clip and soft-threshold at S and D_g that of
    prox_{tg} at U; dual is h.dual_box(), the floats (lo, hi, l1, quad).

    M is block triangular: on the clipped duals N it is the identity, so
    delta_N = G_N exactly, and on the free duals F
    s A_FF delta_F = G_F - s A_FN G_N. With a quadratic dual term A_FF is
    positive definite and M is solved as it stands. Without one
    A_FF = t K_F K_F^T with K = J diag(D_g)^(1/2), singular once more than
    n duals are free, and delta_F is its min-norm least-squares solution
    K_F (K_F^T K_F)^+2 K_F^T r / (s t), taken through one batched eigh of
    the n x n Gram matrices K_F^T K_F (the rows of K outside F zeroed);
    eigenvalues at most RANK_RCOND times the largest count as zero."""
    lo, hi, l1, quad = dual
    P = (S > lo) & (S < hi)
    if l1:
        P &= S != 0.0
    Dg = g._prox_deriv(U, t)
    if quad:
        A = t * np.matmul(J * Dg[:, None, :], J.transpose(0, 2, 1))
        diag = np.arange(A.shape[1])
        A[:, diag, diag] += quad
        M = (step * P)[:, :, None] * A
        M[:, diag, diag] += 1.0 - P
        return V + np.linalg.solve(M, G[:, :, None])[:, :, 0]
    Kj = J * np.sqrt(Dg)[:, None, :]
    KF = Kj * P[:, :, None]
    KFt = KF.transpose(0, 2, 1)
    GN = np.where(P, 0.0, G)
    st = step * t
    # r = G - s t K K_N^T G_N; its entries on N meet the zero rows of K_F
    r = G - st * np.matmul(Kj, np.matmul(Kj.transpose(0, 2, 1),
                                         GN[:, :, None]))[:, :, 0]
    lam, Q = np.linalg.eigh(np.matmul(KFt, KF))
    inv = np.divide(1.0, lam, out=np.zeros_like(lam),
                    where=lam > RANK_RCOND * lam[:, -1:])[:, :, None]
    c = inv * inv * np.matmul(Q.transpose(0, 2, 1),
                              np.matmul(KFt, r[:, :, None]))
    dF = np.matmul(KF, np.matmul(Q, c))[:, :, 0]
    return V + GN + dF / st


def dual_ascent(g, h, J, cbar, X, t, steps, tol, fx, maxit, W0=None):
    """Accelerated forward-backward ascent on the duals of B linearized
    subproblems, finished by semismooth Newton steps.

    Row b maximizes  <w, cbar_b> - h*(w)
    + min_y { g(y) + <J_b^T w, y - x_b> + |y - x_b|^2/2t }  over the box
    [lo, hi]^m, with the extra dual terms l1*|w|_1 (vapnik) and
    quad*|w|^2/2 (huber envelope), (lo, hi, l1, quad) being the four
    floats of h.dual_box(), by FISTA (Beck & Teboulle 2009) with
    step steps[b] and gradient-mapping adaptive restart (O'Donoghue &
    Candes 2015). Each row keeps its own momentum theta: the forward-backward
    map T is applied at the extrapolated point
    v = w + ((theta_k - 1)/theta_{k+1})(w - w_prev), with theta_1 = 1 and
    theta_{k+1} = (1 + sqrt(1 + 4 theta_k^2))/2, and the next iterate is
    T(v); a row whose step turns against its last move,
    (T(v) - v).(T(v) - w) < 0, restarts at theta = 1, which drops the
    momentum of its next step. Primal recovery y = prox_{tg}(x_b - t J_b^T v).
    A row stops once its dual fixed-point residual r = |T(v) - v|/step is
    <= tol and its model value g(y) + h(z) + |y - x_b|^2/2t is at most
    fx[b] + 1e-12 (1 + |fx[b]|), a slack for the roundoff of the model
    value (fx = inf disables the value test); the model value is evaluated
    only for rows whose residual passed. Finished rows retire, and the
    stacked arrays are compacted only when some row finishes.

    A row still running whose r is at most its Newton gate also tries a
    semismooth Newton step u on R(w) = w - T(w) from v (see
    _newton_points), all such rows in one batched eigh of their n x n Gram
    matrices (one batched solve with h's quadratic dual term). u is taken
    only if |T(u) - u|/step < r and |u - v| > NEWTON_ULPS ulp of |v|, and
    the row then restarts its momentum at u (theta = 1, w_prev = w = u);
    otherwise the FISTA step stands and the row's gate falls to
    min(gate, NEWTON_RETRY * r). Every gate starts at NEWTON_SWITCH: FISTA's
    warm-up identifies the active pieces, and a Newton step from w = 0 is
    almost always rejected. The gates are compacted with the other row
    arrays, so a row's path does not depend on the rows stacked with it.

    W0 is a (B, m) start dual, or None for w = 0. A start is first
    clipped to h's dual box: the W a solve returns is an extrapolated
    point and may lie outside it. A start taken from a nearby solve
    carries the active pieces that the FISTA warm-up exists to find, so at
    iteration 1 every row of a started solve tries the Newton step
    whatever its residual and gate, under the same acceptance rule and
    gate update; from iteration 2 on the gates apply.

    g and h are the two penalties. J is (B, m, n), cbar (B, m), X (B, n);
    steps and fx are (B,).
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
    fx = np.asarray(fx, dtype=np.float64)
    limit = fx + 1e-12 * (1.0 + np.abs(fx))
    dual = h.dual_box()
    w = (np.zeros(cbar.shape) if W0 is None
         else np.minimum(np.maximum(W0, dual[0]), dual[1]))
    w_prev = w
    theta = np.ones(B)
    gate = np.full(B, NEWTON_SWITCH)
    for it in range(1, maxit + 1):
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        v = w + ((theta - 1.0) / theta_next)[:, None] * (w - w_prev)
        U, Yr, D, Z, S, Tv = _forward_backward(g, dual, J, cbar, X, t, step,
                                               v)
        G = Tv - v
        # scaled before it is squared: |G| is about step |grad|, and its
        # square underflows to 0 once step is below ~1e-160
        r = np.sqrt(row_dots(G / step))
        worst = r.max()
        if not worst < _INF:
            raise InnerSolveError(
                f"subproblem dual ascent residual is {worst} at iteration "
                f"{it}", residual=float(worst), iterations=it)
        if r.min() <= tol:
            passed = np.flatnonzero(r <= tol)
            fy = (penalty_value(g, Yr[passed])
                  + penalty_value(h, Z[passed])
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
                 theta_next, gate) = (a[keep] for a in (
                     rows, J, cbar, X, step, limit, r, v, w, U, S, Tv, G,
                     theta_next, gate))
        theta = np.where(row_inner(G, Tv - w) < 0.0, 1.0, theta_next)
        w_prev, w = w, Tv
        near = (np.arange(r.size) if it == 1 and W0 is not None
                else np.flatnonzero(r <= gate))
        if near.size:
            newton += near.size
            Jn, sn, vn, rn = J[near], step[near], v[near], r[near]
            u = _newton_points(g, dual, Jn, t, sn, vn, U[near], S[near],
                               G[near])
            Tu = _forward_backward(g, dual, Jn, cbar[near], X[near], t, sn,
                                   u)[5]
            better = ((np.sqrt(row_dots((Tu - u) / sn)) < rn)
                      & (np.sqrt(row_dots(u - vn))
                         > NEWTON_ULPS * np.spacing(np.sqrt(row_dots(vn)))))
            lost = near[~better]
            gate[lost] = np.minimum(gate[lost], NEWTON_RETRY * rn[~better])
            if better.any():
                took = near[better]
                w_prev = w_prev.copy()
                w[took] = w_prev[took] = u[better]
                theta[took] = 1.0
            # the step is decided: free its Jacobian copy before the next
            # iteration's temporaries and compaction
            del Jn, u, Tu
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

    A row whose box is one point (vlo == vhi and wlo == whi) clips back to
    that point, so it retires at iteration 1 with move 0 and the norm
    |vlo + J^T wlo|, the same bits for any positive finite step.
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
