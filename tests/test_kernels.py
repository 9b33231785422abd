"""Kernel agreement: the stacked dual ascent and min-norm box QP must match
one-row-at-a-time loops; the dual ascent must be at least as accurate as
the plain loop it replaced and, with its Newton finish, match a
tolerance-1e-15 solve to 1e-12, from zeros and from a start dual; the prox
derivative behind the Newton steps must match central differences, and the
Newton points must be the pseudo-inverse (min-norm least-squares) steps of
the generalized Jacobian."""

import re

import numpy as np
import pytest

import proxbound as pb
import serialref
from proxbound import _kernels as K

DUAL_H = {"absvalue": pb.AbsValue(0.9),
          "epsiloninsensitive": pb.EpsilonInsensitive(0.9, 0.2),
          "checkfunction": pb.CheckFunction(0.8, 0.3),
          "huberenvelope": pb.HuberEnvelope(0.7, 0.4)}
DUAL_G = {"zero": pb.Zero(), "absvalue": pb.AbsValue(0.1),
          "box": pb.BoxIndicator(-1.2, 0.9)}
M, N, T, TOL = 3, 4, 1.0, 1e-10


def stacked_subproblems(h, g, rows, seed):
    """Kernel arguments for `rows` random subproblems, each with its own
    step (a random fraction of the largest safe one)."""
    rng = np.random.default_rng(seed)
    J = np.eye(M, N) + 0.3 * rng.standard_normal((rows, M, N))
    cbar = rng.standard_normal((rows, M))
    # at cbar = 0 the model value of a loosely solved y can exceed phi(x),
    # so there the value test, not the residual, decides when a row stops
    cbar[1::3] = 0.0
    X = rng.uniform(-1.0, 0.8, size=(rows, N))
    curv = max(1.0, h.dual_box()[3])
    steps = np.array([rng.uniform(0.5, 1.0) / (T * np.linalg.norm(Jb, 2) ** 2
                                               + curv) for Jb in J])
    fx = g.value_batch(X) + h.value_batch(cbar)
    return (g, h), J, cbar, X, steps, fx


def run_serial(penalty_args, J, cbar, X, steps, tol, fx, maxit, rows,
               loop=serialref.dual_ascent):
    return [loop(penalty_args, J[b], cbar[b], X[b], T, steps[b], tol, fx[b],
                 maxit)
            for b in rows]


def assert_matches_serial(hname, gname, rows, tol):
    """Stacked kernel vs the serial accelerated loop: same iterations and
    Newton steps, y and w within 1e-12 relative. Returns the kernel's
    per-row iterations."""
    args, J, cbar, X, steps, fx = stacked_subproblems(
        DUAL_H[hname], DUAL_G[gname], rows, seed=rows)
    Y, W, resid, total, iters, newton = K.dual_ascent(
        *args, J, cbar, X, T, steps, tol, fx, 10 ** 5)
    assert isinstance(total, int) and total == int(np.sum(iters))
    # a row's result does not depend on the other rows, so the 300-row
    # stack is checked on every tenth row to keep the serial loop short
    check = range(0, rows, 10 if rows > 100 else 1)
    ref = run_serial(args, J, cbar, X, steps, tol, fx, 10 ** 5, check)
    assert all(r[4] for r in ref)
    assert iters[check].tolist() == [r[3] for r in ref]
    assert isinstance(newton, int)
    if rows <= 100:
        assert newton == sum(r[5] for r in ref)
    for got, want in ((Y[check], np.array([r[0] for r in ref])),
                      (W[check], np.array([r[1] for r in ref]))):
        err = np.abs(got - want)
        assert np.all(err <= 1e-12 * np.maximum(np.abs(want), 1.0))
    return iters


@pytest.mark.parametrize("rows", [1, 7, 300])
@pytest.mark.parametrize("gname", sorted(DUAL_G))
@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_stacked_dual_ascent_matches_serial(hname, gname, rows):
    assert_matches_serial(hname, gname, rows, TOL)


@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_rejected_newton_steps_match_serial(hname, monkeypatch):
    # at a switch of 0.1 many Newton steps start from wrongly identified
    # pieces: the FISTA step that stands after a rejected one, and the
    # momentum restart after a kept one, must match the serial loop
    monkeypatch.setattr(K, "NEWTON_SWITCH", 0.1)
    assert_matches_serial(hname, "absvalue", 60, TOL)


def lone_newton_log(monkeypatch, args, J, cbar, X, steps, tol, fx):
    """Solve one subproblem (rows of length 1) and return [r, kept] per
    iteration: its residual r and, where it tried a Newton step, whether
    the step was kept (by the kernel's rule: a lower residual and a move
    of more than NEWTON_ULPS ulp of |v|), else None."""
    forward_backward, newton_points = K._forward_backward, K._newton_points
    log, tried = [], []

    def traced_forward_backward(g, dual, J, cbar, X, t, step, V):
        out = forward_backward(g, dual, J, cbar, X, t, step, V)
        r = np.sqrt(K.row_dots((out[5] - V) / step))[0]
        if tried:
            v, u = tried.pop()
            moved = (np.sqrt(K.row_dots(u - v))[0]
                     > K.NEWTON_ULPS * np.spacing(np.sqrt(K.row_dots(v))[0]))
            log[-1][1] = bool(moved and r < log[-1][0])
        else:
            log.append([r, None])
        return out

    def traced_newton_points(g, dual, J, t, step, V, U, S, G):
        u = newton_points(g, dual, J, t, step, V, U, S, G)
        tried.append((V, u))
        return u

    monkeypatch.setattr(K, "_forward_backward", traced_forward_backward)
    monkeypatch.setattr(K, "_newton_points", traced_newton_points)
    K.dual_ascent(*args, J, cbar, X, T, steps, tol, fx, 10 ** 5)
    return log


@pytest.mark.parametrize("hname", ["absvalue", "epsiloninsensitive"])
def test_rejected_newton_step_holds_the_row_back(hname, monkeypatch):
    # a row whose Newton step was rejected at residual r tries none again
    # until its residual is at most NEWTON_RETRY * r, and then does
    args, J, cbar, X, steps, fx = stacked_subproblems(
        DUAL_H[hname], DUAL_G["absvalue"], 60, seed=60)
    held_back = 0
    for b in range(60):
        one = slice(b, b + 1)
        log = lone_newton_log(monkeypatch, args, J[one], cbar[one], X[one],
                              steps[one], TOL, fx[one])
        monkeypatch.undo()
        gate = K.NEWTON_SWITCH
        # the last iteration stops the row before any Newton step
        for r, kept in log[:-1]:
            assert (kept is not None) == (r <= gate)
            if kept is None and r <= K.NEWTON_SWITCH:
                held_back += 1
            if kept is False:
                gate = min(gate, K.NEWTON_RETRY * r)
    assert held_back >= 3


@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_stacked_rows_match_their_lone_solves(hname):
    # each row's gate is compacted with it, so a 300-row stack gives every
    # row the iterations, Newton steps and point of its lone solve
    args, J, cbar, X, steps, fx = stacked_subproblems(
        DUAL_H[hname], DUAL_G["absvalue"], 300, seed=300)
    Y, W, resid, _, iters, newton = K.dual_ascent(
        *args, J, cbar, X, T, steps, TOL, fx, 10 ** 5)
    lone = [K.dual_ascent(*args, J[b:b + 1], cbar[b:b + 1], X[b:b + 1], T,
                          steps[b:b + 1], TOL, fx[b:b + 1], 10 ** 5)
            for b in range(300)]
    assert iters.tolist() == [one[4][0] for one in lone]
    assert newton == sum(one[5] for one in lone)
    for got, k in ((Y, 0), (W, 1), (resid, 2)):
        assert np.array_equal(got, np.concatenate([one[k] for one in lone]))


@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_warm_start_tries_newton_on_every_row_at_iteration_1(hname,
                                                            monkeypatch):
    # whatever a row's residual and gate, a started solve tries a Newton
    # step at iteration 1 on every row that did not stop there
    W0, (args, J, cbar, X, steps, fx) = warm_subproblems(
        hname, "absvalue", 60, seed=60)
    calls = []
    newton_points = K._newton_points

    def counted(g, dual, J, t, step, V, U, S, G):
        calls.append(np.sqrt(K.row_dots(G)) / step[:, 0])
        return newton_points(g, dual, J, t, step, V, U, S, G)

    monkeypatch.setattr(K, "_newton_points", counted)
    iters = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-11, fx, 10 ** 5,
                          W0)[4]
    assert calls[0].size == np.count_nonzero(iters > 1) > 0
    assert np.any(calls[0] > K.NEWTON_SWITCH)
    # a far start tries it too, every residual being above the gate
    lo, hi = DUAL_H[hname].dual_box()[:2]
    edge = np.where(W0 >= 0.0, hi, lo)
    calls.clear()
    iters = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-11, fx, 10 ** 5,
                          -edge)[4]
    assert calls[0].size == np.count_nonzero(iters > 1) == 60
    assert np.all(calls[0] > K.NEWTON_SWITCH)


@pytest.mark.parametrize("rows, row, counts, without_rule",
                         [(60, 37, (24, 4), (24, 4)),
                          (300, 223, (13, 3), (15, 5))])
def test_sub_ulp_newton_step_counts_as_rejected(rows, row, counts,
                                                without_rule, monkeypatch):
    # under a switch of 0.1 these rows try Newton steps that are zero in
    # exact arithmetic and move v by at most NEWTON_ULPS ulp of |v|. Each
    # counts as rejected: the solve is bit for bit the one where the step
    # is exactly zero. On row 223 the residual test alone would keep it,
    # restart the momentum and cost the row two iterations; row 37 (whose
    # kept sub-ulp steps threw its momentum away 10 times in 44 iterations
    # before the gate) now tries 4 steps
    monkeypatch.setattr(K, "NEWTON_SWITCH", 0.1)
    args, J, cbar, X, steps, fx = stacked_subproblems(
        DUAL_H["absvalue"], DUAL_G["absvalue"], rows, seed=rows)
    one = slice(row, row + 1)

    def solve():
        return K.dual_ascent(*args, J[one], cbar[one], X[one], T,
                             steps[one], TOL, fx[one], 10 ** 5)

    got = solve()
    assert (got[4][0], got[5]) == counts
    zero_steps = []
    newton_points = K._newton_points

    def zeroed(g, dual, J, t, step, V, U, S, G):
        u = newton_points(g, dual, J, t, step, V, U, S, G)
        sub = (np.sqrt(K.row_dots(u - V))
               <= K.NEWTON_ULPS * np.spacing(np.sqrt(K.row_dots(V))))
        zero_steps.append(int(np.count_nonzero(sub)))
        return np.where(sub[:, None], V, u)

    monkeypatch.setattr(K, "_newton_points", zeroed)
    for a, b in zip(got, solve()):
        assert np.array_equal(a, b)
    assert sum(zero_steps) == 1
    monkeypatch.setattr(K, "_newton_points", newton_points)
    monkeypatch.setattr(K, "NEWTON_ULPS", 0.0)
    unruled = solve()
    assert (unruled[4][0], unruled[5]) == without_rule


@pytest.mark.parametrize("hname", ["absvalue", "checkfunction"])
def test_stacked_dual_ascent_value_test_keeps_rows_running(hname):
    # at a tolerance as loose as the Newton gate's start some rows pass
    # the residual test before their model value is at most phi(x); they
    # must keep iterating as in the loop (at 1e-3 a Newton step takes the
    # residual and the value test together)
    iters = assert_matches_serial(hname, "absvalue", 300, 1e-2)
    args, J, cbar, X, steps, fx = stacked_subproblems(
        DUAL_H[hname], DUAL_G["absvalue"], 300, seed=300)
    no_value_test = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-2,
                                  np.full(300, np.inf), 10 ** 5)[4]
    assert np.sum(iters > no_value_test) >= 10
    assert np.all(iters >= no_value_test)


@pytest.mark.parametrize("gname", sorted(DUAL_G))
@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_accelerated_dual_ascent_as_accurate_as_plain(hname, gname):
    # against a tol-1e-15 solve, the accelerated kernel's largest error in
    # y over the stack is within twice the plain loop's at the same tol,
    # in fewer iterations (at tol 1e-10 both are off by up to ~7e-10, so a
    # bound in terms of tol alone would not hold)
    args, J, cbar, X, steps, fx = stacked_subproblems(
        DUAL_H[hname], DUAL_G[gname], 20, seed=11)
    Y_star = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-15, fx, 10 ** 6)[0]
    Y, _, _, total, _, _ = K.dual_ascent(*args, J, cbar, X, T, steps, TOL,
                                         fx, 10 ** 5)
    plain = run_serial(args, J, cbar, X, steps, TOL, fx, 10 ** 5,
                       range(20), loop=serialref.plain_dual_ascent)
    assert all(r[4] for r in plain)
    err = np.max(np.abs(Y - Y_star))
    err_plain = np.max(np.abs(np.array([r[0] for r in plain]) - Y_star))
    assert err <= 2.0 * err_plain
    assert total < sum(r[3] for r in plain)


@pytest.mark.parametrize("gname", sorted(DUAL_G))
@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_newton_finish_matches_tight_solve(hname, gname):
    # at the workloads' inner_tol 1e-11 the kernel's y and w match a
    # tol-1e-15 solve to 1e-12 relative, and the Newton steps do the work
    args, J, cbar, X, steps, fx = stacked_subproblems(
        DUAL_H[hname], DUAL_G[gname], 20, seed=11)
    tight = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-15, fx, 10 ** 6)
    got = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-11, fx, 10 ** 5)
    for a, b in ((got[0], tight[0]), (got[1], tight[1])):
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1.0))
    assert got[5] > 0
    plain = run_serial(args, J, cbar, X, steps, 1e-11, fx, 10 ** 5,
                       range(20), loop=serialref.plain_dual_ascent)
    assert got[3] < sum(r[3] for r in plain)


def warm_subproblems(hname, gname, rows, seed):
    """The duals W at which a cold solve of `rows` random subproblems
    stopped, and the kernel arguments of the same subproblems at slightly
    moved data, as consecutive prox-linear steps pose them."""
    h, g = DUAL_H[hname], DUAL_G[gname]
    args, J, cbar, X, steps, fx = stacked_subproblems(h, g, rows, seed)
    W = K.dual_ascent(*args, J, cbar, X, T, steps, TOL, fx, 10 ** 5)[1]
    rng = np.random.default_rng(seed + 1)
    J2 = J + 0.01 * rng.standard_normal(J.shape)
    cbar2 = cbar + 0.01 * rng.standard_normal(cbar.shape)
    X2 = X + 0.01 * rng.standard_normal(X.shape)
    # each row keeps its fraction of the largest safe step
    curv = max(1.0, h.dual_box()[3])
    safe = [(T * np.linalg.norm(a, 2) ** 2 + curv)
            / (T * np.linalg.norm(b, 2) ** 2 + curv) for a, b in zip(J, J2)]
    fx2 = g.value_batch(X2) + h.value_batch(cbar2)
    return W, (args, J2, cbar2, X2, steps * np.array(safe), fx2)


def assert_close(got, want):
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("gname", sorted(DUAL_G))
@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_warm_dual_ascent_matches_serial_and_tight_solve(hname, gname, rows):
    # started from a nearby solve's duals, with a Newton step tried at
    # iteration 1: the serial loop's iterations and Newton steps, and the
    # y and w of a cold tol-1e-15 solve
    W0, (args, J, cbar, X, steps, fx) = warm_subproblems(
        hname, gname, rows, seed=rows)
    Y, W, _, total, iters, newton = K.dual_ascent(
        *args, J, cbar, X, T, steps, 1e-11, fx, 10 ** 5, W0)
    ref = [serialref.dual_ascent(args, J[b], cbar[b], X[b], T, steps[b],
                                 1e-11, fx[b], 10 ** 5, W0[b])
           for b in range(rows)]
    assert all(r[4] for r in ref)
    assert iters.tolist() == [r[3] for r in ref]
    # every row that did not stop at its start tried a Newton step there
    assert newton == sum(r[5] for r in ref) >= np.count_nonzero(iters > 1)
    assert_close(Y, np.array([r[0] for r in ref]))
    assert_close(W, np.array([r[1] for r in ref]))
    tight = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-15, fx, 10 ** 6)
    assert_close(Y, tight[0])
    assert_close(W, tight[1])
    assert total < K.dual_ascent(*args, J, cbar, X, T, steps, 1e-11, fx,
                                 10 ** 5)[3]
    # a start outside h's dual box is clipped to it first
    lo, hi = DUAL_H[hname].dual_box()[:2]
    edge = np.where(W0 >= 0.0, hi, lo)
    far = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-11, fx, 10 ** 5,
                        10.0 * edge)
    clipped = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-11, fx, 10 ** 5,
                            edge)
    for a, b in zip(far, clipped):
        assert np.array_equal(a, b)


def newton_args(h, g, m, n, rows, seed, free=0.7, dg_zero=0.0):
    """_newton_points arguments for `rows` random rows: a fraction `free`
    of the pre-clip points S inside h's dual box (the rest outside it, and
    a tenth of all at zero), and prox arguments U of which a fraction
    `dg_zero` has D_g = 0 (g being absvalue(0.1) there). Returns them, the
    stacked matrices M of M delta = G, built row by row, and the free
    duals P."""
    rng = np.random.default_rng(seed)
    dual = h.dual_box()
    hlo, hhi, hl1, hquad = dual
    J = rng.standard_normal((rows, m, n))
    step = rng.uniform(0.5, 1.0, size=(rows, 1)) / (T * n + 1.0)
    inside = rng.random((rows, m)) < free
    S = np.where(inside, rng.uniform(0.1, 0.9, size=(rows, m)) * hhi,
                 hhi + rng.uniform(0.1, 1.0, size=(rows, m)))
    S = np.where(rng.random((rows, m)) < 0.5, S, hlo / hhi * S)
    # a zero is inside the box but clipped by an l1 dual term's threshold
    S[rng.random((rows, m)) < 0.1] = 0.0
    U = rng.choice([-1.0, 1.0], size=(rows, n)) * np.where(
        rng.random((rows, n)) < dg_zero, 0.05, rng.uniform(0.2, 2.0,
                                                           size=(rows, n)))
    V = rng.uniform(-0.5, 0.5, size=(rows, m)) * hhi
    G = 1e-3 * rng.standard_normal((rows, m))
    P = (S > hlo) & (S < hhi)
    if hl1:
        P &= S != 0.0
    Dg = g._prox_deriv(U, T)
    M = np.empty((rows, m, m))
    for b in range(rows):
        A = T * (J[b] * Dg[b]) @ J[b].T + hquad * np.eye(m)
        M[b] = np.diag(1.0 - P[b]) + (step[b] * P[b])[:, None] * A
    args = (g, dual, J, T, step, V, U, S, G)
    return args, M, P


@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_newton_points_match_pinv_where_the_free_block_is_regular(hname):
    # at most m = 3 < n = 4 duals free and D_g = 1: the free block
    # t J_F J_F^T is nonsingular, and so is M; huberenvelope's quadratic
    # dual term takes the nonsingular solve
    args, M, P = newton_args(DUAL_H[hname], pb.Zero(), 3, 4, 40, seed=1)
    V, G = args[5], args[8]
    assert 0 < np.sum(P) < P.size
    assert np.all(np.linalg.matrix_rank(M) == 3)
    got = K._newton_points(*args)
    want = V + np.array([np.linalg.pinv(Mb) @ Gb for Mb, Gb in zip(M, G)])
    assert_close(got, want)


def assert_min_norm_least_squares(args, M, P):
    """Each row's point is v + G on the clipped duals, exactly, and its
    step on the free ones is the min-norm least-squares solution of
    M_FF delta_F = G_F - M_FN G_N: it meets the normal equations, has no
    part in the null space of M_FF, and equals lstsq's. Returns the number
    of rows whose M_FF is singular."""
    V, G = args[5], args[8]
    u = K._newton_points(*args)
    assert np.array_equal(u[~P], (V + G)[~P])
    singular = 0
    for Mb, Pb, Gb, db in zip(M, P, G, u - V):
        F, N = Pb, ~Pb
        if not F.any():
            continue
        A = Mb[np.ix_(F, F)]
        r = Gb[F] - Mb[np.ix_(F, N)] @ Gb[N]
        scale = np.linalg.norm(A, 2)
        assert (np.linalg.norm(A.T @ (A @ db[F] - r))
                <= 1e-12 * scale * (scale * np.linalg.norm(db[F])
                                    + np.linalg.norm(r)))
        Uf, sv, _ = np.linalg.svd(A)
        null = Uf[:, sv <= 1e-12 * sv[0]]
        singular += null.shape[1] > 0
        assert np.linalg.norm(null.T @ db[F]) <= 1e-12 * np.linalg.norm(db[F])
        want = np.linalg.lstsq(A, r, rcond=None)[0]
        assert np.allclose(db[F], want, rtol=0.0,
                           atol=1e-10 * np.linalg.norm(want))
    return singular


def test_newton_points_are_min_norm_with_more_free_duals_than_n():
    # m = 20 > n = 10 with every dual free: t J J^T has rank 10 of 20 and
    # G is not in its range
    args, M, P = newton_args(DUAL_H["absvalue"], pb.Zero(), 20, 10, 30,
                             seed=2, free=1.0)
    assert np.all(P)
    assert assert_min_norm_least_squares(args, M, P) == 30


@pytest.mark.parametrize("hname", ["absvalue", "epsiloninsensitive",
                                   "checkfunction"])
def test_newton_points_are_min_norm_where_d_g_vanishes(hname):
    # m = 3 < n = 4, but D_g = 0 on about half of the coordinates, so the
    # free block t J_F diag(D_g) J_F^T is singular on many rows
    args, M, P = newton_args(DUAL_H[hname], pb.AbsValue(0.1), 3, 4, 60,
                             seed=3, dg_zero=0.5)
    assert assert_min_norm_least_squares(args, M, P) >= 10


# points at least 0.02 from every kink of the prox of each kind at T = 1
# with the parameters below (kinks at +-0.9; +-0.2 and +-1.1; -0.56 and
# 0.24; +-0.98; the box ends -1.2 and 0.9)
DERIV_POINTS = np.array([-2.0, -1.0, -0.7, -0.4, -0.1, 0.1, 0.15, 0.5, 0.8,
                         1.0, 1.5, 2.5, -1.5, -0.3, 0.35])


@pytest.mark.parametrize("penalty", [
    pb.Zero(), pb.AbsValue(0.9), pb.ElasticNet(0.9, 0.6),
    pb.BoxIndicator(-1.2, 0.9), pb.EpsilonInsensitive(0.9, 0.2),
    pb.CheckFunction(0.8, 0.3), pb.HuberEnvelope(0.7, 0.4)],
    ids=lambda p: type(p).__name__)
def test_prox_deriv_matches_central_differences(penalty):
    X = np.stack([DERIV_POINTS, -DERIV_POINTS])
    h = 1e-6
    fd = (K.penalty_prox(penalty, X + h, T)
          - K.penalty_prox(penalty, X - h, T)) / (2.0 * h)
    got = penalty._prox_deriv(X, T)
    assert got.shape == X.shape
    assert np.allclose(got, fd, rtol=0.0, atol=1e-8)
    assert np.array_equal(got[0], penalty._prox_deriv(X[0], T))


def test_dual_ascent_stops_on_a_nan_row():
    args, J, cbar, X, steps, fx = stacked_subproblems(
        DUAL_H["epsiloninsensitive"], DUAL_G["absvalue"], 7, seed=3)
    X[4, 2] = np.nan
    with pytest.raises(pb.InnerSolveError,
                       match="residual is nan at iteration 1$") as info:
        K.dual_ascent(*args, J, cbar, X, T, steps, TOL, fx, 10 ** 5)
    assert info.value.iterations == 1


def test_minnorm_boxqp_stops_on_a_nan_row():
    J, vlo, vhi, wlo, whi, steps = stacked_boxqps(7, seed=3)
    J[5, 0, 0] = np.nan
    with pytest.raises(pb.InnerSolveError,
                       match="move is nan at iteration 1$") as info:
        K.minnorm_boxqp(J, vlo, vhi, wlo, whi, steps, TOL, 10 ** 5)
    assert info.value.iterations == 1


def test_stacked_dual_ascent_names_worst_residual():
    args, J, cbar, X, steps, fx = stacked_subproblems(
        DUAL_H["absvalue"], DUAL_G["absvalue"], 7, seed=3)
    ref = run_serial(args, J, cbar, X, steps, TOL, fx, 5, range(7))
    worst = max(r[2] for r in ref if not r[4])
    with pytest.raises(pb.InnerSolveError,
                       match=re.escape(f"{worst:.3e}")) as info:
        K.dual_ascent(*args, J, cbar, X, T, steps, TOL, fx, 5)
    assert info.value.residual == pytest.approx(worst, rel=1e-12)
    assert info.value.iterations == 5


def stacked_boxqps(rows, seed, m=6, n=4):
    """Kernel arguments for `rows` random min-norm QPs: v boxes that are
    two-sided, one-sided (an infinite end) or pinned, and a step per row."""
    rng = np.random.default_rng(seed)
    J = np.eye(m, n) + 0.5 * rng.standard_normal((rows, m, n))
    vlo = rng.choice([-np.inf, -0.3, 0.0], size=(rows, n))
    vhi = np.where(vlo == 0.0, 0.0, rng.choice([np.inf, 0.3], size=(rows, n)))
    wlo = -rng.uniform(0.0, 1.0, size=(rows, m))
    pinned = rng.random((rows, m)) < 0.3
    whi = np.where(pinned, wlo, rng.uniform(0.0, 1.0, size=(rows, m)))
    steps = np.array([rng.uniform(0.5, 1.0)
                      / (1.0 + np.linalg.norm(Jb, 2) ** 2) for Jb in J])
    return J, vlo, vhi, wlo, whi, steps


def serial_boxqps(J, vlo, vhi, wlo, whi, steps, tol, maxit):
    return [serialref.minnorm_boxqp(J[b], vlo[b], vhi[b], wlo[b], whi[b],
                                    steps[b], tol, maxit)
            for b in range(J.shape[0])]


@pytest.mark.parametrize("rows", [1, 7, 60])
def test_stacked_minnorm_boxqp_matches_serial(rows):
    args = stacked_boxqps(rows, seed=rows)
    norms, total, capped = K.minnorm_boxqp(*args, TOL, 10 ** 5)
    ref = serial_boxqps(*args, TOL, 10 ** 5)
    assert np.array_equal(norms, np.array([r[0] for r in ref]))
    assert isinstance(total, int) and total == sum(r[1] for r in ref)
    assert capped == 0
    # each row alone takes the serial loop's iterations
    its = [r[1] for r in ref]
    assert len(set(its)) > 1 or rows == 1
    for b in range(0, rows, max(1, rows // 10)):
        one, it, _ = K.minnorm_boxqp(*[a[b:b + 1] for a in args], TOL,
                                     10 ** 5)
        assert one[0] == ref[b][0] and it == its[b]


def test_stacked_minnorm_boxqp_cap_returns_current_norm():
    args = stacked_boxqps(50, seed=3)
    ref = serial_boxqps(*args, 1e-11, 4)
    norms, total, capped = K.minnorm_boxqp(*args, 1e-11, 4)
    assert np.array_equal(norms, np.array([r[0] for r in ref]))
    assert total == sum(r[1] for r in ref)
    # some rows stop early, the rest run into the cap and are counted; a
    # row that converges on the capping iteration itself is not capped,
    # which a fifth iteration tells apart
    assert 0 < sum(r[1] < 4 for r in ref) < 50
    assert capped == sum(r[1] > 4 for r in serial_boxqps(*args, 1e-11, 5))
    assert 0 < capped <= sum(r[1] == 4 for r in ref)
    assert K.minnorm_boxqp(*[a[:0] for a in args], 1e-11, 4)[1:] == (0, 0)


def test_minnorm_handles_infinite_bounds():
    J = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    vlo = np.array([[-np.inf, 0.0]])
    vhi = np.array([[np.inf, 0.0]])
    wlo = np.full((1, 2), 0.5)
    whi = np.full((1, 2), 0.5)
    steps = np.array([0.5])
    # first coordinate free: can cancel w exactly; second pinned at 0.5
    norms, _, _ = K.minnorm_boxqp(J, vlo, vhi, wlo, whi, steps, 1e-12,
                                  10 ** 5)
    assert norms[0] == pytest.approx(0.5, abs=1e-10)
    ref, _ = serialref.minnorm_boxqp(J[0], vlo[0], vhi[0], wlo[0], whi[0],
                                     0.5, 1e-12, 10 ** 5)
    assert norms[0] == ref


def test_point_box_rows_end_at_iteration_one_for_any_step():
    # vlo == vhi and wlo == whi: the update clips back to the one point, so
    # the norm |vlo + J^T wlo| and the one iteration do not depend on the
    # step (which lets dist(0, d phi) skip the spectral norm for such rows)
    J, vlo, _, wlo, _, _ = stacked_boxqps(40, seed=11)
    vlo = np.where(np.isfinite(vlo), vlo, 0.2)
    rows = J.shape[0]
    want = np.sqrt(np.sum((vlo + np.einsum("bmn,bm->bn", J, wlo)) ** 2,
                          axis=1))
    runs = [K.minnorm_boxqp(J, vlo, vlo.copy(), wlo, wlo.copy(), steps, TOL,
                            10 ** 5)
            for steps in (np.ones(rows),
                          1.0 / (1.0 + np.linalg.norm(J, 2, axis=(1, 2)) ** 2),
                          np.full(rows, 1e-6))]
    for norms, total, capped in runs:
        assert np.array_equal(norms, runs[0][0])
        assert (total, capped) == (rows, 0)
    assert np.allclose(runs[0][0], want, rtol=1e-14, atol=0.0)
    # a NaN in such a row's J is still caught on its first move
    J[17, 2, 1] = np.nan
    with pytest.raises(pb.InnerSolveError,
                       match="move is nan at iteration 1$") as info:
        K.minnorm_boxqp(J, vlo, vlo.copy(), wlo, wlo.copy(), np.ones(rows),
                        TOL, 10 ** 5)
    assert info.value.iterations == 1
