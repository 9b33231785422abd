"""Kernel agreement: the stacked dual ascent and min-norm box QP must match
one-row-at-a-time loops; the dual ascent must be at least as accurate as
the plain loop it replaced and, with its Newton finish, match a
tolerance-1e-15 solve to 1e-12; the prox derivative behind the Newton steps
must match central differences."""

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
    gpack, hpack, hdual = g._packed(N), h._packed(M), h.dual_box(M)
    curv = max(1.0, float(np.max(hdual[3])))
    steps = np.array([rng.uniform(0.5, 1.0) / (T * np.linalg.norm(Jb, 2) ** 2
                                               + curv) for Jb in J])
    fx = g.value_batch(X) + h.value_batch(cbar)
    fslack = 1e-12 * (1.0 + np.abs(fx))
    return (gpack, hpack, hdual), J, cbar, X, steps, fx, fslack


def run_serial(penalty_args, J, cbar, X, steps, tol, fx, fslack, maxit, rows,
               loop=serialref.dual_ascent):
    return [loop(penalty_args, J[b], cbar[b], X[b], T, steps[b], tol, fx[b],
                 fslack[b], maxit)
            for b in rows]


def assert_matches_serial(hname, gname, rows, tol):
    """Stacked kernel vs the serial accelerated loop: same iterations and
    Newton steps, y and w within 1e-12 relative. Returns the kernel's
    per-row iterations."""
    args, J, cbar, X, steps, fx, fslack = stacked_subproblems(
        DUAL_H[hname], DUAL_G[gname], rows, seed=rows)
    Y, W, resid, total, iters, newton = K.dual_ascent(
        *args, J, cbar, X, T, steps, tol, fx, fslack, 10 ** 5)
    assert isinstance(total, int) and total == int(np.sum(iters))
    # a row's result does not depend on the other rows, so the 300-row
    # stack is checked on every tenth row to keep the serial loop short
    check = range(0, rows, 10 if rows > 100 else 1)
    ref = run_serial(args, J, cbar, X, steps, tol, fx, fslack, 10 ** 5,
                     check)
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


@pytest.mark.parametrize("hname", ["absvalue", "checkfunction"])
def test_stacked_dual_ascent_value_test_keeps_rows_running(hname):
    # at a loose tolerance some rows pass the residual test before their
    # model value is at most phi(x); they must keep iterating as in the loop
    iters = assert_matches_serial(hname, "absvalue", 300, 1e-3)
    args, J, cbar, X, steps, fx, fslack = stacked_subproblems(
        DUAL_H[hname], DUAL_G["absvalue"], 300, seed=300)
    no_value_test = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-3,
                                  np.full(300, np.inf), fslack, 10 ** 5)[4]
    assert np.sum(iters > no_value_test) >= 10
    assert np.all(iters >= no_value_test)


@pytest.mark.parametrize("gname", sorted(DUAL_G))
@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_accelerated_dual_ascent_as_accurate_as_plain(hname, gname):
    # against a tol-1e-15 solve, the accelerated kernel's largest error in
    # y over the stack is within twice the plain loop's at the same tol,
    # in fewer iterations (at tol 1e-10 both are off by up to ~7e-10, so a
    # bound in terms of tol alone would not hold)
    args, J, cbar, X, steps, fx, fslack = stacked_subproblems(
        DUAL_H[hname], DUAL_G[gname], 20, seed=11)
    Y_star = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-15, fx, fslack,
                           10 ** 6)[0]
    Y, _, _, total, _, _ = K.dual_ascent(*args, J, cbar, X, T, steps, TOL,
                                         fx, fslack, 10 ** 5)
    plain = run_serial(args, J, cbar, X, steps, TOL, fx, fslack, 10 ** 5,
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
    args, J, cbar, X, steps, fx, fslack = stacked_subproblems(
        DUAL_H[hname], DUAL_G[gname], 20, seed=11)
    tight = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-15, fx, fslack,
                          10 ** 6)
    got = K.dual_ascent(*args, J, cbar, X, T, steps, 1e-11, fx, fslack,
                        10 ** 5)
    for a, b in ((got[0], tight[0]), (got[1], tight[1])):
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1.0))
    assert got[5] > 0
    plain = run_serial(args, J, cbar, X, steps, 1e-11, fx, fslack, 10 ** 5,
                       range(20), loop=serialref.plain_dual_ascent)
    assert got[3] < sum(r[3] for r in plain)


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
    n = DERIV_POINTS.size
    kind, p1, p2 = penalty._packed(n)
    X = np.stack([DERIV_POINTS, -DERIV_POINTS])
    h = 1e-6
    fd = (K.penalty_prox(kind, p1, p2, X + h, T)
          - K.penalty_prox(kind, p1, p2, X - h, T)) / (2.0 * h)
    got = K.penalty_prox_deriv(kind, p1, p2, X, T)
    assert got.shape == X.shape
    assert np.allclose(got, fd, rtol=0.0, atol=1e-8)
    assert np.array_equal(got[0], K.penalty_prox_deriv(kind, p1, p2, X[0], T))


def test_dual_ascent_stops_on_a_nan_row():
    args, J, cbar, X, steps, fx, fslack = stacked_subproblems(
        DUAL_H["epsiloninsensitive"], DUAL_G["absvalue"], 7, seed=3)
    X[4, 2] = np.nan
    with pytest.raises(pb.InnerSolveError,
                       match="residual is nan at iteration 1$") as info:
        K.dual_ascent(*args, J, cbar, X, T, steps, TOL, fx, fslack, 10 ** 5)
    assert info.value.iterations == 1


def test_minnorm_boxqp_stops_on_a_nan_row():
    J, vlo, vhi, wlo, whi, steps = stacked_boxqps(7, seed=3)
    J[5, 0, 0] = np.nan
    with pytest.raises(pb.InnerSolveError,
                       match="move is nan at iteration 1$") as info:
        K.minnorm_boxqp(J, vlo, vhi, wlo, whi, steps, TOL, 10 ** 5)
    assert info.value.iterations == 1


def test_stacked_dual_ascent_names_worst_residual():
    args, J, cbar, X, steps, fx, fslack = stacked_subproblems(
        DUAL_H["absvalue"], DUAL_G["absvalue"], 7, seed=3)
    ref = run_serial(args, J, cbar, X, steps, TOL, fx, fslack, 5, range(7))
    worst = max(r[2] for r in ref if not r[4])
    with pytest.raises(pb.InnerSolveError,
                       match=re.escape(f"{worst:.3e}")) as info:
        K.dual_ascent(*args, J, cbar, X, T, steps, TOL, fx, fslack, 5)
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


# every kind, with weights or vector bounds where the kind takes them, and
# which of its two kernel parameters are (n,) arrays; the kinks of their
# prox at t = 1 and t = 0.5 are among PARAM_KINKS
PARAM_N = 5
PARAM_PENALTIES = {
    "zero": (pb.Zero(), (False, False)),
    "absvalue": (pb.AbsValue(0.9), (False, False)),
    "absvalue-weighted": (
        pb.AbsValue(0.9, weights=np.array([1.0, 0.5, 2.0, 0.0, 1.5])),
        (True, False)),
    "elasticnet": (pb.ElasticNet(0.9, 0.6), (False, False)),
    "elasticnet-weighted": (
        pb.ElasticNet(0.9, 0.6, weights=np.array([0.3, 1.0, 1.0, 2.0, 0.7])),
        (True, True)),
    "box": (pb.BoxIndicator(-1.2, 0.9), (False, False)),
    "box-vector": (pb.BoxIndicator(np.array([-1.2, -0.5, 0.0, -2.0, -0.9]),
                                   np.array([0.9, 0.5, 1.2, -1.0, 0.9])),
                   (True, True)),
    "epsiloninsensitive": (pb.EpsilonInsensitive(0.9, 0.2), (False, False)),
    "checkfunction": (pb.CheckFunction(0.8, 0.3), (False, False)),
    "huberenvelope": (pb.HuberEnvelope(0.7, 0.4), (False, False)),
}
PARAM_KINKS = np.array([0.0, 0.2, -0.2, 0.45, -0.45, 0.9, -0.9, 1.1, -1.1,
                        -1.2, 0.5, -0.5, 1.2, -2.0, -1.0, 0.28, -0.28,
                        0.24, -0.56, 0.12, 0.63, -0.63, 0.98, -0.98])


def widened(pack, n):
    """A kernel triple with both parameters broadcast to (n,) arrays."""
    kind, p1, p2 = pack
    return kind, np.full(n, p1), np.full(n, p2)


@pytest.mark.parametrize("name", sorted(PARAM_PENALTIES))
def test_stored_parameters_match_broadcast(name):
    # a penalty keeps float parameters unless they are per coordinate; the
    # four kernels give the same bits as with the parameters broadcast to
    # (n,) arrays, at single points and at stacks with kink points
    penalty, per_coordinate = PARAM_PENALTIES[name]
    pack = penalty._packed(PARAM_N)
    assert tuple(isinstance(p, np.ndarray) for p in pack[1:]) == per_coordinate
    assert all(isinstance(p, float) for p in pack[1:]
               if not isinstance(p, np.ndarray))
    wide = widened(pack, PARAM_N)
    rng = np.random.default_rng(17)
    X = rng.uniform(-2.0, 2.0, size=(4, 30, PARAM_N))
    snap = rng.random(X.shape) < 0.5
    X[snap] = rng.choice(PARAM_KINKS, size=int(np.sum(snap)))
    for points in (X, X[2, 7]):
        for t in (T, 0.5):
            for op in (K.penalty_prox, K.penalty_prox_deriv):
                assert np.array_equal(op(*pack, points, t),
                                      op(*wide, points, t))
        assert np.array_equal(K.penalty_value(*pack, points),
                              K.penalty_value(*wide, points))
        got, want = (K.penalty_subgrad(*p, points) for p in (pack, wide))
        assert got[2] == want[2]
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("gname", sorted(DUAL_G))
@pytest.mark.parametrize("hname", sorted(DUAL_H))
def test_dual_ascent_stored_parameters_match_broadcast(hname, gname):
    (g, h, hbox), J, cbar, X, steps, fx, fslack = stacked_subproblems(
        DUAL_H[hname], DUAL_G[gname], 7, seed=5)
    got = K.dual_ascent(g, h, hbox, J, cbar, X, T, steps, TOL, fx, fslack,
                        10 ** 5)
    want = K.dual_ascent(widened(g, N), widened(h, M), hbox, J, cbar, X, T,
                         steps, TOL, fx, fslack, 10 ** 5)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
