import numpy as np
import pytest

import proxbound as pb
import serialref
from conftest import ALL_PENALTIES
from proxbound import diagnostics as D
from proxbound.smooth import operator_norm_sq


def vec(*vals):
    return np.array(vals, dtype=float)


def abs_problem():
    # phi(x) = |x| through a degenerate smooth part
    f = pb.Quadratic(np.zeros((1, 1)), vec(0.0))
    return pb.AdditiveProblem(f=f, g=pb.AbsValue(1.0))


def half_sq_problem(dim=1):
    return pb.AdditiveProblem(f=pb.Quadratic(np.eye(dim), np.zeros(dim)),
                              g=pb.Zero())


def test_dist_abs_at_kink_is_zero():
    assert pb.dist_to_stationarity(abs_problem(), vec(0.0)) == 0.0


def test_dist_lasso_solution():
    # f = (x-2)^2/2, g = |x|: x = 1 is stationary since -f'(1) = 1 in d|1|
    p = pb.AdditiveProblem(f=pb.Quadratic(np.eye(1), vec(2.0)),
                           g=pb.AbsValue(1.0))
    assert pb.dist_to_stationarity(p, vec(1.0)) == 0.0
    assert pb.dist_to_stationarity(p, vec(0.5)) == pytest.approx(0.5)


def test_dist_composite_annihilated_jacobian():
    # c(x) = x^2 - 1 has zero Jacobian at 0, so every w is annihilated
    c = pb.QuadraticMap(np.array([[[2.0]]]), np.array([[0.0]]), vec(-1.0))
    prob = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0), c=c)
    assert pb.dist_to_stationarity(prob, vec(0.0)) <= 1e-10
    # away from the kink the subdifferential is a singleton
    assert pb.dist_to_stationarity(prob, vec(1.7)) == pytest.approx(3.4,
                                                                    abs=1e-8)


def test_dist_composite_grid_cross_check():
    # residual 1 sits on the kink (free dual weight in [-1,1]); residual 2
    # is smooth (weight pinned at +1): brute-force the free coordinate
    A = np.array([[2.0], [1.0]])
    b = vec(0.0, 0.5)
    prob = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0),
                               c=pb.AffineMap(A, b))
    x = vec(0.0)
    ws = np.linspace(-1.0, 1.0, 200001)
    brute = float(np.min(np.abs(2.0 * ws + 1.0)))
    got = pb.dist_to_stationarity(prob, x)
    assert got == pytest.approx(brute, abs=1e-8)


def test_dist_composite_exact_kink_point():
    # x=1 lies exactly on the kink of |x^2-1|: interval [-1,1] absorbs J
    c = pb.QuadraticMap(np.array([[[2.0]]]), np.array([[0.0]]), vec(-1.0))
    prob = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0), c=c)
    assert pb.dist_to_stationarity(prob, vec(1.0)) <= 1e-10


def test_dist_at_lasso_reference(lasso42, lasso42_ref):
    assert pb.dist_to_stationarity(lasso42, lasso42_ref.x_star) <= 1e-8


def test_reference_accuracy_invariant(lasso42_ref):
    assert lasso42_ref.accuracy <= 1e-12


def test_analytic_reference_detection(corridor10, lasso42):
    ref = pb.analytic_reference(corridor10)
    assert ref is not None and ref.phi_star == 0.0
    assert ref.dist(np.full(10, 3.0)) == pytest.approx(np.sqrt(10 * 4.0))
    assert ref.dist(np.zeros(10)) == 0.0
    assert pb.analytic_reference(lasso42) is None


def test_estimate_alpha_corridor(corridor10):
    ref = pb.analytic_reference(corridor10)
    a = pb.estimate_alpha(corridor10, ref, float("inf"), n_samples=5000, seed=1)
    assert a >= 2.0 - 1e-6
    assert a == pytest.approx(2.0, abs=1e-9)


def test_estimate_alpha_strongly_convex():
    p = half_sq_problem(3)
    ref = pb.ReferenceSolution.computed(np.zeros(3), 0.0, 0.0)
    a = pb.estimate_alpha(p, ref, float("inf"), n_samples=5000, seed=2)
    assert a >= 1.0 - 1e-6


def test_estimate_alpha_linear_growth_positive():
    p = abs_problem()
    ref = pb.ReferenceSolution.computed(np.zeros(1), 0.0, 0.0)
    a = pb.estimate_alpha(p, ref, 1.0, n_samples=2000, seed=3)
    assert a > 0.0
    # growth is linear, so the constant degrades with the radius: about
    # 2/max-dist with the sublevel capped at |x| <= 1
    assert a == pytest.approx(2.0, rel=0.1)


def test_estimate_gamma_corridor(corridor10):
    ref = pb.analytic_reference(corridor10)
    g = pb.estimate_gamma(corridor10, ref, float("inf"), 0.5,
                          n_samples=5000, seed=4)
    assert g <= 1.0 + 1e-6


def test_estimate_gamma_half_sq_exact():
    p = half_sq_problem(2)
    ref = pb.ReferenceSolution.computed(np.zeros(2), 0.0, 0.0)
    g = pb.estimate_gamma(p, ref, float("inf"), 1.0, n_samples=2000, seed=5)
    assert g == pytest.approx(1.0, rel=1e-12)


def test_estimators_deterministic(corridor10):
    ref = pb.analytic_reference(corridor10)
    a1 = pb.estimate_alpha(corridor10, ref, float("inf"), n_samples=500, seed=9)
    a2 = pb.estimate_alpha(corridor10, ref, float("inf"), n_samples=500, seed=9)
    assert a1 == a2


def test_insufficient_samples_raises():
    p = half_sq_problem(1)
    ref = pb.ReferenceSolution.computed(np.zeros(1), 0.0, 0.0)
    with pytest.raises(pb.InsufficientData):
        pb.estimate_alpha(p, ref, float("inf"), n_samples=5, seed=1)


def test_verify_constant_relations_arithmetic():
    checks = pb.verify_constant_relations(alpha=2.0, gamma=2.0, L=1.0,
                                          L_hat=1.25, t=0.5, beta=1.0, tol=0.0)
    # gamma bound (2/2 + 0.5)(1 + 0.5) = 2.25
    ok, slack = checks["gamma_vs_alpha"]
    assert ok and slack == pytest.approx(2.25 - 2.0)
    ok, slack = checks["prox_vs_subdiff"]
    assert ok and slack == pytest.approx(1.0 + 0.5 - 1.25)
    ok, slack = checks["subdiff_vs_alpha"]
    assert ok and slack == pytest.approx(1.0 - 1.0)
    ok, _ = checks["alpha_vs_gamma"]
    assert ok  # alpha = 2 >= 1/gamma = 0.5


def test_verify_constant_relations_requires_positive():
    with pytest.raises(ValueError):
        pb.verify_constant_relations(0.0, 1.0, 1.0, None, 0.5, 1.0)


def test_iteration_bound_examples():
    assert pb.iteration_bound(2.0, float("inf"), 1.0, 123.0,
                              np.e * 1e-8, 1e-8) == pytest.approx(4.0)
    assert pb.iteration_bound(2.0, 1.0, 1.0, 1.0, 1e-8, 1e-8) == 0.0


def phi_trace(phis):
    """A trace whose phi column holds phis."""
    tr = pb.IterationTrace(("k", "phi"))
    tr.data = {"k": list(range(len(phis))), "phi": list(phis)}
    return tr


def test_fit_tail_rate_geometric():
    gaps = 0.5 ** np.arange(40)
    phis = gaps + 7.0
    rate = pb.fit_tail_rate(phi_trace(phis), 7.0, 0.5)
    assert rate == pytest.approx(0.5, abs=1e-9)


def test_fit_tail_rate_constant_fails():
    phis = np.full(40, 7.5)
    with pytest.raises(pb.InsufficientData):
        pb.fit_tail_rate(phi_trace(phis), 7.0, 0.5)


def test_fit_tail_rate_too_short():
    with pytest.raises(pb.InsufficientData):
        pb.fit_tail_rate(phi_trace([1.0, 0.5, 0.25]), 0.0, 1.0)


def test_sandwich_quadratic_no_penalty():
    p = half_sq_problem(3)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-2, 2, size=(50, 3))
    rep = pb.verify_sandwich(p, 0.4, pts, inner_tol=1e-11)
    assert rep.min_lower_slack >= -1e-10
    assert rep.min_upper_slack >= -1e-10


class TiltedHuber(pb.HuberLoss):
    """The 1-D unit-slope huber loss minus v x."""

    def __init__(self, mu, v):
        super().__init__(np.eye(1), np.zeros(1), mu)
        self.v = v

    def _value_at(self, Z):
        return super()._value_at(Z) - self.v * Z[:, 0]

    def _grad_at(self, Z):
        return super()._grad_at(Z) - self.v


def test_firm_convexity_of_huber_under_tilt():
    # huber is the Moreau envelope of lam|.|; tilting by |v| < lam keeps
    # quadratic growth positive around the tilted minimizer mu*v
    lam, mu, v = 1.0, 2.0, 0.3
    prob = pb.AdditiveProblem(f=TiltedHuber(mu, v), g=pb.Zero())
    x_v = mu * v
    assert prob.f.grad(vec(x_v)) == pytest.approx([0.0])
    ref = pb.ReferenceSolution.computed(vec(x_v), prob.phi(vec(x_v)), 0.0)
    a = pb.estimate_alpha(prob, ref, float("inf"), n_samples=4000, seed=7)
    assert a > 0.0


def test_corridor_duality_both_directions(corridor10):
    # error-bound / quadratic-growth duality with multiplicative slack 1e-3
    ref = pb.analytic_reference(corridor10)
    t = 0.5
    a = pb.estimate_alpha(corridor10, ref, float("inf"), n_samples=4000, seed=11)
    g = pb.estimate_gamma(corridor10, ref, float("inf"), t, n_samples=4000,
                          seed=11)
    beta = corridor10.f.beta
    assert g <= (2.0 / a + t) * (1.0 + beta * t) * (1 + 1e-3)
    assert a >= (1 - 1e-3) / g


def test_estimate_constants_bundle(lasso42, lasso42_run, lasso42_ref,
                                   monkeypatch):
    gap0 = lasso42.phi(np.zeros(10)) - lasso42_ref.phi_star
    t = 1.0 / lasso42.f.beta
    pools = []
    inner = D._sample_pool

    def sample_pool(*args, **kwargs):
        pools.append(inner(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(D, "_sample_pool", sample_pool)
    rep = pb.estimate_constants(lasso42, lasso42_ref, gap0, t,
                                n_samples=4000, seed=5)
    assert rep.alpha_hat > 0 and rep.gamma_hat > 0 and rep.L_hat_sub > 0
    assert all(ok for ok, _ in rep.checks.values())
    text = rep.to_text()
    assert "alpha_hat=" in text and "check_gamma_vs_alpha=pass" in text
    # the additive G_t is closed form: no dual ascent behind gamma
    assert "gamma_samples=" in text and "gamma_dual_iters=0\n" in text
    assert "gamma_newton_steps" not in text
    assert "subdiff_samples=" in text and "subdiff_boxqp_iters=0\n" in text
    assert "subdiff_boxqp_capped=0\n" in text
    # one pool per run; every pool row is counted by alpha, skipped under
    # the roundoff floor, or within DIST_SKIP of S
    assert len(pools) == 1
    X, gaps, dists, drawn = pools[0]
    floor = D.GAP_ULPS * np.spacing(np.maximum(
        np.abs(gaps + lasso42_ref.phi_star), abs(lasso42_ref.phi_star)))
    near = int(np.sum((gaps > floor) & (dists <= D.DIST_SKIP)))
    ex = rep.extras
    assert ex["alpha_samples"] + ex["alpha_roundoff_skips"] + near == len(X)
    assert ex["prox_samples"] == int(np.sum(drawn < 500)) > 0


@pytest.fixture(scope="module")
def robust7_ref(robust7, robust7_run):
    return pb.compute_reference(robust7, x0=robust7_run.final_x, tol=1e-12,
                                inner_tol=1e-13)


def bundle_case(name, lasso42, lasso42_ref, robust7, robust7_ref):
    """(problem, reference, finite level of the run's start, t)."""
    if name == "lasso42":
        prob, ref, x0 = lasso42, lasso42_ref, np.zeros(10)
        t = 1.0 / lasso42.f.beta
    else:
        prob, ref, x0 = robust7, robust7_ref, np.full(10, 2.0)
        t = 1.0 / (robust7.L * robust7.beta)
    return prob, ref, prob.phi(x0) - ref.phi_star, t


@pytest.mark.parametrize("name,level,n", [
    ("lasso42", "gap0", 4000), ("lasso42", "inf", 4000),
    ("robust7", "gap0", 2000), ("lasso42", "gap0", 300)])
def test_sample_pool_matches_per_estimator_draws(name, level, n, lasso42,
                                                 lasso42_ref, robust7,
                                                 robust7_ref):
    prob, ref, gap0, t = bundle_case(name, lasso42, lasso42_ref, robust7,
                                     robust7_ref)
    nu = gap0 if level == "gap0" else float("inf")
    rep = pb.estimate_constants(prob, ref, nu, t, n_samples=n, seed=3)
    want = serialref.constants_by_estimator(prob, ref, nu, t, n, seed=3)
    got = dict(rep.extras, alpha_hat=rep.alpha_hat, gamma_hat=rep.gamma_hat,
               L_hat_sub=rep.L_hat_sub)
    assert {key: got[key] for key in want} == want


@pytest.mark.parametrize("name", ["lasso42", "robust7"])
def test_pool_prefix_is_the_accepted_smaller_draw(name, lasso42, lasso42_ref,
                                                  robust7, robust7_ref):
    prob, ref, gap0, _ = bundle_case(name, lasso42, lasso42_ref, robust7,
                                     robust7_ref)
    big = D.sample_box(ref, prob.dim, 2500, 4)
    X, gaps, dists, drawn = D._sample_pool(prob, ref, gap0, 2500, 4)
    for m in (500, 2000):
        small = D.sample_box(ref, prob.dim, m, 4)
        assert np.array_equal(small, big[:m])
        Xm, gaps_m, drawn_m = D._accepted(prob, ref, gap0, small)
        head = drawn < m
        assert np.array_equal(X[head], Xm)
        assert np.array_equal(gaps[head], gaps_m)
        assert np.array_equal(drawn[head], drawn_m)
        assert np.array_equal(dists[head], ref.dist_batch(Xm))
        # the level is finite and the pull rounds moved some rows
        assert not np.array_equal(Xm, small[drawn_m])


def test_estimate_gamma_composite(robust7, robust7_run):
    ref = pb.compute_reference(robust7, x0=robust7_run.final_x, tol=1e-12,
                               inner_tol=1e-13)
    lb = robust7.L * robust7.beta
    counts = {}
    g = pb.estimate_gamma(robust7, ref, float("inf"), 1.0 / lb,
                          n_samples=150, seed=8, counts=counts)
    assert np.isfinite(g) and g > 0
    # nu = inf accepts every sample
    assert counts["gamma_samples"] == 150 and counts["gamma_dual_iters"] > 150
    assert 0 < counts["gamma_newton_steps"] < counts["gamma_dual_iters"]


def test_composite_batches_match_per_sample_loop(robust7, monkeypatch):
    rng = np.random.default_rng(12)
    X = 2.0 + rng.uniform(-3.0, 3.0, size=(130, 10))
    t = 1.0 / (robust7.L * robust7.beta)
    phis = D._phi_batch(robust7, X)
    gnorms, iters = D._gnorm_batch(robust7, X, t, 1e-11)
    want_phi = np.array([robust7.phi(x) for x in X])
    want_g = np.array([
        np.linalg.norm((x - pb.solve_subproblem(robust7, x, t, 1e-11)) / t)
        for x in X])
    assert np.all(np.abs(phis - want_phi) <= 1e-12 * np.abs(want_phi))
    assert np.all(np.abs(gnorms - want_g) <= 1e-12 * want_g)
    # rows are independent: one row per block gives the same bits
    monkeypatch.setattr(D, "ROW_BLOCK", 1)
    assert np.array_equal(D._phi_batch(robust7, X), phis)
    g1, iters1 = D._gnorm_batch(robust7, X, t, 1e-11)
    assert np.array_equal(g1, gnorms) and iters1 == iters


def test_prox_bound_composite_unsupported(robust7):
    # the prox_{t phi} oracle needs convex f + g, so a composite constants
    # report measures no L-hat
    ref = pb.ReferenceSolution.computed(np.zeros(10), 0.0, 0.0)
    rep = pb.estimate_constants(robust7, ref, float("inf"), 0.1,
                                n_samples=40, seed=0)
    assert rep.gamma_hat > 0.0 and rep.extras["gamma_samples"] == 40
    assert "L_hat_prox" not in rep.extras and "prox_samples" not in rep.extras
    with pytest.raises(pb.UnsupportedOperation):
        pb.verify_sandwich(robust7, 0.1, np.zeros((1, 10)))


# ---------------------------------------------------------------------------
# stacked dist(0, d phi) against the one-point-at-a-time loop
# ---------------------------------------------------------------------------

ADDITIVE_G = dict({name: p for name, (p, _) in ALL_PENALTIES.items()},
                  halfbox=pb.BoxIndicator([0.0] * 3 + [-np.inf] * 3, np.inf))
# every kink of the catalog penalties above: 0, the vapnik +-eps, the box ends
KINKS = np.array([0.0, 0.4, -0.4, -1.2, 0.9])


def kinked_points(g, rows, seed, dim=6):
    """Random points with a third of their coordinates on a kink, pulled
    into the box for box penalties (so some sit exactly on its ends)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(rows, dim))
    snap = rng.random((rows, dim)) < 1.0 / 3.0
    X[snap] = rng.choice(KINKS, size=int(np.sum(snap)))
    if isinstance(g, pb.BoxIndicator):
        X = np.minimum(np.maximum(X, g._lo), g._hi)
    return X


@pytest.mark.parametrize("gname", sorted(ADDITIVE_G))
def test_dist_additive_batch_matches_serial(gname):
    g = ADDITIVE_G[gname]
    A, b = pb.random_least_squares(9, 6, 3)
    prob = pb.AdditiveProblem(f=pb.Quadratic(A, b), g=g)
    X = kinked_points(g, 300, seed=len(gname))
    counts = {}
    got = pb.dist_to_stationarity(prob, X, counts=counts)
    want = np.array([serialref.dist_to_stationarity(prob, x)[0] for x in X])
    assert got.shape == (300,) and counts == {"boxqp_iters": 0,
                                         "boxqp_capped": 0}
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    # a lone point still gives a float, a (2, 150, n) stack a (2, 150) array
    assert pb.dist_to_stationarity(prob, X[7]) == want[7]
    assert np.array_equal(
        pb.dist_to_stationarity(prob, X.reshape(2, 150, 6)).ravel(), got)


def vapnik_box_problem():
    c = pb.random_quadratic_map(20, 10, 7, 0.3)
    return pb.CompositeProblem(g=pb.BoxIndicator(-1.0, 2.5),
                               h=pb.EpsilonInsensitive(1.0, 0.1), c=c)


def composite_points(rows, seed):
    rng = np.random.default_rng(seed)
    return np.clip(2.0 + rng.uniform(-4.0, 4.0, size=(rows, 10)), -1.0, 2.5)


def test_dist_counts_capped_rows(monkeypatch):
    # a QP cut short by the cap is counted instead of passing silently; a
    # row that converges on the capping iteration itself is not capped
    prob = vapnik_box_problem()
    X = composite_points(70, seed=21)
    full = [serialref.dist_to_stationarity(prob, x)[1] for x in X]
    monkeypatch.setattr(D, "BOXQP_CAP", 50)
    counts = {}
    pb.dist_to_stationarity(prob, X, counts=counts)
    assert counts["boxqp_capped"] == sum(it > 50 for it in full) > 0
    assert counts["boxqp_iters"] == sum(min(it, 50) for it in full)


# the vapnik/box QPs take up to ~1300 iterations, so fewer rows there
@pytest.mark.parametrize("which,rows", [("robust7", 300), ("vapnik_box", 70)])
def test_dist_composite_batch_matches_serial_bitwise(which, rows, robust7,
                                                     monkeypatch):
    prob = robust7 if which == "robust7" else vapnik_box_problem()
    X = composite_points(rows, seed=21)
    counts = {}
    got = pb.dist_to_stationarity(prob, X, counts=counts)
    ref = [serialref.dist_to_stationarity(prob, x) for x in X]
    assert np.array_equal(got, np.array([r[0] for r in ref]))
    assert counts["boxqp_iters"] == sum(r[1] for r in ref)
    assert counts["boxqp_capped"] == 0
    # rows are independent: one row per block gives the same bits
    monkeypatch.setattr(D, "ROW_BLOCK", 1)
    counts1 = {}
    assert np.array_equal(pb.dist_to_stationarity(prob, X, counts=counts1),
                          got)
    assert counts1 == counts


def test_stacked_operator_norm_is_exact(robust7):
    _, J = robust7.c.eval_jac_batch(composite_points(300, seed=4))
    got = operator_norm_sq(J)
    want = np.linalg.svd(J, compute_uv=False)[..., 0] ** 2
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    # each row of a stack is bit for bit a lone call
    assert np.array_equal(got, [operator_norm_sq(Jb) for Jb in J])
    J[3] = 0.0
    got = operator_norm_sq(J)
    assert got[3] == 0.0 and operator_norm_sq(J[3]) == 0.0


def test_dist_row_outside_dom_g_raises():
    A, b = pb.random_least_squares(9, 6, 3)
    prob = pb.AdditiveProblem(f=pb.Quadratic(A, b),
                              g=pb.BoxIndicator(-1.2, 0.9))
    X = kinked_points(prob.g, 200, seed=5)
    X[170, 2] = 1.0
    with pytest.raises(pb.DomainError):
        pb.dist_to_stationarity(prob, X)
    X = composite_points(200, seed=6)
    X[150, 0] = 2.6
    with pytest.raises(pb.DomainError):
        pb.dist_to_stationarity(vapnik_box_problem(), X)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dist_non_finite_row_raises(bad, lasso42, robust7):
    for prob in (lasso42, robust7):
        X = np.zeros((200, 10))
        X[140, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pb.dist_to_stationarity(prob, X)
        with pytest.raises(ValueError, match="non-finite"):
            pb.dist_to_stationarity(prob, X[140])


def test_estimate_subdiff_bound_counts(robust7, robust7_run):
    ref = pb.ReferenceSolution.computed(robust7_run.final_x,
                                        robust7.phi(robust7_run.final_x), 0.0)
    counts = {}
    L = pb.estimate_subdiff_bound(robust7, ref, float("inf"), n_samples=300,
                                  seed=2, counts=counts)
    assert np.isfinite(L) and L > 0
    # nu = inf accepts every sample; each QP takes at least one iteration
    assert counts["subdiff_samples"] == 300
    assert counts["subdiff_boxqp_iters"] >= 300
    assert counts["subdiff_boxqp_capped"] == 0
