import sys
import tracemalloc

import numpy as np
import pytest

import proxbound as pb
import serialref
from conftest import ALL_PENALTIES
from proxbound import _kernels as K
from proxbound import diagnostics as D
from proxbound.proxlinear import _solve_subproblem_batch
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


# one input per relation at which that relation alone fails (t = 0.5,
# beta = 1, the default tol = 1e-3): the gamma bound (2/alpha + t)(1 + beta t)
# is 2.25 at alpha = 2, L-hat's bound L + t is 1.5 at L = 1, L's bound
# 2/alpha is 1 at alpha = 2, and alpha = 2 needs gamma >= 0.4995
RELATION_WITNESSES = {
    "gamma_vs_alpha": (dict(alpha=2.0, gamma=3.0, L=1.0, L_hat=1.25),
                       2.25 * 1.001 - 3.0),
    "prox_vs_subdiff": (dict(alpha=2.0, gamma=2.0, L=1.0, L_hat=2.0),
                        1.5 * 1.001 - 2.0),
    "subdiff_vs_alpha": (dict(alpha=2.0, gamma=2.0, L=1.5, L_hat=1.25),
                         1.0 * 1.001 - 1.5),
    "alpha_vs_gamma": (dict(alpha=2.0, gamma=0.25, L=1.0, L_hat=1.25),
                       2.0 - 0.999 / 0.25),
}


@pytest.mark.parametrize("name", sorted(RELATION_WITNESSES))
def test_verify_constant_relations_fails_each_relation(name):
    inputs, want = RELATION_WITNESSES[name]
    checks = pb.verify_constant_relations(**inputs, t=0.5, beta=1.0)
    ok, slack = checks[name]
    assert not ok and slack < 0.0
    assert slack == pytest.approx(want, rel=1e-12)
    assert all(passed for other, (passed, _) in checks.items()
               if other != name)
    text = pb.ConstantsReport(alpha_hat=inputs["alpha"],
                              gamma_hat=inputs["gamma"], L_hat_sub=inputs["L"],
                              nu=1.0, sample_count=1, checks=checks).to_text()
    lines = [ln for ln in text.splitlines() if ln.startswith("check_")]
    assert f"check_{name}=fail slack={slack:.17g}" in lines
    assert sum("=fail " in ln for ln in lines) == 1


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
    # a tail that does not decrease is fitted, not skipped: a growing one
    # gives a rate above 1, on which the CLI's tail_rate check FAILs, and a
    # flat one a rate of 1 to roundoff
    gaps = 1.1 ** np.arange(40)
    rate = pb.fit_tail_rate(phi_trace(gaps + 7.0), 7.0, 0.5)
    assert rate == pytest.approx(1.1, abs=1e-9)
    flat = pb.fit_tail_rate(phi_trace(np.full(40, 7.5)), 7.0, 0.5)
    assert flat == pytest.approx(1.0, abs=1e-12)


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
    # the pool counts its pull rounds; an additive run evaluates no map
    assert "pool_shrink_rounds=" in text and "map_eval_rows" not in text
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


def lasso_rays(lasso42, lasso42_ref, seed):
    """(level gap0, step 1/beta, ray rows, their gaps) on lasso42."""
    nu = lasso42.phi(np.zeros(10)) - lasso42_ref.phi_star
    t = 1.0 / lasso42.f.beta
    return (nu, t) + D._refine_extremal_rays(lasso42, lasso42_ref, nu, t,
                                             seed, 1e-10)


def test_ray_rows_keep_the_gaps_phi_gives_them(lasso42, lasso42_ref):
    _, _, rays, gaps = lasso_rays(lasso42, lasso42_ref, 42)
    assert rays.shape == (gaps.size, 10) and gaps.size > 1000
    assert np.array_equal(gaps,
                          D._phi_batch(lasso42, rays) - lasso42_ref.phi_star)


def test_pool_accepts_each_ray_row_once(lasso42, lasso42_ref, monkeypatch):
    # the pool evaluates f at the box draw and at its pulls only, the
    # rows a lone acceptance of the box draw evaluates, and appends the
    # ray rows with the gaps their search measured
    nu, _, rays, ray_gaps = lasso_rays(lasso42, lasso42_ref, 3)
    rows = []
    residual = lasso42.f._residual

    def counted(X):
        rows.append(X.shape[0])
        return residual(X)

    monkeypatch.setattr(lasso42.f, "_residual", counted)
    counts = {}
    X, gaps, dists, drawn = D._sample_pool(lasso42, lasso42_ref, nu, 4000, 3,
                                           (rays, ray_gaps), counts)
    pool_rows = sum(rows)
    rows.clear()
    box = D.sample_box(lasso42_ref, 10, 4000, 3)
    Xb, gaps_b, drawn_b = D._accepted(lasso42, lasso42_ref, nu, box)
    assert counts["shrink_rounds"] > 0
    assert pool_rows == sum(rows) < 4000 + len(rays)
    k = len(Xb)
    assert np.array_equal(X, np.vstack([Xb, rays]))
    assert np.array_equal(gaps, np.concatenate([gaps_b, ray_gaps]))
    assert np.array_equal(drawn[:k], drawn_b)
    assert np.array_equal(drawn[k:], 4000 + np.arange(len(rays)))
    assert np.array_equal(dists, lasso42_ref.dist_batch(X))


@pytest.mark.parametrize("which", ["lasso42", "logistic_elastic"])
def test_additive_blocks_match_lone_points(which, lasso42):
    # phi and |x - prox_{tg}(x - t grad f(x))|/t over 3 blocks and 7 rows
    # agree with the lone-point formulas; their bits may differ, since a
    # row's gradient bits depend on the rows in its matrix product
    rng = np.random.default_rng(30)
    prob = lasso42
    if which == "logistic_elastic":
        A = rng.standard_normal((15, 10))
        prob = pb.AdditiveProblem(f=pb.Logistic(A, np.sign(A[:, 0])),
                                  g=pb.ElasticNet(0.1, 0.2))
    X = rng.uniform(-3.0, 3.0, size=(3 * D.GAMMA_ROWS + 7, 10))
    t = 1.0 / prob.f.beta
    gnorms, work = D._gnorm_batch(prob, X, t, 1e-10)
    want = np.array([np.linalg.norm(x - prob.g.prox(x - t * prob.f.grad(x),
                                                    t)) / t for x in X])
    assert work == {"dual_iters": 0}
    assert np.all(np.abs(gnorms - want) <= 1e-13 * want)
    phis = D._phi_batch(prob, X)
    want = np.array([prob.phi(x) for x in X])
    assert np.all(np.abs(phis - want) <= 1e-13 * want)


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
    gnorms, _ = D._gnorm_batch(robust7, X, t, 1e-11)
    want_phi = np.array([robust7.phi(x) for x in X])
    want_g = np.array([
        np.linalg.norm((x - pb.solve_subproblem(robust7, x, t, 1e-11)) / t)
        for x in X])
    assert np.all(np.abs(phis - want_phi) <= 1e-12 * np.abs(want_phi))
    assert np.all(np.abs(gnorms - want_g) <= 1e-12 * want_g)
    # rows are independent: one row per block gives the same bits
    monkeypatch.setattr(D, "ROW_BLOCK", 1)
    assert np.array_equal(D._phi_batch(robust7, X), phis)


def ascent_recorder(monkeypatch):
    """Patch the dual ascent with one that keeps the row count and the
    per-row iterations of every call."""
    calls = []
    ascent = K.dual_ascent

    def record(*args, **kwargs):
        out = ascent(*args, **kwargs)
        calls.append((args[2].shape[0], out[4]))
        return out

    monkeypatch.setattr(K, "dual_ascent", record)
    return calls


@pytest.mark.parametrize("which", ["robust7", "vapnik_box"])
def test_gamma_set_is_one_stacked_solve(which, robust7, monkeypatch):
    # the l1 h with a zero g, and the vapnik h (an l1 dual term) with a box
    # g (a nonzero prox): one call for the whole set, with the bits and the
    # work of one call per row
    prob = robust7 if which == "robust7" else vapnik_box_problem()
    X = composite_points(300, seed=5)
    t = 1.0 / (prob.L * prob.beta)
    calls = ascent_recorder(monkeypatch)
    gnorms, work = D._gnorm_batch(prob, X, t, 1e-11)
    assert len(calls) == 1 and calls[0][0] == 300
    iters = calls[0][1]
    assert sorted(work) == ["dual_iters", "dual_sweeps", "newton_steps"]
    assert work["dual_iters"] == int(np.sum(iters))
    assert work["dual_sweeps"] == int(np.max(iters))
    assert 0 < work["newton_steps"] < work["dual_iters"]
    calls.clear()
    monkeypatch.setattr(D, "GAMMA_ROWS", 1)
    g1, work1 = D._gnorm_batch(prob, X, t, 1e-11)
    assert len(calls) == 300
    assert np.array_equal(g1, gnorms)
    assert np.array_equal([c[1][0] for c in calls], iters)
    assert work1 == dict(work, dual_sweeps=work["dual_iters"])


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a caller's stack keeps its "
                    "call arguments alive until the call returns, so the "
                    "solve cannot hand J over to the kernel")
def test_gamma_set_memory_budget(robust7):
    # the 500-row stack's peak is at a compaction of the ascent's rows,
    # which copies every row array; 3.23 MB with the solve handing the
    # kernel its only reference to J, against 4.04 MB when the caller
    # keeps the full (500, 20, 10) stack (0.8 MB) alive through the
    # compactions (one 128-row block peaks at 1.07 MB)
    X = composite_points(500, seed=21)
    t = 1.0 / (robust7.L * robust7.beta)
    D._gnorm_batch(robust7, X[:5], t, 1e-11)
    tracemalloc.start()
    try:
        D._gnorm_batch(robust7, X, t, 1e-11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6e6


@pytest.mark.parametrize("which", ["robust7", "vapnik_box"])
def test_given_maps_give_the_self_evaluated_bits(which, robust7,
                                                 monkeypatch):
    # L and gamma take c(x) and J(x) from the pool: given them, the QP and
    # the subproblem solve must return what they return when they evaluate
    # the map themselves, on robust7's point boxes and on the vapnik h
    # with a box g, where rows on a box end have a free coordinate
    prob = robust7 if which == "robust7" else vapnik_box_problem()
    X = composite_points(200, seed=13)
    X[::2] = np.clip(X[::2], -0.9, 2.4)
    C, J = prob.c.eval_jac_batch(X)
    glo, ghi = prob.g.subgrad_bounds(X)
    free = np.any(glo < ghi, axis=1)
    assert not free[::2].any() and free.any() == (which == "vapnik_box")
    want = D._dist_block(prob, X[:128])
    got = D._dist_block(prob, X[:128], (C[:128].copy(), J[:128].copy()))
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    counts, counts_cj = {}, {}
    want = pb.dist_to_stationarity(prob, X, counts=counts)
    got = pb.dist_to_stationarity(prob, X, counts=counts_cj,
                                  cj=(C.copy(), J.copy()))
    assert np.array_equal(got, want) and counts_cj == counts
    t = 1.0 / (prob.L * prob.beta)
    want = _solve_subproblem_batch(prob, X, t, 1e-11)
    holder = [(C.copy(), J.copy())]
    got = _solve_subproblem_batch(prob, X, t, 1e-11, cj=holder)
    assert holder == []
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert got[3] == want[3]
    # the gamma set split into blocks hands each solve its rows' maps
    monkeypatch.setattr(D, "GAMMA_ROWS", 64)
    want = D._gnorm_batch(prob, X, t, 1e-11)
    holder = [(C.copy(), J.copy())]
    got = D._gnorm_batch(prob, X, t, 1e-11, holder)
    assert holder == [] and np.array_equal(got[0], want[0])
    assert got[1] == want[1]


def box_affine_problem():
    """A 2-D affine map, the vapnik h and a box g: with nu = inf the rows
    of the sampling box outside the box g have phi = inf and are
    dropped from the pool."""
    rng = np.random.default_rng(2)
    c = pb.AffineMap(rng.standard_normal((5, 2)), rng.standard_normal(5))
    return pb.CompositeProblem(g=pb.BoxIndicator(-1.5, 1.5),
                               h=pb.EpsilonInsensitive(1.0, 0.1), c=c)


@pytest.mark.parametrize("which,n", [
    ("robust7", 500), ("robust7", 2300), ("box_affine", 500)])
def test_constants_match_the_lone_estimators(which, n, robust7, robust7_ref):
    # the bundle takes L's and gamma's maps from the pool, where pull
    # rounds wrote them in place (robust7 at nu = gap0); the lone
    # estimators evaluate their own. 2300 rows draw more than the 2000
    # whose maps the pool keeps, and the box case (nu = inf) drops most of
    # its draw
    if which == "robust7":
        prob, ref = robust7, robust7_ref
        nu = prob.phi(np.full(10, 2.0)) - ref.phi_star
        t = 1.0 / (prob.L * prob.beta)
    else:
        prob = box_affine_problem()
        ref = pb.compute_reference(prob, x0=np.zeros(2), tol=1e-12,
                                   inner_tol=1e-13)
        nu, t = float("inf"), 0.5
    rep = pb.estimate_constants(prob, ref, nu, t, n_samples=n, seed=3)
    counts = {}
    gamma = pb.estimate_gamma(prob, ref, nu, t, n_samples=min(n, 500),
                              seed=3, counts=counts)
    L = pb.estimate_subdiff_bound(prob, ref, nu, n_samples=min(n, 2000),
                                  seed=3, counts=counts)
    assert rep.gamma_hat == gamma and rep.L_hat_sub == L
    assert {key: rep.extras[key] for key in counts} == counts
    if which == "robust7":
        assert rep.extras["pool_shrink_rounds"] > 0
    else:
        assert 10 <= rep.extras["subdiff_samples"] < n // 4


def test_l_and_gamma_evaluate_no_map(robust7, robust7_ref, monkeypatch):
    # every row at which a constants run evaluates c and J is a pool row:
    # map_eval_rows counts them, and L and gamma add none
    rows = []
    evaluate = type(robust7.c).eval_jac_batch

    def counted(self, X):
        rows.append(len(X))
        return evaluate(self, X)

    pool_rows = []
    sample_pool = D._sample_pool

    def pool(*args, **kwargs):
        out = sample_pool(*args, **kwargs)
        pool_rows.append(sum(rows))
        return out

    nu = robust7.phi(np.full(10, 2.0)) - robust7_ref.phi_star
    t = 1.0 / (robust7.L * robust7.beta)
    monkeypatch.setattr(type(robust7.c), "eval_jac_batch", counted)
    monkeypatch.setattr(D, "_sample_pool", pool)
    rep = pb.estimate_constants(robust7, robust7_ref, nu, t, n_samples=2000,
                                seed=0)
    assert rep.extras["pool_shrink_rounds"] > 0
    # the draw plus the rows re-evaluated after each pull
    assert [rep.extras["map_eval_rows"]] == pool_rows == [sum(rows)]
    assert sum(rows) > 2000
    assert rep.extras["subdiff_samples"] == 2000
    assert rep.extras["gamma_samples"] == 500


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a caller's stack keeps its "
                    "call arguments alive until the call returns, so the "
                    "solve cannot hand J over to the kernel")
def test_constants_memory_budget(robust7, robust7_ref, monkeypatch):
    # the pool keeps (2000, 20) values and (2000, 20, 10) Jacobians (3.5
    # MB) until L is done; the whole call peaks at 4.79 MB, and at 7.0-7.3
    # MB with a second copy of the stacks. gamma's solve gets the only
    # reference to its copy of the 500-row head: its phase peaks at
    # 3.52 MB, and at 4.32 MB when a caller keeps the copy alive
    nu = robust7.phi(np.full(10, 2.0)) - robust7_ref.phi_star
    t = 1.0 / (robust7.L * robust7.beta)
    pb.estimate_constants(robust7, robust7_ref, nu, t, n_samples=40, seed=1)
    peaks = []
    gamma_max = D._gamma_max

    def gamma_phase(*args):
        # the peak so far, then the peak of the gamma phase alone
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        out = gamma_max(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(D, "_gamma_max", gamma_phase)
    tracemalloc.start()
    try:
        pb.estimate_constants(robust7, robust7_ref, nu, t, n_samples=2000,
                              seed=1)
    finally:
        tracemalloc.stop()
    assert max(peaks) < 5.3e6
    assert peaks[1] < 3.9e6


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a caller's stack keeps its "
                    "call arguments alive until the call returns")
def test_additive_constants_memory_budget(lasso42, lasso42_ref):
    # the lasso pool holds 22,876 rows (1.8 MB); the whole call peaks at
    # 5.43 MB with phi and |G_t| taken in 512-row blocks, the ray rows
    # appended to the accepted box rows and freed once pooled, against
    # 11.14 MB when the pool's phi and |G_t| run in one product each over
    # the box draw with the ray rows stacked under it
    nu = lasso42.phi(np.zeros(10)) - lasso42_ref.phi_star
    t = 1.0 / lasso42.f.beta
    tracemalloc.start()
    try:
        rep = pb.estimate_constants(lasso42, lasso42_ref, nu, t,
                                    n_samples=10000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.extras["gamma_samples"] > 20000
    assert peak < 7.0e6


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
                  halfbox=pb.BoxIndicator(0.0, np.inf))
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
        X = np.minimum(np.maximum(X, g.lo), g.hi)
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


def norm_recorder(monkeypatch):
    """Patch the operator_norm_sq that dist(0, d phi) calls with one that
    keeps every stack it is given."""
    seen = []

    def record(J):
        seen.append(np.array(J))
        return operator_norm_sq(J)

    monkeypatch.setattr(D, "operator_norm_sq", record)
    return seen


def test_only_rows_with_a_free_coordinate_take_a_norm(robust7, monkeypatch):
    seen = norm_recorder(monkeypatch)
    # robust7: zero g and the l1 h at c(x) != 0, so every box is one point
    X = composite_points(300, seed=21)
    assert np.all(robust7.c.eval_jac_batch(X)[0] != 0.0)
    got = pb.dist_to_stationarity(robust7, X)
    assert seen == []
    assert np.array_equal(
        got, [serialref.dist_to_stationarity(robust7, x)[0] for x in X])
    # vapnik/box: a coordinate on a box end is free, an interior one (an
    # exact 0 too) is not; no c_i sits on the +-0.1 kink of h
    prob = vapnik_box_problem()
    rng = np.random.default_rng(9)
    X = rng.uniform(-0.9, 2.4, size=(150, 10))
    X[rng.random((150, 10)) < 0.1] = 0.0
    ends = rng.random((150, 10)) < 0.02
    X[ends] = rng.choice([-1.0, 2.5], size=int(np.sum(ends)))
    C, J = prob.c.eval_jac_batch(X)
    assert np.all(np.abs(np.abs(C) - 0.1) > 0.0)
    free = np.any((X == -1.0) | (X == 2.5), axis=1)
    assert 0 < np.sum(free) < 150 and np.any(X[~free] == 0.0)
    counts = {}
    got = pb.dist_to_stationarity(prob, X, counts=counts)
    # one call per 128-row block, with exactly that block's free rows
    assert len(seen) == 2
    assert np.array_equal(np.concatenate(seen), J[free])
    # the point-box rows retire at iteration 1
    ref = [serialref.dist_to_stationarity(prob, x) for x in X]
    assert np.array_equal(got, [r[0] for r in ref])
    assert counts["boxqp_iters"] == sum(r[1] for r in ref)
    assert all(ref[i][1] == 1 for i in np.flatnonzero(~free))
    # the w side: c(x) = (x, R x) puts c_j on the l1 kink of h exactly
    # where x_j = 0, and the zero g leaves every v box a point
    seen.clear()
    R = np.random.default_rng(3).standard_normal((5, 10))
    prob = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0),
                               c=pb.AffineMap(np.vstack([np.eye(10), R])))
    X = rng.uniform(-2.0, 2.0, size=(100, 10))
    X[rng.random((100, 10)) < 0.03] = 0.0
    free = np.any(X == 0.0, axis=1)
    assert 0 < np.sum(free) < 100 and np.all(X @ R.T != 0.0)
    got = pb.dist_to_stationarity(prob, X)
    assert len(seen) == 1
    assert np.array_equal(seen[0], prob.c.eval_jac_batch(X)[1][free])
    assert np.array_equal(
        got, [serialref.dist_to_stationarity(prob, x)[0] for x in X])


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


def test_dist_overflowing_c_raises_before_any_step(robust7, monkeypatch):
    # a finite row whose c(x) overflows is refused by h's subgradient
    # bounds, before any norm is taken or any QP step is made
    seen = norm_recorder(monkeypatch)
    monkeypatch.setattr(D.K, "minnorm_boxqp", None)
    X = np.zeros((100, 10))
    X[40] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            pb.dist_to_stationarity(robust7, X)
    assert seen == []


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
