import warnings

import numpy as np
import pytest

import proxbound as pb
import serialref
from conftest import counted_prox_maps
from proxbound import diagnostics as D


def vec(*vals):
    return np.array(vals, dtype=float)


def shifted_quadratic(center):
    # f(x) = (x - center)^2 / 2 in 1-D
    return pb.Quadratic(np.eye(1), vec(center))


def prox_grad_map(problem, x, t):
    """G_t(x) = (x - x_1)/t, x_1 the solver's first step from x, and the
    |G_t(x)| the solver records for it."""
    tr = pb.run_prox_gradient(problem, x, pb.ProxGradConfig(t=t, max_iter=1))
    return (x - tr.iterates[-1]) / t, tr.data["gnorm"][0]


def test_map_reduces_to_gradient_when_penalty_zero():
    p = pb.AdditiveProblem(f=pb.Quadratic(np.eye(1), vec(0.0)), g=pb.Zero())
    G, gnorm = prox_grad_map(p, vec(3.0), 1.0)
    assert G == pytest.approx([3.0]) and gnorm == pytest.approx(3.0)


def test_map_zero_at_stationary_point():
    p = pb.AdditiveProblem(f=pb.Corridor(dim=1), g=pb.Zero())
    G, gnorm = prox_grad_map(p, vec(0.5), 0.31)
    assert G == pytest.approx([0.0]) and gnorm == pytest.approx(0.0)


def test_map_lasso_1d_example():
    p = pb.AdditiveProblem(f=shifted_quadratic(2.0), g=pb.AbsValue(1.0))
    G, gnorm = prox_grad_map(p, vec(0.0), 1.0)
    assert G == pytest.approx([-1.0]) and gnorm == pytest.approx(1.0)


def test_map_outside_domain_raises():
    # not a Converged run at phi = inf
    p = pb.AdditiveProblem(f=shifted_quadratic(0.0), g=pb.BoxIndicator(0.0, 1.0))
    with pytest.raises(pb.DomainError, match="^x0 lies outside dom g$"):
        pb.run_prox_gradient(p, vec(2.0), pb.ProxGradConfig(t=1.0))


def test_proximal_point_rejects_x0_outside_dom_g(lasso42):
    # a lasso start outside a box is refused at the start, not run at phi = inf
    p = pb.AdditiveProblem(f=lasso42.f, g=pb.BoxIndicator(-0.2, 0.2))
    with pytest.raises(pb.DomainError, match="^x0 lies outside dom g$"):
        pb.run_prox_gradient(p, np.full(10, 5.0))


def test_corridor_converges_in_one_step(corridor10):
    tr = pb.run_prox_gradient(corridor10, np.full(10, 3.0),
                              pb.ProxGradConfig(t=0.5, eps=1e-12))
    assert tr.status == "Converged"
    assert tr.iterations == 1
    assert np.all(np.abs(tr.final_x) <= 1.0)


def test_stationary_start_returns_immediately(corridor10):
    tr = pb.run_prox_gradient(corridor10, np.zeros(10), pb.ProxGradConfig(t=0.5))
    assert tr.status == "Converged" and tr.iterations == 0


def test_step_clamped_without_a_warning(corridor10):
    # a t above 1/beta = 0.5 is clamped to it silently: the run is the one
    # with t unset
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = pb.run_prox_gradient(corridor10, np.full(10, 3.0),
                                  pb.ProxGradConfig(t=5.0, max_iter=10))
    assert tr.meta["t"] == 0.5
    unset = pb.run_prox_gradient(corridor10, np.full(10, 3.0),
                                 pb.ProxGradConfig(max_iter=10))
    assert tr.to_csv() == unset.to_csv()


def test_lasso_run_contracts(lasso42, lasso42_run, lasso42_ref):
    tr = lasso42_run
    assert tr.status == "Converged"
    phis = tr.column("phi")
    scale = 1 + np.abs(phis).max()
    assert np.all(phis[:-1] - phis[1:] >= -1e-12 * scale)
    assert np.all(tr.column("descent_residual")[:-1] >= -1e-10 * scale)
    # fixed point characterization at the reference
    _, g_at_ref = prox_grad_map(lasso42, lasso42_ref.x_star,
                                1.0 / lasso42.f.beta)
    assert g_at_ref <= 1e-8


def test_lasso_geometric_decrease(lasso42, lasso42_run, lasso42_ref):
    # convex-case per-iteration contraction with measured gamma_k
    tr = lasso42_run
    phis = tr.column("phi")
    gnorms = tr.column("gnorm")
    gaps = phis - lasso42_ref.phi_star
    for k in range(len(phis) - 1):
        if gaps[k] <= 1e-12 or gnorms[k] <= 1e-12:
            continue
        gamma_k = np.linalg.norm(lasso42_ref.x_star - tr.iterates[k]) / gnorms[k]
        bound = (1.0 - 1.0 / (2.0 * lasso42.f.beta * gamma_k)) * gaps[k]
        assert gaps[k + 1] <= bound + 1e-10


def test_easy_bound_gnorm_below_stationarity_dist(lasso42):
    rng = np.random.default_rng(20)
    t = 1.0 / lasso42.f.beta
    X = rng.uniform(-2, 2, size=(100, 10))
    # |G_t| at every row, as the gamma estimator takes it
    g, _ = D._gnorm_batch(lasso42, X, t, 1e-10)
    assert np.all(g <= pb.dist_to_stationarity(lasso42, X) + 1e-10)


def test_improved_certificate_nonconvex(corridor_affine):
    # dist(0, subdiff at the next iterate) <= (1 + beta t)|G_t| even with
    # the convexity flag off
    prob = corridor_affine
    t = 1.0 / prob.f.beta
    tr = pb.run_prox_gradient(prob, np.full(8, 2.0),
                              pb.ProxGradConfig(eps=1e-9, max_iter=5000))
    gnorms = tr.column("gnorm")
    for k in range(len(tr.iterates) - 1):
        d = pb.dist_to_stationarity(prob, tr.iterates[k + 1])
        assert d <= (1.0 + prob.f.beta * t) * gnorms[k] + 1e-8


def prox_point(problem, x, t):
    """prox_{t phi}(x) from the oracle behind L-hat and the sandwich."""
    return pb.proxgrad._prox_point_batch(problem, x[None, :], t, 1e-12)[0]


def test_prox_point_quadratic_shrinks():
    p = pb.AdditiveProblem(f=pb.Quadratic(np.eye(1), vec(0.0)), g=pb.Zero())
    y = prox_point(p, vec(4.0), 1.0)
    assert y == pytest.approx([2.0], abs=1e-9)


def test_prox_point_absolute_value_soft_threshold():
    # degenerate smooth part: phi is effectively |x|
    f = pb.Quadratic(np.zeros((1, 1)), vec(0.0))
    p = pb.AdditiveProblem(f=f, g=pb.AbsValue(1.0))
    y = prox_point(p, vec(2.0), 1.0)
    assert y == pytest.approx([1.0], abs=1e-9)


def test_prox_point_fixed_point_at_minimizer(lasso42, lasso42_ref):
    x = lasso42_ref.x_star
    assert np.linalg.norm(x - prox_point(lasso42, x, 0.7)) <= 1e-8


def test_prox_point_requires_convex(corridor_affine):
    # the sandwich's prox_{t phi} oracle needs convex f; the composite case
    # is test_diagnostics' test_prox_bound_composite_unsupported
    with pytest.raises(pb.UnsupportedOperation):
        pb.verify_sandwich(corridor_affine, 1.0, np.zeros((1, 8)))


def test_sandwich_property(lasso42, lasso42_ref):
    rng = np.random.default_rng(21)
    t = 0.5 / lasso42.f.beta
    pts = lasso42_ref.x_star + rng.uniform(-2, 2, size=(100, 10))
    rep = pb.verify_sandwich(lasso42, t, pts, inner_tol=1e-10)
    assert rep.min_lower_slack >= -1e-9
    assert rep.min_upper_slack >= -1e-9


def test_sandwich_degenerate_at_solution(lasso42, lasso42_ref):
    rep = pb.verify_sandwich(lasso42, 0.5 / lasso42.f.beta,
                             lasso42_ref.x_star[None, :], inner_tol=1e-10)
    assert rep.gnorms[0] <= 1e-8 and rep.prox_step_norms[0] <= 1e-8


def test_trace_csv_shape(lasso42_run):
    text = lasso42_run.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "k,phi,gnorm,descent_residual,certificate,elapsed_s"
    assert len(lines) == len(lasso42_run) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    # 17 significant digits survive a round-trip
    assert float(first[1]) == lasso42_run.column("phi")[0]


@pytest.mark.parametrize("header", [
    pb.proxgrad.PROXGRAD_HEADER, pb.proxlinear.PROXLINEAR_HEADER],
    ids=["proxgrad", "proxlinear"])
def test_trace_csv_matches_per_cell_formatter(lasso42_run, header):
    # every float column takes each special value
    floats = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, -1.5e308, 1.0 / 3]
    tr = pb.IterationTrace(header)
    for i, v in enumerate(floats):
        tr.append(**{name: i if name in ("k", "inner_iters", "inner_newton")
                     else v for name in header})
    for run in (tr, lasso42_run, pb.IterationTrace(header)):
        assert run.to_csv() == serialref.trace_csv(run)


def test_config_validation():
    with pytest.raises(ValueError):
        pb.ProxGradConfig(t=-1.0)
    with pytest.raises(ValueError):
        pb.ProxGradConfig(eps=0.0)


BLOCK = pb.proxgrad._BLOCK


def _smooth_case(name):
    A, b = pb.random_least_squares(20, 10, 42)
    if name == "quadratic":
        return pb.Quadratic(A, b)
    if name == "huberloss":
        return pb.HuberLoss(A, b, 0.5)
    if name == "corridor":
        return pb.Corridor(A=A, b=b)
    return pb.Logistic(A, np.where(b >= 0.0, 1.0, -1.0))


# one loss per residual form; the corridor's is the affine one
@pytest.mark.parametrize("smooth",
                         ["quadratic", "logistic", "huberloss", "corridor"])
def test_run_matches_validating_serial_loop(penalty_case, smooth):
    name, g, _ = penalty_case
    problem = pb.AdditiveProblem(f=_smooth_case(smooth), g=g)
    # inside every domain, the box's included; some runs stop at max_iter
    # (the logistic ones with the zero and check-function penalties), the
    # rest converge
    x0 = np.random.default_rng(5).uniform(-0.8, 0.8, 10)
    cfg = pb.ProxGradConfig(eps=1e-9, max_iter=400)
    tr = pb.run_prox_gradient(problem, x0, cfg)
    ref = serialref.prox_gradient(problem, x0, cfg)
    assert tr.status == ref.status
    assert tr.meta == ref.meta
    for col in tr.header:
        assert tr.data[col] == ref.data[col], col
    assert len(tr.iterates) == len(ref.iterates)
    for a, b in zip(tr.iterates, ref.iterates):
        assert np.array_equal(a, b)
    assert np.array_equal(tr.final_x, ref.final_x)


def test_one_smooth_evaluation_per_step(lasso42, monkeypatch):
    # f at x0 once, through value_batch, to test the start; then the
    # residual A x - b and the gradient once per step taken, and f from the
    # stored residuals in one call after the loop; the block stop test
    # takes 1 to BLOCK steps from the last row, the step leaving it included
    f = lasso42.f
    calls = dict.fromkeys(("_residual", "_grad_at", "_value_at",
                           "value_batch", "grad_batch"), 0)
    rows, starts = [], []
    for name in calls:
        def counted(X, method=getattr(f, name), name=name):
            calls[name] += 1
            if name == "_value_at":
                rows.append(len(X))
            if name == "value_batch":
                starts.append(X.copy())
            return method(X)
        monkeypatch.setattr(f, name, counted)
    x0 = np.full(10, 0.3)
    tr = pb.run_prox_gradient(lasso42, x0,
                              pb.ProxGradConfig(eps=1e-10, max_iter=50000))
    assert tr.status == "Converged" and tr.iterations > 100
    steps = calls["_grad_at"]
    assert tr.iterations + 1 <= steps <= tr.iterations + BLOCK
    assert calls == {"_residual": steps + 1, "_grad_at": steps,
                     "_value_at": 2, "value_batch": 1, "grad_batch": 0}
    assert rows == [1, len(tr)]
    assert len(starts) == 1 and np.array_equal(starts[0], x0[None])


def _overflowing(case):
    """(problem, x0, t) whose steps are far too long for the true f."""
    if case == "gnorm":
        # declared beta ~3e4 times below the true 32.9: |G_t| overflows first
        A, b = pb.random_least_squares(20, 10, 42)
        f = pb.Quadratic(A, b)
        f.beta = 0.001
        return pb.AdditiveProblem(f=f, g=pb.AbsValue(0.1)), np.zeros(10), 1e3
    # x_k = (1 - 1e6)^k: phi = x^2/2 overflows while |G_t| = |x_k| is finite
    f = shifted_quadratic(0.0)
    f.beta = 1e-6
    return pb.AdditiveProblem(f=f, g=pb.Zero()), vec(1.0), 1e6


@pytest.mark.parametrize("case,max_iter,iterations", [
    ("gnorm", 20000, 34), ("gnorm", 34, 34), ("phi", 20000, 25)],
    ids=["gnorm", "gnorm_at_max_iter", "phi"])
def test_overflowing_run_reports_diverged(case, max_iter, iterations):
    problem, x0, t = _overflowing(case)
    cfg = pb.ProxGradConfig(t=t, max_iter=max_iter)
    tr = pb.run_prox_gradient(problem, x0, cfg)
    assert tr.status == "Diverged"
    assert tr.iterations == iterations
    last = tr.iterates[-1]
    assert len(tr.iterates) == len(tr)
    assert np.all(np.isfinite(last))
    assert np.array_equal(tr.final_x, last)
    assert tr.column("descent_residual")[-1] == 0.0
    assert np.all(np.isfinite(tr.column("gnorm")[:-1]))
    assert np.isfinite(tr.column("gnorm")[-1]) == (case == "phi")
    with np.errstate(over="ignore"):
        assert tr.column("phi")[-1] == problem.phi(last)
        if max_iter > iterations:
            # the loop that re-validates x in every operation raises instead
            with pytest.raises(ValueError, match="non-finite"):
                serialref.prox_gradient(problem, x0, cfg)


def test_prox_point_batch_stops_on_a_nan_row(lasso42):
    X = np.zeros((3, 10))
    X[1, 4] = np.nan
    with pytest.raises(pb.InnerSolveError,
                       match="residual is nan at iteration 1$") as info:
        pb.proxgrad._prox_point_batch(lasso42, X, 0.1, 1e-10)
    assert info.value.iterations == 1


def _assert_same_trace(tr, ref):
    """tr and ref agree on status, every column, every iterate and
    final_x, bit for bit."""
    assert tr.status == ref.status
    assert tr.meta == ref.meta
    for col in tr.header:
        assert tr.data[col] == ref.data[col], col
    assert tr.iterates.shape == ref.iterates.shape == (len(tr), tr.final_x.size)
    assert np.array_equal(tr.iterates, ref.iterates)
    assert np.array_equal(tr.final_x, ref.final_x)


def _slow_huber():
    # huber-solve's pairing of a least-squares f and a huber envelope g; its
    # |G_t| falls strictly for hundreds of steps
    A, b = pb.random_least_squares(20, 10, 42)
    return pb.AdditiveProblem(f=pb.Quadratic(A, b),
                              g=pb.HuberEnvelope(0.05, 0.1))


# the stop test runs over blocks of 1, 2, 4, ..., BLOCK steps, rows [0, 1),
# [1, 3), [3, 7), ..., [63, 127), [127, 191), ..., and the iterate and
# residual arrays hold 64 rows, then 128, ...: each count puts the
# last row on, just before or just after the last row of a block, and
# 62-64 and 126-128 also at the ends of the arrays
BLOCK_STOPS = (0, 1, 2, 3, 6, 7, 8, 62, 63, 64, 126, 127, 128, 190, 191, 192)


@pytest.mark.parametrize("status,iterations", [
    (status, i) for status in ("MaxIter", "Converged") for i in BLOCK_STOPS
    if i or status == "Converged"])
def test_deferred_bookkeeping_matches_serial_loop_across_growth(iterations,
                                                                status):
    problem, x0 = _slow_huber(), np.zeros(10)
    if status == "MaxIter":
        cfgs = [pb.ProxGradConfig(eps=1e-300, max_iter=iterations)]
    else:
        # |G_t| is strictly decreasing here, so eps at its value on row
        # `iterations` stops the run exactly there, whether max_iter cuts
        # the block short or lies far past it
        probe = serialref.prox_gradient(
            problem, x0,
            pb.ProxGradConfig(eps=1e-300, max_iter=iterations + 1))
        eps = probe.data["gnorm"][iterations]
        cfgs = [pb.ProxGradConfig(eps=eps, max_iter=m)
                for m in (iterations + 1, 10000)]
    for cfg in cfgs:
        tr = pb.run_prox_gradient(problem, x0, cfg)
        assert tr.status == status and tr.iterations == iterations
        _assert_same_trace(tr, serialref.prox_gradient(problem, x0, cfg))


# x_k = (1 - 4 t)^k x0 = (-39)^k x0 and |G_t(x_k)| = 4 |x_k|, whose square
# overflows at |x_k| ~ 3.4e153, before phi = 2 x_k^2 does at ~9.5e153:
# x0 puts the first non-finite |G_t| on `row`, the last row of a block
# (6, 62, 190) or one inside it (4, 45, 150)
@pytest.mark.parametrize("row", [4, 6, 45, 62, 150, 190])
def test_non_finite_gnorm_ends_the_run_on_its_row(row):
    f = pb.Quadratic(np.array([[2.0]]), vec(0.0))
    f.beta = 0.1
    problem = pb.AdditiveProblem(f=f, g=pb.Zero())
    x0 = vec(5e153 / 39.0 ** row)
    # the validating loop has no non-finite |G_t| rule: stopped by max_iter
    # on that row it ends MaxIter, every column the same
    with np.errstate(over="ignore", invalid="ignore"):
        ref = serialref.prox_gradient(
            problem, x0, pb.ProxGradConfig(t=10.0, max_iter=row, eps=1e-300))
    assert ref.status == "MaxIter"
    ref.status = "Diverged"
    for max_iter in (row, 20000):
        cfg = pb.ProxGradConfig(t=10.0, max_iter=max_iter, eps=1e-300)
        tr = pb.run_prox_gradient(problem, x0, cfg)
        assert tr.status == "Diverged" and tr.iterations == row
        assert tr.data["gnorm"][-1] == np.inf
        assert np.all(np.isfinite(tr.column("phi")))
        _assert_same_trace(tr, ref)


def test_stationary_start_matches_serial_loop(corridor10):
    cfg = pb.ProxGradConfig(t=0.5)
    tr = pb.run_prox_gradient(corridor10, np.zeros(10), cfg)
    assert tr.status == "Converged" and tr.iterations == 0
    assert tr.column("descent_residual").tolist() == [0.0]
    _assert_same_trace(tr, serialref.prox_gradient(corridor10, np.zeros(10),
                                                   cfg))


def test_one_penalty_evaluation_after_the_loop(lasso42, monkeypatch):
    # g at x0 once, to test the start, then at every iterate, x0's
    # included, in one stacked call; x0's domain test reads the subgradient
    # formulas, not g's value
    args = []
    real = pb._kernels.penalty_value

    def counted(g, X):
        args.append(X.copy())
        return real(g, X)

    monkeypatch.setattr(pb._kernels, "penalty_value", counted)
    x0 = np.full(10, 0.3)
    tr = pb.run_prox_gradient(lasso42, x0,
                              pb.ProxGradConfig(eps=1e-10, max_iter=50000))
    assert tr.status == "Converged" and tr.iterations > 100
    assert [X.shape for X in args] == [(10,), (len(tr), 10)]
    assert np.array_equal(args[0], x0)
    assert np.array_equal(args[1], tr.iterates)


def test_fixed_step_loops_take_the_prox_map_once(lasso42, monkeypatch):
    # the recursion and the proximal point oracle hold their step fixed,
    # so each forms g's map once, however many steps it takes
    steps = counted_prox_maps(monkeypatch, pb.AbsValue)
    tr = pb.run_prox_gradient(lasso42, np.full(10, 0.3),
                              pb.ProxGradConfig(eps=1e-10, max_iter=50000))
    assert tr.status == "Converged" and tr.iterations > 100
    assert steps == [tr.meta["t"]]
    steps.clear()
    X = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 10))
    s = 1.0 / (lasso42.beta + 1.0 / 0.7)
    Y = pb.proxgrad._prox_point_batch(lasso42, X, 0.7, 1e-10)
    assert steps == [s]
    assert not np.array_equal(Y, X)


@pytest.mark.parametrize("cut", [0.5, 3.0, 4.8])
def test_g_only_overflow_cuts_the_trace_like_the_serial_loop(cut,
                                                             monkeypatch):
    # x_k rises monotonically from 0 toward 4.9 in every coordinate; g is
    # made infinite past x[0] = cut, while f stays finite everywhere
    f = pb.Quadratic(np.eye(3), vec(5.0, 5.0, 5.0))
    f.beta = 20.0
    problem = pb.AdditiveProblem(f=f, g=pb.AbsValue(0.1))
    real = pb._kernels.penalty_value

    def overflowing(g, X):
        v = np.where(X[..., 0] > cut, np.inf, real(g, X))
        return float(v) if X.ndim == 1 else v

    monkeypatch.setattr(pb._kernels, "penalty_value", overflowing)
    cfg = pb.ProxGradConfig(eps=1e-9, max_iter=5000)
    tr = pb.run_prox_gradient(problem, np.zeros(3), cfg)
    ref = serialref.prox_gradient(problem, np.zeros(3), cfg)
    assert tr.status == "Diverged"
    assert tr.column("descent_residual")[-1] == 0.0
    assert tr.final_x[0] <= cut < tr.final_x[0] + tr.data["gnorm"][-1] / 20
    assert np.all(np.isfinite(tr.column("phi")))
    _assert_same_trace(tr, ref)
