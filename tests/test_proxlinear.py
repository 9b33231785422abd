import dataclasses
import warnings

import numpy as np
import pytest

import proxbound as pb
import serialref
from proxbound import _kernels as K
from proxbound import cli
from gridref import grid_argmin_1d


def vec(*vals):
    return np.array(vals, dtype=float)


@pytest.fixture(scope="module")
def scalar_square():
    """1-D composite |x^2 - 1| via a quadratic map."""
    c = pb.QuadraticMap(np.array([[[2.0]]]), np.array([[0.0]]), vec(-1.0))
    return pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0), c=c)


def test_h_kind_restricted():
    c = pb.AffineMap(np.eye(2))
    with pytest.raises(TypeError):
        pb.CompositeProblem(g=pb.Zero(), h=pb.BoxIndicator(-1, 1), c=c)
    with pytest.raises(TypeError):
        pb.CompositeProblem(g=pb.Zero(), h=pb.Zero(), c=c)


def test_linearized_value_outside_domain(scalar_square):
    prob = pb.CompositeProblem(g=pb.BoxIndicator(-1, 1), h=pb.AbsValue(1.0),
                               c=pb.AffineMap(np.eye(1)))
    assert serialref.model_value(prob, vec(0.0), vec(2.0)) == np.inf
    with pytest.raises(pb.DomainError, match="x0 lies outside dom g"):
        pb.run_prox_linear(prob, vec(2.0), pb.ProxLinearConfig())


def test_linearized_value_example(scalar_square):
    # base x=1: c(1)=0, J=2, model at y=2 is |0 + 2*(2-1)| = 2
    assert serialref.model_value(scalar_square, vec(1.0), vec(2.0)) == pytest.approx(2.0)


def test_linearized_exact_at_base_point(scalar_square):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=1)
        assert serialref.model_value(scalar_square, x, x) == pytest.approx(
            scalar_square.phi(x), abs=1e-14)


def test_linearized_exact_for_affine_map():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    prob = pb.CompositeProblem(g=pb.AbsValue(0.2), h=pb.AbsValue(1.0),
                               c=pb.AffineMap(A, b))
    for _ in range(20):
        x, y = rng.uniform(-2, 2, size=(2, 3))
        assert serialref.model_value(prob, x, y) == pytest.approx(prob.phi(y),
                                                                rel=1e-12)


def test_subproblem_affine_identity_is_soft_threshold():
    prob = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0),
                               c=pb.AffineMap(np.eye(1)))
    y = pb.solve_subproblem(prob, vec(2.0), 1.0, 1e-10)
    assert y == pytest.approx([1.0], abs=1e-9)
    # |G_t(x)| = |x - y|/t, as the solver's first step records it
    tr = pb.run_prox_linear(prob, vec(2.0), pb.ProxLinearConfig(
        t0=1.0, max_iter=1, inner_tol=1e-10))
    assert tr.data["gnorm"][0] == pytest.approx(1.0, abs=1e-9)
    assert tr.iterates[1] == pytest.approx([1.0], abs=1e-9)


def test_subproblem_matches_grid_oracle(scalar_square):
    # model at x=2, t=0.1: |3 + 4(y-2)| + (y-2)^2/0.2
    y = pb.solve_subproblem(scalar_square, vec(2.0), 0.1, 1e-10)[0]
    oracle = grid_argmin_1d(
        lambda ys: np.abs(3.0 + 4.0 * (ys - 2.0)) + (ys - 2.0) ** 2 / 0.2,
        0.0, 4.0, 1e-5)
    assert y == pytest.approx(oracle, abs=1e-4)


def test_subproblem_fixed_point_at_stationary(scalar_square):
    # x = 1 is a global minimizer of |x^2 - 1|
    y = pb.solve_subproblem(scalar_square, vec(1.0), 1.0, 1e-10)
    assert abs(y[0] - 1.0) <= 1e-10 * 1.0


def test_subproblem_objective_not_above_phi(robust7):
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=10)
        t = rng.uniform(0.05, 0.5)
        y = pb.solve_subproblem(robust7, x, t, 1e-10)
        model = (serialref.model_value(robust7, x, y)
                 + float((y - x) @ (y - x)) / (2 * t))
        assert model <= robust7.phi(x) + 1e-10 * (1 + abs(robust7.phi(x)))


@pytest.mark.parametrize("t", [1e200, 1e250, 1e280, 1e300])
def test_huge_step_solve_is_not_stopped_by_an_underflowing_residual(
        t, robust7, monkeypatch):
    # the dual step is ~1/t, so |T(v) - v| is ~1e-200 at t = 1e200, and its
    # square underflows to 0; a residual squared before it is scaled then
    # passes the stop test at iteration 1 with y = x, and a run reports
    # Converged with |G_t| = 0 where phi is far from stationary
    x = np.full(10, 2.0)
    monkeypatch.setattr(pb.proxlinear, "INNER_CAP", 200)
    with pytest.raises(pb.InnerSolveError, match="stalled") as err:
        pb.solve_subproblem(robust7, x, t, 1e-11)
    assert err.value.iterations == 200 and err.value.residual > 1e-11


def test_gradient_inequality(robust7):
    # model(y) >= model_t(x; x^t) + <G, y - x> + t/2 |G|^2
    rng = np.random.default_rng(6)
    t = 0.2
    for _ in range(100):
        x, y = rng.uniform(-1.5, 1.5, size=(2, 10))
        xt = pb.solve_subproblem(robust7, x, t, 1e-11)
        G = (x - xt) / t
        lhs = serialref.model_value(robust7, x, y)
        model_at_xt = (serialref.model_value(robust7, x, xt)
                       + float((xt - x) @ (xt - x)) / (2 * t))
        rhs = model_at_xt + float(G @ (y - x)) + 0.5 * t * float(G @ G)
        assert lhs >= rhs - 1e-10


def test_two_sided_model_accuracy(robust7):
    rng = np.random.default_rng(7)
    lb_half = 0.5 * robust7.L * robust7.beta
    for _ in range(200):
        x, y = rng.uniform(-2, 2, size=(2, 10))
        err = robust7.phi(y) - serialref.model_value(robust7, x, y)
        bound = lb_half * float((y - x) @ (y - x)) + 1e-10
        assert abs(err) <= bound


def test_certificate_formula_and_example():
    c = pb.AffineMap(np.eye(2))
    prob = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0), c=c, L=1.0,
                               beta=2.0)
    assert pb.near_stationarity_certificate(prob, 0.1, 0.5) == pytest.approx(0.5)
    assert pb.near_stationarity_certificate(prob, 0.0, 0.5) == 0.0


def test_run_sufficient_decrease_and_certificates(robust7, robust7_run):
    tr = robust7_run
    assert tr.status == "Converged"
    phis = tr.column("phi")
    scale = 1 + np.abs(phis).max()
    assert np.all(phis[:-1] - phis[1:] >= -1e-12 * scale)
    assert np.all(tr.column("decrease_residual")[:-1] >= -1e-10 * scale)
    ts = tr.column("t_accepted")
    expected = (3.0 * robust7.L * robust7.beta * ts + 2.0) * tr.column("gnorm")
    assert np.array_equal(expected, tr.column("certificate"))


def test_run_stationary_start(scalar_square):
    tr = pb.run_prox_linear(scalar_square, vec(1.0),
                            pb.ProxLinearConfig(eps=1e-8))
    assert tr.status == "Converged" and tr.iterations == 0


def test_half_bound_along_iterates(robust7, robust7_run):
    gnorms = robust7_run.column("gnorm")
    for k, x in enumerate(robust7_run.iterates):
        d = pb.dist_to_stationarity(robust7, x)
        assert 0.5 * gnorms[k] <= d + 1e-8


def test_step_above_one_over_L_beta_is_clamped(scalar_square):
    # t0 = 100 is clamped to 1/(L beta) = 0.5, at which every step decreases
    # phi by at least (t/2)|G_t|^2: the run is the one with t0 unset
    cfg = pb.ProxLinearConfig(t0=100.0, eps=1e-9, max_iter=100,
                              inner_tol=1e-10)
    tr = pb.run_prox_linear(scalar_square, vec(0.1), cfg)
    assert tr.status == "Converged"
    lb = scalar_square.L * scalar_square.beta
    assert tr.meta["t"] == 1.0 / lb
    assert np.all(tr.column("t_accepted") == 1.0 / lb)
    assert np.all(tr.column("decrease_residual") >= 0.0)
    unset = pb.run_prox_linear(scalar_square, vec(0.1), pb.ProxLinearConfig(
        eps=1e-9, max_iter=100, inner_tol=1e-10))
    assert tr.to_csv() == unset.to_csv()


def test_affine_map_step_is_t0():
    # an affine c has L beta = 0: no step is too long, and t is t0, or 1.0
    # when t0 is unset
    prob = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0),
                               c=pb.AffineMap(np.eye(1)))
    for t0, t in ((None, 1.0), (7.5, 7.5)):
        tr = pb.run_prox_linear(prob, vec(2.0), pb.ProxLinearConfig(
            t0=t0, max_iter=5))
        assert tr.meta["t"] == t
        assert np.all(tr.column("t_accepted") == t)


def test_inner_iters_column_sums_dual_iterations(scalar_square, monkeypatch):
    # each trace row holds the dual iterations and the Newton steps of its
    # step's one subproblem solve
    calls, newton = [], []
    dual_ascent = K.dual_ascent

    def counted(*args, **kwargs):
        out = dual_ascent(*args, **kwargs)
        calls.append(out[3])
        newton.append(out[5])
        return out

    monkeypatch.setattr(K, "dual_ascent", counted)
    cfg = pb.ProxLinearConfig(eps=1e-9, max_iter=100, inner_tol=1e-10)
    tr = pb.run_prox_linear(scalar_square, vec(0.1), cfg)
    assert len(calls) == len(tr)
    assert tr.column("inner_iters").tolist() == calls
    assert tr.column("inner_newton").tolist() == newton
    assert min(tr.column("inner_iters")) > 0 and sum(newton) > 0


def vapnik_problem():
    """The vapnik-solve instance: eps-insensitive h over the robust7 map,
    with an l1 g."""
    return pb.CompositeProblem(g=pb.AbsValue(0.05),
                               h=pb.EpsilonInsensitive(1.0, 0.1),
                               c=pb.random_quadratic_map(20, 10, 7, 0.3))


@pytest.mark.parametrize("which", ["robust7", "vapnik"])
def test_warm_started_run_matches_cold_run(which, robust7, robust7_run,
                                           monkeypatch):
    # each subproblem starts from the last solve's dual; a run whose dual
    # ascents all start from zeros takes the same steps in over twice the
    # dual iterations. gnorm is compared to 1e-9 relative down to the
    # 1e-13 at which the last steps' |x - y| is roundoff
    if which == "robust7":
        prob, warm = robust7, robust7_run
        cfg = pb.ProxLinearConfig(eps=1e-10, max_iter=300, inner_tol=1e-11)
    else:
        prob = vapnik_problem()
        cfg = pb.ProxLinearConfig(eps=1e-10, max_iter=2000, inner_tol=1e-11)
        warm = pb.run_prox_linear(prob, np.full(10, 2.0), cfg)
    dual_ascent = K.dual_ascent
    monkeypatch.setattr(K, "dual_ascent",
                        lambda *args, W0=None: dual_ascent(*args))
    cold = pb.run_prox_linear(prob, np.full(10, 2.0), cfg)
    assert warm.status == cold.status == "Converged"
    assert warm.iterations == cold.iterations
    phi_w, phi_c = warm.column("phi"), cold.column("phi")
    assert np.all(np.abs(phi_w - phi_c) <= 1e-9 * np.abs(phi_c))
    g_w, g_c = warm.column("gnorm"), cold.column("gnorm")
    assert np.all(np.abs(g_w - g_c) <= 1e-13 + 1e-9 * g_c)
    assert np.all(np.abs(warm.final_x - cold.final_x) <= 1e-9)
    assert 2 * warm.column("inner_iters").sum() <= \
        cold.column("inner_iters").sum()


class ExpMap(pb.SmoothMap):
    """c(x) = exp(x) - shift in one dimension: finite and modest at x = 0,
    and it overflows past x ~ 709. jac_beta is not a global modulus here:
    a small one licenses a step that lands past the overflow."""

    dim_in = dim_out = 1

    def __init__(self, shift, jac_beta=1.0):
        self.shift = shift
        self.jac_beta = jac_beta
        self.trials = []

    def eval_jac_batch(self, X):
        E = np.exp(np.asarray(X, dtype=np.float64))
        self.trials.extend(E[:, 0])
        return E - self.shift, E[:, :, None]


def test_overflowing_trial_point_ends_diverged():
    # jac_beta = 5e-4 gives t = 1/(L beta) = 2000; from x0 = 0 the
    # linearized step lands at y = 999, where c(y) overflows: phi(y) is
    # inf, and the run ends Diverged on x0, its last finite iterate, with
    # no overflow RuntimeWarning from the trial point's phi
    c = ExpMap(1000.0, jac_beta=5e-4)
    prob = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0), c=c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = pb.run_prox_linear(prob, vec(0.0), pb.ProxLinearConfig(
            eps=1e-9, max_iter=200))
    assert np.isinf(c.trials).any()
    assert trace.status == "Diverged" and trace.iterations == 0
    assert trace.final_x.tolist() == [0.0]
    assert trace.column("phi").tolist() == [999.0]
    assert trace.column("t_accepted").tolist() == [2000.0]
    assert trace.column("gnorm")[0] == pytest.approx(999.0 / 2000.0)
    assert trace.column("decrease_residual").tolist() == [0.0]


def test_overflowing_trial_point_makes_run_exit_1(tmp_path, capsys,
                                                  monkeypatch):
    # the same instance as a config: run reports the divergence as its
    # failed converged check, with nothing on stderr
    monkeypatch.setitem(pb.smooth.MAP_KINDS, "expmap", [
        (("value",), lambda value: ExpMap(value, jac_beta=5e-4))])
    path = tmp_path / "exp.ini"
    path.write_text("[problem]\nkind = composite\npenalty = zero\n"
                    "h = absvalue(lambda=1)\nmap = expmap(value=1000)\n"
                    "x0 = zeros\n\n[solver]\nmethod = proxlinear\n")
    out = tmp_path / "o"
    assert cli.main(["run", str(path), "--quiet", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    report = (out / "report.txt").read_text()
    assert report.startswith("status=Diverged\niterations=0\n")
    assert [line.split(":")[0] for line in report.splitlines()
            if line.startswith("CHECK ")] == ["CHECK converged"]


def test_one_map_evaluation_per_step(robust7, robust7_run, monkeypatch):
    # phi(x_{k+1}) is taken from the (c, J) pair that the next subproblem
    # receives, so the map is evaluated once per step, plus once for
    # phi(x0); each subproblem's value bound fx has the bits of phi(x_k),
    # and the run has the bits of one without the counters
    evals = []
    eval_jac_batch = type(robust7.c).eval_jac_batch

    def counted(self, X):
        evals.append(X.shape[0])
        return eval_jac_batch(self, X)

    bounds = []
    dual_ascent = K.dual_ascent

    def recorded(g, h, J, cbar, X, t, steps, tol, fx, maxit, W0=None):
        bounds.append((X.copy(), np.array(fx)))
        return dual_ascent(g, h, J, cbar, X, t, steps, tol, fx, maxit, W0)

    monkeypatch.setattr(type(robust7.c), "eval_jac_batch", counted)
    monkeypatch.setattr(K, "dual_ascent", recorded)
    trace = pb.run_prox_linear(robust7, np.full(10, 2.0), pb.ProxLinearConfig(
        eps=1e-10, max_iter=300, inner_tol=1e-11))
    monkeypatch.undo()
    steps = len(trace)
    assert steps > 10 and evals == [1] * (steps + 1)
    assert len(bounds) == steps
    for k, (X, fx) in enumerate(bounds):
        assert np.array_equal(X, trace.iterates[k][None])
        phi = np.array([robust7.phi(trace.iterates[k])])
        assert fx.tobytes() == phi.tobytes()
    assert trace.status == robust7_run.status
    assert trace.to_csv() == robust7_run.to_csv()


GRAM_OVERFLOW = "subproblem Jacobian Gram J^T J overflows: |J|^2 is not finite"


def test_overflowing_jacobian_gram_is_an_inner_solve_error():
    # jac_beta = 1e-3 gives t = 1000; from x0 = -1 the step lands near
    # x = 367, where c(x) = exp(x) - 1000 and phi are finite but the Gram
    # J^T J = exp(2x) overflows: the next solve raises InnerSolveError
    # naming the overflow before any dual step, and numpy warns nothing
    c = ExpMap(1000.0, jac_beta=1e-3)
    prob = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0), c=c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pb.InnerSolveError) as err:
            pb.run_prox_linear(prob, vec(-1.0), pb.ProxLinearConfig(
                eps=1e-9, max_iter=200))
    assert str(err.value) == GRAM_OVERFLOW
    # the last base point has a finite c(x), and J^2 = exp(2x) > max float
    assert np.isfinite(c.trials[-1]) and c.trials[-1] > 1e155


def test_overflowing_jacobian_gram_makes_run_exit_3(tmp_path, capsys,
                                                    monkeypatch):
    # the same instance as a config: run exits 3 with one runtime error
    # line that names the overflow, and nothing else on stderr
    monkeypatch.setitem(pb.smooth.MAP_KINDS, "expmap", [
        (("value",), lambda value: ExpMap(value, jac_beta=1e-3))])
    path = tmp_path / "exp.ini"
    path.write_text("[problem]\nkind = composite\npenalty = zero\n"
                    "h = absvalue(lambda=1)\nmap = expmap(value=1000)\n"
                    "x0 = const(value=-1)\n\n[solver]\nmethod = proxlinear\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", str(path), "--quiet",
                         "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == f"runtime error: {GRAM_OVERFLOW}\n"


def test_beta_below_the_true_modulus_fails_the_decrease_checks(
        scalar_square):
    # |x^2 - 1| has Jacobian modulus 2; a declared beta = 0.02 gives
    # t = 1/(L beta) = 50, and from x0 = 0.1 the step overshoots to
    # phi = 24.5: the run takes it, and its negative decrease residual and
    # the rise of phi FAIL their checks. With the true beta both PASS
    assert scalar_square.beta == 2.0
    for beta, word in ((2.0, "PASS"), (0.02, "FAIL")):
        problem = dataclasses.replace(scalar_square, beta=beta)
        report = cli.run_experiment(cli.ExperimentConfig(
            kind="composite", method="proxlinear", eps=1e-9, max_iter=100,
            problem=problem, x0=vec(0.1)))
        checks = {c.name: c for c in report.checks}
        for name in ("sufficient_decrease", "monotone_values"):
            assert checks[name].passed == (word == "PASS"), (beta, name)
            assert (checks[name].slack < 0) == (word == "FAIL"), (beta, name)
    resid = report.trace.column("decrease_residual")
    assert resid[0] == pytest.approx(-23.7575, abs=1e-4)
    assert report.trace.column("phi")[1] == pytest.approx(24.5025)


def test_proportionality_inequality():
    # 1 + (1 - t L beta)^{-1} >= |x^t - x|/|x^+ - x| + |x^+ - x|/|x^t - x|
    # for t <= 0.5/(L beta). The prox of the true phi is only computable on
    # convex instances with c affine, where the model is exact and
    # x^+ = prox_{t phi}(x) coincides with the subproblem solution.
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    prob = pb.CompositeProblem(g=pb.AbsValue(0.1), h=pb.HuberEnvelope(1.0, 0.8),
                               c=pb.AffineMap(A, b))
    inner_tol = 1e-11
    r = prob.L * prob.beta
    t = 0.4
    assert t * r < 1.0
    checked = 0
    for _ in range(25):
        x = rng.uniform(-1.5, 1.5, size=4)
        xt = pb.solve_subproblem(prob, x, t, inner_tol)
        xp = pb.solve_subproblem(prob, x, t, inner_tol)
        nt = np.linalg.norm(xt - x)
        npp = np.linalg.norm(xp - x)
        if nt <= 1e-9 or npp <= 1e-9:
            continue
        lhs = 1.0 + 1.0 / (1.0 - t * r)
        assert lhs >= nt / npp + npp / nt - 10 * inner_tol
        checked += 1
    assert checked >= 10


def test_affine_c_iterates_match_prox_gradient():
    # zero-curvature equivalence: flat-region corridor + l1 vs the identity
    # affine composite with the same l1; both reduce to soft-threshold steps
    lam, t, n = 0.4, 0.5, 5
    x0 = vec(0.9, -0.8, 0.5, -0.3, 0.7)
    additive = pb.AdditiveProblem(f=pb.Corridor(dim=n), g=pb.AbsValue(lam))
    composite = pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(lam),
                                    c=pb.AffineMap(np.eye(n)))
    inner_tol = 1e-10
    tr_add = pb.run_prox_gradient(additive, x0,
                                  pb.ProxGradConfig(t=t, eps=1e-9, max_iter=50))
    tr_comp = pb.run_prox_linear(
        composite, x0, pb.ProxLinearConfig(t0=t, eps=1e-9, max_iter=50,
                                           inner_tol=inner_tol))
    k = min(len(tr_add.iterates), len(tr_comp.iterates))
    assert k > 3
    for i in range(k):
        assert np.linalg.norm(tr_add.iterates[i] - tr_comp.iterates[i]) \
            <= 10 * inner_tol


def test_declared_L_is_lipschitz_bound(robust7):
    rng = np.random.default_rng(9)
    m = robust7.c.dim_out
    U = rng.normal(size=(500, m)) * 3
    V = rng.normal(size=(500, m)) * 3
    hu = robust7.h.value_batch(U)
    hv = robust7.h.value_batch(V)
    dists = np.linalg.norm(U - V, axis=1)
    assert np.all(np.abs(hu - hv) <= robust7.L * dists * (1 + 1e-12))


def test_box_constrained_g_in_subproblem():
    # the dual recovery prox_{tg} keeps iterates inside dom g
    rng = np.random.default_rng(10)
    A = rng.standard_normal((8, 4))
    b = rng.standard_normal(8)
    prob = pb.CompositeProblem(g=pb.BoxIndicator(-0.25, 0.25),
                               h=pb.AbsValue(1.0), c=pb.AffineMap(A, b))
    tr = pb.run_prox_linear(prob, np.zeros(4),
                            pb.ProxLinearConfig(t0=0.5, eps=1e-8,
                                                max_iter=200,
                                                inner_tol=1e-10))
    assert tr.status == "Converged"
    assert np.all(np.abs(tr.final_x) <= 0.25 + 1e-14)
    # with c affine the subproblem is prox_{t phi}; cross-check against a
    # direct projected solve of the strongly convex model on a few points
    for _ in range(5):
        x = rng.uniform(-0.25, 0.25, size=4)
        y = pb.solve_subproblem(prob, x, 0.5, 1e-11)
        model = (prob.phi(y) + float((y - x) @ (y - x)))
        probe = y + rng.normal(size=4) * 1e-4
        probe = np.clip(probe, -0.25, 0.25)
        model_probe = prob.phi(probe) + float((probe - x) @ (probe - x))
        assert model <= model_probe + 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        pb.ProxLinearConfig(t0=-0.1)
    # sigma is t: there is no knob for it
    with pytest.raises(TypeError):
        pb.ProxLinearConfig(sigma=0.5)
