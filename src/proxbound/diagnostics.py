"""Numerical verification of error-bound / quadratic-growth relationships.

Estimates the growth constant alpha (min of 2(phi - phi*)/dist^2), the error
bound constant gamma (max of dist/|G_t|), the subdifferential and proximal
error-bound constants, and checks the translation formulas that tie them
together, all on seeded sublevel-set samples. Sampling can only falsify the
set-wide conditions, never certify them; reports carry sample counts.

A constants run draws and accepts one sample pool; each constant is a
reduction over a prefix of it (a seeded box draw of m rows is the first m
rows of a larger one, and every row is accepted on its own). alpha counts
only gaps above a roundoff floor, since phi(x) - phi* is formed by
subtraction and near S is rounding error alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .errors import DomainError, InsufficientData, UnsupportedOperation
from .proxgrad import (AdditiveProblem, ProxGradConfig, _prox_point_batch,
                       run_prox_gradient)
from .proxlinear import (ProxLinearConfig, _solve_subproblem_batch,
                         run_prox_linear)
from .smooth import operator_norm_sq
from .vectors import as_points, as_vector

GNORM_SKIP = 1e-10
DIST_SKIP = 1e-8
# alpha counts a gap only above GAP_ULPS ulp(max(|phi(x)|, |phi*|)): a gap
# with at most 4 ulp of rounding error is then known to 1e-6 relative
GAP_ULPS = 4e6
MIN_ACCEPTED = 10
BOXQP_CAP = 10 ** 5
BOXQP_TOL = 1e-10
# rows per stacked evaluation of the composite phi and of dist(0, d phi):
# bounds the (rows, m, n) Jacobian stacks they build
ROW_BLOCK = 128
# rows per block of |G_t|, and of the additive phi: a composite block is
# one stacked subproblem solve, whose dual ascent costs about the same per
# iteration at 128 rows as at 500 and runs until its slowest row finishes,
# so a constants run's 500-row gamma set goes in one call; an additive
# block's temporaries (a few hundred kB) stay in cache where the 22,876-row
# lasso pool's would not. The cap bounds the stacks of larger pools
GAMMA_ROWS = 512
# radial pulls of a sample above the nu level before it is dropped
SHRINK_ROUNDS = 80
# ray search: climbing rounds, candidate directions per round, restarts
RAY_ROUNDS = 60
RAY_POOL = 48
RAY_RESTARTS = 2


# ---------------------------------------------------------------------------
# Reference solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceSolution:
    """Minimizer-set description: an analytic box S or a computed point.

    For computed references dist(x, S) is reported as |x - x*|, an upper
    bound on the true distance; this only makes gamma-type estimates more
    conservative. A computed reference keeps the terminal status of the
    solve that found it and the |G_t| it reached there (accuracy); an
    analytic one has neither.
    """

    kind: str
    phi_star: float
    lo: np.ndarray = None
    hi: np.ndarray = None
    x_star: np.ndarray = None
    accuracy: float = None
    status: str = None

    @classmethod
    def computed(cls, x_star, phi_star, accuracy, status="Converged"):
        return cls(kind="computed", phi_star=float(phi_star),
                   x_star=as_vector(x_star, name="x_star"),
                   accuracy=float(accuracy), status=status)

    def center(self):
        if self.kind == "computed":
            return self.x_star
        return 0.5 * (self.lo + self.hi)

    def dist(self, x):
        return float(self.dist_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def dist_batch(self, X):
        """dist(x, S) at every row of X (see _row_norms)."""
        if self.kind == "computed":
            return _row_norms(X - self.x_star)
        return _row_norms(X - np.minimum(np.maximum(X, self.lo), self.hi))


def _row_norms(D):
    """The Euclidean norm of every row of the temporary D, summed as
    np.linalg.norm(D, axis=1) sums it (the same bits), without its
    per-call overhead; D is squared in place."""
    np.multiply(D, D, out=D)
    return np.sqrt(np.add.reduce(D, axis=1))


def analytic_reference(problem):
    """Analytic minimizer set for catalog instances that have one.

    Currently: the plain corridor loss with a zero penalty, whose minimizer
    set is the unit box with optimal value 0. Returns None when no analytic
    description is known.
    """
    from .penalties import Zero
    from .smooth import Corridor
    if (isinstance(problem, AdditiveProblem) and isinstance(problem.g, Zero)
            and isinstance(problem.f, Corridor) and problem.f.A is None):
        n = problem.dim
        return ReferenceSolution(kind="analytic-box", phi_star=0.0,
                                 lo=-np.ones(n), hi=np.ones(n))
    return None


def compute_reference(problem, x0=None, t=None, tol=1e-12, max_iter=500000,
                      inner_tol=1e-12):
    """High-accuracy solve pinning x*, phi*, the achieved |G_t(x*)| and the
    solve's terminal status."""
    x0 = np.zeros(problem.dim) if x0 is None else as_vector(x0, problem.dim)
    if isinstance(problem, AdditiveProblem):
        cfg = ProxGradConfig(t=t, max_iter=max_iter, eps=tol)
        trace = run_prox_gradient(problem, x0, cfg)
    else:
        cfg = ProxLinearConfig(t0=t, max_iter=max_iter, eps=tol,
                               inner_tol=inner_tol)
        trace = run_prox_linear(problem, x0, cfg)
    x_star = trace.final_x
    return ReferenceSolution.computed(x_star, problem.phi(x_star),
                                      accuracy=trace.column("gnorm")[-1],
                                      status=trace.status)


# ---------------------------------------------------------------------------
# Stationarity distance dist(0, d phi(x))
# ---------------------------------------------------------------------------

def dist_to_stationarity(problem, x, counts=None, cj=None):
    """Distance from 0 to the subdifferential of the objective at x.

    x is one point (n,), giving a float, or a stack (..., n) of points,
    giving an array of their leading shape; the rows are worked through in
    blocks of ROW_BLOCK. Additive: exact coordinatewise interval projection
    of -grad f(x) onto d g(x). Composite: min |v + J^T w| over v in d g(x),
    w in d h(c(x)), solved by projected gradient on the box product (an
    upper bound on the true distance, exact at convergence since the
    problem is convex). Only the rows whose box has a free coordinate take
    a spectral norm of their Jacobian for the step; a row whose box is one
    point (as for the l1 h at c(x) != 0 with a zero g) needs none and ends
    at iteration 1. A composite caller that has already evaluated the map
    at a (B, n) stack passes cj = (C, J), the (B, m) values and (B, m, n)
    Jacobians there, and the map is not evaluated again; the result has
    the same bits. A dict passed as counts receives boxqp_iters, the min-norm
    QP iterations summed over the rows, and boxqp_capped, the rows whose QP
    ran into BOXQP_CAP and so report an unconverged upper bound (both 0 for
    additive problems).
    """
    x = as_points(x, problem.dim)
    X = x.reshape(-1, problem.dim)
    dists = np.empty(X.shape[0])
    iters = capped = 0
    for s in range(0, X.shape[0], ROW_BLOCK):
        rows = slice(s, s + ROW_BLOCK)
        block = None if cj is None else (cj[0][rows], cj[1][rows])
        dists[rows], it, cap = _dist_block(problem, X[rows], block)
        iters += it
        capped += cap
    if counts is not None:
        counts["boxqp_iters"] = iters
        counts["boxqp_capped"] = capped
    return float(dists[0]) if x.ndim == 1 else dists.reshape(x.shape[:-1])


def _dist_block(problem, X, cj=None):
    """dist(0, d phi) at the rows of X, the min-norm QP iterations and the
    number of capped QP rows.

    A composite block takes c(X) and the Jacobians at X from cj = (C, J)
    when the caller has them, and evaluates the map itself when cj is None.
    Only the composite rows whose (v, w) box has a free coordinate take the
    step 1/(1 + |J|^2), from one stacked operator_norm_sq over those rows.
    A point-box row gets step 1: it ends at iteration 1 with the same norm
    for any positive finite step (see minnorm_boxqp)."""
    if isinstance(problem, AdditiveProblem):
        lo, hi = problem.g.subgrad_bounds(X)
        target = -problem.f.grad_batch(X)
        under = np.maximum(lo - target, 0.0)
        over = np.maximum(target - hi, 0.0)
        return np.sqrt(K.row_dots(np.where(target < lo, under, over))), 0, 0
    glo, ghi = problem.g.subgrad_bounds(X)
    C, J = problem.c.eval_jac_batch(X) if cj is None else cj
    hlo, hhi = problem.h.subgrad_bounds(C)
    free = np.any(glo < ghi, axis=1) | np.any(hlo < hhi, axis=1)
    steps = np.ones(X.shape[0])
    if np.any(free):
        steps[free] = 1.0 / (1.0 + operator_norm_sq(J[free]))
    return K.minnorm_boxqp(J, glo, ghi, hlo, hhi, steps, BOXQP_TOL, BOXQP_CAP)


# ---------------------------------------------------------------------------
# Seeded sublevel-set sampling
# ---------------------------------------------------------------------------

def sample_box(ref, dim, n_samples, seed, radius_scale=5.0):
    """Uniform samples on the box of radius radius_scale*(1+|center|_inf)."""
    center = ref.center()
    if center.shape[0] != dim:
        raise DomainError("reference dimension mismatch")
    radius = radius_scale * (1.0 + float(np.max(np.abs(center))))
    rng = np.random.default_rng(int(seed))
    return center + rng.uniform(-radius, radius, size=(n_samples, dim))


def _phi_batch(problem, X, cj=None, picked=None):
    """phi at every row of X.

    Additive rows are evaluated GAMMA_ROWS at a time and composite rows
    ROW_BLOCK at a time, in blocks that start at row 0, so no temporary
    grows with X. Given stacks cj = (C, J), the c(x) and Jacobian that a
    row of X was evaluated with are written into the stack row of the same
    number, if the stacks have it; when X holds the rows of a larger stack
    that the boolean mask picked selects, the number is the row's in that
    stack."""
    additive = isinstance(problem, AdditiveProblem)
    size = GAMMA_ROWS if additive else ROW_BLOCK
    phis = np.empty(X.shape[0])
    if cj is not None:
        at = (np.arange(X.shape[0]) if picked is None
              else np.flatnonzero(picked))
    for s in range(0, X.shape[0], size):
        B = X[s:s + size]
        if additive:
            phis[s:s + size] = problem.phi_batch(B)
            continue
        C, J = problem.c.eval_jac_batch(B)
        phis[s:s + size] = problem.g.value_batch(B) + problem.h.value_batch(C)
        if cj is not None:
            rows = at[s:s + size]
            # rows ascend, so the ones the stacks have are a prefix
            r = int(np.searchsorted(rows, cj[0].shape[0]))
            cj[0][rows[:r]] = C[:r]
            cj[1][rows[:r]] = J[:r]
    return phis


def _gnorm_batch(problem, X, t, inner_tol, cj=None):
    """|G_t| at every row of X, plus a dict of the work it took summed over
    the rows: dual_iters, the dual-ascent iterations (0 for additive
    problems, whose G_t is closed form), and for composite problems
    newton_steps, the Newton steps tried, and dual_sweeps, the iterations
    of the stacked ascent loops (each the most that one of its rows took).

    Rows go GAMMA_ROWS at a time, in blocks that start at row 0, so no
    temporary grows with X. An additive block takes G_t in closed form
    from one gradient product, and a row's gradient bits can depend on the
    number of rows in that product: a row's |G_t| is that of its block,
    and agrees with the lone-point value to roundoff. A composite block is
    one stacked dual ascent, in which a row's path does not depend on the
    rows stacked with it, so the blocking changes only dual_sweeps. A
    composite caller that has already evaluated the map passes cj, a list
    holding the one pair (c(X), Jacobian stack at X); it is taken out of
    the list and its blocks handed on, so that each solve holds the only
    reference to its rows' Jacobians (see _solve_subproblem_batch)."""
    gnorms = np.empty(X.shape[0])
    blocks = range(0, X.shape[0], GAMMA_ROWS)
    if isinstance(problem, AdditiveProblem):
        for s in blocks:
            B = X[s:s + GAMMA_ROWS]
            P = problem.g.prox_batch(B - t * problem.f.grad_batch(B), t)
            gnorms[s:s + GAMMA_ROWS] = _row_norms(B - P) / t
        return gnorms, {"dual_iters": 0}
    counts = {"dual_iters": 0, "newton_steps": 0, "dual_sweeps": 0}
    parts = [None] * len(blocks)
    if cj:
        C, J = cj.pop()
        parts = [[(C[s:s + GAMMA_ROWS], J[s:s + GAMMA_ROWS])] for s in blocks]
        del C, J
    for s, part in zip(blocks, parts):
        B = X[s:s + GAMMA_ROWS]
        Y, _, iters, newton = _solve_subproblem_batch(problem, B, t,
                                                      inner_tol, cj=part)
        gnorms[s:s + GAMMA_ROWS] = np.sqrt(K.row_dots((B - Y) / t))
        counts["dual_iters"] += int(np.sum(iters))
        counts["newton_steps"] += newton
        counts["dual_sweeps"] += int(np.max(iters))
    return gnorms, counts


def _accepted(problem, ref, nu, X, counts=None, cj=None):
    """Sublevel-set realization of the box samples.

    Samples above the nu level are pulled radially toward the reference
    center: for convex phi, gap(s*d) <= s*gap(d), so a single proportional
    scaling lands inside; the loop covers nonconvex and infinite-valued
    cases. Plain rejection starves on instances whose sublevel set is tiny
    relative to the fixed sampling box. Every row is pulled and judged on
    its own. Returns the kept rows, their gaps and their indices in X. X
    itself is left as it is: the pull rounds, if any run, move a copy.

    For a composite problem, stacks cj = (C, J) with one row for each of
    the first len(C) rows of X receive c(x) and the Jacobian at those rows:
    the first evaluation writes every such row, and a pull round writes
    the rows it re-evaluates in place, so at return each holds the map at
    its row's final point (the L and gamma estimators take them from
    there). A dict passed as counts receives shrink_rounds, the pull rounds
    run, and for composite problems map_eval_rows, the rows at which c and
    J were evaluated.
    """
    center = ref.center()
    gaps = _phi_batch(problem, X, cj) - ref.phi_star
    rounds = 0
    evaluated = X.shape[0]
    if not math.isinf(nu):
        for _ in range(SHRINK_ROUNDS):
            bad = ~(gaps <= nu)
            if not np.any(bad):
                break
            if not rounds:
                X = X.copy()
            rounds += 1
            scale = np.full(int(np.sum(bad)), 0.7)
            finite = np.isfinite(gaps[bad])
            scale[finite] = np.minimum(0.7, 0.99 * nu / gaps[bad][finite])
            X[bad] = center + scale[:, None] * (X[bad] - center)
            gaps[bad] = _phi_batch(problem, X[bad], cj, bad) - ref.phi_star
            evaluated += scale.size
    if counts is not None:
        counts["shrink_rounds"] = rounds
        if not isinstance(problem, AdditiveProblem):
            counts["map_eval_rows"] = evaluated
    keep = np.isfinite(gaps) & (gaps <= nu)
    return X[keep], gaps[keep], np.flatnonzero(keep)


def _sample_pool(problem, ref, nu, n_samples, seed, extra=None, counts=None,
                 cj=None):
    """The accepted sample pool of a constants run.

    The seeded box draw of n_samples rows is pulled into the nu-sublevel
    set once. extra, when given, is a pair (rows, their gaps) of points
    that are accepted already (the ray search's); they are appended to the
    kept box rows as they are, and not evaluated again. Returns the kept
    rows, their gaps, their distances to S and drawn, each kept row's index
    in the draw, with the extra rows after it: the j-th gets n_samples + j.
    A seeded draw of m rows is the first m rows of a larger one, so the
    rows with drawn < m are the accepted m-row draw. counts and cj go to
    _accepted.
    """
    X = sample_box(ref, problem.dim, n_samples, seed)
    X, gaps, drawn = _accepted(problem, ref, nu, X, counts, cj)
    if extra is None:
        return X, gaps, ref.dist_batch(X), drawn
    rows, extra_gaps = extra
    return (np.vstack([X, rows]), np.concatenate([gaps, extra_gaps]),
            np.concatenate([ref.dist_batch(X), ref.dist_batch(rows)]),
            np.concatenate([drawn, n_samples + np.arange(len(rows))]))


def _max_ratio(dists, denom, what):
    """max of dists/denom over the rows whose denom exceeds GNORM_SKIP."""
    mask = denom > GNORM_SKIP
    if int(np.sum(mask)) < MIN_ACCEPTED:
        raise InsufficientData(
            f"only {int(np.sum(mask))} accepted samples for {what}")
    return float(np.max(dists[mask] / denom[mask]))


def _growth_min(gaps, dists, phi_star, counts):
    """alpha's reduction: min of 2 gap/dist^2 over the rows farther than
    DIST_SKIP from S whose gap clears the roundoff floor
    GAP_ULPS ulp(max(|phi(x)|, |phi*|)). counts receives alpha_samples, the
    rows the min ran over, and alpha_roundoff_skips, the rows under the
    floor."""
    floor = GAP_ULPS * np.spacing(np.maximum(np.abs(gaps + phi_star),
                                             abs(phi_star)))
    above = gaps > floor
    mask = above & (dists > DIST_SKIP)
    counts["alpha_samples"] = int(np.sum(mask))
    counts["alpha_roundoff_skips"] = int(np.sum(~above))
    if counts["alpha_samples"] < MIN_ACCEPTED:
        raise InsufficientData(
            f"only {counts['alpha_samples']} accepted samples for alpha")
    return float(np.min(2.0 * gaps[mask] / dists[mask] ** 2))


def _gamma_max(problem, X, dists, t, inner_tol, counts, cj=None):
    """gamma's reduction: max of dist/|G_t| over the rows of X, with the
    map at X taken from cj as _gnorm_batch takes it. counts receives
    gamma_samples, gamma_dual_iters and, for composite problems,
    gamma_newton_steps and gamma_dual_sweeps."""
    gnorms, work = _gnorm_batch(problem, X, t, inner_tol, cj)
    counts["gamma_samples"] = int(X.shape[0])
    counts.update({f"gamma_{key}": int(v) for key, v in work.items()})
    return _max_ratio(dists, gnorms, "gamma")


def _subdiff_max(problem, X, dists, counts, cj=None):
    """L's reduction: max of dist/dist(0, d phi) over the rows of X, with
    the map at X taken from cj = (C, J) when it is given. counts receives
    subdiff_samples, subdiff_boxqp_iters and subdiff_boxqp_capped."""
    work = {}
    stat = dist_to_stationarity(problem, X, counts=work, cj=cj)
    counts["subdiff_samples"] = int(X.shape[0])
    counts.update({f"subdiff_{key}": v for key, v in work.items()})
    return _max_ratio(dists, stat, "L")


def estimate_alpha(problem, ref, nu, n_samples=10000, seed=0):
    """Empirical quadratic-growth constant on the nu-sublevel set.

    alpha_hat = min over accepted samples of 2 (phi(x) - phi*) / dist(x,S)^2;
    samples closer than DIST_SKIP to S, or whose gap is under the roundoff
    floor GAP_ULPS ulp(max(|phi(x)|, |phi*|)), are skipped.
    """
    _, gaps, dists, _ = _sample_pool(problem, ref, nu, n_samples, seed)
    return _growth_min(gaps, dists, ref.phi_star, {})


def estimate_gamma(problem, ref, nu, t, n_samples=10000, seed=0,
                   inner_tol=1e-10, counts=None):
    """Empirical error-bound constant: max of dist(x,S)/|G_t(x)| on the
    nu-sublevel set, skipping samples with |G_t(x)| <= GNORM_SKIP.

    A dict passed as counts receives gamma_samples (the accepted samples
    whose |G_t| was evaluated) and gamma_dual_iters (the dual-ascent
    iterations summed over them), and for composite problems
    gamma_newton_steps (the Newton steps tried, summed over them) and
    gamma_dual_sweeps (the iterations of the stacked ascent loops).
    """
    X, _, dists, _ = _sample_pool(problem, ref, nu, n_samples, seed)
    return _gamma_max(problem, X, dists, t, inner_tol,
                      {} if counts is None else counts)


def _refine_extremal_rays(problem, ref, nu, t, seed, inner_tol):
    """Seeded hill-climb over ray directions for the two extremal ratios.

    Random box directions rarely align with the eigen-directions where the
    growth minimum and error-bound maximum are attained, so the bundled
    estimator sharpens them with a local search (restarted, with radial
    line probes along every best direction found). Every probe is pulled
    into the sublevel set first, so the returned points are valid samples
    and only tighten the min/max estimates. Returns the kept points and
    the gaps phi(x) - phi* that their acceptance measured, so that a pool
    can take them without evaluating phi there again.
    """
    rng = np.random.default_rng(int(seed) + 977)
    center = ref.center()
    dim = problem.dim
    radius = 5.0 * (1.0 + float(np.max(np.abs(center)))) * np.sqrt(dim)

    def scores(X, gaps, want_gamma):
        dists = ref.dist_batch(X)
        if want_gamma:
            gn, _ = _gnorm_batch(problem, X, t, inner_tol)
            good = (gn > GNORM_SKIP) & (dists > DIST_SKIP)
            return np.where(good, dists / np.maximum(gn, GNORM_SKIP), -np.inf)
        good = dists > DIST_SKIP
        return np.where(good, -2.0 * gaps / np.maximum(dists, DIST_SKIP) ** 2,
                        -np.inf)

    collected = []
    collected_gaps = []
    best_dirs = []

    def accept(X):
        X, gaps, _ = _accepted(problem, ref, nu, X)
        if X.shape[0]:
            collected.append(X)
            collected_gaps.append(gaps)
        return X, gaps

    def climb(want_gamma, X0):
        X0, gaps = accept(X0)
        if X0.shape[0] == 0:
            return None
        s0 = scores(X0, gaps, want_gamma)
        if not np.any(np.isfinite(s0)):
            return None
        best = float(np.max(s0))
        d = X0[int(np.argmax(s0))] - center
        sigma = 1.0
        for _ in range(RAY_ROUNDS):
            P = d + sigma * np.linalg.norm(d) * rng.standard_normal(
                (RAY_POOL, dim))
            C, gaps = accept(center + P)
            if C.shape[0] == 0:
                sigma *= 0.75
                continue
            sc = scores(C, gaps, want_gamma)
            top = float(np.max(sc))
            if top > best:
                best = top
                d = C[int(np.argmax(sc))] - center
            else:
                sigma *= 0.75
            if sigma < 1e-7:
                break
        return d

    for want_gamma in (True, False):
        for restart in range(RAY_RESTARTS):
            base_seed = int(seed) + 11 * (1 + restart) + (0 if want_gamma else 7)
            X0 = sample_box(ref, dim, 256, base_seed)
            # cross-seed with directions already found: the two extremes
            # usually live on the same ray
            for d in best_dirs:
                nd = np.linalg.norm(d)
                if nd > 0:
                    X0 = np.vstack([X0, center + radius * d / nd,
                                    center - radius * d / nd])
            d = climb(want_gamma, X0)
            if d is not None:
                best_dirs.append(d)

    # radial line probes along every best direction, both signs
    for d in best_dirs:
        nd = np.linalg.norm(d)
        if nd == 0:
            continue
        u = d / nd
        radii = np.geomspace(1e-2, radius, 40)
        accept(center + np.concatenate([radii, -radii])[:, None] * u)

    if not collected:
        return np.empty((0, dim)), np.empty(0)
    return np.vstack(collected), np.concatenate(collected_gaps)


def estimate_subdiff_bound(problem, ref, nu, n_samples=2000, seed=0,
                           counts=None):
    """Empirical L with dist(x,S) <= L dist(0, d phi(x)) on the sublevel set.

    A dict passed as counts receives subdiff_samples (the accepted samples
    whose dist(0, d phi) was evaluated), subdiff_boxqp_iters (the min-norm
    QP iterations summed over them) and subdiff_boxqp_capped (those whose QP
    ran into BOXQP_CAP); both QP counts are 0 for additive problems.
    """
    X, _, dists, _ = _sample_pool(problem, ref, nu, n_samples, seed)
    return _subdiff_max(problem, X, dists, {} if counts is None else counts)


def _prox_bound_samples(problem, X, dists, t, inner_tol):
    """L-hat's reduction: max of dist/(|x - prox_{t phi}(x)|/t) over the
    rows of X, and the prox points."""
    if X.shape[0] < MIN_ACCEPTED:
        raise InsufficientData(f"only {X.shape[0]} accepted samples for L-hat")
    P = _prox_point_batch(problem, X, t, inner_tol)
    steps = np.linalg.norm(X - P, axis=1) / t
    return _max_ratio(dists, steps, "L-hat"), P


# ---------------------------------------------------------------------------
# Constant-translation formulas and reports
# ---------------------------------------------------------------------------

@dataclass
class ConstantsReport:
    """Measured constants plus the relation checks that tie them together."""

    alpha_hat: float
    gamma_hat: float
    L_hat_sub: float
    nu: float
    sample_count: int
    extras: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    def to_text(self):
        lines = [f"alpha_hat={self.alpha_hat:.17g}",
                 f"gamma_hat={self.gamma_hat:.17g}",
                 f"L_hat_sub={self.L_hat_sub:.17g}",
                 f"nu={self.nu:.17g}",
                 f"sample_count={self.sample_count}"]
        for key in sorted(self.extras):
            val = self.extras[key]
            lines.append(f"{key}={val:.17g}" if isinstance(val, float)
                         else f"{key}={val}")
        for name in sorted(self.checks):
            ok, slack = self.checks[name]
            lines.append(f"check_{name}={'pass' if ok else 'fail'}"
                         f" slack={slack:.17g}")
        return "\n".join(lines) + "\n"


def verify_constant_relations(alpha, gamma, L, L_hat, t, beta, tol=1e-3):
    """Boolean checks of the constant-translation formulas.

    gamma <= (2/alpha + t)(1 + beta t), L-hat <= L + t, L <= 2/alpha, and
    the converse growth direction alpha >= (1 - tol)/gamma; slacks are the
    inequality margins (nonnegative means pass). tol is multiplicative.
    """
    if alpha <= 0 or gamma <= 0 or L <= 0 or t <= 0 or beta < 0:
        raise ValueError("constant relations need positive measured inputs")
    checks = {}

    def add(name, bound, value):
        slack = bound * (1.0 + tol) - value
        checks[name] = (slack >= 0.0, slack)

    add("gamma_vs_alpha", (2.0 / alpha + t) * (1.0 + beta * t), gamma)
    if L_hat is not None:
        add("prox_vs_subdiff", L + t, L_hat)
    add("subdiff_vs_alpha", 2.0 / alpha, L)
    slack = alpha - (1.0 - tol) / gamma
    checks["alpha_vs_gamma"] = (slack >= 0.0, slack)
    return checks


def estimate_constants(problem, ref, nu, t, n_samples=10000, seed=0,
                       inner_tol=1e-10):
    """Bundle the constant estimators into one report.

    One pool is drawn and accepted: the seeded box draw of n_samples rows,
    plus, for additive problems, the points of a seeded ray search toward
    the extremal directions, which the search has accepted already and
    which join the pool with the gaps it measured: each pool row is
    accepted once. Each constant is a reduction over a part of
    it, picked by each row's index in the draw: alpha over the whole pool
    (less the rows under the roundoff floor); gamma over the whole pool for
    additive problems and over the first 500 box rows for composite ones;
    L-hat over the first 500 box rows, measured exactly when the
    prox_{t phi} oracle is available (convex additive problems); L over the
    first 2000 box rows and the probes, plus the accepted prox points.

    For a composite problem the pool keeps c(x) and the Jacobian at the L
    rows from their acceptance, and L and then gamma take them from there
    instead of evaluating the map again: the report gets
    pool_shrink_rounds, the pull rounds of the pool's acceptance, and
    map_eval_rows, the rows at which the run evaluated c and J (additive
    reports get pool_shrink_rounds only). An additive pool's phi and |G_t|
    go GAMMA_ROWS rows at a time, so no temporary grows with the pool.
    """
    is_additive = isinstance(problem, AdditiveProblem)
    extra = cj = L_hat = None
    if is_additive:
        extra = _refine_extremal_rays(problem, ref, nu, t, seed, inner_tol)
    else:
        m, size = problem.c.dim_out, min(n_samples, 2000)
        cj = (np.empty((size, m)), np.empty((size, m, problem.dim)))
    pool = {}
    X, gaps, dists, drawn = _sample_pool(problem, ref, nu, n_samples, seed,
                                         extra, pool, cj)
    del extra  # the pool holds copies of the ray rows
    counts = {"pool_shrink_rounds": pool["shrink_rounds"]}
    alpha = _growth_min(gaps, dists, ref.phi_star, counts)
    head = drawn < min(n_samples, 500)
    L_rows = (drawn < min(n_samples, 2000)) | (drawn >= n_samples)
    if is_additive:
        gamma = _gamma_max(problem, X, dists, t, inner_tol, counts)
        LX, L_dists = X[L_rows], dists[L_rows]
        if problem.f_convex:
            # the L-hat <= L + t chain evaluates the subdifferential ratio
            # at the prox points, so fold those into the L sample set
            L_hat, P = _prox_bound_samples(problem, X[head], dists[head], t,
                                           inner_tol)
            counts["prox_samples"] = int(np.sum(head))
            P = _accepted(problem, ref, nu, P)[0]
            LX = np.vstack([LX, P])
            L_dists = np.concatenate([L_dists, ref.dist_batch(P)])
        L = _subdiff_max(problem, LX, L_dists, counts)
    else:
        # the stacks hold the maps of the draw's first rows, the kept ones
        # of which are the L rows; the gamma head is a prefix of them. The
        # pool's stacks are freed before the solve, which gets the only
        # reference to its copy of the head
        C, J = cj
        del cj
        at = drawn[L_rows]
        if at.size < C.shape[0]:
            C, J = C[at], J[at]
        L = _subdiff_max(problem, X[L_rows], dists[L_rows], counts, (C, J))
        size = int(np.sum(head))
        gamma_cj = [(C[:size].copy(), J[:size].copy())]
        del C, J
        gamma = _gamma_max(problem, X[head], dists[head], t, inner_tol,
                           counts, gamma_cj)
        # L and gamma took every row's map from the pool
        counts["map_eval_rows"] = pool["map_eval_rows"]
    report = ConstantsReport(alpha_hat=alpha, gamma_hat=gamma, L_hat_sub=L,
                             nu=nu, sample_count=n_samples)
    if L_hat is not None:
        report.extras["L_hat_prox"] = L_hat
    report.extras["t"] = float(t)
    report.extras["beta"] = float(problem.beta)
    report.extras.update(counts)
    for name, value in (("alpha_hat", alpha), ("gamma_hat", gamma),
                        ("L_hat_sub", L)):
        if not value > 0.0:
            # the relations divide by these; a value at or below 0 means
            # the samples' gaps or distances are at the roundoff floor
            raise InsufficientData(
                f"measured {name} = {value:.6g} is not positive at "
                f"nu = {nu:.6g}")
    report.checks = verify_constant_relations(alpha, gamma, L, L_hat, t,
                                              problem.beta)
    return report


# ---------------------------------------------------------------------------
# Step-length sandwich, iteration bound, tail rate
# ---------------------------------------------------------------------------

@dataclass
class SandwichReport:
    """Per-point slacks of (1-bt)|G| <= |x - prox_{t phi}(x)|/t <= (1+bt)|G|."""

    lower_slack: np.ndarray
    upper_slack: np.ndarray
    prox_step_norms: np.ndarray
    gnorms: np.ndarray

    @property
    def min_lower_slack(self):
        return float(np.min(self.lower_slack))

    @property
    def min_upper_slack(self):
        return float(np.min(self.upper_slack))


def verify_sandwich(problem, t, points, inner_tol=1e-10):
    """Evaluate the step-length comparison band at the given points.

    Requires convex f (the prox-point oracle); at t = 1/beta the lower
    bound degenerates to zero and is still checked.
    """
    if not (isinstance(problem, AdditiveProblem) and problem.f_convex):
        raise UnsupportedOperation("step-length comparison needs convex f + g")
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    gnorms, _ = _gnorm_batch(problem, X, t, inner_tol)
    P = _prox_point_batch(problem, X, t, inner_tol)
    pp = np.linalg.norm(X - P, axis=1) / t
    bt = problem.f.beta * t
    lower = pp - (1.0 - bt) * gnorms
    upper = (1.0 + bt) * gnorms - pp
    return SandwichReport(lower_slack=lower, upper_slack=upper,
                          prox_step_norms=pp, gnorms=gnorms)


def iteration_bound(beta, nu, gamma, dist0_sq, gap0, eps):
    """Iteration-complexity bound beta/(2 nu) dist0^2 + 2 beta gamma ln(gap0/eps).

    Returns 0 when the initial gap is already within eps; an infinite nu
    drops the burn-in term.
    """
    if gap0 <= eps:
        return 0.0
    first = 0.0 if math.isinf(nu) else beta * dist0_sq / (2.0 * nu)
    return first + 2.0 * beta * gamma * math.log(gap0 / eps)


def fit_tail_rate(trace, phi_star, tail_fraction=0.5):
    """Geometric rate fitted to the trailing objective gaps.

    Least-squares slope of ln(phi(x_k) - phi*) over the trailing
    tail_fraction of iterations, returned as exp(slope); a tail that does
    not decrease gives a rate of 1 or more. Raises InsufficientData when
    fewer than 10 tail points have gap > 1e-14.
    """
    phis = trace.column("phi")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    gaps = phis - phi_star
    n_tail = max(int(math.ceil(tail_fraction * len(gaps))), 1)
    ks = np.arange(len(gaps))[-n_tail:]
    tail = gaps[-n_tail:]
    mask = tail > 1e-14
    if int(np.sum(mask)) < 10:
        raise InsufficientData(
            f"only {int(np.sum(mask))} tail gaps above 1e-14")
    slope = np.polyfit(ks[mask], np.log(tail[mask]), 1)[0]
    return float(np.exp(slope))
