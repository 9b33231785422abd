"""Prox-linear method for g + h(c(x)) with h convex finite and c smooth.

Each outer step minimizes the convex model
    g(y) + h(c(x) + J(x)(y - x)) + |y - x|^2 / (2t)
whose solution is recovered from a box-constrained dual (see
solve_subproblem), then backtracks t until the accepted step decreases the
true objective by at least (sigma/2)|G_t(x)|^2.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import InnerSolveError
from .penalties import (AbsValue, CheckFunction, EpsilonInsensitive,
                        HuberEnvelope, SeparablePenalty)
from .proxgrad import INNER_CAP, IterationTrace, _start_point, _start_value
from .smooth import SmoothMap, operator_norm_sq
from .vectors import as_vector

FINITE_H_KINDS = (AbsValue, EpsilonInsensitive, CheckFunction, HuberEnvelope)

PROXLINEAR_HEADER = ("k", "phi", "gnorm", "t_accepted", "backtracks",
                     "inner_iters", "inner_newton", "decrease_residual",
                     "certificate", "elapsed_s")


@dataclass(frozen=True)
class CompositeProblem:
    """Instance of min_x g(x) + h(c(x)).

    h must be one of the finite-valued Lipschitz kinds; L defaults to the
    analytic Lipschitz constant of h on R^m and beta to the declared
    Jacobian modulus of c.
    """

    g: SeparablePenalty
    h: SeparablePenalty
    c: SmoothMap
    L: float = None
    beta: float = None

    def __post_init__(self):
        if not isinstance(self.h, FINITE_H_KINDS):
            raise TypeError(
                f"h must be a finite Lipschitz penalty, got {type(self.h).__name__}")
        if self.L is None:
            object.__setattr__(self, "L", self.h.lipschitz_bound(self.c.dim_out))
        if self.beta is None:
            object.__setattr__(self, "beta", float(self.c.jac_beta))

    @property
    def dim(self):
        return self.c.dim_in

    def phi(self, x):
        x = as_vector(x, self.dim)
        # c(x) may overflow; h's kernel then gives inf or NaN, where
        # h.value would reject the point, and a solve that starts there
        # reports divergence
        return self.g.value(x) + K.penalty_value(self.h, self.c.value(x))

    def phi_batch(self, X):
        """phi at every row of X; it stacks one m x n Jacobian per row."""
        return (self.g.value_batch(X)
                + self.h.value_batch(self.c.eval_jac_batch(X)[0]))


def _solve_subproblem_batch(problem, X, t, inner_tol, W0=None):
    """Subproblem minimizers at every row of X for one step t, from one
    stacked dual ascent started at the (B, m) duals W0 (None: zeros).
    Returns (Y, the duals W at which the rows stopped, total dual
    iterations over the rows, total Newton steps tried over the rows)."""
    if t <= 0:
        raise ValueError("t must be positive")
    X = np.ascontiguousarray(X, dtype=np.float64)
    C, J = problem.c.eval_jac_batch(X)
    m = problem.c.dim_out
    hdual = problem.h.dual_box(m)
    # dual smooth part has curvature t|J|^2 plus the huber quadratic term
    curv = max(1.0, float(np.max(hdual[3])) if m else 1.0)
    steps = 1.0 / (t * operator_norm_sq(J) + curv)
    fx = problem.g.value_batch(X) + problem.h.value_batch(C)
    fslack = 1e-12 * (1.0 + np.abs(fx))
    Y, W, _, iters, _, newton = K.dual_ascent(
        problem.g, problem.h, hdual, J, C, X, float(t), steps,
        float(inner_tol), fx, fslack, INNER_CAP, W0)
    return Y, W, iters, newton


def solve_subproblem(problem, x, t, inner_tol=1e-10, counts=None,
                     dual=None):
    """Minimizer of the proximal model at base point x with step t.

    The model is solved through its Fenchel dual in w (a box, plus an l1
    term for the vapnik penalty and a quadratic for the huber envelope) by
    accelerated projected gradient ascent (FISTA with adaptive restart) with
    step 1/(t|J|^2 + curv), |J|^2 the exact squared spectral norm
    (smooth.operator_norm_sq) and curv the larger of 1 and the huber
    envelope's dual curvature. Once the dual fixed-point residual is at
    most _kernels.NEWTON_SWITCH, semismooth Newton steps on it finish the
    solve; after a rejected step at residual r the next is tried only once
    the residual is at most _kernels.NEWTON_RETRY * r (see
    _kernels.dual_ascent). The ascent starts from the (m,) dual `dual`,
    typically where a nearby solve stopped, or from zeros when it is None;
    a start is clipped to h's dual box and tries a Newton step at once.
    The primal point is recovered as y = prox_{tg}(x - t J^T w).
    Terminates once the residual drops to inner_tol and the model value at
    y does not exceed phi(x) (y = x is feasible with exactly that value).
    A dict passed as counts receives dual_iters and newton_steps, the dual
    iterations and the Newton steps tried that the solve took, and dual,
    the (m,) dual at which it stopped.
    """
    x = as_vector(x, problem.dim)
    W0 = None if dual is None else np.asarray(dual, dtype=np.float64)[None]
    Y, W, iters, newton = _solve_subproblem_batch(problem, x[None, :], t,
                                                  inner_tol, W0)
    if counts is not None:
        counts["dual_iters"] = iters
        counts["newton_steps"] = newton
        counts["dual"] = W[0]
    return Y[0]


def near_stationarity_certificate(problem, gnorm, t):
    """(3 L beta t + 2) |G_t(x)|: a bound on the stationarity measure of a
    point within |x^t - x| of x^t. Justifies terminating on short steps."""
    if gnorm < 0 or t <= 0:
        raise ValueError("gnorm must be nonnegative and t positive")
    return (3.0 * problem.L * problem.beta * t + 2.0) * gnorm


@dataclass(frozen=True)
class ProxLinearConfig:
    """Algorithm knobs: initial step, backtracking factor, tolerances.

    sigma=None selects the adaptive policy sigma = t (acceptance test
    phi(x^t) <= phi(x) - (t/2)|G_t|^2, guaranteed to pass once
    t <= 1/(L beta)); a float fixes sigma.
    """

    t0: float = None
    q: float = 0.5
    eps: float = 1e-9
    max_iter: int = 1000
    inner_tol: float = 1e-10
    sigma: float = None

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0,1)")
        for name in ("t0", "sigma"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive")
        if self.eps <= 0 or self.inner_tol <= 0 or self.max_iter <= 0:
            raise ValueError("eps, inner_tol and max_iter must be positive")


T_UNDERFLOW = 1e-12

# an Armijo test whose required decrease (sigma/2)|G_t|^2 is below this many
# ulp(phi(x)) cannot pass or fail on anything but roundoff
STALL_ULPS = 4


def run_prox_linear(problem, x0, cfg=None):
    """Backtracking prox-linear iteration, terminating on |G_t(x_k)| <= eps.

    t is never reset upward between iterations: the tail rate is set by
    t, so a run's rate is that of its smallest accepted step. Every
    subproblem solve after the first starts from the dual at which the
    previous one stopped, at the next x or, after a backtrack, at the same
    x with the smaller t: consecutive subproblems differ little, and the
    start carries the active pieces of their duals. Each trace
    row records the accepted step, the backtrack
    count, the dual-ascent iterations and the Newton steps tried in the
    step's subproblem solves (both summed over its backtracks), the
    decrease residual phi(x_k) - phi(x_{k+1}) - (sigma/2)|G_t|^2 and the
    near-stationarity certificate.

    Ends with status Converged, MaxIter, or Stalled when an Armijo test
    fails while its required decrease (sigma/2)|G_t|^2 lies below
    STALL_ULPS ulp(phi(x_k)): x_k is then as stationary as floating point
    can certify, and its row (with the current t, the backtracks so far
    and decrease_residual 0) is the last one. A start whose phi is not
    finite ends the run at once with status Diverged, on the one row that
    proxgrad._start_value writes.
    """
    cfg = cfg or ProxLinearConfig()
    x = _start_point(problem, x0)
    lb = problem.L * problem.beta
    t = cfg.t0 if cfg.t0 is not None else (1.0 / lb if lb > 0 else 1.0)
    trace = IterationTrace(PROXLINEAR_HEADER)
    trace.meta = {"t0": t, "L": problem.L, "beta": problem.beta}
    phi_x = _start_value(problem, x, trace, t)
    if trace.status == "Diverged":
        return trace
    counts = {"dual": None}
    iterates = []
    for k in range(cfg.max_iter + 1):
        y = solve_subproblem(problem, x, t, cfg.inner_tol, counts,
                             counts["dual"])
        inner_iters = counts["dual_iters"]
        inner_newton = counts["newton_steps"]
        gnorm = float(np.linalg.norm(x - y)) / t
        iterates.append(x)
        status = None
        if gnorm <= cfg.eps:
            status = "Converged"
        elif k == cfg.max_iter:
            status = "MaxIter"
        backtracks = 0
        while status is None:
            sigma = t if cfg.sigma is None else cfg.sigma
            phi_y = problem.phi(y)
            required = 0.5 * sigma * gnorm * gnorm
            if phi_y <= phi_x - required:
                break
            if required < STALL_ULPS * np.spacing(abs(phi_x)):
                status = "Stalled"
                break
            t *= cfg.q
            if t < T_UNDERFLOW:
                raise InnerSolveError(
                    "backtracking underflow: step fell below 1e-12",
                    residual=gnorm, iterations=k)
            y = solve_subproblem(problem, x, t, cfg.inner_tol, counts,
                                 counts["dual"])
            inner_iters += counts["dual_iters"]
            inner_newton += counts["newton_steps"]
            gnorm = float(np.linalg.norm(x - y)) / t
            backtracks += 1
        cert = near_stationarity_certificate(problem, gnorm, t)
        resid = 0.0 if status else phi_x - phi_y - 0.5 * sigma * gnorm * gnorm
        trace.append(k=k, phi=phi_x, gnorm=gnorm, t_accepted=t,
                     backtracks=backtracks, inner_iters=inner_iters,
                     inner_newton=inner_newton, decrease_residual=resid,
                     certificate=cert, elapsed_s=0.0)
        if status:
            trace.status = status
            break
        x = y
        phi_x = phi_y
    trace.iterates = np.array(iterates)
    trace.final_x = x
    return trace
