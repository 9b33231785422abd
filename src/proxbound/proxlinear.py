"""Prox-linear method for g + h(c(x)) with h convex finite and c smooth.

Each outer step minimizes the convex model
    g(y) + h(c(x) + J(x)(y - x)) + |y - x|^2 / (2t)
whose solution is recovered from a box-constrained dual (see
solve_subproblem), and moves to it. Every step takes one t, at most
1/(L beta): at such a t each step decreases the true objective by at
least (t/2)|G_t(x)|^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import InnerSolveError
from .penalties import (AbsValue, CheckFunction, EpsilonInsensitive,
                        HuberEnvelope, SeparablePenalty)
from .proxgrad import (INNER_CAP, IterationTrace, _start_point, _start_value,
                       _step)
from .smooth import SmoothMap, operator_norm_sq
from .vectors import as_vector

FINITE_H_KINDS = (AbsValue, EpsilonInsensitive, CheckFunction, HuberEnvelope)

PROXLINEAR_HEADER = ("k", "phi", "gnorm", "t_accepted", "inner_iters",
                     "inner_newton", "decrease_residual", "certificate",
                     "elapsed_s")


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


def _solve_subproblem_batch(problem, X, t, inner_tol, W0=None, cj=None,
                            fx=None):
    """Subproblem minimizers at every row of X for one step t, from one
    stacked dual ascent started at the (B, m) duals W0 (None: zeros).
    Returns (Y, the duals W at which the rows stopped, the (B,) dual
    iterations of each row, total Newton steps tried over the rows).
    Each row's dual step is 1/(t|J_b|^2 + curv), curv the larger of 1 and
    the quadratic coefficient of h.dual_box(); the kernel reads h's other
    dual floats itself, and stops a row once its model value is at most
    phi(x_b) up to its roundoff slack.

    cj, when the caller has already evaluated the map, is a list holding
    the one pair (c(X), Jacobian stack at X); the call takes the pair out
    of the list, so that it holds the only reference to the stack. fx,
    when the caller holds it, is phi at the rows of X, (B,). With either
    None it is taken here; both give the same bits. A Jacobian whose Gram
    J^T J overflows raises InnerSolveError before any step."""
    if t <= 0:
        raise ValueError("t must be positive")
    X = np.ascontiguousarray(X, dtype=np.float64)
    C, J = cj.pop() if cj else problem.c.eval_jac_batch(X)
    # dual smooth part has curvature t|J|^2 plus the huber quadratic term
    curv = max(1.0, problem.h.dual_box()[3])
    with np.errstate(over="ignore", invalid="ignore"):
        norms = operator_norm_sq(J)
    if not np.all(np.isfinite(norms)):
        # a finite c(x) can come with a J whose Gram J^T J overflows
        raise InnerSolveError("subproblem Jacobian Gram J^T J overflows: "
                              "|J|^2 is not finite")
    steps = 1.0 / (t * norms + curv)
    if fx is None:
        fx = problem.g.value_batch(X) + problem.h.value_batch(C)
    # with the local name dropped the call holds the only reference to J
    # (CPython 3.11 on hands a call's arguments over to the callee), so
    # each compaction of the ascent's rows frees the stack it replaces
    jac = [J]
    del J
    Y, W, _, _, iters, newton = K.dual_ascent(
        problem.g, problem.h, jac.pop(), C, X, float(t), steps,
        float(inner_tol), fx, INNER_CAP, W0=W0)
    return Y, W, iters, newton


def solve_subproblem(problem, x, t, inner_tol=1e-10, counts=None,
                     dual=None, cj=None, fx=None):
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
    y does not exceed phi(x) + 1e-12 (1 + |phi(x)|) (y = x is feasible
    with exactly phi(x)).
    A caller that holds the map at x passes it as cj, the list
    [(c(x) as (1, m), J(x) as (1, m, n))] that the call empties, and one
    that holds phi(x) passes it as fx; otherwise both are taken here, with
    the same bits.
    A dict passed as counts receives dual_iters and newton_steps, the dual
    iterations and the Newton steps tried that the solve took, and dual,
    the (m,) dual at which it stopped.
    """
    x = as_vector(x, problem.dim)
    W0 = None if dual is None else np.asarray(dual, dtype=np.float64)[None]
    Y, W, iters, newton = _solve_subproblem_batch(
        problem, x[None, :], t, inner_tol, W0, cj,
        None if fx is None else [fx])
    if counts is not None:
        counts["dual_iters"] = int(iters[0])
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
    """Algorithm knobs: initial step and tolerances.

    The solve takes t = min(t0, 1/(L beta)), or 1/(L beta) when t0 is None
    (proxgrad._step; with L beta = 0, t0 itself, or 1.0). Its required
    decrease phi(x^t) <= phi(x) - (t/2)|G_t|^2 is then a theorem at that t.
    """

    t0: float = None
    eps: float = 1e-9
    max_iter: int = 1000
    inner_tol: float = 1e-10

    def __post_init__(self):
        if self.t0 is not None and self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.eps <= 0 or self.inner_tol <= 0 or self.max_iter <= 0:
            raise ValueError("eps, inner_tol and max_iter must be positive")


# a decrease test whose required decrease (t/2)|G_t|^2 is below this many
# ulp(phi(x)) cannot pass or fail on anything but roundoff
STALL_ULPS = 4


def _phi_and_map(problem, y):
    """phi(y), with numpy's overflow warnings off, and the pair
    (c(y), J(y)) it is taken from, as the list that solve_subproblem's cj
    takes: one map evaluation serves the decrease test at y and the
    subproblem at y. The same bits as problem.phi(y), and the same error
    on a y that is not finite (ValueError); a c(y) that overflows gives a
    phi of inf or NaN."""
    y = as_vector(y, problem.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        C, J = problem.c.eval_jac_batch(y[None])
        phi = K.penalty_value(problem.g, y) + K.penalty_value(problem.h, C[0])
    return phi, [(C, J)]


def run_prox_linear(problem, x0, cfg=None):
    """Prox-linear iteration x_{k+1} = the model minimizer at x_k with one
    step t (ProxLinearConfig), terminating on |G_t(x_k)| <= eps.

    Each step solves one subproblem, from the dual at which the previous
    solve stopped: consecutive subproblems differ little, and the start
    carries the active pieces of their duals. It then takes phi at the
    new point, with numpy's overflow warnings off, and writes one trace
    row: the step t, the dual-ascent iterations and the Newton steps tried
    in the solve, the decrease residual
    phi(x_k) - phi(x_{k+1}) - (t/2)|G_t|^2 and the near-stationarity
    certificate. Every step is taken: at a t above what the true L beta
    licenses (a declared L or beta below the true one) the residual may
    come out negative, and the CLI's sufficient_decrease check FAILs it.
    The map is evaluated once per step: phi(x_{k+1}) is taken from
    (c(x_{k+1}), J(x_{k+1})), which the next subproblem then receives,
    together with phi(x_{k+1}) as its value bound (see solve_subproblem).

    Ends with status Converged, MaxIter, Stalled or Diverged; the last row
    has decrease_residual 0. Stalled: the decrease test
    phi(x_{k+1}) <= phi(x_k) - (t/2)|G_t|^2 fails while its required
    decrease lies below STALL_ULPS ulp(phi(x_k)), so x_k is as stationary
    as floating point can certify; the run ends on x_k. Diverged: phi is not
    finite at x0 (the one row that proxgrad._start_value writes) or at
    x_{k+1}, as when c overflows there; the run then ends on x_k, its last
    finite iterate.
    """
    cfg = cfg or ProxLinearConfig()
    x = _start_point(problem, x0)
    t = _step(cfg.t0, problem.L * problem.beta)
    trace = IterationTrace(PROXLINEAR_HEADER)
    trace.meta = {"t": t, "L": problem.L, "beta": problem.beta}
    phi_x = _start_value(problem, x, trace, t)
    if trace.status == "Diverged":
        return trace
    counts = {"dual": None}
    cj = None
    iterates = []
    for k in range(cfg.max_iter + 1):
        y = solve_subproblem(problem, x, t, cfg.inner_tol, counts,
                             counts["dual"], cj, phi_x)
        d = x - y
        gnorm = math.sqrt(np.dot(d, d)) / t
        iterates.append(x)
        status, resid = None, 0.0
        if gnorm <= cfg.eps:
            status = "Converged"
        elif k == cfg.max_iter:
            status = "MaxIter"
        else:
            # c(y) may overflow: phi(y) is then inf or NaN, and the run
            # ends on x
            phi_y, cj = _phi_and_map(problem, y)
            required = 0.5 * t * gnorm * gnorm
            if not math.isfinite(phi_y):
                status = "Diverged"
            elif (not phi_y <= phi_x - required
                  and required < STALL_ULPS * np.spacing(abs(phi_x))):
                status = "Stalled"
            else:
                resid = phi_x - phi_y - required
        cert = near_stationarity_certificate(problem, gnorm, t)
        trace.append(k=k, phi=phi_x, gnorm=gnorm, t_accepted=t,
                     inner_iters=counts["dual_iters"],
                     inner_newton=counts["newton_steps"],
                     decrease_residual=resid, certificate=cert, elapsed_s=0.0)
        if status:
            trace.status = status
            break
        x = y
        phi_x = phi_y
    trace.iterates = np.array(iterates)
    trace.final_x = x
    return trace
