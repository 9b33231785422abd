"""Proximal gradient method for f + g and the proximal point oracle.

The prox-gradient mapping G_t(x) = (x - prox_{tg}(x - t grad f(x))) / t is the
optimality surrogate: it vanishes exactly at stationary points, and for
t <= 1/beta each step decreases the objective by at least |G_t|^2 / (2 beta).
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import DomainError, InnerSolveError, UnsupportedOperation
from .penalties import SeparablePenalty
from .smooth import SmoothFunction
from .vectors import as_vector

INNER_CAP = 10 ** 6
# rows of run_prox_gradient's first iterate and residual arrays; each
# doubles when full
_FIRST_ROWS = 64


@dataclass(frozen=True)
class AdditiveProblem:
    """Instance of min_x f(x) + g(x) with f smooth and g separable convex."""

    f: SmoothFunction
    g: SeparablePenalty
    f_convex: bool = True

    @property
    def dim(self):
        return self.f.dim

    @property
    def beta(self):
        """Lipschitz modulus of grad f."""
        return self.f.beta

    def phi(self, x):
        return self.f.value(x) + self.g.value(x)

    def phi_batch(self, X):
        return self.f.value_batch(X) + self.g.value_batch(X)


@dataclass(frozen=True)
class ProxGradConfig:
    """Solver knobs; t defaults to 1/beta when left unset."""

    t: float = None
    max_iter: int = 20000
    eps: float = 1e-10

    def __post_init__(self):
        if self.t is not None and self.t <= 0:
            raise ValueError("step t must be positive")
        if self.max_iter <= 0 or self.eps <= 0:
            raise ValueError("max_iter and eps must be positive")


class IterationTrace:
    """Per-iteration solver record consumed by diagnostics and the CLI.

    One row per visited iterate; the residual columns describe the step
    leaving that iterate (zero on the terminal row). Objective values are
    nonincreasing up to roundoff. data maps each header name to a list of
    floats; a solver sets iterates to a (len(trace), n) float array whose
    row k is the iterate of row k.
    """

    def __init__(self, header):
        self.header = tuple(header)
        self.data = {name: [] for name in self.header}
        self.iterates = None
        self.status = "MaxIter"
        self.final_x = None
        self.meta = {}

    def append(self, **row):
        for name in self.header:
            self.data[name].append(float(row[name]))

    def column(self, name):
        return np.asarray(self.data[name])

    def __len__(self):
        return len(self.data["k"])

    @property
    def iterations(self):
        """Number of steps taken (terminal row excluded)."""
        return len(self) - 1

    def to_csv(self):
        """The trace as CSV text, with every elapsed_s cell written as 0 so
        that reruns are byte-identical (the measured times stay on the
        in-memory trace)."""
        # one %-format per row (%d truncates a float as int() does);
        # formatting whole columns first would hold a string per cell, ~7 MB
        # more peak memory on a 17.5k-row trace
        cols, specs = [], []
        for name in self.header:
            vals = self.data[name]
            if name == "elapsed_s":
                vals = [0.0] * len(vals)
            cols.append(vals)
            specs.append("%d" if name in ("k", "backtracks", "inner_iters",
                                          "inner_newton") else "%.17g")
        rows = map(",".join(specs).__mod__, zip(*cols))
        return "\n".join([",".join(self.header), *rows]) + "\n"


PROXGRAD_HEADER = ("k", "phi", "gnorm", "descent_residual", "certificate",
                   "elapsed_s")


def _start_point(problem, x0):
    """x0 as a new float vector of the problem's dimension, the start of a
    solve; raises DomainError unless it lies in dom g."""
    x = as_vector(x0, problem.dim).copy()
    if not problem.g.in_domain(x):
        raise DomainError("x0 lies outside dom g")
    return x


def _effective_step(problem, cfg):
    t = cfg.t if cfg.t is not None else 1.0 / problem.f.beta
    tmax = 1.0 / problem.f.beta
    if t > tmax:
        warnings.warn(
            f"step t={t:g} exceeds 1/beta={tmax:g}; clamping", stacklevel=3)
        t = tmax
    return t


def run_prox_gradient(problem, x0, cfg=None):
    """Iterate x_{k+1} = prox_{tg}(x_k - t grad f(x_k)) until |G_t| <= eps.

    x0 is validated once (finite, of the problem's dimension, inside dom g);
    each step then calls the kernels directly, with no per-call
    re-validation. The loop keeps only what the recursion and its stop test
    need: the prox step, |G_t(x_k)|, f's residual at the new iterate (Ax - b
    for an affine loss) and the gradient from it. The iterate and its
    residual are stored as rows of two arrays that double when full.

    Neither f nor g is evaluated inside the loop. After it, one call over
    the stored residuals gives f at every iterate, and one kernel call over
    the stored iterates gives g there. Both reduce each row exactly as a
    lone point would be reduced, so phi = f + g is bit for bit what a
    per-step evaluation gives. The descent-inequality residual
    phi(x_k) - phi(x_{k+1}) - |G_t(x_k)|^2/(2 beta)  (nonnegative up to
    roundoff whenever t <= 1/beta) and the stationarity certificate
    (1 + beta t)|G_t(x_k)| are formed as whole columns.

    trace.status is "Converged" once |G_t| <= eps, "MaxIter" after
    max_iter steps, or "Diverged" (a step too long for the true f makes
    the iterate overflow). Only a non-finite |G_t| stops the loop at once.
    A non-finite phi at an iterate after x0 is found after the loop and
    cuts the trace at the iterate before the first such point, so a run
    whose f overflows while |G_t| stays finite runs on to its own stop test
    and then reports Diverged. A diverged trace ends on its last kept
    iterate, with that iterate's |G_t| and a zero descent residual.
    """
    cfg = cfg or ProxGradConfig()
    x = _start_point(problem, x0)
    t = float(_effective_step(problem, cfg))
    f = problem.f
    beta = f.beta
    g = problem.g
    prox = K.penalty_prox
    residual, grad_at = f._residual, f._grad_at
    first = min(cfg.max_iter + 1, _FIRST_ROWS)
    gnorms, elapsed = [], []
    add_gnorm, add_elapsed = gnorms.append, elapsed.append
    clock = time.perf_counter
    start = clock()
    # overflow of a diverging iterate is detected below and reported as
    # status Diverged, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        R = residual(x[None, :])
        grad = grad_at(R)[0]
        X = np.empty((first, problem.dim))
        Rs = np.empty((first, R.shape[1]))
        X[0] = x
        Rs[0] = R
        for k in range(cfg.max_iter + 1):
            y = prox(g, x - t * grad, t)
            d = (x - y) / t
            # what np.linalg.norm computes for a 1-D float vector
            gnorm = math.sqrt(d.dot(d))
            add_gnorm(gnorm)
            if gnorm <= cfg.eps:
                status = "Converged"
            elif not math.isfinite(gnorm):
                status = "Diverged"
            elif k == cfg.max_iter:
                status = "MaxIter"
            else:
                R = residual(y[None, :])
                grad = grad_at(R)[0]
                add_elapsed(clock() - start)
                if k + 1 == X.shape[0]:
                    X = np.concatenate((X, np.empty_like(X)))
                    Rs = np.concatenate((Rs, np.empty_like(Rs)))
                X[k + 1] = y
                Rs[k + 1] = R
                x = y
                continue
            add_elapsed(clock() - start)
            break
        rows = k + 1
        phi = f._value_at(Rs[:rows])
        # free the residuals before g's temporaries are made: holding both
        # raised the peak memory of a 17.5k-step run by ~1 MB
        del Rs
        phi += K.penalty_value(g, X[:rows])
        bad = np.flatnonzero(~np.isfinite(phi[1:]))
        if bad.size:
            rows = int(bad[0]) + 1
            status = "Diverged"
        phi = phi[:rows]
        gn = np.array(gnorms[:rows])
        resid = np.zeros(rows)
        resid[:-1] = phi[:-1] - phi[1:] - gn[:-1] * gn[:-1] / (2.0 * beta)
        cert = (1.0 + beta * t) * gn
    trace = IterationTrace(PROXGRAD_HEADER)
    trace.meta = {"t": t, "beta": beta}
    trace.data = {"k": np.arange(rows, dtype=np.float64).tolist(),
                  "phi": phi.tolist(), "gnorm": gnorms[:rows],
                  "descent_residual": resid.tolist(),
                  "certificate": cert.tolist(),
                  "elapsed_s": elapsed[:rows]}
    trace.iterates = X[:rows]
    trace.status = status
    trace.final_x = X[rows - 1].copy()
    return trace


def _prox_point_batch(problem, X, t, inner_tol):
    """High-accuracy prox_{t phi}(x) for convex phi = f + g at every row x
    of X.

    Each row solves min_y phi(y) + |y - x|^2/(2t) by prox-gradient on the
    smooth part f + |.-x|^2/(2t) with step s = 1/(beta + 1/t); the auxiliary
    problem is (1/t)-strongly convex, so the loop is finite and fast. It
    stops once every row's |G_s(y)| <= inner_tol. Raises InnerSolveError at
    once when a residual stops being finite (a declared beta below the true
    modulus makes the inner steps overflow), and after INNER_CAP iterations
    otherwise."""
    t = float(t)
    s = 1.0 / (problem.f.beta + 1.0 / t)
    Y = np.array(X, dtype=np.float64)
    for it in range(1, INNER_CAP + 1):
        grad = problem.f.grad_batch(Y) + (Y - X) / t
        Ynew = problem.g.prox_batch(Y - s * grad, s)
        res = np.linalg.norm(Ynew - Y, axis=1) / s
        Y = Ynew
        worst = float(np.max(res))
        if worst <= inner_tol:
            return Y
        if not math.isfinite(worst):
            raise InnerSolveError(
                f"proximal point inner loop residual is {worst} at "
                f"iteration {it}", residual=worst, iterations=it)
    raise InnerSolveError("proximal point inner loop hit its cap",
                          residual=worst, iterations=INNER_CAP)


def run_proximal_point(problem, x0, cfg=None):
    """Proximal point algorithm z_{k+1} = prox_{t phi}(z_k) (oracle runner).

    The gnorm column holds |z_k - z_{k+1}|/t, which is a subgradient of phi
    at z_{k+1}; the certificate column repeats it. Requires convex f, and
    raises DomainError for an x0 outside dom g.
    """
    cfg = cfg or ProxGradConfig()
    if not problem.f_convex:
        raise UnsupportedOperation("proximal point oracle needs convex f")
    x = _start_point(problem, x0)
    t = cfg.t if cfg.t is not None else 1.0 / problem.f.beta
    inner_tol = min(cfg.eps * 1e-2, 1e-10)
    trace = IterationTrace(PROXGRAD_HEADER)
    trace.meta = {"t": t, "beta": problem.f.beta}
    start = time.perf_counter()
    phi_x = problem.phi(x)
    iterates = []
    for k in range(cfg.max_iter + 1):
        y = _prox_point_batch(problem, x[None, :], t, inner_tol)[0]
        pnorm = float(np.linalg.norm(x - y)) / t
        iterates.append(x)
        if pnorm <= cfg.eps or k == cfg.max_iter:
            trace.append(k=k, phi=phi_x, gnorm=pnorm, descent_residual=0.0,
                         certificate=pnorm,
                         elapsed_s=time.perf_counter() - start)
            trace.status = "Converged" if pnorm <= cfg.eps else "MaxIter"
            break
        phi_y = problem.phi(y)
        resid = phi_x - phi_y - t * pnorm * pnorm / 2.0
        trace.append(k=k, phi=phi_x, gnorm=pnorm, descent_residual=resid,
                     certificate=pnorm, elapsed_s=time.perf_counter() - start)
        x = y
        phi_x = phi_y
    trace.iterates = np.array(iterates)
    trace.final_x = x
    return trace
