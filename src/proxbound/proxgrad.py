"""Proximal gradient method for f + g and the proximal point oracle.

The prox-gradient mapping G_t(x) = (x - prox_{tg}(x - t grad f(x))) / t is the
optimality surrogate: it vanishes exactly at stationary points, and for
t <= 1/beta each step decreases the objective by at least |G_t|^2 / (2 beta).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import DomainError, InnerSolveError
from .penalties import SeparablePenalty
from .smooth import SmoothFunction
from .vectors import as_vector

INNER_CAP = 10 ** 6
# rows of run_prox_gradient's first iterate and residual arrays; each
# doubles when full
_FIRST_ROWS = 64
# most steps run_prox_gradient takes between two stop tests; at most
# _FIRST_ROWS, so that one doubling of the arrays makes room for a block
_BLOCK = 64


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
    row k is the iterate of row k. No solver keeps wall time: elapsed_s is
    0 on every row, so that reruns write byte-identical traces.
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
        """The trace as CSV text: floats at 17 significant digits, the
        count columns as integers."""
        # one %-format per row (%d truncates a float as int() does), with k
        # the row number; formatting whole columns first would hold a
        # string per cell, ~7 MB more peak memory on a 17.5k-row trace
        cols = [range(len(self)) if name == "k" else self.data[name]
                for name in self.header]
        spec = ",".join("%d" if name in ("k", "backtracks", "inner_iters",
                                         "inner_newton") else "%.17g"
                        for name in self.header)
        rows = map(spec.__mod__, zip(*cols))
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


def _start_value(problem, x, trace, t):
    """phi(x0), taken with numpy's overflow warnings off. When it is not
    finite the solve cannot start: trace then ends with status Diverged on
    x0, with one k = 0 row that holds phi(x0), an inf |G_t| and certificate,
    t in t_accepted when the header has it, and 0 in every other column."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi = problem.phi(x)
    if not np.isfinite(phi):
        row = dict.fromkeys(trace.header, 0.0)
        row.update(phi=phi, gnorm=np.inf, certificate=np.inf, t_accepted=t)
        trace.append(**row)
        trace.status = "Diverged"
        trace.iterates = x[None]
        trace.final_x = x
    return phi


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
    re-validation. A step does only the recursion: f's residual at x_k (Ax
    - b for an affine loss), the gradient from it and the prox step. x_k and
    its residual are stored as rows of two arrays that double when full.

    The stop test runs once per block of steps, over the stored rows:
    |G_t(x_k)| = |x_k - x_{k+1}| / t for every k of the block, then the
    first k with |G_t| <= eps or a non-finite |G_t|, or k = max_iter, ends
    the run there. Blocks take 1, 2, 4, ... steps, at most _BLOCK, so a run
    computes at most min(k, _BLOCK - 1) steps past its stop at row k; they
    are discarded. Each |G_t| is the BLAS dot a per-step norm would
    take, bit for bit.

    phi(x0) is taken once, before the loop, through _start_value: a start
    whose phi is not finite ends the run at once with status Diverged.
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
    the iterate overflow). A non-finite |G_t| stops the run at its row.
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
    trace = IterationTrace(PROXGRAD_HEADER)
    trace.meta = {"t": t, "beta": beta}
    _start_value(problem, x, trace, t)
    if trace.status == "Diverged":
        return trace
    g = problem.g
    eps, last = cfg.eps, cfg.max_iter
    prox = K.penalty_prox
    residual, grad_at = f._residual, f._grad_at
    # row k + 1 holds the step leaving row k, so a run may store max_iter + 2
    first = min(last + 2, _FIRST_ROWS)
    gnorms = []
    # overflow of a diverging iterate is detected below and reported as
    # status Diverged, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        # step 0 sizes the residual array; block [a, b) holds steps a .. b-1
        R = residual(x)
        X = np.empty((first, problem.dim))
        Rs = np.empty((first, R.size))
        X[0], Rs[0] = x, R
        X[1] = x = prox(g, x - t * grad_at(R), t)
        a, b = 0, 1
        while True:
            gn = np.sqrt(K.row_dots((X[a:b] - X[a + 1:b + 1]) / t))
            gnorms.append(gn)
            # rows whose |G_t| is <= eps or not finite
            stop = np.flatnonzero(~((gn > eps) & (gn < np.inf)))
            if stop.size:
                k = a + int(stop[0])
                status = "Converged" if gn[stop[0]] <= eps else "Diverged"
                break
            if b > last:
                k, status = last, "MaxIter"
                break
            a, b = b, min(b + min(2 * (b - a), _BLOCK), last + 1)
            if b >= X.shape[0]:
                X = np.concatenate((X, np.empty_like(X)))
                Rs = np.concatenate((Rs, np.empty_like(Rs)))
            for j in range(a, b):
                R = residual(x)
                Rs[j] = R
                X[j + 1] = x = prox(g, x - t * grad_at(R), t)
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
        gn = np.concatenate(gnorms)[:rows]
        resid = np.zeros(rows)
        resid[:-1] = phi[:-1] - phi[1:] - gn[:-1] * gn[:-1] / (2.0 * beta)
        cert = (1.0 + beta * t) * gn
    trace.data = {"k": np.arange(rows, dtype=np.float64).tolist(),
                  "phi": phi.tolist(), "gnorm": gn.tolist(),
                  "descent_residual": resid.tolist(),
                  "certificate": cert.tolist(),
                  "elapsed_s": [0.0] * rows}
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
    otherwise. The overflow itself raises no numpy warning."""
    t = float(t)
    s = 1.0 / (problem.f.beta + 1.0 / t)
    Y = np.array(X, dtype=np.float64)
    for it in range(1, INNER_CAP + 1):
        with np.errstate(over="ignore", invalid="ignore"):
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
