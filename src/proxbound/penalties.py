"""Catalog of separable closed convex penalties.

Each penalty knows its exact value, proximal operator, coordinatewise
subdifferential intervals, Moreau envelope and envelope gradient, all as
methods. The AbsValue/BoxIndicator pair additionally exposes the conjugate
prox needed for the resolvent decomposition identity.

Penalties are immutable; all operations are pure functions of their inputs.
Each class holds its own formulas as private methods over points along the
last axis of X, a single point (n,) or a stack (..., n): ``_value``,
``_prox_map``, ``_subgrad`` and ``_prox_deriv``, the derivative of the
proximal map that the dual ascent's Newton steps use. ``_prox_map(t)``
forms the scalars of prox_{tg} once, as 0-d float64 arrays (numpy charges
each Python-float operand of an array operation a conversion), and returns
the map ``prox(X, out=None)``; the loops that hold t fixed take it once
(the proximal-gradient recursion, the proximal point oracle, the dual
ascent), and one-off calls go through
:func:`proxbound._kernels.penalty_prox`, as every value goes through
:func:`proxbound._kernels.penalty_value`. Every parameter is one float,
the same on every coordinate, fixed at construction and read by the
formulas directly; so the formulas fit points of any dimension.
Construction rejects an array parameter (DimensionMismatch), NaN, and an
infinite parameter other than a box bound.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import _kernels as K
from .errors import DimensionMismatch, DomainError, UnsupportedOperation
from .specs import build_from_spec
from .vectors import as_points, as_vector


class SeparablePenalty:
    """Base class: a separable closed convex function g(x) = sum_i g_i(x_i).

    Each subclass defines its formulas over the points along the last axis
    of X: _value(X), g at each point; _prox_map(t), the map
    prox(X, out=None) that gives prox_{tg} at every point of X, written
    into out (an array of X's shape that does not overlap X) and returned
    when out is given; _subgrad(X), the coordinatewise subdifferential
    (lo, hi) at points of the domain; and _prox_deriv(X, t), the derivative
    of each coordinate of prox_{tg}, at a kink that of the piece the map
    selects there. _prox_map checks its step once, through _prox_step: a
    step that is not > 0 (NaN included) raises ValueError, and every
    method that takes a step inherits the check. Every catalog penalty but
    the box is finite on R^n, so only the box overrides _inside(X), whether
    every point lies in the domain.
    """

    def __post_init__(self):
        # every parameter is one float that the formulas read directly and
        # lies in (0, inf), tau in (0, 1), so NaN and inf are rejected; the
        # box has its own rule
        for f in fields(self):
            v = _one_float(self, f.name)
            upper = 1.0 if f.name == "tau" else np.inf
            if not 0.0 < v < upper:
                raise ValueError(f"{_SPEC_NAMES.get(f.name, f.name)} must "
                                 f"lie in (0, {upper:g})")
            object.__setattr__(self, f.name, v)

    # -- core operations ----------------------------------------------------

    def value(self, x):
        x = as_vector(x, name="x")
        return K.penalty_value(self, x)

    def prox(self, x, t):
        return K.penalty_prox(self, as_vector(x, name="x"), t)

    def subgrad_bounds(self, x):
        """(lo, hi) arrays of the coordinatewise subdifferential at every
        point along the last axis of x: a point (n,) or a stack (..., n).
        Raises DomainError if any point lies outside the domain."""
        x = as_points(x, name="x")
        if not self._inside(x):
            raise DomainError("x lies outside the penalty domain")
        return self._subgrad(x)

    def moreau_envelope(self, x, t):
        x = as_vector(x, name="x")
        p = self.prox(x, t)
        d = p - x
        return self.value(p) + float(d @ d) / (2.0 * float(t))

    def moreau_grad(self, x, t):
        x = as_vector(x, name="x")
        return (x - self.prox(x, t)) / float(t)

    def in_domain(self, x):
        """Whether the point x lies in dom g. No formula is evaluated: g's
        value and its subgradient can overflow on a point of its domain."""
        x = as_vector(x, name="x")
        return self._inside(x)

    def _inside(self, X):
        return True

    # -- batch helpers (points along the last axis of X) -------------------

    def value_batch(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        return K.penalty_value(self, X)

    def prox_batch(self, X, t):
        X = np.ascontiguousarray(X, dtype=np.float64)
        return K.penalty_prox(self, X, t)

    # -- conjugate / dual descriptions ---------------------------------------

    def conjugate_prox(self, z, s):
        raise UnsupportedOperation(
            f"{type(self).__name__} has no implemented conjugate prox")

    def decomposition_residual(self, x, t):
        """|prox_tg(x) + t prox_{g*/t}(x/t) - x|, zero by the resolvent identity."""
        x = as_vector(x, name="x")
        t = float(t)
        left = self.prox(x, t)
        right = t * self.conjugate_prox(x / t, 1.0 / t)
        return float(np.linalg.norm(left + right - x))

    def dual_box(self):
        """Box, l1 and quadratic coefficients of the conjugate h*.

        Returns the floats (lo, hi, l1, quad) such that, in any dimension,
        h*(w) = sum_i [ indicator(lo <= w_i <= hi) + l1 |w_i| + quad w_i^2/2 ]:
        h is separable with one parameter set, so every coordinate shares
        them. Available only for the finite Lipschitz kinds.
        """
        raise UnsupportedOperation(
            f"{type(self).__name__} cannot act as the outer function h")

    def lipschitz_bound(self, dim):
        """Euclidean Lipschitz constant of the penalty on R^dim."""
        lo, hi, _, _ = self.dual_box()
        return float(np.linalg.norm(np.full(dim, max(abs(lo), abs(hi)))))


def _one_float(penalty, name):
    """The parameter name of penalty as a float; an array of any shape,
    (1,) included, raises DimensionMismatch."""
    v = getattr(penalty, name)
    if np.ndim(v) != 0:
        raise DimensionMismatch(f"{_SPEC_NAMES.get(name, name)} must be one "
                                f"float, got shape {np.shape(v)}")
    return float(v)


def _prox_step(t):
    """The step t of prox_{tg} as a float; ValueError, naming t, unless
    t > 0, so NaN is rejected too. t = inf is a step: every catalog map
    then gives its limit, the point of argmin g nearest x."""
    if not t > 0:
        raise ValueError(f"prox step t must be positive, got t = {t}")
    return float(t)


def _scalars(*values):
    """Each value as a 0-d float64 array: an array operand that numpy does
    not convert on every operation, as it does a Python float."""
    return tuple(np.asarray(v, dtype=np.float64) for v in values)


def _abs_subgrad(lam, X):
    """Subdifferential bounds of lam * |x|: the kink at 0 spans [-lam, lam]."""
    s = np.sign(X) * lam
    return np.where(X == 0.0, -lam, s), np.where(X == 0.0, lam, s)


@dataclass(frozen=True)
class Zero(SeparablePenalty):
    def _value(self, X):
        return np.zeros(X.shape[:-1])

    def _prox_map(self, t):
        # prox_{t 0} is the identity: np.positive copies X, bit for bit
        _prox_step(t)
        return np.positive

    def _subgrad(self, X):
        return np.zeros(X.shape), np.zeros(X.shape)

    def _prox_deriv(self, X, t):
        return np.ones(X.shape)


@dataclass(frozen=True)
class AbsValue(SeparablePenalty):
    """lam * |x|, coordinatewise."""

    lam: float

    def _value(self, X):
        return (self.lam * np.abs(X)).sum(axis=-1)

    def _prox_map(self, t):
        thr, zero = _scalars(_prox_step(t) * self.lam, 0.0)

        def prox(X, out=None):
            return np.multiply(np.sign(X), np.maximum(np.abs(X) - thr, zero),
                               out=out)
        return prox

    def _subgrad(self, X):
        return _abs_subgrad(self.lam, X)

    def _prox_deriv(self, X, t):
        return (np.abs(X) > t * self.lam).astype(np.float64)

    def conjugate_prox(self, z, s):
        # conjugate is the indicator of [-lam, lam]; prox is projection
        z = as_vector(z, name="z")
        return np.minimum(np.maximum(z, -self.lam), self.lam)

    def dual_box(self):
        return -self.lam, self.lam, 0.0, 0.0


@dataclass(frozen=True)
class ElasticNet(SeparablePenalty):
    """lam1 * |x| + lam2 * x^2 / 2."""

    lam1: float
    lam2: float

    def _value(self, X):
        return (self.lam1 * np.abs(X) + 0.5 * self.lam2 * X * X).sum(axis=-1)

    def _prox_map(self, t):
        t = _prox_step(t)
        thr, shrink, zero = _scalars(t * self.lam1, 1.0 + t * self.lam2, 0.0)

        def prox(X, out=None):
            return np.divide(np.sign(X) * np.maximum(np.abs(X) - thr, zero),
                             shrink, out=out)
        return prox

    def _subgrad(self, X):
        lo, hi = _abs_subgrad(self.lam1, X)
        return lo + self.lam2 * X, hi + self.lam2 * X

    def _prox_deriv(self, X, t):
        return (np.abs(X) > t * self.lam1) / (1.0 + t * self.lam2)


@dataclass(frozen=True)
class BoxIndicator(SeparablePenalty):
    """Indicator of the box lo <= x <= hi (componentwise)."""

    lo: float
    hi: float

    def __post_init__(self):
        # a bound may be negative or infinite; NaN fails the comparison
        for name in ("lo", "hi"):
            object.__setattr__(self, name, _one_float(self, name))
        if not self.lo <= self.hi:
            raise ValueError("box requires lo <= hi, neither of them NaN")

    def _value(self, X):
        return np.where(np.any((X < self.lo) | (X > self.hi), axis=-1),
                        np.inf, 0.0)

    def _prox_map(self, t):
        # the projection onto the box, the same for every step
        _prox_step(t)
        lo, hi = _scalars(self.lo, self.hi)

        def prox(X, out=None):
            return np.minimum(np.maximum(X, lo), hi, out=out)
        return prox

    def _inside(self, X):
        return not (np.any(X < self.lo) or np.any(X > self.hi))

    def _subgrad(self, X):
        return (np.where(X == self.lo, -np.inf, 0.0),
                np.where(X == self.hi, np.inf, 0.0))

    def _prox_deriv(self, X, t):
        return ((X > self.lo) & (X < self.hi)).astype(np.float64)

    def conjugate_prox(self, z, s):
        # g* is the support function of the box; Moreau decomposition gives
        # prox_{s g*}(z) = z - s * proj_box(z / s)
        z = as_vector(z, name="z")
        s = float(s)
        return z - s * np.minimum(np.maximum(z / s, self.lo), self.hi)


@dataclass(frozen=True)
class EpsilonInsensitive(SeparablePenalty):
    """lam * max(|x| - eps, 0), the vapnik penalty."""

    lam: float
    eps: float

    def _value(self, X):
        return (self.lam * np.maximum(np.abs(X) - self.eps, 0.0)).sum(
            axis=-1)

    def _prox_map(self, t):
        # X inside [-eps, eps], X - t lam sign(X) beyond eps + t lam, and
        # sign(X) eps between the two
        tlam = _prox_step(t) * self.lam
        eps, tlam, edge = _scalars(self.eps, tlam, self.eps + tlam)

        def prox(X, out=None):
            ax = np.abs(X)
            Y = np.multiply(np.sign(X), eps, out=out)
            np.copyto(Y, X, where=ax <= eps)
            # copysign, not t lam sign(X): the same bits wherever X is
            # beyond the edge, and no inf * 0 at t = inf
            return np.subtract(X, np.copysign(tlam, X), out=Y,
                               where=ax > edge)
        return prox

    def _subgrad(self, X):
        lam, eps = self.lam, self.eps
        lo = np.where(X > eps, lam, np.where(X <= -eps, -lam, 0.0))
        hi = np.where(X >= eps, lam, np.where(X < -eps, -lam, 0.0))
        return lo, hi

    def _prox_deriv(self, X, t):
        ax = np.abs(X)
        return ((ax <= self.eps)
                | (ax > self.eps + t * self.lam)).astype(np.float64)

    def dual_box(self):
        return -self.lam, self.lam, self.eps, 0.0


@dataclass(frozen=True)
class CheckFunction(SeparablePenalty):
    """lam * max(tau*x, (tau-1)*x), the quantile (pinball) penalty."""

    lam: float
    tau: float

    def _value(self, X):
        lam, tau = self.lam, self.tau
        return (lam * np.maximum(tau * X, (tau - 1.0) * X)).sum(axis=-1)

    def _prox_map(self, t):
        # X - hi above hi = t lam tau, X - lo below lo = t lam (tau - 1),
        # and 0 between them (and at NaN)
        tlam = _prox_step(t) * self.lam
        hi, lo = _scalars(tlam * self.tau, tlam * (self.tau - 1.0))

        def prox(X, out=None):
            if out is None:
                out = np.zeros_like(X)
            else:
                out.fill(0.0)
            np.subtract(X, hi, out=out, where=X > hi)
            return np.subtract(X, lo, out=out, where=X < lo)
        return prox

    def _subgrad(self, X):
        up = self.lam * self.tau
        dn = self.lam * (self.tau - 1.0)
        return np.where(X > 0.0, up, dn), np.where(X < 0.0, dn, up)

    def _prox_deriv(self, X, t):
        lam, tau = self.lam, self.tau
        return ((X > t * lam * tau) | (X < t * lam * (tau - 1.0))).astype(
            np.float64)

    def dual_box(self):
        return self.lam * (self.tau - 1.0), self.lam * self.tau, 0.0, 0.0


@dataclass(frozen=True)
class HuberEnvelope(SeparablePenalty):
    """Moreau envelope of lam*|x| with parameter mu (huber penalty).

    Represented intrinsically by its piecewise formula so it can double as a
    smooth loss; its prox reduces to a two-branch closed form because the
    optimality condition y + s*huber'(y) = x is piecewise linear in y.
    """

    lam: float
    mu: float

    def _value(self, X):
        lam, mu = self.lam, self.mu
        ax = np.abs(X)
        quad = ax <= lam * mu
        return np.where(quad, X * X / (2.0 * mu),
                        lam * ax - 0.5 * lam * lam * mu).sum(axis=-1)

    def _prox_map(self, t):
        # X mu / (mu + t) where |X| <= lam (mu + t), else X - t lam sign(X)
        t = _prox_step(t)
        pt = self.mu + t
        tlam, mu, pt, kink = _scalars(t * self.lam, self.mu, pt,
                                      self.lam * pt)

        def prox(X, out=None):
            Y = np.subtract(X, np.copysign(tlam, X), out=out)
            return np.divide(X * mu, pt, out=Y, where=np.abs(X) <= kink)
        return prox

    def _subgrad(self, X):
        g = np.minimum(np.maximum(X / self.mu, -self.lam), self.lam)
        return g, g.copy()

    def _prox_deriv(self, X, t):
        mu = self.mu
        inner = np.abs(X) <= self.lam * (mu + t)
        return np.where(inner, mu / (mu + t), 1.0)

    def dual_box(self):
        return -self.lam, self.lam, 0.0, self.mu


# ---------------------------------------------------------------------------
# Spec-string construction:  kind(param=value,...)
# ---------------------------------------------------------------------------

# kind -> [(spec parameter names, class)]; the names follow the class's
# fields in order
PENALTY_KINDS = {
    "zero": [((), Zero)],
    "absvalue": [(("lambda",), AbsValue)],
    "elasticnet": [(("lambda1", "lambda2"), ElasticNet)],
    "box": [(("lo", "hi"), BoxIndicator)],
    "epsiloninsensitive": [(("lambda", "epsilon"), EpsilonInsensitive)],
    "checkfunction": [(("lambda", "tau"), CheckFunction)],
    "huberenvelope": [(("lambda", "mu"), HuberEnvelope)],
}
# a field's name in specs and messages, where the two differ
_SPEC_NAMES = {"lam": "lambda", "lam1": "lambda1", "lam2": "lambda2",
               "eps": "epsilon"}


def penalty_from_spec(text):
    """The penalty that a spec such as 'absvalue(lambda=0.1)' names in
    PENALTY_KINDS (see proxbound.specs for the format and its rules)."""
    return build_from_spec(text, "penalty", PENALTY_KINDS)
