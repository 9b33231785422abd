"""Catalog of separable closed convex penalties.

Each penalty knows its exact value, proximal operator, coordinatewise
subdifferential intervals, Moreau envelope and envelope gradient, all as
methods. The AbsValue/BoxIndicator pair additionally exposes the conjugate
prox needed for the resolvent decomposition identity.

Penalties are immutable; all operations are pure functions of their inputs.
Each class holds its own formulas as private methods over points along the
last axis of X, a single point (n,) or a stack (..., n): ``_value``,
``_prox``, ``_subgrad`` and ``_prox_deriv``, the derivative of the
proximal map that the dual ascent's Newton steps use. Every value and prox
goes through :func:`proxbound._kernels.penalty_value` and
:func:`proxbound._kernels.penalty_prox`, which call them. The formulas read
parameters fixed once, at construction: floats, or float64 (n,) arrays
where a weight (lam * w) or a box bound is per coordinate. An operation on
points whose dimension is not that n raises DimensionMismatch.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import DimensionMismatch, DomainError, UnsupportedOperation
from .vectors import as_points, as_vector


def _param(val):
    """val as a float, or as a float64 array where it is per coordinate."""
    a = np.asarray(val, dtype=np.float64)
    return float(a) if a.ndim == 0 else a.copy()


def _weighted(lam, weights):
    """lam scaled by the weights: a float unless they are per coordinate."""
    return float(lam) if weights is None else lam * _param(weights)


class SeparablePenalty:
    """Base class: a separable closed convex function g(x) = sum_i g_i(x_i).

    Each subclass defines its formulas over the points along the last axis
    of X: _value(X), g at each point; _prox(X, t), prox_{tg}; _subgrad(X),
    the coordinatewise subdifferential (lo, hi) at points of the domain; and
    _prox_deriv(X, t), the derivative of each coordinate of prox_{tg}, at a
    kink that of the piece _prox selects there. Every catalog penalty but
    the box is finite on R^n, so only the box overrides _inside(X), whether
    every point lies in the domain.
    """

    # names of the parameters the formulas read
    _params = ()

    def _store(self, **params):
        """Fix the parameters the formulas read; called once, at
        construction."""
        for name, p in params.items():
            object.__setattr__(self, name, p)
        object.__setattr__(self, "_params", tuple(params))

    def _check(self, dim):
        """Raise DimensionMismatch unless every per-coordinate parameter
        fits points of dimension dim."""
        for name in self._params:
            p = getattr(self, name)
            if isinstance(p, np.ndarray) and p.shape != (dim,):
                raise DimensionMismatch(
                    f"{type(self).__name__} parameter has shape {p.shape}, "
                    f"expected ({dim},)")

    # -- core operations ----------------------------------------------------

    def value(self, x):
        x = as_vector(x, name="x")
        self._check(x.shape[0])
        return K.penalty_value(self, x)

    def prox(self, x, t):
        if t <= 0:
            raise ValueError("prox step t must be positive")
        x = as_vector(x, name="x")
        self._check(x.shape[0])
        return K.penalty_prox(self, x, float(t))

    def subgrad_bounds(self, x):
        """(lo, hi) arrays of the coordinatewise subdifferential at every
        point along the last axis of x: a point (n,) or a stack (..., n).
        Raises DomainError if any point lies outside the domain."""
        x = as_points(x, name="x")
        self._check(x.shape[-1])
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
        self._check(x.shape[0])
        return self._inside(x)

    def _inside(self, X):
        return True

    # -- batch helpers (points along the last axis of X) -------------------

    def value_batch(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        self._check(X.shape[-1])
        return K.penalty_value(self, X)

    def prox_batch(self, X, t):
        X = np.ascontiguousarray(X, dtype=np.float64)
        self._check(X.shape[-1])
        return K.penalty_prox(self, X, float(t))

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

    def dual_box(self, dim):
        """Box, l1 and quadratic coefficients of the conjugate h*.

        Returns (lo, hi, l1, quad) arrays such that
        h*(w) = sum_i [ indicator(lo_i <= w_i <= hi_i) + l1_i |w_i| + quad_i w_i^2/2 ].
        Available only for the finite Lipschitz kinds.
        """
        raise UnsupportedOperation(
            f"{type(self).__name__} cannot act as the outer function h")

    def lipschitz_bound(self, dim):
        """Euclidean Lipschitz constant of the penalty on R^dim."""
        lo, hi, _, _ = self.dual_box(dim)
        return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))


def _dual_arrays(dim, lo, hi, l1=0.0, quad=0.0):
    """dual_box's four (dim,) arrays from floats or (dim,) arrays."""
    return tuple(np.full(dim, v) for v in (lo, hi, l1, quad))


def _abs_subgrad(lam, X):
    """Subdifferential bounds of lam * |x|: the kink at 0 spans [-lam, lam]."""
    s = np.sign(X) * lam
    return np.where(X == 0.0, -lam, s), np.where(X == 0.0, lam, s)


@dataclass(frozen=True)
class Zero(SeparablePenalty):
    def _value(self, X):
        return np.zeros(X.shape[:-1])

    def _prox(self, X, t):
        return X.copy()

    def _subgrad(self, X):
        return np.zeros(X.shape), np.zeros(X.shape)

    def _prox_deriv(self, X, t):
        return np.ones(X.shape)


@dataclass(frozen=True)
class AbsValue(SeparablePenalty):
    """lam * |x|, coordinatewise."""

    lam: float
    weights: object = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        self._store(_lam=_weighted(self.lam, self.weights))

    def _value(self, X):
        return (self._lam * np.abs(X)).sum(axis=-1)

    def _prox(self, X, t):
        thr = t * self._lam
        return np.sign(X) * np.maximum(np.abs(X) - thr, 0.0)

    def _subgrad(self, X):
        return _abs_subgrad(self._lam, X)

    def _prox_deriv(self, X, t):
        return (np.abs(X) > t * self._lam).astype(np.float64)

    def conjugate_prox(self, z, s):
        # conjugate is the indicator of [-lam, lam]; prox is projection
        z = as_vector(z, name="z")
        self._check(z.shape[0])
        return np.minimum(np.maximum(z, -self._lam), self._lam)

    def dual_box(self, dim):
        self._check(dim)
        return _dual_arrays(dim, -self._lam, self._lam)


@dataclass(frozen=True)
class ElasticNet(SeparablePenalty):
    """lam1 * |x| + lam2 * x^2 / 2."""

    lam1: float
    lam2: float
    weights: object = None

    def __post_init__(self):
        if self.lam1 <= 0 or self.lam2 <= 0:
            raise ValueError("lambda1 and lambda2 must be positive")
        self._store(_lam1=_weighted(self.lam1, self.weights),
                    _lam2=_weighted(self.lam2, self.weights))

    def _value(self, X):
        return (self._lam1 * np.abs(X) + 0.5 * self._lam2 * X * X).sum(axis=-1)

    def _prox(self, X, t):
        thr = t * self._lam1
        return (np.sign(X) * np.maximum(np.abs(X) - thr, 0.0)
                / (1.0 + t * self._lam2))

    def _subgrad(self, X):
        lo, hi = _abs_subgrad(self._lam1, X)
        return lo + self._lam2 * X, hi + self._lam2 * X

    def _prox_deriv(self, X, t):
        return (np.abs(X) > t * self._lam1) / (1.0 + t * self._lam2)


@dataclass(frozen=True)
class BoxIndicator(SeparablePenalty):
    """Indicator of the box lo <= x <= hi (componentwise)."""

    lo: object
    hi: object

    def __post_init__(self):
        lo, hi = _param(self.lo), _param(self.hi)
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        self._store(_lo=lo, _hi=hi)

    def _value(self, X):
        return np.where(np.any((X < self._lo) | (X > self._hi), axis=-1),
                        np.inf, 0.0)

    def _prox(self, X, t):
        return np.minimum(np.maximum(X, self._lo), self._hi)

    def _inside(self, X):
        return not (np.any(X < self._lo) or np.any(X > self._hi))

    def _subgrad(self, X):
        return (np.where(X == self._lo, -np.inf, 0.0),
                np.where(X == self._hi, np.inf, 0.0))

    def _prox_deriv(self, X, t):
        return ((X > self._lo) & (X < self._hi)).astype(np.float64)

    def conjugate_prox(self, z, s):
        # g* is the support function of the box; Moreau decomposition gives
        # prox_{s g*}(z) = z - s * proj_box(z / s)
        z = as_vector(z, name="z")
        s = float(s)
        self._check(z.shape[0])
        return z - s * np.minimum(np.maximum(z / s, self._lo), self._hi)


@dataclass(frozen=True)
class EpsilonInsensitive(SeparablePenalty):
    """lam * max(|x| - eps, 0), the vapnik penalty."""

    lam: float
    eps: float
    weights: object = None

    def __post_init__(self):
        if self.lam <= 0 or self.eps <= 0:
            raise ValueError("lambda and epsilon must be positive")
        self._store(_lam=_weighted(self.lam, self.weights),
                    _eps=float(self.eps))

    def _value(self, X):
        return (self._lam * np.maximum(np.abs(X) - self._eps, 0.0)).sum(
            axis=-1)

    def _prox(self, X, t):
        lam, eps = self._lam, self._eps
        ax = np.abs(X)
        sx = np.sign(X)
        out = np.where(ax <= eps, X, sx * eps)
        far = ax > eps + t * lam
        return np.where(far, X - t * lam * sx, out)

    def _subgrad(self, X):
        lam, eps = self._lam, self._eps
        lo = np.where(X > eps, lam, np.where(X <= -eps, -lam, 0.0))
        hi = np.where(X >= eps, lam, np.where(X < -eps, -lam, 0.0))
        return lo, hi

    def _prox_deriv(self, X, t):
        ax = np.abs(X)
        return ((ax <= self._eps)
                | (ax > self._eps + t * self._lam)).astype(np.float64)

    def dual_box(self, dim):
        self._check(dim)
        return _dual_arrays(dim, -self._lam, self._lam, l1=self._eps)


@dataclass(frozen=True)
class CheckFunction(SeparablePenalty):
    """lam * max(tau*x, (tau-1)*x), the quantile (pinball) penalty."""

    lam: float
    tau: float
    weights: object = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0,1)")
        self._store(_lam=_weighted(self.lam, self.weights),
                    _tau=float(self.tau))

    def _value(self, X):
        lam, tau = self._lam, self._tau
        return (lam * np.maximum(tau * X, (tau - 1.0) * X)).sum(axis=-1)

    def _prox(self, X, t):
        hi = t * self._lam * self._tau
        lo = t * self._lam * (self._tau - 1.0)
        out = np.zeros_like(X)
        out = np.where(X > hi, X - hi, out)
        return np.where(X < lo, X - lo, out)

    def _subgrad(self, X):
        up = self._lam * self._tau
        dn = self._lam * (self._tau - 1.0)
        return np.where(X > 0.0, up, dn), np.where(X < 0.0, dn, up)

    def _prox_deriv(self, X, t):
        lam, tau = self._lam, self._tau
        return ((X > t * lam * tau) | (X < t * lam * (tau - 1.0))).astype(
            np.float64)

    def dual_box(self, dim):
        self._check(dim)
        return _dual_arrays(dim, self._lam * (self._tau - 1.0),
                            self._lam * self._tau)


@dataclass(frozen=True)
class HuberEnvelope(SeparablePenalty):
    """Moreau envelope of lam*|x| with parameter mu (huber penalty).

    Represented intrinsically by its piecewise formula so it can double as a
    smooth loss; its prox reduces to a two-branch closed form because the
    optimality condition y + s*huber'(y) = x is piecewise linear in y.
    """

    lam: float
    mu: float
    weights: object = None

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("lambda and mu must be positive")
        self._store(_lam=_weighted(self.lam, self.weights),
                    _mu=float(self.mu))

    def _value(self, X):
        lam, mu = self._lam, self._mu
        ax = np.abs(X)
        quad = ax <= lam * mu
        return np.where(quad, X * X / (2.0 * mu),
                        lam * ax - 0.5 * lam * lam * mu).sum(axis=-1)

    def _prox(self, X, t):
        lam, mu = self._lam, self._mu
        ax = np.abs(X)
        pt = mu + t
        inner = ax <= lam * pt
        return np.where(inner, X * mu / pt, X - np.copysign(t * lam, X))

    def _subgrad(self, X):
        g = np.minimum(np.maximum(X / self._mu, -self._lam), self._lam)
        return g, g.copy()

    def _prox_deriv(self, X, t):
        mu = self._mu
        inner = np.abs(X) <= self._lam * (mu + t)
        return np.where(inner, mu / (mu + t), 1.0)

    def dual_box(self, dim):
        self._check(dim)
        return _dual_arrays(dim, -self._lam, self._lam, quad=self._mu)


# ---------------------------------------------------------------------------
# Spec-string construction:  kind(param=value,...)
# ---------------------------------------------------------------------------

_SPEC_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*(?:\((.*)\))?\s*$")

_PENALTY_BUILDERS = {
    "zero": (Zero, ()),
    "absvalue": (AbsValue, ("lambda",)),
    "elasticnet": (ElasticNet, ("lambda1", "lambda2")),
    "box": (BoxIndicator, ("lo", "hi")),
    "epsiloninsensitive": (EpsilonInsensitive, ("lambda", "epsilon")),
    "checkfunction": (CheckFunction, ("lambda", "tau")),
    "huberenvelope": (HuberEnvelope, ("lambda", "mu")),
}

_PARAM_ALIASES = {"lambda": "lam", "lambda1": "lam1", "lambda2": "lam2",
                  "epsilon": "eps"}


def parse_spec_string(text, what="spec"):
    """Split 'name(a=1,b=2)' into (name, {a: '1', b: '2'})."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"malformed {what} string: {text!r}")
    name = m.group(1).lower()
    params = {}
    body = m.group(2)
    if body is not None and body.strip():
        for piece in body.split(","):
            if "=" not in piece:
                raise ValueError(f"malformed parameter {piece!r} in {text!r}")
            key, val = piece.split("=", 1)
            params[key.strip().lower()] = val.strip()
    return name, params


def penalty_from_spec(text):
    """Construct a penalty from a config string like 'absvalue(lambda=0.1)'."""
    name, raw = parse_spec_string(text, what="penalty")
    if name not in _PENALTY_BUILDERS:
        raise ValueError(f"unknown penalty kind {name!r}")
    cls, expected = _PENALTY_BUILDERS[name]
    unknown = set(raw) - set(expected)
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for {name}")
    missing = set(expected) - set(raw)
    if missing:
        raise ValueError(f"missing parameter(s) {sorted(missing)} for {name}")
    kwargs = {}
    for key, val in raw.items():
        kwargs[_PARAM_ALIASES.get(key, key)] = float(val)
    return cls(**kwargs)

