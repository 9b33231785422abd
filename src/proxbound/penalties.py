"""Catalog of separable closed convex penalties.

Each penalty knows its exact value, proximal operator, coordinatewise
subdifferential intervals, Moreau envelope and envelope gradient, all as
methods. The AbsValue/BoxIndicator pair additionally exposes the conjugate
prox needed for the resolvent decomposition identity.

Penalties are immutable; all operations are pure functions of their inputs.
The formulas live in :mod:`proxbound._kernels`, one numpy function per
operation (``penalty_value``, ``penalty_prox``, ``penalty_subgrad``) over
points along the last axis, keyed by an integer kind code with two
parameters, w being the weights (1 when none are given):

====================  ====  ==========  ==========
kind                  code  p1          p2
====================  ====  ==========  ==========
Zero                  0     --          --
AbsValue              1     lam * w     --
ElasticNet            2     lam1 * w    lam2 * w
BoxIndicator          3     lo          hi
EpsilonInsensitive    4     lam * w     eps
CheckFunction         5     lam * w     tau
HuberEnvelope         6     lam * w     mu
====================  ====  ==========  ==========

Each penalty fixes its triple (kind, p1, p2) once, at construction. p1 and
p2 are floats, or float64 (n,) arrays where a weight or a box bound is per
coordinate; an operation on points whose dimension is not that n raises
DimensionMismatch.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import DimensionMismatch, DomainError, UnsupportedOperation
from .vectors import as_points, as_vector


@dataclass(frozen=True)
class Interval:
    """Closed interval with extended-real ends, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval ends out of order: [{self.lo}, {self.hi}]")

    def dist(self, v):
        """Distance from v to the interval."""
        if v < self.lo:
            return self.lo - v
        if v > self.hi:
            return v - self.hi
        return 0.0

    def contains(self, v, tol=0.0):
        return self.lo - tol <= v <= self.hi + tol


def _param(val):
    """val as a float, or as a float64 array where it is per coordinate."""
    a = np.asarray(val, dtype=np.float64)
    return float(a) if a.ndim == 0 else a.copy()


def _weighted(lam, weights):
    """lam scaled by the weights: a float unless they are per coordinate."""
    return float(lam) if weights is None else lam * _param(weights)


class SeparablePenalty:
    """Base class: a separable closed convex function g(x) = sum_i g_i(x_i)."""

    # -- kernel parameters ---------------------------------------------------

    def _fix(self, kind, p1=0.0, p2=0.0):
        """Store the kernel triple; called once, at construction."""
        object.__setattr__(self, "_params", (kind, p1, p2))

    def _packed(self, dim):
        """The (kind, p1, p2) triple for points of dimension dim."""
        for p in self._params[1:]:
            if isinstance(p, np.ndarray) and p.shape != (dim,):
                raise DimensionMismatch(
                    f"{type(self).__name__} parameter has shape {p.shape}, "
                    f"expected ({dim},)")
        return self._params

    # -- core operations ----------------------------------------------------

    def value(self, x):
        x = as_vector(x, name="x")
        kind, p1, p2 = self._packed(x.shape[0])
        return K.penalty_value(kind, p1, p2, x)

    def prox(self, x, t):
        if t <= 0:
            raise ValueError("prox step t must be positive")
        x = as_vector(x, name="x")
        kind, p1, p2 = self._packed(x.shape[0])
        return K.penalty_prox(kind, p1, p2, x, float(t))

    def subgrad_intervals(self, x):
        lo, hi = self.subgrad_bounds(as_vector(x, name="x"))
        return [Interval(float(a), float(b)) for a, b in zip(lo, hi)]

    def subgrad_bounds(self, x):
        """(lo, hi) arrays of the coordinatewise subdifferential at every
        point along the last axis of x: a point (n,) or a stack (..., n).
        Raises DomainError if any point lies outside the domain."""
        x = as_points(x, name="x")
        kind, p1, p2 = self._packed(x.shape[-1])
        lo, hi, ok = K.penalty_subgrad(kind, p1, p2, x)
        if not ok:
            raise DomainError("x lies outside the penalty domain")
        return lo, hi

    def moreau_envelope(self, x, t):
        x = as_vector(x, name="x")
        p = self.prox(x, t)
        d = p - x
        return self.value(p) + float(d @ d) / (2.0 * float(t))

    def moreau_grad(self, x, t):
        x = as_vector(x, name="x")
        return (x - self.prox(x, t)) / float(t)

    def in_domain(self, x):
        return np.isfinite(self.value(x))

    # -- batch helpers (points along the last axis of X) -------------------

    def value_batch(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        kind, p1, p2 = self._packed(X.shape[-1])
        return K.penalty_value(kind, p1, p2, X)

    def prox_batch(self, X, t):
        X = np.ascontiguousarray(X, dtype=np.float64)
        kind, p1, p2 = self._packed(X.shape[-1])
        return K.penalty_prox(kind, p1, p2, X, float(t))

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


@dataclass(frozen=True)
class Zero(SeparablePenalty):
    def __post_init__(self):
        self._fix(K.KIND_ZERO)


@dataclass(frozen=True)
class AbsValue(SeparablePenalty):
    """lam * |x|, coordinatewise."""

    lam: float
    weights: object = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        self._fix(K.KIND_ABS, _weighted(self.lam, self.weights))

    def conjugate_prox(self, z, s):
        # conjugate is the indicator of [-lam, lam]; prox is projection
        z = as_vector(z, name="z")
        _, lam, _ = self._packed(z.shape[0])
        return np.minimum(np.maximum(z, -lam), lam)

    def dual_box(self, dim):
        _, lam, _ = self._packed(dim)
        return _dual_arrays(dim, -lam, lam)


@dataclass(frozen=True)
class ElasticNet(SeparablePenalty):
    """lam1 * |x| + lam2 * x^2 / 2."""

    lam1: float
    lam2: float
    weights: object = None

    def __post_init__(self):
        if self.lam1 <= 0 or self.lam2 <= 0:
            raise ValueError("lambda1 and lambda2 must be positive")
        self._fix(K.KIND_ENET, _weighted(self.lam1, self.weights),
                  _weighted(self.lam2, self.weights))


@dataclass(frozen=True)
class BoxIndicator(SeparablePenalty):
    """Indicator of the box lo <= x <= hi (componentwise)."""

    lo: object
    hi: object

    def __post_init__(self):
        lo, hi = _param(self.lo), _param(self.hi)
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        self._fix(K.KIND_BOX, lo, hi)

    def conjugate_prox(self, z, s):
        # g* is the support function of the box; Moreau decomposition gives
        # prox_{s g*}(z) = z - s * proj_box(z / s)
        z = as_vector(z, name="z")
        s = float(s)
        _, lo, hi = self._packed(z.shape[0])
        return z - s * np.minimum(np.maximum(z / s, lo), hi)


@dataclass(frozen=True)
class EpsilonInsensitive(SeparablePenalty):
    """lam * max(|x| - eps, 0), the vapnik penalty."""

    lam: float
    eps: float
    weights: object = None

    def __post_init__(self):
        if self.lam <= 0 or self.eps <= 0:
            raise ValueError("lambda and epsilon must be positive")
        self._fix(K.KIND_EPS, _weighted(self.lam, self.weights),
                  float(self.eps))

    def dual_box(self, dim):
        _, lam, eps = self._packed(dim)
        return _dual_arrays(dim, -lam, lam, l1=eps)


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
        self._fix(K.KIND_CHECK, _weighted(self.lam, self.weights),
                  float(self.tau))

    def dual_box(self, dim):
        _, lam, tau = self._packed(dim)
        return _dual_arrays(dim, lam * (tau - 1.0), lam * tau)


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
        self._fix(K.KIND_HUBER, _weighted(self.lam, self.weights),
                  float(self.mu))

    def dual_box(self, dim):
        _, lam, mu = self._packed(dim)
        return _dual_arrays(dim, -lam, lam, quad=mu)


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


PENALTY_KINDS = tuple(sorted(_PENALTY_BUILDERS))
