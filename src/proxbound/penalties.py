"""Catalog of separable closed convex penalties.

Each penalty knows its exact value, proximal operator, coordinatewise
subdifferential intervals, Moreau envelope and envelope gradient, all as
methods. The AbsValue/BoxIndicator pair additionally exposes the conjugate
prox needed for the resolvent decomposition identity.

Penalties are immutable; all operations are pure functions of their inputs.
The formulas live in :mod:`proxbound._kernels`, one numpy function per
operation (``penalty_value``, ``penalty_prox``, ``penalty_subgrad``) over
points along the last axis, keyed by an integer kind code with two
per-coordinate parameter arrays:

====================  ====  ==========  ==========
kind                  code  p1          p2
====================  ====  ==========  ==========
Zero                  0     --          --
AbsValue              1     lam_i       --
ElasticNet            2     lam1_i      lam2_i
BoxIndicator          3     lo_i        hi_i
EpsilonInsensitive    4     lam_i       eps
CheckFunction         5     lam_i       tau
HuberEnvelope         6     lam_i       mu
====================  ====  ==========  ==========

Per-coordinate weights scale the lambda-type parameter (p1).
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


def _broadcast(val, dim, name):
    a = np.asarray(val, dtype=np.float64)
    if a.ndim == 0:
        return np.full(dim, float(a))
    if a.shape != (dim,):
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected ({dim},)")
    return a.copy()


class SeparablePenalty:
    """Base class: a separable closed convex function g(x) = sum_i g_i(x_i)."""

    kind_code = None

    # -- packing -----------------------------------------------------------

    def _weights(self, dim):
        w = getattr(self, "weights", None)
        if w is None:
            return np.ones(dim)
        return _broadcast(w, dim, "weights")

    def _packed(self, dim):
        """(kind, p1, p2) arrays for the kernel layer."""
        raise NotImplementedError

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


@dataclass(frozen=True)
class Zero(SeparablePenalty):
    kind_code = K.KIND_ZERO

    def _packed(self, dim):
        z = np.zeros(dim)
        return self.kind_code, z, z


@dataclass(frozen=True)
class AbsValue(SeparablePenalty):
    """lam * |x|, coordinatewise."""

    lam: float
    weights: object = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")

    kind_code = K.KIND_ABS

    def _packed(self, dim):
        return self.kind_code, self.lam * self._weights(dim), np.zeros(dim)

    def conjugate_prox(self, z, s):
        # conjugate is the indicator of [-lam, lam]; prox is projection
        z = as_vector(z, name="z")
        lam = self.lam * self._weights(z.shape[0])
        return np.minimum(np.maximum(z, -lam), lam)

    def dual_box(self, dim):
        lam = self.lam * self._weights(dim)
        zero = np.zeros(dim)
        return -lam, lam, zero, zero


@dataclass(frozen=True)
class ElasticNet(SeparablePenalty):
    """lam1 * |x| + lam2 * x^2 / 2."""

    lam1: float
    lam2: float
    weights: object = None

    def __post_init__(self):
        if self.lam1 <= 0 or self.lam2 <= 0:
            raise ValueError("lambda1 and lambda2 must be positive")

    kind_code = K.KIND_ENET

    def _packed(self, dim):
        w = self._weights(dim)
        return self.kind_code, self.lam1 * w, self.lam2 * w


@dataclass(frozen=True)
class BoxIndicator(SeparablePenalty):
    """Indicator of the box lo <= x <= hi (componentwise)."""

    lo: object
    hi: object

    kind_code = K.KIND_BOX

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")

    def _packed(self, dim):
        return (self.kind_code, _broadcast(self.lo, dim, "lo"),
                _broadcast(self.hi, dim, "hi"))

    def conjugate_prox(self, z, s):
        # g* is the support function of the box; Moreau decomposition gives
        # prox_{s g*}(z) = z - s * proj_box(z / s)
        z = as_vector(z, name="z")
        s = float(s)
        kind, p1, p2 = self._packed(z.shape[0])
        return z - s * np.minimum(np.maximum(z / s, p1), p2)


@dataclass(frozen=True)
class EpsilonInsensitive(SeparablePenalty):
    """lam * max(|x| - eps, 0), the vapnik penalty."""

    lam: float
    eps: float
    weights: object = None

    def __post_init__(self):
        if self.lam <= 0 or self.eps <= 0:
            raise ValueError("lambda and epsilon must be positive")

    kind_code = K.KIND_EPS

    def _packed(self, dim):
        return (self.kind_code, self.lam * self._weights(dim),
                np.full(dim, self.eps))

    def dual_box(self, dim):
        lam = self.lam * self._weights(dim)
        return -lam, lam, np.full(dim, self.eps), np.zeros(dim)


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

    kind_code = K.KIND_CHECK

    def _packed(self, dim):
        return (self.kind_code, self.lam * self._weights(dim),
                np.full(dim, self.tau))

    def dual_box(self, dim):
        lam = self.lam * self._weights(dim)
        zero = np.zeros(dim)
        return lam * (self.tau - 1.0), lam * self.tau, zero, zero


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

    kind_code = K.KIND_HUBER

    def _packed(self, dim):
        return (self.kind_code, self.lam * self._weights(dim),
                np.full(dim, self.mu))

    def dual_box(self, dim):
        lam = self.lam * self._weights(dim)
        return -lam, lam, np.zeros(dim), np.full(dim, self.mu)


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
