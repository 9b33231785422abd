import numpy as np
import pytest

import proxbound as pb
import serialref
from conftest import ALL_PENALTIES
from gridref import SCALAR_VALUES, grid_envelope, grid_prox


def vec(*vals):
    return np.array(vals, dtype=float)


# ----------------------------------------------------------------------------
# Pinned example values
# ----------------------------------------------------------------------------

def test_eval_absvalue():
    assert pb.AbsValue(1.0).value(vec(2.0, -3.0)) == 5.0


def test_eval_box_violation_is_inf():
    assert pb.BoxIndicator(0.0, 1.0).value(vec(0.5, 2.0)) == np.inf


def test_eval_box_boundary_is_finite():
    assert pb.BoxIndicator(0.0, 1.0).value(vec(0.0, 1.0)) == 0.0


def test_eval_huber_envelope_matches_grid():
    p = pb.HuberEnvelope(1.0, 1.0)
    val = p.value(vec(2.0))
    oracle = grid_envelope(SCALAR_VALUES["absvalue"], 2.0, 1.0, lam=1.0)
    assert val == pytest.approx(1.5, abs=1e-12)
    assert val == pytest.approx(oracle, abs=1e-4)


def test_prox_absvalue_soft_threshold():
    y = pb.AbsValue(1.0).prox(vec(2.0), 0.5)
    assert y == pytest.approx([1.5], abs=0)
    oracle = grid_prox(SCALAR_VALUES["absvalue"], 2.0, 0.5, lam=1.0)
    assert y[0] == pytest.approx(oracle, abs=1e-3)


def test_prox_fixed_point_at_minimizer(penalty_case):
    name, p, _ = penalty_case
    x = np.zeros(3) if name != "box" else np.full(3, 0.5)
    y = p.prox(x, 3.7)
    assert np.allclose(y, x, atol=1e-14)


def test_prox_box_projection_t_independent():
    p = pb.BoxIndicator(-1.0, 1.0)
    for t in (7.0, 0.01):
        assert np.allclose(p.prox(vec(3.0, -0.2), t), [1.0, -0.2])


def test_prox_kink_tie_breaks_to_zero():
    # exactly at |x| = t*lambda the sparse branch wins
    assert pb.AbsValue(2.0).prox(vec(1.0), 0.5)[0] == 0.0


def test_subgrad_absvalue():
    p = pb.AbsValue(1.0)
    lo, hi = p.subgrad_bounds(vec(0.0))
    assert (lo[0], hi[0]) == (-1.0, 1.0)
    lo, hi = p.subgrad_bounds(vec(2.0))
    assert (lo[0], hi[0]) == (1.0, 1.0)


def test_subgrad_epsilon_insensitive_kink():
    lo, hi = pb.EpsilonInsensitive(1.0, 0.5).subgrad_bounds(vec(0.5))
    assert (lo[0], hi[0]) == (0.0, 1.0)


def test_subgrad_box_boundary_unbounded():
    lo, hi = pb.BoxIndicator(-1.0, 1.0).subgrad_bounds(vec(-1.0, 0.0, 1.0))
    assert lo[0] == -np.inf and hi[0] == 0.0
    assert lo[1] == 0.0 and hi[1] == 0.0
    assert lo[2] == 0.0 and hi[2] == np.inf


def test_subgrad_outside_domain_raises():
    with pytest.raises(pb.DomainError):
        pb.BoxIndicator(0.0, 1.0).subgrad_bounds(vec(2.0))


def test_in_domain_reads_the_domain_flag_not_the_value():
    # a finite-valued penalty whose value overflows is still in its domain
    big = vec(1e200, -1e200)
    with np.errstate(over="ignore"):
        assert pb.ElasticNet(0.1, 0.2).value(big) == np.inf
    for p in (pb.ElasticNet(0.1, 0.2), pb.HuberEnvelope(0.5, 0.1),
              pb.AbsValue(0.1), pb.Zero()):
        assert p.in_domain(big) is True
    # no formula is evaluated: x / mu and lam2 * x overflow here
    with np.errstate(all="raise"):
        for p, _ in ALL_PENALTIES.values():
            if not isinstance(p, pb.BoxIndicator):
                assert p.in_domain(np.full(3, 1e308)) is True
    box = pb.BoxIndicator(0.0, 1.0)
    assert box.in_domain(vec(0.0, 1.0)) is True
    assert box.in_domain(vec(0.5, 1.5)) is False


def test_moreau_envelope_values():
    p = pb.AbsValue(1.0)
    assert p.moreau_envelope(vec(2.0), 1.0) == pytest.approx(1.5, abs=1e-12)
    assert p.moreau_envelope(vec(0.3), 1.0) == pytest.approx(0.045, abs=1e-12)
    assert pb.Zero().moreau_envelope(vec(5.0), 2.3) == 0.0
    oracle = grid_envelope(SCALAR_VALUES["absvalue"], 0.3, 1.0, lam=1.0)
    assert oracle == pytest.approx(0.045, abs=1e-6)


def test_moreau_grad_values():
    p = pb.AbsValue(1.0)
    assert p.moreau_grad(vec(2.0), 1.0) == pytest.approx([1.0])
    assert p.moreau_grad(vec(0.3), 1.0) == pytest.approx([0.3])
    assert p.moreau_grad(vec(0.0), 0.7) == pytest.approx([0.0])


def test_moreau_decomposition_examples():
    assert pb.AbsValue(1.0).decomposition_residual(vec(2.0), 1.0) == 0.0
    assert pb.AbsValue(1.0).decomposition_residual(vec(0.0), 0.5) == 0.0
    assert pb.AbsValue(3.0).decomposition_residual(vec(-7.0), 2.0) <= 1e-12


def test_moreau_decomposition_box():
    p = pb.BoxIndicator(-0.5, 2.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.normal(size=4) * 3
        t = rng.uniform(0.1, 3.0)
        assert p.decomposition_residual(x, t) <= 1e-12 * (1 + np.linalg.norm(x))


def test_moreau_decomposition_unsupported():
    with pytest.raises(pb.UnsupportedOperation):
        pb.CheckFunction(1.0, 0.3).decomposition_residual(vec(1.0), 1.0)


# ----------------------------------------------------------------------------
# Catalog-wide properties
# ----------------------------------------------------------------------------

def test_prox_matches_grid_oracle(penalty_case):
    name, p, params = penalty_case
    value_fn = SCALAR_VALUES[name]
    rng = np.random.default_rng(17)
    for _ in range(25):
        t = rng.uniform(0.1, 1.5)
        x = rng.uniform(-4, 4)
        got = p.prox(vec(x), t)[0]
        if name == "box":
            # restrict the grid to the domain, where the objective is finite
            want = grid_prox(lambda y, **kw: np.zeros_like(y), x, t,
                             lo=params["lo"], hi=params["hi"], step=1e-4)
        else:
            want = grid_prox(value_fn, x, t, step=1e-4, **params)
        assert got == pytest.approx(want, abs=1e-3)


def test_prox_nonexpansive(penalty_case):
    _, p, _ = penalty_case
    rng = np.random.default_rng(4)
    X = rng.normal(size=(1000, 6)) * 2
    Y = rng.normal(size=(1000, 6)) * 2
    t = 0.8
    PX = p.prox_batch(X, t)
    PY = p.prox_batch(Y, t)
    lhs = np.linalg.norm(PX - PY, axis=1)
    rhs = np.linalg.norm(X - Y, axis=1)
    assert np.all(lhs <= rhs + 1e-12)


def test_prox_subgradient_characterization(penalty_case):
    # v = (x - prox(x))/t must lie in the subdifferential at the prox point
    _, p, _ = penalty_case
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.normal(size=3) * 3
        t = rng.uniform(0.2, 2.0)
        y = p.prox(x, t)
        v = (x - y) / t
        lo, hi = p.subgrad_bounds(y)
        assert np.all(v >= lo - 1e-10) and np.all(v <= hi + 1e-10)


def test_moreau_grad_matches_central_differences(penalty_case):
    _, p, _ = penalty_case
    rng = np.random.default_rng(6)
    h = 1e-6
    for _ in range(100):
        x = rng.normal(size=1) * 3
        t = rng.uniform(0.2, 2.0)
        g = p.moreau_grad(x, t)[0]
        num = (p.moreau_envelope(x + h, t) - p.moreau_envelope(x - h, t)) / (2 * h)
        assert abs(g - num) / (1.0 + abs(g)) <= 1e-5


def test_value_batch_matches_rowwise_value_bitwise(penalty_case):
    # value_batch and prox_batch against row-wise value and prox, on
    # (20, n) batches and on (4, 30, n) stacks
    name, p, _ = penalty_case
    rng = np.random.default_rng(9)
    for n in range(1, 34):
        for shape in ((20, n), (4, 30, n)):
            X = rng.normal(size=shape) * 2
            rows = X.reshape(-1, n)
            if name == "box":
                # even rows inside the box, odd rows with a coordinate outside
                rows[::2] = np.clip(rows[::2], -1.2, 0.9)
                rows[1::2, rng.integers(n)] = 1.5
            t = float(rng.uniform(0.05, 3.0))
            got = p.value_batch(X)
            want = np.array([p.value(x) for x in rows]).reshape(shape[:-1])
            assert got.shape == shape[:-1] and got.tobytes() == want.tobytes()
            if name == "box":
                flat = got.ravel()
                assert np.all(flat[::2] == 0.0)
                assert np.all(np.isinf(flat[1::2]))
            got = p.prox_batch(X, t)
            want = np.array([p.prox(x, t) for x in rows]).reshape(shape)
            assert got.shape == shape and got.tobytes() == want.tobytes()


def test_subgrad_bounds_over_leading_axes_match_scalar_formula(penalty_case):
    name, p, _ = penalty_case
    rng = np.random.default_rng(11)
    # a third of the coordinates on a kink: 0, the vapnik +-eps, the box ends
    X = rng.normal(size=(4, 30, 5)) * 2
    snap = rng.random(X.shape) < 1.0 / 3.0
    X[snap] = rng.choice([0.0, 0.4, -0.4, -1.2, 0.9], size=int(np.sum(snap)))
    if name == "box":
        X = np.clip(X, -1.2, 0.9)
    lo, hi = p.subgrad_bounds(X)
    assert lo.shape == hi.shape == X.shape
    for idx in np.ndindex(X.shape[:-1]):
        want_lo, want_hi = serialref.subgrad_bounds(p, X[idx])
        assert np.array_equal(lo[idx], want_lo)
        assert np.array_equal(hi[idx], want_hi)
        one_lo, one_hi = p.subgrad_bounds(X[idx])
        assert np.array_equal(one_lo, want_lo) and np.array_equal(one_hi, want_hi)
    if name == "box":
        assert np.isinf(lo).any() and np.isinf(hi).any()
        X[3, 29, 4] = 1.0
        with pytest.raises(pb.DomainError):
            p.subgrad_bounds(X)


def test_convexity_midpoint_probe(penalty_case):
    name, p, _ = penalty_case
    rng = np.random.default_rng(7)
    if name == "box":
        A = rng.uniform(-1.2, 0.9, size=(1000, 4))
        B = rng.uniform(-1.2, 0.9, size=(1000, 4))
    else:
        A = rng.normal(size=(1000, 4)) * 3
        B = rng.normal(size=(1000, 4)) * 3
    va = p.value_batch(A)
    vb = p.value_batch(B)
    vm = p.value_batch(0.5 * (A + B))
    assert np.all(vm <= 0.5 * (va + vb) + 1e-12)


# ----------------------------------------------------------------------------
# Construction and spec strings
# ----------------------------------------------------------------------------

def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        pb.AbsValue(-1.0)
    with pytest.raises(ValueError):
        pb.CheckFunction(1.0, 1.5)
    with pytest.raises(ValueError):
        pb.BoxIndicator(2.0, 1.0)
    with pytest.raises(ValueError):
        pb.HuberEnvelope(1.0, 0.0)


def test_penalty_from_spec_roundtrip():
    p = pb.penalty_from_spec("absvalue(lambda=0.1)")
    assert isinstance(p, pb.AbsValue) and p.lam == 0.1
    p = pb.penalty_from_spec("box(lo=-1,hi=1)")
    assert isinstance(p, pb.BoxIndicator)
    p = pb.penalty_from_spec("elasticnet(lambda1=0.2,lambda2=0.3)")
    assert (p.lam1, p.lam2) == (0.2, 0.3)
    p = pb.penalty_from_spec("checkfunction(lambda=1,tau=0.25)")
    assert p.tau == 0.25
    p = pb.penalty_from_spec("huberenvelope(lambda=1,mu=0.5)")
    assert p.mu == 0.5
    p = pb.penalty_from_spec("epsiloninsensitive(lambda=1,epsilon=0.5)")
    assert p.eps == 0.5
    assert isinstance(pb.penalty_from_spec("zero()"), pb.Zero)
    assert isinstance(pb.penalty_from_spec("zero"), pb.Zero)


def test_penalty_from_spec_errors():
    with pytest.raises(ValueError):
        pb.penalty_from_spec("absvalue(nope=1)")
    with pytest.raises(ValueError):
        pb.penalty_from_spec("absvalue()")
    with pytest.raises(ValueError):
        pb.penalty_from_spec("unknownkind(lambda=1)")
    with pytest.raises(ValueError):
        pb.penalty_from_spec("absvalue(lambda)")


# (kind, parameter) for every parameter of every catalog penalty
PARAMETERS = [(name, key) for name in sorted(ALL_PENALTIES)
              for key in sorted(ALL_PENALTIES[name][1])]


def rebuilt(name, **change):
    """The catalog penalty name, built with the given parameters changed."""
    p, params = ALL_PENALTIES[name]
    return type(p)(**dict(params, **change))


@pytest.mark.parametrize("name,key", PARAMETERS)
def test_array_parameter_raises_at_construction(name, key):
    # every parameter is stored as a plain float, and one array parameter
    # cannot be built at all
    value = ALL_PENALTIES[name][1][key]
    assert type(getattr(rebuilt(name, **{key: np.float64(value)}),
                        key)) is float
    with pytest.raises(pb.DimensionMismatch):
        rebuilt(name, **{key: np.full(2, value)})


# every kind built from one parameter of the given value; the rest are
# floats, and at 0.8 the box bounds hold the point X3 of dimension 3
MISMATCHED = {
    "absvalue": lambda w: pb.AbsValue(w),
    "elasticnet": lambda w: pb.ElasticNet(w, 0.5),
    "epsiloninsensitive": lambda w: pb.EpsilonInsensitive(w, 0.2),
    "checkfunction": lambda w: pb.CheckFunction(w, 0.3),
    "huberenvelope": lambda w: pb.HuberEnvelope(w, 0.5),
    "box_lo": lambda w: pb.BoxIndicator(-w, 1.0),
    "box_hi": lambda w: pb.BoxIndicator(-1.0, w),
}

X3 = vec(0.5, -0.25, 0.75)


def run_prox_gradient_3(p):
    A, b = pb.random_least_squares(5, 3, 1)
    prob = pb.AdditiveProblem(f=pb.Quadratic(A, b), g=p)
    pb.run_prox_gradient(prob, np.zeros(3), pb.ProxGradConfig(max_iter=5))


ENTRY_POINTS = {
    "value": lambda p: p.value(X3),
    "prox": lambda p: p.prox(X3, 0.5),
    "subgrad_bounds": lambda p: p.subgrad_bounds(X3),
    "value_batch": lambda p: p.value_batch(np.stack([X3, X3])),
    "prox_batch": lambda p: p.prox_batch(np.stack([X3, X3]), 0.5),
    "dual_box": lambda p: p.dual_box(),
    "conjugate_prox": lambda p: p.conjugate_prox(X3, 0.5),
    "run_prox_gradient": run_prox_gradient_3,
}
# only the kinds that can act as h have a dual box, and only absvalue and
# box a conjugate prox
ONLY_KINDS = {
    "dual_box": ("absvalue", "epsiloninsensitive", "checkfunction",
                 "huberenvelope"),
    "conjugate_prox": ("absvalue", "box_lo", "box_hi"),
}


@pytest.mark.parametrize("length", [2, 1])
@pytest.mark.parametrize("entry,kind", [
    (entry, kind)
    for entry in sorted(ENTRY_POINTS) for kind in sorted(MISMATCHED)
    if kind in ONLY_KINDS.get(entry, (kind,))])
def test_dimension_mismatch_raises(entry, kind, length):
    # as one float the parameter fits the 3-D points of every entry point;
    # as an array of any length, 1 included, it is refused at construction,
    # so no entry point ever sees it
    ENTRY_POINTS[entry](MISMATCHED[kind](0.8))
    with pytest.raises(pb.DimensionMismatch):
        ENTRY_POINTS[entry](MISMATCHED[kind](np.full(length, 0.8)))


@pytest.mark.parametrize("name,key", PARAMETERS)
def test_non_finite_parameter_raises_at_construction(name, key):
    # NaN is rejected in every parameter, +-inf in every one but a box
    # bound, which may be infinite on its own side
    with pytest.raises(ValueError):
        rebuilt(name, **{key: np.nan})
    for v in (np.inf, -np.inf):
        if name == "box" and (key == "hi") == (v > 0):
            assert getattr(rebuilt(name, **{key: v}), key) == v
        else:
            with pytest.raises(ValueError):
                rebuilt(name, **{key: v})


def test_huber_prox_outer_branch_matches_sign_form_bitwise():
    # the outer branch is X - copysign(t lam, X); X - t lam sign(X) gave
    # the same bits wherever that branch is taken, and X = 0 always lies
    # in the inner one
    p = pb.HuberEnvelope(0.7, 0.4)
    n = 5
    rng = np.random.default_rng(29)
    for t in (1.0, 0.37, 1e-9):
        kink = np.full(n, p.lam * (0.4 + t))
        X = np.stack([np.zeros(n), -np.zeros(n), kink, -kink,
                      np.nextafter(kink, np.inf), -np.nextafter(kink, np.inf),
                      np.nextafter(kink, 0.0), np.full(n, 1e300),
                      np.full(n, -1e300), rng.uniform(-3.0, 3.0, n),
                      rng.uniform(-3.0, 3.0, n)])
        inner = np.abs(X) <= p.lam * (0.4 + t)
        want = np.where(inner, X * 0.4 / (0.4 + t),
                        X - t * p.lam * np.sign(X))
        got = p.prox_batch(X, t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.all(inner[:2]) and not np.all(inner)


@pytest.mark.parametrize("shape", [(), (4,), (3, 4)],
                         ids=["point", "stack", "stack_2d"])
def test_huber_prox_matches_the_two_branch_formula_bitwise(shape):
    # the outer branch, then the inner one written where |x| <= lam (mu + t),
    # against np.where over both branches: at the kink lam (mu + t), its
    # neighbouring floats, +-0, +-inf and nan
    p = pb.HuberEnvelope(0.7, 0.4)
    for t in (1.0, 0.37, 1e-9):
        kink = p.lam * (0.4 + t)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan]
        for k in (kink, np.nextafter(kink, 0.0), np.nextafter(kink, np.inf)):
            special += [k, -k]
        for x in special:
            X = np.full(shape + (5,), x)
            X[..., 0] = 1.5
            want = np.where(np.abs(X) <= kink, X * 0.4 / (0.4 + t),
                            X - np.copysign(t * p.lam, X))
            got = pb._kernels.penalty_prox(p, X, t)
            assert got.shape == X.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("h, want", [
    (pb.AbsValue(0.5), (-0.5, 0.5, 0.0, 0.0)),
    (pb.EpsilonInsensitive(0.9, 0.2), (-0.9, 0.9, 0.2, 0.0)),
    (pb.CheckFunction(1.0, 0.3), (1.0 * (0.3 - 1.0), 0.3, 0.0, 0.0)),
    (pb.HuberEnvelope(2.0, 0.4), (-2.0, 2.0, 0.0, 0.4))],
    ids=["absvalue", "epsiloninsensitive", "checkfunction", "huberenvelope"])
def test_dual_box_is_four_floats(h, want):
    # h's conjugate is one box, l1 and quadratic term for every coordinate
    got = h.dual_box()
    assert got == want
    assert all(type(v) is float for v in got)


def test_lipschitz_bound_values():
    assert pb.AbsValue(0.5).lipschitz_bound(4) == pytest.approx(0.5 * 2.0)
    assert pb.CheckFunction(1.0, 0.3).lipschitz_bound(1) == pytest.approx(0.7)
    assert pb.HuberEnvelope(2.0, 1.0).lipschitz_bound(1) == pytest.approx(2.0)
