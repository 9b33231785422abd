import numpy as np
import pytest

import proxbound as pb


def vec(*vals):
    return np.array(vals, dtype=float)


def save_dense_matrix(path, M):
    """Write M in the format load_dense_matrix reads: "rows cols", then one
    line of 17-digit reals per row."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def fd_check(target, x, h):
    """Max relative disagreement between analytic and central differences.

    Works on smooth functions (gradient check) and smooth maps (columnwise
    Jacobian check); the scale is 1 + |analytic| per entry.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if isinstance(target, pb.SmoothFunction):
        analytic = target.grad(x)
        num = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            num[i] = (target.value(x + e) - target.value(x - e)) / (2.0 * h)
        return float(np.max(np.abs(analytic - num) / (1.0 + np.abs(analytic))))
    if isinstance(target, pb.SmoothMap):
        _, J = target.eval_jac(x)
        err = 0.0
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            col = (target.value(x + e) - target.value(x - e)) / (2.0 * h)
            err = max(err, float(np.max(np.abs(J[:, i] - col)
                                        / (1.0 + np.abs(J[:, i])))))
        return err
    raise TypeError(f"cannot finite-difference a {type(target).__name__}")


@pytest.fixture(scope="module")
def losses():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((12, 5))
    b = rng.standard_normal(12)
    labels = np.sign(rng.standard_normal(12))
    return {
        "quadratic": pb.Quadratic(A, b),
        "logistic": pb.Logistic(A, labels),
        "corridor": pb.Corridor(dim=5),
        "corridor_affine": pb.Corridor(A=A, b=b),
        "huberloss": pb.HuberLoss(A, b, 0.7),
    }


@pytest.mark.parametrize("rows", [1, 300])
@pytest.mark.parametrize("name", ["quadratic", "logistic", "corridor",
                                  "corridor_affine", "huberloss"])
def test_value_over_stacked_residuals_is_each_lone_value_bitwise(losses, name,
                                                                 rows):
    # the proximal-gradient loop stores each iterate's residual and takes f
    # over the stack once; X is wide enough that every piece shows: both
    # sides of the corridor's and the Huber loss's kinks, both tails of the
    # logistic
    f = losses[name]
    X = np.random.default_rng(rows).uniform(-3, 3, size=(rows, f.dim))
    R = np.array([f._residual(x[None])[0] for x in X])
    want = [f.value_batch(x[None])[0] for x in X]
    assert np.array_equal(f._value_at(R), want)


def test_corridor_values_and_grads():
    f = pb.Corridor(dim=1)
    assert f.value(vec(3.0)) == 4.0
    assert f.value(vec(0.5)) == 0.0
    assert f.grad(vec(3.0)) == pytest.approx([4.0])
    assert f.grad(vec(0.5)) == pytest.approx([0.0])
    assert f.beta == 2.0


def test_quadratic_identity_values():
    f = pb.Quadratic(np.eye(2), np.zeros(2))
    assert f.value(vec(1.0, 2.0)) == pytest.approx(2.5)
    assert f.grad(vec(1.0, 2.0)) == pytest.approx([1.0, 2.0])
    assert f.beta == pytest.approx(1.0, rel=1e-8)


def test_quadratic_beta_is_lambda_max():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 4))
    f = pb.Quadratic(A, np.zeros(8))
    want = float(np.linalg.eigvalsh(A.T @ A)[-1])
    assert f.beta == pytest.approx(want, rel=1e-8)


def test_fd_check_quadratic_tight():
    rng = np.random.default_rng(3)
    f = pb.Quadratic(rng.standard_normal((6, 4)), rng.standard_normal(6))
    assert fd_check(f, rng.standard_normal(4), 1e-6) <= 1e-8


def test_fd_check_corridor_off_kink():
    f = pb.Corridor(dim=1)
    assert fd_check(f, vec(3.0), 1e-6) <= 1e-5


def test_fd_check_corridor_at_kink_reports_mismatch():
    # one-sided derivative mismatch is expected right on the kink; the check
    # reports it rather than failing
    f = pb.Corridor(dim=1)
    err = fd_check(f, vec(1.0), 1e-6)
    assert np.isfinite(err)


def test_fd_check_all_losses(losses):
    rng = np.random.default_rng(4)
    for name, f in losses.items():
        for _ in range(20):
            x = rng.uniform(-3, 3, size=f.dim)
            if "corridor" in name:
                # keep away from the gradient kinks
                z = x if f.A is None else f.A @ x - f.b
                if np.any(np.abs(np.abs(z) - 1.0) < 1e-5):
                    continue
            assert fd_check(f, x, 1e-6) <= 1e-5, name


def test_declared_beta_is_lipschitz_bound(losses):
    rng = np.random.default_rng(5)
    for name, f in losses.items():
        X = rng.uniform(-10, 10, size=(1000, f.dim))
        Y = rng.uniform(-10, 10, size=(1000, f.dim))
        dg = np.linalg.norm(f.grad_batch(X) - f.grad_batch(Y), axis=1)
        dx = np.linalg.norm(X - Y, axis=1)
        assert np.all(dg <= f.beta * dx * (1 + 1e-9)), name


def test_convexity_monotone_gradients(losses):
    rng = np.random.default_rng(6)
    for name, f in losses.items():
        X = rng.uniform(-5, 5, size=(500, f.dim))
        Y = rng.uniform(-5, 5, size=(500, f.dim))
        inner = np.sum((f.grad_batch(X) - f.grad_batch(Y)) * (X - Y), axis=1)
        assert np.all(inner >= -1e-12), name


def test_affine_map_exact():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 3))
    b = rng.standard_normal(4)
    c = pb.AffineMap(A, b)
    x = rng.standard_normal(3)
    val, J = c.eval_jac(x)
    assert val == pytest.approx(A @ x + b)
    assert np.array_equal(J, A)
    assert c.jac_beta == 0.0


def test_quadratic_map_example():
    c = pb.QuadraticMap(np.array([[[2.0]]]), np.array([[0.0]]), vec(-1.0))
    val, J = c.eval_jac(vec(1.0))
    assert val == pytest.approx([0.0])
    assert J.ravel() == pytest.approx([2.0])


def test_zero_quadratic_map():
    c = pb.QuadraticMap(np.zeros((2, 3, 3)), np.zeros((2, 3)), np.zeros(2))
    val, J = c.eval_jac(vec(1.0, -2.0, 0.5))
    assert np.all(val == 0) and np.all(J == 0)
    assert c.jac_beta == 0.0


def test_quadratic_map_fd_jacobian():
    c = pb.random_quadratic_map(6, 4, 9, 0.8)
    rng = np.random.default_rng(10)
    for _ in range(20):
        assert fd_check(c, rng.uniform(-2, 2, size=4), 1e-6) <= 1e-5


def test_map_jacobian_lipschitz():
    c = pb.random_quadratic_map(6, 4, 9, 0.8)
    rng = np.random.default_rng(11)
    for _ in range(300):
        x, y = rng.uniform(-10, 10, size=(2, 4))
        _, Jx = c.eval_jac(x)
        _, Jy = c.eval_jac(y)
        lhs = np.linalg.norm(Jx - Jy, 2)
        assert lhs <= c.jac_beta * np.linalg.norm(x - y) * (1 + 1e-9)


def test_matrix_io_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    M = rng.standard_normal((3, 5))
    path = tmp_path / "m.txt"
    save_dense_matrix(path, M)
    assert str(open(path).readline()).strip() == "3 5"
    back = pb.load_dense_matrix(path)
    assert np.array_equal(back, M)


def test_matrix_io_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2 3\n")
    with pytest.raises(ValueError):
        pb.load_dense_matrix(path)


def test_smooth_from_spec(tmp_path):
    f = pb.smooth_from_spec("corridor(dim=7)")
    assert isinstance(f, pb.Corridor) and f.dim == 7
    f = pb.smooth_from_spec("quadratic(rows=6,cols=3,seed=1)")
    assert isinstance(f, pb.Quadratic) and f.dim == 3
    rng = np.random.default_rng(13)
    A = rng.standard_normal((4, 2))
    b = rng.standard_normal(4)
    pa, pben = tmp_path / "A.txt", tmp_path / "b.txt"
    save_dense_matrix(pa, A)
    save_dense_matrix(pben, b.reshape(-1, 1))
    f = pb.smooth_from_spec(f"quadratic(file={pa},rhs={pben})")
    assert f.value(np.zeros(2)) == pytest.approx(0.5 * b @ b)
    f = pb.smooth_from_spec(f"huberloss(file={pa},rhs={pben},mu=0.5)")
    assert isinstance(f, pb.HuberLoss)
    with pytest.raises(ValueError):
        pb.smooth_from_spec("corridor()")
    with pytest.raises(ValueError):
        pb.smooth_from_spec("mystery(dim=2)")


def test_map_from_spec():
    c = pb.map_from_spec("affine(identity=4)")
    assert isinstance(c, pb.AffineMap) and c.dim_in == 4
    c = pb.map_from_spec("quadraticmap(rows=6,cols=3,seed=2,curvature=0.2)")
    assert isinstance(c, pb.QuadraticMap) and (c.dim_out, c.dim_in) == (6, 3)
    with pytest.raises(ValueError):
        pb.map_from_spec("affine()")


def test_power_iteration_matches_eigh():
    rng = np.random.default_rng(14)
    for n in (2, 5, 9):
        B = rng.standard_normal((n, n))
        M = B.T @ B
        want = float(np.linalg.eigvalsh(M)[-1])
        assert pb.lambda_max_sym(M) == pytest.approx(want, rel=1e-7)


def test_logistic_labels_validated():
    with pytest.raises(ValueError):
        pb.Logistic(np.eye(2), vec(1.0, 0.5))
