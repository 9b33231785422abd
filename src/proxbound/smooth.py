"""Smooth losses f: R^n -> R and smooth maps c: R^n -> R^m.

Every loss carries an analytically derived Lipschitz modulus of its gradient
(beta); every map carries one for its Jacobian (jac_beta, exactly 0 for
affine maps). A modulus that comes out inf or NaN, from matrices whose
products overflow, raises ValueError at construction, and no numpy warning
escapes while it is taken. Dense matrices only; problems are desk-scale.

A loss evaluates rows of a stack X: value_batch gives f at each row and
grad_batch its gradient. Each catalog loss writes its formulas once, as
three hooks: its affine residual (Ax - b, Ax or the corridor's z), f from
the residual and the gradient from it. f from the residual is elementwise
work plus a sum along each row, so over a stack of residual rows it gives
each row the bits a lone row gets; the proximal-gradient loop relies on
that to take f once, over the residuals it stored. The residual and the
gradient take their products by np.dot, the BLAS call that @ makes for
1-D and 2-D operands (the same bits), without the matmul dispatch that a
single-point proximal-gradient step would pay twice.
"""

import numpy as np

from .errors import DimensionMismatch
from .specs import build_from_spec
from .vectors import as_matrix, as_vector

# declared moduli are floored here so degenerate (constant/affine) smooth
# parts keep beta positive and default steps 1/beta finite
BETA_FLOOR = 1e-12
# the power iteration stops once the eigenvalue estimate moves by at most
# POWER_REL_TOL relative (to max(1, |lambda|)), or after POWER_MAX_ITER steps
POWER_REL_TOL = 1e-8
POWER_MAX_ITER = 10000


def lambda_max_sym(M):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    M is one (n, n) matrix, giving a float, or a (B, n, n) stack, giving a
    (B,) array. Every matrix starts from the same seeded vector and stops
    on its own test, then retires; a 2-D M is the B = 1 case, and each row
    of a stack gets the bits a lone call would.
    """
    M = np.asarray(M, dtype=np.float64)
    single = M.ndim == 2
    if single:
        M = M[None]
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(M.shape[-1])
    v /= np.linalg.norm(v)
    # columns (B, n, 1): each product is the BLAS call a lone matrix makes
    MV = np.matmul(M, np.repeat(v[None, :, None], M.shape[0], axis=0))
    lam = np.zeros(M.shape[0])
    out = np.zeros(M.shape[0])
    rows = np.arange(M.shape[0])
    for _ in range(POWER_MAX_ITER):
        if not rows.size:
            break
        nw = np.sqrt(np.matmul(MV.transpose(0, 2, 1), MV))
        zero = None
        if np.count_nonzero(nw) < nw.size:
            # M v = 0: the eigenvalue is 0, and the row retires with that
            zero = nw[:, 0, 0] == 0.0
            nw[zero] = 1.0
        V = MV / nw
        # M v at the new v is also the next iteration's product
        MV = np.matmul(M, V)
        lam_new = np.matmul(V.transpose(0, 2, 1), MV)[:, 0, 0]
        done = (np.abs(lam_new - lam)
                <= POWER_REL_TOL * np.maximum(1.0, np.abs(lam_new)))
        if zero is not None:
            lam_new[zero] = 0.0
            done |= zero
        if np.count_nonzero(done):
            out[rows[done]] = lam_new[done]
            keep = ~done
            rows, M, MV = rows[keep], M[keep], MV[keep]
            lam_new = lam_new[keep]
        lam = lam_new
    out[rows] = lam
    return float(out[0]) if single else out


def _gram_max(A):
    """lambda_max(A^T A) with numpy's warnings held: where A^T A overflows
    it comes out inf or NaN, which _finite rejects."""
    with np.errstate(all="ignore"):
        return lambda_max_sym(A.T @ A)


def _finite(name, modulus):
    """A declared modulus, or ValueError when it is inf or NaN."""
    if not np.isfinite(modulus):
        raise ValueError(f"declared modulus {name} = {modulus} is not finite")
    return modulus


def operator_norm_sq(A):
    """Squared spectral norm of A, the largest eigenvalue of A^T A by
    eigvalsh: a float for one (m, n) matrix, a (B,) array for a (B, m, n)
    stack, each row bit for bit a lone call's. It sets only inner solver
    steps; the moduli beta and jac_beta come from lambda_max_sym."""
    A = np.asarray(A, dtype=np.float64)
    lam = np.linalg.eigvalsh(np.matmul(np.swapaxes(A, -1, -2), A))[..., -1]
    return float(lam) if A.ndim == 2 else lam


# ---------------------------------------------------------------------------
# Plain-text dense matrix format: first line "rows cols", then row-major reals
# ---------------------------------------------------------------------------

def load_dense_matrix(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: first line must be 'rows cols'")
        rows, cols = int(header[0]), int(header[1])
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: rows and cols must be >= 1")
        data = np.array(fh.read().split(), dtype=np.float64)
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, got {data.size}")
    return data.reshape(rows, cols)


def load_dense_vector(path):
    M = load_dense_matrix(path)
    return M.ravel()


# ---------------------------------------------------------------------------
# Smooth losses
# ---------------------------------------------------------------------------

class SmoothFunction:
    """Base class: smooth f with analytic gradient and declared beta.

    A loss defines _residual(X), its affine residual at the rows of X, and
    _value_at(R) and _grad_at(R), f and its gradient from that residual."""

    dim = None
    beta = None

    def value(self, x):
        return float(self.value_batch(as_vector(x, self.dim)[None, :])[0])

    def grad(self, x):
        return self.grad_batch(as_vector(x, self.dim)[None, :])[0]

    def value_batch(self, X):
        return self._value_at(self._residual(X))

    def grad_batch(self, X):
        return self._grad_at(self._residual(X))


class Quadratic(SmoothFunction):
    """f(x) = |Ax - b|^2 / 2, beta = lambda_max(A^T A)."""

    def __init__(self, A, b):
        self.A = as_matrix(A)
        self.b = as_vector(b, self.A.shape[0], "b")
        self.dim = self.A.shape[1]
        self.beta = _finite("beta", max(_gram_max(self.A), BETA_FLOOR))

    def _residual(self, X):
        return np.dot(X, self.A.T) - self.b

    def _value_at(self, R):
        return 0.5 * (R * R).sum(axis=1)

    def _grad_at(self, R):
        return np.dot(R, self.A)


class Logistic(SmoothFunction):
    """f(x) = sum_i log(1 + exp(-y_i a_i^T x)), labels y in {-1, +1}."""

    def __init__(self, A, y):
        self.A = as_matrix(A)
        self.y = as_vector(y, self.A.shape[0], "y")
        if not np.all(np.abs(self.y) == 1.0):
            raise ValueError("logistic labels must be +-1")
        self.dim = self.A.shape[1]
        self.beta = _finite("beta",
                            max(0.25 * _gram_max(self.A), BETA_FLOOR))

    def _residual(self, X):
        return np.dot(X, self.A.T)

    def _value_at(self, XA):
        return np.logaddexp(0.0, -XA * self.y).sum(axis=1)

    def _grad_at(self, XA):
        s = 1.0 / (1.0 + np.exp(XA * self.y))
        return -np.dot(s * self.y, self.A)


class Corridor(SmoothFunction):
    """f(x) = sum_i max(|z_i| - 1, 0)^2 with z = Ax - b (identity by default).

    The gradient is 2-Lipschitz in z, hence beta = 2 lambda_max(A^T A); the
    plain (A = I) version has beta = 2 and minimizer set [-1, 1]^n.
    """

    def __init__(self, dim=None, A=None, b=None):
        if A is None:
            if dim is None:
                raise ValueError("corridor needs dim or an affine map")
            self.A = None
            self.b = None
            self.dim = int(dim)
            self.beta = 2.0
        else:
            self.A = as_matrix(A)
            self.b = (np.zeros(self.A.shape[0]) if b is None
                      else as_vector(b, self.A.shape[0], "b"))
            self.dim = self.A.shape[1]
            self.beta = _finite("beta",
                                max(2.0 * _gram_max(self.A), BETA_FLOOR))

    def _residual(self, X):
        if self.A is None:
            return X
        return np.dot(X, self.A.T) - self.b

    def _value_at(self, Z):
        e = np.maximum(np.abs(Z) - 1.0, 0.0)
        return (e * e).sum(axis=1)

    def _grad_at(self, Z):
        G = 2.0 * np.sign(Z) * np.maximum(np.abs(Z) - 1.0, 0.0)
        if self.A is None:
            return G
        return np.dot(G, self.A)


class HuberLoss(SmoothFunction):
    """f(x) = sum_i huber_mu((Ax - b)_i), unit slope outside |z| <= mu."""

    def __init__(self, A, b, mu):
        if not 0.0 < mu < np.inf:
            raise ValueError("mu must lie in (0, inf)")
        self.A = as_matrix(A)
        self.b = as_vector(b, self.A.shape[0], "b")
        self.mu = float(mu)
        self.dim = self.A.shape[1]
        self.beta = _finite("beta",
                            max(_gram_max(self.A) / self.mu, BETA_FLOOR))

    def _residual(self, X):
        return np.dot(X, self.A.T) - self.b

    def _value_at(self, Z):
        az = np.abs(Z)
        return np.where(az <= self.mu, Z * Z / (2.0 * self.mu),
                        az - self.mu / 2.0).sum(axis=1)

    def _grad_at(self, Z):
        return np.dot(np.clip(Z / self.mu, -1.0, 1.0), self.A)


# ---------------------------------------------------------------------------
# Smooth maps
# ---------------------------------------------------------------------------

class SmoothMap:
    """Base class: smooth c: R^n -> R^m with Jacobian and declared jac_beta."""

    dim_in = None
    dim_out = None
    jac_beta = None

    def eval_jac(self, x):
        """(c(x), Jacobian) with the Jacobian dense m x n."""
        C, J = self.eval_jac_batch(as_vector(x, self.dim_in)[None, :])
        return C[0], J[0]

    def eval_jac_batch(self, X):
        """(c(X), Jacobians) for the rows of X: (B, m) values and a (B, m, n)
        stack. Each row goes through the same BLAS products as a lone point,
        so eval_jac is its B = 1 case bit for bit."""
        raise NotImplementedError

    def value(self, x):
        return self.eval_jac(x)[0]


class AffineMap(SmoothMap):
    """c(x) = Ax + b; the Jacobian is constant so jac_beta is exactly 0."""

    def __init__(self, A, b=None):
        self.A = as_matrix(A)
        self.b = (np.zeros(self.A.shape[0]) if b is None
                  else as_vector(b, self.A.shape[0], "b"))
        self.dim_in = self.A.shape[1]
        self.dim_out = self.A.shape[0]
        self.jac_beta = 0.0

    def eval_jac_batch(self, X):
        X = np.asarray(X, dtype=np.float64)
        C = np.matmul(self.A, X[:, :, None])[:, :, 0] + self.b
        return C, np.repeat(self.A[None], X.shape[0], axis=0)


class QuadraticMap(SmoothMap):
    """c_i(x) = x^T Q_i x / 2 + a_i^T x + b_i.

    jac_beta = sqrt(sum_i |Q_i|_2^2), a valid Lipschitz bound since the
    Jacobian rows vary as (Q_i dx)^T.
    """

    def __init__(self, Qs, a, b):
        Qs = np.asarray(Qs, dtype=np.float64)
        if Qs.ndim != 3 or Qs.shape[1] != Qs.shape[2]:
            raise DimensionMismatch("Qs must be (m, n, n)")
        self.a = as_matrix(a, (Qs.shape[0], Qs.shape[1]), "a")
        self.b = as_vector(b, Qs.shape[0], "b")
        self.dim_in = Qs.shape[1]
        self.dim_out = Qs.shape[0]
        with np.errstate(all="ignore"):
            # only the symmetric part matters for x^T Q x; store it so the
            # gradient formula Q_i x + a_i is exact
            self.Qs = 0.5 * (Qs + np.transpose(Qs, (0, 2, 1)))
            # a running total in row order: np.sum's pairwise order would
            # move the last bit of jac_beta, and with it the default step
            # 1/(L beta)
            sq = np.cumsum(lambda_max_sym(np.matmul(self.Qs, self.Qs)))
            jac_beta = float(np.sqrt(sq[-1] if sq.size else 0.0))
        self.jac_beta = _finite("jac_beta", jac_beta)

    def eval_jac_batch(self, X):
        X = np.asarray(X, dtype=np.float64)
        col = X[:, :, None]
        Qx = np.matmul(self.Qs, X[:, None, :, None])[..., 0]   # (B, m, n)
        vals = (0.5 * np.matmul(Qx, col)[:, :, 0]
                + np.matmul(self.a, col)[:, :, 0] + self.b)
        return vals, Qx + self.a


# ---------------------------------------------------------------------------
# Deterministic random instances + spec-string construction
# ---------------------------------------------------------------------------

def random_least_squares(rows, cols, seed):
    """Standard-normal A (rows x cols) and b (rows,) from one seeded stream."""
    rng = np.random.default_rng(int(seed))
    A = rng.standard_normal((rows, cols))
    b = rng.standard_normal(rows)
    return A, b


def random_quadratic_map(rows, cols, seed, curvature):
    """Affine residuals Ax - b plus a mild symmetric quadratic perturbation."""
    rng = np.random.default_rng(int(seed))
    A = rng.standard_normal((rows, cols))
    b = rng.standard_normal(rows)
    Qs = np.empty((rows, cols, cols))
    scale = curvature / (2.0 * np.sqrt(cols))
    with np.errstate(over="ignore"):  # QuadraticMap rejects an inf Q
        for i in range(rows):
            G = rng.standard_normal((cols, cols))
            Qs[i] = scale * (G + G.T)
    return QuadraticMap(Qs, A, -b)


def _random_affine(rows, cols, seed):
    """c(x) = Ax - b from random_least_squares."""
    A, b = random_least_squares(rows, cols, seed)
    return AffineMap(A, -b)


_M, _V = load_dense_matrix, load_dense_vector

# kind -> [(spec parameter names, builder)]; the builder takes the converted
# values in the order of the names (see proxbound.specs)
SMOOTH_KINDS = {
    "quadratic": [
        (("rows", "cols", "seed"),
         lambda rows, cols, seed: Quadratic(
             *random_least_squares(rows, cols, seed))),
        (("file", "rhs"), lambda A, b: Quadratic(_M(A), _V(b)))],
    "corridor": [
        (("dim",), Corridor),
        (("file",), lambda A: Corridor(A=_M(A))),
        (("file", "rhs"), lambda A, b: Corridor(A=_M(A), b=_V(b)))],
    "logistic": [(("file", "labels"), lambda A, y: Logistic(_M(A), _V(y)))],
    "huberloss": [(("file", "rhs", "mu"),
                   lambda A, b, mu: HuberLoss(_M(A), _V(b), mu))],
}
MAP_KINDS = {
    "affine": [
        (("rows", "cols", "seed"), _random_affine),
        (("file",), lambda A: AffineMap(_M(A))),
        (("file", "rhs"), lambda A, b: AffineMap(_M(A), _V(b))),
        (("identity",), lambda n: AffineMap(np.eye(n)))],
    "quadraticmap": [(("rows", "cols", "seed", "curvature"),
                      random_quadratic_map)],
}


def smooth_from_spec(text):
    """The smooth loss that a spec such as 'quadratic(rows=20,cols=10,
    seed=42)' names in SMOOTH_KINDS."""
    return build_from_spec(text, "smooth", SMOOTH_KINDS)


def map_from_spec(text):
    """The smooth map that a spec such as 'affine(identity=4)' names in
    MAP_KINDS."""
    return build_from_spec(text, "map", MAP_KINDS)
