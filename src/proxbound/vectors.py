"""Dense vector validation helpers.

Iterates, gradients and residuals are plain 1-D float64 numpy arrays; these
helpers enforce the finiteness/shape invariants once at API boundaries.
"""

import numpy as np

from .errors import DimensionMismatch


def as_vector(x, dim=None, name="x"):
    """Coerce to a finite 1-D float64 array, checking length against dim."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dim {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_points(x, dim=None, name="x"):
    """Coerce to a finite float64 array of points along the last axis: one
    point (n,) or a stack (..., n), with n checked against dim."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim < 2:
        return as_vector(v, dim, name)
    if dim is not None and v.shape[-1] != dim:
        raise DimensionMismatch(
            f"{name} holds points of dim {v.shape[-1]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_matrix(a, shape=None, name="A"):
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if shape is not None and m.shape != tuple(shape):
        raise DimensionMismatch(f"{name} has shape {m.shape}, expected {tuple(shape)}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m
