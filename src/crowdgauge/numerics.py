"""Shared numeric kernel: normal quantiles, linearized confidence intervals,
matrix inversion, eigendecomposition, and minimum-variance weights.

Every routine is deterministic. Tolerances are module constants so tests can
reference them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    EstimationFailure,
    REASON_NEGATIVE_VARIANCE,
    SingularMatrixError,
)

Matrix = np.ndarray

# Absolute accuracy of normal_quantile on the z scale inside the refined region.
QUANTILE_ABS_TOL = 1e-9
# Pivots below this are treated as exact zeros during Gauss-Jordan elimination.
PIVOT_TOL = 1e-12
# Quadratic forms more negative than this fail; values in [-tol, 0) clamp to 0.
VARIANCE_CLAMP_TOL = 1e-12
# A matrix counts as symmetric when max|M - M^T| < tol * max|M|.
SYMMETRY_DETECTION_TOL = 1e-12
# Diagonal ridge added (once) to a singular covariance before giving up.
RIDGE_SCALE = 1e-10
# Refinement of the quantile is skipped where the normal density underflows.
_QUANTILE_REFINE_LIMIT = 37.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric two-sided interval, or a failure record.

    When `failed` is True the numeric fields are None and `reason` holds a
    short machine-readable cause; otherwise the interval is
    [estimate - half_width, estimate + half_width].
    """

    confidence: float
    estimate: float | None = None
    half_width: float | None = None
    failed: bool = False
    reason: str | None = None

    def __post_init__(self):
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.failed:
            if self.estimate is not None or self.half_width is not None:
                raise ValueError("a failed interval carries no numeric fields")
        else:
            if self.estimate is None or self.half_width is None:
                raise ValueError("a successful interval needs estimate and half_width")
            if self.half_width < 0.0:
                raise ValueError("half_width must be nonnegative")

    @staticmethod
    def failure(confidence: float, reason: str) -> "ConfidenceInterval":
        return ConfidenceInterval(confidence=confidence, failed=True, reason=reason)

    @property
    def lower(self) -> float | None:
        if self.failed:
            return None
        return self.estimate - self.half_width

    @property
    def upper(self) -> float | None:
        if self.failed:
            return None
        return self.estimate + self.half_width

    @property
    def width(self) -> float | None:
        if self.failed:
            return None
        return 2.0 * self.half_width

    def covers(self, value: float) -> bool:
        if self.failed:
            return False
        return self.lower <= value <= self.upper


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# Rational approximation coefficients for the standard normal quantile
# (relative error below 1.2e-9 across the full domain), then one Halley
# step against erfc pushes the absolute error below 1e-9.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_T_LOW = 0.02425
_T_HIGH = 1.0 - _T_LOW


def normal_quantile(t: float) -> float:
    """Return z with P(Z <= z) = t for a standard normal Z.

    Raises ValueError unless 0 < t < 1.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {t}")
    if t < _T_LOW:
        u = math.sqrt(-2.0 * math.log(t))
        x = ((((((_C[0] * u + _C[1]) * u + _C[2]) * u + _C[3]) * u + _C[4]) * u + _C[5])
             / ((((_D[0] * u + _D[1]) * u + _D[2]) * u + _D[3]) * u + 1.0))
    elif t <= _T_HIGH:
        u = t - 0.5
        r = u * u
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * u
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        u = math.sqrt(-2.0 * math.log(1.0 - t))
        x = -((((((_C[0] * u + _C[1]) * u + _C[2]) * u + _C[3]) * u + _C[4]) * u + _C[5])
              / ((((_D[0] * u + _D[1]) * u + _D[2]) * u + _D[3]) * u + 1.0))
    if abs(x) < _QUANTILE_REFINE_LIMIT:
        # One Halley step: e is the CDF error, u = e / density(x).
        e = _normal_cdf(x) - t
        u = e * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def propagated_deviation(gradient: Sequence[float] | np.ndarray,
                         covariance: Matrix) -> float:
    """Standard deviation sqrt(g^T C g) of a linearized statistic.

    Small negative quadratic forms (within VARIANCE_CLAMP_TOL) clamp to zero;
    anything more negative raises EstimationFailure("negative variance").
    """
    g = np.asarray(gradient, dtype=float)
    c = np.asarray(covariance, dtype=float)
    if g.ndim != 1 or c.shape != (g.size, g.size):
        raise ValueError("gradient must be a vector matching a square covariance")
    if not (np.isfinite(g).all() and np.isfinite(c).all()):
        raise ValueError("gradient and covariance must be finite")
    var = float(g @ c @ g)
    if var < -VARIANCE_CLAMP_TOL:
        raise EstimationFailure(REASON_NEGATIVE_VARIANCE, f"quadratic form {var:g}")
    return math.sqrt(max(var, 0.0))


def delta_method_ci(estimate: float,
                    gradient: Sequence[float] | np.ndarray,
                    covariance: Matrix,
                    confidence: float) -> ConfidenceInterval:
    """Two-sided interval estimate +- z * sqrt(g^T C g) at the given level.

    The multiplier z is the |normal quantile| at (1 - confidence) / 2. A
    negative quadratic form beyond the clamp tolerance yields a failed
    interval rather than an exception.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    try:
        dev = propagated_deviation(gradient, covariance)
    except EstimationFailure as exc:
        return ConfidenceInterval.failure(confidence, exc.reason)
    z = abs(normal_quantile((1.0 - confidence) / 2.0))
    return ConfidenceInterval(confidence=confidence, estimate=float(estimate),
                              half_width=z * dev)


def invert_matrices(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert a stack of square matrices by Gauss-Jordan elimination.

    Partial pivoting runs per matrix. Returns (inverses, singular): a matrix
    whose best available pivot falls below PIVOT_TOL is flagged singular
    and its inverse slot holds garbage. Inputs are assumed finite.
    """
    aug = np.array(stack, dtype=float)
    count, n = aug.shape[0], aug.shape[-1]
    aug = np.concatenate([aug, np.broadcast_to(np.eye(n), aug.shape)], axis=2)
    items = np.arange(count)
    singular = np.zeros(count, dtype=bool)
    with np.errstate(all="ignore"):
        for col in range(n):
            pivot_row = col + np.argmax(np.abs(aug[:, col:, col]), axis=1)
            top = aug[items, col].copy()
            aug[items, col] = aug[items, pivot_row]
            aug[items, pivot_row] = top
            pivot = aug[:, col, col].copy()
            singular |= np.abs(pivot) < PIVOT_TOL
            aug[:, col] /= np.where(singular, 1.0, pivot)[:, None]
            others = np.arange(n) != col
            aug[:, others] -= aug[:, others, col][:, :, None] * aug[:, col][:, None, :]
    return aug[:, :, n:], singular


def invert_matrix(matrix: Matrix) -> Matrix:
    """Invert a square matrix by Gauss-Jordan elimination with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls below
    PIVOT_TOL.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    inverse, singular = invert_matrices(m[None])
    if singular[0]:
        raise SingularMatrixError(f"a pivot fell below {PIVOT_TOL:g}")
    return inverse[0]


def eigendecompose_many(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose each matrix of a stack of finite real square matrices.

    Per matrix, the same contract as eigendecompose: returns (E, D,
    max_imag) stacks, with eigenvector columns and eigenvalues sorted by
    descending real part (ties by descending imaginary part), imaginary
    parts dropped, and symmetric matrices taking the symmetric path with
    max_imag 0.
    """
    m = np.array(stack, dtype=float)
    count, n = m.shape[0], m.shape[-1]
    scale = np.abs(m).max(axis=(1, 2))
    asym = np.abs(m - m.transpose(0, 2, 1)).max(axis=(1, 2))
    symmetric = (scale == 0.0) | (asym < SYMMETRY_DETECTION_TOL * scale)
    vectors = np.empty((count, n, n))
    values = np.empty((count, n))
    max_imag = np.zeros(count)
    try:
        if symmetric.any():
            w, v = np.linalg.eigh(m[symmetric])
            order = np.argsort(-w, axis=1, kind="stable")
            values[symmetric] = np.take_along_axis(w, order, axis=1)
            vectors[symmetric] = np.take_along_axis(v, order[:, None, :], axis=2)
        if not symmetric.all():
            w, v = np.linalg.eig(m[~symmetric])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    if not symmetric.all():
        w = np.asarray(w, dtype=complex)
        v = np.asarray(v, dtype=complex)
        max_imag[~symmetric] = np.maximum(np.abs(w.imag).max(axis=1),
                                          np.abs(v.imag).max(axis=(1, 2)))
        order = np.lexsort((-w.imag, -w.real), axis=1)
        values[~symmetric] = np.take_along_axis(w, order, axis=1).real
        vectors[~symmetric] = np.take_along_axis(v, order[:, None, :], axis=2).real
    return vectors, values, max_imag


def eigendecompose(matrix: Matrix) -> tuple[Matrix, np.ndarray, float]:
    """Eigendecompose a real square matrix.

    Returns (E, D, max_imag): eigenvector columns E and eigenvalues D sorted
    by descending real part (ties by descending imaginary part), both with
    imaginary parts dropped, plus the largest imaginary magnitude seen so
    callers can enforce realness. Symmetric input (detected via
    SYMMETRY_DETECTION_TOL) takes the symmetric path and reports max_imag 0.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    vectors, values, max_imag = eigendecompose_many(m[None])
    return vectors[0], values[0], float(max_imag[0])


class WeightSolution(NamedTuple):
    weights: np.ndarray
    fallback: bool


def optimal_weights(covariance: Matrix) -> WeightSolution:
    """Weights minimizing w^T C w subject to sum(w) = 1.

    Solves C^-1 1 and normalizes it to unit sum. A singular C gets one
    ridge-regularized retry (RIDGE_SCALE * mean diagonal); if that also
    fails, or the entries of C^-1 1 cancel (|sum| <= 1e-12 * sum of
    magnitudes), falls back to uniform weights with the fallback flag set.
    """
    c = np.asarray(covariance, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"covariance must be square, got shape {c.shape}")
    size = c.shape[0]
    ones = np.ones(size)
    uniform = WeightSolution(ones / size, True)
    try:
        base = invert_matrix(c) @ ones
    except SingularMatrixError:
        ridge = RIDGE_SCALE * float(np.trace(c)) / size
        try:
            base = invert_matrix(c + ridge * np.eye(size)) @ ones
        except SingularMatrixError:
            return uniform
    if not np.isfinite(base).all():
        return uniform
    total = float(base.sum())
    if abs(total) <= 1e-12 * float(np.abs(base).sum()):
        return uniform
    return WeightSolution(base / total, False)
