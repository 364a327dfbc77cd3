"""Shared numeric kernel: normal quantiles, linearized confidence intervals,
matrix inversion, eigendecomposition, and minimum-variance weights.

Every routine is deterministic. Tolerances are module constants so tests can
reference them directly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    EstimationFailure,
    REASON_EIGEN_NONCONVERGENCE,
    REASON_NEGATIVE_VARIANCE,
)

Matrix = np.ndarray

# A matrix counts as singular when its 1-norm condition number
# ||A||_1 ||A^-1||_1 reaches this; the rule is relative, so it does not
# depend on the scale of the entries.
COND_LIMIT = 1e12
# Quadratic forms more negative than this fail; values in [-tol, 0) clamp to 0.
VARIANCE_CLAMP_TOL = 1e-12
# A matrix counts as symmetric when max|M - M^T| < tol * max|M|.
SYMMETRY_DETECTION_TOL = 1e-12
# Diagonal ridge added (once) to a singular covariance before giving up.
RIDGE_SCALE = 1e-10

_STANDARD_NORMAL = statistics.NormalDist()


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


def normal_quantile(t: float) -> float:
    """Return z with P(Z <= z) = t for a standard normal Z.

    Raises ValueError unless 0 < t < 1.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {t}")
    return _STANDARD_NORMAL.inv_cdf(t)


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


def invert_matrices(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert each matrix of a (B, n, n) stack.

    Returns (inverses, singular). An item is singular when it has a
    non-finite entry, a zero determinant, or a 1-norm condition number of
    at least COND_LIMIT; its inverse slot then holds garbage. A singular
    item never stops the others from being inverted.
    """
    a = np.array(stack, dtype=float)
    eye = np.eye(a.shape[-1])
    singular = ~np.isfinite(a).all(axis=(1, 2))
    a[singular] = eye
    with np.errstate(all="ignore"):
        # slogdet, not det: det underflows to 0 for large well-conditioned
        # matrices with small entries, such as covariances. Extreme finite
        # inputs make slogdet warn; the condition test below flags them.
        sign, _ = np.linalg.slogdet(a)
        singular |= sign == 0
        a[singular] = eye
        inverses = np.linalg.inv(a)
        cond = np.abs(a).sum(axis=1).max(axis=1) * np.abs(inverses).sum(axis=1).max(axis=1)
    singular |= ~(cond < COND_LIMIT)
    return inverses, singular


def eigendecompose_many(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose each matrix of a (B, n, n) stack of finite real matrices.

    Returns (E, D, max_imag) stacks: eigenvector columns E and eigenvalues D
    sorted by descending real part (ties by descending imaginary part), both
    with imaginary parts dropped, plus per item the largest imaginary
    magnitude seen so callers can enforce realness. Symmetric items
    (detected via SYMMETRY_DETECTION_TOL) take the symmetric path, get
    orthonormal eigenvectors and report max_imag 0. A solver that does not
    converge raises EstimationFailure(REASON_EIGEN_NONCONVERGENCE).
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
        raise EstimationFailure(REASON_EIGEN_NONCONVERGENCE,
                                f"eigendecomposition failed: {exc}") from exc
    if not symmetric.all():
        w = np.asarray(w, dtype=complex)
        v = np.asarray(v, dtype=complex)
        max_imag[~symmetric] = np.maximum(np.abs(w.imag).max(axis=1),
                                          np.abs(v.imag).max(axis=(1, 2)))
        order = np.lexsort((-w.imag, -w.real), axis=1)
        values[~symmetric] = np.take_along_axis(w, order, axis=1).real
        vectors[~symmetric] = np.take_along_axis(v, order[:, None, :], axis=2).real
    return vectors, values, max_imag


class WeightSolution(NamedTuple):
    weights: np.ndarray
    fallback: bool


def optimal_weights(covariance: Matrix) -> WeightSolution:
    """Weights minimizing w^T C w subject to sum(w) = 1.

    Solves C^-1 1 and normalizes it to unit sum. A singular C (see
    invert_matrices) gets one ridge-regularized retry (RIDGE_SCALE * mean
    diagonal); if that also fails, or the entries of C^-1 1 cancel
    (|sum| <= 1e-12 * sum of magnitudes), falls back to uniform weights
    with the fallback flag set. Raises ValueError for a non-square or
    non-finite C.
    """
    c = np.asarray(covariance, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"covariance must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("covariance entries must be finite")
    size = c.shape[0]
    ones = np.ones(size)
    uniform = WeightSolution(ones / size, True)
    inverse, singular = invert_matrices(c[None])
    if singular[0]:
        ridge = RIDGE_SCALE * float(np.trace(c)) / size
        inverse, singular = invert_matrices((c + ridge * np.eye(size))[None])
        if singular[0]:
            return uniform
    base = inverse[0] @ ones
    total = float(base.sum())
    if abs(total) <= 1e-12 * float(np.abs(base).sum()):
        return uniform
    return WeightSolution(base / total, False)
