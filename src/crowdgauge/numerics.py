"""Shared numeric kernel: normal quantiles, propagated deviations of a
stack of linearized statistics (one clamp rule), matrix inversion,
eigendecomposition (stacks of general or of symmetric matrices), and
minimum-variance weights.
The binary and k-ary reports build their intervals from these: the
estimate less and plus z times its deviation.

Every routine is deterministic. Tolerances are module constants so tests can
reference them directly.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

import numpy as np

from .errors import EstimationFailure, REASON_EIGEN_NONCONVERGENCE

Matrix = np.ndarray

# A matrix counts as singular when its 1-norm condition number
# ||A||_1 ||A^-1||_1 reaches this; the rule is relative, so it does not
# depend on the scale of the entries.
COND_LIMIT = 1e12
# Quadratic forms more negative than this fail; values in [-tol, 0) clamp to 0.
VARIANCE_CLAMP_TOL = 1e-12

_STANDARD_NORMAL = statistics.NormalDist()


def normal_quantile(t: float) -> float:
    """Return z with P(Z <= z) = t for a standard normal Z.

    Raises ValueError unless 0 < t < 1.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {t}")
    return _STANDARD_NORMAL.inv_cdf(t)


def propagated_deviations(gradients: np.ndarray, covariances: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """(deviations, negative) of B linearized statistics, from (B, n)
    gradients g and (B, n, n) covariances C: a quadratic form g^T C g in
    [-VARIANCE_CLAMP_TOL, 0) clamps to a zero deviation, and one below that
    is flagged `negative` (deviation 0) for the caller to fail with
    REASON_NEGATIVE_VARIANCE."""
    variances = (gradients[:, None, :] @ covariances @ gradients[:, :, None])[:, 0, 0]
    return np.sqrt(np.maximum(variances, 0.0)), variances < -VARIANCE_CLAMP_TOL


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
    magnitude seen so callers can enforce realness. Symmetric items take
    the general solver too (eigendecompose_symmetric gives an orthonormal
    basis). A solver that does not converge raises
    EstimationFailure(REASON_EIGEN_NONCONVERGENCE).
    """
    try:
        w, v = np.linalg.eig(np.asarray(stack, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise EstimationFailure(REASON_EIGEN_NONCONVERGENCE,
                                f"eigendecomposition failed: {exc}") from exc
    max_imag = np.maximum(np.abs(w.imag).max(axis=1), np.abs(v.imag).max(axis=(1, 2)))
    order = np.lexsort((-w.imag, -w.real), axis=1)
    return (np.take_along_axis(v, order[:, None, :], axis=2).real,
            np.take_along_axis(w, order, axis=1).real, max_imag)


def eigendecompose_symmetric(matrix: Matrix) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvector columns and eigenvalues of a symmetric matrix,
    or of each matrix of a (B, n, n) stack.

    Eigenvalues descend (a stable sort, so ties keep the solver's order).
    Each item of a stack gets the bits it would get alone. A solver that
    does not converge raises
    EstimationFailure(REASON_EIGEN_NONCONVERGENCE).
    """
    try:
        values, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EstimationFailure(REASON_EIGEN_NONCONVERGENCE,
                                f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-values, axis=-1, kind="stable")
    return (np.take_along_axis(vectors, order[..., None, :], axis=-1),
            np.take_along_axis(values, order, axis=-1))


class WeightSolution(NamedTuple):
    weights: np.ndarray
    fallback: bool


def optimal_weights(covariance: Matrix) -> WeightSolution:
    """Weights minimizing w^T C w subject to sum(w) = 1.

    Solves C^-1 1 and normalizes it to unit sum. A singular C (see
    invert_matrices), or a C^-1 1 whose entries cancel (|sum| <= 1e-12 *
    sum of magnitudes), gets uniform weights with the fallback flag set;
    a singular C is never regularized into a solution. Raises ValueError
    for a non-square or non-finite C.
    """
    c = np.asarray(covariance, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"covariance must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("covariance entries must be finite")
    ones = np.ones(c.shape[0])
    inverse, singular = invert_matrices(c[None])
    if not singular[0]:
        base = inverse[0] @ ones
        total = float(base.sum())
        if abs(total) > 1e-12 * float(np.abs(base).sum()):
            return WeightSolution(base / total, False)
    return WeightSolution(ones / ones.size, True)
