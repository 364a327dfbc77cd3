"""Response-probability matrices for k-ary tasks from three workers.

With truths drawn from a selectivity distribution S and worker w responding
by row P_w(truth, .), the pairwise response-frequency matrices factor
through S^(1/2) P_w. The product R_12 R_32^-1 R_31 is the Gram matrix of
V_1 = S_D^(1/2) P_1, whose square root combined with per-response
conditional slices recovers each V_w up to a common row permutation.
The reported matrices are the row normalizations P_w = V_w / rowsum(V_w).

Entrywise confidence intervals for P_w follow from the delta method: a
numerical Jacobian of V against every count cell the recovery reads (the
all-three-answered cells and the cells answered by exactly two workers),
carried through the row normalization, and contracted with the multinomial
covariance of the counts within each attempt pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import ResponseDataset
from .errors import (
    EstimationFailure,
    InsufficientOverlapError,
    REASON_DEGENERATE_SELECTIVITY,
    REASON_JACOBIAN_FAILURE,
    REASON_NEGATIVE_SPECTRUM,
    REASON_NO_USABLE_SLICES,
    REASON_NONINVERTIBLE_FREQUENCY,
    REASON_SINGULAR_ESTIMATE,
)
from .numerics import (
    COND_LIMIT,
    ConfidenceInterval,
    eigendecompose_many,
    invert_matrices,
    normal_quantile,
)

# Eigenvalues of the Gram matrix in [-tol, 0) clamp to 0; below that the
# spectrum counts as negative and the estimate fails. tol scales with the
# largest matrix entry.
NEGATIVE_EIG_TOL_SCALE = 1e-8
# A conditional slice is dropped when its eigensystem's largest imaginary
# magnitude exceeds this fraction of the slice matrix's largest entry.
IMAG_TOL_SCALE = 1e-6
# A slice whose smallest eigengap is below this fraction of its largest
# |eigenvalue| pins down no eigenbasis for the repeated block, so it is
# dropped. Only exact or near-exact ties trip it: where two population
# eigenvalues coincide, sampling noise opens a gap far wider than this, the
# slice passes, and the arbitrary eigenvectors of that block are averaged
# into V1 (ROADMAP.md open item 1 weights the slices by their eigengap).
EIGENGAP_TOL_SCALE = 1e-7
# Central-difference step applied to each differentiated count cell.
JACOBIAN_EPS_DEFAULT = 0.01
# Attempt patterns answered by exactly two workers (1+2, 2+3, 3+1). Their
# cells feed the pairwise frequency matrices alongside the all-three cells.
PAIR_PATTERNS = ((1, 1, 0), (0, 1, 1), (1, 0, 1))

SLICE_EMPTY = "empty slice"
SLICE_COMPLEX = "complex eigensystem"
SLICE_SINGULAR = "singular eigenvector matrix"
SLICE_DEGENERATE = "repeated eigenvalues"


@dataclass(frozen=True, eq=False)
class CountsTensor:
    """Joint response counts for an ordered worker triple.

    counts[a, b, c] is the number of tasks answered a by worker 1, b by
    worker 2, and c by worker 3, with 0 meaning "did not attempt". Tasks
    attempted by nobody are never ingested, so counts[0, 0, 0] == 0.
    """

    arity: int
    counts: np.ndarray

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError(f"arity must be at least 2, got {self.arity}")
        size = self.arity + 1
        tensor = np.array(self.counts, dtype=float, copy=True)
        if tensor.shape != (size, size, size):
            raise ValueError(
                f"counts must have shape {(size, size, size)}, got {tensor.shape}")
        if not np.isfinite(tensor).all() or (tensor < 0).any():
            raise ValueError("counts must be finite and nonnegative")
        if tensor[0, 0, 0] != 0:
            raise ValueError("counts[0, 0, 0] must be 0")
        tensor.flags.writeable = False
        object.__setattr__(self, "counts", tensor)

    @cached_property
    def n_all_three(self) -> float:
        """Tasks answered by all three workers."""
        return float(self.counts[1:, 1:, 1:].sum())

    @cached_property
    def n_pair_12(self) -> float:
        """Tasks answered by workers 1 and 2 only."""
        return float(self.counts[1:, 1:, 0].sum())

    @cached_property
    def n_pair_23(self) -> float:
        """Tasks answered by workers 2 and 3 only."""
        return float(self.counts[0, 1:, 1:].sum())

    @cached_property
    def n_pair_31(self) -> float:
        """Tasks answered by workers 3 and 1 only."""
        return float(self.counts[1:, 0, 1:].sum())

    def n_third_response(self, j3: int) -> float:
        """Tasks answered by all three where worker 3 responded j3."""
        if not 1 <= j3 <= self.arity:
            raise ValueError(f"label must lie in 1..{self.arity}, got {j3}")
        return float(self.counts[1:, 1:, j3].sum())

    def pattern_total(self, pattern: Sequence[int]) -> float:
        """Tasks attempted by exactly the workers flagged in `pattern`.

        `pattern` has three 0/1 entries, one per worker position.
        """
        return float(np.sum(self.counts[_pattern_index(pattern)]))


def _pattern_index(pattern: Sequence[int]) -> tuple:
    """Index selecting a pattern's cells: labels 1..k where flagged, else 0."""
    if len(pattern) != 3 or not all(p in (0, 1) for p in pattern):
        raise ValueError(f"pattern must be three 0/1 flags, got {pattern!r}")
    return tuple(slice(1, None) if p else 0 for p in pattern)


def _pattern_cells(pattern: Sequence[int], k: int) -> list[tuple[int, int, int]]:
    """Full (a, b, c) indices of a pattern's cells, in row-major order."""
    return list(product(*(range(1, k + 1) if p else (0,) for p in pattern)))


def build_counts(ds: ResponseDataset, triple: Sequence[str]) -> CountsTensor:
    """Tally the joint response counts of an ordered worker triple."""
    if len(set(triple)) != 3:
        raise ValueError(f"triple {tuple(triple)} repeats a worker")
    idx = [ds.worker_index(w) for w in triple]
    rows = ds.matrix[idx]
    rows = rows[:, (rows > 0).any(axis=0)]
    size = ds.arity + 1
    flat = (rows[0].astype(np.int64) * size + rows[1]) * size + rows[2]
    tensor = np.bincount(flat, minlength=size ** 3).reshape(size, size, size)
    return CountsTensor(ds.arity, tensor.astype(float))


@dataclass(frozen=True, eq=False)
class FrequencyMatrices:
    """Pairwise response-frequency matrices over jointly answered tasks.

    r12[a, b] is the fraction of tasks both answered, out of those answered
    by workers 1 and 2, where worker 1 said a and worker 2 said b; r23 and
    r31 analogously. Each matrix is entrywise nonnegative and sums to 1.
    """

    r12: np.ndarray
    r23: np.ndarray
    r31: np.ndarray

    @property
    def r21(self) -> np.ndarray:
        return self.r12.T

    @property
    def r32(self) -> np.ndarray:
        return self.r23.T

    @property
    def r13(self) -> np.ndarray:
        return self.r31.T


def _frequency_stacks(counts: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frequency matrices of a (B, k+1, k+1, k+1) counts stack.

    Returns (r12, r23, r31, overlap); where overlap is False some pair
    shares no task and that item's matrices are garbage.
    """
    pairs = (counts[:, 1:, 1:, :], counts[:, :, 1:, 1:], counts[:, 1:, :, 1:])
    c12 = pairs[0].sum(axis=3)
    c23 = pairs[1].sum(axis=1)
    c31 = pairs[2].sum(axis=2).transpose(0, 2, 1)
    dens = [pair.sum(axis=(1, 2, 3)) for pair in pairs]
    overlap = np.minimum.reduce(dens) > 0
    r12, r23, r31 = (c / np.where(overlap, den, 1.0)[:, None, None]
                     for c, den in zip((c12, c23, c31), dens))
    return r12, r23, r31, overlap


def response_frequency_matrices(counts: CountsTensor) -> FrequencyMatrices:
    """Compute the three pairwise response-frequency matrices."""
    r12, r23, r31, overlap = _frequency_stacks(counts.counts[None])
    if not overlap[0]:
        raise InsufficientOverlapError(
            "each pair of the triple must share at least one task")
    return FrequencyMatrices(r12[0], r23[0], r31[0])


def _order_rows_by_diagonal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Send each row to the column position of its largest entry.

    Runs per matrix of a (B, k, k) stack. Collisions fall back to the best
    still-free column, scanning rows in order (ties go to the lower
    column). Returns the reordered stack and whether anything moved.
    """
    count, k = v.shape[0], v.shape[1]
    items = np.arange(count)
    taken = np.zeros((count, k), dtype=bool)
    dest = np.empty((count, k), dtype=int)
    for row in range(k):
        col = np.argmax(np.where(taken, -np.inf, v[:, row]), axis=1)
        dest[:, row] = col
        taken[items, col] = True
    out = np.empty_like(v)
    out[items[:, None], dest] = v
    return out, (dest != np.arange(k)).any(axis=1)


# Internal reason for a pair sharing no task; it surfaces as
# InsufficientOverlapError, not as an EstimationFailure.
_NO_OVERLAP = "no overlap"


class _Recovery(NamedTuple):
    """Per-item outcome of the spectral recovery over a counts stack.

    v[b] stacks V1..V3 of item b and is valid only where ok[b]; otherwise
    reason[b] is the first failure's reason and v[b] is garbage.
    slice_failures[b, j] is the failure of conditional slice j+1 or None.
    """

    v: np.ndarray
    ok: np.ndarray
    reason: np.ndarray
    slice_failures: np.ndarray
    max_imag: np.ndarray
    rows_permuted: np.ndarray
    rows_sign_fixed: np.ndarray


def _recover_many(counts: np.ndarray, k: int) -> _Recovery:
    """Core spectral recovery, run per item of a (B, k+1, k+1, k+1) stack.

    Every step is vectorized across the stack. An item that fails keeps
    the first failure's reason; later steps still compute on it, but its
    matrices are replaced by the identity before each eigendecomposition
    so the garbage stays finite.
    """
    count = counts.shape[0]
    ok = np.ones(count, dtype=bool)
    reason = np.full(count, None, dtype=object)

    def fail(mask: np.ndarray, why: str) -> None:
        reason[mask & ok] = why
        ok[mask] = False

    def finite(stack: np.ndarray, live: np.ndarray) -> np.ndarray:
        return np.where(live[:, None, None], stack, np.eye(k))

    with np.errstate(all="ignore"):
        r12, r23, r31, overlap = _frequency_stacks(counts)
        fail(~overlap, _NO_OVERLAP)
        inv_r32, singular = invert_matrices(r23.transpose(0, 2, 1))
        fail(singular, REASON_NONINVERTIBLE_FREQUENCY)
        gram = r12 @ inv_r32 @ r31
        gram = 0.5 * (gram + gram.transpose(0, 2, 1))
        evecs, evals, _ = eigendecompose_many(finite(gram, ok))
        scale = np.maximum(np.abs(gram).max(axis=(1, 2)), 1e-300)
        fail(evals.min(axis=1) < -NEGATIVE_EIG_TOL_SCALE * scale, REASON_NEGATIVE_SPECTRUM)
        # The Gram matrix is exactly symmetric, so evecs is orthonormal and
        # U1 = E sqrt(D) E^T is symmetric with inverse E D^-1/2 E^T.
        roots = np.sqrt(np.clip(evals, 0.0, None))
        u1 = (evecs * roots[:, None, :]) @ evecs.transpose(0, 2, 1)
        u1t_inv = (evecs / roots[:, None, :]) @ evecs.transpose(0, 2, 1)
        u2_inv, singular_u2 = invert_matrices(u1t_inv @ r12)
        singular_u1 = ~(roots[:, -1] * COND_LIMIT > roots[:, 0])
        fail(singular_u1 | singular_u2, REASON_SINGULAR_ESTIMATE)

        alive = ok.copy()
        v1_sum = np.zeros((count, k, k))
        used = np.zeros(count, dtype=int)
        slice_failures = np.full((count, k), None, dtype=object)
        max_imag = np.zeros(count)
        permuted = np.zeros(count, dtype=bool)
        sign_fixed = np.zeros(count, dtype=bool)
        for j3 in range(1, k + 1):
            live = alive.copy()

            def drop(mask: np.ndarray, why: str) -> None:
                slice_failures[live & mask, j3 - 1] = why
                live[mask] = False

            n_j3 = counts[:, 1:, 1:, j3].sum(axis=(1, 2))
            drop(n_j3 <= 0, SLICE_EMPTY)
            conditional = counts[:, 1:, 1:, j3] / np.where(n_j3 > 0, n_j3, 1.0)[:, None, None]
            x = u1t_inv @ conditional @ u2_inv
            x_vecs, x_vals, x_imag = eigendecompose_many(finite(x, live))
            drop(x_imag > IMAG_TOL_SCALE * np.maximum(np.abs(x).max(axis=(1, 2)), 1e-300),
                 SLICE_COMPLEX)
            max_imag = np.where(live, np.maximum(max_imag, x_imag), max_imag)
            gaps = np.diff(np.sort(x_vals, axis=1), axis=1)
            drop(gaps.min(axis=1) < EIGENGAP_TOL_SCALE * np.maximum(
                np.abs(x_vals).max(axis=1), 1e-300), SLICE_DEGENERATE)
            u_est, singular = invert_matrices(x_vecs)
            drop(singular, SLICE_SINGULAR)
            v1_slice = u_est @ u1
            negative = v1_slice.sum(axis=2) < 0
            sign_fixed |= live & negative.any(axis=1)
            v1_slice = v1_slice * np.where(negative, -1.0, 1.0)[:, :, None]
            v1_slice, moved = _order_rows_by_diagonal(v1_slice)
            permuted |= live & moved
            v1_sum[live] += v1_slice[live]
            used += live
        fail(alive & (used == 0), REASON_NO_USABLE_SLICES)
        v1 = v1_sum / np.maximum(used, 1)[:, None, None]
        v1t_inv, singular = invert_matrices(v1.transpose(0, 2, 1))
        fail(singular, REASON_SINGULAR_ESTIMATE)
        v = np.stack([v1, v1t_inv @ r12, v1t_inv @ r31.transpose(0, 2, 1)], axis=1)
    return _Recovery(v, ok, reason, slice_failures, max_imag, permuted, sign_fixed)


def _prob_estimate_arrays(counts: np.ndarray, k: int) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, dict]:
    """Core spectral recovery on a raw counts array.

    Returns (v1, v2, v3, diagnostics). Soft failures raise
    EstimationFailure; an empty pair raises InsufficientOverlapError.
    """
    rec = _recover_many(counts[None], k)
    reason = rec.reason[0]
    if reason == _NO_OVERLAP:
        raise InsufficientOverlapError(
            "each pair of the triple must share at least one task")
    if not rec.ok[0]:
        raise EstimationFailure(reason, f"spectral recovery failed: {reason}")
    diagnostics = {
        "slice_failures": tuple((j + 1, why) for j, why in enumerate(rec.slice_failures[0])
                                if why is not None),
        "max_imag": float(rec.max_imag[0]),
        "rows_permuted": bool(rec.rows_permuted[0]),
        "rows_sign_fixed": bool(rec.rows_sign_fixed[0]),
    }
    v1, v2, v3 = rec.v[0]
    return v1, v2, v3, diagnostics


@dataclass(frozen=True, eq=False)
class ResponseProbEstimate:
    """Recovered response-probability matrices for a worker triple.

    v1..v3 are the scaled matrices S_D^(1/2) P_w (common row order, shared
    across workers); p1..p3 are the row-stochastic normalizations with
    negative noise clamped; selectivity is the recovered truth distribution.
    """

    arity: int
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    selectivity: np.ndarray
    slice_failures: tuple[tuple[int, str], ...]
    max_imag: float
    rows_permuted: bool
    rows_sign_fixed: bool
    clamped: bool

    @property
    def v_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.v1, self.v2, self.v3

    @property
    def p_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.p1, self.p2, self.p3


def _rows_to_stochastic(v: np.ndarray) -> tuple[np.ndarray, bool]:
    sums = v.sum(axis=1, keepdims=True)
    if (np.abs(sums) < 1e-12).any():
        raise EstimationFailure(REASON_DEGENERATE_SELECTIVITY, "zero row sum")
    p = v / sums
    clamped = bool((p < 0.0).any() or (p > 1.0).any())
    if clamped:
        p = np.clip(p, 0.0, 1.0)
        p = p / p.sum(axis=1, keepdims=True)
    return p, clamped


def recover_selectivity(v1: np.ndarray) -> np.ndarray:
    """Truth distribution from the scaled matrix V1 = S_D^(1/2) P1.

    Row r of V1 sums to sqrt(S(r)), so the squared row sums, renormalized,
    recover S. A zero row sum raises EstimationFailure (degenerate
    selectivity).
    """
    v1 = np.asarray(v1, dtype=float)
    sums = v1.sum(axis=1)
    if (np.abs(sums) < 1e-12).any():
        raise EstimationFailure(REASON_DEGENERATE_SELECTIVITY, "zero row sum in V1")
    s = sums ** 2
    return s / s.sum()


def prob_estimate(counts: CountsTensor) -> ResponseProbEstimate:
    """Recover all three workers' response-probability matrices.

    Soft failures (singular frequency matrix, negative spectrum, no usable
    slices, degenerate selectivity) raise EstimationFailure with a reason
    code; pairs sharing no tasks raise InsufficientOverlapError.
    """
    v1, v2, v3, diagnostics = _prob_estimate_arrays(counts.counts, counts.arity)
    p1, c1 = _rows_to_stochastic(v1)
    p2, c2 = _rows_to_stochastic(v2)
    p3, c3 = _rows_to_stochastic(v3)
    return ResponseProbEstimate(
        arity=counts.arity, v1=v1, v2=v2, v3=v3, p1=p1, p2=p2, p3=p3,
        selectivity=recover_selectivity(v1),
        clamped=c1 or c2 or c3, **diagnostics)


class CountsCovariances:
    """Covariances between response-count cells.

    Cells with different attempt patterns (which worker positions are
    nonzero) are uncorrelated. Within one pattern the cells split that
    pattern's task total n multinomially:

        Var(N_a)        = N_a (n - N_a) / n
        Cov(N_a, N_b)   = -N_a N_b / n      (a != b)

    The covariance of every cell is therefore block-diagonal, one block per
    attempt pattern (`pattern_block`). The interval pipeline contracts the
    all-three block and the three pair-only blocks of PAIR_PATTERNS, the
    cells the spectral recovery reads. Patterns whose total is zero yield
    zero covariance and are recorded in `degenerate_patterns`.
    """

    def __init__(self, counts: CountsTensor):
        self._counts = counts
        self.degenerate_patterns: set[tuple[int, int, int]] = set()

    def covariance(self, cell_a: Sequence[int], cell_b: Sequence[int]) -> float:
        a = self._check_cell(cell_a)
        b = self._check_cell(cell_b)
        pattern_a = tuple(int(x > 0) for x in a)
        pattern_b = tuple(int(x > 0) for x in b)
        if pattern_a != pattern_b:
            return 0.0
        total = self._counts.pattern_total(pattern_a)
        if total <= 0:
            self.degenerate_patterns.add(pattern_a)
            return 0.0
        count_a = float(self._counts.counts[a])
        if a == b:
            return count_a * (total - count_a) / total
        return -count_a * float(self._counts.counts[b]) / total

    def _check_cell(self, cell: Sequence[int]) -> tuple[int, int, int]:
        cell = tuple(int(x) for x in cell)
        if len(cell) != 3 or not all(0 <= x <= self._counts.arity for x in cell):
            raise ValueError(f"cell must be three labels in 0..{self._counts.arity}")
        if cell == (0, 0, 0):
            raise ValueError("cell (0, 0, 0) is never populated")
        return cell

    def attempted_block(self) -> np.ndarray:
        """k^3 x k^3 covariance of the all-three-answered cells, row-major."""
        return self.pattern_block((1, 1, 1))

    def pattern_block(self, pattern: Sequence[int]) -> np.ndarray:
        """Covariance of one attempt pattern's cells, row-major.

        The cells carry labels 1..k at the flagged positions and 0
        elsewhere, so a two-worker pattern gives a k^2 x k^2 block.
        """
        pattern = tuple(int(p) for p in pattern)
        cells = self._counts.counts[_pattern_index(pattern)].reshape(-1)
        total = self._counts.pattern_total(pattern)
        if total <= 0:
            self.degenerate_patterns.add(pattern)
            return np.zeros((cells.size, cells.size))
        block = -np.outer(cells, cells) / total
        block[np.diag_indices_from(block)] = cells * (total - cells) / total
        return block


def counts_covariances(counts: CountsTensor) -> CountsCovariances:
    """Covariance accessor for a counts tensor."""
    return CountsCovariances(counts)


@dataclass(frozen=True, eq=False)
class KaryJacobian:
    """Central-difference derivatives of the scaled matrices V1..V3.

    derivs[w, i1, i2, a, b, c] is the derivative of V_{w+1}(i1, i2) with
    respect to the all-three cell counts[a+1, b+1, c+1]. usable[a, b, c] is
    False where a perturbed recovery failed; such derivatives are NaN.

    pair_derivs[p, w, i1, i2, x, y] is the derivative of V_{w+1}(i1, i2)
    with respect to the cell of pair pattern PAIR_PATTERNS[p] where the
    first answering worker said x+1 and the second y+1 (so for pattern
    (1, 0, 1) that is counts[x+1, 0, y+1]), with pair_usable[p, x, y] its
    flag. A pair pattern with no tasks carries no sampling variance, so it
    is not perturbed: pair_perturbed[p] is False and its entries are NaN.
    """

    arity: int
    eps: float
    derivs: np.ndarray
    usable: np.ndarray
    pair_derivs: np.ndarray
    pair_usable: np.ndarray
    pair_perturbed: np.ndarray

    def gradient(self, worker: int, row: int, col: int) -> np.ndarray:
        """Flattened (row-major cell order) gradient of one V entry."""
        return self.derivs[worker, row, col].reshape(-1)


def _central_differences(counts: np.ndarray, k: int, cells, eps: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(3, k, k, len(cells)) derivatives of V1..V3 and per-cell usable flags.

    Each cell is shifted by +eps and by -eps on copies of `counts`, and all
    the shifted copies are recovered in one vectorized pass. Derivatives of
    cells whose shifted recovery fails are NaN.
    """
    n = len(cells)
    shifted = np.repeat(counts[None], 2 * n, axis=0)
    idx = tuple(np.asarray(cells).T)
    shifted[(np.arange(n),) + idx] += eps
    shifted[(np.arange(n, 2 * n),) + idx] -= eps
    rec = _recover_many(shifted, k)
    usable = rec.ok[:n] & rec.ok[n:]
    derivs = (rec.v[:n] - rec.v[n:]) / (2.0 * eps)
    derivs[~usable] = np.nan
    return np.moveaxis(derivs, 0, -1), usable


def numerical_jacobian(counts: CountsTensor,
                       eps: float = JACOBIAN_EPS_DEFAULT) -> KaryJacobian:
    """Differentiate the spectral recovery against every cell it reads.

    Those are the k^3 all-three-answered cells and the k^2 cells of each
    pair pattern in PAIR_PATTERNS (tasks answered by exactly two workers,
    which enter the pairwise frequency matrices); cells answered by one
    worker are never read. Each cell is shifted by +-eps with a full
    recovery run on either side. Pair patterns with no tasks are
    skipped. The base recovery is assumed to succeed; cells whose
    perturbed recovery fails are flagged unusable.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    k = counts.arity
    pair_perturbed = np.array([counts.pattern_total(p) > 0 for p in PAIR_PATTERNS])
    perturbed = [PAIR_PATTERNS[p] for p in np.flatnonzero(pair_perturbed)]
    cells = [cell for pattern in ((1, 1, 1), *perturbed)
             for cell in _pattern_cells(pattern, k)]
    all_derivs, all_usable = _central_differences(counts.counts, k, cells, eps)
    pair_derivs = np.full((3, 3, k, k, k, k), np.nan)
    pair_usable = np.zeros((3, k, k), dtype=bool)
    for n, p in enumerate(np.flatnonzero(pair_perturbed)):
        block = slice(k ** 3 + n * k * k, k ** 3 + (n + 1) * k * k)
        pair_derivs[p] = all_derivs[..., block].reshape(3, k, k, k, k)
        pair_usable[p] = all_usable[block].reshape(k, k)
    return KaryJacobian(arity=k, eps=float(eps),
                        derivs=all_derivs[..., :k ** 3].reshape(3, k, k, k, k, k),
                        usable=all_usable[:k ** 3].reshape(k, k, k),
                        pair_derivs=pair_derivs, pair_usable=pair_usable,
                        pair_perturbed=pair_perturbed)


@dataclass(frozen=True, eq=False)
class KaryDeviations:
    """Row-normalized midpoints and their linearized deviations, pre-interval.

    midpoints[w] is P_{w+1}: the rows of V_{w+1} divided by their own sums,
    so each row sums to 1. deviations[w] are the delta-method standard
    deviations of those P entries, with the sampling variance of both the
    all-three and the pair-only count cells. Confidence intervals at any
    level follow as midpoint +- z * deviation.
    """

    arity: int
    midpoints: np.ndarray
    deviations: np.ndarray
    selectivity: np.ndarray
    estimate: ResponseProbEstimate


def kary_deviations(counts: CountsTensor,
                    eps: float = JACOBIAN_EPS_DEFAULT) -> KaryDeviations:
    """Spectral recovery plus linearized deviations of every P entry.

    The Jacobian of V against the all-three cells and the nonempty pair
    patterns' cells is carried through P = V / rowsum(V), then contracted
    with the block-diagonal multinomial covariance of those cells (one
    block per attempt pattern, see CountsCovariances). Raises
    EstimationFailure when the recovery fails, when any perturbed cell's
    recovery fails, or when a V row sum vanishes.
    """
    estimate = prob_estimate(counts)
    jac = numerical_jacobian(counts, eps)
    bad = int((~jac.usable).sum() + (~jac.pair_usable[jac.pair_perturbed]).sum())
    if bad:
        raise EstimationFailure(
            REASON_JACOBIAN_FAILURE, f"{bad} perturbed cells failed to recover")
    k = counts.arity
    v_all = np.stack(estimate.v_matrices)
    row_sums = v_all.sum(axis=2, keepdims=True)
    if (np.abs(row_sums) < 1e-12).any():
        raise EstimationFailure(REASON_DEGENERATE_SELECTIVITY, "zero row sum")
    cov = counts_covariances(counts)
    blocks = [(jac.derivs, cov.attempted_block())]
    blocks += [(jac.pair_derivs[p], cov.pattern_block(PAIR_PATTERNS[p]))
               for p in np.flatnonzero(jac.pair_perturbed)]
    p_all = v_all / row_sums
    variances = np.zeros((3, k, k))
    for derivs, block in blocks:
        # Row i of P = V / rowsum(V) moves by (dV_i - P_i d(sum V_i)) / sum V_i.
        dv = derivs.reshape(3, k, k, -1)
        grads = (dv - p_all[..., None] * dv.sum(axis=2, keepdims=True)) / row_sums[..., None]
        variances += np.einsum("wijc,cd,wijd->wij", grads, block, grads)
    return KaryDeviations(
        arity=k,
        midpoints=p_all,
        deviations=np.sqrt(np.clip(variances, 0.0, None)),
        selectivity=estimate.selectivity,
        estimate=estimate)


@dataclass(frozen=True, eq=False)
class KaryDiagnostics:
    slice_failures: tuple[tuple[int, str], ...] = ()
    max_imag: float = 0.0
    rows_permuted: bool = False
    rows_sign_fixed: bool = False
    clamped: bool = False


@dataclass(frozen=True, eq=False)
class KaryReport:
    """Entrywise confidence intervals for a worker triple's matrices.

    intervals[w][row][col] covers P_{w+1}(row, col); each row of midpoints
    sums to 1 up to float error. On failure the grids and selectivity are
    None and `reason` carries the cause.
    """

    arity: int
    confidence: float
    failed: bool
    reason: str | None
    intervals: tuple[tuple[tuple[ConfidenceInterval, ...], ...], ...] | None
    selectivity: tuple[float, ...] | None
    diagnostics: KaryDiagnostics


def kary_confidence_intervals(counts: CountsTensor, confidence: float,
                              eps: float = JACOBIAN_EPS_DEFAULT) -> KaryReport:
    """Full interval report for a triple's response-probability matrices.

    Estimation failures produce a failed report; a pair sharing no tasks
    still raises InsufficientOverlapError since the input violates the
    estimator's precondition.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    try:
        devs = kary_deviations(counts, eps)
    except EstimationFailure as exc:
        return KaryReport(arity=counts.arity, confidence=confidence, failed=True,
                          reason=exc.reason, intervals=None, selectivity=None,
                          diagnostics=KaryDiagnostics())
    z = abs(normal_quantile((1.0 - confidence) / 2.0))
    grids = tuple(
        tuple(
            tuple(
                ConfidenceInterval(
                    confidence=confidence,
                    estimate=float(devs.midpoints[w, r, c]),
                    half_width=z * float(devs.deviations[w, r, c]))
                for c in range(counts.arity))
            for r in range(counts.arity))
        for w in range(3))
    est = devs.estimate
    return KaryReport(
        arity=counts.arity, confidence=confidence, failed=False, reason=None,
        intervals=grids,
        selectivity=tuple(float(s) for s in devs.selectivity),
        diagnostics=KaryDiagnostics(
            slice_failures=est.slice_failures, max_imag=est.max_imag,
            rows_permuted=est.rows_permuted, rows_sign_fixed=est.rows_sign_fixed,
            clamped=est.clamped))
