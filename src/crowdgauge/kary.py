"""Response-probability matrices for k-ary tasks from three workers.

With truths drawn from a selectivity distribution S and worker w responding
by row P_w(truth, .), the pairwise response-frequency matrices factor
through S^(1/2) P_w. The product R_12 R_32^-1 R_31 is the Gram matrix of
V_1 = S_D^(1/2) P_1, whose square root combined with per-response
conditional slices recovers each V_w up to a common row permutation.
The reported matrices are the row normalizations P_w = V_w / rowsum(V_w).
`prob_estimate` returns one record per triple: P1..P3 as a (3, k, k)
stack, the selectivity, V1..V3 and their derivatives dV against the
counts, and one `KaryDiagnostics` record that the interval report passes
on unchanged. That P is the one the interval report and the simulator use.

Entrywise confidence intervals for P_w follow from the delta method. The
recovery differentiates each of its steps in the same pass that computes
it (the frequency matrices, the inversions, the Gram square root, the
slice eigensystems and the slice average), which gives the closed-form
Jacobian of V against every count cell it reads: the all-three-answered
cells and the cells answered by exactly two workers. A triple is recovered
once, by `prob_estimate`. `kary_deviations(estimate)` carries that
Jacobian through the row normalization to a gradient g and contracts it
with the multinomial covariance of each attempt pattern's counts N in
closed form: g^T (diag N - N N^T / n) g = sum N g^2 - (sum N g)^2 / n,
for a pattern of n tasks.

Every way a triple can fail, a pair that shares no task included, raises
EstimationFailure with one of the REASON_* codes of `errors`, and
`kary_confidence_intervals` turns it into a failed `KaryReport`. A
successful report carries its midpoints, deviations and interval ends as
(3, k, k) arrays; `simulate` reads its midpoints and deviations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .dataset import ResponseDataset
from .errors import (
    EstimationFailure,
    REASON_DEGENERATE_SELECTIVITY,
    REASON_INSUFFICIENT_OVERLAP,
    REASON_JACOBIAN_FAILURE,
    REASON_NEGATIVE_SPECTRUM,
    REASON_NO_USABLE_SLICES,
    REASON_NONINVERTIBLE_FREQUENCY,
    REASON_SINGULAR_ESTIMATE,
)
from .numerics import (
    COND_LIMIT,
    eigendecompose_many,
    eigendecompose_symmetric,
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
# into V1 (ROADMAP.md open item 2 replaces the average by one well-separated
# combination of the slices; weighting by eigengap was measured not to fix it).
EIGENGAP_TOL_SCALE = 1e-7
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

    def pattern_total(self, pattern: Sequence[int]) -> float:
        """Tasks attempted by exactly the workers flagged in `pattern`.

        `pattern` has three 0/1 entries, one per worker position.
        """
        if len(pattern) != 3 or not all(p in (0, 1) for p in pattern):
            raise ValueError(f"pattern must be three 0/1 flags, got {pattern!r}")
        return float(np.sum(self.counts[tuple(slice(1, None) if p else 0 for p in pattern)]))


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


def _pair_counts(counts: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Pairwise response counts (c12, c23, c31) and their totals.

    Reads the last three axes of `counts`, so a stack of tensors gives a
    stack of matrices. c12[a, b] counts the tasks where worker 1 said a+1
    and worker 2 said b+1, whether or not worker 3 answered; c23 likewise,
    and c31[c, a] has worker 3 saying c+1 and worker 1 saying a+1. The
    pairwise frequency matrices are r12 = c12 / total12 and so on.
    """
    pairs = (counts[..., 1:, 1:, :], counts[..., :, 1:, 1:], counts[..., 1:, :, 1:])
    matrices = (pairs[0].sum(axis=-1), pairs[1].sum(axis=-3),
                np.swapaxes(pairs[2].sum(axis=-2), -1, -2))
    return matrices, tuple(pair.sum(axis=(-3, -2, -1)) for pair in pairs)


def _order_rows_by_diagonal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Send each row to the column position of its largest entry.

    Runs per matrix of a (B, k, k) stack. Collisions fall back to the best
    still-free column, scanning rows in order (ties go to the lower
    column). Returns the reordered stack and dest, where dest[b, row] is
    the position that row of item b moved to.
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
    return out, dest


@dataclass(frozen=True, eq=False)
class KaryDiagnostics:
    """How the spectral recovery of one triple went.

    slice_failures lists (slice, reason) for every dropped conditional
    slice; max_imag is the largest imaginary part among the slice
    eigensystems that passed the complex-eigensystem check; rows_permuted
    and rows_sign_fixed say whether a kept slice had its rows reordered or
    negated; clamped says whether some entry of V_w / rowsum(V_w) lies
    outside [0, 1]. A failed report carries the defaults.
    """

    slice_failures: tuple[tuple[int, str], ...] = ()
    max_imag: float = 0.0
    rows_permuted: bool = False
    rows_sign_fixed: bool = False
    clamped: bool = False


def _fail(reason: str) -> EstimationFailure:
    return EstimationFailure(reason, f"spectral recovery failed: {reason}")


def _invert_one(matrix: np.ndarray, reason: str) -> np.ndarray:
    """Inverse of one matrix; a singular one fails the recovery with `reason`."""
    inverse, singular = invert_matrices(matrix[None])
    if singular[0]:
        raise _fail(reason)
    return inverse[0]


def _recover(tensor: np.ndarray, k: int, directions: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, KaryDiagnostics]:
    """Spectral recovery of one (k+1, k+1, k+1) counts array, differentiated.

    directions is a (D, k+1, k+1, k+1) stack of changes to the counts.
    Returns (v, dv, diagnostics): v stacks V1..V3 as (3, k, k), dv the
    matching dV as (D, 3, k, k), and diagnostics all of KaryDiagnostics
    but `clamped`, which the row normalization sets. Each step is
    followed by its differential at the same values: the frequency ratios;
    the inversions, by dA^-1 = -A^-1 dA A^-1; the Gram square root, by the
    Daleckii-Krein formula; each kept slice's eigenvectors, by
    dR = R (F o (R^-1 dX R)) with F_ij = 1 / (l_j - l_i) (Magnus, "On
    differentiating eigenvalues and eigenvectors", Econometric Theory
    1985), less the part that would change their unit norm; then the row
    signs, the row order and the average over slices.

    The k conditional slices are processed as one stack. Every failure, a
    pair sharing no task and an eigensolver that does not converge
    included, raises EstimationFailure with the failed step's reason. The
    array is not validated, so tests can recover counts shifted below zero.
    """
    with np.errstate(all="ignore"):
        freqs, pair_totals = _pair_counts(tensor)
        if min(pair_totals) <= 0:
            raise EstimationFailure(REASON_INSUFFICIENT_OVERLAP,
                                    "each pair of the triple must share at least one task")
        r12, r23, r31 = (c / total for c, total in zip(freqs, pair_totals))
        d_freqs, d_totals = _pair_counts(directions)
        dr12, dr23, dr31 = ((dc - r * dt[:, None, None]) / total
                            for dc, dt, r, total in zip(d_freqs, d_totals, (r12, r23, r31),
                                                         pair_totals))
        inv_r32 = _invert_one(r23.T, REASON_NONINVERTIBLE_FREQUENCY)
        d_inv_r32 = -inv_r32 @ dr23.transpose(0, 2, 1) @ inv_r32
        gram = r12 @ inv_r32 @ r31
        gram = 0.5 * (gram + gram.T)
        dgram = dr12 @ inv_r32 @ r31 + r12 @ d_inv_r32 @ r31 + r12 @ inv_r32 @ dr31
        dgram = 0.5 * (dgram + dgram.transpose(0, 2, 1))
        evecs, evals = eigendecompose_symmetric(gram)
        if evals.min() < -NEGATIVE_EIG_TOL_SCALE * max(np.abs(gram).max(), 1e-300):
            raise _fail(REASON_NEGATIVE_SPECTRUM)
        # The Gram matrix is exactly symmetric, so evecs is orthonormal and
        # U1 = E sqrt(D) E^T is symmetric with inverse E D^-1/2 E^T.
        roots = np.sqrt(np.clip(evals, 0.0, None))
        if not roots[-1] * COND_LIMIT > roots[0]:
            raise _fail(REASON_SINGULAR_ESTIMATE)
        u1 = (evecs * roots) @ evecs.T
        du1 = evecs @ (evecs.T @ dgram @ evecs / (roots[:, None] + roots)) @ evecs.T
        u1_inv = (evecs / roots) @ evecs.T
        du1_inv = -u1_inv @ du1 @ u1_inv
        u2_inv = _invert_one(u1_inv @ r12, REASON_SINGULAR_ESTIMATE)
        du2_inv = -u2_inv @ (du1_inv @ r12 + u1_inv @ dr12) @ u2_inv

        # slices[j] holds the counts where worker 3 said j+1.
        slices = np.moveaxis(tensor[1:, 1:, 1:], -1, 0)
        slice_totals = slices.sum(axis=(1, 2))
        live = np.ones(k, dtype=bool)
        failures = np.full(k, None, dtype=object)

        def drop(mask: np.ndarray, why: str) -> None:
            failures[live & mask] = why
            live[mask] = False

        drop(slice_totals <= 0, SLICE_EMPTY)
        conditionals = slices / np.where(slice_totals > 0, slice_totals, 1.0)[:, None, None]
        x = u1_inv @ conditionals @ u2_inv
        vectors, values, imag = eigendecompose_many(
            np.where(live[:, None, None], x, np.eye(k)))
        drop(imag > IMAG_TOL_SCALE * np.maximum(np.abs(x).max(axis=(1, 2)), 1e-300),
             SLICE_COMPLEX)
        max_imag = float(imag[live].max(initial=0.0))
        gaps = np.diff(np.sort(values, axis=1), axis=1)
        drop(gaps.min(axis=1) < EIGENGAP_TOL_SCALE * np.maximum(
            np.abs(values).max(axis=1), 1e-300), SLICE_DEGENERATE)
        inverses, singular = invert_matrices(vectors)
        drop(singular, SLICE_SINGULAR)
        if not live.any():
            raise _fail(REASON_NO_USABLE_SLICES)

        # Only the kept slices are differentiated; they run along axis 1 of
        # each differential.
        kept = np.flatnonzero(live)
        cond, vecs, invs, vals = conditionals[kept], vectors[kept], inverses[kept], values[kept]
        d_slices = np.moveaxis(directions[:, 1:, 1:, 1:], -1, 1)[:, kept]
        d_cond = (d_slices - cond * d_slices.sum(axis=(2, 3))[..., None, None]
                  ) / slice_totals[kept][:, None, None]
        dx = (du1_inv[:, None] @ cond @ u2_inv + u1_inv @ d_cond @ u2_inv
              + u1_inv @ cond @ du2_inv[:, None])
        off = ~np.eye(k, dtype=bool)
        spread = vals[:, None, :] - vals[:, :, None]
        coupling = np.where(off, 1.0 / np.where(off, spread, 1.0), 0.0)
        d_vecs = vecs @ (coupling * (invs @ dx @ vecs))
        d_vecs -= vecs * (vecs * d_vecs).sum(axis=2, keepdims=True)
        v1_slices = invs @ u1
        signs = np.where(v1_slices.sum(axis=2) < 0, -1.0, 1.0)
        d_v1_slices = (-invs @ d_vecs @ invs @ u1 + invs @ du1[:, None]) * signs[..., None]
        v1_slices, dest = _order_rows_by_diagonal(v1_slices * signs[:, :, None])
        ordered = np.empty_like(d_v1_slices)
        ordered[:, np.arange(len(kept))[:, None], dest] = d_v1_slices
        # Summed slice by slice, in slice order.
        v1 = sum(v1_slices) / len(v1_slices)
        dv1 = ordered.mean(axis=1)
        v1t_inv = _invert_one(v1.T, REASON_SINGULAR_ESTIMATE)
        dv1t_inv = -v1t_inv @ dv1.transpose(0, 2, 1) @ v1t_inv
        v = np.stack([v1, v1t_inv @ r12, v1t_inv @ r31.T])
        dv = np.stack([dv1, dv1t_inv @ r12 + v1t_inv @ dr12,
                       dv1t_inv @ r31.T + v1t_inv @ dr31.transpose(0, 2, 1)], axis=1)
    return v, dv, KaryDiagnostics(
        slice_failures=tuple((j + 1, why) for j, why in enumerate(failures)
                             if why is not None),
        max_imag=max_imag, rows_permuted=bool((dest != np.arange(k)).any()),
        rows_sign_fixed=bool((signs < 0).any()))


@dataclass(frozen=True, eq=False)
class ResponseProbEstimate:
    """Recovered response-probability matrices for a worker triple.

    v[w] is the scaled matrix S_D^(1/2) P_{w+1}, in a row order shared by
    the three workers, and p_matrices[w] = V_{w+1} / rowsum(V_{w+1}) its
    row normalization; both are (3, k, k) arrays. Each row of P sums to 1
    up to rounding, and an entry may lie outside [0, 1]
    (diagnostics.clamped says whether one does). selectivity is the
    recovered truth distribution. counts is the tensor the triple was
    recovered from (counts.arity is k) and dv[j] the (3, k, k) derivative
    of V against the count cell cells[j], from the pass that recovered V:
    kary_deviations contracts it, so nothing recovers the triple again.
    """

    p_matrices: np.ndarray
    selectivity: np.ndarray
    diagnostics: KaryDiagnostics
    counts: CountsTensor
    cells: np.ndarray
    v: np.ndarray
    dv: np.ndarray


def prob_estimate(counts: CountsTensor) -> ResponseProbEstimate:
    """Recover all three workers' response-probability matrices.

    The same pass differentiates V against every count cell the recovery
    reads, in the order of KaryJacobian.cells. Every failure (a pair
    sharing no task, a singular frequency matrix, a negative spectrum, an
    eigensolver that does not converge, no usable slices, a zero row sum in
    some V) raises EstimationFailure with a reason code. Row r of
    V1 = S_D^(1/2) P1 sums to sqrt(S(r)), so the selectivity S is the
    squared row sums of V1, renormalized.
    """
    k = counts.arity
    patterns = ((1, 1, 1), *(p for p in PAIR_PATTERNS if counts.pattern_total(p) > 0))
    cells = np.array([cell for pattern in patterns for cell in _pattern_cells(pattern, k)])
    directions = np.zeros((len(cells), k + 1, k + 1, k + 1))
    directions[(np.arange(len(cells)),) + tuple(cells.T)] = 1.0
    v, dv, diagnostics = _recover(counts.counts, k, directions)
    sums = v.sum(axis=2, keepdims=True)
    if (np.abs(sums) < 1e-12).any():
        raise EstimationFailure(REASON_DEGENERATE_SELECTIVITY, "zero row sum")
    p = v / sums
    diagnostics = replace(diagnostics, clamped=bool(((p < 0.0) | (p > 1.0)).any()))
    selectivity = sums[0, :, 0] ** 2
    return ResponseProbEstimate(p_matrices=p, selectivity=selectivity / selectivity.sum(),
                                diagnostics=diagnostics, counts=counts, cells=cells,
                                v=v, dv=dv)


@dataclass(frozen=True, eq=False)
class KaryJacobian:
    """Derivatives of the scaled matrices V1..V3 against the count cells.

    derivs[w, i1, i2, j] is the derivative of V_{w+1}(i1, i2) with respect
    to the count cell whose (a, b, c) index is cells[j]. The cells run
    pattern by pattern, each in row-major order: the k^3 all-three cells,
    then the k^2 cells of each pair pattern of PAIR_PATTERNS that has tasks
    (pair_perturbed[p]). A pair pattern with no tasks carries no sampling
    variance, so it is not differentiated.

    usable[a, b, c] is False where some derivative against the all-three
    cell counts[a+1, b+1, c+1] is not finite; pair_usable[p, x, y] is the
    same flag for the cell of PAIR_PATTERNS[p] where the first answering
    worker said x+1 and the second y+1, and False where p has no tasks.
    """

    cells: np.ndarray
    derivs: np.ndarray
    usable: np.ndarray
    pair_usable: np.ndarray
    pair_perturbed: np.ndarray


def numerical_jacobian(estimate: ResponseProbEstimate) -> KaryJacobian:
    """The derivatives of an estimate's V against every cell it reads.

    The recovery took them in closed form, in the pass that recovered V
    (see prob_estimate); this lays them out by cell and flags the cells
    whose derivatives are not finite.
    """
    k = estimate.counts.arity
    patterns = estimate.cells > 0
    pair_perturbed = (patterns[:, None] == PAIR_PATTERNS).all(axis=2).any(axis=0)
    derivs = np.moveaxis(estimate.dv, 0, -1)
    finite = np.isfinite(derivs).all(axis=(0, 1, 2))
    pair_usable = np.zeros((3, k, k), dtype=bool)
    pair_usable[pair_perturbed] = finite[k ** 3:].reshape(-1, k, k)
    return KaryJacobian(cells=estimate.cells, derivs=derivs,
                        usable=finite[:k ** 3].reshape(k, k, k),
                        pair_usable=pair_usable, pair_perturbed=pair_perturbed)


def kary_deviations(estimate: ResponseProbEstimate) -> np.ndarray:
    """Linearized deviations of every entry of an estimate's P, as (3, k, k).

    The Jacobian of V against the estimate's cells, taken by its own
    recovery, is carried through P = V / rowsum(V) to a gradient g over
    the cells. Cells of different attempt patterns are uncorrelated, and
    within one pattern the counts N split its n tasks multinomially, with
    covariance diag(N) - N N^T / n. So each pattern adds

        g^T (diag(N) - N N^T / n) g = sum_c N_c g_c^2 - (sum_c N_c g_c)^2 / n

    over its contiguous run of cells, and nothing if n is 0. An interval at
    any level is P +- z * deviation. A derivative that is not finite raises
    EstimationFailure(REASON_JACOBIAN_FAILURE).
    """
    jac = numerical_jacobian(estimate)
    bad = int((~jac.usable).sum() + (~jac.pair_usable[jac.pair_perturbed]).sum())
    if bad:
        raise EstimationFailure(
            REASON_JACOBIAN_FAILURE, f"{bad} count cells have non-finite derivatives")
    p, dv, k = estimate.p_matrices, jac.derivs, estimate.counts.arity
    row_sums = estimate.v.sum(axis=2, keepdims=True)
    # Row i of P = V / rowsum(V) moves by (dV_i - P_i d(sum V_i)) / sum V_i.
    grads = (dv - p[..., None] * dv.sum(axis=2, keepdims=True)) / row_sums[..., None]
    cell_counts = estimate.counts.counts[tuple(jac.cells.T)]
    # The k^3 all-three cells, then k^2 cells per nonempty pair pattern.
    starts = np.r_[0, k ** 3:len(cell_counts):k ** 2]
    totals = np.add.reduceat(cell_counts, starts)
    weighted = cell_counts * grads
    variances = (np.add.reduceat(weighted * grads, starts, axis=-1)
                 - np.add.reduceat(weighted, starts, axis=-1) ** 2
                 / np.where(totals > 0, totals, 1.0)).sum(axis=-1)
    return np.sqrt(np.clip(variances, 0.0, None))


@dataclass(frozen=True, eq=False)
class KaryReport:
    """Entrywise confidence intervals for a worker triple's matrices.

    midpoints, deviations, lower and upper are (3, k, k) arrays: the
    interval for P_{w+1}(row, col) is [lower[w, row, col], upper[w, row,
    col]], the midpoint less and plus z times its deviation, where
    deviations is kary_deviations of the estimate and z the normal
    quantile of the confidence. Each row of midpoints sums to 1 up to
    float error, and selectivity is the recovered truth distribution. On
    failure the arrays and selectivity are None and `reason` carries the
    cause.
    """

    arity: int
    confidence: float
    reason: str | None
    midpoints: np.ndarray | None
    deviations: np.ndarray | None
    lower: np.ndarray | None
    upper: np.ndarray | None
    selectivity: np.ndarray | None
    diagnostics: KaryDiagnostics

    @property
    def failed(self) -> bool:
        return self.reason is not None


def kary_confidence_intervals(counts: CountsTensor, confidence: float) -> KaryReport:
    """Full interval report for a triple's response-probability matrices.

    Every estimation failure, a pair sharing no task included, produces a
    failed report with the reason code.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    try:
        estimate = prob_estimate(counts)
        deviations = kary_deviations(estimate)
    except EstimationFailure as exc:
        return KaryReport(arity=counts.arity, confidence=confidence, reason=exc.reason,
                          midpoints=None, deviations=None, lower=None, upper=None,
                          selectivity=None, diagnostics=KaryDiagnostics())
    p = estimate.p_matrices
    half = abs(normal_quantile((1.0 - confidence) / 2.0)) * deviations
    return KaryReport(
        arity=counts.arity, confidence=confidence, reason=None, midpoints=p,
        deviations=deviations, lower=p - half, upper=p + half,
        selectivity=estimate.selectivity, diagnostics=estimate.diagnostics)
