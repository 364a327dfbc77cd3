"""Response-probability matrices for k-ary tasks from three workers.

With truths drawn from a selectivity distribution S and worker w responding
by row P_w(truth, .), the pairwise response-frequency matrices factor
through S^(1/2) P_w. The product R_12 R_32^-1 R_31 is the Gram matrix of
V_1 = S_D^(1/2) P_1, whose square root combined with per-response
conditional slices recovers each V_w up to a common row permutation.
The reported matrices are the row normalizations P_w = V_w / rowsum(V_w).
`prob_estimate` returns one record per triple: P1..P3 as a (3, k, k)
stack, the selectivity, one `KaryDiagnostics` record that the interval
report passes on unchanged, and the counts and the recovery's
intermediates (V1..V3 among them) that the Jacobian needs.

Entrywise confidence intervals for P_w follow from the delta method: the
closed-form Jacobian of V against every count cell the recovery reads (the
all-three-answered cells and the cells answered by exactly two workers),
carried through the row normalization, and contracted with the multinomial
covariance of the counts within each attempt pattern. The Jacobian
differentiates each step of the recovery in closed form, from that
recovery's own intermediates: the frequency matrices, the inversions, the
Gram square root, the slice eigensystems and the slice average. A triple
is recovered once: that one recovery feeds the estimate, the Jacobian and
the covariance contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import ResponseDataset
from .errors import (
    ConvergenceError,
    EstimationFailure,
    InsufficientOverlapError,
    REASON_DEGENERATE_SELECTIVITY,
    REASON_EIGEN_NONCONVERGENCE,
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


class _Recovery(NamedTuple):
    """A successful spectral recovery and the intermediates its derivative uses.

    v stacks V1..V3. freqs holds r12, r23, r31 and pair_totals their
    denominators; inv_r32 is R32^-1. gram_vectors and roots are the
    eigenvectors and the square roots of the eigenvalues of the Gram
    matrix, u1 its square root and u1_inv the inverse of u1, and u2_inv is
    (u1_inv r12)^-1. The kept conditional slices are stacked in slice
    order: kept holds their 0-based indices (the third worker's label less
    1), conditionals and slice_totals their normalized counts and task
    totals, vectors, inverses and values the eigensystem of their X, and
    signs and dest the row signs and row destinations applied to
    inverses @ u1. v1t_inv is (V1^T)^-1. The last four fields feed
    KaryDiagnostics.
    """

    v: np.ndarray
    freqs: tuple[np.ndarray, np.ndarray, np.ndarray]
    pair_totals: tuple[np.ndarray, np.ndarray, np.ndarray]
    inv_r32: np.ndarray
    gram_vectors: np.ndarray
    roots: np.ndarray
    u1: np.ndarray
    u1_inv: np.ndarray
    u2_inv: np.ndarray
    kept: np.ndarray
    conditionals: np.ndarray
    slice_totals: np.ndarray
    vectors: np.ndarray
    inverses: np.ndarray
    values: np.ndarray
    signs: np.ndarray
    dest: np.ndarray
    v1t_inv: np.ndarray
    slice_failures: tuple[tuple[int, str], ...]
    max_imag: float
    rows_permuted: bool
    rows_sign_fixed: bool


def _fail(reason: str) -> EstimationFailure:
    return EstimationFailure(reason, f"spectral recovery failed: {reason}")


def _eigendecompose(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eigendecompose_many, with non-convergence as a failed recovery."""
    try:
        return eigendecompose_many(stack)
    except ConvergenceError as exc:
        raise EstimationFailure(REASON_EIGEN_NONCONVERGENCE, str(exc)) from exc


def _recover(tensor: np.ndarray, k: int) -> _Recovery:
    """Core spectral recovery of one (k+1, k+1, k+1) counts array.

    The k conditional slices are processed as one stack. A pair sharing no
    task raises InsufficientOverlapError; any other failure, an
    eigensolver that does not converge included, raises EstimationFailure
    with the failed step's reason. The array is not validated, so tests
    can recover counts shifted below zero.
    """
    with np.errstate(all="ignore"):
        freqs, pair_totals = _pair_counts(tensor)
        if min(pair_totals) <= 0:
            raise InsufficientOverlapError(
                "each pair of the triple must share at least one task")
        r12, r23, r31 = (c / total for c, total in zip(freqs, pair_totals))
        inv_r32, singular = invert_matrices(r23.T[None])
        if singular[0]:
            raise _fail(REASON_NONINVERTIBLE_FREQUENCY)
        inv_r32 = inv_r32[0]
        gram = r12 @ inv_r32 @ r31
        gram = 0.5 * (gram + gram.T)
        evecs, evals, _ = _eigendecompose(gram[None])
        evecs, evals = evecs[0], evals[0]
        if evals.min() < -NEGATIVE_EIG_TOL_SCALE * max(np.abs(gram).max(), 1e-300):
            raise _fail(REASON_NEGATIVE_SPECTRUM)
        # The Gram matrix is exactly symmetric, so evecs is orthonormal and
        # U1 = E sqrt(D) E^T is symmetric with inverse E D^-1/2 E^T.
        roots = np.sqrt(np.clip(evals, 0.0, None))
        if not roots[-1] * COND_LIMIT > roots[0]:
            raise _fail(REASON_SINGULAR_ESTIMATE)
        u1 = (evecs * roots) @ evecs.T
        u1_inv = (evecs / roots) @ evecs.T
        u2_inv, singular = invert_matrices((u1_inv @ r12)[None])
        if singular[0]:
            raise _fail(REASON_SINGULAR_ESTIMATE)
        u2_inv = u2_inv[0]

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
        vectors, values, imag = _eigendecompose(
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
        v1_slices = inverses[live] @ u1
        signs = np.where(v1_slices.sum(axis=2) < 0, -1.0, 1.0)
        v1_slices, dest = _order_rows_by_diagonal(v1_slices * signs[:, :, None])
        # Summed slice by slice, in slice order.
        v1 = sum(v1_slices) / len(v1_slices)
        v1t_inv, singular = invert_matrices(v1.T[None])
        if singular[0]:
            raise _fail(REASON_SINGULAR_ESTIMATE)
        v1t_inv = v1t_inv[0]
        v = np.stack([v1, v1t_inv @ r12, v1t_inv @ r31.T])
    return _Recovery(
        v=v, freqs=(r12, r23, r31), pair_totals=pair_totals, inv_r32=inv_r32,
        gram_vectors=evecs, roots=roots, u1=u1, u1_inv=u1_inv, u2_inv=u2_inv,
        kept=np.flatnonzero(live), conditionals=conditionals[live],
        slice_totals=slice_totals[live], vectors=vectors[live], inverses=inverses[live],
        values=values[live], signs=signs, dest=dest, v1t_inv=v1t_inv,
        slice_failures=tuple((j + 1, why) for j, why in enumerate(failures)
                             if why is not None),
        max_imag=max_imag,
        rows_permuted=bool((dest != np.arange(k)).any()),
        rows_sign_fixed=bool((signs < 0).any()))


def _differential(rec: _Recovery, directions: np.ndarray) -> np.ndarray:
    """Derivative of V along each count direction, from the recovery's parts.

    directions is a (D, k+1, k+1, k+1) stack of changes to the counts; the
    result stacks the matching dV as (D, 3, k, k). Each step differentiates
    the same step of `_recover` at its base values: the frequency ratios;
    the inversions, by dA^-1 = -A^-1 dA A^-1; the Gram square root, by the
    Daleckii-Krein formula; each kept slice's eigenvectors, by
    dR = R (F o (R^-1 dX R)) with F_ij = 1 / (l_j - l_i) (Magnus, "On
    differentiating eigenvalues and eigenvectors", Econometric Theory
    1985), less the part that would change their unit norm; then the row
    signs, the row order and the average over slices.
    """
    r12, _, r31 = rec.freqs
    k = r12.shape[0]
    d_freqs, d_totals = _pair_counts(directions)
    dr12, dr23, dr31 = ((dc - r * dt[:, None, None]) / total
                        for dc, dt, r, total in zip(d_freqs, d_totals, rec.freqs,
                                                     rec.pair_totals))
    m = rec.inv_r32
    dm = -m @ dr23.transpose(0, 2, 1) @ m
    dgram = dr12 @ m @ r31 + r12 @ dm @ r31 + r12 @ m @ dr31
    dgram = 0.5 * (dgram + dgram.transpose(0, 2, 1))
    e, roots = rec.gram_vectors, rec.roots
    du1 = e @ (e.T @ dgram @ e / (roots[:, None] + roots)) @ e.T
    du1_inv = -rec.u1_inv @ du1 @ rec.u1_inv
    du2_inv = -rec.u2_inv @ (du1_inv @ r12 + rec.u1_inv @ dr12) @ rec.u2_inv

    # Kept slices run along axis 1 from here on.
    cond = rec.conditionals
    d_slices = np.moveaxis(directions[:, 1:, 1:, 1:], -1, 1)[:, rec.kept]
    d_cond = (d_slices - cond * d_slices.sum(axis=(2, 3))[..., None, None]
              ) / rec.slice_totals[:, None, None]
    dx = (du1_inv[:, None] @ cond @ rec.u2_inv + rec.u1_inv @ d_cond @ rec.u2_inv
          + rec.u1_inv @ cond @ du2_inv[:, None])
    vecs, invs = rec.vectors, rec.inverses
    off = ~np.eye(k, dtype=bool)
    gaps = rec.values[:, None, :] - rec.values[:, :, None]
    coupling = np.where(off, 1.0 / np.where(off, gaps, 1.0), 0.0)
    d_vecs = vecs @ (coupling * (invs @ dx @ vecs))
    d_vecs -= vecs * (vecs * d_vecs).sum(axis=2, keepdims=True)
    d_v1_slices = (-invs @ d_vecs @ invs @ rec.u1 + invs @ du1[:, None]) * rec.signs[..., None]
    ordered = np.empty_like(d_v1_slices)
    ordered[:, np.arange(len(rec.kept))[:, None], rec.dest] = d_v1_slices
    dv1 = ordered.mean(axis=1)
    dv1t_inv = -rec.v1t_inv @ dv1.transpose(0, 2, 1) @ rec.v1t_inv
    return np.stack([dv1, dv1t_inv @ r12 + rec.v1t_inv @ dr12,
                     dv1t_inv @ r31.T + rec.v1t_inv @ dr31.transpose(0, 2, 1)], axis=1)


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


@dataclass(frozen=True, eq=False)
class ResponseProbEstimate:
    """Recovered response-probability matrices for a worker triple.

    recovery.v[w] is the scaled matrix S_D^(1/2) P_{w+1}, in a row order
    shared by the three workers, and p_matrices[w] its row normalization;
    a matrix with an entry outside [0, 1] is clipped and renormalized
    (diagnostics.clamped). Both are (3, k, k) arrays. selectivity is the
    recovered truth distribution. counts is the tensor the triple was
    recovered from (counts.arity is k) and recovery that one recovery's
    intermediates: numerical_jacobian differentiates them and
    kary_deviations contracts the result, so nothing recovers the triple
    again.
    """

    p_matrices: np.ndarray
    selectivity: np.ndarray
    diagnostics: KaryDiagnostics
    counts: CountsTensor
    recovery: _Recovery


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
    slices, a zero row sum in some V) raise EstimationFailure with a reason
    code; pairs sharing no tasks raise InsufficientOverlapError.
    """
    rec = _recover(counts.counts, counts.arity)
    v = rec.v
    sums = v.sum(axis=2, keepdims=True)
    if (np.abs(sums) < 1e-12).any():
        raise EstimationFailure(REASON_DEGENERATE_SELECTIVITY, "zero row sum")
    p = v / sums
    outside = ((p < 0.0) | (p > 1.0)).any(axis=(1, 2))
    # Only a matrix that left [0, 1] is renormalized: dividing an in-range
    # matrix by its row sums again would move its last bits.
    if outside.any():
        clipped = np.clip(p[outside], 0.0, 1.0)
        p[outside] = clipped / clipped.sum(axis=2, keepdims=True)
    diagnostics = KaryDiagnostics(
        slice_failures=rec.slice_failures, max_imag=rec.max_imag,
        rows_permuted=rec.rows_permuted, rows_sign_fixed=rec.rows_sign_fixed,
        clamped=bool(outside.any()))
    return ResponseProbEstimate(p_matrices=p, selectivity=recover_selectivity(v[0]),
                                diagnostics=diagnostics, counts=counts, recovery=rec)


def pattern_covariance(counts: CountsTensor, pattern: Sequence[int]) -> np.ndarray:
    """Covariance of one attempt pattern's count cells, row-major.

    Cells with different attempt patterns (which worker positions are
    nonzero) are uncorrelated, so the covariance of every cell is
    block-diagonal with one such block per pattern. Within one pattern the
    cells split that pattern's task total n multinomially:

        Var(N_a)        = N_a (n - N_a) / n
        Cov(N_a, N_b)   = -N_a N_b / n      (a != b)

    The cells carry labels 1..k at the flagged positions and 0 elsewhere,
    so a two-worker pattern gives a k^2 x k^2 block. A pattern whose total
    is zero has zero covariance. The interval pipeline contracts the
    all-three block and the three pair-only blocks of PAIR_PATTERNS, the
    cells the spectral recovery reads.
    """
    cells = counts.counts[_pattern_index(pattern)].reshape(-1)
    total = counts.pattern_total(pattern)
    if total <= 0:
        return np.zeros((cells.size, cells.size))
    block = -np.outer(cells, cells) / total
    block[np.diag_indices_from(block)] = cells * (total - cells) / total
    return block


@dataclass(frozen=True, eq=False)
class KaryJacobian:
    """Derivatives of the scaled matrices V1..V3 against the count cells.

    derivs[w, i1, i2, a, b, c] is the derivative of V_{w+1}(i1, i2) with
    respect to the all-three cell counts[a+1, b+1, c+1]. usable[a, b, c] is
    False where some derivative against that cell is not finite.

    pair_derivs[p, w, i1, i2, x, y] is the derivative of V_{w+1}(i1, i2)
    with respect to the cell of pair pattern PAIR_PATTERNS[p] where the
    first answering worker said x+1 and the second y+1 (so for pattern
    (1, 0, 1) that is counts[x+1, 0, y+1]), with pair_usable[p, x, y] its
    flag. A pair pattern with no tasks carries no sampling variance, so it
    is not differentiated: pair_perturbed[p] is False and its entries are
    NaN.
    """

    arity: int
    derivs: np.ndarray
    usable: np.ndarray
    pair_derivs: np.ndarray
    pair_usable: np.ndarray
    pair_perturbed: np.ndarray


def numerical_jacobian(estimate: ResponseProbEstimate) -> KaryJacobian:
    """Differentiate an estimate's spectral recovery against every cell it reads.

    Those are the k^3 all-three-answered cells and the k^2 cells of each
    pair pattern in PAIR_PATTERNS (tasks answered by exactly two workers,
    which enter the pairwise frequency matrices); cells answered by one
    worker are never read. The derivatives are in closed form and nothing
    is recovered again: every cell's unit direction is pushed through the
    differential of each step of the estimate's own recovery in one
    batched pass. Pair patterns with no tasks are skipped.
    """
    counts, rec = estimate.counts, estimate.recovery
    k = counts.arity
    pair_perturbed = np.array([counts.pattern_total(p) > 0 for p in PAIR_PATTERNS])
    pairs = np.flatnonzero(pair_perturbed)
    cells = [cell for pattern in ((1, 1, 1), *(PAIR_PATTERNS[p] for p in pairs))
             for cell in _pattern_cells(pattern, k)]
    count = len(cells)
    directions = np.zeros((count, k + 1, k + 1, k + 1))
    directions[(np.arange(count),) + tuple(np.asarray(cells).T)] = 1.0
    with np.errstate(all="ignore"):
        all_derivs = np.moveaxis(_differential(rec, directions), 0, -1)
    all_usable = np.isfinite(all_derivs).all(axis=(0, 1, 2))
    pair_derivs = np.full((3, 3, k, k, k, k), np.nan)
    pair_usable = np.zeros((3, k, k), dtype=bool)
    for n, p in enumerate(pairs):
        block = slice(k ** 3 + n * k * k, k ** 3 + (n + 1) * k * k)
        pair_derivs[p] = all_derivs[..., block].reshape(3, k, k, k, k)
        pair_usable[p] = all_usable[block].reshape(k, k)
    return KaryJacobian(arity=k,
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

    midpoints: np.ndarray
    deviations: np.ndarray
    estimate: ResponseProbEstimate


def kary_deviations(counts: CountsTensor) -> KaryDeviations:
    """Spectral recovery plus linearized deviations of every P entry.

    The triple is recovered once, by prob_estimate; the Jacobian of V
    against the all-three cells and the nonempty pair patterns' cells
    differentiates that recovery, is carried through P = V / rowsum(V),
    then contracted with the block-diagonal multinomial covariance of
    those cells (one block per attempt pattern, see pattern_covariance) by
    matrix products. Raises EstimationFailure when the recovery fails or
    when a derivative is not finite (REASON_JACOBIAN_FAILURE).
    """
    estimate = prob_estimate(counts)
    jac = numerical_jacobian(estimate)
    bad = int((~jac.usable).sum() + (~jac.pair_usable[jac.pair_perturbed]).sum())
    if bad:
        raise EstimationFailure(
            REASON_JACOBIAN_FAILURE, f"{bad} count cells have non-finite derivatives")
    k = counts.arity
    v_all = estimate.recovery.v
    row_sums = v_all.sum(axis=2, keepdims=True)
    blocks = [(jac.derivs, pattern_covariance(counts, (1, 1, 1)))]
    blocks += [(jac.pair_derivs[p], pattern_covariance(counts, PAIR_PATTERNS[p]))
               for p in np.flatnonzero(jac.pair_perturbed)]
    p_all = v_all / row_sums
    variances = np.zeros((3, k, k))
    for derivs, block in blocks:
        # Row i of P = V / rowsum(V) moves by (dV_i - P_i d(sum V_i)) / sum V_i.
        dv = derivs.reshape(3, k, k, -1)
        grads = (dv - p_all[..., None] * dv.sum(axis=2, keepdims=True)) / row_sums[..., None]
        variances += ((grads @ block) * grads).sum(axis=-1)
    return KaryDeviations(
        midpoints=p_all,
        deviations=np.sqrt(np.clip(variances, 0.0, None)),
        estimate=estimate)


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


def kary_confidence_intervals(counts: CountsTensor, confidence: float) -> KaryReport:
    """Full interval report for a triple's response-probability matrices.

    Estimation failures produce a failed report; a pair sharing no tasks
    still raises InsufficientOverlapError since the input violates the
    estimator's precondition.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    try:
        devs = kary_deviations(counts)
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
    return KaryReport(
        arity=counts.arity, confidence=confidence, failed=False, reason=None,
        intervals=grids,
        selectivity=tuple(float(s) for s in devs.estimate.selectivity),
        diagnostics=devs.estimate.diagnostics)
