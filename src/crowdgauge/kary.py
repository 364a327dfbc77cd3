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

The pipeline also runs on a stack of triples: a CountsTensor whose counts
are (B, k+1, k+1, k+1) is recovered, differentiated and contracted in one
pass of each step, each triple getting the bits it would get alone, and
each failure is that triple's reason instead of an exception. A single
tensor is a stack of one. `evaluate-kary` and the simulator feed stacks of
stack_size(k) triples, so that the largest array fits _STACK_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .dataset import ResponseDataset
from .errors import (
    EstimationFailure,
    REASON_DEGENERATE_SELECTIVITY,
    REASON_EIGEN_NONCONVERGENCE,
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

# Bytes that the largest array of one stacked recovery may take: the
# (B, C, k, k, k) differentials of the conditional slices against the
# C = k^3 + 3k^2 count cells. The recovery holds a few such arrays at once.
_STACK_BYTES = 256 * 1024

SLICE_EMPTY = "empty slice"
SLICE_COMPLEX = "complex eigensystem"
SLICE_SINGULAR = "singular eigenvector matrix"
SLICE_DEGENERATE = "repeated eigenvalues"


@dataclass(frozen=True, eq=False)
class CountsTensor:
    """Joint response counts for an ordered worker triple, or a stack of them.

    counts[a, b, c] is the number of tasks answered a by worker 1, b by
    worker 2, and c by worker 3, with 0 meaning "did not attempt". Tasks
    attempted by nobody are never ingested, so counts[0, 0, 0] == 0. A
    (B, k+1, k+1, k+1) array holds B triples' counts, which prob_estimate,
    numerical_jacobian, kary_deviations and kary_confidence_intervals take
    as one stack.
    """

    arity: int
    counts: np.ndarray

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError(f"arity must be at least 2, got {self.arity}")
        cube = (self.arity + 1,) * 3
        tensor = np.array(self.counts, dtype=float, copy=True)
        if tensor.ndim not in (3, 4) or tensor.shape[-3:] != cube:
            raise ValueError(
                f"counts must have shape {cube}, or (B, *{cube}) for a stack, "
                f"got {tensor.shape}")
        if not np.isfinite(tensor).all() or (tensor < 0).any():
            raise ValueError("counts must be finite and nonnegative")
        if (tensor[..., 0, 0, 0] != 0).any():
            raise ValueError("counts[0, 0, 0] must be 0")
        tensor.flags.writeable = False
        object.__setattr__(self, "counts", tensor)

    def pattern_total(self, pattern: Sequence[int]) -> float | np.ndarray:
        """Tasks attempted by exactly the workers flagged in `pattern`, one
        total per triple of a stack.

        `pattern` has three 0/1 entries, one per worker position.
        """
        if len(pattern) != 3 or not all(p in (0, 1) for p in pattern):
            raise ValueError(f"pattern must be three 0/1 flags, got {pattern!r}")
        part = self.counts[(...,) + tuple(slice(1, None) if p else 0 for p in pattern)]
        totals = part.reshape(self.counts.shape[:-3] + (-1,)).sum(axis=-1)
        return float(totals) if self.counts.ndim == 3 else totals


def _pattern_cells(pattern: Sequence[int], k: int) -> list[tuple[int, int, int]]:
    """Full (a, b, c) indices of a pattern's cells, in row-major order."""
    return list(product(*(range(1, k + 1) if p else (0,) for p in pattern)))


def tally_counts(labels: np.ndarray, k: int) -> np.ndarray:
    """Joint response counts of worker triples' label rows.

    `labels` is (..., 3, n), one row per worker with 0 for "did not
    attempt"; the result is (..., k+1, k+1, k+1) floats. Tasks none of the
    three attempted are not counted, so cell (0, 0, 0) is 0.
    """
    size = k + 1
    lead = labels.shape[:-2]
    flat = (labels[..., 0, :].astype(np.int64) * size + labels[..., 1, :]) * size \
        + labels[..., 2, :]
    items = int(np.prod(lead))
    flat += size ** 3 * np.arange(items).reshape(lead + (1,))
    tensor = np.bincount(flat.reshape(-1), minlength=items * size ** 3).astype(float)
    tensor = tensor.reshape(lead + (size,) * 3)
    tensor[..., 0, 0, 0] = 0.0
    return tensor


def build_counts(ds: ResponseDataset, triple: Sequence[str]) -> CountsTensor:
    """Tally the joint response counts of an ordered worker triple."""
    if len(set(triple)) != 3:
        raise ValueError(f"triple {tuple(triple)} repeats a worker")
    return CountsTensor(ds.arity, tally_counts(ds.matrix[[ds.worker_index(w) for w in triple]],
                                               ds.arity))


def stack_size(k: int) -> int:
    """Triples of arity k per stacked recovery, so that its largest array
    fits _STACK_BYTES."""
    return max(1, _STACK_BYTES // (8 * (k ** 3 + 3 * k ** 2) * k ** 3))


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


def _solve_items(solve, stack: np.ndarray, identity: tuple
                 ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """solve(stack) for an eigensolver that raises EstimationFailure when
    it does not converge, and which items of the stack it failed on.

    Where the stacked call raises, the items are solved one at a time to
    find the ones that fail; a failed item gets `identity`, the results
    for one identity matrix.
    """
    try:
        return solve(stack), np.zeros(len(stack), dtype=bool)
    except EstimationFailure:
        pass
    failed = np.zeros(len(stack), dtype=bool)
    parts = []
    for item in range(len(stack)):
        try:
            parts.append(solve(stack[item:item + 1]))
        except EstimationFailure:
            failed[item] = True
            parts.append(tuple(np.asarray(result)[None] for result in identity))
    return tuple(np.concatenate(results) for results in zip(*parts)), failed


@lru_cache(maxsize=None)
def _cells(k: int) -> tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Every count cell the recovery reads, and the pair counts of a unit
    change of each.

    The cells are (C, 3) indices: the k^3 all-three cells, then the k^2
    cells of each pattern of PAIR_PATTERNS, each run in row-major order.
    The pair counts are _pair_counts of the (C, k+1, k+1, k+1) unit changes.
    """
    cells = np.array([cell for pattern in ((1, 1, 1),) + PAIR_PATTERNS
                      for cell in _pattern_cells(pattern, k)])
    directions = np.zeros((len(cells), k + 1, k + 1, k + 1))
    directions[(np.arange(len(cells)),) + tuple(cells.T)] = 1.0
    d_freqs, d_totals = _pair_counts(directions)
    for array in (cells, *d_freqs, *d_totals):
        array.flags.writeable = False
    return cells, d_freqs, d_totals


def _recover(tensors: np.ndarray, k: int
             ) -> tuple[np.ndarray, np.ndarray, tuple[KaryDiagnostics, ...], np.ndarray]:
    """Spectral recovery of a (B, k+1, k+1, k+1) stack of counts, differentiated.

    Returns (v, dv, diagnostics, reasons): v stacks each item's V1..V3 as
    (B, 3, k, k), dv their derivatives against every cell of _cells(k) as
    (B, C, 3, k, k), diagnostics one KaryDiagnostics per item (all of it
    but `clamped`, which the row normalization sets), and reasons one REASON_* code per item, None where the
    recovery succeeded. Each step is followed by its differential at the
    same values: the frequency ratios; the inversions, by
    dA^-1 = -A^-1 dA A^-1; the Gram square root, by the Daleckii-Krein
    formula; each kept slice's eigenvectors, by dR = R (F o (R^-1 dX R))
    with F_ij = 1 / (l_j - l_i) (Magnus, "On differentiating eigenvalues
    and eigenvectors", Econometric Theory 1985), less the part that would
    change their unit norm; then the row signs, the row order and the
    average over the kept slices.

    Every check marks the items it fails with its reason (the first reason
    an item gets is kept), and the stack goes on: a failed item's matrices
    that would reach an eigensolver are swapped for the identity, as
    invert_matrices swaps its singular items, so each solver takes the
    whole stack in one call, and a failed item's v and dv are garbage. An
    eigensolver that does not converge on the stack is run item by item
    (see _solve_items). The k conditional slices of every item run as one
    stack of B k matrices, and a dropped slice is masked out of the
    average. Each item gets the bits it would get in a stack of one. The
    array is not validated, so tests can recover counts shifted below zero.
    """
    count = len(tensors)
    eye = np.eye(k)
    cells, d_freqs, d_totals = _cells(k)
    reasons = np.full(count, None, dtype=object)

    def fail(mask: np.ndarray, reason: str) -> np.ndarray:
        """Give `reason` to the items of `mask` that have none yet; return
        which items have failed."""
        reasons[mask & np.equal(reasons, None)] = reason
        return ~np.equal(reasons, None)

    with np.errstate(all="ignore"):
        freqs, pair_totals = _pair_counts(tensors)
        failed = fail((np.stack(pair_totals) <= 0).any(axis=0), REASON_INSUFFICIENT_OVERLAP)
        r12, r23, r31 = (c / total[:, None, None] for c, total in zip(freqs, pair_totals))
        for r in (r12, r23, r31):
            r[failed] = eye
        dr12, dr23, dr31 = ((dc - r[:, None] * dt[:, None, None]) / total[:, None, None, None]
                            for dc, dt, r, total in zip(d_freqs, d_totals, (r12, r23, r31),
                                                         pair_totals))
        inv_r32, singular = invert_matrices(np.swapaxes(r23, 1, 2))
        failed = fail(singular, REASON_NONINVERTIBLE_FREQUENCY)
        inv_r32[failed] = eye
        d_inv_r32 = -inv_r32[:, None] @ np.swapaxes(dr23, 2, 3) @ inv_r32[:, None]
        gram = r12 @ inv_r32 @ r31
        gram = 0.5 * (gram + np.swapaxes(gram, 1, 2))
        dgram = (dr12 @ inv_r32[:, None] @ r31[:, None] + r12[:, None] @ d_inv_r32 @ r31[:, None]
                 + r12[:, None] @ inv_r32[:, None] @ dr31)
        dgram = 0.5 * (dgram + np.swapaxes(dgram, 2, 3))
        (evecs, evals), unsolved = _solve_items(eigendecompose_symmetric, gram,
                                                  (eye, np.ones(k)))
        fail(unsolved, REASON_EIGEN_NONCONVERGENCE)
        fail(evals.min(axis=1) < -NEGATIVE_EIG_TOL_SCALE * np.maximum(
            np.abs(gram).max(axis=(1, 2)), 1e-300), REASON_NEGATIVE_SPECTRUM)
        # The Gram matrix is exactly symmetric, so evecs is orthonormal and
        # U1 = E sqrt(D) E^T is symmetric with inverse E D^-1/2 E^T.
        roots = np.sqrt(np.clip(evals, 0.0, None))
        fail(~(roots[:, -1] * COND_LIMIT > roots[:, 0]), REASON_SINGULAR_ESTIMATE)
        evecs_t = np.swapaxes(evecs, 1, 2)
        u1 = (evecs * roots[:, None]) @ evecs_t
        du1 = evecs[:, None] @ (evecs_t[:, None] @ dgram @ evecs[:, None]
                                / (roots[:, :, None] + roots[:, None])[:, None]) @ evecs_t[:, None]
        u1_inv = (evecs / roots[:, None]) @ evecs_t
        du1_inv = -u1_inv[:, None] @ du1 @ u1_inv[:, None]
        u2_inv, singular = invert_matrices(u1_inv @ r12)
        failed = fail(singular, REASON_SINGULAR_ESTIMATE)
        du2_inv = -u2_inv[:, None] @ (du1_inv @ r12[:, None] + u1_inv[:, None] @ dr12
                                      ) @ u2_inv[:, None]

        # slices[b, j] holds item b's counts where worker 3 said j+1.
        slices = np.moveaxis(tensors[:, 1:, 1:, 1:], -1, 1)
        slice_totals = slices.sum(axis=(2, 3))
        live = np.ones((count, k), dtype=bool)
        slice_failures = np.full((count, k), None, dtype=object)

        def drop(mask: np.ndarray, why: str) -> None:
            slice_failures[live & mask] = why
            live[mask] = False

        drop(slice_totals <= 0, SLICE_EMPTY)
        safe_totals = np.where(slice_totals > 0, slice_totals, 1.0)
        conditionals = slices / safe_totals[..., None, None]
        x = u1_inv[:, None] @ conditionals @ u2_inv[:, None]
        solvable = (live & ~failed[:, None])[..., None, None]
        (vectors, values, imag), unsolved = _solve_items(
            eigendecompose_many, np.where(solvable, x, eye).reshape(-1, k, k),
            (eye, np.ones(k), 0.0))
        fail(unsolved.reshape(count, k).any(axis=1), REASON_EIGEN_NONCONVERGENCE)
        vectors = vectors.reshape(count, k, k, k)
        values, imag = values.reshape(count, k, k), imag.reshape(count, k)
        drop(imag > IMAG_TOL_SCALE * np.maximum(np.abs(x).max(axis=(2, 3)), 1e-300),
             SLICE_COMPLEX)
        max_imag = np.where(live, imag, 0.0).max(axis=1)
        gaps = np.diff(np.sort(values, axis=2), axis=2)
        drop(gaps.min(axis=2) < EIGENGAP_TOL_SCALE * np.maximum(
            np.abs(values).max(axis=2), 1e-300), SLICE_DEGENERATE)
        inverses, singular = invert_matrices(vectors.reshape(-1, k, k))
        drop(singular.reshape(count, k), SLICE_SINGULAR)
        fail(~live.any(axis=1), REASON_NO_USABLE_SLICES)

        # Every slice is differentiated, along axis 2 of each differential;
        # the average reads only the kept ones. Contiguous copies keep each
        # product on the path it takes for a stack of one. The slices'
        # (B, C, k, k, k) differential, the largest array, is carried
        # through the steps under one name, so one step's is freed by the next.
        cond, vecs = np.ascontiguousarray(conditionals), np.ascontiguousarray(vectors)
        invs = inverses.reshape(count, k, k, k)
        # The conditional slices, then X = U1^-1 slice U2^-1. The unit
        # change of all-three cell (a, b, c) moves slice c alone, by
        # (E_ab - slice) / total, and a pair cell moves no slice.
        row, col, moved = (cells[:k ** 3] - 1).T
        one_hot = np.zeros((k ** 3, k, k))
        one_hot[np.arange(k ** 3), row, col] = 1.0
        d_slice = du1_inv[:, :, None] @ cond[:, None] @ u2_inv[:, None, None]
        d_slice[:, np.arange(k ** 3), moved] += u1_inv[:, None] @ (
            (one_hot - cond[:, moved]) / safe_totals[:, moved, None, None]) @ u2_inv[:, None]
        d_slice += u1_inv[:, None, None] @ cond[:, None] @ du2_inv[:, :, None]
        # X's eigenvectors R, less their change of norm.
        off = ~np.eye(k, dtype=bool)
        spread = values[..., None, :] - values[..., :, None]
        coupling = np.where(off, 1.0 / np.where(off, spread, 1.0), 0.0)
        d_slice = vecs[:, None] @ (coupling[:, None] * (invs[:, None] @ d_slice @ vecs[:, None]))
        d_slice -= vecs[:, None] * (vecs[:, None] * d_slice).sum(axis=3, keepdims=True)
        # The slice's V1 = R^-1 U1, its row signs and its row order: row r
        # of a slice moves to row dest[b, j, r], and the differential
        # follows by the same signs and moves of the rows of R^-1.
        v1_slices = invs @ u1[:, None]
        signs = np.where(v1_slices.sum(axis=3) < 0, -1.0, 1.0)
        v1_slices, dest = _order_rows_by_diagonal((v1_slices * signs[..., None]).reshape(-1, k, k))
        v1_slices, dest = v1_slices.reshape(count, k, k, k), dest.reshape(count, k, k)
        moved = np.take_along_axis(invs * signs[..., None], np.argsort(dest, axis=2)[..., None],
                                   axis=2)
        d_slice = (-moved[:, None] @ d_slice @ invs[:, None] @ u1[:, None, None]
                   + moved[:, None] @ du1[:, :, None])
        # Summed slice by slice, in slice order; a dropped slice adds 0.
        kept = np.maximum(live.sum(axis=1), 1)
        v1 = sum(np.where(live[:, j, None, None], v1_slices[:, j], 0.0)
                 for j in range(k)) / kept[:, None, None]
        np.copyto(d_slice, 0.0, where=~live[:, None, :, None, None])
        dv1 = d_slice.sum(axis=2) / kept[:, None, None, None]
        del d_slice
        v1t_inv, singular = invert_matrices(np.swapaxes(v1, 1, 2))
        fail(singular, REASON_SINGULAR_ESTIMATE)
        dv1t_inv = -v1t_inv[:, None] @ np.swapaxes(dv1, 2, 3) @ v1t_inv[:, None]
        r31_t = np.swapaxes(r31, 1, 2)
        v = np.stack([v1, v1t_inv @ r12, v1t_inv @ r31_t], axis=1)
        dv = np.stack([dv1, dv1t_inv @ r12[:, None] + v1t_inv[:, None] @ dr12,
                       dv1t_inv @ r31_t[:, None] + v1t_inv[:, None] @ np.swapaxes(dr31, 2, 3)],
                      axis=2)
    permuted = ((dest != np.arange(k)) & live[..., None]).any(axis=(1, 2))
    sign_fixed = ((signs < 0) & live[..., None]).any(axis=(1, 2))
    diagnostics = tuple(
        KaryDiagnostics(
            slice_failures=tuple((j + 1, why) for j, why in enumerate(slice_failures[b])
                                 if why is not None),
            max_imag=float(max_imag[b]), rows_permuted=bool(permuted[b]),
            rows_sign_fixed=bool(sign_fixed[b]))
        for b in range(count))
    return v, dv, diagnostics, reasons


@dataclass(frozen=True, eq=False)
class ResponseProbEstimate:
    """Recovered response-probability matrices for a worker triple, or for
    each triple of a stack.

    v[w] is the scaled matrix S_D^(1/2) P_{w+1}, in a row order shared by
    the three workers, and p_matrices[w] = V_{w+1} / rowsum(V_{w+1}) its
    row normalization; both are (3, k, k) arrays. Each row of P sums to 1
    up to rounding, and an entry may lie outside [0, 1]
    (diagnostics.clamped says whether one does). selectivity is the
    recovered truth distribution. counts is the tensor the triple was
    recovered from (counts.arity is k) and dv[j] the (3, k, k) derivative
    of V against the count cell cells[j], from the pass that recovered V:
    kary_deviations contracts it, so nothing recovers the triple again.

    The estimate of a stack of B triples has a leading triple axis on
    p_matrices, selectivity, v and dv (B, C, 3, k, k), one diagnostics
    record per triple, and `reasons`, the REASON_* code each triple failed
    with or None. Its cells are every cell the recovery reads, those of
    empty pair patterns included. A failed triple's arrays are garbage.
    """

    p_matrices: np.ndarray
    selectivity: np.ndarray
    diagnostics: KaryDiagnostics | tuple[KaryDiagnostics, ...]
    counts: CountsTensor
    cells: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    reasons: tuple[str | None, ...] | None = None


def _pattern_index(cells: np.ndarray) -> np.ndarray:
    """Each cell's attempt pattern: 0 for all three, 1 + p for PAIR_PATTERNS[p]."""
    flags = (cells > 0)[:, None]
    return np.argmax((flags == ((1, 1, 1),) + PAIR_PATTERNS).all(axis=2), axis=1)


def _pair_perturbed(counts: CountsTensor) -> np.ndarray:
    """(B, 3) flags: whether each pattern of PAIR_PATTERNS has tasks."""
    totals = np.stack([counts.pattern_total(p) for p in PAIR_PATTERNS], axis=-1)
    return np.reshape(totals > 0, (-1, 3))


def prob_estimate(counts: CountsTensor) -> ResponseProbEstimate:
    """Recover all three workers' response-probability matrices.

    The same pass differentiates V against every count cell the recovery
    reads, in the order of KaryJacobian.cells. Every failure (a pair
    sharing no task, a singular frequency matrix, a negative spectrum, an
    eigensolver that does not converge, no usable slices, a zero row sum in
    some V) raises EstimationFailure with a reason code. Row r of
    V1 = S_D^(1/2) P1 sums to sqrt(S(r)), so the selectivity S is the
    squared row sums of V1, renormalized.

    A stack of counts (see CountsTensor) is recovered in one pass, and each
    triple's failure is its entry of `reasons` instead of an exception.
    """
    k, tensors = counts.arity, counts.counts
    single = tensors.ndim == 3
    v, dv, diagnostics, reasons = _recover(tensors[None] if single else tensors, k)
    with np.errstate(all="ignore"):
        sums = v.sum(axis=3, keepdims=True)
        degenerate = (np.abs(sums) < 1e-12).any(axis=(1, 2, 3)) & np.equal(reasons, None)
        reasons[degenerate] = REASON_DEGENERATE_SELECTIVITY
        p = v / sums
        selectivity = sums[:, 0, :, 0] ** 2
        selectivity = selectivity / selectivity.sum(axis=1, keepdims=True)
    diagnostics = tuple(
        KaryDiagnostics() if reason is not None
        else replace(diag, clamped=bool(((item < 0.0) | (item > 1.0)).any()))
        for diag, reason, item in zip(diagnostics, reasons, p))
    cells = _cells(k)[0]
    if not single:
        return ResponseProbEstimate(p_matrices=p, selectivity=selectivity,
                                    diagnostics=diagnostics, counts=counts, cells=cells,
                                    v=v, dv=dv, reasons=tuple(reasons))
    if reasons[0] is not None:
        raise _fail(reasons[0])
    # One triple carries the cells of its nonempty patterns only.
    columns = np.r_[True, _pair_perturbed(counts)[0]][_pattern_index(cells)]
    return ResponseProbEstimate(p_matrices=p[0], selectivity=selectivity[0],
                                diagnostics=diagnostics[0], counts=counts, cells=cells[columns],
                                v=v[0], dv=dv[0][columns])


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

    The Jacobian of a stacked estimate has a leading triple axis on derivs,
    usable, pair_usable and pair_perturbed. Its cells are those of every
    pair pattern, and a triple's empty patterns are masked out of its flags.
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
    single = estimate.v.ndim == 3
    dv = estimate.dv[None] if single else estimate.dv
    derivs = np.moveaxis(dv, 1, -1)
    finite = np.isfinite(derivs).all(axis=(1, 2, 3))
    present = np.isin(np.arange(1, 4), _pattern_index(estimate.cells))
    pair_perturbed = present & _pair_perturbed(estimate.counts)
    pair_usable = np.zeros((len(dv), 3, k, k), dtype=bool)
    pair_usable[:, present] = finite[:, k ** 3:].reshape(len(dv), -1, k, k)
    pair_usable &= pair_perturbed[..., None, None]
    usable = finite[:, :k ** 3].reshape(-1, k, k, k)
    if single:
        derivs, usable, pair_usable, pair_perturbed = (
            derivs[0], usable[0], pair_usable[0], pair_perturbed[0])
    return KaryJacobian(cells=estimate.cells, derivs=derivs, usable=usable,
                        pair_usable=pair_usable, pair_perturbed=pair_perturbed)


def kary_deviations(estimate: ResponseProbEstimate) -> np.ndarray:
    """Linearized deviations of every entry of an estimate's P, as (3, k, k).

    The Jacobian of V against the estimate's cells, taken by its own
    recovery, is carried through P = V / rowsum(V) to a gradient g over
    the cells. Cells of different attempt patterns are uncorrelated, and
    within one pattern the counts N split its n tasks multinomially, with
    covariance diag(N) - N N^T / n. So each pattern adds

        g^T (diag(N) - N N^T / n) g = sum_c N_c g_c^2 - (sum_c N_c g_c)^2 / n

    over its contiguous run of cells, and nothing if n is 0: the cells of
    an empty pair pattern are masked out. An interval at any level is
    P +- z * deviation. A derivative that is not finite, or a deviation
    that overflows, raises EstimationFailure(REASON_JACOBIAN_FAILURE).

    A stacked estimate gives (B, 3, k, k), and a triple that failed, in its
    estimate or here, has NaN deviations instead of an exception.
    """
    jac = numerical_jacobian(estimate)
    k, single = estimate.counts.arity, estimate.v.ndim == 3
    lift = (lambda a: a[None]) if single else (lambda a: a)
    usable, pair_usable, perturbed = lift(jac.usable), lift(jac.pair_usable), lift(
        jac.pair_perturbed)
    bad = (~usable).sum(axis=(1, 2, 3)) + (perturbed[..., None, None] & ~pair_usable).sum(
        axis=(1, 2, 3))
    p, dv, v = lift(estimate.p_matrices), lift(jac.derivs), lift(estimate.v)
    with np.errstate(all="ignore"):
        row_sums = v.sum(axis=3, keepdims=True)
        # Row i of P = V / rowsum(V) moves by (dV_i - P_i d(sum V_i)) / sum V_i.
        grads = (dv - p[..., None] * dv.sum(axis=3, keepdims=True)) / row_sums[..., None]
        used = np.c_[np.ones(len(v), dtype=bool), perturbed][:, _pattern_index(jac.cells)]
        grads = np.where(used[:, None, None, None], grads, 0.0)
        cell_counts = lift(estimate.counts.counts)[(slice(None),) + tuple(jac.cells.T)]
        # The k^3 all-three cells, then k^2 cells per pair pattern.
        starts = np.r_[0, k ** 3:cell_counts.shape[1]:k ** 2]
        totals = np.add.reduceat(cell_counts, starts, axis=1)[:, None, None, None]
        weighted = cell_counts[:, None, None, None] * grads
        variances = (np.add.reduceat(weighted * grads, starts, axis=-1)
                     - np.add.reduceat(weighted, starts, axis=-1) ** 2
                     / np.where(totals > 0, totals, 1.0)).sum(axis=-1)
        deviations = np.sqrt(np.clip(variances, 0.0, None))
    failed = (bad > 0) | ~np.isfinite(deviations).all(axis=(1, 2, 3))
    if not single:
        deviations[failed | ~np.equal(estimate.reasons, None)] = np.nan
        return deviations
    if failed[0]:
        raise EstimationFailure(REASON_JACOBIAN_FAILURE, (
            f"{bad[0]} count cells have non-finite derivatives" if bad[0]
            else "the deviations overflow"))
    return deviations[0]


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


def kary_confidence_intervals(counts: CountsTensor, confidence: float
                              ) -> KaryReport | list[KaryReport]:
    """Full interval report for a triple's response-probability matrices.

    Every estimation failure, a pair sharing no task included, produces a
    failed report with the reason code. A stack of counts gives a list of
    reports, one per triple, from one prob_estimate and one kary_deviations
    call; one tensor is recovered as a stack of one.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    k, single = counts.arity, counts.counts.ndim == 3
    estimate = prob_estimate(CountsTensor(k, counts.counts[None]) if single else counts)
    deviations = kary_deviations(estimate)
    half = abs(normal_quantile((1.0 - confidence) / 2.0)) * deviations
    reports = []
    for b, reason in enumerate(estimate.reasons):
        if reason is None and not np.isfinite(deviations[b]).all():
            reason = REASON_JACOBIAN_FAILURE
        if reason is not None:
            reports.append(KaryReport(
                arity=k, confidence=confidence, reason=reason, midpoints=None,
                deviations=None, lower=None, upper=None, selectivity=None,
                diagnostics=KaryDiagnostics()))
            continue
        p = estimate.p_matrices[b]
        reports.append(KaryReport(
            arity=k, confidence=confidence, reason=None, midpoints=p,
            deviations=deviations[b], lower=p - half[b], upper=p + half[b],
            selectivity=estimate.selectivity[b], diagnostics=estimate.diagnostics[b]))
    return reports[0] if single else reports
