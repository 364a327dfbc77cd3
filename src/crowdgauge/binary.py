"""Binary error-rate estimation from pairwise agreement.

For independent workers i, j with error rates p_i, p_j on uniformly random
binary truths, the agreement probability is
q_ij = p_i p_j + (1 - p_i)(1 - p_j). Three pairwise agreement rates among a
triple of workers therefore pin down each error rate in closed form, and the
sampling noise of the agreement rates propagates to the estimate through a
first-order linearization. Workers with more than two peers get several
disjoint triples whose estimates are combined with uniform or
minimum-variance weights.

Estimation runs on a `WorldStack`: W worlds with the same workers and
number of tasks, each read by worker index from its pair statistics
(`pair_overlap`, `pair_agreement`) and packed attempt rows, so memory is
O(m^2) in the number of workers m. A dataset is a stack of one; the
simulator stacks a chunk of replications. Triples stay index and value
arrays from pairing to weights: `greedy_pairs` pairs every (world, worker)
item in one vectorised loop, and `build_worker_system` evaluates every
triple (i, j1, j2) of the stack in one array pass (error rates,
derivatives, agreement covariances, deviations and a failure reason per
row). It keeps the usable rows item after item, and writes the (T, T)
covariance of each item's T usable triples into one (N_T, T, T) array
per T; the C3 matrix products over the attempt rows of the 2T partners
are built in groups that fit a byte budget. `aggregate_system` combines
each of those arrays in one pass, where it lies; minimum-variance weights
and cross-triple covariances are solved one item at a time. The formulas
take scalars or arrays alike. A `WorkerReport` carries each worker's
interval as plain floats, with a reason code in place of the numbers on
failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dataset import ResponseDataset, packed_triple_overlap
from .errors import (
    EstimationFailure,
    InsufficientConnectivityError,
    LabelDomainError,
    REASON_INSUFFICIENT_CONNECTIVITY,
    REASON_INSUFFICIENT_OVERLAP,
    REASON_LOW_AGREEMENT,
    REASON_NEGATIVE_VARIANCE,
    REASON_NO_USABLE_TRIPLES,
    UnknownWorkerError,
)
from .numerics import normal_quantile, optimal_weights, propagated_deviations

METHOD_THREE_WORKER = "three_worker"
METHOD_M_WORKER_UNIFORM = "m_worker_uniform"
METHOD_M_WORKER_OPTIMAL = "m_worker_optimal"


@dataclass(frozen=True)
class WorkerReport:
    """Aggregated error-rate interval for one worker.

    The interval is [lower, upper], the estimate less and plus z times
    `dev`. On failure `estimate`, `lower`, `upper`, `weights` and `dev` are
    None and `reason` carries the cause. `method` is one of three_worker,
    m_worker_uniform, m_worker_optimal. `triple_failures` counts the failed
    triples by reason, and `triples_failed` is their total. `weights` aligns
    with the non-failed triples that entered the aggregation. `clamped`
    marks an aggregate cut back into [0, 1], and `weight_fallback` is set
    when minimum-variance weighting had to fall back to uniform weights.
    """

    worker: str
    confidence: float
    reason: str | None
    method: str
    triples_used: int
    triple_failures: dict[str, int] = field(hash=False)
    estimate: float | None = None
    lower: float | None = None
    upper: float | None = None
    weights: tuple[float, ...] | None = None
    dev: float | None = None
    clamped: bool = False
    weight_fallback: bool = False

    @property
    def failed(self) -> bool:
        return self.reason is not None

    @property
    def triples_failed(self) -> int:
        return sum(self.triple_failures.values())


def _agreement_rates(q_i_j1, q_i_j2, q_j1_j2) -> list[np.ndarray]:
    """The three agreement rates as float arrays.

    Any rate at or below 1/2 raises EstimationFailure (the model places all
    agreement rates strictly above 1/2).
    """
    rates = [np.asarray(q, dtype=float) for q in (q_i_j1, q_i_j2, q_j1_j2)]
    low = np.minimum(np.minimum(rates[0], rates[1]), rates[2]) <= 0.5
    if low.any():
        a, b, c = (float(np.broadcast_to(q, low.shape)[low][0]) for q in rates)
        raise EstimationFailure(REASON_LOW_AGREEMENT, f"agreement rates ({a:g}, {b:g}, {c:g})")
    return rates


def error_rate_from_agreements(q_i_j1, q_i_j2, q_j1_j2):
    """Invert three pairwise agreement rates to worker i's error rate.

    p_i = 1/2 - 1/2 * sqrt((2 q_i_j1 - 1)(2 q_i_j2 - 1) / (2 q_j1_j2 - 1)).

    The rates are scalars or arrays of one shape, and so is the result.
    Any agreement rate at or below 1/2 raises EstimationFailure. A radicand
    above 1, which noise can produce, clamps the estimate to 0.
    """
    a, b, c = (2.0 * q - 1.0 for q in _agreement_rates(q_i_j1, q_i_j2, q_j1_j2))
    return np.maximum(0.0, 0.5 - 0.5 * np.sqrt(a * b / c))


def f_derivatives(q_i_j1, q_i_j2, q_j1_j2) -> tuple:
    """Closed-form partial derivatives of error_rate_from_agreements.

    Returns (d/dq_i_j1, d/dq_i_j2, d/dq_j1_j2) at the given point, each of
    the rates' shape; the first two are negative and the third positive
    everywhere in the domain.
    """
    a, b, c = (q - 0.5 for q in _agreement_rates(q_i_j1, q_i_j2, q_j1_j2))
    # float_power is the C library's pow, which Python's float ** also
    # calls; numpy's ** may take a vectorised pow that differs in the last bit.
    return (-np.sqrt(b / (8.0 * a * c)),
            -np.sqrt(a / (8.0 * b * c)),
            np.sqrt(a * b / (8.0 * np.float_power(c, 3))))


def agreement_covariances(q: Sequence, c2: Sequence, c3, p_hats: Sequence) -> np.ndarray:
    """3x3 covariance of the agreement rates (Q_i_j1, Q_i_j2, Q_j1_j2).

    For a triple (i, j1, j2), `q` holds the agreement rates and `c2` the
    shared-task counts of the pairs (i, j1), (i, j2), (j1, j2), `c3` counts
    the tasks all three attempted, and `p_hats` are the error-rate plug-ins
    for (i, j1, j2). Var(Q_ab) = q_ab (1 - q_ab) / c_ab; two agreement rates
    sharing worker s covary through s's errors on the jointly attempted
    tasks:

        Cov(Q_sa, Q_sb) = c_sab * p_s (1 - p_s) (2 q_ab - 1) / (c_sa c_sb).

    With zero triple overlap the off-diagonal terms vanish. Every entry may
    be an array over T triples instead of a scalar; the result is then a
    (T, 3, 3) stack. A pair that shares no task raises
    EstimationFailure(REASON_INSUFFICIENT_OVERLAP).
    """
    q_ij1, q_ij2, q_j1j2 = (np.asarray(x, dtype=float) for x in q)
    c_ij1, c_ij2, c_j1j2 = (np.asarray(x) for x in c2)
    p_i, p_j1, p_j2 = (np.asarray(p, dtype=float) for p in p_hats)
    c3 = np.asarray(c3)
    if (np.minimum(np.minimum(c_ij1, c_ij2), c_j1j2) < 1).any():
        raise EstimationFailure(REASON_INSUFFICIENT_OVERLAP,
                                "a pair of the triple shares no tasks")
    shape = np.broadcast(q_ij1, q_ij2, q_j1j2, c_ij1, c_ij2, c_j1j2, c3, p_i, p_j1, p_j2).shape
    cov = np.zeros(shape + (3, 3))
    cov[..., 0, 0] = q_ij1 * (1.0 - q_ij1) / c_ij1
    cov[..., 1, 1] = q_ij2 * (1.0 - q_ij2) / c_ij2
    cov[..., 2, 2] = q_j1j2 * (1.0 - q_j1j2) / c_j1j2
    shared = c3 > 0
    cov[..., 0, 1] = cov[..., 1, 0] = np.where(
        shared, c3 * p_i * (1.0 - p_i) * (2.0 * q_j1j2 - 1.0) / (c_ij1 * c_ij2), 0.0)
    cov[..., 0, 2] = cov[..., 2, 0] = np.where(
        shared, c3 * p_j1 * (1.0 - p_j1) * (2.0 * q_ij2 - 1.0) / (c_ij1 * c_j1j2), 0.0)
    cov[..., 1, 2] = cov[..., 2, 1] = np.where(
        shared, c3 * p_j2 * (1.0 - p_j2) * (2.0 * q_ij1 - 1.0) / (c_ij2 * c_j1j2), 0.0)
    return cov


# Bytes that the temporaries of one group may take: triple overlaps are
# counted, and C3 matrices built, one group of rows or items at a time,
# so a stack of many small worlds never holds them all at once. An item
# whose 2T x n floats exceed the budget makes a group of its own.
_GROUP_BYTES = 64 * 1024


class WorldStack(NamedTuple):
    """W binary worlds with the same workers and number of tasks, stacked.

    `pair_overlap` and `pair_agreement` are (W, m, m). `attempts` holds the
    W * m attempt rows packed to bits along the tasks (np.packbits), world
    by world: row w * m + i is worker i of world w. `triple_overlap(a, b,
    c)` counts the tasks that attempt rows a, b and c share; the stack of
    one dataset reads it from `ResponseDataset.triple_overlap_by_index`.
    """

    workers: tuple[str, ...]
    num_tasks: int
    pair_overlap: np.ndarray
    pair_agreement: np.ndarray
    attempts: np.ndarray
    triple_overlap: Callable

    @classmethod
    def of(cls, ds: ResponseDataset) -> "WorldStack":
        """The one-world stack of a dataset; arity other than 2 raises
        LabelDomainError."""
        if ds.arity != 2:
            raise LabelDomainError(f"binary estimation needs arity 2, got {ds.arity}; "
                                   "collapse labels first with reduce_arity")
        return cls(ds.workers, ds.num_tasks, ds.pair_overlap[None], ds.pair_agreement[None],
                   ds.packed_attempts, ds.triple_overlap_by_index)

    @classmethod
    def stack(cls, workers: tuple[str, ...], num_tasks: int, pair_overlap: np.ndarray,
              pair_agreement: np.ndarray, attempts: np.ndarray) -> "WorldStack":
        """Stack worlds from their statistics and packed attempt rows."""
        return cls(workers, num_tasks, pair_overlap, pair_agreement, attempts,
                   partial(packed_triple_overlap, attempts))


def _items(data: ResponseDataset | WorldStack, workers: Sequence[str]
           ) -> tuple[WorldStack, np.ndarray, np.ndarray]:
    """The stack of `data` and its (world, worker) items, world by world in
    `workers` order, as arrays of worlds and of worker positions."""
    if isinstance(workers, str):
        raise TypeError(f"workers must be a sequence of worker ids, got the id {workers!r}")
    stack = data if isinstance(data, WorldStack) else WorldStack.of(data)
    if len(stack.workers) < 3:
        raise InsufficientConnectivityError(
            f"estimation needs at least 3 workers, got {len(stack.workers)}")
    index = {w: i for i, w in enumerate(stack.workers)}
    try:
        centers = np.array([index[w] for w in workers], dtype=np.intp)
    except KeyError as exc:
        raise UnknownWorkerError(f"unknown worker {exc.args[0]!r}") from None
    worlds = len(stack.pair_overlap)
    return stack, np.repeat(np.arange(worlds), centers.size), np.tile(centers, worlds)


class _Triples(NamedTuple):
    """The T triple rows of one `_estimate_triples` pass, as parallel arrays.

    `reason` holds each row's failure reason, None on a usable row. `p_hat`,
    `dev` and the (T, 3) `derivs` (with respect to q_i_j1, q_i_j2, q_j1_j2)
    are NaN on failed rows; a `p_hat` of 0 is an estimate cut off at 0.
    """

    reason: np.ndarray
    p_hat: np.ndarray
    dev: np.ndarray
    derivs: np.ndarray


def _estimate_triples(stack: WorldStack, world: np.ndarray, index: np.ndarray,
                      c3: np.ndarray) -> _Triples:
    """Estimate worker i's error rate from each row (i, j1, j2) of `index`.

    Row t reads the pair statistics of world `world[t]` of the stack, and
    `c3` holds the rows' triple overlaps. Every formula runs once over all
    T rows. A row with an agreement rate at or below 1/2, or whose
    propagated variance is negative (propagated_deviations), fails with
    that reason; a pair sharing no task raises
    EstimationFailure(REASON_INSUFFICIENT_OVERLAP).
    """
    i, j1, j2 = index.T
    pairs = ((i, j1), (i, j2), (j1, j2))
    c2 = [stack.pair_overlap[world, x, y] for x, y in pairs]
    q = [stack.pair_agreement[world, x, y] for x, y in pairs]
    low = np.minimum(np.minimum(q[0], q[1]), q[2]) <= 0.5
    # Low rows are evaluated at perfect agreement, a point inside the
    # domain, and masked out below.
    q_ij1, q_ij2, q_j1j2 = (np.where(low, 1.0, x) for x in q)
    p_hats = (error_rate_from_agreements(q_ij1, q_ij2, q_j1j2),
              error_rate_from_agreements(q_ij1, q_j1j2, q_ij2),
              error_rate_from_agreements(q_ij2, q_j1j2, q_ij1))
    cov = agreement_covariances((q_ij1, q_ij2, q_j1j2), c2, c3, p_hats)
    g = np.stack(f_derivatives(q_ij1, q_ij2, q_j1j2), axis=1)
    dev, negative = propagated_deviations(g, cov)
    reason = np.where(low, REASON_LOW_AGREEMENT,
                      np.where(negative, REASON_NEGATIVE_VARIANCE, None))
    usable = np.equal(reason, None)
    return _Triples(reason, np.where(usable, p_hats[0], np.nan),
                    np.where(usable, dev, np.nan), np.where(usable[:, None], g, np.nan))


def greedy_pairs(stack: WorldStack, world: np.ndarray, center: np.ndarray,
                 min_overlap: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair the other workers into disjoint triples around each item.

    The items are the (world, worker) pairs (world[k], center[k]) of the
    stack, as `_items` resolves them. Returns (partners, count): item k's
    pairs (j1, j2) are the worker positions partners[k, :count[k]], and an
    item that forms no pair has count 0. Around each worker the others are
    sorted by overlap with it (descending, ties by worker id, so the pairs
    do not depend on the order of the input rows); the head of the list is
    paired with the first later worker that shares at least `min_overlap`
    tasks with both. Unpairable heads are skipped, a leftover single is
    dropped, and once the head shares fewer than `min_overlap` tasks nobody
    is left to pair. All items take these steps together, over an "alive"
    mask.
    """
    m = len(stack.workers)
    overlap = stack.pair_overlap
    rank = np.empty(m, dtype=np.int64)
    rank[sorted(range(m), key=stack.workers.__getitem__)] = np.arange(m)
    # One key orders by overlap (descending) and then by id; the worker
    # itself sorts last and is cut off.
    key = rank - m * overlap[world, center]
    key[np.arange(center.size), center] = m
    order = np.argsort(key, axis=1)[:, :-1]
    # Sorted by overlap, so a head below min_overlap leaves no eligible
    # partner after it: the break rule needs no step of its own.
    eligible = np.take_along_axis(overlap[world, center], order, axis=1) >= min_overlap
    alive = np.ones(order.shape, dtype=bool)
    position = np.arange(m - 1)
    partners = np.zeros((center.size, (m - 1) // 2, 2), dtype=np.intp)
    count = np.zeros(center.size, dtype=np.intp)
    for _ in range(m - 2):
        live = np.flatnonzero(np.count_nonzero(alive, axis=1) >= 2)
        if not live.size:
            break
        head = alive[live].argmax(axis=1)
        head_worker = order[live, head]
        linked = np.take_along_axis(overlap[world[live], head_worker], order[live],
                                    axis=1) >= min_overlap
        candidate = (alive[live] & eligible[live] & linked
                     & (position > head[:, None]))
        found = candidate.any(axis=1)
        partner = candidate.argmax(axis=1)[found]
        alive[live, head] = False
        paired = live[found]
        alive[paired, partner] = False
        partners[paired, count[paired]] = np.column_stack(
            (head_worker[found], order[paired, partner]))
        count[paired] += 1
    return partners, count


def cross_triple_covariances(derivs: np.ndarray, devs: np.ndarray, p_i_hat: float,
                             c2: np.ndarray, q: np.ndarray, c3: np.ndarray
                             ) -> np.ndarray:
    """Covariance matrix of one worker's T usable triple estimates.

    Row t of `derivs` (T, 2) holds the derivatives of triple t's estimate
    with respect to q_i_j1 and q_i_j2, and `devs` (T,) its propagated
    deviation. The other arrays are indexed by the 2T partners x in triple
    order (j1, j2 of the first triple, then of the second, ...): `c2[x]` =
    c_ix, `q[x, y]` = q_xy and `c3[x, y]` = c_ixy. Diagonal entries are the
    squared deviations. Two triples (i, a1, b1), (i, a2, b2) covary through
    worker i's errors on tasks it shares with one member of each pair:

        sum over x in {a1, b1}, y in {a2, b2} of
            d_x d_y * c_ixy * p_i (1 - p_i) (2 q_xy - 1) / (c_ix c_iy)

    where d_x is the derivative of triple 1's estimate with respect to
    q_i_x, and similarly d_y for triple 2. Terms with c_ixy = 0 vanish
    whatever q_xy holds. Raises ValueError for no triple or for shapes that
    disagree.
    """
    derivs = np.asarray(derivs, dtype=float)
    devs = np.asarray(devs, dtype=float)
    count, partners = devs.size, 2 * devs.size
    shapes = (derivs.shape, devs.shape, np.shape(c2), np.shape(q), np.shape(c3))
    if count == 0 or shapes != ((count, 2), (count,), (partners,), (partners,) * 2,
                                (partners,) * 2):
        raise ValueError(f"need derivs (T, 2), devs (T,), c2, q, c3 over 2T partners, "
                         f"T >= 1; got shapes {shapes}")
    pp = float(p_i_hat) * (1.0 - float(p_i_hat))
    scaled = derivs.ravel() / c2
    terms = pp * np.outer(scaled, scaled) * np.where(c3 > 0, c3 * (2.0 * q - 1.0), 0.0)
    blocks = terms.reshape(count, 2, count, 2).sum(axis=(1, 3))
    # The two sums of a mirrored block pair differ in the last bit; their
    # mean makes the matrix exactly symmetric.
    cov = 0.5 * (blocks + blocks.T)
    # float_power is the C library's pow, as Python's float ** is; numpy's
    # ** 2 squares by multiplication, which differs from it in the last bit.
    np.fill_diagonal(cov, np.float_power(devs, 2))
    return cov


class _WorkerSystems(NamedTuple):
    """The triple systems of the requested workers, as arrays over items.

    The items are the (world, worker) pairs, world by world in request
    order; item k is worker `workers[k]`. Its `used[k]` usable triples are
    the next `used[k]` rows of `partners` (their (j1, j2) positions) and
    `p_hats` (their estimates), item after item. `covariances[T]` holds the
    (T, T) covariances of the N_T items with T usable triples, in item
    order, as one (N_T, T, T) array. `reason[k]` says why item k has no
    usable triple, and is None when it has some; `triple_failures[k]`
    counts its failed triples by reason, and an item without one is
    absent. `triples` is the (N, 3) index array of all usable triples
    (worker positions, world by world) and `triples_failed` the number of
    failed ones.
    """

    workers: tuple[str, ...]
    used: np.ndarray
    partners: np.ndarray
    p_hats: np.ndarray
    covariances: dict[int, np.ndarray]
    reason: np.ndarray
    triple_failures: dict[int, Counter]
    triples: np.ndarray
    triples_failed: int


def _rows_of(used: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The items with `size` usable triples, and the (N_T, T) positions of
    their triples among the usable triples of all items."""
    members = np.flatnonzero(used == size)
    return members, (np.cumsum(used) - used)[members][:, None] + np.arange(size)


def _groups(members: np.ndarray, size: int) -> list[np.ndarray]:
    return [members[start:start + size] for start in range(0, members.size, size)]


def build_worker_system(data: ResponseDataset | WorldStack, workers: Sequence[str],
                        min_overlap: int = 1) -> _WorkerSystems:
    """Evaluate every disjoint triple around each worker and their covariance.

    `data` is a dataset or a stack of worlds, and `workers` a sequence of
    worker ids; the systems are built for every world, world by world. The
    triples of all of them are estimated in one array pass, and their
    triple overlaps in groups that fit _GROUP_BYTES. Failed triples are
    dropped (and counted by reason). The items with the same number T of
    usable triples get their C3 matrices in groups that fit _GROUP_BYTES,
    and their covariances are written into one (N_T, T, T) array, one
    cross_triple_covariances call per item. An item that greedy_pairs
    pairs with nobody, or whose triples all fail, gets a `reason` instead
    of an exception, so whole-dataset sweeps keep going. Fewer than 3
    workers raise InsufficientConnectivityError, an unknown worker
    UnknownWorkerError, a dataset of arity other than 2 LabelDomainError,
    and then a min_overlap below 1 ValueError.
    """
    stack, item_world, item_center = _items(data, workers)
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be at least 1, got {min_overlap}")
    partners, count = greedy_pairs(stack, item_world, item_center, min_overlap)
    m, n = len(stack.workers), stack.num_tasks
    paired = np.arange(partners.shape[1]) < count[:, None]
    row_item = np.nonzero(paired)[0]
    index = np.column_stack((item_center[row_item], partners[paired]))
    world = item_world[row_item]
    attempt_rows = world[:, None] * m + index
    row_bytes = stack.attempts.shape[1]
    c3 = np.concatenate([np.empty(0, dtype=np.intp)] + [
        stack.triple_overlap(*attempt_rows[group].T)
        for group in _groups(np.arange(len(index)), max(1, _GROUP_BYTES // max(row_bytes, 1)))])
    rows = _estimate_triples(stack, world, index, c3)
    usable = np.equal(rows.reason, None)
    failures: dict[int, Counter] = {}
    for row in np.flatnonzero(~usable).tolist():
        failures.setdefault(int(row_item[row]), Counter())[rows.reason[row]] += 1
    kept = np.flatnonzero(usable)
    kept_partners, kept_p = index[kept, 1:], rows.p_hat[kept]
    kept_derivs, kept_dev = rows.derivs[kept, :2], rows.dev[kept]
    used = np.bincount(row_item[kept], minlength=count.size)
    covariances: dict[int, np.ndarray] = {}
    for size in sorted(set(used.tolist()) - {0}):
        members, own = _rows_of(used, size)
        cov = covariances[size] = np.empty((members.size, size, size))
        # C3 = B B^T in float64, exact for counts, where B = A_P o A_i is
        # the partners' attempt rows masked by worker i's. A_i is 0/1, so
        # this is (A_P o A_i) A_P^T from a single float array.
        for chunk in _groups(np.arange(members.size), max(1, _GROUP_BYTES // (16 * size * n))):
            part = kept_partners[own[chunk]].reshape(chunk.size, 2 * size)
            w, i = item_world[members[chunk]], item_center[members[chunk]]
            shared = np.unpackbits(stack.attempts[w[:, None] * m + part]
                                   & stack.attempts[w * m + i][:, None],
                                   axis=-1, count=n).astype(float)
            c3_group = shared @ shared.transpose(0, 2, 1)
            del shared
            c2 = stack.pair_overlap[w[:, None], i[:, None], part]
            q = stack.pair_agreement[w[:, None, None], part[:, :, None], part[:, None, :]]
            p_mean = kept_p[own[chunk]].mean(axis=1)
            for k, item in enumerate(chunk.tolist()):
                cov[item] = cross_triple_covariances(
                    kept_derivs[own[item]], kept_dev[own[item]], float(p_mean[k]),
                    c2[k], q[k], c3_group[k])
    reason = np.where(count == 0, REASON_INSUFFICIENT_CONNECTIVITY,
                      np.where(used == 0, REASON_NO_USABLE_TRIPLES, None))
    return _WorkerSystems(tuple(stack.workers[c] for c in item_center.tolist()), used,
                          kept_partners, kept_p, covariances, reason, failures,
                          index[usable], int((~usable).sum()))


class _Aggregates(NamedTuple):
    """Aggregates of the items of a `_WorkerSystems`, aligned with them:
    the estimate cut back into [0, 1], its deviation, the weights (None
    where the item failed), whether minimum-variance weighting fell back
    to uniform, whether the estimate was clamped, and each item's failure
    reason (None when it aggregated)."""

    estimate: np.ndarray
    dev: np.ndarray
    weights: list
    fallback: np.ndarray
    clamped: np.ndarray
    reason: list


def aggregate_system(systems: _WorkerSystems, weighting: str) -> _Aggregates:
    """Combine each item's triple estimates into an estimate and its deviation.

    Each (N_T, T, T) array of `systems.covariances` is combined in one
    array pass, where it lies and without a copy: estimates w . p,
    quadratic forms w^T C w and clamps. Minimum-variance weights are solved one covariance at a time
    (optimal_weights). A quadratic form that propagated_deviations flags
    negative fails its item with REASON_NEGATIVE_VARIANCE, and a failed
    item keeps its reason.
    """
    if weighting not in ("uniform", "optimal"):
        raise ValueError(f"weighting must be 'uniform' or 'optimal', got {weighting!r}")
    count = len(systems.workers)
    estimate, dev = np.full(count, np.nan), np.full(count, np.nan)
    fallback, clamped = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    weights: list = [None] * count
    reason = systems.reason.tolist()
    for size, cov in systems.covariances.items():
        members, own = _rows_of(systems.used, size)
        p_hats = systems.p_hats[own]
        if weighting == "optimal":
            solutions = [optimal_weights(c) for c in cov]
            w = np.stack([solution.weights for solution in solutions])
            fallback[members] = [solution.fallback for solution in solutions]
        else:
            w = np.full(p_hats.shape, 1.0 / size)
        raw = (w[:, None, :] @ p_hats[:, :, None])[:, 0, 0]
        dev[members], negatives = propagated_deviations(w, cov)
        estimate[members] = np.minimum(np.maximum(raw, 0.0), 1.0)
        clamped[members] = (raw < 0.0) | (raw > 1.0)
        for k, row, negative in zip(members.tolist(), w, negatives.tolist()):
            weights[k] = row
            if negative:
                reason[k] = REASON_NEGATIVE_VARIANCE
    return _Aggregates(estimate, dev, weights, fallback, clamped, reason)


def _worker_reports(num_workers: int, systems: _WorkerSystems, confidence: float,
                    weighting: str) -> list[WorkerReport]:
    # A one-triple aggregate cannot fail (its weight is 1 and its variance
    # a square), so a failed m-worker report always names its weighting.
    aggregates = aggregate_system(systems, weighting)
    z = abs(normal_quantile((1.0 - confidence) / 2.0))
    reports = []
    for k, (worker, used) in enumerate(zip(systems.workers, systems.used.tolist())):
        method = (METHOD_THREE_WORKER if num_workers == 3 or used == 1 else
                  METHOD_M_WORKER_UNIFORM if weighting == "uniform" else
                  METHOD_M_WORKER_OPTIMAL)
        reason, failures = aggregates.reason[k], systems.triple_failures.get(k, Counter())
        if reason is not None:
            reports.append(WorkerReport(worker, confidence, reason, method, used, failures))
            continue
        estimate, dev = float(aggregates.estimate[k]), float(aggregates.dev[k])
        half_width = z * dev
        reports.append(WorkerReport(
            worker, confidence, None, method, used, failures,
            estimate=estimate, lower=estimate - half_width, upper=estimate + half_width,
            weights=tuple(aggregates.weights[k].tolist()), dev=dev,
            clamped=bool(aggregates.clamped[k]), weight_fallback=bool(aggregates.fallback[k])))
    return reports


def evaluate_worker(ds: ResponseDataset, worker: str, confidence: float,
                    weighting: str = "optimal", min_overlap: int = 1) -> WorkerReport:
    """Full error-rate report for one worker.

    Builds disjoint triples, drops failed ones, and combines the survivors
    with the requested weighting. An isolated worker or all-failed triples
    produce a failed report; fewer than 3 workers in the dataset raise
    InsufficientConnectivityError, and a min_overlap below 1 ValueError.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    report, = _worker_reports(ds.num_workers, build_worker_system(ds, (worker,), min_overlap),
                              confidence, weighting)
    return report


def evaluate_all(ds: ResponseDataset, confidence: float,
                 weighting: str = "optimal", min_overlap: int = 1
                 ) -> list[WorkerReport]:
    """Evaluate every worker; per-worker failures become failed reports.

    Fewer than 3 workers in the dataset raise InsufficientConnectivityError.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return _worker_reports(ds.num_workers, build_worker_system(ds, ds.workers, min_overlap),
                           confidence, weighting)
