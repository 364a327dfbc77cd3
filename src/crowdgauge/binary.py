"""Binary error-rate estimation from pairwise agreement.

For independent workers i, j with error rates p_i, p_j on uniformly random
binary truths, the agreement probability is
q_ij = p_i p_j + (1 - p_i)(1 - p_j). Three pairwise agreement rates among a
triple of workers therefore pin down each error rate in closed form, and the
sampling noise of the agreement rates propagates to the estimate through a
first-order linearization. Workers with more than two peers get several
disjoint triples whose estimates are combined with uniform or
minimum-variance weights.

Pairwise statistics are read by worker index from the arrays the dataset
caches (`pair_overlap`, `pair_agreement`, `attempts`), so memory is O(m^2)
in the number of workers m. Triples stay index and value arrays from
pairing to weights: `greedy_pairs` returns partner positions,
`build_worker_system` evaluates every triple (i, j1, j2) of the requested
workers in one array pass (error rates, derivatives, agreement
covariances, deviations and a failure reason per row), and each worker's
system keeps its slice of those arrays and their covariance, one matrix
product over the attempt rows of its 2T partners. The formulas take
scalars or arrays alike. A `WorkerReport` carries each worker's interval as
plain floats, with a reason code in place of the numbers on failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import ResponseDataset
from .errors import (
    EstimationFailure,
    InsufficientConnectivityError,
    LabelDomainError,
    REASON_INSUFFICIENT_CONNECTIVITY,
    REASON_INSUFFICIENT_OVERLAP,
    REASON_LOW_AGREEMENT,
    REASON_NEGATIVE_VARIANCE,
    REASON_NO_USABLE_TRIPLES,
)
from .numerics import (
    VARIANCE_CLAMP_TOL,
    normal_quantile,
    optimal_weights,
    propagated_deviation,
)

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


class _Triples(NamedTuple):
    """Triples (i, j1, j2) evaluated in one pass, as parallel arrays over T rows.

    `index` holds the (T, 3) worker positions and `reason` each row's
    failure reason, None on a usable row. `p_hat`, `dev` and the (T, 3)
    `derivs` (with respect to q_i_j1, q_i_j2, q_j1_j2) are NaN on failed
    rows; a `p_hat` of 0 is an estimate cut off at 0.
    """

    index: np.ndarray
    reason: np.ndarray
    p_hat: np.ndarray
    dev: np.ndarray
    derivs: np.ndarray


def _estimate_triples(ds: ResponseDataset, index: np.ndarray, c3: np.ndarray) -> _Triples:
    """Estimate worker i's error rate from each row (i, j1, j2) of `index`.

    `c3` holds the rows' triple overlaps. Every formula runs once over all
    T rows. A row with an agreement rate at or below 1/2, or whose
    propagated variance is negative beyond VARIANCE_CLAMP_TOL (the rule of
    propagated_deviation), fails with that reason; a pair sharing no task
    raises EstimationFailure(REASON_INSUFFICIENT_OVERLAP).
    """
    i, j1, j2 = index.T
    pairs = ((i, j1), (i, j2), (j1, j2))
    c2 = [ds.pair_overlap[x, y] for x, y in pairs]
    q = [ds.pair_agreement[x, y] for x, y in pairs]
    low = np.minimum(np.minimum(q[0], q[1]), q[2]) <= 0.5
    # Low rows are evaluated at perfect agreement, a point inside the
    # domain, and masked out below.
    q_ij1, q_ij2, q_j1j2 = (np.where(low, 1.0, x) for x in q)
    p_hats = (error_rate_from_agreements(q_ij1, q_ij2, q_j1j2),
              error_rate_from_agreements(q_ij1, q_j1j2, q_ij2),
              error_rate_from_agreements(q_ij2, q_j1j2, q_ij1))
    cov = agreement_covariances((q_ij1, q_ij2, q_j1j2), c2, c3, p_hats)
    g = np.stack(f_derivatives(q_ij1, q_ij2, q_j1j2), axis=1)
    var = (g[:, None, :] @ cov @ g[:, :, None])[:, 0, 0]
    reason = np.where(low, REASON_LOW_AGREEMENT,
                      np.where(var < -VARIANCE_CLAMP_TOL, REASON_NEGATIVE_VARIANCE, None))
    usable = np.equal(reason, None)
    return _Triples(index, reason, np.where(usable, p_hats[0], np.nan),
                    np.where(usable, np.sqrt(np.maximum(var, 0.0)), np.nan),
                    np.where(usable[:, None], g, np.nan))


def greedy_pairs(ds: ResponseDataset, worker: str, min_overlap: int = 1) -> np.ndarray:
    """Pair the other workers into disjoint triples around `worker`.

    Returns the partner pairs (j1, j2) as a (P, 2) array of worker
    positions. Others are sorted by overlap with `worker` (descending, ties
    by worker id, so the pairs do not depend on the order of the input
    rows); the head of the list is paired with the first later worker that
    shares at least `min_overlap` tasks with both. Unpairable heads are
    skipped, a leftover single is dropped. Raises
    InsufficientConnectivityError when no pair can be formed, and
    ValueError for a min_overlap below 1: every pair of a triple must share
    a task.
    """
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be at least 1, got {min_overlap}")
    if ds.num_workers < 3:
        raise InsufficientConnectivityError(
            f"estimation needs at least 3 workers, got {ds.num_workers}")
    i = ds.worker_index(worker)
    overlap = ds.pair_overlap
    order = sorted((j for j in range(ds.num_workers) if j != i),
                   key=lambda j: (-overlap[i, j], ds.workers[j]))
    pairs: list[tuple[int, int]] = []
    while len(order) >= 2:
        head = order[0]
        if overlap[i, head] < min_overlap:
            break  # sorted descending: nobody left can anchor a pair
        partner_pos = None
        for pos in range(1, len(order)):
            j = order[pos]
            if overlap[i, j] >= min_overlap and overlap[head, j] >= min_overlap:
                partner_pos = pos
                break
        if partner_pos is None:
            order.pop(0)
            continue
        partner = order.pop(partner_pos)
        order.pop(0)
        pairs.append((head, partner))
    if not pairs:
        raise InsufficientConnectivityError(
            f"no disjoint triples can be formed around worker {worker!r}")
    return np.array(pairs, dtype=np.intp)


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


@dataclass(frozen=True)
class _WorkerSystem:
    """One worker's slice of the evaluated triples: `partners` (T, 2) holds
    the (j1, j2) positions of its usable triples, `p_hats` their estimates
    and `covariance` their (T, T) covariance; `triple_failures` counts the
    failed triples by reason. Without usable triples T = 0, the covariance
    is None and `failure_reason` says why."""

    worker: str
    partners: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.intp))
    p_hats: np.ndarray = field(default_factory=lambda: np.empty(0))
    covariance: np.ndarray | None = None
    triple_failures: dict[str, int] = field(default_factory=dict)
    failure_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None


@dataclass(frozen=True)
class _WorkerSystems:
    """The systems of the requested workers, in request order; `triples`
    is the (N, 3) index array of all their usable triples and
    `triples_failed` the number of failed ones."""

    systems: tuple[_WorkerSystem, ...]
    triples: np.ndarray
    triples_failed: int


def build_worker_system(ds: ResponseDataset, workers: Sequence[str],
                        min_overlap: int = 1) -> _WorkerSystems:
    """Evaluate every disjoint triple around each worker and their covariance.

    `workers` is a sequence of worker ids; the triples of all of them are
    estimated in one array pass. Failed triples are dropped (and counted by
    reason); pairing or universal triple failure is reported through a
    system's `failure_reason` instead of an exception so whole-dataset
    sweeps keep going. A min_overlap below 1 raises ValueError, and data of
    arity other than 2 raises LabelDomainError.
    """
    if isinstance(workers, str):
        raise TypeError(f"workers must be a sequence of worker ids, got the id {workers!r}")
    if ds.arity != 2:
        raise LabelDomainError(f"binary estimation needs arity 2, got {ds.arity}; "
                               "collapse labels first with reduce_arity")
    if ds.num_workers < 3:
        raise InsufficientConnectivityError(
            f"estimation needs at least 3 workers, got {ds.num_workers}")
    blocks: list[np.ndarray | None] = []
    for worker in workers:
        try:
            pairs = greedy_pairs(ds, worker, min_overlap)
        except InsufficientConnectivityError:
            blocks.append(None)
            continue
        blocks.append(np.column_stack((np.full(len(pairs), ds.worker_index(worker)), pairs)))
    paired = [block for block in blocks if block is not None]
    index = np.concatenate([np.empty((0, 3), dtype=np.intp)] + paired)
    # One triple-overlap call per worker keeps the temporary at
    # (that worker's triples x tasks).
    c3 = np.concatenate([np.empty(0, dtype=np.intp)] + [
        ds.triple_overlap_by_index(block[0, 0], block[:, 1], block[:, 2]) for block in paired])
    rows = _estimate_triples(ds, index, c3)
    usable = np.equal(rows.reason, None)
    systems = []
    stop = 0
    for worker, block in zip(workers, blocks):
        if block is None:
            systems.append(_WorkerSystem(worker,
                                         failure_reason=REASON_INSUFFICIENT_CONNECTIVITY))
            continue
        start, stop = stop, stop + len(block)
        failures = Counter(r for r in rows.reason[start:stop] if r is not None)
        keep = start + np.flatnonzero(usable[start:stop])
        if not keep.size:
            systems.append(_WorkerSystem(worker, triple_failures=failures,
                                         failure_reason=REASON_NO_USABLE_TRIPLES))
            continue
        i = block[0, 0]
        partners = rows.index[keep, 1:]
        p_hats = rows.p_hat[keep]
        # C3 = B B^T in float64, exact for counts, where B = A_P o A_i is
        # the partners' attempt rows masked by worker i's. A_i is 0/1, so
        # this is (A_P o A_i) A_P^T from a single float array.
        flat = partners.ravel()
        shared = (ds.attempts[flat] & ds.attempts[i]).astype(float)
        cov = cross_triple_covariances(
            rows.derivs[keep, :2], rows.dev[keep], float(np.mean(p_hats)),
            ds.pair_overlap[i, flat], ds.pair_agreement[flat][:, flat], shared @ shared.T)
        systems.append(_WorkerSystem(worker, partners, p_hats, cov, failures))
    return _WorkerSystems(tuple(systems), index[usable], int((~usable).sum()))


def aggregate_system(system: _WorkerSystem, weighting: str
               ) -> tuple[float, float, np.ndarray, bool, bool]:
    """Combine a worker system into (estimate, dev, weights, fallback, clamped)."""
    count = len(system.p_hats)
    if weighting == "optimal":
        solution = optimal_weights(system.covariance)
        weights, fallback = solution.weights, solution.fallback
    elif weighting == "uniform":
        weights, fallback = np.full(count, 1.0 / count), False
    else:
        raise ValueError(f"weighting must be 'uniform' or 'optimal', got {weighting!r}")
    estimate = float(weights @ system.p_hats)
    dev = propagated_deviation(weights, system.covariance)
    clamped = estimate < 0.0 or estimate > 1.0
    return min(max(estimate, 0.0), 1.0), dev, weights, fallback, clamped


def _worker_report(ds: ResponseDataset, system: _WorkerSystem, confidence: float,
                   weighting: str) -> WorkerReport:
    # A one-triple aggregate cannot fail (its weight is 1 and its variance
    # a square), so a failed m-worker report always names its weighting.
    used = len(system.p_hats)
    method = (METHOD_THREE_WORKER if ds.num_workers == 3 or used == 1 else
              METHOD_M_WORKER_UNIFORM if weighting == "uniform" else METHOD_M_WORKER_OPTIMAL)
    reason = system.failure_reason
    if reason is None:
        try:
            estimate, dev, weights, fallback, clamped = aggregate_system(system, weighting)
        except EstimationFailure as exc:
            reason = exc.reason
    if reason is not None:
        return WorkerReport(system.worker, confidence, reason, method, used,
                            system.triple_failures)
    half_width = abs(normal_quantile((1.0 - confidence) / 2.0)) * dev
    return WorkerReport(system.worker, confidence, None, method, used, system.triple_failures,
                        estimate=estimate, lower=estimate - half_width,
                        upper=estimate + half_width, weights=tuple(float(w) for w in weights),
                        dev=dev, clamped=clamped, weight_fallback=fallback)


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
    system, = build_worker_system(ds, (worker,), min_overlap).systems
    return _worker_report(ds, system, confidence, weighting)


def evaluate_all(ds: ResponseDataset, confidence: float,
                 weighting: str = "optimal", min_overlap: int = 1
                 ) -> list[WorkerReport]:
    """Evaluate every worker; per-worker failures become failed reports.

    Fewer than 3 workers in the dataset raise InsufficientConnectivityError.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return [_worker_report(ds, system, confidence, weighting)
            for system in build_worker_system(ds, ds.workers, min_overlap).systems]
