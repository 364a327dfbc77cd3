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
in the number of workers m. The covariance of one worker's T triples is
built from one matrix product over the attempt rows of its 2T partners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ResponseDataset
from .errors import (
    EstimationFailure,
    InsufficientConnectivityError,
    InsufficientOverlapError,
    REASON_INSUFFICIENT_CONNECTIVITY,
    REASON_LOW_AGREEMENT,
    REASON_NO_USABLE_TRIPLES,
)
from .numerics import (
    ConfidenceInterval,
    normal_quantile,
    optimal_weights,
    propagated_deviation,
)

METHOD_THREE_WORKER = "three_worker"
METHOD_M_WORKER_UNIFORM = "m_worker_uniform"
METHOD_M_WORKER_OPTIMAL = "m_worker_optimal"


@dataclass(frozen=True)
class TripleEstimate:
    """One worker's error-rate estimate from a single triple (i, j1, j2).

    On failure the numeric fields are None and `reason` explains why. `q`
    holds the observed agreement rates (q_i_j1, q_i_j2, q_j1_j2) and the
    d_* fields the partial derivatives of the estimate with respect to them.
    `clamped` marks estimates cut off at 0 where the noisy agreement rates
    imply a negative rate.
    """

    triple: tuple[str, str, str]
    failed: bool = False
    reason: str | None = None
    p_hat: float | None = None
    dev: float | None = None
    d_i_j1: float | None = None
    d_i_j2: float | None = None
    d_j1_j2: float | None = None
    q: tuple[float, float, float] | None = None
    clamped: bool = False


@dataclass(frozen=True)
class WorkerReport:
    """Aggregated error-rate interval for one worker.

    `method` is one of three_worker, m_worker_uniform, m_worker_optimal.
    `weights` aligns with the non-failed triples that entered the
    aggregation; `dev` is the standard deviation behind the interval's
    half-width. `weight_fallback` is set when minimum-variance weighting had
    to fall back to uniform weights.
    """

    worker: str
    interval: ConfidenceInterval
    method: str
    triples_used: int
    triples_failed: int
    weights: tuple[float, ...] | None = None
    dev: float | None = None
    clamped: bool = False
    weight_fallback: bool = False

    @property
    def failed(self) -> bool:
        return self.interval.failed


def error_rate_from_agreements(q_i_j1: float, q_i_j2: float, q_j1_j2: float) -> float:
    """Invert three pairwise agreement rates to worker i's error rate.

    p_i = 1/2 - 1/2 * sqrt((2 q_i_j1 - 1)(2 q_i_j2 - 1) / (2 q_j1_j2 - 1)).

    Any agreement rate at or below 1/2 raises EstimationFailure (the model
    places all agreement rates strictly above 1/2). A radicand above 1,
    which noise can produce, clamps the estimate to 0.
    """
    a = 2.0 * q_i_j1 - 1.0
    b = 2.0 * q_i_j2 - 1.0
    c = 2.0 * q_j1_j2 - 1.0
    if min(a, b, c) <= 0.0:
        raise EstimationFailure(
            REASON_LOW_AGREEMENT,
            f"agreement rates ({q_i_j1:g}, {q_i_j2:g}, {q_j1_j2:g})")
    return max(0.0, 0.5 - 0.5 * math.sqrt(a * b / c))


def f_derivatives(q_i_j1: float, q_i_j2: float, q_j1_j2: float
                  ) -> tuple[float, float, float]:
    """Closed-form partial derivatives of error_rate_from_agreements.

    Returns (d/dq_i_j1, d/dq_i_j2, d/dq_j1_j2) at the given point; the first
    two are negative and the third positive everywhere in the domain.
    """
    a = q_i_j1 - 0.5
    b = q_i_j2 - 0.5
    c = q_j1_j2 - 0.5
    if min(a, b, c) <= 0.0:
        raise EstimationFailure(
            REASON_LOW_AGREEMENT,
            f"agreement rates ({q_i_j1:g}, {q_i_j2:g}, {q_j1_j2:g})")
    return (-math.sqrt(b / (8.0 * a * c)),
            -math.sqrt(a / (8.0 * b * c)),
            math.sqrt(a * b / (8.0 * c ** 3)))


def agreement_covariances(q: Sequence[float], c2: Sequence[int], c3: int,
                          p_hats: Sequence[float]) -> np.ndarray:
    """3x3 covariance of the agreement rates (Q_i_j1, Q_i_j2, Q_j1_j2).

    For a triple (i, j1, j2), `q` holds the agreement rates and `c2` the
    shared-task counts of the pairs (i, j1), (i, j2), (j1, j2), `c3` counts
    the tasks all three attempted, and `p_hats` are the error-rate plug-ins
    for (i, j1, j2). Var(Q_ab) = q_ab (1 - q_ab) / c_ab; two agreement rates
    sharing worker s covary through s's errors on the jointly attempted
    tasks:

        Cov(Q_sa, Q_sb) = c_sab * p_s (1 - p_s) (2 q_ab - 1) / (c_sa c_sb).

    With zero triple overlap the off-diagonal terms vanish.
    """
    q_ij1, q_ij2, q_j1j2 = (float(x) for x in q)
    c_ij1, c_ij2, c_j1j2 = c2
    p_i, p_j1, p_j2 = (float(p) for p in p_hats)
    if min(c_ij1, c_ij2, c_j1j2) < 1:
        raise InsufficientOverlapError("a pair of the triple shares no tasks")
    cov = np.zeros((3, 3))
    cov[0, 0] = q_ij1 * (1.0 - q_ij1) / c_ij1
    cov[1, 1] = q_ij2 * (1.0 - q_ij2) / c_ij2
    cov[2, 2] = q_j1j2 * (1.0 - q_j1j2) / c_j1j2
    if c3 > 0:
        cov[0, 1] = cov[1, 0] = c3 * p_i * (1.0 - p_i) * (2.0 * q_j1j2 - 1.0) / (c_ij1 * c_ij2)
        cov[0, 2] = cov[2, 0] = c3 * p_j1 * (1.0 - p_j1) * (2.0 * q_ij2 - 1.0) / (c_ij1 * c_j1j2)
        cov[1, 2] = cov[2, 1] = c3 * p_j2 * (1.0 - p_j2) * (2.0 * q_ij1 - 1.0) / (c_ij2 * c_j1j2)
    return cov


def _evaluate_triple_core(ds: ResponseDataset, triple: Sequence[str]) -> TripleEstimate:
    i, j1, j2 = triple
    if len({i, j1, j2}) != 3:
        raise ValueError(f"triple {tuple(triple)} repeats a worker")
    a, b, c = (ds.worker_index(w) for w in triple)
    pairs = ((a, b), (a, c), (b, c))
    c2 = tuple(int(ds.pair_overlap[x, y]) for x, y in pairs)
    if min(c2) < 1:
        raise InsufficientOverlapError(f"triple {tuple(triple)} has an empty pair")
    qs = tuple(float(ds.pair_agreement[x, y]) for x, y in pairs)
    q_ij1, q_ij2, q_j1j2 = qs
    key = (str(i), str(j1), str(j2))
    if min(qs) <= 0.5:
        return TripleEstimate(key, failed=True, reason=REASON_LOW_AGREEMENT)
    p_i = error_rate_from_agreements(q_ij1, q_ij2, q_j1j2)
    p_j1 = error_rate_from_agreements(q_ij1, q_j1j2, q_ij2)
    p_j2 = error_rate_from_agreements(q_ij2, q_j1j2, q_ij1)
    radicand = (2 * q_ij1 - 1) * (2 * q_ij2 - 1) / (2 * q_j1j2 - 1)
    derivs = f_derivatives(q_ij1, q_ij2, q_j1j2)
    cov = agreement_covariances(qs, c2, ds.triple_overlap_by_index(a, b, c),
                                (p_i, p_j1, p_j2))
    try:
        dev = propagated_deviation(derivs, cov)
    except EstimationFailure as exc:
        return TripleEstimate(key, failed=True, reason=exc.reason)
    return TripleEstimate(
        key, p_hat=p_i, dev=dev,
        d_i_j1=derivs[0], d_i_j2=derivs[1], d_j1_j2=derivs[2],
        q=qs, clamped=radicand > 1.0)


def evaluate_triple(ds: ResponseDataset, triple: Sequence[str], confidence: float
                    ) -> tuple[TripleEstimate, ConfidenceInterval]:
    """Estimate worker triple[0]'s error rate from one triple, with interval.

    Low agreement or a negative propagated variance yields a failed estimate
    and interval rather than an exception; an empty pair (no shared tasks)
    raises InsufficientOverlapError.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    est = _evaluate_triple_core(ds, triple)
    if est.failed:
        return est, ConfidenceInterval.failure(confidence, est.reason)
    z = abs(normal_quantile((1.0 - confidence) / 2.0))
    return est, ConfidenceInterval(confidence=confidence, estimate=est.p_hat,
                                   half_width=z * est.dev)


def greedy_pairs(ds: ResponseDataset, worker: str, min_overlap: int = 1
                 ) -> list[tuple[str, str]]:
    """Pair the other workers into disjoint triples around `worker`.

    Others are sorted by overlap with `worker` (descending, first-appearance
    ties); the head of the list is paired with the first later worker that
    shares at least `min_overlap` tasks with both. Unpairable heads are
    skipped, a leftover single is dropped. Raises
    InsufficientConnectivityError when no pair can be formed.
    """
    if ds.num_workers < 3:
        raise InsufficientConnectivityError(
            f"estimation needs at least 3 workers, got {ds.num_workers}")
    i = ds.worker_index(worker)
    overlap = ds.pair_overlap
    order = sorted((j for j in range(ds.num_workers) if j != i),
                   key=lambda j: (-overlap[i, j], j))
    pairs: list[tuple[str, str]] = []
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
        pairs.append((ds.workers[head], ds.workers[partner]))
    if not pairs:
        raise InsufficientConnectivityError(
            f"no disjoint triples can be formed around worker {worker!r}")
    return pairs


def cross_triple_covariances(triples: Sequence[TripleEstimate], p_i_hat: float,
                             c2: np.ndarray, q: np.ndarray, c3: np.ndarray
                             ) -> np.ndarray:
    """Covariance matrix of one worker's triple estimates.

    All T triples must share the evaluated worker i and be non-failed. The
    arrays are indexed by the 2T partners x in triple order (j1, j2 of the
    first triple, then of the second, ...): `c2[x]` = c_ix, `q[x, y]` =
    q_xy and `c3[x, y]` = c_ixy. Diagonal entries are the squared
    per-triple deviations. Two triples (i, a1, b1), (i, a2, b2) covary
    through worker i's errors on tasks it shares with one member of each
    pair:

        sum over x in {a1, b1}, y in {a2, b2} of
            d_x d_y * c_ixy * p_i (1 - p_i) (2 q_xy - 1) / (c_ix c_iy)

    where d_x is the derivative of triple 1's estimate with respect to
    q_i_x, and similarly d_y for triple 2. Terms with c_ixy = 0 vanish
    whatever q_xy holds.
    """
    if not triples:
        raise ValueError("at least one triple estimate is required")
    i = triples[0].triple[0]
    for t in triples:
        if t.failed:
            raise ValueError("cross-triple covariances need non-failed estimates")
        if t.triple[0] != i:
            raise ValueError("triple estimates must share the evaluated worker")
    count = len(triples)
    pp = float(p_i_hat) * (1.0 - float(p_i_hat))
    scaled = np.array([(t.d_i_j1, t.d_i_j2) for t in triples]).ravel() / c2
    terms = pp * np.outer(scaled, scaled) * np.where(c3 > 0, c3 * (2.0 * q - 1.0), 0.0)
    blocks = terms.reshape(count, 2, count, 2).sum(axis=(1, 3))
    # The two sums of a mirrored block pair differ in the last bit; their
    # mean makes the matrix exactly symmetric.
    cov = 0.5 * (blocks + blocks.T)
    np.fill_diagonal(cov, [t.dev ** 2 for t in triples])
    return cov


def _partner_statistics(ds: ResponseDataset, worker: str,
                        triples: Sequence[TripleEstimate]
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c_iP, Q_PP, C3) for the partners P of worker i's triples.

    C3 = (A_P o A_i) A_P^T in float64, exact for counts, from the
    attempt rows A of the partners and of worker i.
    """
    i = ds.worker_index(worker)
    partners = np.array([ds.worker_index(w) for t in triples for w in t.triple[1:]])
    rows = ds.attempts[partners].astype(float)
    return (ds.pair_overlap[i, partners], ds.pair_agreement[partners][:, partners],
            (rows * ds.attempts[i]) @ rows.T)


@dataclass(frozen=True)
class _WorkerSystem:
    """Non-failed triple estimates for one worker plus their covariance."""

    worker: str
    triples: tuple[TripleEstimate, ...]
    covariance: np.ndarray | None
    triples_failed: int
    failure_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None


def build_worker_system(ds: ResponseDataset, worker: str,
                        min_overlap: int = 1) -> _WorkerSystem:
    """Evaluate every disjoint triple around a worker and their covariance.

    Failed triples are dropped (and counted); pairing or universal triple
    failure is reported through `failure_reason` instead of an exception so
    whole-dataset sweeps keep going.
    """
    if ds.num_workers < 3:
        raise InsufficientConnectivityError(
            f"estimation needs at least 3 workers, got {ds.num_workers}")
    try:
        pairs = greedy_pairs(ds, worker, min_overlap)
    except InsufficientConnectivityError:
        return _WorkerSystem(worker, (), None, 0,
                             failure_reason=REASON_INSUFFICIENT_CONNECTIVITY)
    estimates = []
    failures = 0
    for a, b in pairs:
        est = _evaluate_triple_core(ds, (worker, a, b))
        if est.failed:
            failures += 1
        else:
            estimates.append(est)
    if not estimates:
        return _WorkerSystem(worker, (), None, failures,
                             failure_reason=REASON_NO_USABLE_TRIPLES)
    p_bar = float(np.mean([t.p_hat for t in estimates]))
    cov = cross_triple_covariances(estimates, p_bar,
                                   *_partner_statistics(ds, worker, estimates))
    return _WorkerSystem(worker, tuple(estimates), cov, failures)


def aggregate_system(system: _WorkerSystem, weighting: str
               ) -> tuple[float, float, np.ndarray, bool, bool]:
    """Combine a worker system into (estimate, dev, weights, fallback, clamped)."""
    count = len(system.triples)
    if weighting == "optimal":
        solution = optimal_weights(system.covariance)
        weights, fallback = solution.weights, solution.fallback
    elif weighting == "uniform":
        weights, fallback = np.full(count, 1.0 / count), False
    else:
        raise ValueError(f"weighting must be 'uniform' or 'optimal', got {weighting!r}")
    p_hats = np.array([t.p_hat for t in system.triples])
    estimate = float(weights @ p_hats)
    dev = propagated_deviation(weights, system.covariance)
    clamped = estimate < 0.0 or estimate > 1.0
    return min(max(estimate, 0.0), 1.0), dev, weights, fallback, clamped


def evaluate_worker(ds: ResponseDataset, worker: str, confidence: float,
                    weighting: str = "optimal", min_overlap: int = 1) -> WorkerReport:
    """Full error-rate report for one worker.

    Builds disjoint triples, drops failed ones, and combines the survivors
    with the requested weighting. An isolated worker or all-failed triples
    produce a failed report; fewer than 3 workers in the dataset raise
    InsufficientConnectivityError.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    system = build_worker_system(ds, worker, min_overlap)
    if system.failed:
        return WorkerReport(
            worker=worker,
            interval=ConfidenceInterval.failure(confidence, system.failure_reason),
            method=METHOD_THREE_WORKER if ds.num_workers == 3 else
            (METHOD_M_WORKER_UNIFORM if weighting == "uniform" else METHOD_M_WORKER_OPTIMAL),
            triples_used=0, triples_failed=system.triples_failed)
    try:
        estimate, dev, weights, fallback, clamped = aggregate_system(system, weighting)
    except EstimationFailure as exc:
        return WorkerReport(
            worker=worker,
            interval=ConfidenceInterval.failure(confidence, exc.reason),
            method=METHOD_M_WORKER_UNIFORM if weighting == "uniform" else METHOD_M_WORKER_OPTIMAL,
            triples_used=len(system.triples), triples_failed=system.triples_failed)
    if len(system.triples) == 1:
        method = METHOD_THREE_WORKER
    else:
        method = METHOD_M_WORKER_UNIFORM if weighting == "uniform" else METHOD_M_WORKER_OPTIMAL
    z = abs(normal_quantile((1.0 - confidence) / 2.0))
    interval = ConfidenceInterval(confidence=confidence, estimate=estimate,
                                  half_width=z * dev)
    return WorkerReport(
        worker=worker, interval=interval, method=method,
        triples_used=len(system.triples), triples_failed=system.triples_failed,
        weights=tuple(float(w) for w in weights), dev=dev,
        clamped=clamped, weight_fallback=fallback)


def evaluate_all(ds: ResponseDataset, confidence: float,
                 weighting: str = "optimal", min_overlap: int = 1
                 ) -> list[WorkerReport]:
    """Evaluate every worker; per-worker failures become failed reports."""
    if ds.num_workers < 3:
        raise InsufficientConnectivityError(
            f"estimation needs at least 3 workers, got {ds.num_workers}")
    return [evaluate_worker(ds, w, confidence, weighting, min_overlap)
            for w in ds.workers]
