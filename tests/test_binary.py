import gc
import math
import time
import weakref
from collections import Counter
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest

from crowdgauge.binary import (
    METHOD_M_WORKER_OPTIMAL,
    METHOD_M_WORKER_UNIFORM,
    METHOD_THREE_WORKER,
    WorldStack,
    _WorkerSystem,
    _estimate_triples,
    _items,
    agreement_covariances,
    aggregate_system,
    build_worker_system,
    cross_triple_covariances,
    error_rate_from_agreements,
    evaluate_all,
    evaluate_worker,
    f_derivatives,
    greedy_pairs,
)
from crowdgauge.dataset import ResponseDataset
from crowdgauge.errors import (
    EstimationFailure,
    InsufficientConnectivityError,
    LabelDomainError,
    REASON_INSUFFICIENT_CONNECTIVITY,
    REASON_INSUFFICIENT_OVERLAP,
    REASON_LOW_AGREEMENT,
    REASON_NEGATIVE_VARIANCE,
    REASON_NO_USABLE_TRIPLES,
)
from crowdgauge.numerics import VARIANCE_CLAMP_TOL, normal_quantile, propagated_deviations
from crowdgauge.simulate import gen_binary_responses, gen_binary_workers, ramp_densities, substream


def true_agreement(p_a, p_b):
    return (1 - p_a) * (1 - p_b) + p_a * p_b


def simulate_binary(rates, n, rng, masks=None):
    """Raw binary world: truth-independent error indicators per worker."""
    m = len(rates)
    truth = rng.integers(1, 3, size=n)
    rows = []
    for w in range(m):
        flips = rng.random(n) < rates[w]
        rows.append(np.where(flips, 3 - truth, truth))
    matrix = np.stack(rows)
    if masks is not None:
        matrix = np.where(np.stack(masks), matrix, 0)
    return ResponseDataset.from_matrix(matrix)


# -- inversion ---------------------------------------------------------------


def test_inversion_perfect_agreement():
    assert error_rate_from_agreements(1.0, 1.0, 1.0) == 0.0


def test_inversion_symmetric_point():
    assert error_rate_from_agreements(0.82, 0.82, 0.82) == pytest.approx(
        0.1, abs=1e-12)


def test_inversion_asymmetric_point():
    # 0.5 - 0.5*sqrt(0.64*0.64/0.8)
    assert error_rate_from_agreements(0.82, 0.82, 0.90) == pytest.approx(
        0.1422291236000335, abs=1e-10)


def test_inversion_round_trips_forward_model():
    # invert exact agreement rates for all three workers of each triple
    grid = (0.02, 0.05, 0.1, 0.18, 0.25, 0.33, 0.41, 0.49)
    for p1 in grid:
        for p2 in grid:
            for p3 in grid:
                q12 = true_agreement(p1, p2)
                q13 = true_agreement(p1, p3)
                q23 = true_agreement(p2, p3)
                assert error_rate_from_agreements(q12, q13, q23) == \
                    pytest.approx(p1, abs=1e-12)
                assert error_rate_from_agreements(q12, q23, q13) == \
                    pytest.approx(p2, abs=1e-12)
                assert error_rate_from_agreements(q13, q23, q12) == \
                    pytest.approx(p3, abs=1e-12)


def test_inversion_monotonicity():
    base = error_rate_from_agreements(0.8, 0.75, 0.7)
    assert error_rate_from_agreements(0.81, 0.75, 0.7) < base
    assert error_rate_from_agreements(0.8, 0.76, 0.7) < base
    assert error_rate_from_agreements(0.8, 0.75, 0.71) > base


def test_inversion_clamps_radicand_above_one():
    assert error_rate_from_agreements(0.95, 0.95, 0.55) == 0.0


def test_inversion_rejects_low_agreement():
    for bad in ((0.5, 0.8, 0.8), (0.8, 0.3, 0.8), (0.8, 0.8, 0.5)):
        with pytest.raises(EstimationFailure) as info:
            error_rate_from_agreements(*bad)
        assert info.value.reason == REASON_LOW_AGREEMENT


# -- derivatives -------------------------------------------------------------


def test_derivatives_symmetric_point():
    d1, d2, d3 = f_derivatives(0.82, 0.82, 0.82)
    assert d1 == pytest.approx(-0.625, abs=1e-12)
    assert d2 == pytest.approx(-0.625, abs=1e-12)
    assert d3 == pytest.approx(0.625, abs=1e-12)


def test_derivatives_sign_pattern_and_swap_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a, b, c = rng.uniform(0.55, 0.99, size=3)
        d1, d2, d3 = f_derivatives(a, b, c)
        assert d1 < 0 and d2 < 0 and d3 > 0
        s1, s2, s3 = f_derivatives(b, a, c)
        assert s1 == pytest.approx(d2, abs=1e-15)
        assert s2 == pytest.approx(d1, abs=1e-15)
        assert s3 == pytest.approx(d3, abs=1e-15)


def test_derivatives_match_finite_differences():
    # stay clear of radicand >= 1, where the estimate clamps to 0 and the
    # unclamped closed forms no longer describe the (flat) function
    rng = np.random.default_rng(17)
    h = 1e-6
    found = 0
    while found < 20:
        point = rng.uniform(0.55, 0.99, size=3)
        radicand = ((2 * point[0] - 1) * (2 * point[1] - 1)
                    / (2 * point[2] - 1))
        if radicand > 0.9:
            continue
        found += 1
        derivs = f_derivatives(*point)
        for axis in range(3):
            hi = point.copy()
            lo = point.copy()
            hi[axis] += h
            lo[axis] -= h
            fd = (error_rate_from_agreements(*hi)
                  - error_rate_from_agreements(*lo)) / (2 * h)
            assert fd == pytest.approx(derivs[axis], rel=1e-6)


def test_derivatives_reject_low_agreement():
    with pytest.raises(EstimationFailure):
        f_derivatives(0.5, 0.8, 0.8)


# -- agreement covariances (single triple) -----------------------------------


def test_agreement_covariances_diagonal_value():
    cov = agreement_covariances((0.82, 0.82, 0.82), (50, 50, 50), 30, (0.1, 0.1, 0.1))
    assert cov[0, 0] == pytest.approx(0.002952, abs=1e-15)
    assert cov[1, 1] == pytest.approx(0.002952, abs=1e-15)
    assert cov[2, 2] == pytest.approx(0.002952, abs=1e-15)
    # shared-worker terms scale with the triple overlap and the third q
    assert cov[0, 1] == pytest.approx(30 * 0.09 * 0.64 / 2500, abs=1e-15)
    assert np.allclose(cov, cov.T)


def test_agreement_covariances_zero_triple_overlap():
    cov = agreement_covariances((0.8, 0.8, 0.8), (40, 40, 40), 0, (0.1, 0.2, 0.3))
    assert np.count_nonzero(cov - np.diag(np.diag(cov))) == 0


def test_agreement_covariances_regular_reduction():
    # full overlap: every c2 = n and c3 = n, so the shared-worker terms
    # lose the count ratio and become p(1-p)(2q-1)/n
    n = 80
    p = (0.1, 0.2, 0.3)
    cov = agreement_covariances((0.78, 0.74, 0.7), (n, n, n), n, p)
    assert cov[0, 1] == pytest.approx(0.1 * 0.9 * (2 * 0.7 - 1) / n, abs=1e-15)
    assert cov[0, 2] == pytest.approx(0.2 * 0.8 * (2 * 0.74 - 1) / n, abs=1e-15)
    assert cov[1, 2] == pytest.approx(0.3 * 0.7 * (2 * 0.78 - 1) / n, abs=1e-15)


def test_agreement_covariances_empty_pair():
    with pytest.raises(EstimationFailure) as info:
        agreement_covariances((0.8, 0.8, 0.8), (40, 0, 40), 0, (0.1, 0.1, 0.1))
    assert info.value.reason == REASON_INSUFFICIENT_OVERLAP


def test_agreement_covariances_match_simulation():
    # Monte-Carlo oracle on deterministic partial-overlap masks: the
    # formula evaluated at the true rates must match the empirical
    # covariance of the agreement rates within a few standard errors.
    n = 300
    p = np.array([0.15, 0.25, 0.05])
    masks = np.zeros((3, n), dtype=bool)
    masks[0, :240] = True
    masks[1, 60:] = True
    masks[2, :150] = True
    masks[2, 210:] = True
    pairs = ((0, 1), (0, 2), (1, 2))
    pair_masks = [masks[a] & masks[b] for a, b in pairs]
    c2 = tuple(int(m.sum()) for m in pair_masks)
    c3 = int(masks.all(axis=0).sum())
    assert c2 == (180, 180, 180) and c3 == 120
    qs = tuple(true_agreement(p[a], p[b]) for a, b in pairs)
    formula = agreement_covariances(qs, c2, c3, p)

    reps = 10_000
    rng = np.random.default_rng(2024)
    errors = [rng.random((reps, n)) < p[w] for w in range(3)]
    observed = np.empty((3, reps))
    for row, (a, b) in enumerate(pairs):
        shared = pair_masks[row]
        observed[row] = (errors[a][:, shared] == errors[b][:, shared]).mean(axis=1)
    empirical = np.cov(observed)
    for r in range(3):
        for s in range(3):
            se = math.sqrt((formula[r, r] * formula[s, s]
                            + formula[r, s] ** 2) / (reps - 1))
            assert abs(empirical[r, s] - formula[r, s]) <= 3 * se, (r, s)


# -- one triple --------------------------------------------------------------


class Triple(NamedTuple):
    """One evaluated triple (i, j1, j2) of worker ids; `reason` is None on
    a usable row, whose d_* fields are the derivatives of the estimate with
    respect to q_i_j1, q_i_j2 and q_j1_j2."""

    triple: tuple[str, str, str]
    reason: str | None
    p_hat: float
    dev: float
    d_i_j1: float
    d_i_j2: float
    d_j1_j2: float

    @property
    def failed(self):
        return self.reason is not None


def evaluate_row(ds, triple):
    """The triple's row of a one-row `_estimate_triples` pass."""
    index = np.array([[ds.worker_index(w) for w in triple]])
    rows = _estimate_triples(WorldStack.of(ds), np.zeros(1, dtype=np.intp), index,
                             ds.triple_overlap_by_index(index[:, 0], index[:, 1], index[:, 2]))
    return Triple(tuple(triple), rows.reason[0], float(rows.p_hat[0]), float(rows.dev[0]),
                  *rows.derivs[0].tolist())


def test_evaluate_triple_recovers_simulated_rate():
    rng = np.random.default_rng(404)
    ds = simulate_binary((0.1, 0.1, 0.1), 100_000, rng)
    report = evaluate_worker(ds, "w1", 0.95)
    assert not report.failed
    assert report.method == METHOD_THREE_WORKER
    assert report.estimate == pytest.approx(0.1, abs=0.01)
    assert report.lower <= 0.1 <= report.upper
    half_width = abs(normal_quantile((1.0 - 0.95) / 2.0)) * report.dev
    assert (report.lower, report.upper) == (report.estimate - half_width,
                                            report.estimate + half_width)
    row = evaluate_row(ds, ("w1", "w2", "w3"))
    assert row.d_i_j1 < 0 and row.d_i_j2 < 0 and row.d_j1_j2 > 0


def test_evaluate_triple_low_agreement_fails_without_exception():
    matrix = np.array([
        [1, 1, 1, 1],
        [2, 2, 2, 2],
        [1, 1, 2, 2],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    report = evaluate_worker(ds, "w1", 0.9)
    assert report.failed
    assert report.triple_failures == {REASON_LOW_AGREEMENT: 1}
    assert (report.estimate, report.lower, report.upper) == (None, None, None)


def test_evaluate_triple_clamps_noisy_radicand():
    # q12 = q13 = 0.9 while q23 = 0.8, so the radicand is 0.64/0.6 > 1
    matrix = np.ones((3, 10), dtype=int)
    matrix[1, 0] = 2
    matrix[2, 1] = 2
    ds = ResponseDataset.from_matrix(matrix)
    assert evaluate_row(ds, ("w1", "w2", "w3")).p_hat == 0.0
    report = evaluate_worker(ds, "w1", 0.9)
    assert not report.failed
    assert report.estimate == 0.0
    assert report.upper > 0.0


def test_evaluate_triple_empty_pair_raises():
    matrix = np.array([
        [1, 1, 0],
        [1, 1, 0],
        [0, 0, 1],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    with pytest.raises(EstimationFailure) as info:
        evaluate_row(ds, ("w1", "w2", "w3"))
    assert info.value.reason == REASON_INSUFFICIENT_OVERLAP
    # pairing never forms that triple
    assert evaluate_worker(ds, "w1", 0.9).reason == REASON_INSUFFICIENT_CONNECTIVITY


def test_evaluate_triple_rejects_bad_arguments():
    rng = np.random.default_rng(1)
    ds = simulate_binary((0.1, 0.1, 0.1), 50, rng)
    for confidence in (1.5, 0.0):
        with pytest.raises(ValueError):
            evaluate_worker(ds, "w1", confidence)
        with pytest.raises(ValueError):
            evaluate_all(ds, confidence)


# -- greedy pairing ----------------------------------------------------------


def attempts_dataset(masks):
    """All-ones responses; only the attempt pattern matters for pairing."""
    matrix = np.where(np.asarray(masks, dtype=bool), 1, 0)
    return ResponseDataset.from_matrix(matrix)


def pair_names(ds, pairs):
    """(P, 2) worker positions as pairs of worker ids."""
    return [(ds.workers[a], ds.workers[b]) for a, b in pairs.tolist()]


def pairs_around(ds, worker, min_overlap=1):
    """greedy_pairs' (P, 2) partner positions around one worker."""
    partners, count = greedy_pairs(*_items(ds, (worker,)), min_overlap)
    return partners[0, :count[0]]


def test_greedy_pairs_descending_overlap_trace():
    # overlaps with w1: w2 > w3 > w4 > w5, every cross pair overlapping
    n = 12
    masks = np.zeros((5, n), dtype=bool)
    masks[0] = True
    masks[1, :12] = True
    masks[2, :10] = True
    masks[3, :8] = True
    masks[4, :6] = True
    ds = attempts_dataset(masks)
    assert pair_names(ds, pairs_around(ds, "w1")) == [("w2", "w3"), ("w4", "w5")]


def test_greedy_pairs_skips_unpairable_head():
    # w2 overlaps w1 the most but shares no task with w3, w4, or w5
    n = 20
    masks = np.zeros((5, n), dtype=bool)
    masks[0] = True
    masks[1, :8] = True
    masks[2, 8:14] = True
    masks[3, 8:13] = True
    masks[4, 13:14] = True
    ds = attempts_dataset(masks)
    assert pair_names(ds, pairs_around(ds, "w1")) == [("w3", "w4")]


def test_greedy_pairs_leftover_single_dropped():
    masks = np.ones((4, 6), dtype=bool)
    ds = attempts_dataset(masks)
    assert pair_names(ds, pairs_around(ds, "w1")) == [("w2", "w3")]


def test_greedy_pairs_min_overlap_breaks_early():
    n = 10
    masks = np.zeros((4, n), dtype=bool)
    masks[0] = True
    masks[1, :5] = True
    masks[2, 5:8] = True
    masks[3, 8:10] = True
    ds = attempts_dataset(masks)
    partners, count = greedy_pairs(*_items(ds, ds.workers), min_overlap=4)
    assert count.tolist() == [0, 0, 0, 0]


def test_greedy_pairs_needs_three_workers():
    ds = attempts_dataset(np.ones((2, 4), dtype=bool))
    with pytest.raises(InsufficientConnectivityError):
        build_worker_system(ds, ("w1",))



def scalar_greedy_pairs(overlap, ids, i, min_overlap):
    """Reference: the pairing loop around worker position i, one head at a
    time over a list of the others sorted by (-overlap, id)."""
    order = sorted((j for j in range(len(ids)) if j != i),
                   key=lambda j: (-overlap[i, j], ids[j]))
    pairs = []
    while len(order) >= 2:
        head = order[0]
        if overlap[i, head] < min_overlap:
            break  # sorted descending: nobody left can anchor a pair
        partner_pos = next((pos for pos in range(1, len(order))
                            if overlap[i, order[pos]] >= min_overlap
                            and overlap[head, order[pos]] >= min_overlap), None)
        if partner_pos is None:
            order.pop(0)
            continue
        partner = order.pop(partner_pos)
        order.pop(0)
        pairs.append([head, partner])
    return pairs


def test_greedy_pairs_match_scalar_loop():
    # Overlaps of 0..3 give many ties and zero overlaps; ids in shuffled
    # positions, past w9, make the id tie-break differ from position order
    # and from numeric order (w10 sorts before w2).
    rng = np.random.default_rng(31)
    unpaired = full = 0
    for m in (3, 4, 5, 8, 11, 15):
        ids = tuple(f"w{k + 1}" for k in rng.permutation(m))
        overlap = np.triu(rng.integers(0, 4, size=(40, m, m)), 1)
        overlap = overlap + overlap.transpose(0, 2, 1) + 3 * np.eye(m, dtype=np.int64)
        stack = WorldStack.stack(ids, 1, overlap, np.full(overlap.shape, 0.75),
                                 np.zeros((40 * m, 1), dtype=np.uint8))
        requested = ids[::-1]
        for min_overlap in (1, 2, 3):
            partners, count = greedy_pairs(*_items(stack, requested), min_overlap)
            for item, (world, worker) in enumerate(
                    (w, k) for w in range(40) for k in range(m)[::-1]):
                want = scalar_greedy_pairs(overlap[world], ids, worker, min_overlap)
                assert partners[item, :count[item]].tolist() == want, (m, min_overlap, item)
            unpaired += int((count == 0).sum())
            full += int((count == (m - 1) // 2).sum())
    assert unpaired and full


# Scalar statistics for the reference computations below: a tuple of plain
# dicts (q, c2, c3) of agreement rates, pair overlaps and triple overlaps,
# keyed by the frozenset of worker names.


def full_overlap_stats(rates, names, n):
    """Exact agreement rates, with every pair and triple sharing n tasks."""
    by_name = dict(zip(names, rates))
    q = {frozenset((a, b)): true_agreement(by_name[a], by_name[b])
         for a, b in combinations(names, 2)}
    c3 = {frozenset(triple): n for triple in combinations(names, 3)}
    return q, dict.fromkeys(q, n), c3


def dataset_stats(ds):
    """The dataset's pair and triple statistics, read from its arrays; a
    pair that shares no task has no agreement rate."""
    names = ds.workers
    q, c2, c3 = {}, {}, {}
    for a, b in combinations(range(ds.num_workers), 2):
        key = frozenset((names[a], names[b]))
        c2[key] = int(ds.pair_overlap[a, b])
        if c2[key]:
            q[key] = float(ds.pair_agreement[a, b])
    for triple in combinations(range(ds.num_workers), 3):
        c3[frozenset(names[w] for w in triple)] = ds.triple_overlap_by_index(*triple)
    return q, c2, c3


def exact_triple_estimate(stats, triple, rates_by_name):
    q, c2, c3 = stats
    i, j1, j2 = triple
    pairs = (frozenset((i, j1)), frozenset((i, j2)), frozenset((j1, j2)))
    qs = tuple(q[pair] for pair in pairs)
    p_hats = (rates_by_name[i], rates_by_name[j1], rates_by_name[j2])
    derivs = f_derivatives(*qs)
    cov = agreement_covariances(qs, tuple(c2[pair] for pair in pairs),
                                c3[frozenset(triple)], p_hats)
    (dev,), (negative,) = propagated_deviations(np.array(derivs, dtype=float)[None],
                                                np.asarray(cov, dtype=float)[None])
    assert not negative
    return Triple(tuple(triple), None, rates_by_name[i], float(dev), *map(float, derivs))


def triple_arrays(triples):
    """(derivs (T, 2), devs (T,)) of `triples`, as cross_triple_covariances
    takes them."""
    return (np.array([(t.d_i_j1, t.d_i_j2) for t in triples]),
            np.array([t.dev for t in triples]))


def partner_arrays(stats, triples):
    """(c_iP, Q_PP, C3) over the 2T partners of `triples`, by scalar
    lookups; the diagonal, which the covariance overwrites, stays 0."""
    q, c2, c3 = stats
    i = triples[0].triple[0]
    partners = [w for t in triples for w in t.triple[1:]]
    return (np.array([c2[frozenset((i, x))] for x in partners]),
            np.array([[q[frozenset((x, y))] if x != y else 0.0 for y in partners]
                      for x in partners]),
            np.array([[c3[frozenset((i, x, y))] if x != y else 0 for y in partners]
                      for x in partners]))


def test_cross_triple_diagonal_is_squared_dev():
    names = ("w1", "w2", "w3", "w4", "w5")
    rates = (0.1, 0.15, 0.2, 0.25, 0.3)
    stats = full_overlap_stats(rates, names, 1000)
    by_name = dict(zip(names, rates))
    t1 = exact_triple_estimate(stats, ("w1", "w2", "w3"), by_name)
    t2 = exact_triple_estimate(stats, ("w1", "w4", "w5"), by_name)
    cov = cross_triple_covariances(*triple_arrays((t1, t2)), 0.1,
                                   *partner_arrays(stats, (t1, t2)))
    assert cov[0, 0] == pytest.approx(t1.dev ** 2, abs=1e-15)
    assert cov[1, 1] == pytest.approx(t2.dev ** 2, abs=1e-15)
    assert cov[0, 1] == cov[1, 0]
    assert cov[0, 1] != 0.0


def test_cross_triple_disjoint_supports_give_zero():
    names = ("w1", "w2", "w3", "w4", "w5")
    rates = (0.1, 0.15, 0.2, 0.25, 0.3)
    stats = full_overlap_stats(rates, names, 1000)
    q, c2, c3 = stats
    zeroed = (q, c2, dict.fromkeys(c3, 0))
    by_name = dict(zip(names, rates))
    t1 = exact_triple_estimate(stats, ("w1", "w2", "w3"), by_name)
    t2 = exact_triple_estimate(stats, ("w1", "w4", "w5"), by_name)
    cov = cross_triple_covariances(*triple_arrays((t1, t2)), 0.1,
                                   *partner_arrays(zeroed, (t1, t2)))
    assert cov[0, 1] == 0.0


def test_cross_triple_rejects_mismatched_shapes():
    names = ("w1", "w2", "w3", "w4", "w5")
    rates = (0.1, 0.15, 0.2, 0.25, 0.3)
    stats = full_overlap_stats(rates, names, 1000)
    by_name = dict(zip(names, rates))
    t1 = exact_triple_estimate(stats, ("w1", "w2", "w3"), by_name)
    t2 = exact_triple_estimate(stats, ("w1", "w4", "w5"), by_name)
    derivs, devs = triple_arrays((t1, t2))
    c2, q, c3 = partner_arrays(stats, (t1, t2))
    assert cross_triple_covariances(derivs, devs, 0.1, c2, q, c3).shape == (2, 2)
    bad = [(derivs[:1], devs, c2, q, c3),          # derivs not (T, 2)
           (derivs[:, :1], devs, c2, q, c3),
           (derivs, devs[:1], c2, q, c3),          # devs not (T,)
           (derivs, devs[:, None], c2, q, c3),
           (derivs, devs, c2[:3], q, c3),          # c2 not over 2T partners
           (derivs, devs, c2, q[:3, :3], c3),      # q not 2T x 2T
           (derivs, devs, c2, q, c3[:, :3]),       # c3 not 2T x 2T
           (derivs[:0], devs[:0], c2[:0], q[:0, :0], c3[:0, :0])]  # no triple
    for d, v, a, b, c in bad:
        with pytest.raises(ValueError):
            cross_triple_covariances(d, v, 0.1, a, b, c)


def test_cross_triple_covariances_match_simulation():
    # Monte-Carlo oracle: five full-overlap workers, two disjoint triples
    # around w1; the formula at the true rates must match the empirical
    # covariance matrix of the two triple estimates.
    n = 10_000
    reps = 2000
    names = ("w1", "w2", "w3", "w4", "w5")
    rates = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
    stats = full_overlap_stats(rates, names, n)
    by_name = dict(zip(names, rates))
    t1 = exact_triple_estimate(stats, ("w1", "w2", "w3"), by_name)
    t2 = exact_triple_estimate(stats, ("w1", "w4", "w5"), by_name)
    formula = cross_triple_covariances(*triple_arrays((t1, t2)), 0.1,
                                       *partner_arrays(stats, (t1, t2)))

    def invert(qa, qb, qc):
        return 0.5 - 0.5 * np.sqrt((2 * qa - 1) * (2 * qb - 1) / (2 * qc - 1))

    rng = np.random.default_rng(77)
    estimates = np.empty((2, reps))
    chunk = 250
    for start in range(0, reps, chunk):
        errors = [rng.random((chunk, n)) < rates[w] for w in range(5)]

        def q_hat(a, b):
            return (errors[a] == errors[b]).mean(axis=1)

        p1 = invert(q_hat(0, 1), q_hat(0, 2), q_hat(1, 2))
        p2 = invert(q_hat(0, 3), q_hat(0, 4), q_hat(3, 4))
        estimates[0, start:start + chunk] = p1
        estimates[1, start:start + chunk] = p2
    empirical = np.cov(estimates)
    for r in range(2):
        for s in range(2):
            se = math.sqrt((formula[r, r] * formula[s, s]
                            + formula[r, s] ** 2) / (reps - 1))
            tol = 3 * se + 0.02 * abs(formula[r, s])
            assert abs(empirical[r, s] - formula[r, s]) <= tol, (r, s)


# -- worker aggregation ------------------------------------------------------


def test_binary_estimation_refuses_non_binary_data():
    # Six workers on 3-ary tasks, each wrong 10% of the time, uniformly over
    # the two wrong labels. The binary model does not describe this data:
    # read as binary, it gives rates of 0.104-0.121, and w1's interval
    # [0.1077, 0.1342] misses 0.1. So it is refused, not estimated.
    rng = np.random.default_rng(0)
    truth = rng.integers(1, 4, size=2000)
    wrong = rng.random((6, 2000)) < 0.1
    shift = rng.integers(1, 3, size=(6, 2000))
    matrix = np.where(wrong, (truth - 1 + shift) % 3 + 1, truth)
    ds = ResponseDataset.from_matrix(matrix, arity=3)
    for call in (lambda: build_worker_system(ds, ds.workers),
                 lambda: evaluate_all(ds, 0.9),
                 lambda: evaluate_worker(ds, "w1", 0.9)):
        with pytest.raises(LabelDomainError, match="reduce_arity"):
            call()


def test_evaluate_worker_single_triple_matches_evaluate_triple():
    rng = np.random.default_rng(8)
    ds = simulate_binary((0.1, 0.2, 0.3), 2000, rng)
    row = evaluate_row(ds, ("w1", "w2", "w3"))
    report = evaluate_worker(ds, "w1", 0.9)
    assert report.method == METHOD_THREE_WORKER
    assert report.triples_used == 1
    assert report.weights == (1.0,)
    z = abs(normal_quantile((1.0 - 0.9) / 2.0))
    assert report.estimate == pytest.approx(row.p_hat, abs=1e-15)
    assert report.upper - report.estimate == pytest.approx(z * row.dev, abs=1e-15)
    assert report.estimate - report.lower == pytest.approx(z * row.dev, abs=1e-15)


def test_evaluate_worker_weights_sum_to_one():
    rng = np.random.default_rng(9)
    ds = simulate_binary((0.1, 0.12, 0.15, 0.2, 0.25, 0.28, 0.3), 500, rng)
    for weighting, method in (("optimal", METHOD_M_WORKER_OPTIMAL),
                              ("uniform", METHOD_M_WORKER_UNIFORM)):
        report = evaluate_worker(ds, "w1", 0.9, weighting=weighting)
        assert not report.failed
        assert report.method == method
        assert report.triples_used == 3
        assert sum(report.weights) == pytest.approx(1.0, abs=1e-12)


def test_optimal_weighting_never_beaten_by_uniform():
    rng = np.random.default_rng(10)
    for rep in range(20):
        ds = simulate_binary((0.1, 0.15, 0.2, 0.25, 0.3, 0.12, 0.22), 300, rng)
        system, = build_worker_system(ds, ("w1",)).systems
        if system.failed:
            continue
        optimal = aggregate_system((system,), "optimal")
        uniform = aggregate_system((system,), "uniform")
        if not optimal.fallback[0]:
            assert optimal.dev[0] <= uniform.dev[0] + 1e-12


def test_aggregate_deviation_is_propagated_deviation_of_its_weights():
    # one clamp rule: aggregate_system's dev and negative-variance reason are
    # what propagated_deviations gives for the weights it used and C
    rng = np.random.default_rng(12)
    systems = []
    for size in (1, 2, 3, 5, 8) * 4:
        a = rng.normal(size=(size, size + 2)) * 0.05
        systems.append(_WorkerSystem("w", np.zeros((size, 2), dtype=np.intp),
                                     rng.uniform(0.0, 0.5, size), a @ a.T / size))
    # w^T C w for w = (1/2, 1/2) inside the band [-tol, 0), and below it
    band, below = (np.array([[1.0, -1.0 - x], [-1.0 - x, 1.0]]) for x in (1e-12, 1e-6))
    half = np.full(2, 0.5)
    assert -VARIANCE_CLAMP_TOL <= half @ band @ half < 0.0
    assert half @ below @ half < -VARIANCE_CLAMP_TOL
    systems += [_WorkerSystem("w", np.zeros((2, 2), dtype=np.intp), np.full(2, 0.2), c)
                for c in (band, below)]
    seen = Counter()
    for weighting in ("uniform", "optimal"):
        aggregates = aggregate_system(systems, weighting)
        for k, system in enumerate(systems):
            (dev,), (negative,) = propagated_deviations(aggregates.weights[k][None],
                                                        system.covariance[None])
            if negative:
                assert aggregates.reason[k] == REASON_NEGATIVE_VARIANCE
                seen["negative"] += 1
                continue
            assert aggregates.reason[k] is None
            assert aggregates.dev[k] == dev
            seen["zero" if dev == 0.0 else "positive"] += 1
    assert seen["negative"] and seen["zero"] and seen["positive"]


def test_evaluate_worker_all_triples_failed():
    matrix = np.array([
        [1, 1, 1, 1],
        [2, 2, 2, 2],
        [1, 1, 2, 2],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    report = evaluate_worker(ds, "w1", 0.9)
    assert report.failed
    assert report.reason == REASON_NO_USABLE_TRIPLES
    assert report.triples_used == 0
    assert report.triples_failed == 1


def test_evaluate_worker_isolated_worker():
    rng = np.random.default_rng(12)
    matrix = np.zeros((4, 61), dtype=int)
    core = simulate_binary((0.1, 0.1, 0.1), 60, rng)
    matrix[:3, :60] = core.matrix
    matrix[3, 60] = 1
    ds = ResponseDataset.from_matrix(matrix)
    report = evaluate_worker(ds, "w4", 0.9)
    assert report.failed
    assert report.reason == REASON_INSUFFICIENT_CONNECTIVITY
    for other in ("w1", "w2", "w3"):
        assert not evaluate_worker(ds, other, 0.9).failed


def test_evaluate_all_without_tasks_fails_every_worker():
    ds = ResponseDataset.from_matrix(np.zeros((3, 0), dtype=int), arity=2)
    reports = evaluate_all(ds, 0.9)
    assert [r.reason for r in reports] == [REASON_INSUFFICIENT_CONNECTIVITY] * 3


def test_evaluate_worker_min_overlap_respected():
    masks = np.ones((3, 5), dtype=bool)
    rng = np.random.default_rng(13)
    ds = simulate_binary((0.05, 0.05, 0.05), 5, rng, masks)
    report = evaluate_worker(ds, "w1", 0.9, min_overlap=6)
    assert report.failed
    assert report.reason == REASON_INSUFFICIENT_CONNECTIVITY


def test_evaluate_all_regular_m3():
    rng = np.random.default_rng(14)
    ds = simulate_binary((0.1, 0.2, 0.3), 5000, rng)
    reports = evaluate_all(ds, 0.9)
    assert [r.worker for r in reports] == ["w1", "w2", "w3"]
    for report, true_rate in zip(reports, (0.1, 0.2, 0.3)):
        assert report.method == METHOD_THREE_WORKER
        assert report.estimate == pytest.approx(true_rate, abs=0.05)


def test_evaluate_all_rejects_tiny_crowds():
    rng = np.random.default_rng(15)
    ds = simulate_binary((0.1, 0.1), 50, rng)
    with pytest.raises(InsufficientConnectivityError):
        evaluate_all(ds, 0.9)


def test_evaluate_all_m20_runtime_budget():
    rng = np.random.default_rng(16)
    rates = np.linspace(0.05, 0.3, 20)
    masks = rng.random((20, 1000)) < 0.5
    ds = simulate_binary(rates, 1000, rng, masks)
    start = time.monotonic()
    reports = evaluate_all(ds, 0.9)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert len(reports) == 20
    assert sum(1 for r in reports if r.failed) == 0


def scalar_cross_triple_covariances(triples, stats, p_i_hat):
    """Reference: the cross-triple covariance as a double loop over
    triple pairs, one scalar c3 lookup per partner pair."""
    q, c2, c3 = stats
    i = triples[0].triple[0]
    count = len(triples)
    pp = p_i_hat * (1.0 - p_i_hat)
    cov = np.zeros((count, count))
    for a in range(count):
        cov[a, a] = triples[a].dev ** 2
    for a in range(count):
        ta = triples[a]
        members_a = ((ta.triple[1], ta.d_i_j1), (ta.triple[2], ta.d_i_j2))
        for b in range(a + 1, count):
            tb = triples[b]
            members_b = ((tb.triple[1], tb.d_i_j1), (tb.triple[2], tb.d_i_j2))
            total = 0.0
            for x, dx in members_a:
                for y, dy in members_b:
                    shared = c3[frozenset((i, x, y))]
                    if shared == 0:
                        continue
                    total += (dx * dy * shared * pp * (2.0 * q[frozenset((x, y))] - 1.0)
                              / (c2[frozenset((i, x))] * c2[frozenset((i, y))]))
            cov[a, b] = cov[b, a] = total
    return cov


def test_cross_triple_matches_scalar_loop_at_partial_density():
    # w1 sees every task; w2..w5 and w6..w7 work in two blocks, so some
    # partner pairs share no task (no agreement rate) and their triple
    # overlaps with w1 are zero, while w8 and w9 straddle both blocks.
    rng = np.random.default_rng(19)
    n = 900
    masks = np.zeros((9, n), dtype=bool)
    masks[0] = True
    masks[1:5, :450] = rng.random((4, 450)) < 0.9
    masks[5:7, 450:] = rng.random((2, 450)) < 0.9
    masks[7:] = rng.random((2, n)) < 0.6
    ds = simulate_binary(np.linspace(0.05, 0.25, 9), n, rng, masks)
    system, = build_worker_system(ds, ("w1",)).systems
    assert not system.failed and system.partners.shape == (4, 2)
    stats = dataset_stats(ds)
    _, c2, c3 = stats
    triples = [evaluate_row(ds, ("w1", a, b)) for a, b in pair_names(ds, system.partners)]
    partners = [w for t in triples for w in t.triple[1:]]
    c3s = [c3[frozenset(("w1", x, y))] for x in partners for y in partners if x != y]
    assert 0 in c3s
    assert any(c2[frozenset((x, y))] == 0 for x in partners for y in partners if x != y)
    p_bar = float(np.mean([t.p_hat for t in triples]))
    expected = scalar_cross_triple_covariances(triples, stats, p_bar)
    assert np.count_nonzero(expected) > len(triples)
    np.testing.assert_allclose(system.covariance, expected, rtol=1e-12, atol=0.0)


def scalar_triple_reference(stats, triple):
    """Reference for one triple in scalar math: (p_hat, derivatives,
    propagated variance), or None when an agreement rate is at or below
    1/2."""
    q, c2, c3 = stats
    i, j1, j2 = triple
    pairs = (frozenset((i, j1)), frozenset((i, j2)), frozenset((j1, j2)))
    q1, q2, q3 = (q[pair] for pair in pairs)
    n1, n2, n3 = (c2[pair] for pair in pairs)
    shared = c3[frozenset(triple)]
    if min(q1, q2, q3) <= 0.5:
        return None

    def invert(qa, qb, qc):
        return max(0.0, 0.5 - 0.5 * math.sqrt((2 * qa - 1) * (2 * qb - 1) / (2 * qc - 1)))

    p = (invert(q1, q2, q3), invert(q1, q3, q2), invert(q2, q3, q1))
    a, b, c = q1 - 0.5, q2 - 0.5, q3 - 0.5
    g = (-math.sqrt(b / (8 * a * c)), -math.sqrt(a / (8 * b * c)),
         math.sqrt(a * b / (8 * c ** 3)))
    cov = [[q1 * (1 - q1) / n1, 0.0, 0.0],
           [0.0, q2 * (1 - q2) / n2, 0.0],
           [0.0, 0.0, q3 * (1 - q3) / n3]]
    for r, s, w, q_other, counts in ((0, 1, 0, q3, n1 * n2), (0, 2, 1, q2, n1 * n3),
                                     (1, 2, 2, q1, n2 * n3)):
        cov[r][s] = cov[s][r] = shared * p[w] * (1 - p[w]) * (2 * q_other - 1) / counts
    var = sum(g[r] * cov[r][s] * g[s] for r in range(3) for s in range(3))
    return p[0], g, var


def test_batched_triples_equal_one_row_calls_and_scalar_reference():
    # Three blocks of 200 tasks: w1 works on A and B, w2 on B and C, w3 on
    # A and C, so every pair of them shares a block and the three share no
    # task. w4..w10 work everywhere at density 0.45, and error rates near
    # 1/2 make some of their triples fail on low agreement.
    rng = np.random.default_rng(23)
    n = 600
    masks = np.zeros((10, n), dtype=bool)
    masks[0, :400] = True
    masks[1, 200:] = True
    masks[2, :200] = masks[2, 400:] = True
    masks[3:] = rng.random((7, n)) < 0.45
    rates = (0.1, 0.1, 0.1, 0.05, 0.15, 0.3, 0.44, 0.47, 0.49, 0.5)
    ds = simulate_binary(rates, n, rng, masks)
    stats = dataset_stats(ds)
    batch = build_worker_system(ds, ds.workers)
    assert [s.worker for s in batch.systems] == list(ds.workers)
    one_row_all = []
    for system in batch.systems:
        one_row = [evaluate_row(ds, (system.worker, a, b))
                   for a, b in pair_names(ds, pairs_around(ds, system.worker))]
        one_row_all += one_row
        usable = [t for t in one_row if not t.failed]
        assert pair_names(ds, system.partners) == [t.triple[1:] for t in usable]
        # bit for bit: repr tells every float apart, -0.0 from 0.0 too
        assert [repr(p) for p in system.p_hats.tolist()] == [repr(t.p_hat) for t in usable]
        # The covariance carries the batched derivatives and deviations.
        i, flat = ds.worker_index(system.worker), system.partners.ravel()
        shared = (ds.attempts[flat] & ds.attempts[i]).astype(float)
        expected = cross_triple_covariances(
            *triple_arrays(usable), float(np.mean(system.p_hats)), ds.pair_overlap[i, flat],
            ds.pair_agreement[flat][:, flat], shared @ shared.T)
        assert system.covariance.tolist() == expected.tolist()
        assert system.triple_failures == Counter(t.reason for t in one_row if t.failed)
    usable_all = [t.triple for t in one_row_all if not t.failed]
    assert [tuple(ds.workers[w] for w in row) for row in batch.triples.tolist()] == usable_all
    assert batch.triples_failed == sum(t.failed for t in one_row_all)
    reasons = [t.reason for t in one_row_all if t.failed]
    assert reasons and set(reasons) == {REASON_LOW_AGREEMENT}
    assert any(stats[2][frozenset(t)] == 0 for t in usable_all)
    for est in one_row_all:
        reference = scalar_triple_reference(stats, est.triple)
        if reference is None:
            assert est.reason == REASON_LOW_AGREEMENT
            continue
        p_hat, derivs, var = reference
        np.testing.assert_allclose(
            (est.p_hat, est.d_i_j1, est.d_i_j2, est.d_j1_j2, est.dev),
            (p_hat, *derivs, math.sqrt(var)), rtol=1e-12, atol=0.0)


# Simulated configs (n, m, density, seed) for the stacking checks: full
# and partial density, density ramps, ids past w9, and worlds whose
# triples or workers fail.
STACK_CONFIGS = ((500, 7, 0.8, 0), (100, 7, 0.25, 11), (100, 9, "ramp", 11),
                 (100, 15, 0.8, 0), (40, 12, 0.4, 3), (30, 3, 0.3, 5), (100, 7, "ramp", 0))


def simulated_datasets(n, m, density, seed, count):
    """The datasets of replications 0..count-1 of a simulated binary config."""
    densities = ramp_densities(m) if density == "ramp" else density
    datasets = []
    for rep in range(count):
        rng = substream(seed, rep)
        datasets.append(gen_binary_responses(gen_binary_workers(m, rng), n, densities, rng)[0])
    return datasets


def test_stacked_worlds_equal_one_world_calls():
    failed_systems = failed_triples = 0
    for config in STACK_CONFIGS:
        datasets = simulated_datasets(*config, count=12)
        stack = WorldStack.stack(
            datasets[0].workers, datasets[0].num_tasks,
            np.stack([ds.pair_overlap for ds in datasets]),
            np.stack([ds.pair_agreement for ds in datasets]),
            np.concatenate([np.packbits(ds.attempts, axis=1) for ds in datasets]))
        stacked = build_worker_system(stack, stack.workers)
        alone = [build_worker_system(ds, ds.workers) for ds in datasets]
        systems = [system for one in alone for system in one.systems]
        assert len(stacked.systems) == len(systems)
        for got, want in zip(stacked.systems, systems):
            assert (got.worker, got.failure_reason) == (want.worker, want.failure_reason)
            assert got.triple_failures == want.triple_failures
            assert got.partners.tolist() == want.partners.tolist()
            # bit for bit: repr tells every float apart, -0.0 from 0.0 too
            assert repr(got.p_hats.tolist()) == repr(want.p_hats.tolist())
            assert repr(getattr(got.covariance, "tolist", list)()) == \
                repr(getattr(want.covariance, "tolist", list)())
        assert stacked.triples.tolist() == [row for one in alone for row in one.triples.tolist()]
        assert stacked.triples_failed == sum(one.triples_failed for one in alone)
        failed_systems += sum(system.failed for system in systems)
        failed_triples += stacked.triples_failed
        for weighting in ("uniform", "optimal"):
            together = aggregate_system(stacked.systems, weighting)
            for k, system in enumerate(systems):
                one = aggregate_system((system,), weighting)
                assert repr((together.estimate[k], together.dev[k], together.fallback[k],
                             together.clamped[k], together.reason[k])) == \
                    repr((one.estimate[0], one.dev[0], one.fallback[0], one.clamped[0],
                          one.reason[0]))
                assert repr(getattr(together.weights[k], "tolist", list)()) == \
                    repr(getattr(one.weights[0], "tolist", list)())
    assert failed_systems and failed_triples


def test_min_overlap_below_one_is_rejected():
    # w4 shares tasks only with w1; an overlap floor of 0 would pair it
    # with w2, a worker it shares no task with.
    matrix = np.ones((4, 40), dtype=int)
    matrix[:3, 30:] = 0
    matrix[3, :30] = 0
    ds = ResponseDataset.from_matrix(matrix)
    calls = (lambda: build_worker_system(ds, ds.workers, min_overlap=-1),
             lambda: evaluate_worker(ds, "w4", 0.9, min_overlap=0),
             lambda: evaluate_all(ds, 0.9, min_overlap=0))
    for call in calls:
        with pytest.raises(ValueError, match="min_overlap must be at least 1"):
            call()
    assert pair_names(ds, pairs_around(ds, "w1")) == [("w2", "w3")]
    with pytest.raises(TypeError):
        build_worker_system(ds, "w1")


def test_evaluate_worker_leaves_no_reference_cycle():
    # The dataset must be freed as soon as its last reference goes, not at
    # the next cyclic collection: simulations build thousands of them.
    rng = np.random.default_rng(18)
    ds = simulate_binary(np.linspace(0.05, 0.3, 7), 400, rng)
    assert not evaluate_worker(ds, "w1", 0.9).failed
    ref = weakref.ref(ds)
    gc.disable()
    try:
        del ds
        assert ref() is None
    finally:
        gc.enable()
