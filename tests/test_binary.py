import gc
import math
import time
import weakref

import numpy as np
import pytest

from crowdgauge.binary import (
    METHOD_M_WORKER_OPTIMAL,
    METHOD_M_WORKER_UNIFORM,
    METHOD_THREE_WORKER,
    TripleEstimate,
    agreement_covariances,
    aggregate_system,
    build_worker_system,
    cross_triple_covariances,
    error_rate_from_agreements,
    evaluate_all,
    evaluate_triple,
    evaluate_worker,
    f_derivatives,
    greedy_pairs,
)
from crowdgauge.dataset import AgreementStats, ResponseDataset, agreement_rates
from crowdgauge.errors import (
    EstimationFailure,
    InsufficientConnectivityError,
    InsufficientOverlapError,
    REASON_INSUFFICIENT_CONNECTIVITY,
    REASON_LOW_AGREEMENT,
    REASON_NO_USABLE_TRIPLES,
)
from crowdgauge.numerics import normal_quantile, propagated_deviation


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
    with pytest.raises(InsufficientOverlapError):
        agreement_covariances((0.8, 0.8, 0.8), (40, 0, 40), 0, (0.1, 0.1, 0.1))


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


# -- evaluate_triple ---------------------------------------------------------


def test_evaluate_triple_recovers_simulated_rate():
    rng = np.random.default_rng(404)
    ds = simulate_binary((0.1, 0.1, 0.1), 100_000, rng)
    est, ci = evaluate_triple(ds, ("w1", "w2", "w3"), 0.95)
    assert not est.failed
    assert est.p_hat == pytest.approx(0.1, abs=0.01)
    assert ci.covers(0.1)
    assert ci.half_width == pytest.approx(
        abs(normal_quantile(0.025)) * est.dev, abs=1e-15)
    assert est.d_i_j1 < 0 and est.d_i_j2 < 0 and est.d_j1_j2 > 0


def test_evaluate_triple_low_agreement_fails_without_exception():
    matrix = np.array([
        [1, 1, 1, 1],
        [2, 2, 2, 2],
        [1, 1, 2, 2],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    est, ci = evaluate_triple(ds, ("w1", "w2", "w3"), 0.9)
    assert est.failed and ci.failed
    assert est.reason == REASON_LOW_AGREEMENT
    assert ci.reason == REASON_LOW_AGREEMENT


def test_evaluate_triple_clamps_noisy_radicand():
    # q12 = q13 = 0.9 while q23 = 0.8, so the radicand is 0.64/0.6 > 1
    matrix = np.ones((3, 10), dtype=int)
    matrix[1, 0] = 2
    matrix[2, 1] = 2
    ds = ResponseDataset.from_matrix(matrix)
    est, ci = evaluate_triple(ds, ("w1", "w2", "w3"), 0.9)
    assert not est.failed
    assert est.clamped
    assert est.p_hat == 0.0
    assert ci.estimate == 0.0
    assert ci.half_width > 0.0


def test_evaluate_triple_empty_pair_raises():
    matrix = np.array([
        [1, 1, 0],
        [1, 1, 0],
        [0, 0, 1],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    with pytest.raises(InsufficientOverlapError):
        evaluate_triple(ds, ("w1", "w2", "w3"), 0.9)


def test_evaluate_triple_rejects_bad_arguments():
    rng = np.random.default_rng(1)
    ds = simulate_binary((0.1, 0.1, 0.1), 50, rng)
    with pytest.raises(ValueError):
        evaluate_triple(ds, ("w1", "w1", "w2"), 0.9)
    with pytest.raises(ValueError):
        evaluate_triple(ds, ("w1", "w2", "w3"), 1.5)


# -- greedy pairing ----------------------------------------------------------


def attempts_dataset(masks):
    """All-ones responses; only the attempt pattern matters for pairing."""
    matrix = np.where(np.asarray(masks, dtype=bool), 1, 0)
    return ResponseDataset.from_matrix(matrix)


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
    assert greedy_pairs(ds, "w1") == [("w2", "w3"), ("w4", "w5")]


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
    assert greedy_pairs(ds, "w1") == [("w3", "w4")]


def test_greedy_pairs_leftover_single_dropped():
    masks = np.ones((4, 6), dtype=bool)
    ds = attempts_dataset(masks)
    assert greedy_pairs(ds, "w1") == [("w2", "w3")]


def test_greedy_pairs_min_overlap_breaks_early():
    n = 10
    masks = np.zeros((4, n), dtype=bool)
    masks[0] = True
    masks[1, :5] = True
    masks[2, 5:8] = True
    masks[3, 8:10] = True
    ds = attempts_dataset(masks)
    with pytest.raises(InsufficientConnectivityError):
        greedy_pairs(ds, "w1", min_overlap=4)


def test_greedy_pairs_needs_three_workers():
    ds = attempts_dataset(np.ones((2, 4), dtype=bool))
    with pytest.raises(InsufficientConnectivityError):
        greedy_pairs(ds, "w1")


# -- cross-triple covariances ------------------------------------------------


def full_overlap_stats(rates, names, n):
    pair_agreement = {}
    pair_overlap = {}
    triple_overlap = {}
    from itertools import combinations
    for a, b in combinations(range(len(names)), 2):
        key = tuple(sorted((names[a], names[b])))
        pair_agreement[key] = true_agreement(rates[a], rates[b])
        pair_overlap[key] = n
    for a, b, c in combinations(range(len(names)), 3):
        triple_overlap[tuple(sorted((names[a], names[b], names[c])))] = n
    return AgreementStats(pair_agreement, pair_overlap, triple_overlap)


def exact_triple_estimate(stats, triple, rates_by_name):
    i, j1, j2 = triple
    qs = (stats.q(i, j1), stats.q(i, j2), stats.q(j1, j2))
    p_hats = (rates_by_name[i], rates_by_name[j1], rates_by_name[j2])
    derivs = f_derivatives(*qs)
    c2 = (stats.c2(i, j1), stats.c2(i, j2), stats.c2(j1, j2))
    cov = agreement_covariances(qs, c2, stats.c3(i, j1, j2), p_hats)
    dev = propagated_deviation(derivs, cov)
    return TripleEstimate(tuple(triple), p_hat=rates_by_name[i], dev=dev,
                          d_i_j1=derivs[0], d_i_j2=derivs[1],
                          d_j1_j2=derivs[2], q=qs)


def partner_arrays(stats, triples):
    """(c_iP, Q_PP, C3) over the 2T partners of `triples`, by scalar
    lookups; the diagonal, which the covariance overwrites, stays 0."""
    i = triples[0].triple[0]
    partners = [w for t in triples for w in t.triple[1:]]
    pairs = [[(x, y) for y in partners] for x in partners]
    c2 = np.array([stats.c2(i, x) for x in partners])
    q = np.array([[stats.q(x, y) if x != y else 0.0 for x, y in row] for row in pairs])
    c3 = np.array([[stats.c3(i, x, y) if x != y else 0 for x, y in row] for row in pairs])
    return c2, q, c3


def test_cross_triple_diagonal_is_squared_dev():
    names = ("w1", "w2", "w3", "w4", "w5")
    rates = (0.1, 0.15, 0.2, 0.25, 0.3)
    stats = full_overlap_stats(rates, names, 1000)
    by_name = dict(zip(names, rates))
    t1 = exact_triple_estimate(stats, ("w1", "w2", "w3"), by_name)
    t2 = exact_triple_estimate(stats, ("w1", "w4", "w5"), by_name)
    cov = cross_triple_covariances((t1, t2), 0.1, *partner_arrays(stats, (t1, t2)))
    assert cov[0, 0] == pytest.approx(t1.dev ** 2, abs=1e-15)
    assert cov[1, 1] == pytest.approx(t2.dev ** 2, abs=1e-15)
    assert cov[0, 1] == cov[1, 0]
    assert cov[0, 1] != 0.0


def test_cross_triple_disjoint_supports_give_zero():
    names = ("w1", "w2", "w3", "w4", "w5")
    rates = (0.1, 0.15, 0.2, 0.25, 0.3)
    stats = full_overlap_stats(rates, names, 1000)
    zeroed = AgreementStats(stats.pair_agreement, stats.pair_overlap,
                            {k: 0 for k in stats.triple_overlap})
    by_name = dict(zip(names, rates))
    t1 = exact_triple_estimate(stats, ("w1", "w2", "w3"), by_name)
    t2 = exact_triple_estimate(stats, ("w1", "w4", "w5"), by_name)
    cov = cross_triple_covariances((t1, t2), 0.1, *partner_arrays(zeroed, (t1, t2)))
    assert cov[0, 1] == 0.0


def test_cross_triple_rejects_mixed_workers():
    names = ("w1", "w2", "w3", "w4", "w5")
    rates = (0.1, 0.15, 0.2, 0.25, 0.3)
    stats = full_overlap_stats(rates, names, 1000)
    by_name = dict(zip(names, rates))
    t1 = exact_triple_estimate(stats, ("w1", "w2", "w3"), by_name)
    t2 = exact_triple_estimate(stats, ("w2", "w4", "w5"), by_name)
    with pytest.raises(ValueError):
        cross_triple_covariances((t1, t2), 0.1, *partner_arrays(stats, (t1, t2)))


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
    formula = cross_triple_covariances((t1, t2), 0.1, *partner_arrays(stats, (t1, t2)))

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


def test_evaluate_worker_single_triple_matches_evaluate_triple():
    rng = np.random.default_rng(8)
    ds = simulate_binary((0.1, 0.2, 0.3), 2000, rng)
    est, ci = evaluate_triple(ds, ("w1", "w2", "w3"), 0.9)
    report = evaluate_worker(ds, "w1", 0.9)
    assert report.method == METHOD_THREE_WORKER
    assert report.triples_used == 1
    assert report.weights == (1.0,)
    assert report.interval.estimate == pytest.approx(ci.estimate, abs=1e-15)
    assert report.interval.half_width == pytest.approx(ci.half_width, abs=1e-15)


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
        system = build_worker_system(ds, "w1")
        if system.failed:
            continue
        _, dev_opt, _, fallback, _ = aggregate_system(system, "optimal")
        _, dev_uni, _, _, _ = aggregate_system(system, "uniform")
        if not fallback:
            assert dev_opt <= dev_uni + 1e-12


def test_evaluate_worker_all_triples_failed():
    matrix = np.array([
        [1, 1, 1, 1],
        [2, 2, 2, 2],
        [1, 1, 2, 2],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    report = evaluate_worker(ds, "w1", 0.9)
    assert report.failed
    assert report.interval.reason == REASON_NO_USABLE_TRIPLES
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
    assert report.interval.reason == REASON_INSUFFICIENT_CONNECTIVITY
    for other in ("w1", "w2", "w3"):
        assert not evaluate_worker(ds, other, 0.9).failed


def test_evaluate_worker_min_overlap_respected():
    masks = np.ones((3, 5), dtype=bool)
    rng = np.random.default_rng(13)
    ds = simulate_binary((0.05, 0.05, 0.05), 5, rng, masks)
    report = evaluate_worker(ds, "w1", 0.9, min_overlap=6)
    assert report.failed
    assert report.interval.reason == REASON_INSUFFICIENT_CONNECTIVITY


def test_evaluate_all_regular_m3():
    rng = np.random.default_rng(14)
    ds = simulate_binary((0.1, 0.2, 0.3), 5000, rng)
    reports = evaluate_all(ds, 0.9)
    assert [r.worker for r in reports] == ["w1", "w2", "w3"]
    for report, true_rate in zip(reports, (0.1, 0.2, 0.3)):
        assert report.method == METHOD_THREE_WORKER
        assert report.interval.estimate == pytest.approx(true_rate, abs=0.05)


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
                    c3 = stats.c3(i, x, y)
                    if c3 == 0:
                        continue
                    total += (dx * dy * c3 * pp * (2.0 * stats.q(x, y) - 1.0)
                              / (stats.c2(i, x) * stats.c2(i, y)))
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
    system = build_worker_system(ds, "w1")
    assert not system.failed and len(system.triples) == 4
    stats = agreement_rates(ds, ds.workers, require_overlap=False)
    partners = [w for t in system.triples for w in t.triple[1:]]
    c3s = [stats.c3("w1", x, y) for x in partners for y in partners if x != y]
    assert 0 in c3s
    assert any(stats.c2(x, y) == 0 for x in partners for y in partners if x != y)
    p_bar = float(np.mean([t.p_hat for t in system.triples]))
    expected = scalar_cross_triple_covariances(system.triples, stats, p_bar)
    assert np.count_nonzero(expected) > len(system.triples)
    np.testing.assert_allclose(system.covariance, expected, rtol=1e-12, atol=0.0)


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
