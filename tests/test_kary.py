import math
import time
from itertools import product

import numpy as np
import pytest

from crowdgauge import kary
from crowdgauge.binary import error_rate_from_agreements
from crowdgauge.dataset import ResponseDataset
from crowdgauge.errors import (
    EstimationFailure,
    REASON_DEGENERATE_SELECTIVITY,
    REASON_EIGEN_NONCONVERGENCE,
    REASON_INSUFFICIENT_OVERLAP,
    REASON_JACOBIAN_FAILURE,
    REASON_NONINVERTIBLE_FREQUENCY,
    REASON_NO_USABLE_SLICES,
)
from crowdgauge.kary import (
    CountsTensor,
    PAIR_PATTERNS,
    SLICE_DEGENERATE,
    _pattern_cells,
    _recover,
    build_counts,
    kary_confidence_intervals,
    kary_deviations,
    numerical_jacobian,
    prob_estimate,
)
from crowdgauge.numerics import normal_quantile
from crowdgauge.simulate import WORKER_MATRIX_FIXTURES, _gen_kary_with_matrices

ARITY2 = WORKER_MATRIX_FIXTURES["arity2"]
ARITY3 = WORKER_MATRIX_FIXTURES["arity3"]


def expected_counts(matrices, selectivity, n=1000.0, densities=(1.0, 1.0, 1.0)):
    """Noiseless counts tensor: n times the exact joint cell probabilities."""
    k = len(selectivity)
    mats = [np.asarray(m, dtype=float) for m in matrices]
    tensor = np.zeros((k + 1, k + 1, k + 1))
    for cell in product(range(k + 1), repeat=3):
        if cell == (0, 0, 0):
            continue
        pattern_prob = 1.0
        for w, label in enumerate(cell):
            pattern_prob *= densities[w] if label else 1.0 - densities[w]
        if pattern_prob == 0.0:
            continue
        total = 0.0
        for g in range(k):
            term = float(selectivity[g])
            for w, label in enumerate(cell):
                if label:
                    term *= mats[w][g, label - 1]
            total += term
        tensor[cell] = n * pattern_prob * total
    return CountsTensor(k, tensor)


def sample_counts(matrices, selectivity, n, rng):
    """Multinomial draw of a full-attempt counts tensor."""
    k = len(selectivity)
    mats = [np.asarray(m, dtype=float) for m in matrices]
    truth = rng.choice(k, size=n, p=np.asarray(selectivity, float))
    tensor = np.zeros((k + 1, k + 1, k + 1))
    responses = []
    for w in range(3):
        cdf = np.cumsum(mats[w], axis=1)[truth]
        labels = 1 + (cdf < rng.random(n)[:, None]).sum(axis=1)
        responses.append(np.minimum(labels, k))
    np.add.at(tensor, (responses[0], responses[1], responses[2]), 1.0)
    return CountsTensor(k, tensor)


def frequency_matrices(counts):
    """The pairwise frequency matrices (r12, r23, r31) the recovery reads.

    Runs the recovery first, so counts it refuses raise its failure.
    """
    prob_estimate(counts)
    matrices, totals = kary._pair_counts(counts.counts)
    return tuple(c / total for c, total in zip(matrices, totals))


def scaled_truth(matrices, selectivity):
    """S_D^(1/2) P_w for each worker."""
    root = np.sqrt(np.asarray(selectivity, float))
    return [root[:, None] * np.asarray(m, float) for m in matrices]


# -- counts tensor -----------------------------------------------------------


def test_build_counts_hand_tally():
    records = [
        ("t1", "a", 1), ("t1", "b", 3),
        ("t2", "a", 2), ("t2", "b", 1), ("t2", "c", 1),
        ("t3", "b", 2), ("t3", "c", 2),
        ("t4", "a", 3), ("t4", "b", 3), ("t4", "c", 3),
        ("t5", "a", 1), ("t5", "c", 2),
    ]
    ds = ResponseDataset.from_records(records, arity=3)
    counts = build_counts(ds, ("a", "b", "c"))
    assert counts.counts.shape == (4, 4, 4)
    assert counts.counts[1, 3, 0] == 1
    assert counts.counts[2, 1, 1] == 1
    assert counts.counts[0, 2, 2] == 1
    assert counts.counts[3, 3, 3] == 1
    assert counts.counts[1, 0, 2] == 1
    assert counts.counts[0, 0, 0] == 0
    assert counts.counts.sum() == 5
    assert counts.pattern_total((0, 1, 1)) == 1
    assert counts.pattern_total((1, 0, 1)) == 1
    assert counts.counts[1:, 1:, 1].sum() == 1
    assert counts.counts[1:, 1:, 3].sum() == 1
    assert counts.counts[1:, 1:, 2].sum() == 0
    assert counts.pattern_total((1, 1, 1)) == 2
    assert counts.pattern_total((1, 1, 0)) == 1


def test_build_counts_hundred_task_layout():
    # w1 answers tasks 1-80, w2 answers 21-100, w3 answers 11-90: the
    # all-three block holds 60 tasks and no task is exclusive to w1+w2
    matrix = np.zeros((3, 100), dtype=int)
    matrix[0, 0:80] = 1
    matrix[1, 20:100] = 1
    matrix[2, 10:90] = 1
    ds = ResponseDataset.from_matrix(matrix)
    counts = build_counts(ds, ("w1", "w2", "w3"))
    assert counts.pattern_total((1, 1, 1)) == 60
    assert counts.pattern_total((1, 1, 0)) == 0
    assert counts.pattern_total((1, 0, 1)) == 10
    assert counts.pattern_total((0, 1, 1)) == 10
    assert counts.pattern_total((1, 0, 0)) == 10
    assert counts.pattern_total((0, 1, 0)) == 10
    assert counts.pattern_total((0, 0, 1)) == 0
    assert counts.counts.sum() == 100


def test_build_counts_rejects_duplicates():
    ds = ResponseDataset.from_matrix(np.ones((3, 4), dtype=int))
    with pytest.raises(ValueError):
        build_counts(ds, ("w1", "w1", "w2"))


def test_counts_tensor_validation():
    with pytest.raises(ValueError):
        CountsTensor(2, np.zeros((2, 2, 2)))
    bad = np.zeros((3, 3, 3))
    bad[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        CountsTensor(2, bad)
    negative = np.zeros((3, 3, 3))
    negative[1, 1, 1] = -2.0
    with pytest.raises(ValueError):
        CountsTensor(2, negative)


# -- response frequencies ----------------------------------------------------


def test_frequency_matrices_identity_workers():
    counts = expected_counts([np.eye(2)] * 3, (0.5, 0.5))
    for r in frequency_matrices(counts):
        assert np.allclose(r, np.diag([0.5, 0.5]), atol=1e-12)


def test_frequency_matrices_sum_to_one_and_transpose():
    counts = expected_counts(ARITY3, (0.2, 0.5, 0.3))
    for r in frequency_matrices(counts):
        assert r.sum() == pytest.approx(1.0, abs=1e-12)
        assert (r >= 0).all()


def test_frequency_matrices_forward_model():
    # empirical pair frequencies approach P_a' S_D P_b
    sel = np.array([0.5, 0.5])
    rng = np.random.default_rng(60)
    counts = sample_counts(ARITY2, sel, 100_000, rng)
    r12, r23, r31 = frequency_matrices(counts)
    p1, p2, p3 = (np.asarray(m, float) for m in ARITY2)
    assert np.abs(r12 - p1.T @ np.diag(sel) @ p2).max() < 0.01
    assert np.abs(r23 - p2.T @ np.diag(sel) @ p3).max() < 0.01
    assert np.abs(r31 - p3.T @ np.diag(sel) @ p1).max() < 0.01


def test_frequency_matrices_pair_only_tasks_count():
    counts = expected_counts(ARITY2, (0.5, 0.5), densities=(1.0, 1.0, 0.5))
    r12 = frequency_matrices(counts)[0]
    p1, p2 = (np.asarray(m, float) for m in ARITY2[:2])
    # worker 3's absences do not bias the 1-2 pair frequencies
    assert np.allclose(r12, p1.T @ np.diag([0.5, 0.5]) @ p2, atol=1e-12)


def test_frequency_matrices_need_overlap():
    tensor = np.zeros((3, 3, 3))
    tensor[1, 1, 0] = 5.0  # only workers 1 and 2 ever answer together
    tensor[1, 0, 0] = 3.0
    with pytest.raises(EstimationFailure) as info:
        frequency_matrices(CountsTensor(2, tensor))
    assert info.value.reason == REASON_INSUFFICIENT_OVERLAP


# -- spectral recovery -------------------------------------------------------


def test_gram_matrix_identity_on_noiseless_input():
    sel = (0.3, 0.2, 0.5)
    counts = expected_counts(ARITY3, sel)
    r12, r23, r31 = frequency_matrices(counts)
    v1_true = scaled_truth(ARITY3, sel)[0]
    gram = r12 @ np.linalg.inv(r23.T) @ r31
    assert np.abs(gram - v1_true.T @ v1_true).max() < 1e-10


def test_prob_estimate_noiseless_identity_workers():
    counts = expected_counts([np.eye(2)] * 3, (0.5, 0.5))
    est = prob_estimate(counts)
    target = np.diag([1 / math.sqrt(2)] * 2)
    for v in est.v:
        assert np.abs(v - target).max() < 1e-10
    for p in est.p_matrices:
        assert np.abs(p - np.eye(2)).max() < 1e-10
    assert np.allclose(est.selectivity, [0.5, 0.5], atol=1e-10)
    assert est.diagnostics.slice_failures == ()


def test_prob_estimate_noiseless_arity2_fixture():
    sel = (0.5, 0.5)
    counts = expected_counts(ARITY2, sel)
    est = prob_estimate(counts)
    for v, target in zip(est.v, scaled_truth(ARITY2, sel)):
        assert np.abs(v - target).max() < 1e-8
    for p, target in zip(est.p_matrices, ARITY2):
        assert np.abs(p - np.asarray(target)).max() < 1e-8
    assert np.abs(est.selectivity - 0.5).max() < 1e-8


def test_prob_estimate_noiseless_arity3_fixture():
    sel = (1 / 3, 1 / 3, 1 / 3)
    counts = expected_counts(ARITY3, sel)
    est = prob_estimate(counts)
    for v, target in zip(est.v, scaled_truth(ARITY3, sel)):
        assert np.abs(v - target).max() < 1e-8
    for p, target in zip(est.p_matrices, ARITY3):
        assert np.abs(p - np.asarray(target)).max() < 1e-8


def test_prob_estimate_noiseless_arity4_fixture():
    # Worker 3's matrix must have at least one column with all-distinct
    # entries, because the conditional-slice eigenvalues are exactly that
    # column (rescaled). In this fixture set only the third matrix
    # qualifies, so it takes the third seat; the one degenerate slice is
    # detected and dropped, and the remaining slices recover everything.
    mats = WORKER_MATRIX_FIXTURES["arity4"]
    sel = (0.25, 0.25, 0.25, 0.25)
    counts = expected_counts(mats, sel)
    est = prob_estimate(counts)
    assert est.diagnostics.slice_failures == ((2, SLICE_DEGENERATE),)
    for v, target in zip(est.v, scaled_truth(mats, sel)):
        assert np.abs(v - target).max() < 1e-8
    for p, target in zip(est.p_matrices, mats):
        assert np.abs(p - np.asarray(target)).max() < 1e-8
    assert np.abs(est.selectivity - 0.25).max() < 1e-8


def test_prob_estimate_fails_when_every_slice_degenerates():
    # With a third worker whose matrix has repeated entries in every
    # column, every conditional slice has a repeated eigenvalue and no
    # eigenbasis is identifiable.
    mats = WORKER_MATRIX_FIXTURES["arity4"]
    counts = expected_counts((mats[2], mats[0], mats[1]), (0.25,) * 4)
    with pytest.raises(EstimationFailure) as excinfo:
        prob_estimate(counts)
    assert excinfo.value.reason == REASON_NO_USABLE_SLICES


def test_prob_estimate_noiseless_skewed_selectivity():
    sel = (0.3, 0.7)
    counts = expected_counts(ARITY2, sel)
    est = prob_estimate(counts)
    for v, target in zip(est.v, scaled_truth(ARITY2, sel)):
        assert np.abs(v - target).max() < 1e-8
    assert np.allclose(est.selectivity, sel, atol=1e-8)


def test_prob_estimate_rows_are_stochastic():
    # P is V / rowsum(V), unclipped: the seed-61 sample has entries outside
    # [0, 1] and the noiseless counts none. Either way the report's
    # midpoints are that P, bit for bit.
    rng = np.random.default_rng(61)
    sampled = sample_counts(ARITY3, (1 / 3, 1 / 3, 1 / 3), 2000, rng)
    noiseless = expected_counts(ARITY2, (0.5, 0.5))
    seen = []
    for counts in (sampled, noiseless):
        est = prob_estimate(counts)
        report = kary_confidence_intervals(counts, 0.9)
        assert report.midpoints.tobytes() == est.p_matrices.tobytes()
        np.testing.assert_allclose(est.p_matrices.sum(axis=2), 1.0, rtol=0.0, atol=1e-9)
        outside = bool(((est.p_matrices < 0.0) | (est.p_matrices > 1.0)).any())
        assert est.diagnostics.clamped is outside
        seen.append(outside)
        assert est.selectivity.sum() == pytest.approx(1.0, abs=1e-9)
        assert (est.selectivity >= 0).all()
    assert seen == [True, False]


def test_prob_estimate_constant_worker_fails():
    tensor = np.zeros((3, 3, 3))
    # worker 3 answers 1 on every task: R32 is rank one
    tensor[1, 1, 1] = 40.0
    tensor[1, 2, 1] = 10.0
    tensor[2, 1, 1] = 12.0
    tensor[2, 2, 1] = 38.0
    with pytest.raises(EstimationFailure) as info:
        prob_estimate(CountsTensor(2, tensor))
    assert info.value.reason == REASON_NONINVERTIBLE_FREQUENCY


def recovering(v):
    """A stand-in for kary._recover whose recovery returns V1..V3 = v for
    every triple of the stack."""
    def recover(tensors, k):
        _, dv, diagnostics, reasons = _recover(tensors, k)
        return np.stack([np.array(v, dtype=float)] * len(tensors)), dv, diagnostics, reasons
    return recover


def test_recover_selectivity_diagonal(monkeypatch):
    # Row r of V1 sums to sqrt(S(r)): the squared row sums, renormalized.
    v1 = 3.0 * np.diag(np.sqrt([0.2, 0.8]))
    monkeypatch.setattr(kary, "_recover", recovering([v1, v1, v1]))
    est = prob_estimate(expected_counts(ARITY2, (0.5, 0.5)))
    assert np.allclose(est.selectivity, [0.2, 0.8], atol=1e-12)
    assert np.array_equal(est.p_matrices, np.stack([np.eye(2)] * 3))


def test_recover_selectivity_zero_row(monkeypatch):
    good = np.diag([0.5, 0.5])
    monkeypatch.setattr(kary, "_recover",
                        recovering([np.array([[0.5, -0.5], [0.3, 0.4]]), good, good]))
    with pytest.raises(EstimationFailure) as info:
        prob_estimate(expected_counts(ARITY2, (0.5, 0.5)))
    assert info.value.reason == REASON_DEGENERATE_SELECTIVITY


def test_selectivity_uniform_simulation():
    rng = np.random.default_rng(62)
    counts = sample_counts(ARITY2, (0.5, 0.5), 10_000, rng)
    est = prob_estimate(counts)
    assert np.abs(est.selectivity - 0.5).max() < 0.03


def test_selectivity_skewed_simulation():
    rng = np.random.default_rng(63)
    counts = sample_counts(ARITY2, (0.7, 0.3), 10_000, rng)
    est = prob_estimate(counts)
    assert np.abs(est.selectivity - np.array([0.7, 0.3])).max() < 0.05


def test_binary_consistency_with_agreement_inversion():
    # symmetric binary confusion matrices behave like flat error rates, so
    # the spectral route and the agreement-rate route must roughly agree
    rates = (0.1, 0.15, 0.2)
    matrices = [np.array([[1 - r, r], [r, 1 - r]]) for r in rates]
    rng = np.random.default_rng(64)
    n = 10_000
    truth = rng.integers(1, 3, size=n)
    rows = [np.where(rng.random(n) < r, 3 - truth, truth) for r in rates]
    ds = ResponseDataset.from_matrix(np.stack(rows))
    counts = build_counts(ds, ("w1", "w2", "w3"))
    est = prob_estimate(counts)
    q12 = ds.pair_agreement[0, 1]
    q13 = ds.pair_agreement[0, 2]
    q23 = ds.pair_agreement[1, 2]
    eq_based = (
        error_rate_from_agreements(q12, q13, q23),
        error_rate_from_agreements(q12, q23, q13),
        error_rate_from_agreements(q13, q23, q12),
    )
    for w in range(3):
        spectral = (est.p_matrices[w][0, 1] + est.p_matrices[w][1, 0]) / 2
        assert abs(spectral - eq_based[w]) < 0.02
        assert spectral == pytest.approx(rates[w], abs=0.05)


# -- counts covariances ------------------------------------------------------


def hand_covariance_tensor():
    tensor = np.zeros((3, 3, 3))
    tensor[1, 1, 1] = 30.0
    tensor[1, 1, 2] = 10.0
    tensor[2, 2, 2] = 60.0  # all-three pattern totals 100
    tensor[1, 1, 0] = 20.0
    tensor[2, 1, 0] = 5.0
    return CountsTensor(2, tensor)


def scalar_covariance(counts, cell_a, cell_b):
    """Multinomial covariance of two count cells, the oracle for the
    contraction in kary_deviations."""
    pattern = tuple(int(x > 0) for x in cell_a)
    if pattern != tuple(int(x > 0) for x in cell_b):
        return 0.0
    total = counts.pattern_total(pattern)
    if total <= 0:
        return 0.0
    count_a = float(counts.counts[tuple(cell_a)])
    if tuple(cell_a) == tuple(cell_b):
        return count_a * (total - count_a) / total
    return -count_a * float(counts.counts[tuple(cell_b)]) / total


def covariance_block(counts, cells):
    """Covariance matrix of the count cells `cells`, entry by entry."""
    return np.array([[scalar_covariance(counts, a, b) for b in cells] for a in cells])


def hand_estimate(counts, dv, v=None):
    """An estimate of `counts` with scaled matrices v (three identities by
    default) and derivatives dv, one (3, k, k) slice per cell of
    oracle_cells(counts), for driving kary_deviations without a recovery.

    With V = I, P = I and the gradient of an off-diagonal P(w, i, j) over
    the cells is dv[:, w, i, j] itself.
    """
    k = counts.arity
    v = np.stack([np.eye(k)] * 3) if v is None else v
    return kary.ResponseProbEstimate(
        p_matrices=v / v.sum(axis=2, keepdims=True), selectivity=np.full(k, 1.0 / k),
        diagnostics=kary.KaryDiagnostics(), counts=counts,
        cells=np.array(oracle_cells(counts)), v=v, dv=dv)


def test_counts_covariance_hand_values():
    # with V = I the deviation of an off-diagonal P(w, i, j) is sqrt(g' C g)
    # for g = dV(w, i, j): Var N111 = 30 * 70 / 100 = 21, Cov(N111, N112) =
    # -30 * 10 / 100 = -3, Var N112 = 9 and Var N110 = 20 * 5 / 25 = 4;
    # N110 + N210 is the whole 1+2 pattern total, so it does not vary
    counts = hand_covariance_tensor()
    cells = oracle_cells(counts)
    assert len(cells) == 8 + 4
    dv = np.zeros((len(cells), 3, 2, 2))
    dv[cells.index((1, 1, 1)), 0, 0, 1] = 1.0
    dv[[cells.index((1, 1, 1)), cells.index((1, 1, 2))], 1, 0, 1] = 1.0
    dv[cells.index((1, 1, 0)), 2, 0, 1] = 1.0
    dv[[cells.index((1, 1, 0)), cells.index((2, 1, 0))], 2, 1, 0] = 1.0
    devs = kary_deviations(hand_estimate(counts, dv))
    assert devs[0, 0, 1] ** 2 == pytest.approx(21.0)
    assert devs[1, 0, 1] ** 2 == pytest.approx(21.0 - 2 * 3.0 + 9.0)
    assert devs[2, 0, 1] ** 2 == pytest.approx(20 * 5 / 25)
    assert devs[2, 1, 0] == pytest.approx(0.0, abs=1e-7)
    assert scalar_covariance(counts, (1, 1, 1), (1, 1, 2)) == pytest.approx(-3.0)
    assert scalar_covariance(counts, (1, 1, 0), (2, 1, 0)) == pytest.approx(-20 * 5 / 25)


def test_counts_covariance_rejects_bad_cells():
    # a pattern selects cells by three 0/1 flags; anything else is refused
    counts = hand_covariance_tensor()
    with pytest.raises(ValueError):
        counts.pattern_total((2, 1, 1))
    with pytest.raises(ValueError):
        counts.pattern_total((1, 1))


def random_derivatives(counts, live, seed):
    """Normal derivatives on the cells of oracle_cells(counts) where `live`
    holds for the cell's pattern, zero elsewhere."""
    cells = oracle_cells(counts)
    dv = np.random.default_rng(seed).normal(size=(len(cells), 3, counts.arity, counts.arity))
    dv[[not live(tuple(int(x > 0) for x in cell)) for cell in cells]] = 0.0
    return dv


def test_attempted_block_matches_scalar_covariances():
    # derivatives on the all-three cells only, under a V that is no
    # identity: the closed form equals g' C g over the all-three block
    counts = hand_covariance_tensor()
    dv = random_derivatives(counts, lambda pattern: pattern == (1, 1, 1), 91)
    v = np.random.default_rng(92).uniform(0.2, 1.0, size=(3, 2, 2))
    est = hand_estimate(counts, dv, v)
    expected, _ = einsum_deviations(est)
    np.testing.assert_allclose(kary_deviations(est), expected, rtol=1e-12, atol=0.0)


def test_pattern_block_matches_scalar_covariances():
    # derivatives on the 1+2 pair cells only
    counts = hand_covariance_tensor()
    dv = random_derivatives(counts, lambda pattern: pattern == (1, 1, 0), 93)
    v = np.random.default_rng(94).uniform(0.2, 1.0, size=(3, 2, 2))
    est = hand_estimate(counts, dv, v)
    expected, jac = einsum_deviations(est)
    assert jac.pair_perturbed.tolist() == [True, False, False]
    np.testing.assert_allclose(kary_deviations(est), expected, rtol=1e-12, atol=0.0)


def test_counts_covariance_degenerate_pattern():
    # the all-three pattern holds no tasks here, so its cells carry no
    # variance: the deviations are finite and the pair cells' alone
    tensor = np.zeros((3, 3, 3))
    tensor[1, 1, 0] = 20.0
    tensor[2, 1, 0] = 5.0
    counts = CountsTensor(2, tensor)
    assert counts.pattern_total((1, 1, 1)) == 0
    dv = random_derivatives(counts, lambda pattern: True, 95)
    devs = kary_deviations(hand_estimate(counts, dv))
    assert np.isfinite(devs).all() and devs.any()
    dv[:8] = 0.0
    np.testing.assert_array_equal(devs, kary_deviations(hand_estimate(counts, dv)))
    np.testing.assert_allclose(devs, einsum_deviations(hand_estimate(counts, dv))[0],
                               rtol=1e-12, atol=0.0)


def test_pattern_block_empty_pattern_is_zero():
    # worker 1 and 2 answer every task, so the 2+3 and 3+1 patterns hold no
    # tasks: the estimate reads none of their cells, and the delta method
    # over all four patterns, whose empty blocks are zero, agrees with it
    counts = expected_counts(ARITY2, (0.4, 0.6), n=2000.0, densities=(1.0, 1.0, 0.7))
    assert counts.pattern_total((0, 1, 1)) == counts.pattern_total((1, 0, 1)) == 0
    est = prob_estimate(counts)
    assert ((est.cells > 0) == (1, 1, 0)).all(axis=1).sum() == 4
    assert len(est.cells) == 8 + 4
    devs = kary_deviations(est)
    expected = delta_method_deviations(counts, 0.01)
    assert np.abs(devs - expected).max() < 1e-6 * expected.max()


def test_counts_covariances_match_multinomial_draws():
    # two deterministic attempt patterns, each multinomial over its cells;
    # the formula at the expected counts must match empirical covariances
    # and cross-pattern covariances must vanish
    rng = np.random.default_rng(65)
    reps = 10_000
    sel = np.array([0.5, 0.5])
    p1, p2, p3 = (np.asarray(m, float) for m in ARITY2)
    joint3 = np.einsum("g,ga,gb,gc->abc", sel, p1, p2, p3).reshape(-1)
    joint2 = np.einsum("g,ga,gb->ab", sel, p1, p2).reshape(-1)
    n3, n2 = 500, 300
    draws3 = rng.multinomial(n3, joint3, size=reps)
    draws2 = rng.multinomial(n2, joint2, size=reps)

    tensor = np.zeros((3, 3, 3))
    tensor[1:, 1:, 1:] = (n3 * joint3).reshape(2, 2, 2)
    tensor[1:, 1:, 0] = (n2 * joint2).reshape(2, 2)
    counts = CountsTensor(2, tensor)

    def covariance(a, b):
        return scalar_covariance(counts, a, b)

    cells3 = list(product((1, 2), repeat=3))
    cells2 = [(a, b, 0) for a, b in product((1, 2), repeat=2)]
    empirical3 = np.cov(draws3.T)
    empirical2 = np.cov(draws2.T)
    for i, a in enumerate(cells3):
        for j, b in enumerate(cells3):
            formula = covariance(a, b)
            se = math.sqrt((covariance(a, a) * covariance(b, b)
                            + formula ** 2) / (reps - 1))
            assert abs(empirical3[i, j] - formula) <= 3 * se, (a, b)
    for i, a in enumerate(cells2):
        for j, b in enumerate(cells2):
            formula = covariance(a, b)
            se = math.sqrt((covariance(a, a) * covariance(b, b)
                            + formula ** 2) / (reps - 1))
            assert abs(empirical2[i, j] - formula) <= 3 * se, (a, b)
    # cross-pattern: independent multinomials
    for i, a in enumerate(cells3[:2]):
        for j, b in enumerate(cells2[:2]):
            empirical = np.cov(draws3[:, i], draws2[:, j])[0, 1]
            assert covariance(a, b) == 0.0
            se = math.sqrt(covariance(a, a) * covariance(b, b)
                           / (reps - 1))
            assert abs(empirical) <= 3 * se, (a, b)


# -- jacobian ----------------------------------------------------------------


def oracle_cells(counts):
    """The cells the recovery reads: all-three, then each nonempty pair pattern."""
    k = counts.arity
    patterns = [(1, 1, 1)] + [p for p in PAIR_PATTERNS if counts.pattern_total(p) > 0]
    return [c for p in patterns for c in _pattern_cells(p, k)]


def shifted_v(counts, cells, eps):
    """V1..V3 recovered from the raw counts shifted by +eps and by -eps at
    each of `cells`, as two (len(cells), 3, k, k) stacks; the shifted
    arrays are recovered kary.stack_size(k) cells at a time."""
    k = counts.arity
    shifted = []
    for cell in cells:
        tensor = counts.counts.copy()
        tensor[cell] += eps
        shifted.append(tensor.copy())
        tensor[cell] -= 2 * eps
        shifted.append(tensor)
    step = 2 * kary.stack_size(k)
    v = np.concatenate([_recover(np.stack(shifted[s:s + step]), k)[0]
                        for s in range(0, len(shifted), step)])
    return v[0::2], v[1::2]


def central_differences(counts, eps):
    """Oracle for KaryJacobian.derivs: (V(c + eps) - V(c - eps)) / 2 eps per cell.

    Runs the recovery behind prob_estimate on the raw shifted arrays, since
    an empty cell shifted by -eps is no valid CountsTensor.
    """
    plus, minus = shifted_v(counts, oracle_cells(counts), eps)
    return np.moveaxis((plus - minus) / (2 * eps), 0, -1)


def oracle_cases():
    sel3 = (0.2, 0.5, 0.3)
    for name, matrices, sel in (("arity2", ARITY2, (0.5, 0.5)), ("arity3", ARITY3, sel3)):
        for dens in ((1.0, 1.0, 1.0), (0.9, 0.8, 0.7)):
            yield f"expected-{name}-{dens[2]}", expected_counts(matrices, sel, densities=dens)
    for k in (2, 3, 4):
        for seed in range(5):
            world = _gen_kary_with_matrices(WORKER_MATRIX_FIXTURES[f"arity{k}"], 3000,
                                            [0.9, 0.8, 0.7], None, seed)
            yield f"sample-arity{k}-{seed}", build_counts(world.dataset, world.dataset.workers)


def test_jacobian_matches_central_differences():
    # the closed form is the limit of central differences: within 1e-6 of
    # max|J| at eps 1e-3 up to k = 3 and within 1e-4 at k = 4, where the
    # differences' own O(eps^2) error is largest; there it falls about 100x
    # from eps 1e-2 to 1e-3
    for name, counts in oracle_cases():
        jac = numerical_jacobian(prob_estimate(counts))
        assert jac.cells.tolist() == [list(c) for c in oracle_cells(counts)], name
        closed = jac.derivs
        scale = np.abs(closed).max()
        error = np.abs(closed - central_differences(counts, 1e-3)).max()
        bound = 1e-4 if counts.arity == 4 else 1e-6
        assert error <= bound * scale, (name, error / scale)
        if counts.arity == 4:
            coarse = np.abs(closed - central_differences(counts, 1e-2)).max()
            assert 50 < coarse / error < 200, (name, coarse / error)


def test_jacobian_restores_counts():
    counts = expected_counts(ARITY2, (0.5, 0.5))
    before = counts.counts.copy()
    jac = numerical_jacobian(prob_estimate(counts))
    assert np.array_equal(counts.counts, before)
    assert jac.usable.all()
    assert np.isfinite(jac.derivs).all()


def test_jacobian_step_halving():
    # central differences approach the closed form at O(eps^2): halving
    # the step quarters their error
    counts = expected_counts(ARITY3, (0.2, 0.5, 0.3))
    closed = numerical_jacobian(prob_estimate(counts)).derivs
    coarse = np.abs(closed - central_differences(counts, 0.01)).max()
    fine = np.abs(closed - central_differences(counts, 0.005)).max()
    assert 3.5 < coarse / fine < 4.5


def test_jacobian_label_flip_symmetry():
    # all workers share a symmetric confusion matrix and S is uniform, so
    # relabeling 1<->2 everywhere must leave the derivative table invariant
    flip = [np.array([[0.8, 0.2], [0.2, 0.8]])] * 3
    counts = expected_counts(flip, (0.5, 0.5))
    jac = numerical_jacobian(prob_estimate(counts))
    # full density: only the all-three cells, in row-major order
    table = jac.derivs.reshape(3, 2, 2, 2, 2, 2)
    flipped = table[:, ::-1, ::-1, ::-1, ::-1, ::-1]
    assert np.abs(table - flipped).max() < 1e-8


def test_jacobian_selectivity_chain_rule():
    # chain rule through the jacobian matches a direct finite difference
    # of the squared V1 row sums against one perturbed cell
    counts = expected_counts(ARITY2, (0.5, 0.5))
    est = prob_estimate(counts)
    jac = numerical_jacobian(est)
    row_sums = est.v[0].sum(axis=1)
    cell = (1, 1, 1)
    d_rows = jac.derivs[0, :, :, jac.cells.tolist().index(list(cell))].sum(axis=1)
    chain = 2.0 * row_sums * d_rows

    eps = 0.005
    tensor = counts.counts.copy()
    tensor[cell] += eps
    plus = prob_estimate(CountsTensor(2, tensor)).v[0].sum(axis=1) ** 2
    tensor[cell] -= 2 * eps
    minus = prob_estimate(CountsTensor(2, tensor)).v[0].sum(axis=1) ** 2
    direct = (plus - minus) / (2 * eps)
    assert np.abs(chain - direct).max() < 1e-8 * max(1.0, np.abs(direct).max())


def test_jacobian_skips_empty_pair_patterns():
    # at full density no task is answered by exactly two workers
    jac = numerical_jacobian(prob_estimate(expected_counts(ARITY2, (0.5, 0.5))))
    assert not jac.pair_perturbed.any() and not jac.pair_usable.any()
    assert jac.cells.shape == (8, 3) and (jac.cells > 0).all()
    assert jac.derivs.shape == (3, 2, 2, 8)
    assert jac.usable.all()


def test_jacobian_pair_cells_match_direct_differences():
    counts = expected_counts(ARITY2, (0.5, 0.5), densities=(0.9, 0.8, 0.7))
    jac = numerical_jacobian(prob_estimate(counts))
    assert jac.pair_perturbed.all() and jac.pair_usable.all()
    assert jac.derivs.shape == (3, 2, 2, 8 + 3 * 4)
    scale = np.abs(jac.derivs[..., 8:]).max()
    # pattern (1, 0, 1): worker 1 said 2 and worker 3 said 1
    column = jac.cells.tolist().index([2, 0, 1])
    assert column >= 8
    tensor = counts.counts.copy()
    tensor[2, 0, 1] += 1e-3
    plus = prob_estimate(CountsTensor(2, tensor)).v
    tensor[2, 0, 1] -= 2e-3
    minus = prob_estimate(CountsTensor(2, tensor)).v
    for w in range(3):
        direct = (plus[w] - minus[w]) / 2e-3
        assert np.abs(jac.derivs[w, :, :, column] - direct).max() < 1e-6 * scale
    # a pair-only cell moves the estimate, so it carries real derivatives
    assert scale > 1e-4


def test_jacobian_raises_when_the_recovery_fails():
    # worker 3 answers 1 on every task, so R32 is singular: the recovery
    # raises its reason, and no estimate is left for the Jacobian to turn
    # into NaN derivatives
    tensor = np.zeros((3, 3, 3))
    tensor[1, 1, 1] = 40.0
    tensor[1, 2, 1] = 10.0
    tensor[2, 1, 1] = 12.0
    tensor[2, 2, 1] = 38.0
    with pytest.raises(EstimationFailure) as info:
        numerical_jacobian(prob_estimate(CountsTensor(2, tensor)))
    assert info.value.reason == REASON_NONINVERTIBLE_FREQUENCY


def test_non_finite_derivatives_fail_the_report(monkeypatch):
    # a derivative that overflows marks its cell unusable, and the report
    # fails with the Jacobian reason instead of printing a NaN interval
    counts = expected_counts(ARITY2, (0.5, 0.5), densities=(0.9, 0.8, 0.7))

    def overflowing(tensors, k):
        v, dv, diagnostics, reasons = _recover(tensors, k)
        dv[:, -1, 0, 0, 0] = np.inf
        return v, dv, diagnostics, reasons

    monkeypatch.setattr(kary, "_recover", overflowing)
    jac = numerical_jacobian(prob_estimate(counts))
    assert jac.usable.all()
    assert (~jac.pair_usable[jac.pair_perturbed]).sum() == 1
    report = kary_confidence_intervals(counts, 0.9)
    assert report.failed
    assert report.reason == REASON_JACOBIAN_FAILURE


# -- deviations and intervals ------------------------------------------------


def test_kary_deviations_normalized():
    rng = np.random.default_rng(66)
    counts = sample_counts(ARITY3, (1 / 3, 1 / 3, 1 / 3), 3000, rng)
    est = prob_estimate(counts)
    devs = kary_deviations(est)
    assert devs.shape == est.p_matrices.shape == (3, 3, 3)
    assert np.allclose(est.p_matrices.sum(axis=2), 1.0, atol=1e-9)
    assert (devs >= 0).all()


def delta_method_deviations(counts, eps):
    """sqrt(g' C g) for the central-difference gradient g of the reported
    P = V / rowsum(V), over every cell of all four attempt patterns, with
    each pattern's block C built from scalar_covariance. Recovers the raw
    shifted arrays, as central_differences does, since a cell of an empty
    pattern shifted by -eps is no valid CountsTensor."""
    k = counts.arity
    variances = np.zeros((3, k, k))
    for pattern in ((1, 1, 1),) + PAIR_PATTERNS:
        cells = _pattern_cells(pattern, k)
        plus, minus = (v / v.sum(axis=3, keepdims=True) for v in shifted_v(counts, cells, eps))
        grads = np.moveaxis((plus - minus) / (2 * eps), 0, -1)
        block = covariance_block(counts, cells)
        variances += np.einsum("wijc,cd,wijd->wij", grads, block, grads)
    return np.sqrt(variances)


def test_kary_deviations_delta_method_on_p():
    # deviations are sqrt(g' C g) for the gradient g of the reported
    # P = V / rowsum(V), taken over every cell the recovery reads and
    # contracted pattern by pattern with the multinomial blocks
    counts = expected_counts(ARITY2, (0.4, 0.6), n=2000.0,
                             densities=(0.9, 0.8, 0.7))
    devs = kary_deviations(prob_estimate(counts))
    expected = delta_method_deviations(counts, 0.01)
    assert np.abs(devs - expected).max() < 1e-6 * expected.max()


def einsum_deviations(est):
    """Reference deviations: the three-operand einsum over each pattern block,
    whose columns are picked out of the Jacobian by their cells' pattern and
    whose entries come from scalar_covariance."""
    jac = numerical_jacobian(est)
    k = est.counts.arity
    row_sums = est.v.sum(axis=2, keepdims=True)
    p_all = est.v / row_sums
    variances = np.zeros((3, k, k))
    for pattern in ((1, 1, 1),) + PAIR_PATTERNS:
        columns = ((jac.cells > 0) == pattern).all(axis=1)
        if not columns.any():
            assert est.counts.pattern_total(pattern) == 0
            continue
        block = covariance_block(est.counts, [tuple(c) for c in jac.cells[columns]])
        dv = jac.derivs[..., columns]
        grads = (dv - p_all[..., None] * dv.sum(axis=2, keepdims=True)) / row_sums[..., None]
        variances += np.einsum("wijc,cd,wijd->wij", grads, block, grads)
    return np.sqrt(np.clip(variances, 0.0, None)), jac


def test_kary_deviations_match_the_einsum_contraction():
    # the closed-form contraction equals the einsum one to rounding, with
    # the pair-only blocks in play at partial density; the small k = 4
    # world leaves some cells of its live patterns at zero count
    worlds = [(k, 3000, dens) for k in (2, 3, 4)
              for dens in ((1.0, 1.0, 1.0), (0.9, 0.8, 0.7))]
    for k, n, dens in worlds + [(4, 300, (0.9, 0.8, 0.7))]:
        world = _gen_kary_with_matrices(WORKER_MATRIX_FIXTURES[f"arity{k}"], n,
                                        list(dens), None, k)
        counts = build_counts(world.dataset, world.dataset.workers)
        est = prob_estimate(counts)
        expected, jac = einsum_deviations(est)
        assert jac.pair_perturbed.all() == (dens[0] < 1.0)
        if n == 300:
            assert (counts.counts[tuple(jac.cells.T)] == 0).any()
        np.testing.assert_allclose(kary_deviations(est), expected,
                                   rtol=1e-12, atol=0.0, err_msg=str((k, n, dens)))


def test_one_recovery_per_triple(monkeypatch):
    # the estimate, the Jacobian and the contraction share one recovery,
    # and a stack of triples is recovered in one call, each triple once
    counts = expected_counts(ARITY3, (0.2, 0.5, 0.3), densities=(0.9, 0.8, 0.7))
    calls = []

    def spy(tensors, k):
        calls.append(len(tensors))
        return _recover(tensors, k)

    monkeypatch.setattr(kary, "_recover", spy)
    kary_deviations(prob_estimate(counts))
    assert calls == [1]
    report = kary_confidence_intervals(counts, 0.9)
    assert not report.failed
    assert calls == [1, 1]
    reports = kary_confidence_intervals(CountsTensor(3, np.stack([counts.counts] * 3)), 0.9)
    assert [r.failed for r in reports] == [False] * 3
    assert calls == [1, 1, 3]


def test_eigensolver_non_convergence_fails_the_report(monkeypatch):
    # the Gram matrix is symmetric, so its eigensystem comes from eigh
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    counts = expected_counts(ARITY3, (0.2, 0.5, 0.3))
    with pytest.raises(EstimationFailure) as info:
        prob_estimate(counts)
    assert info.value.reason == REASON_EIGEN_NONCONVERGENCE
    report = kary_confidence_intervals(counts, 0.9)
    assert report.failed and report.reason == REASON_EIGEN_NONCONVERGENCE


def test_kary_confidence_intervals_report_shape():
    rng = np.random.default_rng(67)
    counts = sample_counts(ARITY3, (1 / 3, 1 / 3, 1 / 3), 3000, rng)
    report = kary_confidence_intervals(counts, 0.9)
    assert not report.failed
    assert report.arity == 3
    assert report.confidence == 0.9
    for grid in (report.midpoints, report.lower, report.upper):
        assert grid.shape == (3, 3, 3)
    for row in report.midpoints.reshape(-1, 3):
        assert sum(row) == pytest.approx(1.0, abs=1e-6)
    assert (report.upper - report.midpoints >= 0).all()
    # the interval is symmetric about its midpoint
    np.testing.assert_allclose(report.midpoints - report.lower,
                               report.upper - report.midpoints, rtol=1e-9, atol=1e-15)
    assert report.selectivity.shape == (3,)
    assert sum(report.selectivity) == pytest.approx(1.0, abs=1e-9)
    # the ends are the midpoint less and plus z times the deviation, in
    # float64 scalar arithmetic, to the last bit
    est = prob_estimate(counts)
    devs = kary_deviations(est)
    z = abs(normal_quantile(0.05))
    for cell in np.ndindex(3, 3, 3):
        midpoint = float(est.p_matrices[cell])
        half_width = z * float(devs[cell])
        assert (report.lower[cell], report.upper[cell]) == (midpoint - half_width,
                                                            midpoint + half_width)


def test_kary_confidence_intervals_cover_truth_mostly():
    sel = (1 / 3, 1 / 3, 1 / 3)
    rng = np.random.default_rng(68)
    counts = sample_counts(ARITY3, sel, 4000, rng)
    report = kary_confidence_intervals(counts, 0.95)
    assert not report.failed
    covered = 0
    for w, truth in enumerate(ARITY3):
        truth = np.asarray(truth, float)
        for r in range(3):
            for c in range(3):
                if report.lower[w, r, c] <= truth[r, c] <= report.upper[w, r, c]:
                    covered += 1
    assert covered >= 20  # 27 cells, noisy but most must cover at 95%


def test_kary_confidence_intervals_failure_report():
    tensor = np.zeros((3, 3, 3))
    tensor[1, 1, 1] = 40.0
    tensor[1, 2, 1] = 10.0
    tensor[2, 1, 1] = 12.0
    tensor[2, 2, 1] = 38.0
    report = kary_confidence_intervals(CountsTensor(2, tensor), 0.9)
    assert report.failed
    assert report.reason == REASON_NONINVERTIBLE_FREQUENCY
    assert report.midpoints is None and report.selectivity is None
    assert report.lower is None and report.upper is None


def test_report_diagnostics_are_the_estimates_and_clamped_reads_the_midpoints(
        monkeypatch):
    # the seed-61 sample of test_prob_estimate_rows_are_stochastic, whose
    # unclamped rows leave [0, 1]
    rng = np.random.default_rng(61)
    counts = sample_counts(ARITY3, (1 / 3, 1 / 3, 1 / 3), 2000, rng)
    seen = []

    def spy(counts):
        seen.append(prob_estimate(counts))
        return seen[-1]

    monkeypatch.setattr(kary, "prob_estimate", spy)
    report = kary_confidence_intervals(counts, 0.9)
    assert not report.failed
    # one tensor is recovered as a stack of one
    assert report.diagnostics is seen[0].diagnostics[0]
    midpoints = report.midpoints.reshape(-1).tolist()
    outside = any(m < 0.0 or m > 1.0 for m in midpoints)
    assert report.diagnostics.clamped is True
    assert report.diagnostics.clamped == outside


def test_kary_confidence_intervals_validate_confidence():
    counts = expected_counts(ARITY2, (0.5, 0.5))
    with pytest.raises(ValueError):
        kary_confidence_intervals(counts, 1.0)


def test_kary_confidence_intervals_missing_pair_fails_the_report():
    tensor = np.zeros((3, 3, 3))
    tensor[1, 1, 0] = 5.0
    report = kary_confidence_intervals(CountsTensor(2, tensor), 0.9)
    assert report.failed and report.reason == REASON_INSUFFICIENT_OVERLAP
    assert report.midpoints is None and report.selectivity is None


def mixed_stack():
    """k = 4 count tensors whose recoveries end every way, with the reason
    each must get: sampled triples that succeed, one at full density; a
    noiseless one that succeeds with one slice dropped; a pair that shares
    no task; every slice degenerate (as in
    test_prob_estimate_fails_when_every_slice_degenerates); a constant
    worker. poisoning() makes the last cell's derivative non-finite for
    the last two sampled ones: a cell of the empty pattern (1, 0, 1) at
    full density, which is masked out, and a live one, which fails."""
    mats = WORKER_MATRIX_FIXTURES["arity4"]
    sampled = [build_counts(w.dataset, w.dataset.workers).counts for w in (
        _gen_kary_with_matrices(mats, 3000, dens, None, seed)
        for seed, dens in enumerate(([0.9, 0.8, 0.7], [1.0, 1.0, 1.0], [0.7, 0.7, 0.7])))]
    noiseless = expected_counts(mats, (0.25,) * 4, densities=(0.9, 0.8, 0.7)).counts
    degenerate = expected_counts((mats[2], mats[0], mats[1]), (0.25,) * 4).counts
    disjoint = np.zeros((5, 5, 5))
    disjoint[1:, 1:, 0] = 7.0  # workers 1 and 2 answer together, 3 alone
    disjoint[0, 0, 1:] = 9.0
    constant = np.zeros((5, 5, 5))
    constant[1:, 1:, 1] = 1.0 + np.arange(16).reshape(4, 4)  # worker 3 always says 1
    return [
        (sampled[0], None), (disjoint, REASON_INSUFFICIENT_OVERLAP),
        (sampled[1], None), (degenerate, REASON_NO_USABLE_SLICES),
        (noiseless, None), (constant, REASON_NONINVERTIBLE_FREQUENCY),
        (sampled[2], REASON_JACOBIAN_FAILURE),
    ]


def poisoning(poisoned):
    """A stand-in for kary._recover that makes the derivative against the
    last cell infinite for the stack's copies of the `poisoned` tensors."""
    def recover(tensors, k):
        v, dv, diagnostics, reasons = _recover(tensors, k)
        for tensor in poisoned:
            dv[(tensors == tensor).all(axis=(1, 2, 3)), -1, 0, 0, 0] = np.inf
        return v, dv, diagnostics, reasons
    return recover


def test_each_item_of_a_stack_is_its_own_stack_of_one(monkeypatch):
    # The stack mixes successes with every way a recovery fails; each item
    # gets the reason, the estimate and the interval report of its own
    # run, bit for bit, whatever the other items do.
    items = mixed_stack()
    tensors = np.stack([tensor for tensor, _ in items])
    monkeypatch.setattr(kary, "_recover", poisoning([items[2][0], items[-1][0]]))
    calls = []
    for name in ("eig", "eigh"):
        def solver(a, solve=getattr(np.linalg, name), name=name):
            calls.append((name, len(a)))
            return solve(a)
        monkeypatch.setattr(np.linalg, name, solver)
    stacked = prob_estimate(CountsTensor(4, tensors))
    # the failed items are swapped for the identity, so each eigensolver
    # takes the whole stack in one call
    assert calls == [("eigh", 7), ("eig", 7 * 4)]
    reports = kary_confidence_intervals(CountsTensor(4, tensors), 0.9)
    assert [r.reason for r in reports] == [reason for _, reason in items]
    assert stacked.reasons[-1] is None  # the Jacobian fails after the estimate
    for b, (tensor, reason) in enumerate(items):
        one = kary_confidence_intervals(CountsTensor(4, tensor), 0.9)
        assert one.reason == reports[b].reason == reason, b
        if reason is None:
            for name in ("midpoints", "deviations", "lower", "upper", "selectivity"):
                assert getattr(reports[b], name).tobytes() == getattr(one, name).tobytes()
            assert vars(reports[b].diagnostics) == vars(one.diagnostics)
        if stacked.reasons[b] is not None:
            with pytest.raises(EstimationFailure) as info:
                prob_estimate(CountsTensor(4, tensor))
            assert info.value.reason == stacked.reasons[b]
            assert vars(stacked.diagnostics[b]) == vars(kary.KaryDiagnostics())
            continue
        alone = prob_estimate(CountsTensor(4, tensor))
        columns = [stacked.cells.tolist().index(cell) for cell in alone.cells.tolist()]
        assert stacked.v[b].tobytes() == alone.v.tobytes()
        assert stacked.p_matrices[b].tobytes() == alone.p_matrices.tobytes()
        assert stacked.dv[b][columns].tobytes() == alone.dv.tobytes()
        jac, jac_one = numerical_jacobian(stacked), numerical_jacobian(alone)
        assert np.array_equal(jac.usable[b], jac_one.usable)
        assert np.array_equal(jac.pair_usable[b], jac_one.pair_usable)
        assert np.array_equal(jac.pair_perturbed[b], jac_one.pair_perturbed)
    # a failed item of the stack has NaN deviations, and the others none
    deviations = kary_deviations(stacked)
    failed = np.array([reason is not None for _, reason in items])
    assert np.isnan(deviations[failed]).all() and np.isfinite(deviations[~failed]).all()


def test_dropped_slice_is_left_out_of_the_jacobian():
    # Slice 2 of these noiseless k = 4 counts has a repeated eigenvalue and
    # is dropped, and moving the selectivity keeps it repeated. So the
    # Jacobian along the counts' change matches the central difference of
    # V along that move at O(step^2), only if the dropped slice's own
    # derivative, whose eigengap is 0, stays out of the average.
    mats = WORKER_MATRIX_FIXTURES["arity4"]
    sel, step = np.full(4, 0.25), np.array([1.0, -1.0, 0.5, -0.5]) * 1e-4

    def counts(selectivity):
        return expected_counts(mats, selectivity, densities=(0.9, 0.8, 0.7))

    est, plus, minus = (prob_estimate(counts(s)) for s in (sel, sel + step, sel - step))
    for e in (est, plus, minus):
        assert e.diagnostics.slice_failures == ((2, SLICE_DEGENERATE),)
    change = counts(sel + step).counts - counts(sel - step).counts
    along = numerical_jacobian(est).derivs @ change[tuple(est.cells.T)]
    central = plus.v - minus.v
    assert np.abs(along - central).max() < 1e-6 * np.abs(central).max()


def test_runtime_insensitive_to_task_count():
    rng = np.random.default_rng(69)
    small = sample_counts(ARITY2, (0.5, 0.5), 2000, rng)
    large = sample_counts(ARITY2, (0.5, 0.5), 8000, rng)
    start = time.monotonic()
    kary_confidence_intervals(small, 0.9)
    t_small = time.monotonic() - start
    start = time.monotonic()
    kary_confidence_intervals(large, 0.9)
    t_large = time.monotonic() - start
    # recovery cost is dominated by the fixed-size tensor, not n
    assert t_large < 2.5 * t_small + 0.5
