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
    pattern_covariance,
    prob_estimate,
    recover_selectivity,
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
    """The pairwise frequency matrices (r12, r23, r31) the recovery reads."""
    return _recover(counts.counts, counts.arity).freqs


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
    for v in est.recovery.v:
        assert np.abs(v - target).max() < 1e-10
    for p in est.p_matrices:
        assert np.abs(p - np.eye(2)).max() < 1e-10
    assert np.allclose(est.selectivity, [0.5, 0.5], atol=1e-10)
    assert est.diagnostics.slice_failures == ()


def test_prob_estimate_noiseless_arity2_fixture():
    sel = (0.5, 0.5)
    counts = expected_counts(ARITY2, sel)
    est = prob_estimate(counts)
    for v, target in zip(est.recovery.v, scaled_truth(ARITY2, sel)):
        assert np.abs(v - target).max() < 1e-8
    for p, target in zip(est.p_matrices, ARITY2):
        assert np.abs(p - np.asarray(target)).max() < 1e-8
    assert np.abs(est.selectivity - 0.5).max() < 1e-8


def test_prob_estimate_noiseless_arity3_fixture():
    sel = (1 / 3, 1 / 3, 1 / 3)
    counts = expected_counts(ARITY3, sel)
    est = prob_estimate(counts)
    for v, target in zip(est.recovery.v, scaled_truth(ARITY3, sel)):
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
    for v, target in zip(est.recovery.v, scaled_truth(mats, sel)):
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
    for v, target in zip(est.recovery.v, scaled_truth(ARITY2, sel)):
        assert np.abs(v - target).max() < 1e-8
    assert np.allclose(est.selectivity, sel, atol=1e-8)


def test_prob_estimate_rows_are_stochastic():
    rng = np.random.default_rng(61)
    counts = sample_counts(ARITY3, (1 / 3, 1 / 3, 1 / 3), 2000, rng)
    est = prob_estimate(counts)
    for p in est.p_matrices:
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert (p >= 0).all() and (p <= 1).all()
    assert est.selectivity.sum() == pytest.approx(1.0, abs=1e-9)
    assert (est.selectivity >= 0).all()


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


def test_recover_selectivity_diagonal():
    s = recover_selectivity(np.diag([1 / math.sqrt(2)] * 2))
    assert np.allclose(s, [0.5, 0.5], atol=1e-12)


def test_recover_selectivity_zero_row():
    with pytest.raises(EstimationFailure) as info:
        recover_selectivity(np.array([[0.5, -0.5], [0.3, 0.4]]))
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
    """Multinomial covariance of two count cells, the oracle for pattern_covariance."""
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


def test_counts_covariance_hand_values():
    # row-major cells: (1, 1, 1) is index 0 and (1, 1, 2) index 1 of the
    # all-three block; (1, 1, 0) is 0 and (2, 1, 0) is 2 of the 1+2 block
    counts = hand_covariance_tensor()
    attempted = pattern_covariance(counts, (1, 1, 1))
    assert attempted[0, 0] == pytest.approx(21.0)
    assert attempted[0, 1] == pytest.approx(-3.0)
    assert attempted[1, 0] == pytest.approx(-3.0)
    pair = pattern_covariance(counts, (1, 1, 0))
    assert pair[0, 0] == pytest.approx(20 * 5 / 25)
    assert pair[0, 2] == pytest.approx(-20 * 5 / 25)


def test_counts_covariance_rejects_bad_cells():
    # a pattern selects cells by three 0/1 flags; anything else is refused
    counts = hand_covariance_tensor()
    with pytest.raises(ValueError):
        pattern_covariance(counts, (2, 1, 1))
    with pytest.raises(ValueError):
        pattern_covariance(counts, (1, 1))


def test_attempted_block_matches_scalar_covariances():
    counts = hand_covariance_tensor()
    block = pattern_covariance(counts, (1, 1, 1))
    cells = list(product((1, 2), repeat=3))
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            assert block[i, j] == pytest.approx(scalar_covariance(counts, a, b), abs=1e-12)


def test_pattern_block_matches_scalar_covariances():
    counts = hand_covariance_tensor()
    block = pattern_covariance(counts, (1, 1, 0))
    cells = [(a, b, 0) for a, b in product((1, 2), repeat=2)]
    assert block.shape == (4, 4)
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            assert block[i, j] == pytest.approx(scalar_covariance(counts, a, b), abs=1e-12)


def test_counts_covariance_degenerate_pattern():
    # (0, 1, 1) holds no tasks in the hand tensor, so its block is zero
    counts = hand_covariance_tensor()
    assert counts.pattern_total((0, 1, 1)) == 0
    block = pattern_covariance(counts, (0, 1, 1))
    assert block.shape == (4, 4)
    assert not block.any()


def test_pattern_block_empty_pattern_is_zero():
    # (1, 0, 1) holds no tasks in the hand tensor
    counts = hand_covariance_tensor()
    block = pattern_covariance(counts, (1, 0, 1))
    assert block.shape == (4, 4)
    assert not block.any()


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
        pattern = tuple(int(x > 0) for x in a)
        if pattern != tuple(int(x > 0) for x in b):
            return 0.0
        cells = _pattern_cells(pattern, 2)
        return pattern_covariance(counts, pattern)[cells.index(a), cells.index(b)]

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


def jacobian_columns(jac):
    """(3, k, k, D) derivatives: the all-three cells, then each differentiated pair pattern."""
    k = jac.arity
    blocks = [jac.derivs.reshape(3, k, k, -1)]
    blocks += [jac.pair_derivs[p].reshape(3, k, k, -1)
               for p in np.flatnonzero(jac.pair_perturbed)]
    return np.concatenate(blocks, axis=-1)


def central_differences(counts, eps):
    """Oracle for jacobian_columns: (V(c + eps) - V(c - eps)) / 2 eps per cell.

    Runs the recovery behind prob_estimate on the raw shifted arrays, since
    an empty cell shifted by -eps is no valid CountsTensor.
    """
    k = counts.arity
    patterns = [(1, 1, 1)] + [p for p in PAIR_PATTERNS if counts.pattern_total(p) > 0]
    columns = []
    for cell in (c for p in patterns for c in _pattern_cells(p, k)):
        tensor = counts.counts.copy()
        tensor[cell] += eps
        plus = _recover(tensor, k).v
        tensor[cell] -= 2 * eps
        columns.append((plus - _recover(tensor, k).v) / (2 * eps))
    return np.stack(columns, axis=-1)


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
        closed = jacobian_columns(numerical_jacobian(prob_estimate(counts)))
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
    closed = jacobian_columns(numerical_jacobian(prob_estimate(counts)))
    coarse = np.abs(closed - central_differences(counts, 0.01)).max()
    fine = np.abs(closed - central_differences(counts, 0.005)).max()
    assert 3.5 < coarse / fine < 4.5


def test_jacobian_label_flip_symmetry():
    # all workers share a symmetric confusion matrix and S is uniform, so
    # relabeling 1<->2 everywhere must leave the derivative table invariant
    flip = [np.array([[0.8, 0.2], [0.2, 0.8]])] * 3
    counts = expected_counts(flip, (0.5, 0.5))
    jac = numerical_jacobian(prob_estimate(counts))
    flipped = jac.derivs[:, ::-1, ::-1, ::-1, ::-1, ::-1]
    assert np.abs(jac.derivs - flipped).max() < 1e-8


def test_jacobian_selectivity_chain_rule():
    # chain rule through the jacobian matches a direct finite difference
    # of the squared V1 row sums against one perturbed cell
    counts = expected_counts(ARITY2, (0.5, 0.5))
    est = prob_estimate(counts)
    jac = numerical_jacobian(est)
    row_sums = est.recovery.v[0].sum(axis=1)
    cell = (1, 1, 1)
    d_rows = jac.derivs[0, :, :, 0, 0, 0].sum(axis=1)
    chain = 2.0 * row_sums * d_rows

    eps = 0.005
    tensor = counts.counts.copy()
    tensor[cell] += eps
    plus = prob_estimate(CountsTensor(2, tensor)).recovery.v[0].sum(axis=1) ** 2
    tensor[cell] -= 2 * eps
    minus = prob_estimate(CountsTensor(2, tensor)).recovery.v[0].sum(axis=1) ** 2
    direct = (plus - minus) / (2 * eps)
    assert np.abs(chain - direct).max() < 1e-8 * max(1.0, np.abs(direct).max())


def test_jacobian_skips_empty_pair_patterns():
    # at full density no task is answered by exactly two workers
    jac = numerical_jacobian(prob_estimate(expected_counts(ARITY2, (0.5, 0.5))))
    assert not jac.pair_perturbed.any()
    assert np.isnan(jac.pair_derivs).all()
    assert jac.usable.all()


def test_jacobian_pair_cells_match_direct_differences():
    counts = expected_counts(ARITY2, (0.5, 0.5), densities=(0.9, 0.8, 0.7))
    jac = numerical_jacobian(prob_estimate(counts))
    assert jac.pair_perturbed.all() and jac.pair_usable.all()
    assert jac.pair_derivs.shape == (3, 3, 2, 2, 2, 2)
    scale = np.abs(jac.pair_derivs).max()
    # pattern (1, 0, 1): x is worker 1's label, y is worker 3's
    p = PAIR_PATTERNS.index((1, 0, 1))
    tensor = counts.counts.copy()
    tensor[2, 0, 1] += 1e-3
    plus = prob_estimate(CountsTensor(2, tensor)).recovery.v
    tensor[2, 0, 1] -= 2e-3
    minus = prob_estimate(CountsTensor(2, tensor)).recovery.v
    for w in range(3):
        direct = (plus[w] - minus[w]) / 2e-3
        assert np.abs(jac.pair_derivs[p, w, :, :, 1, 0] - direct).max() < 1e-6 * scale
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
    differential = kary._differential

    def overflowing(rec, directions):
        dv = differential(rec, directions)
        dv[-1, 0, 0, 0] = np.inf
        return dv

    monkeypatch.setattr(kary, "_differential", overflowing)
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
    devs = kary_deviations(counts)
    assert devs.midpoints.shape == (3, 3, 3)
    assert np.allclose(devs.midpoints.sum(axis=2), 1.0, atol=1e-9)
    assert (devs.deviations >= 0).all()


def test_kary_deviations_delta_method_on_p():
    # deviations are sqrt(g' C g) for the gradient g of the reported
    # P = V / rowsum(V), taken over every cell the recovery reads and
    # contracted pattern by pattern with the multinomial blocks
    counts = expected_counts(ARITY2, (0.4, 0.6), n=2000.0,
                             densities=(0.9, 0.8, 0.7))
    devs = kary_deviations(counts)
    eps = 0.01

    def p_stack(tensor):
        v = np.stack(prob_estimate(CountsTensor(2, tensor)).recovery.v)
        return v / v.sum(axis=2, keepdims=True)

    variances = np.zeros((3, 2, 2))
    for pattern in ((1, 1, 1),) + PAIR_PATTERNS:
        axes = [(1, 2) if flag else (0,) for flag in pattern]
        cells = list(product(*axes))
        grads = np.empty((3, 2, 2, len(cells)))
        for n, cell in enumerate(cells):
            tensor = counts.counts.copy()
            tensor[cell] += eps
            plus = p_stack(tensor)
            tensor[cell] -= 2 * eps
            grads[..., n] = (plus - p_stack(tensor)) / (2 * eps)
        block = pattern_covariance(counts, pattern)
        variances += np.einsum("wijc,cd,wijd->wij", grads, block, grads)
    expected = np.sqrt(variances)
    assert np.abs(devs.deviations - expected).max() < 1e-6 * expected.max()


def einsum_deviations(counts):
    """Reference deviations: the three-operand einsum over each pattern block."""
    est = prob_estimate(counts)
    jac = numerical_jacobian(est)
    k = counts.arity
    blocks = [(jac.derivs, pattern_covariance(counts, (1, 1, 1)))]
    blocks += [(jac.pair_derivs[p], pattern_covariance(counts, PAIR_PATTERNS[p]))
               for p in np.flatnonzero(jac.pair_perturbed)]
    row_sums = est.recovery.v.sum(axis=2, keepdims=True)
    p_all = est.recovery.v / row_sums
    variances = np.zeros((3, k, k))
    for derivs, block in blocks:
        dv = derivs.reshape(3, k, k, -1)
        grads = (dv - p_all[..., None] * dv.sum(axis=2, keepdims=True)) / row_sums[..., None]
        variances += np.einsum("wijc,cd,wijd->wij", grads, block, grads)
    return np.sqrt(np.clip(variances, 0.0, None)), jac


def test_kary_deviations_match_the_einsum_contraction():
    # the matrix-product contraction equals the einsum one to rounding, with
    # the pair-only blocks in play at partial density
    for k in (2, 3, 4):
        for dens in ((1.0, 1.0, 1.0), (0.9, 0.8, 0.7)):
            world = _gen_kary_with_matrices(WORKER_MATRIX_FIXTURES[f"arity{k}"], 3000,
                                            list(dens), None, k)
            counts = build_counts(world.dataset, world.dataset.workers)
            expected, jac = einsum_deviations(counts)
            assert jac.pair_perturbed.all() == (dens[0] < 1.0)
            np.testing.assert_allclose(kary_deviations(counts).deviations, expected,
                                       rtol=1e-12, atol=0.0, err_msg=str((k, dens)))


def test_one_recovery_per_triple(monkeypatch):
    # the estimate, the Jacobian and the contraction share one recovery
    counts = expected_counts(ARITY3, (0.2, 0.5, 0.3), densities=(0.9, 0.8, 0.7))
    calls = []

    def spy(tensor, k):
        calls.append(k)
        return _recover(tensor, k)

    monkeypatch.setattr(kary, "_recover", spy)
    kary_deviations(counts)
    assert calls == [3]
    report = kary_confidence_intervals(counts, 0.9)
    assert not report.failed
    assert calls == [3, 3]


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
    devs = kary_deviations(counts)
    z = abs(normal_quantile(0.05))
    for cell in np.ndindex(3, 3, 3):
        midpoint = float(devs.midpoints[cell])
        half_width = z * float(devs.deviations[cell])
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
        seen.append(kary_deviations(counts))
        return seen[-1]

    monkeypatch.setattr(kary, "kary_deviations", spy)
    report = kary_confidence_intervals(counts, 0.9)
    assert not report.failed
    assert report.diagnostics is seen[0].estimate.diagnostics
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
