import math

import numpy as np
import pytest

from crowdgauge.binary import _worker_reports
from crowdgauge.errors import (
    EstimationFailure,
    REASON_EIGEN_NONCONVERGENCE,
    REASON_NEGATIVE_VARIANCE,
)
from crowdgauge.numerics import (
    eigendecompose_many,
    eigendecompose_symmetric,
    invert_matrices,
    normal_quantile,
    optimal_weights,
    propagated_deviations,
)
from worker_systems import pack_systems


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def quantile_by_bisection(t, lo=-40.0, hi=40.0):
    # independent oracle: invert the erfc-based CDF by plain bisection
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_normal_quantile_known_value():
    assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-6)
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_normal_quantile_matches_bisection_oracle():
    # above 1 - 1e-7 the erfc-based CDF itself quantizes (double spacing
    # near 1.0 over a ~6e-9 density), so the oracle is no sharper than
    # ~1e-8 in z there; the round-trip test below covers that tail
    grid = [1e-9, 1e-6, 1e-4, 0.001, 0.01, 0.025, 0.05, 0.1, 0.25, 0.4,
            0.5, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-6, 1 - 1e-7]
    for t in grid:
        assert normal_quantile(t) == pytest.approx(
            quantile_by_bisection(t), abs=1e-9), t


def test_normal_quantile_round_trips_through_cdf():
    rng = np.random.default_rng(42)
    for t in rng.uniform(1e-6, 1 - 1e-6, size=200):
        assert normal_cdf(normal_quantile(float(t))) == pytest.approx(
            float(t), abs=1e-12)


def test_normal_quantile_is_antisymmetric():
    for t in (0.01, 0.1, 0.3, 0.45):
        assert normal_quantile(t) == pytest.approx(-normal_quantile(1 - t),
                                                   abs=1e-12)


def test_normal_quantile_rejects_out_of_range():
    for t in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(t)


def one_deviation(gradient, covariance):
    """propagated_deviations of one statistic: (deviation, negative)."""
    (dev,), (negative,) = propagated_deviations(np.array([gradient], dtype=float),
                                                np.array([covariance], dtype=float))
    return dev, negative


def test_propagated_deviation_quadratic_form():
    gradient = [1.0, 2.0]
    cov = np.array([[0.001, 0.0002], [0.0002, 0.002]])
    # g' C g = 0.001 + 2*2*0.0002 + 4*0.002 = 0.0098
    assert one_deviation(gradient, cov) == (pytest.approx(math.sqrt(0.0098), abs=1e-15),
                                            False)


def test_propagated_deviation_rejects_negative_variance():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    assert one_deviation([1.0, -1.0], cov) == (0.0, True)


def test_propagated_deviation_clamps_tiny_negatives():
    cov = np.array([[1e-16, 0.0], [0.0, -1e-16]])
    assert one_deviation([0.0, 1.0], cov) == (0.0, False)


def delta_method_ci(p_hats, gradient, covariance, confidence):
    """A worker report built as the binary pipeline builds one, from triple
    estimates `p_hats` under uniform weights: estimate -+ z sqrt(g'Cg).
    The gradient g is folded into the covariance, D C D with D = diag(2g),
    so that the uniform weights (1/2, 1/2) propagate it."""
    scale = 2.0 * np.asarray(gradient, dtype=float)
    systems = pack_systems([p_hats], [scale[:, None] * np.asarray(covariance) * scale[None, :]])
    report, = _worker_reports(5, systems, confidence, "uniform")
    return report


def test_delta_method_ci_half_width():
    gradient = [1.0, 2.0]
    cov = np.array([[0.001, 0.0002], [0.0002, 0.002]])
    report = delta_method_ci((0.3, 0.3), gradient, cov, 0.95)
    z = abs(quantile_by_bisection(0.025))
    assert not report.failed and report.reason is None
    assert report.confidence == 0.95
    assert report.estimate == 0.3
    half_width = abs(normal_quantile((1.0 - 0.95) / 2.0)) * report.dev
    assert half_width == pytest.approx(z * math.sqrt(0.0098), abs=1e-9)
    assert report.lower == 0.3 - half_width
    assert report.upper == 0.3 + half_width
    assert report.upper - report.lower == pytest.approx(2 * half_width)
    assert report.lower <= 0.3 <= report.upper


def test_delta_method_ci_failure_on_negative_variance():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])
    report = delta_method_ci((0.3, 0.3), [1.0, -1.0], cov, 0.95)
    assert report.failed
    assert report.reason == REASON_NEGATIVE_VARIANCE
    assert (report.estimate, report.lower, report.upper, report.dev) == (None,) * 4


def invert_one(matrix):
    inverses, singular = invert_matrices(np.asarray(matrix, dtype=float)[None])
    assert not singular[0]
    return inverses[0]


def eigendecompose_one(matrix):
    vectors, values, max_imag = eigendecompose_many(np.asarray(matrix, dtype=float)[None])
    return vectors[0], values[0], float(max_imag[0])


def test_invert_matrix_diagonal():
    inv = invert_one(np.diag([2.0, 4.0]))
    assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-15)


def test_invert_matrix_random_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        size = int(rng.integers(1, 7))
        m = rng.normal(size=(size, size)) + np.eye(size) * 3.0
        inv = invert_one(m)
        assert np.allclose(m @ inv, np.eye(size), atol=1e-10)
        assert np.allclose(inv @ m, np.eye(size), atol=1e-10)


def test_invert_matrix_needs_pivoting():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(invert_one(m), m, atol=1e-15)


def test_invert_matrix_singular():
    _, singular = invert_matrices(np.ones((3, 3))[None])
    assert singular.tolist() == [True]


def test_invert_matrices_flags_only_singular_items():
    rng = np.random.default_rng(8)
    stack = np.stack([rng.normal(size=(3, 3)) + np.eye(3) * 3.0,
                      np.ones((3, 3)),
                      np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
                      np.full((3, 3), np.nan)])
    inverses, singular = invert_matrices(stack)
    assert singular.tolist() == [False, True, False, True]
    for item in (0, 2):
        assert np.array_equal(inverses[item], invert_one(stack[item]))


def test_invert_matrices_singularity_is_relative():
    # The rule reads the condition number, not the size of the pivots: a
    # well-conditioned matrix inverts at any scale, and an ill-conditioned
    # one is flagged even when its entries are far from zero.
    rng = np.random.default_rng(9)
    m = rng.normal(size=(3, 3)) + np.eye(3) * 3.0
    stack = np.stack([m, 1e-14 * m, np.diag([1e6, 1e6, 1e-7])])
    inverses, singular = invert_matrices(stack)
    assert singular.tolist() == [False, False, True]
    assert np.allclose(1e-14 * inverses[1], inverses[0], rtol=1e-12, atol=0)
    _, singular = invert_matrices(np.diag([1.0, 1e-13])[None])
    assert singular.tolist() == [True]


def test_eigendecompose_many_matches_single_calls():
    rng = np.random.default_rng(12)
    general = rng.normal(size=(3, 3))
    stack = np.stack([general @ general.T, general,
                      np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])])
    vectors, values, max_imag = eigendecompose_many(stack)
    for item in range(len(stack)):
        e, d, imag = eigendecompose_one(stack[item])
        assert np.array_equal(vectors[item], e)
        assert np.array_equal(values[item], d)
        assert max_imag[item] == imag
    assert max_imag[0] == 0.0 and max_imag[2] == pytest.approx(1.0, abs=1e-12)


def test_eigendecompose_many_non_convergence_fails_with_the_reason_code(monkeypatch):
    # every item goes to eig, symmetric or not; its failure is an
    # estimation failure, not a bare LinAlgError
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    stack = np.array([[[2.0, 1.0], [1.0, 2.0]], [[1.0, 2.0], [0.0, 3.0]]])
    with pytest.raises(EstimationFailure) as info:
        eigendecompose_many(stack)
    assert info.value.reason == REASON_EIGEN_NONCONVERGENCE
    assert "Eigenvalues did not converge" in str(info.value)


def test_eigendecompose_symmetric():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    vectors, values, max_imag = eigendecompose_one(m)
    assert max_imag == 0.0
    assert np.allclose(values, [3.0, 1.0], atol=1e-12)  # descending
    recon = vectors @ np.diag(values) @ np.linalg.inv(vectors)
    assert np.allclose(recon, m, atol=1e-12)
    vectors, values = eigendecompose_symmetric(m)
    assert np.allclose(values, [3.0, 1.0], atol=1e-12)
    assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)
    assert np.allclose(vectors @ np.diag(values) @ vectors.T, m, atol=1e-12)


def test_eigendecompose_general_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(30):
        size = int(rng.integers(2, 6))
        m = rng.normal(size=(size, size))
        m = m @ m.T + np.eye(size) * 0.5  # SPD, well separated with prob 1
        vectors, values, max_imag = eigendecompose_one(m)
        assert max_imag <= 1e-9
        recon = vectors @ np.diag(values) @ np.linalg.inv(vectors)
        assert np.allclose(recon, m, atol=1e-7)
        assert np.all(np.diff(values) <= 1e-12)  # sorted descending


def test_eigendecompose_reports_complex_pairs():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation, eigenvalues +-i
    _, _, max_imag = eigendecompose_one(m)
    assert max_imag == pytest.approx(1.0, abs=1e-12)


def test_optimal_weights_diagonal():
    solution = optimal_weights(np.diag([1.0, 4.0]))
    assert not solution.fallback
    assert np.allclose(solution.weights, [0.8, 0.2], atol=1e-12)
    assert solution.weights.sum() == 1.0


def test_optimal_weights_beats_uniform():
    cov = np.diag([1.0, 4.0])
    best = optimal_weights(cov).weights
    uniform = np.full(2, 0.5)
    assert best @ cov @ best == pytest.approx(0.8, abs=1e-12)
    assert uniform @ cov @ uniform == pytest.approx(1.25, abs=1e-12)
    assert best @ cov @ best < uniform @ cov @ uniform


def test_optimal_weights_never_worse_than_uniform():
    rng = np.random.default_rng(5)
    for _ in range(100):
        size = int(rng.integers(2, 6))
        root = rng.normal(size=(size, size))
        cov = root @ root.T + np.eye(size) * 0.1
        solution = optimal_weights(cov)
        assert not solution.fallback
        assert solution.weights.sum() == pytest.approx(1.0, abs=1e-12)
        uniform = np.full(size, 1.0 / size)
        best_var = solution.weights @ cov @ solution.weights
        assert best_var <= uniform @ cov @ uniform + 1e-12


def test_optimal_weights_scale_invariant():
    rng = np.random.default_rng(19)
    root = rng.normal(size=(4, 4))
    cov = root @ root.T + np.eye(4)
    w1 = optimal_weights(cov).weights
    for scale in (1e-6, 1e-14):
        w2 = optimal_weights(scale * cov).weights
        assert np.allclose(w1, w2, atol=1e-9)


def test_optimal_weights_uniform_fallback():
    # a singular covariance gets uniform weights, never a regularized
    # solution: a zero variance would otherwise take all the weight
    for cov in (np.zeros((3, 3)), np.diag([0.0, 0.25])):
        solution = optimal_weights(cov)
        assert solution.fallback
        assert solution.weights.tolist() == [1.0 / len(cov)] * len(cov)


def test_optimal_weights_rejects_non_finite_covariance():
    with pytest.raises(ValueError):
        optimal_weights(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_optimal_weights_cancelling_solution_falls_back():
    # C^-1 1 = (-1, 1) sums to zero, so it cannot be scaled to unit sum.
    solution = optimal_weights(np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert solution.fallback
    assert np.allclose(solution.weights, [0.5, 0.5])
