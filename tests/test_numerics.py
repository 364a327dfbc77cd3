import math

import numpy as np
import pytest

from crowdgauge.errors import EstimationFailure, REASON_EIGEN_NONCONVERGENCE
from crowdgauge.numerics import (
    ConfidenceInterval,
    eigendecompose_many,
    invert_matrices,
    normal_quantile,
    optimal_weights,
    propagated_deviation,
)


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


def test_propagated_deviation_quadratic_form():
    gradient = [1.0, 2.0]
    cov = np.array([[0.001, 0.0002], [0.0002, 0.002]])
    # g' C g = 0.001 + 2*2*0.0002 + 4*0.002 = 0.0098
    assert propagated_deviation(gradient, cov) == pytest.approx(
        math.sqrt(0.0098), abs=1e-15)


def test_propagated_deviation_rejects_negative_variance():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(EstimationFailure) as info:
        propagated_deviation([1.0, -1.0], cov)
    assert "negative variance" in info.value.reason


def test_propagated_deviation_clamps_tiny_negatives():
    cov = np.array([[1e-16, 0.0], [0.0, -1e-16]])
    assert propagated_deviation([0.0, 1.0], cov) == 0.0


def delta_method_ci(estimate, gradient, covariance, confidence):
    """An interval built as the pipelines build theirs: estimate +- z sqrt(g'Cg)."""
    try:
        dev = propagated_deviation(gradient, covariance)
    except EstimationFailure as exc:
        return ConfidenceInterval.failure(confidence, exc.reason)
    z = abs(normal_quantile((1.0 - confidence) / 2.0))
    return ConfidenceInterval(confidence=confidence, estimate=estimate, half_width=z * dev)


def test_delta_method_ci_half_width():
    gradient = [1.0, 2.0]
    cov = np.array([[0.001, 0.0002], [0.0002, 0.002]])
    ci = delta_method_ci(0.3, gradient, cov, 0.95)
    z = abs(quantile_by_bisection(0.025))
    assert not ci.failed
    assert ci.estimate == 0.3
    assert ci.half_width == pytest.approx(z * math.sqrt(0.0098), abs=1e-9)
    assert ci.lower == pytest.approx(0.3 - ci.half_width)
    assert ci.upper == pytest.approx(0.3 + ci.half_width)
    assert ci.width == pytest.approx(2 * ci.half_width)
    assert ci.covers(0.3) and ci.covers(ci.lower) and ci.covers(ci.upper)
    assert not ci.covers(ci.upper + 1e-9)


def test_delta_method_ci_failure_on_negative_variance():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])
    ci = delta_method_ci(0.3, [1.0, -1.0], cov, 0.95)
    assert ci.failed
    assert ci.estimate is None and ci.half_width is None
    assert "negative variance" in ci.reason
    assert not ci.covers(0.3)


def test_confidence_interval_validation():
    with pytest.raises(ValueError):
        ConfidenceInterval(confidence=1.5, estimate=0.1, half_width=0.05)
    with pytest.raises(ValueError):
        ConfidenceInterval(confidence=0.9, estimate=0.1, half_width=-0.05)
    with pytest.raises(ValueError):
        ConfidenceInterval(confidence=0.9, estimate=None, half_width=0.05)
    failure = ConfidenceInterval.failure(0.9, "why not")
    assert failure.failed and failure.reason == "why not"
    assert failure.lower is None and failure.upper is None


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


@pytest.mark.parametrize("solver", ["eigh", "eig"])
def test_eigendecompose_many_non_convergence_fails_with_the_reason_code(
        monkeypatch, solver):
    # symmetric items go to eigh and the others to eig; either solver's
    # failure is an estimation failure, not a bare LinAlgError
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, no_convergence)
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
    solution = optimal_weights(np.zeros((3, 3)))
    assert solution.fallback
    assert np.allclose(solution.weights, np.full(3, 1.0 / 3.0))


def test_optimal_weights_rejects_non_finite_covariance():
    with pytest.raises(ValueError):
        optimal_weights(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_optimal_weights_cancelling_solution_falls_back():
    # C^-1 1 = (-1, 1) sums to zero, so it cannot be scaled to unit sum.
    solution = optimal_weights(np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert solution.fallback
    assert np.allclose(solution.weights, [0.5, 0.5])
