"""Statistical acceptance suite: one test per advertised guarantee.

Each test exercises a complete pipeline (simulation, estimation,
aggregation) at pinned settings and asserts the advertised tolerance, so
`pytest -v tests/test_acceptance.py` prints one pass/fail line per
guarantee. These runs are heavier than the unit tests; the whole file
takes several minutes.
"""

import math
import time

import numpy as np
import pytest

from crowdgauge.binary import (
    agreement_covariances,
    error_rate_from_agreements,
    f_derivatives,
)
from crowdgauge.dataset import prune_spammers
from crowdgauge.kary import CountsTensor, _pattern_cells, pattern_covariance, prob_estimate
from crowdgauge.numerics import normal_quantile, optimal_weights
from crowdgauge.simulate import (
    DENSITY_GRID,
    SimConfig,
    WORKER_MATRIX_FIXTURES,
    compare_weighting,
    gen_binary_responses,
    run_coverage_experiment,
    run_size_experiment,
    substream,
)

GRID_9 = tuple(round(0.1 * i, 1) for i in range(1, 10))
GRID_8 = tuple(round(0.1 * i, 1) for i in range(1, 9))


def true_agreement(p_a: float, p_b: float) -> float:
    """Chance two independent workers coincide on a binary task."""
    return (1.0 - p_a) * (1.0 - p_b) + p_a * p_b


def count_inversions(values) -> int:
    """Adjacent pairs where a nominally non-increasing series went up."""
    return sum(1 for a, b in zip(values, values[1:]) if b > a)


def test_criterion_01_binary_interval_size():
    """Three regular workers, n=100, c=0.5: mean half-width 0.07 +- 0.02.

    Also asserts the 500-replication run finishes within a minute.
    """
    cfg = SimConfig(n=100, m=3, density=1.0, replications=500, seed=0,
                    confidence_grid=(0.5,))
    start = time.perf_counter()
    result = run_coverage_experiment(cfg)
    elapsed = time.perf_counter() - start
    (confidence, accuracy, mean_size, failures, evaluations), = result.rows
    assert confidence == 0.5
    assert evaluations > 0
    assert 0.05 <= mean_size <= 0.09, f"mean size {mean_size:.4f} not in [0.05, 0.09]"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_02_binary_coverage():
    """Seven workers at density 0.8, n=100: coverage within 0.05 of target.

    Every confidence level from 0.1 to 0.9 must be matched by the fraction
    of intervals that contain the true error rate, within two minutes.
    """
    cfg = SimConfig(n=100, m=7, density=0.8, replications=500, seed=0,
                    confidence_grid=GRID_9)
    start = time.perf_counter()
    result = run_coverage_experiment(cfg)
    elapsed = time.perf_counter() - start
    worst = max(abs(acc - c) for c, acc in
                zip(result.column("confidence"), result.column("accuracy")))
    assert worst <= 0.05, f"max |accuracy - confidence| = {worst:.4f} > 0.05"
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_03_weight_optimization():
    """Ramp-density pool, m=7, c=0.5: tuned weights beat uniform weights.

    Expects mean half-width about 0.05 with minimum-variance weights versus
    about 0.12 with uniform weights, a ratio of at least 1.8, over 500
    paired replications.
    """
    cfg = SimConfig(n=100, m=7, density="ramp", replications=500, seed=0,
                    confidence_grid=(0.5,))
    result = compare_weighting(cfg)
    (row,) = result.rows
    columns = dict(zip(result.columns, row))
    optimal = columns["mean_size_optimal"]
    uniform = columns["mean_size_uniform"]
    assert 0.03 <= optimal <= 0.07, f"optimal mean size {optimal:.4f} not in [0.03, 0.07]"
    assert 0.08 <= uniform <= 0.16, f"uniform mean size {uniform:.4f} not in [0.08, 0.16]"
    ratio = uniform / optimal
    assert ratio >= 1.8, f"uniform/optimal ratio {ratio:.3f} < 1.8"


def test_criterion_04_size_vs_density():
    """n=300, m=7, c=0.8: widths shrink as attempt density grows.

    At most one adjacent inversion across d = 0.5..0.95, and the width at
    d=0.5 must be 1.4x to 2.5x the width at d=0.95.
    """
    cfg = SimConfig(n=300, m=7, replications=200, seed=0,
                    confidence_grid=(0.8,))
    result = run_size_experiment(cfg, densities=DENSITY_GRID)
    sizes = result.column("mean_size")
    assert count_inversions(sizes) <= 1, f"sizes not monotone: {sizes}"
    ratio = sizes[0] / sizes[-1]
    assert 1.4 <= ratio <= 2.5, f"size(0.5)/size(0.95) = {ratio:.3f} not in [1.4, 2.5]"


def test_criterion_05_kary_coverage():
    """Response-probability intervals hit their coverage targets.

    With n=1000 (arities 2 and 3) empirical coverage tracks the confidence
    level within 0.05 everywhere. With n=100 (arities 3 and 4) the method
    may over-cover but must never fall more than 0.03 below the target for
    levels up to 0.8.
    """
    for arity in (2, 3):
        cfg = SimConfig(n=1000, m=3, fixture=f"arity{arity}",
                        density=1.0, replications=500, seed=0,
                        confidence_grid=GRID_9)
        result = run_coverage_experiment(cfg)
        worst = max(abs(acc - c) for c, acc in
                    zip(result.column("confidence"), result.column("accuracy")))
        assert worst <= 0.05, (
            f"arity {arity}, n=1000: max |accuracy - confidence| = {worst:.4f} > 0.05")
    for arity in (3, 4):
        cfg = SimConfig(n=100, m=3, fixture=f"arity{arity}",
                        density=1.0, replications=500, seed=0,
                        confidence_grid=GRID_8)
        result = run_coverage_experiment(cfg)
        worst = min(acc - c for c, acc in
                    zip(result.column("confidence"), result.column("accuracy")))
        assert worst >= -0.03, (
            f"arity {arity}, n=100: accuracy dips {worst:.4f} below confidence")


def test_kary_coverage_at_partial_density():
    """Response-probability intervals hold their coverage at partial density.

    At attempt densities 0.6 and 0.8 many tasks are answered by only two of
    the three workers, and those pair-only counts feed the recovery. With
    n=1000 (arities 2 and 3) empirical coverage must never fall more than
    0.03 below the target for levels up to 0.8.
    """
    for arity in (2, 3):
        for density in (0.6, 0.8):
            cfg = SimConfig(n=1000, m=3, fixture=f"arity{arity}",
                            density=density, replications=200, seed=0,
                            confidence_grid=GRID_8)
            result = run_coverage_experiment(cfg)
            worst = min(acc - c for c, acc in
                        zip(result.column("confidence"), result.column("accuracy")))
            assert worst >= -0.03, (
                f"arity {arity}, d={density}: accuracy dips {worst:.4f} "
                f"below confidence")


def test_criterion_06_kary_size_ordering():
    """n=500, c=0.8: widths grow strictly with arity, shrink with density.

    Mean half-widths must order k=2 < k=3 < k=4 at every density from 0.5
    to 0.95, with at most one adjacent density inversion per arity. The
    density checks run last; the k=4 curve is the tightest of them, since
    its widths only come out monotone when the deviations carry the
    sampling variance of the pair-only count cells, whose share grows as
    density falls.
    """
    sizes = {}
    for arity in (2, 3, 4):
        cfg = SimConfig(n=500, m=3, replications=200, seed=0,
                        confidence_grid=(0.8,))
        result = run_size_experiment(cfg, arities=(arity,),
                                     densities=DENSITY_GRID)
        sizes[arity] = result.column("mean_size")
    for idx, density in enumerate(DENSITY_GRID):
        s2, s3, s4 = sizes[2][idx], sizes[3][idx], sizes[4][idx]
        assert s2 < s3 < s4, (
            f"arity ordering violated at d={density}: "
            f"k2={s2:.4f} k3={s3:.4f} k4={s4:.4f}")
    for arity in (2, 3, 4):
        assert count_inversions(sizes[arity]) <= 1, (
            f"arity {arity} sizes not monotone in density: "
            f"{[round(s, 4) for s in sizes[arity]]}")


def test_criterion_07a_agreement_inversion_round_trip():
    """Exact error rates come back from exact agreement rates, to 1e-12."""
    axis = np.linspace(0.05, 0.45, 22)[1:-1]
    worst = 0.0
    for p1 in axis:
        for p2 in axis:
            q12 = true_agreement(p1, p2)
            for p3 in axis:
                q13 = true_agreement(p1, p3)
                q23 = true_agreement(p2, p3)
                worst = max(
                    worst,
                    abs(error_rate_from_agreements(q12, q13, q23) - p1),
                    abs(error_rate_from_agreements(q12, q23, q13) - p2),
                    abs(error_rate_from_agreements(q13, q23, q12) - p3))
    assert worst < 1e-12, f"round-trip error {worst:.3e} >= 1e-12"


def test_criterion_07b_derivatives_vs_finite_differences():
    """Closed-form partials match central differences to 1e-6 relative."""
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(0.05, 0.45, size=3)
        q = (true_agreement(p[0], p[1]), true_agreement(p[0], p[2]),
             true_agreement(p[1], p[2]))
        exact = f_derivatives(*q)
        for axis in range(3):
            hi = list(q)
            lo = list(q)
            hi[axis] += h
            lo[axis] -= h
            numeric = (error_rate_from_agreements(*hi)
                       - error_rate_from_agreements(*lo)) / (2.0 * h)
            worst = max(worst, abs(numeric - exact[axis]) / abs(exact[axis]))
    assert worst < 1e-6, f"max relative derivative error {worst:.3e} >= 1e-6"


class _TrueStats:
    """Population agreement statistics for a regular three-worker pool."""

    def __init__(self, rates, n):
        self.rates = {"a": rates[0], "b": rates[1], "c": rates[2]}
        self.n = n

    def q(self, x, y):
        return true_agreement(self.rates[x], self.rates[y])

    def c2(self, x, y):
        return self.n

    def c3(self, x, y, z):
        return self.n


def test_criterion_07c_covariance_formulas_vs_monte_carlo():
    """Covariance formulas agree with 10^4-draw empirical covariances.

    Checks the agreement-rate covariance model (variance and shared-worker
    terms) and the response-count covariance model (within and across
    attempt patterns); at least 95% of entries must land within 3 standard
    errors of the empirical value.
    """
    draws = 10_000
    rng = np.random.default_rng(3)
    within = 0
    checked = 0

    # Agreement rates: three regular workers, n=200 tasks.
    rates = (0.12, 0.22, 0.32)
    n = 200
    errors = rng.random((draws, 3, n)) < np.asarray(rates)[None, :, None]
    q_hat = np.stack([
        (errors[:, 0] == errors[:, 1]).mean(axis=1),
        (errors[:, 0] == errors[:, 2]).mean(axis=1),
        (errors[:, 1] == errors[:, 2]).mean(axis=1),
    ], axis=1)
    empirical = np.cov(q_hat, rowvar=False)
    truth = _TrueStats(rates, n)
    formula = agreement_covariances(
        (truth.q("a", "b"), truth.q("a", "c"), truth.q("b", "c")),
        (n, n, n), n, rates)
    for r in range(3):
        for c in range(3):
            se = math.sqrt((formula[r, r] * formula[c, c]
                            + formula[r, c] ** 2) / (draws - 1))
            checked += 1
            within += int(abs(empirical[r, c] - formula[r, c]) <= 3.0 * se)

    # Response counts: one all-three pattern and one two-worker pattern.
    n3, probs3 = 400, np.array([0.30, 0.25, 0.25, 0.20])
    cells3 = ((1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2))
    n2, probs2 = 250, np.array([0.55, 0.45])
    cells2 = ((1, 1, 0), (2, 1, 0))
    tensor = np.zeros((3, 3, 3))
    for cell, prob in zip(cells3, probs3):
        tensor[cell] = n3 * prob
    for cell, prob in zip(cells2, probs2):
        tensor[cell] = n2 * prob
    counts = CountsTensor(2, tensor)

    def covariance(a, b):
        pattern = tuple(int(x > 0) for x in a)
        if pattern != tuple(int(x > 0) for x in b):
            return 0.0
        pattern_cells = _pattern_cells(pattern, 2)
        return pattern_covariance(counts, pattern)[pattern_cells.index(a),
                                                   pattern_cells.index(b)]

    samples = np.hstack([rng.multinomial(n3, probs3, size=draws),
                         rng.multinomial(n2, probs2, size=draws)]).astype(float)
    empirical = np.cov(samples, rowvar=False)
    cells = cells3 + cells2
    for a, cell_a in enumerate(cells):
        for b, cell_b in enumerate(cells):
            expected = covariance(cell_a, cell_b)
            var_a = covariance(cell_a, cell_a)
            var_b = covariance(cell_b, cell_b)
            se = math.sqrt((var_a * var_b + expected ** 2) / (draws - 1))
            checked += 1
            within += int(abs(empirical[a, b] - expected) <= 3.0 * se)

    assert checked == 45
    fraction = within / checked
    assert fraction >= 0.95, f"only {within}/{checked} entries within 3 SE"


def test_criterion_07d_weight_optimality():
    """Minimum-variance weights beat 1000 random simplex weightings.

    Runs over 50 random symmetric positive-definite covariance matrices of
    sizes 2 through 5.
    """
    rng = np.random.default_rng(11)
    violations = 0
    for trial in range(50):
        k = 2 + trial % 4
        b = rng.normal(size=(k, k))
        cov = b @ b.T + 0.05 * np.eye(k)
        weights = np.asarray(optimal_weights(cov).weights)
        best = float(weights @ cov @ weights)
        candidates = rng.dirichlet(np.ones(k), size=1000)
        variances = np.einsum("ij,jk,ik->i", candidates, cov, candidates)
        violations += int((best > variances + 1e-12).sum())
    assert violations == 0, f"{violations} simplex weightings beat the optimum"


def test_criterion_07e_noiseless_spectral_recovery():
    """Expected counts reproduce every fixture's scaled matrices to 1e-8.

    Feeding exact expected counts (uniform truth distribution, full
    density) through the spectral recovery must return every worker's
    response-probability matrix scaled row-wise by the square root of the
    truth probabilities, and the uniform truth distribution itself, to
    1e-8.
    """
    for name, matrices in WORKER_MATRIX_FIXTURES.items():
        k = matrices[0].shape[0]
        sel = np.full(k, 1.0 / k)
        tensor = np.zeros((k + 1, k + 1, k + 1))
        for t in range(k):
            outer = np.einsum("a,b,c->abc", matrices[0][t], matrices[1][t],
                              matrices[2][t])
            tensor[1:, 1:, 1:] += 1000.0 * sel[t] * outer
        estimate = prob_estimate(CountsTensor(k, tensor))
        scale = np.sqrt(sel)[:, None]
        for v, truth in zip(estimate.recovery.v, matrices):
            err = float(np.abs(v - scale * truth).max())
            assert err < 1e-8, f"{name}: recovery error {err:.3e} >= 1e-8"
        sel_err = float(np.abs(estimate.selectivity - sel).max())
        assert sel_err < 1e-8, f"{name}: selectivity error {sel_err:.3e} >= 1e-8"


def test_criterion_07f_normal_quantile():
    """The 2.5% normal quantile matches -1.959964 and a bisection oracle."""
    value = normal_quantile(0.025)
    assert abs(value + 1.959964) < 1e-6, f"quantile(0.025) = {value:.8f}"
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < 0.025:
            lo = mid
        else:
            hi = mid
    assert abs(value - 0.5 * (lo + hi)) < 1e-6


def test_criterion_08_spammer_pruning():
    """Majority-disagreement pruning removes spammers, keeps honest workers.

    Ten-worker pools with two coin-flip spammers (error rate 0.5) and eight
    honest workers (rates 0.1 to 0.3), n=300: across 50 seeded runs, at
    least 90% must remove exactly the two spammers.
    """
    successes = 0
    runs = 50
    for trial in range(runs):
        rng = substream(1000, trial)
        good = rng.choice((0.1, 0.2, 0.3), size=8)
        rates = np.concatenate([good, [0.5, 0.5]])
        order = rng.permutation(10)
        rates = rates[order]
        spammer_ids = {f"w{pos + 1}" for pos in np.nonzero(rates == 0.5)[0]}
        ds, _ = gen_binary_responses(rates, 300, 1.0, rng)
        _, removed = prune_spammers(ds, threshold=0.4)
        removed_ids = {r.worker for r in removed}
        successes += int(removed_ids == spammer_ids)
    assert successes >= 0.9 * runs, f"only {successes}/{runs} runs pruned cleanly"
