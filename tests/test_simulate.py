"""Tests for the synthetic crowds and experiment runners."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from crowdgauge.simulate import (
    CONFIDENCE_GRID,
    DEFAULT_BINARY_RATES,
    DENSITY_GRID,
    ExperimentResult,
    SimConfig,
    WORKER_MATRIX_FIXTURES,
    compare_weighting,
    gen_binary_responses,
    gen_binary_workers,
    gen_kary_responses,
    ramp_densities,
    result_to_csv,
    result_to_json,
    round9,
    round9_many,
    run_coverage_experiment,
    run_size_experiment,
    substream,
)
from crowdgauge import simulate
from crowdgauge.simulate import _gen_kary_with_matrices, _grid_rows
from crowdgauge.numerics import normal_quantile


# -- grids and config validation --------------------------------------------


def test_confidence_grid_spans_05_to_95():
    assert len(CONFIDENCE_GRID) == 19
    assert CONFIDENCE_GRID[0] == 0.05
    assert CONFIDENCE_GRID[-1] == 0.95
    steps = np.diff(CONFIDENCE_GRID)
    assert np.allclose(steps, 0.05)


def test_density_grid_spans_half_to_095():
    assert len(DENSITY_GRID) == 10
    assert DENSITY_GRID[0] == 0.5
    assert DENSITY_GRID[-1] == 0.95


def test_simconfig_rejects_bad_values():
    with pytest.raises(ValueError):
        SimConfig(n=0)
    with pytest.raises(ValueError):
        SimConfig(n=10, m=2)
    with pytest.raises(ValueError):
        SimConfig(n=10, replications=0)
    with pytest.raises(ValueError):
        SimConfig(n=10, confidence_grid=())
    with pytest.raises(ValueError):
        SimConfig(n=10, confidence_grid=(0.5, 1.0))
    with pytest.raises(ValueError):
        SimConfig(n=10, weighting="fancy")
    with pytest.raises(ValueError):
        SimConfig(n=10, fixture="arity9")
    with pytest.raises(ValueError):
        SimConfig(n=10, density=0.0)
    with pytest.raises(ValueError):
        SimConfig(n=10, density=1.2)
    with pytest.raises(ValueError):
        SimConfig(n=10, density="steep")
    with pytest.raises(ValueError):
        SimConfig(n=10, m=4, density=(0.5, 0.5))
    with pytest.raises(ValueError):
        SimConfig(n=10, density=float("nan"))
    with pytest.raises(ValueError):
        SimConfig(n=10, m=3, density=(0.5, float("nan"), 0.5))


def test_config_arity_follows_the_fixture():
    # Arity is read from the fixture, never set on its own, so the metadata
    # cannot name an arity the run did not simulate; k-ary worlds always
    # have three workers, so a fixture with another m is rejected.
    assert "arity" not in {f.name for f in dataclasses.fields(SimConfig)}
    assert SimConfig(n=10, m=7).arity == 2
    for k in (2, 3, 4):
        cfg = SimConfig(n=10, fixture=f"arity{k}")
        assert cfg.arity == k
        assert dict(run_coverage_experiment(
            dataclasses.replace(cfg, replications=1)).metadata)["arity"] == str(k)
    with pytest.raises(ValueError, match="3 workers"):
        SimConfig(n=10, m=9, fixture="arity3")


def test_rates_metadata_only_for_binary_configs():
    # k-ary worlds draw no binary error rate, so they name none.
    binary = run_coverage_experiment(SimConfig(n=10, replications=1))
    assert dict(binary.metadata)["rates"] == repr(DEFAULT_BINARY_RATES)
    kary = run_coverage_experiment(SimConfig(n=10, replications=1, fixture="arity3"))
    assert "rates" not in dict(kary.metadata)


def test_ramp_densities_endpoints_and_slope():
    d = ramp_densities(7)
    assert d.shape == (7,)
    assert d[0] == pytest.approx(6.5 / 7)
    assert d[-1] == pytest.approx(0.5)
    assert np.all(np.diff(d) < 0)
    # linear: constant step
    assert np.allclose(np.diff(d), d[1] - d[0])


def test_substream_is_deterministic_and_rep_dependent():
    a = substream(7, 3).random(5)
    b = substream(7, 3).random(5)
    c = substream(7, 4).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- binary generators -------------------------------------------------------


def test_gen_binary_workers_draws_from_rate_pool():
    rng = np.random.default_rng(0)
    rates = gen_binary_workers(9, rng, (0.1, 0.2, 0.3))
    assert rates.shape == (9,)
    assert set(np.round(rates, 10)) <= {0.1, 0.2, 0.3}


def test_gen_binary_workers_frequency_is_uniform():
    rng = np.random.default_rng(11)
    rates = gen_binary_workers(100_000, rng, (0.1, 0.2, 0.3))
    for r in (0.1, 0.2, 0.3):
        assert abs(np.mean(rates == r) - 1 / 3) < 0.01


def test_gen_binary_responses_full_density_is_regular():
    ds, gold = gen_binary_responses((0.1, 0.2, 0.3), 50, 1.0, rng=4)
    assert ds.matrix.shape == (3, 50)
    assert np.all(ds.matrix > 0)
    assert set(np.unique(ds.matrix)) <= {1, 2}
    assert len(gold.labels) == 50
    assert set(gold.labels.values()) <= {1, 2}


def test_gen_binary_responses_matches_error_rates():
    n = 10_000
    rates = (0.05, 0.2, 0.35)
    ds, gold = gen_binary_responses(rates, n, 1.0, rng=5)
    truth = np.array([gold.labels[t] for t in ds.tasks])
    for w, rate in enumerate(rates):
        observed = np.mean(ds.matrix[w] != truth)
        se = math.sqrt(rate * (1 - rate) / n)
        assert abs(observed - rate) < 3 * se + 1e-12


def test_gen_binary_responses_respects_density_vector():
    n = 20_000
    dens = (1.0, 0.5, 0.8)
    ds, _ = gen_binary_responses((0.1, 0.1, 0.1), n, dens, rng=6)
    for w, d in enumerate(dens):
        attempted = np.mean(ds.matrix[w] != 0)
        se = math.sqrt(d * (1 - d) / n)
        assert abs(attempted - d) <= 3 * se + 1e-12


def test_generators_and_configs_share_one_density_rule():
    # A NaN or out-of-range density would give an empty world (or, at 1.7,
    # a full one), so the generators refuse it as configs do.
    for density in (float("nan"), 1.7, 0.0, -0.5, (0.5, float("nan"), 0.5)):
        with pytest.raises(ValueError, match=r"densities must lie in \(0, 1\]"):
            gen_binary_responses((0.1, 0.2, 0.3), 20, density, rng=0)
        with pytest.raises(ValueError, match=r"densities must lie in \(0, 1\]"):
            gen_kary_responses("arity3", 20, density, rng=0)
    with pytest.raises(ValueError, match=r"densities must lie in \(0, 1\]"):
        _gen_kary_with_matrices(WORKER_MATRIX_FIXTURES["arity2"], 20, 1.7, None, 0)
    # configs take one number or "ramp", and no per-worker tuple
    with pytest.raises(ValueError, match="a number or 'ramp'"):
        SimConfig(n=10, m=3, density=(0.5, 0.6, 0.7))


def test_gen_binary_responses_is_deterministic():
    a, ga = gen_binary_responses((0.1, 0.2, 0.3), 40, 0.7, rng=9)
    b, gb = gen_binary_responses((0.1, 0.2, 0.3), 40, 0.7, rng=9)
    assert np.array_equal(a.matrix, b.matrix)
    assert ga.labels == gb.labels


# -- k-ary generators --------------------------------------------------------


def test_fixture_matrices_are_row_stochastic():
    for name, pool in WORKER_MATRIX_FIXTURES.items():
        k = int(name.removeprefix("arity"))
        for mat in pool:
            assert mat.shape == (k, k)
            assert np.allclose(mat.sum(axis=1), 1.0)
            assert np.all(mat >= 0)
    first = WORKER_MATRIX_FIXTURES["arity2"][0]
    assert np.allclose(first[0], [0.9, 0.1])


def test_gen_kary_unknown_fixture_raises():
    with pytest.raises(ValueError):
        gen_kary_responses("arity99", 10)


def test_gen_kary_responses_shape_and_gold():
    world = gen_kary_responses("arity3", 200, 1.0, rng=3)
    assert world.dataset.arity == 3
    assert world.dataset.matrix.shape == (3, 200)
    assert np.all(world.dataset.matrix >= 1)
    assert len(world.matrices) == 3
    for mat in world.matrices:
        assert any(np.array_equal(mat, fix) for fix in WORKER_MATRIX_FIXTURES["arity3"])
    assert np.allclose(world.selectivity, 1 / 3)


def test_gen_kary_conditional_frequencies_match_matrices():
    n = 100_000
    world = gen_kary_responses("arity2", n, 1.0, rng=12)
    truth = np.array([world.gold.labels[t] for t in world.dataset.tasks])
    for w in range(3):
        mat = world.matrices[w]
        for g in (1, 2):
            mask = truth == g
            n_g = int(mask.sum())
            for r in (1, 2):
                observed = np.mean(world.dataset.matrix[w][mask] == r)
                expected = mat[g - 1, r - 1]
                se = math.sqrt(max(expected * (1 - expected), 1e-12) / n_g)
                assert abs(observed - expected) < 4 * se + 1e-9


def test_gen_kary_selectivity_controls_truth_frequencies():
    n = 50_000
    sel = (0.6, 0.3, 0.1)
    world = gen_kary_responses("arity3", n, 1.0, selectivity=sel, rng=8)
    truth = np.array(list(world.gold.labels.values()))
    for g, s in enumerate(sel, start=1):
        se = math.sqrt(s * (1 - s) / n)
        assert abs(np.mean(truth == g) - s) < 4 * se


def test_gen_kary_perfect_workers_reproduce_gold():
    eye = np.eye(3)
    world = _gen_kary_with_matrices((eye, eye, eye), 100, 1.0, None, 7)
    truth = np.array([world.gold.labels[t] for t in world.dataset.tasks])
    assert np.array_equal(world.dataset.matrix, np.tile(truth, (3, 1)))


def test_gen_kary_rejects_bad_selectivity():
    with pytest.raises(ValueError):
        gen_kary_responses("arity3", 10, selectivity=(0.5, 0.5))
    with pytest.raises(ValueError):
        gen_kary_responses("arity3", 10, selectivity=(-0.1, 0.6, 0.5))
    with pytest.raises(ValueError):
        gen_kary_responses("arity3", 10, selectivity=(float("nan"), 1, 1))


# -- coverage experiment -----------------------------------------------------


def test_coverage_experiment_row_shape():
    cfg = SimConfig(n=100, m=3, density=1.0, replications=20, seed=1)
    result = run_coverage_experiment(cfg)
    assert result.experiment == "coverage"
    assert result.columns == ("confidence", "accuracy", "mean_size",
                              "failures", "evaluations")
    assert len(result.rows) == 19
    assert result.column("confidence") == list(CONFIDENCE_GRID)
    for acc in result.column("accuracy"):
        assert 0.0 <= acc <= 1.0
    for size in result.column("mean_size"):
        assert size > 0.0
    meta = dict(result.metadata)
    assert meta["n"] == "100"
    assert meta["seed"] == "1"


def test_coverage_is_bit_identical_across_runs():
    cfg = SimConfig(n=80, m=3, density=1.0, replications=15, seed=42,
                    confidence_grid=(0.5, 0.8, 0.95))
    a = run_coverage_experiment(cfg)
    b = run_coverage_experiment(cfg)
    assert a == b
    assert result_to_csv(a) == result_to_csv(b)


def test_coverage_accuracy_decreases_with_confidence_size_increases():
    # Higher confidence means wider intervals, so coverage cannot drop and
    # mean size strictly grows (same deviations, larger multiplier).
    cfg = SimConfig(n=150, m=3, density=1.0, replications=60, seed=2)
    result = run_coverage_experiment(cfg)
    acc = result.column("accuracy")
    size = result.column("mean_size")
    assert all(b >= a for a, b in zip(acc, acc[1:]))
    assert all(b > a for a, b in zip(size, size[1:]))


def test_coverage_single_replication_has_unit_denominator():
    cfg = SimConfig(n=200, m=3, density=1.0, replications=1, seed=3,
                    confidence_grid=(0.8,))
    result = run_coverage_experiment(cfg)
    (confidence, accuracy, mean_size, failures, evaluations), = result.rows
    assert confidence == 0.8
    assert evaluations + failures == 3
    assert accuracy * evaluations == pytest.approx(round(accuracy * evaluations))


def test_coverage_failures_are_rare_on_easy_worlds():
    cfg = SimConfig(n=150, m=3, density=1.0, replications=60, seed=4,
                    confidence_grid=(0.5,))
    result = run_coverage_experiment(cfg)
    (_, _, _, failures, evaluations), = result.rows
    assert failures / (failures + evaluations) < 0.02


# Binary configs (n, m, density, seed): full and partial density, density
# ramps, ids past w9, and runs where triples or workers fail.
CHUNK_CONFIGS = ((500, 7, 0.8, 0), (100, 7, 0.25, 11), (100, 9, "ramp", 11),
                 (100, 15, 0.8, 0), (40, 12, 0.4, 3), (30, 3, 0.3, 5), (100, 7, "ramp", 0))


@pytest.mark.parametrize("n, m, density, seed", CHUNK_CONFIGS)
def test_binary_rows_do_not_depend_on_the_chunk_size(monkeypatch, n, m, density, seed):
    cfg = SimConfig(n=n, m=m, density=density, seed=seed, replications=30)
    weightings = [("uniform",), ("optimal",)] + ([("uniform", "optimal")] if m >= 5 else [])
    default = [_grid_rows(cfg, CONFIDENCE_GRID, w) for w in weightings]
    for budget, worlds in ((1, 1), (1 << 40, cfg.replications)):
        monkeypatch.setattr(simulate, "_CHUNK_BYTES", budget)
        assert min(simulate._chunk_worlds(m, n), cfg.replications) == worlds
        # repr tells every float apart, and NaN equals NaN
        assert repr([_grid_rows(cfg, CONFIDENCE_GRID, w) for w in weightings]) == repr(default)


def test_binary_chunks_hold_several_worlds_and_failures_are_counted():
    assert 1 < simulate._chunk_worlds(7, 500) < 500
    cfg = SimConfig(n=30, m=3, density=0.3, seed=5, replications=30, confidence_grid=(0.5,))
    (_, _, _, failures, evaluations), = run_coverage_experiment(cfg).rows
    assert failures and evaluations and failures + evaluations == 90


def test_binary_simulation_memory_stays_bounded():
    # Replications are drawn and estimated chunk by chunk, each chunk freed
    # before the next is drawn, so ten times the replications take about
    # the same peak memory.
    small, large = (SimConfig(n=100, m=7, density=0.8, replications=reps, seed=1)
                    for reps in (40, 400))
    _grid_rows(large, (0.5, 0.9), ("optimal",))  # lazy imports and numpy's caches
    peaks = []
    for cfg in (small, large):
        tracemalloc.start()
        try:
            _grid_rows(cfg, (0.5, 0.9), ("optimal",))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 32 * 1024, peaks


def test_kary_coverage_experiment_named_and_shaped():
    cfg = SimConfig(n=300, m=3, fixture="arity2", density=1.0,
                    replications=10, seed=5, confidence_grid=(0.5, 0.9))
    result = run_coverage_experiment(cfg)
    assert result.experiment == "kary-coverage"
    assert len(result.rows) == 2
    for acc in result.column("accuracy"):
        assert 0.0 <= acc <= 1.0
    # each replication scores 3 workers x 4 matrix entries
    (_, _, _, failures, evaluations) = result.rows[0]
    assert evaluations % 12 == 0
    assert evaluations / 12 + failures == 10


def test_kary_eigensolver_failure_counts_as_a_failed_replication(monkeypatch):
    # the five arity-3 replications are recovered as one stack, whose 15
    # slice eigensystems take one np.linalg.eig call; it does not converge,
    # so the slices are solved one call each, and the seventh (replication
    # 2's first slice) does not converge either: that replication alone is
    # lost
    cfg = SimConfig(n=500, m=3, fixture="arity3", density=1.0,
                    replications=5, seed=5, confidence_grid=(0.5,))
    (_, _, _, failures, evaluations), = run_coverage_experiment(cfg).rows
    eig = np.linalg.eig
    calls = []

    def flaky_eig(a):
        calls.append(len(a))
        if len(a) > 1 or len(calls) == 8:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", flaky_eig)
    (_, _, _, flaky_failures, flaky_evaluations), = run_coverage_experiment(cfg).rows
    assert failures == 0 and evaluations == 5 * 27
    assert calls == [15] + [1] * 15
    assert flaky_failures == 1 and flaky_evaluations == 4 * 27


@pytest.mark.parametrize("fixture,n", [("arity2", 20), ("arity3", 40), ("arity4", 60)])
def test_kary_replication_reads_the_estimate_and_its_deviations(fixture, n):
    # A replication's midpoints and deviations are prob_estimate's P and
    # kary_deviations of it, bit for bit, and it fails exactly where either
    # raises. These small worlds fail on 5 to 10 of their 20 replications.
    from crowdgauge.errors import EstimationFailure
    from crowdgauge.kary import build_counts, kary_deviations, prob_estimate
    from crowdgauge.simulate import _kary_chunk

    cfg = SimConfig(n=n, m=3, fixture=fixture, density=0.8 if n > 20 else 0.6,
                    replications=20, seed=3, confidence_grid=(0.9,))
    failed = 0
    outcomes = _kary_chunk(cfg, range(cfg.replications))
    for rep, outcome in enumerate(outcomes):
        world = gen_kary_responses(fixture, n, cfg.density, rng=substream(cfg.seed, rep))
        counts = build_counts(world.dataset, world.dataset.workers)
        try:
            estimate = prob_estimate(counts)
            deviations = kary_deviations(estimate)
        except EstimationFailure:
            assert outcome is None, rep
            failed += 1
            continue
        assert outcome is not None, rep
        truth, mid, dev = outcome
        assert np.array_equal(truth, np.stack(world.matrices))
        assert repr(mid) == repr(estimate.p_matrices)
        assert repr(dev) == repr(deviations)
    assert 0 < failed < cfg.replications


def test_kary_mean_size_measures_intervals_clipped_to_unit_range():
    # Response-probability intervals are intersected with [0, 1] before
    # their half-width is averaged, so the statistic is bounded by 1/2
    # however wild a replication's linearization gets.
    from crowdgauge.simulate import _kary_chunk

    cfg = SimConfig(n=300, m=3, fixture="arity3", density=0.7,
                    replications=6, seed=9, confidence_grid=(0.5, 0.99))
    result = run_coverage_experiment(cfg)
    z = {c: abs(normal_quantile((1 - c) / 2)) for c in cfg.confidence_grid}
    expected = {c: [] for c in cfg.confidence_grid}
    for outcome in _kary_chunk(cfg, range(cfg.replications)):
        if outcome is None:
            continue
        _, mid, dev = outcome
        for c in cfg.confidence_grid:
            lo = np.clip(mid - z[c] * dev, 0.0, 1.0)
            hi = np.clip(mid + z[c] * dev, 0.0, 1.0)
            expected[c].extend((0.5 * (hi - lo)).reshape(-1))
    for row in result.rows:
        confidence, _, mean_size = row[:3]
        assert 0.0 < mean_size <= 0.5
        assert mean_size == pytest.approx(np.mean(expected[confidence]))


# -- size experiments --------------------------------------------------------


def test_size_experiment_requires_an_axis():
    cfg = SimConfig(n=50, m=3, replications=2, confidence_grid=(0.8,))
    with pytest.raises(ValueError):
        run_size_experiment(cfg)


def test_size_experiment_density_mode_requires_single_level():
    cfg = SimConfig(n=50, m=3, replications=2, confidence_grid=(0.5, 0.9))
    with pytest.raises(ValueError):
        run_size_experiment(cfg, densities=(0.8, 1.0))


def test_size_experiment_density_mode_rows():
    cfg = SimConfig(n=120, m=3, replications=25, seed=6, confidence_grid=(0.8,))
    result = run_size_experiment(cfg, densities=(0.6, 0.8, 1.0))
    assert result.experiment == "size-vs-density"
    assert result.columns == ("density", "confidence", "accuracy",
                              "mean_size", "failures", "evaluations")
    assert result.column("density") == [0.6, 0.8, 1.0]
    assert set(result.column("confidence")) == {0.8}
    for size in result.column("mean_size"):
        assert size > 0.0
    meta = dict(result.metadata)
    assert meta["densities"] == repr((0.6, 0.8, 1.0))


def test_size_shrinks_as_density_grows():
    # More shared tasks mean tighter agreement estimates, hence narrower
    # intervals; with enough replications the trend is clean.
    cfg = SimConfig(n=200, m=3, replications=60, seed=7, confidence_grid=(0.8,))
    result = run_size_experiment(cfg, densities=(0.5, 1.0))
    sizes = result.column("mean_size")
    assert sizes[0] > sizes[1]


def test_size_experiment_confidence_mode_monotone():
    # the size across levels is the coverage table's mean_size column
    cfg = SimConfig(n=100, m=3, replications=20, seed=8, confidence_grid=(0.5, 0.8, 0.95))
    result = run_coverage_experiment(cfg)
    assert result.experiment == "coverage"
    sizes = result.column("mean_size")
    assert sizes[0] < sizes[1] < sizes[2]


def test_size_experiment_arity_mode_crosses_fixture_and_density():
    cfg = SimConfig(n=150, m=3, replications=6, seed=9, confidence_grid=(0.8,))
    result = run_size_experiment(cfg, arities=(2, 3), densities=(0.9, 1.0))
    assert result.experiment == "kary-size"
    assert result.columns == ("arity", "density", "confidence", "accuracy",
                              "mean_size", "failures", "evaluations")
    assert result.column("arity") == [2.0, 2.0, 3.0, 3.0]
    assert result.column("density") == [0.9, 1.0, 0.9, 1.0]
    for size in result.column("mean_size"):
        assert size > 0.0
    with pytest.raises(ValueError):
        run_size_experiment(cfg, arities=(5,), densities=(1.0,))


# -- weighting comparison ----------------------------------------------------


def test_compare_weighting_needs_five_workers():
    with pytest.raises(ValueError):
        compare_weighting(SimConfig(n=50, m=4, replications=2))


def test_compare_weighting_optimal_never_wider():
    cfg = SimConfig(n=100, m=7, density="ramp", replications=25, seed=10,
                    confidence_grid=(0.5, 0.9))
    result = compare_weighting(cfg)
    assert result.experiment == "weight-comparison"
    assert result.columns == ("confidence", "accuracy_uniform",
                              "accuracy_optimal", "mean_size_uniform",
                              "mean_size_optimal", "failures", "evaluations")
    uniform = result.column("mean_size_uniform")
    optimal = result.column("mean_size_optimal")
    for u, o in zip(uniform, optimal):
        assert o <= u + 1e-12
        assert o > 0.0
    for name in ("accuracy_uniform", "accuracy_optimal"):
        for acc in result.column(name):
            assert 0.0 <= acc <= 1.0


def test_compare_weighting_matches_single_weighting_coverage():
    # With no failed worker, the paired comparison evaluates exactly the
    # workers each coverage run does, on the same worlds.
    cfg = SimConfig(n=200, m=5, density=1.0, replications=10, seed=13,
                    confidence_grid=(0.3, 0.8, 0.95))
    paired = compare_weighting(cfg)
    for weighting in ("uniform", "optimal"):
        single = run_coverage_experiment(dataclasses.replace(cfg, weighting=weighting))
        assert single.column("failures") == paired.column("failures") == [0.0] * 3
        assert single.column("evaluations") == paired.column("evaluations")
        assert single.column("accuracy") == paired.column(f"accuracy_{weighting}")
        np.testing.assert_allclose(paired.column(f"mean_size_{weighting}"),
                                   single.column("mean_size"), rtol=1e-12, atol=0.0)


def test_compare_weighting_is_deterministic():
    cfg = SimConfig(n=80, m=5, density=1.0, replications=8, seed=11,
                    confidence_grid=(0.8,))
    assert compare_weighting(cfg) == compare_weighting(cfg)


# -- serialization -----------------------------------------------------------


def _tiny_result() -> ExperimentResult:
    return ExperimentResult(
        "coverage",
        ("confidence", "accuracy", "mean_size", "failures", "evaluations"),
        ((0.8, 0.8125, 0.071234567891234, 0.0, 32.0),
         (0.9, float("nan"), 0.09, 1.0, 0.0)),
        (("n", "100"), ("seed", "0")),
    )


def test_round9_many_matches_round9_value_by_value():
    values = [-0.0, 5e-324, 1e-5, 0.0001234, 0.1234567885, 123456789.0, 1e9,
              9.99999999e15, 1e16, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
    got = round9_many(np.array(values).reshape(1, -1))
    assert all(type(x) is float for x in got)
    # repr tells -0.0 from 0.0 and compares NaN equal to itself.
    assert list(map(repr, got)) == [repr(round9(x)) for x in values]
    assert round9_many([]) == []


def test_result_to_csv_format():
    text = result_to_csv(_tiny_result())
    lines = text.strip().splitlines()
    assert lines[0] == "# experiment=coverage"
    assert "# n=100" in lines
    assert "# seed=0" in lines
    header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_idx] == "confidence,accuracy,mean_size,failures,evaluations"
    first = lines[header_idx + 1].split(",")
    assert float(first[0]) == 0.8
    # nine significant digits
    assert first[2] == "0.0712345679"[:len(first[2])]
    assert float(first[2]) == pytest.approx(0.071234567891234, abs=1e-10)
    second = lines[header_idx + 2].split(",")
    assert second[1] == "nan"


def test_result_to_csv_round_trips_through_loader():
    cfg = SimConfig(n=60, m=3, density=1.0, replications=5, seed=12,
                    confidence_grid=(0.5, 0.9))
    result = run_coverage_experiment(cfg)
    text = result_to_csv(result)
    rows = []
    header = None
    for line in text.strip().splitlines():
        if line.startswith("#") or not line:
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(x) for x in line.split(",")])
    assert header == list(result.columns)
    assert len(rows) == len(result.rows)
    for got, want in zip(rows, result.rows):
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-8, abs=1e-12)


def test_result_to_json_nan_becomes_null():
    payload = json.loads(result_to_json(_tiny_result()))
    assert payload["experiment"] == "coverage"
    assert payload["columns"] == ["confidence", "accuracy", "mean_size",
                                  "failures", "evaluations"]
    assert payload["metadata"]["n"] == "100"
    assert payload["rows"][1][1] is None
    assert payload["rows"][0][1] == pytest.approx(0.8125)
