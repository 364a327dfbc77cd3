"""Synthetic crowds and the experiments that measure interval quality.

Every experiment is driven by a frozen SimConfig; replication r of a run
with seed s uses the deterministic substream seeded by (s, r), so identical
configs give bit-identical results.

One loop, `_grid_rows`, runs the replications of every experiment. Binary
replications are drawn one world at a time and estimated in chunks of
worlds that fit _CHUNK_BYTES, one `build_worker_system` pass per chunk;
each chunk is freed before the next one is drawn, and the outputs do not
depend on the chunk size. Each worker's triple system is aggregated once
per requested weighting: coverage and the size sweeps request the
configured one, and the weighting comparison requests both on the same
systems. k-ary configs (those with a `fixture`) simulate three workers,
one replication at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .binary import WorldStack, aggregate_system, build_worker_system
from .dataset import GoldLabels, ResponseDataset
from .errors import EstimationFailure
from .kary import build_counts, kary_deviations, prob_estimate
from .numerics import normal_quantile

CONFIDENCE_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
DENSITY_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEFAULT_BINARY_RATES = (0.1, 0.2, 0.3)
# Bytes that one chunk of binary replications may take: its worlds' packed
# attempt rows and pair statistics, and their triple rows while the chunk
# is estimated.
_CHUNK_BYTES = 128 * 1024


def _fixture_matrix(rows) -> np.ndarray:
    mat = np.array(rows, dtype=float)
    if not np.allclose(mat.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError(f"fixture rows must sum to 1: {rows}")
    mat.flags.writeable = False
    return mat


# Response-probability matrices the k-ary experiments draw worker models
# from, keyed by arity. Each matrix row t gives the response distribution
# on tasks whose true label is t.
WORKER_MATRIX_FIXTURES: Mapping[str, tuple[np.ndarray, ...]] = {
    "arity2": (
        _fixture_matrix([[0.9, 0.1], [0.2, 0.8]]),
        _fixture_matrix([[0.8, 0.2], [0.1, 0.9]]),
        _fixture_matrix([[0.9, 0.1], [0.1, 0.9]]),
    ),
    "arity3": (
        _fixture_matrix([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]]),
        _fixture_matrix([[0.8, 0.1, 0.1], [0.2, 0.8, 0.0], [0.0, 0.2, 0.8]]),
        _fixture_matrix([[0.9, 0.0, 0.1], [0.1, 0.9, 0.0], [0.0, 0.2, 0.8]]),
    ),
    "arity4": (
        _fixture_matrix([[0.7, 0.1, 0.1, 0.1], [0.1, 0.6, 0.2, 0.1],
                         [0.0, 0.1, 0.8, 0.1], [0.1, 0.1, 0.1, 0.7]]),
        _fixture_matrix([[0.8, 0.1, 0.0, 0.1], [0.1, 0.8, 0.0, 0.1],
                         [0.1, 0.1, 0.7, 0.1], [0.0, 0.1, 0.2, 0.7]]),
        _fixture_matrix([[0.6, 0.1, 0.2, 0.1], [0.0, 0.7, 0.1, 0.2],
                         [0.1, 0.0, 0.9, 0.0], [0.2, 0.0, 0.0, 0.8]]),
    ),
}


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated experiment.

    `density` is one attempt probability in (0, 1] for every worker, or the
    string "ramp": worker i of m attempts with probability
    (0.5 i + (m - i)) / m. Binary worker error rates are drawn uniformly
    from DEFAULT_BINARY_RATES; k-ary worker models are drawn uniformly from
    the `fixture` matrix set.
    """

    n: int
    m: int = 3
    confidence_grid: tuple[float, ...] = CONFIDENCE_GRID
    density: float | str = 0.8
    replications: int = 500
    seed: int = 0
    weighting: str = "optimal"
    fixture: str | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.m < 3:
            raise ValueError(f"m must be at least 3, got {self.m}")
        if self.replications < 1:
            raise ValueError(f"replications must be positive, got {self.replications}")
        if not self.confidence_grid:
            raise ValueError("confidence grid must be non-empty")
        for c in self.confidence_grid:
            if not 0.0 < c < 1.0:
                raise ValueError(f"confidence levels must lie in (0, 1), got {c}")
        if self.weighting not in ("uniform", "optimal"):
            raise ValueError(f"weighting must be 'uniform' or 'optimal', got {self.weighting!r}")
        if self.fixture is not None and self.fixture not in WORKER_MATRIX_FIXTURES:
            raise ValueError(
                f"unknown fixture {self.fixture!r}; "
                f"choose from {sorted(WORKER_MATRIX_FIXTURES)}")
        if self.fixture is not None and self.m != 3:
            raise ValueError(f"k-ary worlds have 3 workers, got m={self.m}")
        _density_vector(self)  # validates

    @property
    def arity(self) -> int:
        """Task arity: the fixture's k, or 2 for binary configs."""
        if self.fixture is None:
            return 2
        return WORKER_MATRIX_FIXTURES[self.fixture][0].shape[0]


def ramp_densities(m: int) -> np.ndarray:
    """Per-worker densities falling linearly from (0.5 + m - 1) / m to 0.5."""
    i = np.arange(1, m + 1, dtype=float)
    return (0.5 * i + (m - i)) / m


def _per_worker_densities(density, m: int) -> np.ndarray:
    """One attempt density in (0, 1] per worker, from a scalar or a length-m
    sequence; configs and generators all check densities here."""
    dens = np.full(m, float(density)) if np.isscalar(density) else np.asarray(density, float)
    if dens.shape != (m,):
        raise ValueError(f"need one density per worker ({m}), got {dens.shape}")
    if not ((dens > 0) & (dens <= 1)).all():
        raise ValueError(f"densities must lie in (0, 1], got {density!r}")
    return dens


def _density_vector(cfg: SimConfig) -> np.ndarray:
    if isinstance(cfg.density, str) and cfg.density == "ramp":
        return ramp_densities(cfg.m)
    if isinstance(cfg.density, str) or not np.isscalar(cfg.density):
        raise ValueError(f"density must be a number or 'ramp', got {cfg.density!r}")
    return _per_worker_densities(cfg.density, cfg.m)


def substream(seed: int, rep: int) -> np.random.Generator:
    """Independent deterministic generator for one replication."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, rep))))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def gen_binary_workers(m: int, rng=0,
                       rates: Sequence[float] = DEFAULT_BINARY_RATES) -> np.ndarray:
    """Draw m error rates uniformly from the rate set."""
    rng = _as_generator(rng)
    pool = np.asarray(rates, dtype=float)
    return pool[rng.integers(0, pool.size, size=m)]


def gen_binary_responses(rates: Sequence[float], n: int, density, rng=0
                         ) -> tuple[ResponseDataset, GoldLabels]:
    """Simulate binary tasks: uniform truths, symmetric per-worker flips.

    `density` is a scalar or per-worker attempt probability. Returns the
    dataset (all n tasks, attempted or not) and the hidden truths.
    """
    rng = _as_generator(rng)
    rates = np.asarray(rates, dtype=float)
    m = rates.size
    dens = _per_worker_densities(density, m)
    truth = rng.integers(1, 3, size=n)
    attempts = rng.random((m, n)) < dens[:, None]
    flips = rng.random((m, n)) < rates[:, None]
    responses = np.where(flips, 3 - truth[None, :], truth[None, :])
    responses[~attempts] = 0
    ds = ResponseDataset.from_matrix(responses, arity=2)
    return ds, GoldLabels(dict(zip(ds.tasks, truth.tolist())))


@dataclass(frozen=True, eq=False)
class KaryWorld:
    """A simulated k-ary triple: data, truths, and the true worker models."""

    dataset: ResponseDataset
    gold: GoldLabels
    matrices: tuple[np.ndarray, np.ndarray, np.ndarray]
    selectivity: np.ndarray


def gen_kary_responses(fixture: str, n: int, density=1.0,
                       selectivity: Sequence[float] | None = None,
                       rng=0) -> KaryWorld:
    """Simulate a three-worker k-ary crowd from a fixture matrix set.

    Each worker's response-probability matrix is drawn uniformly from the
    fixture; truths follow `selectivity` (uniform when omitted).
    """
    try:
        pool = WORKER_MATRIX_FIXTURES[fixture]
    except KeyError:
        raise ValueError(f"unknown fixture {fixture!r}; "
                         f"choose from {sorted(WORKER_MATRIX_FIXTURES)}") from None
    rng = _as_generator(rng)
    picks = rng.integers(0, len(pool), size=3)
    matrices = tuple(pool[int(p)] for p in picks)
    return _gen_kary_with_matrices(matrices, n, density, selectivity, rng)


def _gen_kary_with_matrices(matrices, n: int, density, selectivity, rng
                            ) -> KaryWorld:
    rng = _as_generator(rng)
    matrices = tuple(np.asarray(m, dtype=float) for m in matrices)
    k = matrices[0].shape[0]
    for m in matrices:
        if m.shape != (k, k):
            raise ValueError("worker matrices must share one square shape")
    if selectivity is None:
        sel = np.full(k, 1.0 / k)
    else:
        sel = np.asarray(selectivity, dtype=float)
        if sel.shape != (k,) or not np.isfinite(sel).all() or (sel < 0).any() \
                or sel.sum() <= 0:
            raise ValueError("selectivity must be a finite nonnegative length-k vector")
        sel = sel / sel.sum()
    dens = _per_worker_densities(density, 3)
    truth = 1 + np.searchsorted(np.cumsum(sel), rng.random(n), side="right")
    truth = np.minimum(truth, k)
    attempts = rng.random((3, n)) < dens[:, None]
    rows = []
    for w in range(3):
        cdf = np.cumsum(matrices[w], axis=1)[truth - 1]
        draw = rng.random(n)
        labels = 1 + (cdf < draw[:, None]).sum(axis=1)
        rows.append(np.minimum(labels, k))
    matrix = np.where(attempts, np.stack(rows), 0)
    ds = ResponseDataset.from_matrix(matrix, arity=k)
    return KaryWorld(ds, GoldLabels(dict(zip(ds.tasks, truth.tolist()))), matrices, sel)


@dataclass(frozen=True)
class ExperimentResult:
    """A rectangular result table plus the configuration that produced it."""

    experiment: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: tuple[tuple[str, str], ...]

    def column(self, name: str) -> list[float]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _metadata(cfg: SimConfig, **extra: object) -> tuple[tuple[str, str], ...]:
    items = {
        "n": cfg.n, "m": cfg.m, "arity": cfg.arity, "density": cfg.density,
        "replications": cfg.replications, "seed": cfg.seed,
        "weighting": cfg.weighting, "fixture": cfg.fixture,
    }
    if cfg.fixture is None:  # only binary worlds draw error rates
        items["rates"] = DEFAULT_BINARY_RATES
    else:  # and only they weight triples
        del items["weighting"]
    items.update(extra)
    return tuple((key, repr(value)) for key, value in items.items())


# -- per-replication estimation --------------------------------------------


def _draw_binary_world(cfg: SimConfig, rep: int, densities: np.ndarray):
    """Replication `rep`'s true rates, and the statistics and packed attempt
    rows its estimation reads; the dataset itself is not kept."""
    rng = substream(cfg.seed, rep)
    rates = gen_binary_workers(cfg.m, rng)
    ds, _ = gen_binary_responses(rates, cfg.n, densities, rng)
    return rates, ds.workers, ds.pair_overlap, ds.pair_agreement, ds.packed_attempts


def _binary_chunk(cfg: SimConfig, reps: range, weightings: Sequence[str]):
    """The binary worlds of replications `reps`: (true rates, estimates,
    deviations, ok mask).

    The worlds are drawn one by one and estimated in one
    build_worker_system pass. Rates and the ok mask are (worlds, m);
    estimates and deviations hold one (worlds, m) block per weighting,
    each aggregating the same worker systems. A worker is ok only when
    every weighting succeeds.
    """
    densities = _density_vector(cfg)
    rates, workers, overlap, agreement, attempts = zip(
        *(_draw_binary_world(cfg, rep, densities) for rep in reps))
    stack = WorldStack.stack(workers[0], cfg.n, np.stack(overlap), np.stack(agreement),
                             np.concatenate(attempts))
    systems = build_worker_system(stack, stack.workers)
    est = np.empty((len(weightings), len(systems.workers)))
    dev = np.empty((len(weightings), len(systems.workers)))
    ok = np.ones(len(systems.workers), dtype=bool)
    for i, weighting in enumerate(weightings):
        aggregates = aggregate_system(systems, weighting)
        est[i], dev[i] = aggregates.estimate, aggregates.dev
        ok &= np.equal(aggregates.reason, None)
    shape = (len(weightings), len(reps), cfg.m)
    return np.stack(rates), est.reshape(shape), dev.reshape(shape), ok.reshape(shape[1:])


def _chunk_worlds(m: int, n: int) -> int:
    """Binary worlds of m workers and n tasks that fit one chunk."""
    # Per world: m packed attempt rows, two m x m statistics, and about
    # m^2 / 2 triple rows of a few hundred bytes in the estimation pass.
    return max(1, _CHUNK_BYTES // (m * (n // 8 + 1) + 200 * m * m))


def _binary_chunks(cfg: SimConfig, weightings: Sequence[str]):
    """Yield the binary replications chunk by chunk, in replication order,
    as `_binary_chunk` returns them.

    A chunk holds the worlds whose arrays fit _CHUNK_BYTES, and it is freed
    before the next one is drawn. Each world's draws and estimates do not
    depend on the chunk size.
    """
    step = _chunk_worlds(cfg.m, cfg.n)
    for start in range(0, cfg.replications, step):
        yield _binary_chunk(cfg, range(start, min(start + step, cfg.replications)),
                            weightings)


def _kary_rep(cfg: SimConfig, rep: int):
    """One k-ary world: (true P stack, midpoints, deviations) or None."""
    rng = substream(cfg.seed, rep)
    world = gen_kary_responses(cfg.fixture, cfg.n, _density_vector(cfg), None, rng)
    counts = build_counts(world.dataset, world.dataset.workers)
    try:
        estimate = prob_estimate(counts)
        deviations = kary_deviations(estimate)
    except EstimationFailure:
        return None
    return np.stack(world.matrices), estimate.p_matrices, deviations


def _grid_rows(cfg: SimConfig, grid: Sequence[float], weightings: Sequence[str]):
    """Coverage/size aggregates per confidence level over all replications.

    Interval size is the half-width: the distance from the point estimate
    to either interval end. Binary error-rate intervals report z * deviation
    directly, once per weighting in `weightings`, all on the same worlds.
    Response-probability intervals (configs with a fixture, which take a
    single weighting) are first intersected with [0, 1] (every estimand is
    a probability, so truncation never loses the target); that keeps the
    average finite when a noisy replication yields a near-singular
    linearization with an enormous deviation. Each replication's estimates
    and deviations are computed once and reused across the whole grid (only
    the quantile multiplier changes). Returns rows of (confidence,
    accuracy per weighting..., mean_size per weighting..., failures,
    evaluations); with no evaluation the accuracies and sizes are NaN.
    """
    z = np.array([abs(normal_quantile((1.0 - c) / 2.0)) for c in grid])
    covered = np.zeros((len(weightings), len(grid)))
    size_sum = np.zeros((len(weightings), len(grid)))
    total = 0
    failures = 0
    if cfg.fixture is not None:
        for rep in range(cfg.replications):
            outcome = _kary_rep(cfg, rep)
            if outcome is None:
                failures += 1
                continue
            truth, mid, dev = outcome
            err = np.abs(mid - truth).reshape(-1)
            mid_flat = mid.reshape(-1)
            half = z[:, None] * dev.reshape(-1)[None, :]
            covered += (err[None, :] <= half).sum(axis=1)
            lo = np.clip(mid_flat[None, :] - half, 0.0, 1.0)
            hi = np.clip(mid_flat[None, :] + half, 0.0, 1.0)
            size_sum += 0.5 * (hi - lo).sum(axis=1)
            total += err.size
    else:
        for rates, est, dev, ok in _binary_chunks(cfg, weightings):
            failures += int((~ok).sum())
            total += int(ok.sum())
            within = np.abs(est - rates)[:, None] <= z[None, :, None, None] * dev[:, None]
            covered += (within & ok).sum(axis=(2, 3))
            # Sizes are summed world by world in replication order, so the
            # float sums keep their bits whatever the chunk size.
            for w in np.flatnonzero(ok.any(axis=1)).tolist():
                size_sum += z[None, :] * dev[:, w, ok[w]].sum(axis=1)[:, None]
    rows = []
    for idx, c in enumerate(grid):
        if total:
            stats = (*(covered[:, idx] / total), *(size_sum[:, idx] / total))
        else:
            stats = (float("nan"),) * (2 * len(weightings))
        rows.append((float(c), *(float(x) for x in stats), float(failures), float(total)))
    return rows


_GRID_COLUMNS = ("confidence", "accuracy", "mean_size", "failures", "evaluations")


def run_coverage_experiment(cfg: SimConfig) -> ExperimentResult:
    """Interval accuracy and mean size across the confidence grid.

    Binary configs cover per-worker error rates; configs with a `fixture`
    cover every response-probability entry of the three workers. Failed
    estimates are counted and excluded from the coverage denominator.
    """
    rows = _grid_rows(cfg, cfg.confidence_grid, (cfg.weighting,))
    name = "kary-coverage" if cfg.fixture is not None else "coverage"
    return ExperimentResult(name, _GRID_COLUMNS, tuple(rows), _metadata(cfg))


def run_size_experiment(cfg: SimConfig,
                        densities: Sequence[float] | None = None,
                        arities: Sequence[int] | None = None) -> ExperimentResult:
    """Mean interval size along a sweep, at the one level in cfg.confidence_grid.

    `densities` alone sweeps attempt density; `arities` (k-ary) crosses
    fixture arities with `densities` (default DENSITY_GRID). The metadata
    leaves out the config values the sweep replaces. (Size across levels is
    the mean_size column of `run_coverage_experiment`.)
    """
    if arities is not None:
        densities = tuple(densities) if densities is not None else DENSITY_GRID
        name, keys, swept = "kary-size", ("arity", "density"), ("arity", "fixture", "density")
        sweep = [((float(k), float(d)), replace(cfg, fixture=f"arity{k}", density=float(d)))
                 for k in arities for d in densities]
        extra = {"arities": tuple(int(k) for k in arities), "densities": densities}
    elif densities is not None:
        name, keys, swept = "size-vs-density", ("density",), ("density",)
        sweep = [((float(d),), replace(cfg, density=float(d))) for d in densities]
        extra = {"densities": tuple(densities)}
    else:
        raise ValueError("choose a sweep axis: densities or arities")
    if len(cfg.confidence_grid) != 1:
        raise ValueError(f"{name} sweep expects a single confidence level")
    level = cfg.confidence_grid[0]
    rows = []
    for key, sub in sweep:
        (_, *stats), = _grid_rows(sub, (level,), (sub.weighting,))
        rows.append((*key, float(level), *stats))
    metadata = tuple(item for item in _metadata(cfg, **extra) if item[0] not in swept)
    return ExperimentResult(name, keys + _GRID_COLUMNS, tuple(rows), metadata)


def compare_weighting(cfg: SimConfig) -> ExperimentResult:
    """Uniform vs minimum-variance aggregation on identical worlds.

    Requires m >= 5 (at least two triples per worker); each replication is
    generated once and both weightings aggregate the same triple estimates.
    A worker counts as evaluated only when both weightings succeed. The
    metadata leaves out cfg.weighting, which the comparison does not use.
    """
    if cfg.m < 5:
        raise ValueError(f"weighting comparison needs m >= 5, got {cfg.m}")
    rows = _grid_rows(cfg, cfg.confidence_grid, ("uniform", "optimal"))
    return ExperimentResult("weight-comparison",
                            ("confidence", "accuracy_uniform", "accuracy_optimal",
                             "mean_size_uniform", "mean_size_optimal",
                             "failures", "evaluations"),
                            tuple(rows),
                            tuple(item for item in _metadata(cfg) if item[0] != "weighting"))


# -- serialization ----------------------------------------------------------


def round9(x: float) -> float:
    """`x` at 9 significant digits, the precision of every number the
    command line writes (NaN stays NaN)."""
    return float(format(float(x), ".9g"))


def result_to_csv(result: ExperimentResult) -> str:
    """Render a result as CSV with `# key=value` metadata comment lines."""
    lines = [f"# experiment={result.experiment}"]
    lines += [f"# {key}={value}" for key, value in result.metadata]
    lines.append(",".join(result.columns))
    # ".9g" writes each rounded value as it reads, without repr's ".0".
    lines += [",".join(format(round9(x), ".9g") for x in row) for row in result.rows]
    return "\n".join(lines) + "\n"


def result_to_json(result: ExperimentResult) -> str:
    """Render a result as JSON (floats at 9 significant digits, NaN as null)."""
    payload = {
        "experiment": result.experiment,
        "metadata": dict(result.metadata),
        "columns": list(result.columns),
        "rows": [[None if x != x else round9(x) for x in row] for row in result.rows],
    }
    return json.dumps(payload, indent=2) + "\n"
