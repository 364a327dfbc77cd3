"""Workloads of the crowdgauge benchmark: inputs, command lines and checks.

A workload writes its input files from a seed, names the `crowdgauge`
command line that reads them, counts the operations one invocation
attempts and fails, and checks an invocation's output. The checks compare
against quantities the benchmark computes from its own generated data, or
against properties the method must have; none compares against a saved
output. Each check returns a list of problems, empty when the output
passes, so a test can show which check rejects a corrupted output.

`crowdgauge` must be importable before this module is used.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

CONFIDENCE = 0.9
# The command line rounds values to 9 significant digits, a relative error
# below 5e-8 each, so a sum of them can miss its target by that much of
# the sum of their magnitudes.
ROUNDING = 1e-7


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _write_csv(path: Path, header: str, lines: list[str]) -> None:
    path.write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")


def _response_lines(labels: np.ndarray, attempted: np.ndarray,
                    worker_ids: list[str], task_ids: list[str]) -> list[str]:
    """CSV rows `task,worker,label`, task-major, for the attempted cells."""
    tasks, workers = np.nonzero(attempted.T)
    values = labels[workers, tasks]
    return [f"{task_ids[t]},{worker_ids[w]},{v}"
            for t, w, v in zip(tasks.tolist(), workers.tolist(), values.tolist())]


def sums_to_one(values) -> bool:
    return abs(sum(values) - 1.0) <= ROUNDING * max(1.0, sum(abs(v) for v in values))


def binomial_floor(trials: int, p: float, alpha: float) -> int:
    """Largest k with P(X < k) <= alpha for X ~ Binomial(trials, p)."""
    cdf = 0.0
    for k in range(trials + 1):
        mass = math.comb(trials, k) * p ** k * (1.0 - p) ** (trials - k)
        if cdf + mass > alpha:
            return k
        cdf += mass
    return trials


@dataclass
class Prepared:
    """One workload's generated inputs and what the checks need of them."""

    argv: list[str]
    output: Path
    truth: dict


# -- binary-m81 ----------------------------------------------------------------


@dataclass(frozen=True)
class BinaryWorkload:
    """`evaluate --gold` on a synthetic binary crowd where every pair overlaps.

    Truths are uniform on {1, 2}; each worker's error rate is drawn from
    `rates`, and each worker attempts each task with probability `density`.
    """

    name: str = "binary-m81"
    workers: int = 81
    tasks: int = 2000
    density: float = 0.8
    rates: tuple[float, ...] = (0.1, 0.2, 0.3)
    # Tail mass below the binomial coverage floor. Workers' intervals share
    # data, so their coverage is overdispersed against the binomial: over 25
    # seeds 64..79 of 81 were covered, and the 1e-3 floor is 64. At 1e-6
    # the floor is 58.
    coverage_alpha: float = 1e-6

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        rng = _rng(seed, 1)
        rates = rng.choice(np.asarray(self.rates), size=self.workers)
        truth = rng.integers(1, 3, size=self.tasks)
        attempted = rng.random((self.workers, self.tasks)) < self.density
        flips = rng.random((self.workers, self.tasks)) < rates[:, None]
        labels = np.where(flips, 3 - truth[None, :], truth[None, :])
        worker_ids = [f"w{i:03d}" for i in range(self.workers)]
        task_ids = [f"t{j:05d}" for j in range(self.tasks)]
        seen = attempted.any(axis=0)
        _write_csv(workdir / "responses.csv", "task_id,worker_id,response",
                   _response_lines(labels, attempted, worker_ids, task_ids))
        _write_csv(workdir / "gold.csv", "task_id,response",
                   [f"{task_ids[j]},{truth[j]}" for j in np.flatnonzero(seen)])
        wrong = (labels != truth[None, :]) & attempted
        disagreement = wrong.sum(axis=1) / attempted.sum(axis=1)
        output = workdir / "reports.json"
        argv = ["evaluate", "--input", str(workdir / "responses.csv"),
                "--gold", str(workdir / "gold.csv"), "--output", str(output),
                "--confidence", str(CONFIDENCE)]
        return Prepared(argv, output, {
            "rates": dict(zip(worker_ids, rates.tolist())),
            "disagreement": dict(zip(worker_ids, disagreement.tolist())),
        })

    def operations(self, output) -> tuple[int, int]:
        return len(output), sum(1 for r in output if r["failed"])

    def check_workers(self, prepared: Prepared, output) -> list[str]:
        got = sorted(r["worker"] for r in output)
        want = sorted(prepared.truth["rates"])
        return [] if got == want else [f"reported workers {got[:3]}... != generated"]

    def check_proxy(self, prepared: Prepared, output) -> list[str]:
        own = prepared.truth["disagreement"]
        return [f"{r['worker']}: proxy_error_rate {r['proxy_error_rate']} != {own[r['worker']]}"
                for r in output
                if r["proxy_error_rate"] is None
                or abs(r["proxy_error_rate"] - own[r["worker"]]) > 1e-8]

    def check_triples(self, prepared: Prepared, output) -> list[str]:
        # Every pair overlaps, so greedy pairing uses all other workers.
        want = (len(prepared.truth["rates"]) - 1) // 2
        problems = [f"{r['worker']}: {r['triples_used']} + {r['triples_failed']} triples != {want}"
                    for r in output
                    if not r["failed"] and r["triples_used"] + r["triples_failed"] != want]
        problems += [f"{r['worker']}: {len(r['weights'])} weights for {r['triples_used']} triples"
                     for r in output
                     if not r["failed"] and len(r["weights"]) != r["triples_used"]]
        return problems

    def check_intervals(self, prepared: Prepared, output) -> list[str]:
        problems = []
        for r in output:
            if r["failed"]:
                continue
            if not sums_to_one(r["weights"]):
                problems.append(f"{r['worker']}: weights sum to {sum(r['weights'])}")
            if not r["lower"] <= r["estimate"] <= r["upper"]:
                problems.append(f"{r['worker']}: estimate {r['estimate']} outside "
                                f"[{r['lower']}, {r['upper']}]")
        return problems

    def check_coverage(self, prepared: Prepared, output) -> list[str]:
        rates = prepared.truth["rates"]
        ok = [r for r in output if not r["failed"]]
        covered = sum(1 for r in ok if r["lower"] <= rates[r["worker"]] <= r["upper"])
        floor = binomial_floor(len(ok), CONFIDENCE, self.coverage_alpha)
        return [] if covered >= floor else [
            f"{covered} of {len(ok)} true rates covered, floor {floor}"]

    def notes(self, prepared: Prepared, output) -> list[str]:
        rates = prepared.truth["rates"]
        ok = [r for r in output if not r["failed"]]
        covered = sum(1 for r in ok if r["lower"] <= rates[r["worker"]] <= r["upper"])
        worst = max((abs(r["estimate"] - rates[r["worker"]]) for r in ok), default=0.0)
        return [f"true rates covered: {covered} of {len(ok)}; max |estimate - rate| {worst:.4f}"]


# -- kary-k4-m8 ----------------------------------------------------------------


# The k=4 spectral recovery fails a few triples on about half of all
# samples (see bench/README.md), so which triples fail depends on the
# sample. The benchmark keeps the failed share identical across seeds by
# drawing the k-ary responses from this fixed seed; at it no triple fails.
KARY_DATA_SEED = 0


@dataclass(frozen=True)
class KaryWorkload:
    """`evaluate-kary --auto-triples` on a k=4 crowd at partial density.

    Worker w answers by the arity-4 fixture matrix w mod 3 of
    `crowdgauge.simulate.WORKER_MATRIX_FIXTURES`; truths are uniform. The
    threshold admits every triple, each sharing about n d^3 tasks.
    """

    name: str = "kary-k4-m8"
    workers: int = 8
    tasks: int = 3000
    density: float = 0.7
    threshold: int = 500
    coverage_floor: float = 0.85

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        from crowdgauge.simulate import WORKER_MATRIX_FIXTURES

        fixtures = WORKER_MATRIX_FIXTURES["arity4"]
        k = fixtures[0].shape[0]
        rng = _rng(KARY_DATA_SEED, 2)
        matrices = [np.asarray(fixtures[w % len(fixtures)]) for w in range(self.workers)]
        truth = rng.integers(1, k + 1, size=self.tasks)
        attempted = rng.random((self.workers, self.tasks)) < self.density
        labels = np.empty((self.workers, self.tasks), dtype=int)
        for w, mat in enumerate(matrices):
            cdf = np.cumsum(mat, axis=1)[truth - 1]
            labels[w] = np.minimum(1 + (cdf < rng.random(self.tasks)[:, None]).sum(axis=1), k)
        worker_ids = [f"w{i}" for i in range(self.workers)]
        task_ids = [f"t{j:05d}" for j in range(self.tasks)]
        _write_csv(workdir / "responses.csv", f"# arity={k}\ntask_id,worker_id,response",
                   _response_lines(labels, attempted, worker_ids, task_ids))
        shared = attempted.astype(np.int64)
        triples = sorted(tuple(sorted(worker_ids[w] for w in t))
                         for t in combinations(range(self.workers), 3)
                         if (shared[t[0]] * shared[t[1]] * shared[t[2]]).sum() >= self.threshold)
        output = workdir / "kary.json"
        argv = ["evaluate-kary", "--input", str(workdir / "responses.csv"),
                "--output", str(output), "--auto-triples", str(self.threshold),
                "--confidence", str(CONFIDENCE)]
        return Prepared(argv, output, {
            "triples": triples,
            "matrices": {wid: mat.tolist() for wid, mat in zip(worker_ids, matrices)},
        })

    def operations(self, output) -> tuple[int, int]:
        triples = output["triples"]
        return len(triples), sum(1 for t in triples if t["failed"])

    @staticmethod
    def _cells(prepared: Prepared, output):
        """(worker, row, col, cell, true value) of every reported interval."""
        truth = prepared.truth["matrices"]
        for record in output["triples"]:
            if record["failed"]:
                continue
            for mat in record["matrices"]:
                for r, row in enumerate(mat["rows"]):
                    for c, cell in enumerate(row):
                        yield mat["worker"], r, c, cell, truth[mat["worker"]][r][c]

    def check_triples(self, prepared: Prepared, output) -> list[str]:
        got = sorted(tuple(sorted(t["workers"])) for t in output["triples"])
        want = prepared.truth["triples"]
        return [] if got == want else [
            f"{len(got)} triples reported, {len(want)} share >= {self.threshold} tasks"]

    def check_rows(self, prepared: Prepared, output) -> list[str]:
        problems = []
        for record in output["triples"]:
            if record["failed"]:
                continue
            name = "/".join(record["workers"])
            if not sums_to_one(record["selectivity"]):
                problems.append(f"{name}: selectivity sums to {sum(record['selectivity'])}")
            for mat in record["matrices"]:
                for r, row in enumerate(mat["rows"]):
                    estimates = [cell["estimate"] for cell in row]
                    if not sums_to_one(estimates):
                        problems.append(f"{name}: {mat['worker']} row {r} sums to {sum(estimates)}")
        return problems

    def check_intervals(self, prepared: Prepared, output) -> list[str]:
        return [f"{w} ({r}, {c}): estimate outside its interval"
                for w, r, c, cell, _ in self._cells(prepared, output)
                if not cell["lower"] <= cell["estimate"] <= cell["upper"]]

    def check_coverage(self, prepared: Prepared, output) -> list[str]:
        hits = [cell["lower"] <= true <= cell["upper"]
                for _, _, _, cell, true in self._cells(prepared, output)]
        share = sum(hits) / len(hits) if hits else 0.0
        return [] if share >= self.coverage_floor else [
            f"{share:.3f} of {len(hits)} true cells covered, floor {self.coverage_floor}"]

    def notes(self, prepared: Prepared, output) -> list[str]:
        cells = list(self._cells(prepared, output))
        covered = sum(cell["lower"] <= true <= cell["upper"] for *_, cell, true in cells)
        worst = max((abs(cell["estimate"] - true) for *_, cell, true in cells), default=0.0)
        outside = sum(not 0.0 <= cell["estimate"] <= 1.0 for *_, cell, _ in cells)
        return [f"true cells covered: {covered} of {len(cells)}; max |P - truth| {worst:.4f}, "
                f"estimates outside [0, 1]: {outside} (neither checked)"]


# -- sim-coverage ----------------------------------------------------------------


@dataclass(frozen=True)
class SimWorkload:
    """`simulate coverage`: thousands of small binary worlds, no input files.

    At n = 300 an estimate fails now and then (1 of 3500 at seed 13: all
    three triples of a worker agreed too little), so a run's failed share
    would move with the seed. At n = 500, 280,000 estimates gave no failure.
    """

    name: str = "sim-coverage"
    n: int = 500
    m: int = 7
    density: float = 0.8
    reps: int = 500
    tolerance: float = 0.05

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        output = workdir / "coverage.json"
        argv = ["simulate", "coverage", "--n", str(self.n), "--m", str(self.m),
                "--d", str(self.density), "--reps", str(self.reps),
                "--seed", str(seed), "--output", str(output)]
        levels = [round(0.05 * i, 2) for i in range(1, 20)]
        return Prepared(argv, output, {"levels": levels, "estimates": self.reps * self.m})

    @staticmethod
    def _rows(output) -> list[dict]:
        return [dict(zip(output["columns"], row)) for row in output["rows"]]

    def operations(self, output) -> tuple[int, int]:
        return self.reps * self.m, int(self._rows(output)[0]["failures"])

    def check_levels(self, prepared: Prepared, output) -> list[str]:
        got = [row["confidence"] for row in self._rows(output)]
        return [] if got == prepared.truth["levels"] else [f"confidence levels {got}"]

    def check_accounting(self, prepared: Prepared, output) -> list[str]:
        want = prepared.truth["estimates"]
        return [f"level {row['confidence']}: {row['failures']} failures + "
                f"{row['evaluations']} evaluations != {want}"
                for row in self._rows(output)
                if row["failures"] + row["evaluations"] != want]

    def check_accuracy(self, prepared: Prepared, output) -> list[str]:
        return [f"level {row['confidence']}: accuracy {row['accuracy']}"
                for row in self._rows(output)
                if row["accuracy"] is None
                or abs(row["accuracy"] - row["confidence"]) > self.tolerance]

    def check_size(self, prepared: Prepared, output) -> list[str]:
        sizes = [row["mean_size"] for row in self._rows(output)]
        return [] if all(a is not None and b is not None and a < b
                         for a, b in zip(sizes, sizes[1:])) else [
            f"mean_size does not rise strictly: {sizes}"]

    def notes(self, prepared: Prepared, output) -> list[str]:
        worst = max(abs(row["accuracy"] - row["confidence"]) for row in self._rows(output))
        return [f"max |accuracy - confidence| {worst:.4f}"]


WORKLOADS = {w.name: w for w in (BinaryWorkload(), KaryWorkload(), SimWorkload())}


def checks(workload) -> dict:
    """The workload's checks by name, e.g. {"coverage": check_coverage}."""
    return {name[len("check_"):]: getattr(workload, name)
            for name in dir(workload) if name.startswith("check_")}


def run_checks(workload, prepared: Prepared, output) -> list[str]:
    """Every problem every check finds, each prefixed by its check's name."""
    return [f"{name}: {problem}"
            for name, check in checks(workload).items()
            for problem in check(prepared, output)]


def read_output(prepared: Prepared):
    return json.loads(prepared.output.read_text(encoding="utf-8"))
