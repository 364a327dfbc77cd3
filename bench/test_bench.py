"""Tests of the benchmark itself: its checks, its tracing and its contract.

Run from the root of the source tree: python3 -m pytest -q bench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crowdgauge import cli  # noqa: E402

SMALL = {
    "binary-m81": workloads.BinaryWorkload(workers=9, tasks=800),
    "kary-k4-m8": workloads.KaryWorkload(workers=4, tasks=3000, threshold=100),
    "sim-coverage": workloads.SimWorkload(reps=200),
}

# Layers each workload must reach, by the metrics their calls move.
CALLED = {
    "binary-m81": ["dataset.load_s", "dataset.responses", "dataset.c3_lookups",
                   "binary.pairing_s", "binary.triple_s", "binary.triples",
                   "binary.cross_cov_s", "binary.cross_cov_pairs", "binary.aggregate_s",
                   "numerics.weights_s", "numerics.weights_calls", "cli.self_s"],
    "kary-k4-m8": ["dataset.load_s", "dataset.responses", "numerics.invert_s",
                   "numerics.invert_items", "numerics.eig_s", "numerics.eig_items",
                   "kary.counts_s", "kary.base_recovery_s", "kary.jacobian_s",
                   "kary.recovered_tensors", "kary.contraction_s", "kary.report_s",
                   "cli.self_s"],
    "sim-coverage": ["binary.pairing_s", "binary.triple_s", "binary.triples",
                     "binary.cross_cov_s", "binary.aggregate_s", "numerics.weights_s",
                     "numerics.weights_calls", "simulate.world_s", "simulate.estimates",
                     "cli.self_s"],
}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Each small workload prepared and run once, untraced."""
    runs = {}
    for name, workload in SMALL.items():
        workdir = tmp_path_factory.mktemp(name)
        prepared = workload.prepare(0, workdir)
        assert cli.main(prepared.argv) == 0
        runs[name] = (workload, prepared, workloads.read_output(prepared))
    return runs


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes_its_checks(small_runs, name):
    workload, prepared, output = small_runs[name]
    assert workloads.run_checks(workload, prepared, output) == []
    attempted, failed = workload.operations(output)
    assert attempted > 0 and failed == 0


def _shift_estimate(out):
    out[0]["estimate"] = out[0]["upper"] + 0.01


def _rescale_weights(out):
    out[0]["weights"] = [1.1 * w for w in out[0]["weights"]]


def _shift_proxy(out):
    out[0]["proxy_error_rate"] += 0.01


def _drop_binary_triple(out):
    out[0]["triples_used"] -= 1
    out[0]["weights"].pop()


def _drop_worker(out):
    out.pop()


def _shift_all_intervals(out):
    for r in out:
        for key in ("estimate", "lower", "upper"):
            r[key] += 0.5


def _rescale_row(out):
    row = out["triples"][0]["matrices"][1]["rows"][2]
    for cell in row:
        for key in ("estimate", "lower", "upper"):
            cell[key] *= 1.1


def _rescale_selectivity(out):
    out["triples"][0]["selectivity"] = [0.5 * s for s in out["triples"][0]["selectivity"]]


def _drop_kary_triple(out):
    out["triples"].pop()


def _estimate_outside_cell(out):
    cell = out["triples"][0]["matrices"][0]["rows"][0][0]
    cell["estimate"] = cell["upper"] + 0.01


def _shift_matrices(out):
    for record in out["triples"]:
        for mat in record["matrices"]:
            mat["rows"] = mat["rows"][1:] + mat["rows"][:1]


def _shift_accuracy(out):
    out["rows"][3][1] += 0.06


def _lose_estimates(out):
    out["rows"][5][4] -= 1


def _flatten_size(out):
    out["rows"][7][2] = out["rows"][6][2]


def _drop_level(out):
    out["rows"].pop()


CORRUPTIONS = [
    ("binary-m81", _shift_estimate, "intervals"),
    ("binary-m81", _rescale_weights, "intervals"),
    ("binary-m81", _shift_proxy, "proxy"),
    ("binary-m81", _drop_binary_triple, "triples"),
    ("binary-m81", _drop_worker, "workers"),
    ("binary-m81", _shift_all_intervals, "coverage"),
    ("kary-k4-m8", _rescale_row, "rows"),
    ("kary-k4-m8", _rescale_selectivity, "rows"),
    ("kary-k4-m8", _drop_kary_triple, "triples"),
    ("kary-k4-m8", _estimate_outside_cell, "intervals"),
    ("kary-k4-m8", _shift_matrices, "coverage"),
    ("sim-coverage", _shift_accuracy, "accuracy"),
    ("sim-coverage", _lose_estimates, "accounting"),
    ("sim-coverage", _flatten_size, "size"),
    ("sim-coverage", _drop_level, "levels"),
]


@pytest.mark.parametrize("name, corrupt, check", CORRUPTIONS,
                         ids=[c[1].__name__.strip("_") for c in CORRUPTIONS])
def test_check_rejects_corrupted_output(small_runs, name, corrupt, check):
    workload, prepared, output = small_runs[name]
    assert workloads.checks(workload)[check](prepared, output) == []
    bad = copy.deepcopy(output)
    corrupt(bad)
    assert workloads.checks(workload)[check](prepared, bad) != []


def test_every_check_is_exercised():
    exercised = {(name, check) for name, _, check in CORRUPTIONS}
    for name, workload in SMALL.items():
        for check in workloads.checks(workload):
            assert (name, check) in exercised


def test_binomial_floor():
    assert workloads.binomial_floor(10, 0.5, 0.0) == 0
    # P(X < 2) = 11/1024 <= 0.011 < P(X < 3) = 56/1024 for X ~ Bin(10, 1/2).
    assert workloads.binomial_floor(10, 0.5, 0.011) == 2


def _package_attributes():
    return {(name, attr): value for name, mod in tracing._package_modules().items()
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_keeps_outputs_and_partitions_time(small_runs, name):
    _, prepared, _ = small_runs[name]
    untraced = prepared.output.read_bytes()
    before = _package_attributes()
    method = cli.ResponseDataset.triple_overlap_by_index
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.call("cli", cli.main, prepared.argv) == 0
    finally:
        tracer.uninstall()
    assert _package_attributes() == before
    assert cli.ResponseDataset.triple_overlap_by_index is method
    assert prepared.output.read_bytes() == untraced
    assert tracer.missing == []
    metrics = tracer.metrics(run.PER_LAYER)
    assert [m for m in CALLED[name] if metrics[m] <= 0] == []
    root = tracer.spans[0]
    total = sum(v for m, v in metrics.items() if run.PER_LAYER[m] == "s")
    assert total == pytest.approx(root[2] - root[1], rel=1e-9)


def test_missing_boundary_is_reported(small_runs):
    _, prepared, _ = small_runs["binary-m81"]
    tracer = tracing.Tracer(tracing.BOUNDARIES + (
        tracing.Boundary("binary:no_such_function", "binary.gone"),))
    tracer.install()
    try:
        assert tracer.call("cli", cli.main, prepared.argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == ["binary:no_such_function"]
    assert tracer.metrics(["binary.gone_s"]) == {"binary.gone_s": 0.0}


def test_benchmark_json_names_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kary-k4-m8", "--seed", "3",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    names = run.END_TO_END if trace == "0" else run.PER_LAYER
    assert {m: v["unit"] for m, v in result["metrics"].items()} == names


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "binary-m81", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
