"""End-to-end tests for the crowdgauge command line."""

import json
import os
import re
import shlex
import stat
import subprocess
import sys

import numpy as np
import pytest

from crowdgauge import cli
from crowdgauge.binary import evaluate_all
from crowdgauge.cli import UsageError, main, parse_label_map
from crowdgauge.dataset import (
    GoldLabels, ResponseDataset, load_responses, write_responses_csv)
from crowdgauge.errors import (
    REASON_EIGEN_NONCONVERGENCE, REASON_INSUFFICIENT_OVERLAP, REASON_LOW_AGREEMENT,
    ResponseParseError)
from crowdgauge.simulate import (
    DENSITY_GRID, WORKER_MATRIX_FIXTURES, gen_binary_responses, gen_binary_workers,
    gen_kary_responses, substream)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def assert_refused(exc_type, code, *argv):
    """The command raises exc_type, and main maps it to exit code `code`."""
    args = cli.build_parser().parse_args([str(a) for a in argv])
    with pytest.raises(exc_type):
        args.func(args)
    assert run_cli(*argv) == code


def binary_csv(tmp_path, n=3000, rates=(0.1, 0.2, 0.3), seed=0, density=1.0):
    ds, gold = gen_binary_responses(rates, n, density, rng=seed)
    path = tmp_path / "responses.csv"
    path.write_text(write_responses_csv(ds))
    return path, ds, gold


def gold_csv(tmp_path, gold):
    lines = ["task_id,response"]
    lines += [f"{task},{label}" for task, label in gold.labels.items()]
    path = tmp_path / "gold.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# -- evaluate ----------------------------------------------------------------


def test_evaluate_reports_error_rates(tmp_path, capsys):
    src, ds, _ = binary_csv(tmp_path)
    out = tmp_path / "reports.json"
    rc = run_cli("evaluate", "--input", src, "--output", out, "--confidence", "0.9")
    assert rc == 0
    records = json.loads(out.read_text())
    assert [r["worker"] for r in records] == list(ds.workers)
    for record, rate in zip(records, (0.1, 0.2, 0.3)):
        assert record["failed"] is False
        assert record["confidence"] == 0.9
        assert record["method"] == "three_worker"
        assert record["triples_used"] == 1
        assert record["triples_failed"] == 0
        assert abs(record["estimate"] - rate) < 0.05
        assert record["lower"] <= record["estimate"] <= record["upper"]
        assert record["weights"] == [1.0]
    assert "3 workers, 0 failed" in capsys.readouterr().out


def test_evaluate_gold_proxy_fields(tmp_path):
    src, ds, gold = binary_csv(tmp_path, n=4000, seed=1)
    gpath = gold_csv(tmp_path, gold)
    out = tmp_path / "reports.json"
    rc = run_cli("evaluate", "--input", src, "--output", out, "--gold", gpath)
    assert rc == 0
    records = json.loads(out.read_text())
    for record, rate in zip(records, (0.1, 0.2, 0.3)):
        assert abs(record["proxy_error_rate"] - rate) < 0.03
        assert isinstance(record["covered"], bool)


def test_evaluate_gold_proxy_counts_partial_gold(tmp_path):
    ds, truth = gen_binary_responses((0.1, 0.2, 0.3, 0.2), 600, 0.7, rng=8)
    matrix = ds.matrix.copy()
    matrix[3, :150] = 0  # the fourth worker attempts no gold task
    gold = {t: truth.labels[t] for j, t in enumerate(ds.tasks[:150]) if matrix[:, j].any()}
    ds = ResponseDataset.from_matrix(matrix, ds.workers, ds.tasks, 2)
    src = tmp_path / "responses.csv"
    src.write_text(write_responses_csv(ds))
    gpath = gold_csv(tmp_path, GoldLabels(gold))
    out = tmp_path / "reports.json"
    assert run_cli("evaluate", "--input", src, "--output", out, "--gold", gpath) == 0
    records = {r["worker"]: r for r in json.loads(out.read_text())}
    for worker in ds.workers[:3]:
        answers = [(ds.response(worker, t), g) for t, g in gold.items()
                   if ds.response(worker, t) is not None]
        wrong = sum(1 for label, g in answers if label != g)
        assert records[worker]["proxy_error_rate"] == float(format(wrong / len(answers), ".9g"))
        assert isinstance(records[worker]["covered"], bool)
    assert records[ds.workers[3]]["proxy_error_rate"] is None
    assert records[ds.workers[3]]["covered"] is None


def test_evaluate_uniform_weighting_flag(tmp_path):
    ds, _ = gen_binary_responses((0.1,) * 5, 800, 1.0, rng=2)
    src = tmp_path / "r.csv"
    src.write_text(write_responses_csv(ds))
    out = tmp_path / "o.json"
    rc = run_cli("evaluate", "--input", src, "--output", out,
                 "--weighting", "uniform")
    assert rc == 0
    records = json.loads(out.read_text())
    for record in records:
        assert record["method"] == "m_worker_uniform"
        weights = record["weights"]
        assert len(weights) > 1
        assert weights == pytest.approx([1 / len(weights)] * len(weights))


def low_agreement_world():
    """The low-agreement world of tests/test_binary.py's batched-triple test
    (seed 23): error rates near 1/2 fail some triples on low agreement."""
    rng = np.random.default_rng(23)
    n = 600
    masks = np.zeros((10, n), dtype=bool)
    masks[0, :400] = True
    masks[1, 200:] = True
    masks[2, :200] = masks[2, 400:] = True
    masks[3:] = rng.random((7, n)) < 0.45
    rates = (0.1, 0.1, 0.1, 0.05, 0.15, 0.3, 0.44, 0.47, 0.49, 0.5)
    truth = rng.integers(1, 3, size=n)
    rows = [np.where(rng.random(n) < rate, 3 - truth, truth) for rate in rates]
    return ResponseDataset.from_matrix(np.where(masks, np.stack(rows), 0))


def test_evaluate_counts_failed_triples_by_reason(tmp_path):
    src = tmp_path / "r.csv"
    src.write_text(write_responses_csv(low_agreement_world()))
    out = tmp_path / "o.json"
    assert run_cli("evaluate", "--input", src, "--output", out) == 0
    records = json.loads(out.read_text())
    assert {r["worker"]: r["triples_failed"] for r in records} == {
        "w1": 0, "w2": 1, "w3": 1, "w4": 0, "w5": 1, "w6": 1, "w7": 1,
        "w8": 2, "w9": 2, "w10": 2}
    for record in records:
        if record["triples_failed"]:
            assert record["triple_failures"] == {
                REASON_LOW_AGREEMENT: record["triples_failed"]}
            assert list(record).index("triple_failures") == list(record).index(
                "triples_failed") + 1
        else:
            assert "triple_failures" not in record


def shuffled_csv_rows(ds, seed):
    """(header, rows, shuffled rows) of the dataset's CSV."""
    lines = write_responses_csv(ds).splitlines(keepends=True)
    header, lines = lines[:2], lines[2:]
    shuffled = [lines[i] for i in np.random.default_rng(seed).permutation(len(lines))]
    return header, lines, shuffled


def test_evaluate_records_do_not_depend_on_the_order_of_the_rows(tmp_path):
    # A CSV lists workers in order of first appearance, so the round trip
    # and the shuffled rows give the workers other positions than the
    # in-memory dataset; greedy pairing breaks overlap ties by worker id, so
    # every worker gets the same triples and the same record, and the
    # records are written in worker-id order.
    ds = low_agreement_world()
    header, lines, shuffled = shuffled_csv_rows(ds, 5)
    memory = sorted(evaluate_all(ds, 0.95), key=lambda r: r.worker)
    outputs = []
    for name, body in (("round_trip", lines), ("shuffled", shuffled)):
        text = "".join(header + body)
        loaded = load_responses(text, "csv")
        assert loaded.workers != ds.workers
        assert sorted(evaluate_all(loaded, 0.95), key=lambda r: r.worker) == memory
        src = tmp_path / f"{name}.csv"
        src.write_text(text)
        out = tmp_path / f"{name}.json"
        assert run_cli("evaluate", "--input", src, "--output", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    records = json.loads(outputs[0])
    assert [r["worker"] for r in records] == [r.worker for r in memory]
    assert [r["triples_used"] for r in records] == [r.triples_used for r in memory]


def test_evaluate_exit_codes(tmp_path):
    src, _, _ = binary_csv(tmp_path, n=200)
    out = tmp_path / "o.json"
    # invalid confidence -> usage error
    assert run_cli("evaluate", "--input", src, "--output", out,
                   "--confidence", "1.5") == 1
    # malformed data -> parse error
    bad = tmp_path / "bad.csv"
    bad.write_text("task_id,worker_id,response\nt1,w1,zebra\n")
    assert run_cli("evaluate", "--input", bad, "--output", out) == 2
    # too few workers -> estimator error
    two = tmp_path / "two.csv"
    ds, _ = gen_binary_responses((0.1, 0.1), 50, 1.0, rng=3)
    two.write_text(write_responses_csv(ds))
    assert run_cli("evaluate", "--input", two, "--output", out) == 3
    # missing file -> usage error
    assert run_cli("evaluate", "--input", tmp_path / "nope.csv",
                   "--output", out) == 1


@pytest.mark.parametrize("rep, worker, flag", [(31, "w5", "clamped"),
                                                (58, "w6", "weight_fallback")])
def test_evaluate_records_carry_clamp_and_weight_fallback_flags(tmp_path, rep, worker, flag):
    # sparse worlds (n=100, m=7, d=0.25) drawn as the simulator draws them
    rng = substream(11, rep)
    ds, _ = gen_binary_responses(gen_binary_workers(7, rng), 100, 0.25, rng)
    src = tmp_path / "r.csv"
    src.write_text(write_responses_csv(ds))
    out = tmp_path / "o.json"
    assert run_cli("evaluate", "--input", src, "--output", out) == 0
    flagged = [r["worker"] for r in json.loads(out.read_text()) if r.get(flag)]
    assert flagged == [worker]


def test_evaluate_input_that_is_not_utf8_is_a_parse_error(tmp_path):
    src = tmp_path / "latin1.csv"
    src.write_bytes(b"task_id,worker_id,response\nt1,w\xe9,1\n")
    assert_refused(ResponseParseError, 2, "evaluate", "--input", src,
                   "--output", tmp_path / "o.json")
    assert not (tmp_path / "o.json").exists()


def test_evaluate_min_overlap_below_one_is_a_usage_error(tmp_path, capsys):
    # w4 shares tasks only with w1. With no overlap floor it would be
    # paired with w2, a worker it shares no task with.
    matrix = np.ones((4, 40), dtype=int)
    matrix[:3, 30:] = 0
    matrix[3, :30] = 0
    matrix[1, :3] = 2
    matrix[2, 5:9] = 2
    src = tmp_path / "r.csv"
    src.write_text(write_responses_csv(ResponseDataset.from_matrix(matrix, arity=2)))
    out = tmp_path / "o.json"
    for floor in ("0", "-2"):
        assert run_cli("evaluate", "--input", src, "--output", out,
                       "--min-overlap", floor) == 1
        assert "--min-overlap must be at least 1" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("evaluate", "--input", src, "--output", out) == 0
    records = json.loads(out.read_text())
    assert [r["failed"] for r in records] == [False, False, False, True]
    assert records[3]["reason"] == "insufficient connectivity"


def test_evaluate_non_binary_needs_label_map(tmp_path):
    world = gen_kary_responses("arity3", 1500, 1.0, rng=4)
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(world.dataset))
    out = tmp_path / "o.json"
    assert run_cli("evaluate", "--input", src, "--output", out) == 1
    rc = run_cli("evaluate", "--input", src, "--output", out,
                 "--map", "1:1,2:1,3:2")
    assert rc == 0
    records = json.loads(out.read_text())
    assert len(records) == 3


def test_label_map_parsing():
    # Each table is an expression of the former --map syntax written out
    # over the labels 1..4, e.g. g->floor((g-1)/2)+1.
    assert parse_label_map("1:1,2:1,3:2,4:2") == {1: 1, 2: 1, 3: 2, 4: 2}
    assert parse_label_map("1:4,2:3,3:2,4:1")[2] == 3  # x -> 5 - x
    assert parse_label_map("1:1,2:2,3:2,4:2") == {1: 1, 2: 2, 3: 2, 4: 2}  # min(g, 2)
    assert parse_label_map("1:2,2:2,3:3,4:3") == {1: 2, 2: 2, 3: 3, 4: 3}
    assert parse_label_map("1:1,2:2,3:2,4:2")[4] == 2  # round(g/3)+1
    assert parse_label_map("1:3,2:2,3:1,4:2")[1] == 3  # abs(g-3)+1
    assert parse_label_map(" 1 : 1 , 2:2 ,3: 1") == {1: 1, 2: 2, 3: 1}
    with pytest.raises(cli.UsageError):  # g->g/2 sent 3 to 1.5
        parse_label_map("1:0,2:1,3:1.5")


def test_label_map_rejects_unsafe_expressions(tmp_path):
    src, _, _ = binary_csv(tmp_path, n=100)
    out = tmp_path / "o.json"
    for expr in ("g->__import__('os')", "noarrow", "g->open(g)",
                 "g->h+1", "g->g**2", "g->(1).bit_length()",
                 "g->min(g)", "g->floor(g, 1)", "g->round(g, ndigits=0)",
                 "", "1:", "1:1,1:2", "a:1", "1:1.5"):
        assert run_cli("evaluate", "--input", src, "--output", out,
                       "--map", expr) == 1


# -- evaluate-kary -----------------------------------------------------------


def test_evaluate_kary_single_triple(tmp_path, capsys):
    world = gen_kary_responses("arity3", 3000, 1.0, rng=5)
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(world.dataset))
    out = tmp_path / "triples.json"
    ids = ",".join(world.dataset.workers)
    rc = run_cli("evaluate-kary", "--input", src, "--output", out,
                 "--workers", ids, "--confidence", "0.9")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["arity"] == 3
    assert payload["confidence"] == 0.9
    (record,) = payload["triples"]
    assert record["workers"] == list(world.dataset.workers)
    assert record["failed"] is False
    sel = record["selectivity"]
    assert len(sel) == 3
    assert sum(sel) == pytest.approx(1.0, abs=1e-6)
    assert max(abs(s - 1 / 3) for s in sel) < 0.1
    for w, block in enumerate(record["matrices"]):
        rows = block["rows"]
        assert len(rows) == 3
        truth = world.matrices[w]
        for g, row in enumerate(rows):
            assert len(row) == 3
            for r, cell in enumerate(row):
                assert cell["lower"] <= cell["estimate"] <= cell["upper"]
                assert abs(cell["estimate"] - truth[g, r]) < 0.15
    diag = record["diagnostics"]
    assert set(diag) == {"slice_failures", "max_imag", "rows_permuted",
                         "rows_sign_fixed", "clamped"}
    assert "1 triples, 0 failed" in capsys.readouterr().out


def test_evaluate_kary_worker_selection_errors(tmp_path):
    world = gen_kary_responses("arity2", 300, 1.0, rng=6)
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(world.dataset))
    out = tmp_path / "o.json"
    assert run_cli("evaluate-kary", "--input", src, "--output", out,
                   "--workers", "w1,w2") == 1
    assert run_cli("evaluate-kary", "--input", src, "--output", out,
                   "--workers", "w1,w2,w2") == 1
    assert run_cli("evaluate-kary", "--input", src, "--output", out,
                   "--workers", "w1,w2,ghost") == 2
    assert run_cli("evaluate-kary", "--input", src, "--output", out) == 1
    # the finite-difference step is not an option
    assert run_cli("evaluate-kary", "--input", src, "--output", out,
                   "--workers", "w1,w2,w3", "--epsilon", "0.01") == 1


def test_label_map_missing_observed_label_is_a_data_error(tmp_path, capsys):
    world = gen_kary_responses("arity3", 300, 1.0, rng=6)
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(world.dataset))
    out = tmp_path / "o.json"
    assert run_cli("evaluate-kary", "--input", src, "--output", out,
                   "--auto-triples", "1", "--map", "1:1,2:2") == 2
    assert "observed labels [3] are not mapped" in capsys.readouterr().err
    assert run_cli("evaluate-kary", "--input", src, "--output", out,
                   "--auto-triples", "1", "--map", "1:1,2:2,3:2,4:2") == 2
    assert "label map keys [4] lie outside 1..3" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_kary_auto_triples_below_one_is_a_usage_error(tmp_path):
    world = gen_kary_responses("arity2", 100, 1.0, rng=7)
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(world.dataset))
    out = tmp_path / "o.json"
    assert_refused(UsageError, 1, "evaluate-kary", "--input", src, "--output", out,
                   "--auto-triples", "0")
    assert not out.exists()


def test_evaluate_kary_auto_triples(tmp_path):
    world = gen_kary_responses("arity2", 400, 1.0, rng=7)
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(world.dataset))
    out = tmp_path / "o.json"
    rc = run_cli("evaluate-kary", "--input", src, "--output", out,
                 "--auto-triples", "100")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["triples"]) == 1
    # threshold no triple can meet -> connectivity failure
    assert run_cli("evaluate-kary", "--input", src, "--output", out,
                   "--auto-triples", "10000") == 3


def test_evaluate_kary_json_does_not_depend_on_the_order_of_the_rows(tmp_path):
    # Four workers answer by the arity-3 fixture matrices. The round trip
    # and the shuffled rows list them in two orders of first appearance;
    # --auto-triples seats each triple's workers in id order and lists the
    # triples in id order, so both give the same bytes.
    rng = np.random.default_rng(11)
    n = 1500
    truth = rng.integers(0, 3, size=n)
    pool = WORKER_MATRIX_FIXTURES["arity3"]
    rows = []
    for w in range(4):
        cdf = np.cumsum(pool[w % len(pool)], axis=1)[truth]
        rows.append(1 + np.minimum((rng.random(n)[:, None] > cdf).sum(axis=1), 2))
    header, lines, shuffled = shuffled_csv_rows(
        ResponseDataset.from_matrix(np.stack(rows), arity=3), 12)
    outputs, orders = [], []
    for name, body in (("round_trip", lines), ("shuffled", shuffled)):
        text = "".join(header + body)
        orders.append(load_responses(text, "csv").workers)
        src = tmp_path / f"{name}.csv"
        src.write_text(text)
        out = tmp_path / f"{name}.json"
        assert run_cli("evaluate-kary", "--input", src, "--output", out,
                       "--auto-triples", "1") == 0
        outputs.append(out.read_bytes())
    assert orders[0] != orders[1]
    assert outputs[0] == outputs[1]
    triples = [r["workers"] for r in json.loads(outputs[0])["triples"]]
    assert triples == [["w1", "w2", "w3"], ["w1", "w2", "w4"], ["w1", "w3", "w4"],
                       ["w2", "w3", "w4"]]


def test_evaluate_kary_pair_without_shared_tasks_gets_the_overlap_code(tmp_path):
    # w1 answers the first 200 tasks and w3 the last 200, so they share none
    world = gen_kary_responses("arity3", 400, 1.0, rng=8)
    matrix = world.dataset.matrix.copy()
    matrix[0, 200:] = 0
    matrix[2, :200] = 0
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(ResponseDataset.from_matrix(matrix, arity=3)))
    out = tmp_path / "o.json"
    assert run_cli("evaluate-kary", "--input", src, "--output", out,
                   "--workers", "w1,w2,w3") == 0
    (record,) = json.loads(out.read_text())["triples"]
    assert record == {"workers": ["w1", "w2", "w3"], "failed": True,
                      "reason": REASON_INSUFFICIENT_OVERLAP}


def test_evaluate_kary_eigensolver_failure_fails_only_its_triple(tmp_path, monkeypatch):
    # four workers drawn from the arity-3 fixtures on shared truths; each
    # triple's slice eigensystems take one np.linalg.eig call, and the
    # second call does not converge
    rng = np.random.default_rng(12)
    mats = WORKER_MATRIX_FIXTURES["arity3"]
    truth = rng.integers(0, 3, 2000)
    matrix = np.stack([
        np.minimum(1 + (np.cumsum(mats[w % 3], axis=1)[truth]
                        < rng.random(truth.size)[:, None]).sum(axis=1), 3)
        for w in range(4)])
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(ResponseDataset.from_matrix(matrix, arity=3)))
    out = tmp_path / "o.json"
    eig = np.linalg.eig
    calls = []

    def flaky_eig(a):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", flaky_eig)
    assert run_cli("evaluate-kary", "--input", src, "--output", out,
                   "--auto-triples", "1") == 0
    records = json.loads(out.read_text())["triples"]
    assert len(calls) == 4 and len(records) == 4
    assert [r["failed"] for r in records] == [False, True, False, False]
    assert records[1]["reason"] == REASON_EIGEN_NONCONVERGENCE
    assert all("matrices" in r for r in records if not r["failed"])


# -- simulate ----------------------------------------------------------------


def test_simulate_coverage_csv_and_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ("simulate", "coverage", "--n", "60", "--m", "3", "--d", "1.0",
            "--reps", "5", "--seed", "21")
    assert run_cli(*args, "--output", out_a) == 0
    assert run_cli(*args, "--output", out_b) == 0
    text = out_a.read_text()
    assert text == out_b.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "# experiment=coverage"
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "confidence,accuracy,mean_size,failures,evaluations"
    assert len(data) == 1 + 19


def test_simulate_kary_coverage_json(tmp_path):
    out = tmp_path / "kary.json"
    rc = run_cli("simulate", "kary-coverage", "--n", "200", "--arity", "2",
                 "--reps", "3", "--confidence", "0.8", "--output", out)
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "kary-coverage"
    assert payload["metadata"]["fixture"] == "'arity2'"
    assert len(payload["rows"]) == 1


def test_simulate_kary_coverage_counts_pairs_without_shared_tasks_as_failures(tmp_path):
    # six tasks at density 0.3: in most worlds some pair of the three
    # workers shares no task, and every world is too small to estimate, so
    # each replication is a failure and the run still exits 0
    reps, seed = 20, 8
    disjoint = 0
    for rep in range(reps):
        world = gen_kary_responses("arity2", 6, [0.3] * 3, None, substream(seed, rep))
        disjoint += int((world.dataset.pair_overlap[np.triu_indices(3, 1)] == 0).any())
    assert disjoint >= reps // 2
    out = tmp_path / "sparse.csv"
    assert run_cli("simulate", "kary-coverage", "--arity", "2", "--n", "6", "--d", "0.3",
                   "--reps", reps, "--seed", seed, "--confidence", "0.8",
                   "--output", out) == 0
    data = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert data == ["confidence,accuracy,mean_size,failures,evaluations",
                    f"0.8,nan,nan,{reps},0"]


def test_simulate_fast_is_a_usage_error(tmp_path):
    # simulate has no --fast option: it duplicated --reps 100
    out = tmp_path / "fast.json"
    rc = run_cli("simulate", "coverage", "--n", "50", "--m", "3", "--d", "1.0",
                 "--fast", "--reps", "2", "--confidence", "0.8",
                 "--output", out)
    assert rc == 1
    assert not out.exists()


def test_simulate_usage_errors(tmp_path):
    out = tmp_path / "o.txt"
    assert run_cli("simulate", "nosuch", "--output", tmp_path / "o.csv") == 1
    assert run_cli("simulate", "coverage", "--reps", "1", "--output", out) == 1
    assert run_cli("simulate", "coverage", "--reps", "0",
                   "--output", tmp_path / "o.csv") == 1
    assert run_cli("simulate", "coverage", "--d", "steep",
                   "--output", tmp_path / "o.csv") == 1
    for experiment in ("coverage", "kary-coverage"):
        assert run_cli("simulate", experiment, "--d", "nan", "--reps", "3", "--n", "50",
                       "--output", tmp_path / "o.csv") == 1
    assert not (tmp_path / "o.csv").exists()


def test_simulate_arity_and_workers_must_match_the_run(tmp_path):
    # --arity selects the kary-coverage fixture and nothing else (kary-size
    # sweeps 2, 3 and 4), and k-ary worlds always have three workers.
    out = tmp_path / "o.csv"
    for experiment in ("coverage", "size-vs-density", "weight-comparison", "kary-size"):
        assert run_cli("simulate", experiment, "--arity", "3", "--reps", "1",
                       "--output", out) == 1
    assert run_cli("simulate", "kary-coverage", "--m", "9", "--reps", "1",
                   "--output", out) == 1
    assert not out.exists()
    assert run_cli("simulate", "kary-coverage", "--arity", "3", "--n", "200",
                   "--reps", "1", "--confidence", "0.8", "--output", out) == 0
    meta = [line for line in out.read_text().splitlines() if line.startswith("#")]
    assert "# arity=3" in meta and "# m=3" in meta


def test_simulate_weighting_only_where_it_applies(tmp_path):
    # weight-comparison always runs both weightings and the k-ary
    # experiments have none, so --weighting there would be ignored.
    out = tmp_path / "o.csv"
    for experiment in ("weight-comparison", "kary-coverage", "kary-size"):
        assert run_cli("simulate", experiment, "--weighting", "uniform", "--reps", "1",
                       "--output", out) == 1
    assert not out.exists()
    for experiment in ("coverage", "size-vs-density"):
        assert run_cli("simulate", experiment, "--weighting", "uniform", "--n", "60",
                       "--reps", "1", "--confidence", "0.8", "--output", out) == 0
        assert "# weighting='uniform'" in out.read_text().splitlines()
    assert run_cli("simulate", "weight-comparison", "--n", "60", "--reps", "1",
                   "--confidence", "0.8", "--output", out) == 0
    assert "# weighting='optimal'" in out.read_text().splitlines()


def test_simulate_kary_size_sweeps_three_arities_over_the_density_grid(tmp_path):
    out = tmp_path / "sizes.json"
    assert run_cli("simulate", "kary-size", "--n", "60", "--reps", "1",
                   "--output", out) == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "kary-size"
    assert payload["columns"][:3] == ["arity", "density", "confidence"]
    rows = payload["rows"]
    assert [row[0] for row in rows] == [2.0] * 10 + [3.0] * 10 + [4.0] * 10
    assert [row[1] for row in rows[:10]] == list(DENSITY_GRID)
    assert {row[2] for row in rows} == {0.8}


_BINARY_KEYS = ["n", "m", "arity", "density", "replications", "seed", "weighting",
                "fixture", "rates"]


@pytest.mark.parametrize("experiment, keys", [
    ("coverage", _BINARY_KEYS),
    ("size-vs-density", ["n", "m", "arity", "replications", "seed", "weighting",
                         "fixture", "rates", "densities"]),
    ("weight-comparison", _BINARY_KEYS),
    ("kary-coverage", ["n", "m", "arity", "density", "replications", "seed", "fixture"]),
    ("kary-size", ["n", "m", "replications", "seed", "arities", "densities"]),
])
def test_simulate_metadata_names_only_values_the_run_used(tmp_path, experiment, keys):
    # a sweep leaves out the config values it replaces, and k-ary runs
    # weight no triples
    out = tmp_path / "o.json"
    assert run_cli("simulate", experiment, "--n", "60", "--reps", "1",
                   "--confidence", "0.8", "--output", out) == 0
    assert list(json.loads(out.read_text())["metadata"]) == keys


def test_simulate_coverage_metadata_lines(tmp_path):
    out = tmp_path / "o.csv"
    assert run_cli("simulate", "coverage", "--n", "60", "--m", "3", "--d", "1.0",
                   "--reps", "2", "--output", out) == 0
    assert [line for line in out.read_text().splitlines() if line.startswith("#")] == [
        "# experiment=coverage", "# n=60", "# m=3", "# arity=2", "# density=1.0",
        "# replications=2", "# seed=0", "# weighting='optimal'", "# fixture=None",
        "# rates=(0.1, 0.2, 0.3)"]


def test_simulate_weight_comparison_columns(tmp_path):
    out = tmp_path / "w.csv"
    rc = run_cli("simulate", "weight-comparison", "--n", "80", "--reps", "4",
                 "--confidence", "0.8", "--output", out, "--seed", "2")
    assert rc == 0
    lines = [line for line in out.read_text().strip().splitlines()
             if not line.startswith("#")]
    assert lines[0] == ("confidence,accuracy_uniform,accuracy_optimal,"
                        "mean_size_uniform,mean_size_optimal,failures,evaluations")
    row = [float(x) for x in lines[1].split(",")]
    assert row[4] <= row[3] + 1e-12


# -- prune -------------------------------------------------------------------


def contrarian_csv(tmp_path):
    # four agreeing workers plus one that always contradicts the majority
    n = 20
    matrix = np.ones((5, n), dtype=int)
    matrix[4, :] = 2
    ds = ResponseDataset.from_matrix(matrix, arity=2)
    path = tmp_path / "crowd.csv"
    path.write_text(write_responses_csv(ds))
    return path


def test_prune_removes_contrarian(tmp_path, capsys):
    src = contrarian_csv(tmp_path)
    out = tmp_path / "pruned.csv"
    rc = run_cli("prune", "--input", src, "--output", out, "--threshold", "0.4")
    assert rc == 0
    pruned = load_responses(out.read_text(), fmt="csv")
    assert pruned.workers == ("w1", "w2", "w3", "w4")
    removed = json.loads((tmp_path / "pruned.csv.removed.json").read_text())
    assert removed == [{"worker": "w5", "disagreement_rate": 1.0}]
    assert "kept 4 of 5" in capsys.readouterr().out


def test_prune_custom_removed_path_and_identity_threshold(tmp_path):
    src = contrarian_csv(tmp_path)
    out = tmp_path / "kept.csv"
    removed_path = tmp_path / "gone.json"
    rc = run_cli("prune", "--input", src, "--output", out,
                 "--threshold", "1.0", "--removed", removed_path)
    assert rc == 0
    assert json.loads(removed_path.read_text()) == []
    pruned = load_responses(out.read_text(), fmt="csv")
    assert pruned.num_workers == 5
    assert run_cli("prune", "--input", src, "--output", out,
                   "--threshold", "1.2") == 1


def test_prune_non_binary_is_a_usage_error(tmp_path):
    world = gen_kary_responses("arity3", 100, 1.0, rng=4)
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(world.dataset))
    out = tmp_path / "kept.csv"
    assert_refused(UsageError, 1, "prune", "--input", src, "--output", out)
    assert not out.exists()


def test_prune_output_feeds_evaluate(tmp_path):
    src, _, _ = binary_csv(tmp_path, n=1000, rates=(0.1, 0.1, 0.1, 0.1), seed=8)
    pruned = tmp_path / "pruned.csv"
    assert run_cli("prune", "--input", src, "--output", pruned) == 0
    out = tmp_path / "reports.json"
    assert run_cli("evaluate", "--input", pruned, "--output", out) == 0
    records = json.loads(out.read_text())
    assert all(r["failed"] is False for r in records)


# -- output writing ----------------------------------------------------------


def test_atomic_write_concurrent_writers_do_not_clobber(tmp_path, monkeypatch):
    # A second write of the same path lands between the first write's temp
    # file and its rename; each writer must rename its own complete file.
    target = tmp_path / "out.json"
    real_replace = os.replace

    def interleaved_replace(src, dst):
        monkeypatch.setattr(os, "replace", real_replace)
        cli._atomic_write(target, "second")
        assert target.read_text() == "second"
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", interleaved_replace)
    cli._atomic_write(target, "first")
    assert target.read_text() == "first"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def test_atomic_write_failure_removes_temp_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(tmp_path / "out.json", "lone surrogate \udc80")
    assert list(tmp_path.iterdir()) == []


# -- README ------------------------------------------------------------------


def test_readme_command_lines_parse():
    # Every documented command line, and every documented --map table,
    # must still be accepted by the current parser.
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["crowdgauge"]:
                commands.append(words[1:])
    assert len(commands) >= 7
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    tables = re.findall(r"--map[ =]('[^']*'|\"[^\"]*\"|[^\s`]+)", text)
    assert tables
    for table in tables:
        parse_label_map(shlex.split(table)[0])


def test_readme_simulate_table_matches_the_experiments():
    # The README table is the one other copy of the simulate defaults.
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as handle:
        section = handle.read().split("### `crowdgauge simulate`", 1)[1].split("\n### ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    names = {"n": "n", "m": "m", "d": "d", "c": "confidence"}
    listed = {}
    for name, _, defaults in rows[2:]:  # past the header and the rule
        values = {}
        for item in defaults.split(", "):
            if item.endswith(" reps"):
                values["reps"] = int(item.removesuffix(" reps"))
            else:
                key, _, value = item.partition("=")
                values[names[key]] = value if value == "ramp" else float(value)
        listed[name] = values
    assert list(listed) == list(cli._EXPERIMENTS)
    for name, values in listed.items():
        table = cli._EXPERIMENTS[name][0]
        assert values == {key: table[key] for key in values}, name


# -- console entry point -----------------------------------------------------


def test_console_script_runs(tmp_path):
    src, _, _ = binary_csv(tmp_path, n=300, seed=9)
    out = tmp_path / "o.json"
    # the child imports the same package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "crowdgauge.cli", "evaluate",
         "--input", str(src), "--output", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
