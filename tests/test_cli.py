"""End-to-end tests for the crowdgauge command line."""

import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from crowdgauge import cli
from crowdgauge.cli import main, parse_label_map
from crowdgauge.dataset import ResponseDataset, load_responses, write_responses_csv
from crowdgauge.errors import LabelDomainError
from crowdgauge.simulate import gen_binary_responses, gen_kary_responses


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


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


def test_evaluate_non_binary_needs_label_map(tmp_path):
    world = gen_kary_responses("arity3", 1500, 1.0, rng=4)
    src = tmp_path / "kary.csv"
    src.write_text(write_responses_csv(world.dataset))
    out = tmp_path / "o.json"
    assert run_cli("evaluate", "--input", src, "--output", out) == 1
    rc = run_cli("evaluate", "--input", src, "--output", out,
                 "--map", "g->floor((g-1)/2)+1")
    assert rc == 0
    records = json.loads(out.read_text())
    assert len(records) == 3


def test_label_map_parsing():
    mapper = parse_label_map("g->floor((g-1)/2)+1")
    assert [mapper(g) for g in (1, 2, 3, 4)] == [1, 1, 2, 2]
    mapper = parse_label_map("x -> 5 - x")
    assert mapper(2) == 3
    mapper = parse_label_map("g->min(g, 2)")
    assert [mapper(g) for g in (1, 2, 3, 4)] == [1, 2, 2, 2]
    mapper = parse_label_map("g->max(min(g, 3), 2)")
    assert [mapper(g) for g in (1, 2, 3, 4)] == [2, 2, 3, 3]
    assert parse_label_map("g->round(g/3)+1")(4) == 2
    assert parse_label_map("g->abs(g-3)+1")(1) == 3
    with pytest.raises(LabelDomainError):
        parse_label_map("g->g/2")(3)


def test_label_map_rejects_unsafe_expressions(tmp_path):
    src, _, _ = binary_csv(tmp_path, n=100)
    out = tmp_path / "o.json"
    for expr in ("g->__import__('os')", "noarrow", "g->open(g)",
                 "g->h+1", "g->g**2", "g->(1).bit_length()",
                 "g->min(g)", "g->floor(g, 1)", "g->round(g, ndigits=0)"):
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


def test_simulate_reps_overrides_fast(tmp_path):
    out = tmp_path / "fast.json"
    rc = run_cli("simulate", "coverage", "--n", "50", "--m", "3", "--d", "1.0",
                 "--fast", "--reps", "2", "--confidence", "0.8",
                 "--output", out)
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["replications"] == "2"


def test_simulate_usage_errors(tmp_path):
    out = tmp_path / "o.txt"
    assert run_cli("simulate", "nosuch", "--output", tmp_path / "o.csv") == 1
    assert run_cli("simulate", "coverage", "--reps", "1", "--output", out) == 1
    assert run_cli("simulate", "coverage", "--reps", "0",
                   "--output", tmp_path / "o.csv") == 1
    assert run_cli("simulate", "coverage", "--d", "steep",
                   "--output", tmp_path / "o.csv") == 1


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


# -- console entry point -----------------------------------------------------


def test_console_script_runs(tmp_path):
    src, _, _ = binary_csv(tmp_path, n=300, seed=9)
    out = tmp_path / "o.json"
    proc = subprocess.run(
        [sys.executable, "-m", "crowdgauge.cli", "evaluate",
         "--input", str(src), "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
