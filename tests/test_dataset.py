import io
import json
import tracemalloc

import numpy as np
import pytest

from crowdgauge.dataset import (
    GoldLabels,
    ResponseDataset,
    load_gold,
    load_responses,
    prune_spammers,
    reduce_arity,
    write_responses_csv,
)
from crowdgauge.errors import (
    EmptyDatasetError,
    GoldLabelError,
    LabelDomainError,
    ResponseConflictError,
    ResponseParseError,
    UnknownWorkerError,
)

BASIC_CSV = """task_id,worker_id,response
t1,w1,1
t1,w2,1
t2,w1,2
t2,w2,2
t3,w1,1
t3,w2,2
"""


def test_load_csv_basic():
    ds = load_responses(BASIC_CSV)
    assert ds.workers == ("w1", "w2")
    assert ds.tasks == ("t1", "t2", "t3")
    assert ds.arity == 2
    assert ds.response("w1", "t1") == 1
    assert ds.response("w2", "t3") == 2
    assert ds.num_workers == 2 and ds.num_tasks == 3


def test_load_csv_accepts_file_like_and_bytes():
    assert load_responses(io.StringIO(BASIC_CSV)).num_tasks == 3
    assert load_responses(BASIC_CSV.encode()).num_tasks == 3


def test_load_csv_arity_comment():
    ds = load_responses("# arity=4\n" + BASIC_CSV)
    assert ds.arity == 4


def test_load_csv_missing_attempt_is_none():
    ds = load_responses("task_id,worker_id,response\nt1,w1,1\nt2,w2,2\n")
    assert ds.response("w1", "t2") is None
    assert ds.response("w2", "t1") is None


def test_load_csv_duplicate_identical_row_is_deduplicated():
    ds = load_responses(BASIC_CSV + "t1,w1,1\n")
    assert ds.num_tasks == 3


def test_load_csv_conflicting_duplicate():
    with pytest.raises(ResponseConflictError):
        load_responses(BASIC_CSV + "t1,w1,2\n")


def test_load_csv_bad_header():
    with pytest.raises(ResponseParseError) as info:
        load_responses("task,worker,answer\nt1,w1,1\n")
    assert "line 1" in str(info.value)


def test_load_csv_wrong_field_count_reports_line():
    with pytest.raises(ResponseParseError) as info:
        load_responses("task_id,worker_id,response\nt1,w1,1\nt2,w2\n")
    assert "line 3" in str(info.value)


def test_load_csv_non_integer_response_reports_line():
    with pytest.raises(ResponseParseError) as info:
        load_responses("task_id,worker_id,response\nt1,w1,yes\n")
    assert "line 2" in str(info.value)


def test_load_csv_label_below_one():
    with pytest.raises(LabelDomainError):
        load_responses("task_id,worker_id,response\nt1,w1,0\n")


def test_load_csv_label_beyond_matrix_dtype():
    with pytest.raises(LabelDomainError):
        load_responses("task_id,worker_id,response\nt1,w1,3000000000\n")


def test_load_csv_empty():
    with pytest.raises(EmptyDatasetError):
        load_responses("task_id,worker_id,response\n")


def test_load_csv_without_a_header_row():
    for text in ("# arity=3\n\n", ""):
        with pytest.raises(ResponseParseError, match="missing header row"):
            load_responses(text)
    with pytest.raises(ResponseParseError, match="expected header"):
        load_responses("t1,w1,1\nt2,w1,2\n")


def test_load_csv_bytes_that_are_not_utf8():
    with pytest.raises(ResponseParseError, match="not valid UTF-8"):
        load_responses(b"task_id,worker_id,response\nt1,w\xe9,1\n")


def test_load_json_basic():
    records = [
        {"task": "t1", "worker": "w1", "response": 1},
        {"task": "t1", "worker": "w2", "response": 3},
    ]
    ds = load_responses(json.dumps(records), fmt="json")
    assert ds.arity == 3
    assert ds.response("w2", "t1") == 3


def test_load_json_rejects_bool_and_reports_element():
    records = [{"task": "t1", "worker": "w1", "response": True}]
    with pytest.raises(ResponseParseError) as info:
        load_responses(json.dumps(records), fmt="json")
    assert "element 0" in str(info.value)


def test_load_json_missing_key():
    with pytest.raises(ResponseParseError):
        load_responses(json.dumps([{"task": "t1", "response": 1}]), fmt="json")


def test_load_json_malformed_inputs():
    with pytest.raises(ResponseParseError, match="invalid JSON"):
        load_responses('[{"task": "t1",', fmt="json")
    with pytest.raises(ResponseParseError, match="must be an array"):
        load_responses('{"task": "t1", "worker": "w1", "response": 1}', fmt="json")
    with pytest.raises(ResponseParseError, match="element 1 is not an object"):
        load_responses('[{"task": "t1", "worker": "w1", "response": 1}, 3]', fmt="json")
    with pytest.raises(LabelDomainError, match="element 0: label 0 is below 1"):
        load_responses('[{"task": "t1", "worker": "w1", "response": 0}]', fmt="json")
    with pytest.raises(EmptyDatasetError):
        load_responses("[]", fmt="json")


def test_load_unknown_format():
    with pytest.raises(ValueError):
        load_responses(BASIC_CSV, fmt="tsv")


def test_from_records_declared_arity():
    ds = ResponseDataset.from_records([("t1", "w1", 2)], arity=5)
    assert ds.arity == 5
    with pytest.raises(LabelDomainError):
        ResponseDataset.from_records([("t1", "w1", 4)], arity=3)


def test_from_records_minimum_arity_two():
    ds = ResponseDataset.from_records([("t1", "w1", 1)])
    assert ds.arity == 2


def test_from_matrix_default_ids():
    ds = ResponseDataset.from_matrix(np.array([[1, 0], [2, 1]]))
    assert ds.workers == ("w1", "w2")
    assert ds.tasks == ("t1", "t2")
    assert ds.response("w1", "t2") is None


def test_from_matrix_rejects_labels_the_int32_copy_would_change():
    for matrix in (np.array([[2**32 + 1, 1], [1, 1], [1, 2]]),
                   np.array([[1.7, 1], [1, 1], [1, 2]]),
                   np.array([[np.nan, 1], [1, 1], [1, 2]])):
        with pytest.raises(LabelDomainError):
            ResponseDataset.from_matrix(matrix, arity=2)
    ds = ResponseDataset.from_matrix(np.array([[1.0, 2.0], [2.0, 0.0]]), arity=2)
    assert ds.matrix.tolist() == [[1, 2], [2, 0]]


def test_matrix_is_read_only():
    ds = load_responses(BASIC_CSV)
    with pytest.raises(ValueError):
        ds.matrix[0, 0] = 2


def test_unknown_worker_and_task():
    ds = load_responses(BASIC_CSV)
    with pytest.raises(UnknownWorkerError):
        ds.worker_index("nobody")
    with pytest.raises(KeyError):
        ds.task_index("t99")


# -- loader semantics: order, duplicates, and which fault is reported ------


def test_load_csv_first_appearance_order_with_interleaved_duplicates():
    ds = load_responses("task_id,worker_id,response\n"
                        "t2,w3,1\nt1,w1,2\nt2,w3,1\nt3,w2,1\nt1,w1,2\nt1,w3,2\n")
    assert ds.workers == ("w3", "w1", "w2")
    assert ds.tasks == ("t2", "t1", "t3")
    assert ds.matrix.tolist() == [[1, 2, 0], [0, 2, 0], [0, 0, 1]]


def test_load_csv_conflict_names_first_conflicting_pair():
    text = ("task_id,worker_id,response\n"
            "t1,w1,1\nt2,w1,2\nt1,w2,1\nt1,w1,1\nt2,w1,1\nt1,w2,2\n")
    with pytest.raises(ResponseConflictError) as info:
        load_responses(text)
    assert str(info.value) == "task 't2', worker 'w1' has conflicting labels 2 and 1"


def test_load_csv_first_fault_in_file_order_wins():
    with pytest.raises(ResponseParseError) as info:
        load_responses("task_id,worker_id,response\nt1,w1,1\nt2,w2\nt3,w1,2\nt4,w1,x\n")
    assert str(info.value) == "line 3: expected 3 fields, got 2"
    with pytest.raises(LabelDomainError) as info:
        load_responses("task_id,worker_id,response\nt1,w1,1\nt2,w1,0\nt1,w1,2\n")
    assert str(info.value) == "line 3: label 0 is below 1"


def test_from_records_first_fault_in_record_order_wins():
    with pytest.raises(ResponseConflictError):
        ResponseDataset.from_records([("t1", "w1", 1), ("t1", "w1", 2), ("t2", "w1", 0)])
    with pytest.raises(LabelDomainError) as info:
        ResponseDataset.from_records([("t1", "w1", 1), ("t2", "w1", 0), ("t1", "w1", 2)])
    assert str(info.value) == "label 0 for task 't2', worker 'w1' is below 1"


def test_load_csv_quoted_field_with_comma():
    ds = load_responses('task_id,worker_id,response\n"t,1",w1,2\nt2,"w,""1""",1\n')
    assert ds.tasks == ("t,1", "t2")
    assert ds.workers == ("w1", 'w,"1"')
    assert ds.response("w1", "t,1") == 2


def test_load_csv_whitespace_padded_fields():
    ds = load_responses(" task_id , worker_id ,response\n t1 ,\tw1, 2 \nt1,w1,2\n")
    assert ds.tasks == ("t1",) and ds.workers == ("w1",)
    assert ds.response("w1", "t1") == 2
    with pytest.raises(ResponseParseError) as info:
        load_responses("task_id,worker_id,response\n t1 , , 2\n")
    assert str(info.value) == "line 2: empty task or worker id"
    with pytest.raises(ResponseParseError) as info:
        load_responses("task_id,worker_id,response\nt1,w1, 2x \n")
    assert str(info.value) == "line 2: response '2x' is not an integer"


def test_load_csv_keeps_lone_surrogates_line_ends_and_quoted_newlines():
    # A str may hold lone surrogates; they stay in the ids. Rows end at
    # "\r\n" as at "\n", and a quoted field spanning two lines counts both
    # in the line numbers.
    text = 'task_id,worker_id,response\r\nt1,w\ud800,1\r\n"t\n2",w2,2\r\nt3,w2,x\r\n'
    with pytest.raises(ResponseParseError) as info:
        load_responses(text)
    assert str(info.value) == "line 5: response 'x' is not an integer"
    ds = load_responses(text[:text.index("t3")])
    assert ds.workers == ("w\ud800", "w2")
    assert ds.tasks == ("t1", "t\n2")
    assert load_gold("task_id,response\nt\udc80,1\n").labels == {"t\udc80": 1}


def test_load_csv_lone_carriage_return_is_a_parse_error():
    # A lone "\r" inside a line is not a line end, and the csv module
    # rejects it; the loader reports that as a parse error on its line.
    with pytest.raises(ResponseParseError) as info:
        load_responses("task_id,worker_id,response\nt1,w1,1\rt1,w2,2\n")
    assert info.value.line == 2
    assert str(info.value).startswith("line 2: ")


def test_load_csv_arity_comment_after_header_and_blank_lines():
    text = "\ntask_id,worker_id,response\n\nt1,w1,1\n# arity=5\n\nt2,w1,2\n\n"
    ds = load_responses(text)
    assert ds.arity == 5
    assert ds.tasks == ("t1", "t2")
    with pytest.raises(ResponseParseError) as info:
        load_responses(text + "t3,w1\n")
    assert str(info.value) == "line 9: expected 3 fields, got 2"


def test_load_json_deduplicates_and_rejects_conflicts():
    rows = [{"task": "t1", "worker": "w1", "response": 2},
            {"task": "t2", "worker": "w2", "response": 1},
            {"task": "t1", "worker": "w1", "response": 2}]
    ds = load_responses(json.dumps(rows), fmt="json")
    assert ds.workers == ("w1", "w2") and ds.tasks == ("t1", "t2")
    assert ds.matrix.tolist() == [[2, 0], [0, 1]]
    rows.append({"task": "t2", "worker": "w2", "response": 3})
    with pytest.raises(ResponseConflictError) as info:
        load_responses(json.dumps(rows), fmt="json")
    assert str(info.value) == "task 't2', worker 'w2' has conflicting labels 1 and 3"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_csv_round_trip_shuffled_with_duplicates(seed):
    rng = np.random.default_rng(seed)
    arity = int(rng.integers(2, 5))
    m, n = int(rng.integers(3, 9)), int(rng.integers(5, 40))
    matrix = rng.integers(1, arity + 1, size=(m, n))
    matrix[rng.random((m, n)) >= 0.6] = 0
    workers = [f"w{i}" if i % 3 else f'w,"{i}"' for i in range(m)]
    tasks = [f"task {j}" for j in range(n)]
    ds = ResponseDataset.from_matrix(matrix, workers, tasks, arity)
    lines = write_responses_csv(ds).splitlines()
    responses = list(ds.iter_responses())
    order = rng.permutation(len(responses)).tolist()
    order += rng.choice(len(responses), size=len(responses) // 3).tolist()
    text = "\n".join(lines[:2] + [lines[2 + i] for i in order]) + "\n"
    rows = [responses[i] for i in order]

    want_workers = list(dict.fromkeys(w for _, w, _ in rows))
    want_tasks = list(dict.fromkeys(t for t, _, _ in rows))
    want = np.zeros((len(want_workers), len(want_tasks)), dtype=int)
    for task, worker, label in rows:
        want[want_workers.index(worker), want_tasks.index(task)] = label
    got = load_responses(text)
    assert got.workers == tuple(want_workers)
    assert got.tasks == tuple(want_tasks)
    assert got.arity == arity
    assert np.array_equal(got.matrix, want)


def test_load_csv_peak_memory_is_bounded_by_text_length():
    # About 130k responses, the size of an 81-worker, 2000-task crowd at
    # density 0.8. The loader keeps three integers per response and reads
    # the text through a one-byte-per-character copy, so its peak
    # allocation is a small multiple of the text (measured: 7.5x; a
    # four-byte-per-character io.StringIO copy makes it 10.5x).
    rng = np.random.default_rng(0)
    attempted = rng.random((2000, 81)) < 0.8
    labels = rng.integers(1, 3, size=attempted.shape)
    tasks, workers = np.nonzero(attempted)
    text = "task_id,worker_id,response\n" + "".join(
        f"t{t:05d},w{w:03d},{v}\n"
        for t, w, v in zip(tasks.tolist(), workers.tolist(), labels[tasks, workers].tolist()))
    tracemalloc.start()
    try:
        ds = load_responses(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(ds.attempts.sum()) == len(tasks)
    assert peak <= 9 * len(text)


# three workers, hand-checkable overlap/agreement:
#   w1: t1=1 t2=2 t3=1 t4=-    w2: t1=1 t2=2 t3=2 t4=1    w3: t1=- t2=2 t3=1 t4=2
HAND_MATRIX = np.array([
    [1, 2, 1, 0],
    [1, 2, 2, 1],
    [0, 2, 1, 2],
])


def hand_dataset():
    return ResponseDataset.from_matrix(HAND_MATRIX, workers=("w1", "w2", "w3"))


def test_overlap_and_agreement_counts():
    ds = hand_dataset()
    assert ds.pair_overlap[0, 1] == 3
    assert ds.pair_overlap[0, 2] == 2
    assert ds.pair_overlap[1, 2] == 3
    assert ds.triple_overlap_by_index(0, 1, 2) == 2
    assert ds.pair_agreement[0, 1] == pytest.approx(2 / 3)
    assert ds.pair_agreement[0, 2] == pytest.approx(1.0)
    assert ds.pair_agreement[1, 2] == pytest.approx(1 / 3)


def test_triple_overlap_by_index_takes_index_arrays():
    rng = np.random.default_rng(3)
    ds = ResponseDataset.from_matrix(np.where(rng.random((6, 40)) < 0.6, 1, 0))
    att = ds.matrix > 0
    j1, j2 = np.array([1, 2, 3, 4]), np.array([5, 4, 5, 1])
    got = ds.triple_overlap_by_index(0, j1, j2)
    assert got.shape == (4,)
    assert got.tolist() == [int((att[0] & att[b] & att[c]).sum()) for b, c in zip(j1, j2)]
    assert got.tolist() == [ds.triple_overlap_by_index(0, b, c)
                            for b, c in zip(j1.tolist(), j2.tolist())]
    assert type(ds.triple_overlap_by_index(0, 1, 2)) is int


def test_pair_arrays_match_agreement_rates():
    # every off-diagonal cell, both orders, against a count over tasks
    ds = hand_dataset()
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            shared = [t for t in range(4) if HAND_MATRIX[a, t] and HAND_MATRIX[b, t]]
            agree = sum(HAND_MATRIX[a, t] == HAND_MATRIX[b, t] for t in shared)
            assert ds.pair_overlap[a, b] == len(shared)
            assert ds.pair_agreement[a, b] == agree / len(shared)


def test_agreement_requires_overlap():
    ds = ResponseDataset.from_matrix(np.array([[1, 0], [0, 1]]),
                                     workers=("a", "b"))
    assert ds.pair_overlap[0, 1] == 0
    assert np.isnan(ds.pair_agreement[0, 1])


def test_agreement_rate_estimates_true_rate():
    # two workers answering every task independently at error rates 0.1
    # and 0.2 agree with probability 0.9*0.8 + 0.1*0.2 = 0.74
    rng = np.random.default_rng(123)
    n = 4000
    truth = rng.integers(1, 3, size=n)
    r1 = np.where(rng.random(n) < 0.1, 3 - truth, truth)
    r2 = np.where(rng.random(n) < 0.2, 3 - truth, truth)
    ds = ResponseDataset.from_matrix(np.stack([r1, r2]))
    assert ds.pair_agreement[0, 1] == pytest.approx(0.74, abs=3 * 0.007)


def test_iter_responses_is_task_major():
    ds = hand_dataset()
    rows = list(ds.iter_responses())
    assert rows[0] == ("t1", "w1", 1)
    assert rows[1] == ("t1", "w2", 1)
    tasks_seen = [t for t, _, _ in rows]
    assert tasks_seen == sorted(tasks_seen, key=ds.task_index)


def test_csv_round_trip():
    ds = load_responses("# arity=3\n" + BASIC_CSV)
    again = load_responses(write_responses_csv(ds))
    assert again.workers == ds.workers
    assert again.tasks == ds.tasks
    assert again.arity == 3
    assert np.array_equal(again.matrix, ds.matrix)


def test_load_gold():
    gold = load_gold("task_id,response\nt1,1\nt2,2\n")
    assert gold.labels == {"t1": 1, "t2": 2}
    with pytest.raises(GoldLabelError):
        load_gold("task_id,response\nt1,1\nt1,2\n")  # conflicting gold
    with pytest.raises(GoldLabelError):
        load_gold("wrong,header\nt1,1\n")


def test_load_gold_skips_blank_and_comment_rows():
    gold = load_gold("# gold\n\ntask_id,response\n\nt1,1\n# t2,2\nt3,2\n")
    assert gold.labels == {"t1": 1, "t3": 2}


def test_load_gold_malformed_rows():
    with pytest.raises(GoldLabelError, match="line 2: expected 2 fields, got 3"):
        load_gold("task_id,response\nt1,1,2\n")
    with pytest.raises(GoldLabelError, match="line 3: response 'yes' is not an integer"):
        load_gold("task_id,response\nt1,1\nt2,yes\n")
    with pytest.raises(LabelDomainError, match="line 2: label 0 is below 1"):
        load_gold("task_id,response\nt1,0\n")
    for text in ("task_id,response\n", "# only a comment\n", ""):
        with pytest.raises(GoldLabelError, match="no gold labels found"):
            load_gold(text)


def test_load_gold_lone_carriage_return_is_a_gold_error():
    with pytest.raises(GoldLabelError) as info:
        load_gold("task_id,response\nt1,1\nt2,1\rt3,2\n")
    assert str(info.value).startswith("line 3: ")


def test_gold_validate_for():
    ds = load_responses(BASIC_CSV)
    GoldLabels({"t1": 1, "t3": 2}).validate_for(ds)
    with pytest.raises(GoldLabelError):
        GoldLabels({"t9": 1}).validate_for(ds)
    with pytest.raises(LabelDomainError):
        GoldLabels({"t1": 3}).validate_for(ds)


def test_reduce_arity_with_expression():
    records = [("t1", "w1", 1), ("t2", "w1", 2), ("t3", "w1", 3),
               ("t4", "w1", 4), ("t5", "w1", 5), ("t6", "w1", 6)]
    ds = ResponseDataset.from_records(records, arity=6)
    reduced = reduce_arity(ds, {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3})
    assert reduced.arity == 3
    got = [reduced.response("w1", f"t{i}") for i in range(1, 7)]
    assert got == [1, 1, 2, 2, 3, 3]
    assert reduced.workers == ds.workers and reduced.tasks == ds.tasks


def test_reduce_arity_with_mapping_and_rank_compaction():
    ds = ResponseDataset.from_records(
        [("t1", "w1", 1), ("t2", "w1", 2), ("t3", "w1", 3)], arity=3)
    reduced = reduce_arity(ds, {1: 9, 2: 9, 3: 5})  # images ranked 5<9 -> 1,2
    assert reduced.arity == 2
    assert reduced.response("w1", "t1") == 2
    assert reduced.response("w1", "t3") == 1


def test_reduce_arity_eleven_to_two():
    records = [("t%d" % g, "w1", g) for g in range(1, 12)]
    ds = ResponseDataset.from_records(records, arity=11)
    reduced = reduce_arity(ds, {g: 1 if g <= 5 else 2 for g in range(1, 12)})
    assert reduced.arity == 2
    assert reduced.response("w1", "t5") == 1
    assert reduced.response("w1", "t6") == 2


def test_reduce_arity_unmapped_observed_label():
    ds = ResponseDataset.from_records([("t1", "w1", 2)], arity=2)
    with pytest.raises(LabelDomainError) as info:
        reduce_arity(ds, {1: 1})
    assert str(info.value) == "observed labels [2] are not mapped"


def test_reduce_arity_rejects_keys_outside_the_arity_and_non_integer_values():
    ds = ResponseDataset.from_records([("t1", "w1", 1), ("t2", "w1", 2)], arity=3)
    with pytest.raises(LabelDomainError, match=r"keys \[4\] lie outside 1..3"):
        reduce_arity(ds, {1: 1, 2: 2, 4: 1})
    for value in (1.5, 2.0, "2", None):
        with pytest.raises(LabelDomainError, match="non-integer"):
            reduce_arity(ds, {1: 1, 2: value})
    assert reduce_arity(ds, {1: np.int64(5), 2: 3}).matrix.tolist() == [[2, 1]]


def test_reduce_arity_may_leave_out_unobserved_label():
    ds = ResponseDataset.from_records([("t1", "w1", 1), ("t2", "w1", 2)], arity=3)
    # Label 3, which nobody gave, is left out of the table.
    reduced = reduce_arity(ds, {1: 0, 2: 1})
    assert reduced.arity == 2
    assert reduced.matrix.tolist() == [[1, 2]]


def test_reduce_arity_collapse_to_single_label_keeps_arity_two():
    ds = ResponseDataset.from_records([("t1", "w1", 1), ("t2", "w1", 2)])
    reduced = reduce_arity(ds, {1: 7, 2: 7})
    assert reduced.arity == 2
    assert reduced.response("w1", "t2") == 1


def test_prune_spammers_hand_counts():
    # majority votes: t1..t4 -> 1,1,2,2 (w4 loses every vote it casts)
    matrix = np.array([
        [1, 1, 2, 2],
        [1, 1, 2, 0],
        [1, 2, 2, 2],
        [2, 2, 1, 1],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    pruned, removed = prune_spammers(ds, threshold=0.4)
    assert [r.worker for r in removed] == ["w4"]
    assert removed[0].disagreement_rate == pytest.approx(1.0)
    assert pruned.workers == ("w1", "w2", "w3")
    assert pruned.num_tasks == 4


def test_prune_spammers_threshold_is_strict():
    # w3 disagrees on 2 of 4 majority votes: rate 0.5 stays at threshold 0.5
    matrix = np.array([
        [1, 1, 2, 2],
        [1, 1, 2, 2],
        [1, 2, 2, 1],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    kept, removed = prune_spammers(ds, threshold=0.5)
    assert removed == []
    assert kept.num_workers == 3
    _, removed_low = prune_spammers(ds, threshold=0.49)
    assert [r.worker for r in removed_low] == ["w3"]


def test_prune_spammers_majority_tie_counts_as_label_one():
    matrix = np.array([
        [1, 1],
        [2, 1],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    _, removed = prune_spammers(ds, threshold=0.4)
    # tie on t1 resolves to 1, so w2 disagrees on 1 of 2 tasks: rate 0.5
    assert [r.worker for r in removed] == ["w2"]
    assert removed[0].disagreement_rate == pytest.approx(0.5)


def test_prune_spammers_drops_dead_tasks():
    matrix = np.array([
        [1, 1, 0],
        [1, 1, 0],
        [2, 2, 1],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    pruned, removed = prune_spammers(ds, threshold=0.4)
    assert [r.worker for r in removed] == ["w3"]
    assert pruned.tasks == ("t1", "t2")  # t3 had only w3's response


def test_prune_spammers_removal_sorted_by_rate():
    matrix = np.array([
        [1, 1, 1, 1],
        [1, 1, 1, 1],
        [1, 1, 1, 2],
        [2, 2, 2, 2],
        [2, 2, 1, 2],
    ])
    ds = ResponseDataset.from_matrix(matrix)
    _, removed = prune_spammers(ds, threshold=0.4)
    rates = [r.disagreement_rate for r in removed]
    assert rates == sorted(rates, reverse=True)
    assert [r.worker for r in removed] == ["w4", "w5"]


def test_prune_spammers_requires_binary():
    ds = ResponseDataset.from_records([("t1", "w1", 3)], arity=3)
    with pytest.raises(LabelDomainError):
        prune_spammers(ds)
