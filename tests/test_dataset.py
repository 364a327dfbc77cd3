import io
import json

import numpy as np
import pytest

from crowdgauge.dataset import (
    GoldLabels,
    ResponseDataset,
    agreement_rates,
    load_gold,
    load_responses,
    overlap_counts,
    prune_spammers,
    reduce_arity,
    write_responses_csv,
)
from crowdgauge.errors import (
    EmptyDatasetError,
    GoldLabelError,
    InsufficientOverlapError,
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


def test_load_csv_empty():
    with pytest.raises(EmptyDatasetError):
        load_responses("task_id,worker_id,response\n")


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
    stats = agreement_rates(ds, ("w1", "w2", "w3"))
    assert stats.c2("w1", "w2") == 3
    assert stats.c2("w1", "w3") == 2
    assert stats.c2("w2", "w3") == 3
    assert stats.c3("w1", "w2", "w3") == 2
    assert stats.q("w1", "w2") == pytest.approx(2 / 3)
    assert stats.q("w1", "w3") == pytest.approx(1.0)
    assert stats.q("w2", "w3") == pytest.approx(1 / 3)
    assert stats.q("w2", "w1") == stats.q("w1", "w2")  # order-free lookup


def test_pair_arrays_match_agreement_rates():
    ds = hand_dataset()
    stats = agreement_rates(ds, ("w1", "w2", "w3"))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        pair = (ds.workers[a], ds.workers[b])
        assert ds.pair_overlap[a, b] == ds.pair_overlap[b, a] == stats.c2(*pair)
        assert ds.pair_agreement[a, b] == pytest.approx(stats.q(*pair))
    assert ds.triple_overlap_by_index(0, 1, 2) == 2


def test_overlap_counts_without_rates():
    ds = hand_dataset()
    stats = overlap_counts(ds, ("w1", "w3"))
    assert stats.c2("w1", "w3") == 2
    assert stats.pair_agreement == {}


def test_agreement_requires_overlap():
    ds = ResponseDataset.from_matrix(np.array([[1, 0], [0, 1]]),
                                     workers=("a", "b"))
    with pytest.raises(InsufficientOverlapError) as info:
        agreement_rates(ds, ("a", "b"))
    assert "'a'" in str(info.value) and "'b'" in str(info.value)
    stats = agreement_rates(ds, ("a", "b"), require_overlap=False)
    assert ("a", "b") not in stats.pair_agreement
    assert stats.c2("a", "b") == 0
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
    stats = agreement_rates(ds, ("w1", "w2"))
    assert stats.q("w1", "w2") == pytest.approx(0.74, abs=3 * 0.007)


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
    reduced = reduce_arity(ds, lambda g: (g - 1) // 2 + 1)
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
    reduced = reduce_arity(ds, lambda g: 1 if g <= 5 else 2)
    assert reduced.arity == 2
    assert reduced.response("w1", "t5") == 1
    assert reduced.response("w1", "t6") == 2


def test_reduce_arity_unmapped_observed_label():
    ds = ResponseDataset.from_records([("t1", "w1", 2)], arity=2)
    with pytest.raises(LabelDomainError):
        reduce_arity(ds, {1: 1})


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
