"""Crowdsourced response data: loading, agreement statistics, label maps,
and majority-vote spammer pruning.

A dataset is a partial map (worker, task) -> label in 1..arity, stored as a
dense integer matrix with 0 marking "not attempted". Workers and tasks keep
their first-appearance order from the source.

Pairwise statistics live on the dataset as worker-indexed arrays, computed
once on first use: `attempts`, `pair_overlap` and `pair_agreement` (m x m,
so memory is O(m^2) in the number of workers m), plus
`triple_overlap_by_index` for one triple at a time. `AgreementStats` is a
name-keyed copy of them for a worker subset.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyDatasetError,
    GoldLabelError,
    InsufficientOverlapError,
    LabelDomainError,
    ResponseConflictError,
    ResponseParseError,
    UnknownWorkerError,
)

_ARITY_COMMENT = re.compile(r"#\s*arity\s*=\s*(\d+)\s*$")
_CSV_HEADER = ["task_id", "worker_id", "response"]
_GOLD_HEADER = ["task_id", "response"]


@dataclass(frozen=True, eq=False)
class ResponseDataset:
    """Immutable worker-by-task response matrix.

    `matrix[w, t]` is the label (1..arity) given by worker `w` to task `t`,
    or 0 where the task was not attempted. Estimation requires at least
    3 workers; construction does not enforce that so partial datasets can
    still be inspected and pruned.
    """

    workers: tuple[str, ...]
    tasks: tuple[str, ...]
    arity: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.int32, copy=True)
        if mat.shape != (len(self.workers), len(self.tasks)):
            raise ValueError(
                f"matrix shape {mat.shape} does not match "
                f"{len(self.workers)} workers x {len(self.tasks)} tasks")
        if len(set(self.workers)) != len(self.workers):
            raise ValueError("worker ids must be unique")
        if len(set(self.tasks)) != len(self.tasks):
            raise ValueError("task ids must be unique")
        if self.arity < 2:
            raise LabelDomainError(f"arity must be at least 2, got {self.arity}")
        if mat.size and (mat.min() < 0 or mat.max() > self.arity):
            raise LabelDomainError(
                f"labels must lie in 0..{self.arity} (0 = not attempted)")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_records(records: Iterable[tuple[str, str, int]],
                     arity: int | None = None) -> "ResponseDataset":
        """Build a dataset from (task, worker, label) triples.

        Duplicate triples with identical labels collapse silently; a
        conflicting duplicate raises ResponseConflictError. The arity is the
        largest label seen unless declared explicitly.
        """
        seen: dict[tuple[str, str], int] = {}
        workers: dict[str, int] = {}
        tasks: dict[str, int] = {}
        for task, worker, label in records:
            label = int(label)
            if label < 1:
                raise LabelDomainError(
                    f"label {label} for task {task!r}, worker {worker!r} is below 1")
            key = (task, worker)
            if key in seen:
                if seen[key] != label:
                    raise ResponseConflictError(
                        f"task {task!r}, worker {worker!r} has conflicting labels "
                        f"{seen[key]} and {label}")
                continue
            seen[key] = label
            workers.setdefault(worker, len(workers))
            tasks.setdefault(task, len(tasks))
        if not seen:
            raise EmptyDatasetError("no responses provided")
        max_label = max(seen.values())
        if arity is None:
            arity = max(max_label, 2)
        elif max_label > arity:
            raise LabelDomainError(
                f"label {max_label} exceeds declared arity {arity}")
        matrix = np.zeros((len(workers), len(tasks)), dtype=np.int32)
        for (task, worker), label in seen.items():
            matrix[workers[worker], tasks[task]] = label
        return ResponseDataset(tuple(workers), tuple(tasks), int(arity), matrix)

    @staticmethod
    def from_matrix(matrix: np.ndarray,
                    workers: Sequence[str] | None = None,
                    tasks: Sequence[str] | None = None,
                    arity: int | None = None) -> "ResponseDataset":
        """Wrap an integer matrix directly (fast path for simulations)."""
        mat = np.asarray(matrix)
        if mat.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if workers is None:
            workers = tuple(f"w{i + 1}" for i in range(mat.shape[0]))
        if tasks is None:
            tasks = tuple(f"t{j + 1}" for j in range(mat.shape[1]))
        if arity is None:
            arity = max(int(mat.max(initial=0)), 2)
        return ResponseDataset(tuple(workers), tuple(tasks), int(arity), mat)

    # -- basic accessors ---------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @cached_property
    def _worker_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.workers)}

    @cached_property
    def _task_index(self) -> dict[str, int]:
        return {t: j for j, t in enumerate(self.tasks)}

    def worker_index(self, worker: str) -> int:
        try:
            return self._worker_index[worker]
        except KeyError:
            raise UnknownWorkerError(f"unknown worker {worker!r}") from None

    def task_index(self, task: str) -> int:
        try:
            return self._task_index[task]
        except KeyError:
            raise KeyError(f"unknown task {task!r}") from None

    def response(self, worker: str, task: str) -> int | None:
        label = int(self.matrix[self.worker_index(worker), self.task_index(task)])
        return label if label else None

    def iter_responses(self) -> Iterable[tuple[str, str, int]]:
        """Yield (task, worker, label) for every response, task-major."""
        rows, cols = np.nonzero(self.matrix.T)
        for t, w in zip(rows, cols):
            yield self.tasks[t], self.workers[w], int(self.matrix[w, t])

    # -- cached pairwise statistics ----------------------------------------

    @cached_property
    def attempts(self) -> np.ndarray:
        """Boolean worker-by-task matrix of attempted tasks."""
        return self.matrix > 0

    @cached_property
    def pair_overlap(self) -> np.ndarray:
        """Worker-by-worker counts of shared tasks, c_ab (int64)."""
        a = self.attempts.astype(np.int64)
        return a @ a.T

    @cached_property
    def pair_agreement(self) -> np.ndarray:
        """Worker-by-worker agreement rates q_ab on shared tasks (NaN for
        pairs that share none)."""
        agree = np.zeros((self.num_workers, self.num_workers), dtype=np.int64)
        for label in range(1, self.arity + 1):
            hits = (self.matrix == label).astype(np.int64)
            agree += hits @ hits.T
        overlap = self.pair_overlap
        return np.divide(agree, overlap, out=np.full(overlap.shape, np.nan), where=overlap > 0)

    def triple_overlap_by_index(self, a: int, b: int, c: int) -> int:
        """Number of tasks attempted by all three workers, c_abc."""
        att = self.attempts
        return int(np.count_nonzero(att[a] & att[b] & att[c]))


@dataclass(frozen=True)
class AgreementStats:
    """Pairwise agreement rates and pair/triple overlap counts for a worker
    subset. Keys are canonicalized by sorting ids, so lookups are order-free.

    Built by `agreement_rates` and `overlap_counts` from the dataset's
    arrays; the estimators read those arrays directly.
    """

    pair_agreement: Mapping[tuple[str, str], float]
    pair_overlap: Mapping[tuple[str, str], int]
    triple_overlap: Mapping[tuple[str, str, str], int]

    def q(self, a: str, b: str) -> float:
        return self.pair_agreement[tuple(sorted((a, b)))]

    def c2(self, a: str, b: str) -> int:
        return self.pair_overlap[tuple(sorted((a, b)))]

    def c3(self, a: str, b: str, c: str) -> int:
        return self.triple_overlap[tuple(sorted((a, b, c)))]


@dataclass(frozen=True)
class GoldLabels:
    """Reference labels keyed by task id."""

    labels: Mapping[str, int]

    def validate_for(self, ds: ResponseDataset) -> None:
        unknown = [t for t in self.labels if t not in ds._task_index]
        if unknown:
            raise GoldLabelError(f"gold labels reference unknown tasks: {unknown[:5]}")
        bad = {t: v for t, v in self.labels.items() if not 1 <= v <= ds.arity}
        if bad:
            raise LabelDomainError(
                f"gold labels outside 1..{ds.arity}: {sorted(bad.items())[:5]}")


class RemovedWorker(NamedTuple):
    worker: str
    disagreement_rate: float


# -- loading / writing -----------------------------------------------------


def _as_text(source) -> str:
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ResponseParseError(f"input is not valid UTF-8: {exc}") from exc
    return data


def load_responses(source, fmt: str = "csv") -> ResponseDataset:
    """Parse responses from CSV or JSON text (str, bytes, or file-like).

    CSV: header `task_id,worker_id,response`, one response per row, optional
    `# arity=K` comment. JSON: array of {"task", "worker", "response"}
    objects. Duplicate identical responses deduplicate; conflicting ones
    raise ResponseConflictError.
    """
    text = _as_text(source)
    if fmt == "csv":
        return _load_csv(text)
    if fmt == "json":
        return _load_json(text)
    raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'json')")


def _load_csv(text: str) -> ResponseDataset:
    reader = csv.reader(io.StringIO(text))
    declared_arity: int | None = None
    header_seen = False
    records: list[tuple[str, str, int]] = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if row[0].lstrip().startswith("#"):
            match = _ARITY_COMMENT.match(",".join(row).strip())
            if match:
                declared_arity = int(match.group(1))
            continue
        fields = [f.strip() for f in row]
        if not header_seen:
            if fields != _CSV_HEADER:
                raise ResponseParseError(
                    f"expected header {','.join(_CSV_HEADER)!r}, got {','.join(fields)!r}",
                    line)
            header_seen = True
            continue
        if len(fields) != 3:
            raise ResponseParseError(f"expected 3 fields, got {len(fields)}", line)
        task, worker, raw = fields
        if not task or not worker:
            raise ResponseParseError("empty task or worker id", line)
        try:
            label = int(raw)
        except ValueError:
            raise ResponseParseError(f"response {raw!r} is not an integer", line) from None
        if label < 1:
            raise LabelDomainError(f"line {line}: label {label} is below 1")
        records.append((task, worker, label))
    if not header_seen:
        raise ResponseParseError("missing header row")
    if not records:
        raise EmptyDatasetError("no response rows found")
    return ResponseDataset.from_records(records, arity=declared_arity)


def _load_json(text: str) -> ResponseDataset:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResponseParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise ResponseParseError("top-level JSON value must be an array")
    records: list[tuple[str, str, int]] = []
    for idx, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise ResponseParseError(f"element {idx} is not an object")
        missing = [k for k in ("task", "worker", "response") if k not in entry]
        if missing:
            raise ResponseParseError(f"element {idx} is missing keys {missing}")
        label = entry["response"]
        if isinstance(label, bool) or not isinstance(label, int):
            raise ResponseParseError(f"element {idx}: response must be an integer")
        if label < 1:
            raise LabelDomainError(f"element {idx}: label {label} is below 1")
        records.append((str(entry["task"]), str(entry["worker"]), label))
    if not records:
        raise EmptyDatasetError("no response rows found")
    return ResponseDataset.from_records(records)


def load_gold(source) -> GoldLabels:
    """Parse a gold-label CSV with header `task_id,response`."""
    reader = csv.reader(io.StringIO(_as_text(source)))
    header_seen = False
    labels: dict[str, int] = {}
    for row in reader:
        line = reader.line_num
        if not row or row[0].lstrip().startswith("#"):
            continue
        fields = [f.strip() for f in row]
        if not header_seen:
            if fields != _GOLD_HEADER:
                raise GoldLabelError(
                    f"line {line}: expected header {','.join(_GOLD_HEADER)!r}")
            header_seen = True
            continue
        if len(fields) != 2:
            raise GoldLabelError(f"line {line}: expected 2 fields, got {len(fields)}")
        task, raw = fields
        try:
            label = int(raw)
        except ValueError:
            raise GoldLabelError(f"line {line}: response {raw!r} is not an integer") from None
        if label < 1:
            raise LabelDomainError(f"line {line}: label {label} is below 1")
        if task in labels and labels[task] != label:
            raise GoldLabelError(f"line {line}: conflicting gold labels for {task!r}")
        labels[task] = label
    if not labels:
        raise GoldLabelError("no gold labels found")
    return GoldLabels(labels)


def write_responses_csv(ds: ResponseDataset) -> str:
    """Serialize a dataset to the CSV response format (round-trips through
    load_responses)."""
    out = io.StringIO()
    out.write(f"# arity={ds.arity}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for task, worker, label in ds.iter_responses():
        writer.writerow([task, worker, label])
    return out.getvalue()


# -- statistics ------------------------------------------------------------


def _resolve_workers(ds: ResponseDataset, workers: Sequence[str]) -> list[int]:
    if len(set(workers)) != len(workers):
        raise ValueError("worker subset contains duplicates")
    return [ds.worker_index(w) for w in workers]


def overlap_counts(ds: ResponseDataset, workers: Sequence[str]) -> AgreementStats:
    """Pair and triple shared-task counts for a worker subset (no rates)."""
    idx = _resolve_workers(ds, workers)
    pair_overlap = {}
    for a, b in combinations(range(len(idx)), 2):
        key = tuple(sorted((workers[a], workers[b])))
        pair_overlap[key] = int(ds.pair_overlap[idx[a], idx[b]])
    triple_overlap = {}
    for a, b, c in combinations(range(len(idx)), 3):
        key = tuple(sorted((workers[a], workers[b], workers[c])))
        triple_overlap[key] = ds.triple_overlap_by_index(idx[a], idx[b], idx[c])
    return AgreementStats({}, pair_overlap, triple_overlap)


def agreement_rates(ds: ResponseDataset, workers: Sequence[str],
                    require_overlap: bool = True) -> AgreementStats:
    """Agreement rates plus overlap counts for a worker subset.

    With require_overlap (default), a pair sharing no tasks raises
    InsufficientOverlapError naming the pair; otherwise such pairs simply
    have no agreement entry.
    """
    counts = overlap_counts(ds, workers)
    pair_agreement = {}
    idx = {w: ds.worker_index(w) for w in workers}
    for (a, b), overlap in counts.pair_overlap.items():
        if overlap == 0:
            if require_overlap:
                raise InsufficientOverlapError(
                    f"workers {a!r} and {b!r} share no tasks")
            continue
        pair_agreement[(a, b)] = float(ds.pair_agreement[idx[a], idx[b]])
    return AgreementStats(pair_agreement, counts.pair_overlap, counts.triple_overlap)


# -- transforms ------------------------------------------------------------


def reduce_arity(ds: ResponseDataset,
                 mapping: Mapping[int, int] | Callable[[int], int]) -> ResponseDataset:
    """Collapse labels through a map and relabel the image to 1..k'.

    `mapping` is a dict or callable defined on 1..arity. Any label actually
    observed must be mapped, or LabelDomainError is raised. The image is
    renumbered in ascending order; workers, tasks, and attempt sets are
    preserved.
    """
    image: dict[int, int] = {}
    for label in range(1, ds.arity + 1):
        if callable(mapping):
            try:
                value = mapping(label)
            except Exception:
                continue
        else:
            if label not in mapping:
                continue
            value = mapping[label]
        if isinstance(value, float):
            if not value.is_integer():
                raise LabelDomainError(f"label {label} maps to non-integer {value}")
            value = int(value)
        image[label] = int(value)
    observed = set(np.unique(ds.matrix)) - {0}
    unmapped = sorted(lbl for lbl in observed if lbl not in image)
    if unmapped:
        raise LabelDomainError(f"observed labels {unmapped} are not mapped")
    ranks = {v: r + 1 for r, v in enumerate(sorted(set(image.values())))}
    lut = np.zeros(ds.arity + 1, dtype=np.int32)
    for label, value in image.items():
        lut[label] = ranks[value]
    new_arity = max(len(ranks), 2)
    return ResponseDataset(ds.workers, ds.tasks, new_arity, lut[ds.matrix])


def prune_spammers(ds: ResponseDataset, threshold: float = 0.4
                   ) -> tuple[ResponseDataset, list[RemovedWorker]]:
    """Drop binary workers whose majority-vote disagreement rate exceeds
    `threshold`.

    Majorities are computed once on the unpruned data, each worker's own
    vote included; ties resolve to label 1. Tasks left with no responses are
    dropped from the surviving dataset. Returns (pruned dataset, removals
    sorted by descending disagreement rate).
    """
    if ds.arity != 2:
        raise LabelDomainError(
            f"spammer pruning expects binary responses, got arity {ds.arity}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    mat = ds.matrix
    ones = (mat == 1).sum(axis=0)
    twos = (mat == 2).sum(axis=0)
    majority = np.where(ones >= twos, 1, 2)
    attempted = ds.attempts
    disagree = (attempted & (mat != majority[None, :])).sum(axis=1)
    attempts = attempted.sum(axis=1)
    with np.errstate(invalid="ignore"):
        rates = np.where(attempts > 0, disagree / np.maximum(attempts, 1), 0.0)
    removed_idx = [i for i in range(ds.num_workers) if rates[i] > threshold]
    removed = [RemovedWorker(ds.workers[i], float(rates[i])) for i in removed_idx]
    removed.sort(key=lambda r: -r.disagreement_rate)
    keep = [i for i in range(ds.num_workers) if rates[i] <= threshold]
    sub = mat[keep]
    live_tasks = np.nonzero((sub > 0).any(axis=0))[0] if keep else np.array([], dtype=int)
    pruned = ResponseDataset(
        tuple(ds.workers[i] for i in keep),
        tuple(ds.tasks[j] for j in live_tasks),
        ds.arity,
        sub[:, live_tasks] if keep else np.zeros((0, 0), dtype=np.int32))
    return pruned, removed
