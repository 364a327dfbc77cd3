"""Crowdsourced response data: loading, agreement statistics, label maps,
and majority-vote spammer pruning.

A dataset is a partial map (worker, task) -> label in 1..arity, stored as a
dense integer matrix with 0 marking "not attempted". Workers and tasks keep
their first-appearance order from the source.

CSV loading reads the rows up to the header (blank lines, `#` comments,
`# arity=K`) with `csv.reader`. Then it takes one of two paths to three
integers per response: a task code and a worker code (first-appearance
indices) and the label.

- A plain text is parsed from its UTF-8 bytes with numpy. It is plain
  when it holds no `"`, no NUL and no carriage return except right before
  a newline, and every line after the header is `task,worker,label`: ids
  of printable ASCII other than the space, `"`, `#` and `,`, no longer
  than `csv.field_size_limit()`, and a label of 1 to 18 ASCII digits
  worth at least 1. The last row may lack its newline, and blank lines
  may follow it. The ids of a column are coded from keys as wide as its
  longest id, so a plain text with one id far longer than the rest takes
  the loop below.
- Any other text goes on through the same reader, which checks each row
  in file order and keeps the codes in `array` columns. This loop stays:
  it handles quoting, and it is the one source of CSV error messages. A
  plain text gives the same dataset, or the same error, on either path.

JSON input and `from_records` encode to the same columns. One vectorised
step then drops identical duplicates, rejects conflicting ones and fills
the matrix.

Pairwise statistics live on the dataset as worker-indexed arrays, computed
once on first use: `attempts` (also bit-packed), `pair_overlap` and
`pair_agreement` (m x m, so memory is O(m^2) in the number of workers m),
plus `triple_overlap_by_index` for one triple or for arrays of triples.
The estimators index them by worker position.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import operator
import re
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyDatasetError,
    GoldLabelError,
    LabelDomainError,
    ResponseConflictError,
    ResponseParseError,
    UnknownWorkerError,
)

_ARITY_COMMENT = re.compile(r"#\s*arity\s*=\s*(\d+)\s*$")
_CSV_HEADER = ["task_id", "worker_id", "response"]
_GOLD_HEADER = ["task_id", "response"]


def _shared_counts(rows: np.ndarray) -> np.ndarray:
    """Columns that each pair of rows of a boolean matrix share (int64).

    The product runs in float64, exact for counts below 2^53, because
    numpy multiplies integer matrices without BLAS, many times slower.
    """
    a = rows.astype(float)
    return (a @ a.T).astype(np.int64)


# Set bits of each byte value. Triple overlaps of packed attempt rows are
# counted through it, because unpacking the rows first takes eight times
# the memory.
_BIT_COUNTS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8)


def packed_triple_overlap(packed: np.ndarray, a, b, c):
    """Tasks shared by rows a, b and c of attempt rows packed to bits
    (np.packbits along the tasks).

    With row positions as ints the result is an int; with index arrays
    (ints broadcast) it is an integer array of the broadcast shape.
    """
    counts = _BIT_COUNTS[packed[a] & packed[b] & packed[c]].sum(axis=-1, dtype=np.intp)
    return counts if np.ndim(counts) else int(counts)


@lru_cache(maxsize=4)
def _default_ids(prefix: str, count: int) -> tuple[str, ...]:
    """The ids prefix1 .. prefix<count>, built once per size: simulations
    wrap thousands of matrices of one shape."""
    return tuple(f"{prefix}{i + 1}" for i in range(count))


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
        given = np.asarray(self.matrix)
        with np.errstate(invalid="ignore"):  # a NaN or inf label is refused below
            mat = given.astype(np.int32)
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
        if not np.array_equal(mat, given):
            raise LabelDomainError("labels must be integers that fit in int32")
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
        tasks: dict[str, int] = {}
        workers: dict[str, int] = {}
        task_codes, worker_codes, labels = array("q"), array("q"), array("q")
        try:
            for task, worker, label in records:
                task_codes.append(tasks.setdefault(task, len(tasks)))
                worker_codes.append(workers.setdefault(worker, len(workers)))
                labels.append(int(label))
        except OverflowError:
            raise LabelDomainError(
                f"element {len(labels)}: label {label} is too large") from None
        if not labels:
            raise EmptyDatasetError("no responses provided")
        return ResponseDataset._from_codes(tuple(tasks), tuple(workers), task_codes,
                                           worker_codes, labels, arity)

    @staticmethod
    def _from_codes(tasks: tuple, workers: tuple, task_codes, worker_codes, labels,
                    arity: int | None) -> "ResponseDataset":
        """Build a dataset from per-response integer columns (int64 arrays,
        or `array("q")` columns, read in place).

        Response i gave `labels[i]` for task `tasks[task_codes[i]]` by worker
        `workers[worker_codes[i]]`. The first response in input order that
        has a label below 1, or a label other than the first one given for
        its (task, worker) key, raises; identical duplicates collapse.
        """
        task_code = np.asarray(task_codes, dtype=np.int64)
        worker_code = np.asarray(worker_codes, dtype=np.int64)
        label = np.asarray(labels, dtype=np.int64)
        _, first, key = np.unique(task_code * len(workers) + worker_code,
                                  return_index=True, return_inverse=True)
        first_label = label[first]
        faults = np.flatnonzero((label < 1) | (label != first_label[key]))
        if faults.size:
            i = int(faults[0])
            task, worker, value = tasks[task_code[i]], workers[worker_code[i]], int(label[i])
            if value < 1:
                raise LabelDomainError(
                    f"label {value} for task {task!r}, worker {worker!r} is below 1")
            raise ResponseConflictError(
                f"task {task!r}, worker {worker!r} has conflicting labels "
                f"{int(first_label[key[i]])} and {value}")
        max_label = int(label.max())
        if arity is None:
            arity = max(max_label, 2)
        elif max_label > arity:
            raise LabelDomainError(
                f"label {max_label} exceeds declared arity {arity}")
        if max_label > np.iinfo(np.int32).max:
            raise LabelDomainError(f"label {max_label} is too large")
        matrix = np.zeros((len(workers), len(tasks)), dtype=np.int32)
        matrix[worker_code[first], task_code[first]] = first_label
        return ResponseDataset(workers, tasks, int(arity), matrix)

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
            workers = _default_ids("w", mat.shape[0])
        if tasks is None:
            tasks = _default_ids("t", mat.shape[1])
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
    def packed_attempts(self) -> np.ndarray:
        """`attempts` packed to bits along the tasks (np.packbits), the rows
        that triple overlaps are counted from."""
        return np.packbits(self.attempts, axis=1)

    @cached_property
    def pair_overlap(self) -> np.ndarray:
        """Worker-by-worker counts of shared tasks, c_ab (int64)."""
        return _shared_counts(self.attempts)

    @cached_property
    def pair_agreement(self) -> np.ndarray:
        """Worker-by-worker agreement rates q_ab on shared tasks (NaN for
        pairs that share none)."""
        agree = np.zeros((self.num_workers, self.num_workers), dtype=np.int64)
        for label in range(1, self.arity + 1):
            agree += _shared_counts(self.matrix == label)
        overlap = self.pair_overlap
        return np.divide(agree, overlap, out=np.full(overlap.shape, np.nan), where=overlap > 0)

    def triple_overlap_by_index(self, a, b, c):
        """Tasks attempted by workers a, b and c, c_abc: packed_triple_overlap
        of `packed_attempts` (an int, or an array for index arrays)."""
        return packed_triple_overlap(self.packed_attempts, a, b, c)


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

    def relabel(self, mapping: Mapping[int, int]) -> GoldLabels:
        """The labels collapsed through a {label: new label} table, as
        reduce_arity collapses responses; a label missing from the table
        raises LabelDomainError."""
        lookup = _label_lookup(mapping)
        unmapped = sorted(set(self.labels.values()) - lookup.keys())
        if unmapped:
            raise LabelDomainError(f"gold labels {unmapped} are not mapped")
        return GoldLabels({task: lookup[label] for task, label in self.labels.items()})


class RemovedWorker(NamedTuple):
    worker: str
    disagreement_rate: float


# -- loading / writing -----------------------------------------------------


def _as_utf8(source) -> bytes:
    """The UTF-8 bytes of str, bytes or file-like input, less one leading
    byte-order mark, which spreadsheet tools often write.

    Bytes are passed on as they are, once checked; bytes that are not UTF-8
    raise ResponseParseError. A str is encoded with surrogatepass, which
    carries lone surrogates, which a str may hold, through unchanged.
    """
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    elif not data.isascii():  # ASCII is UTF-8, and isascii copies nothing
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ResponseParseError(f"input is not valid UTF-8: {exc}") from exc
    return data.removeprefix(codecs.BOM_UTF8)


def _csv_reader(data: bytes):
    """A csv.reader over UTF-8 `data` that splits lines as io.StringIO of
    its text does.

    Reading the UTF-8 bytes keeps one byte per ASCII character, where
    StringIO keeps four; surrogatepass reads back the lone surrogates that
    _as_utf8 carries.
    """
    return csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                       errors="surrogatepass", newline="\n"))


def load_responses(source, fmt: str = "csv") -> ResponseDataset:
    """Parse responses from CSV or JSON text (str, bytes, or file-like).

    CSV: header `task_id,worker_id,response`, one response per row, optional
    `# arity=K` comment. JSON: array of {"task", "worker", "response"}
    objects, whose ids are non-blank strings or integers and whose response
    is an integer. Duplicate identical responses deduplicate; conflicting
    ones raise ResponseConflictError.
    """
    if fmt == "csv":
        return _load_csv(_as_utf8(source))
    if fmt == "json":
        return _load_json(_as_utf8(source))
    raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'json')")


def _load_csv(data: bytes) -> ResponseDataset:
    """Parse CSV response text from its UTF-8 bytes.

    A csv.reader reads the rows up to the header: blank lines, `#`
    comments, and `# arity=K`, which may repeat but not change. If the text
    is plain (see `_plain_rows`), its data rows are parsed from the bytes
    in bulk. Otherwise the same reader goes on row by row. That loop stays
    because it handles quoting and is the one source of CSV error messages;
    a plain text gives the same dataset, or the same error, either way.
    """
    reader = _csv_reader(data)
    declared_arity: int | None = None
    header_seen = False
    tasks: dict[str, int] = {}
    workers: dict[str, int] = {}
    task_codes, worker_codes, labels = array("q"), array("q"), array("q")
    columns = None
    try:
        for row in reader:
            if not row:
                continue
            if row[0].lstrip().startswith("#"):
                match = _ARITY_COMMENT.match(",".join(row).strip())
                if match:
                    arity = int(match.group(1))
                    if declared_arity not in (None, arity):
                        raise ResponseParseError(
                            f"arity {arity} conflicts with arity {declared_arity} "
                            "declared earlier", reader.line_num)
                    declared_arity = arity
                continue
            if not header_seen:
                fields = [f.strip() for f in row]
                if fields != _CSV_HEADER:
                    raise ResponseParseError(
                        f"expected header {','.join(_CSV_HEADER)!r}, got {','.join(fields)!r}",
                        reader.line_num)
                header_seen = True
                columns = _plain_rows(data, reader.line_num)
                if columns is not None:
                    break
                continue
            if len(row) != 3:
                raise ResponseParseError(f"expected 3 fields, got {len(row)}", reader.line_num)
            task, worker, raw = row
            task, worker, raw = task.strip(), worker.strip(), raw.strip()
            if not task or not worker:
                raise ResponseParseError("empty task or worker id", reader.line_num)
            try:
                label = int(raw)
            except ValueError:
                raise ResponseParseError(f"response {raw!r} is not an integer",
                                         reader.line_num) from None
            if label < 1:
                raise LabelDomainError(f"line {reader.line_num}: label {label} is below 1")
            task_codes.append(tasks.setdefault(task, len(tasks)))
            worker_codes.append(workers.setdefault(worker, len(workers)))
            labels.append(label)
    except csv.Error as exc:
        raise ResponseParseError(f"malformed CSV: {exc}", reader.line_num) from None
    except OverflowError:
        raise LabelDomainError(
            f"line {reader.line_num}: label {label} is too large") from None
    del reader, data  # the codes are sorted without the text's bytes
    if columns is not None:
        return ResponseDataset._from_codes(*columns, declared_arity)
    if not header_seen:
        raise ResponseParseError("missing header row")
    if not labels:
        raise EmptyDatasetError("no response rows found")
    return ResponseDataset._from_codes(tuple(tasks), tuple(workers), task_codes,
                                       worker_codes, labels, declared_arity)


# The bytes of a plain data row: ',', '\n', and the bytes of its ids, which
# are printable ASCII but the space, '"', '#' and ','.
_PLAIN_BYTES = bytes(range(0x21, 0x7f)).translate(None, b'"#') + b"\n"
# The separators that end the three fields of a row.
_ROW_ENDS = np.frombuffer(b",,\n", dtype=np.uint8)
# Labels of up to 18 digits fit in int64.
_PLAIN_DIGITS = 18


def _plain_rows(data: bytes, head_lines: int):
    """The columns of the rows after the first `head_lines` lines of UTF-8
    `data`, as `_from_codes` takes them before the arity, or None where
    the text is not plain.

    It is plain when it holds no quote, no NUL and no carriage return but
    right before a newline, so that each row is one line, and each line
    after the head is `task,worker,label`, but for blank lines after the
    last row, which may lack its newline: ids of printable ASCII but the
    space, '"', '#' and ',', no longer than csv.field_size_limit(), and a
    label of 1 to 18 ASCII digits worth at least 1. csv.reader splits such
    a row at its commas and finds nothing to strip or refuse in it. A
    plain text whose id keys, each as wide as the longest id of its
    column, would outgrow twice the text gives None too.

    Positions are int32 where they fit, and the arrays of them are freed on
    return, before `_from_codes` sorts the codes.
    """
    if b'"' in data or b"\0" in data:
        return None
    if b"\r" in data:  # one scan; counting and replacing take four
        if data.count(b"\r") != data.count(b"\r\n"):
            return None
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    start = -1
    for _ in range(head_lines):
        start = data.find(b"\n", start + 1)
    # Blank lines after the last row are left out, as csv.reader skips
    # them; the header line is not blank, so `end` stays past `start`.
    end = len(data)
    while data[end - 2] == 0x0A:
        end -= 1
    if start + 1 == end or data[start + 1:end].translate(None, _PLAIN_BYTES):
        return None
    buf = np.frombuffer(data, dtype=np.uint8, count=end - start - 1, offset=start + 1)
    # Each row is three fields, which end at a ',', a ',' and a '\n'. Field
    # i of the text runs from after bounds[i] to bounds[i + 1].
    bounds = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    bounds = np.insert(bounds.astype(np.int32 if buf.size < 2 ** 31 else np.int64), 0, -1)
    if bounds.size % 3 != 1 or not (buf[bounds[1:]].reshape(-1, 3) == _ROW_ENDS).all():
        return None
    gaps = np.diff(bounds)
    if gaps.min() < 2 or gaps.max() > csv.field_size_limit() + 1:
        return None  # an empty field, or one longer than csv.reader takes
    # Each id column is coded from keys as wide as its longest id, rounded
    # up to 8 bytes. Ids of one width keep them within twice the text; one
    # long id among short ones would not, and the loop reads it in less.
    widths = gaps.reshape(-1, 3)[:, :2].max(axis=0) - 1
    if int((-widths % 8 + widths).max()) * (gaps.size // 3) > 2 * buf.size:
        return None
    del gaps
    labels = _plain_labels(buf, *_plain_field(bounds, 2))
    if labels is None:
        return None
    tasks, task_codes = _plain_ids(buf, *_plain_field(bounds, 0))
    workers, worker_codes = _plain_ids(buf, *_plain_field(bounds, 1))
    return tasks, workers, task_codes, worker_codes, labels


def _plain_field(bounds: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts and lengths of field k of each plain row, whose fields
    run from after bounds[i] to bounds[i + 1]."""
    starts = bounds[k:-1:3] + 1
    return starts, bounds[k + 1::3] - starts


def _plain_labels(buf: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray | None:
    """The labels at `starts` of `buf` (int64), or None unless each is 1 to
    18 ASCII digits worth at least 1."""
    if lengths.max() > _PLAIN_DIGITS:
        return None
    labels = np.zeros(starts.size, dtype=np.int64)
    for j in range(int(lengths.max())):
        has = lengths > j
        digit = buf.take(starts + j, mode="clip") - ord("0")  # wraps below '0'
        if (has & (digit > 9)).any():
            return None
        labels = np.where(has, labels * 10 + digit, labels)
    return labels if labels.min() >= 1 else None


def _plain_ids(buf: np.ndarray, starts: np.ndarray,
               lengths: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ASCII ids at `starts` of `buf`, in order of first
    appearance, and the index of each field's id among them (int64)."""
    width = int(lengths.max())
    keys = np.zeros((starts.size, -width % 8 + width), dtype=np.uint8)
    for j in range(width):
        keys[:, j] = np.where(lengths > j, buf.take(starts + j, mode="clip"), 0)
    # NUL pads each id to whole 8-byte words, and no id holds one. Ids of
    # one word compare as integers: on 130k rows of `t00000,w000,1`,
    # sorting them as `S8` strings would take about 35 ms more, nearly
    # doubling the load.
    keys = keys.view(f"S{keys.shape[1]}").ravel()
    words = keys.view(np.uint64) if keys.itemsize == 8 else keys
    distinct = np.sort(words)  # np.unique(words) would import numpy.ma, a megabyte
    # Rebinding frees the sorted copy before the codes are made.
    distinct = distinct[np.append(distinct[1:] != distinct[:-1], True)]
    codes = np.searchsorted(distinct, words)
    first = np.full(distinct.size, codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ids = distinct[order].view(keys.dtype).tolist()
    return tuple(key.decode("ascii") for key in ids), rank[codes]


def _json_id(entry: dict, key: str, idx: int) -> str:
    """The `key` id of JSON element `idx`: a non-blank string, or an integer
    (not a bool, as for the response) as its decimal string."""
    value = entry[key]
    if isinstance(value, str) and value.strip() or type(value) is int:
        return str(value)
    raise ResponseParseError(
        f"element {idx}: {key} must be a non-blank string or an integer, got {value!r}")


def _load_json(data: bytes) -> ResponseDataset:
    try:
        payload = json.loads(data.decode("utf-8", "surrogatepass"))
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
        if type(label) is not int:  # a bool is not a label
            raise ResponseParseError(f"element {idx}: response must be an integer")
        if label < 1:
            raise LabelDomainError(f"element {idx}: label {label} is below 1")
        records.append((_json_id(entry, "task", idx), _json_id(entry, "worker", idx), label))
    if not records:
        raise EmptyDatasetError("no response rows found")
    return ResponseDataset.from_records(records)


def load_gold(source) -> GoldLabels:
    """Parse a gold-label CSV with header `task_id,response`."""
    reader = _csv_reader(_as_utf8(source))
    header_seen = False
    labels: dict[str, int] = {}
    try:
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
                raise GoldLabelError(
                    f"line {line}: response {raw!r} is not an integer") from None
            if label < 1:
                raise LabelDomainError(f"line {line}: label {label} is below 1")
            if task in labels and labels[task] != label:
                raise GoldLabelError(f"line {line}: conflicting gold labels for {task!r}")
            labels[task] = label
    except csv.Error as exc:
        raise GoldLabelError(f"line {reader.line_num}: malformed CSV: {exc}") from None
    if not labels:
        raise GoldLabelError("no gold labels found")
    return GoldLabels(labels)


def write_responses_csv(ds: ResponseDataset) -> str:
    """Serialize a dataset to the CSV response format (round-trips through
    load_responses).

    An id that CSV loading would read back otherwise raises
    ResponseParseError: an empty id, one with spaces around it (loading
    strips them), or a task id that starts with '#' (a comment row).
    """
    for kind, ids in (("task", ds.tasks), ("worker", ds.workers)):
        for name in ids:
            if not name or name != name.strip() or kind == "task" and name[0] == "#":
                raise ResponseParseError(
                    f"{kind} id {name!r} cannot be written to CSV: it would load back "
                    "as another id")
    out = io.StringIO()
    out.write(f"# arity={ds.arity}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for task, worker, label in ds.iter_responses():
        writer.writerow([task, worker, label])
    return out.getvalue()


# -- transforms ------------------------------------------------------------


def _label_lookup(mapping: Mapping[int, int]) -> dict[int, int]:
    """{label: new label} of a label map, its image renumbered to 1..k'.

    The image is renumbered in ascending order. A value that is not an
    integer raises LabelDomainError.
    """
    image: dict[int, int] = {}
    for label in sorted(mapping):
        try:
            image[label] = operator.index(mapping[label])
        except TypeError:
            raise LabelDomainError(
                f"label {label} maps to non-integer {mapping[label]!r}") from None
    ranks = {v: r + 1 for r, v in enumerate(sorted(set(image.values())))}
    return {label: ranks[value] for label, value in image.items()}


def reduce_arity(ds: ResponseDataset, mapping: Mapping[int, int]) -> ResponseDataset:
    """Collapse labels through a {label: new label} table and relabel the
    image to 1..k'.

    A key outside 1..arity, or a value that is not an integer, raises
    LabelDomainError, and so does an observed label missing from the table;
    an unobserved label may be left out. The image is renumbered in
    ascending order, with k' at least 2; workers, tasks, and attempt sets
    are preserved.
    """
    outside = [label for label in mapping if label not in range(1, ds.arity + 1)]
    if outside:
        raise LabelDomainError(f"label map keys {outside} lie outside 1..{ds.arity}")
    lookup = _label_lookup(mapping)
    observed = set(np.unique(ds.matrix).tolist()) - {0}
    unmapped = sorted(observed - lookup.keys())
    if unmapped:
        raise LabelDomainError(f"observed labels {unmapped} are not mapped")
    lut = np.array([lookup.get(lbl, 0) for lbl in range(ds.arity + 1)], dtype=np.int32)
    return ResponseDataset(ds.workers, ds.tasks, max([2, *lookup.values()]), lut[ds.matrix])


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
