"""Command-line interface.

Subcommands: `evaluate` (binary error-rate intervals), `evaluate-kary`
(response-probability matrix intervals for worker triples), `simulate`
(synthetic coverage/size experiments), and `prune` (majority-vote spammer
removal). Exit codes: 0 success (possibly with per-worker failure records),
1 usage error, 2 input parse error, 3 estimator hard failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .binary import evaluate_all
from .dataset import (
    GoldLabels,
    ResponseDataset,
    load_gold,
    load_responses,
    prune_spammers,
    reduce_arity,
    write_responses_csv,
)
from .errors import (
    CrowdGaugeError,
    EmptyDatasetError,
    GoldLabelError,
    InsufficientConnectivityError,
    LabelDomainError,
    ResponseConflictError,
    ResponseParseError,
    UnknownWorkerError,
)
from .kary import (
    CountsTensor,
    KaryReport,
    build_counts,
    kary_confidence_intervals,
    stack_size,
)
from .simulate import (
    CONFIDENCE_GRID,
    DENSITY_GRID,
    SimConfig,
    compare_weighting,
    format9_many,
    result_to_csv,
    result_to_json,
    round9,
    round9_many,
    run_coverage_experiment,
    run_size_experiment,
)

_PARSE_ERRORS = (ResponseParseError, ResponseConflictError, EmptyDatasetError,
                 LabelDomainError, GoldLabelError, UnknownWorkerError)


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise UsageError(message)


def _atomic_write(path: Path, text: str | Iterable[str]) -> None:
    """Write `text`, or each piece of an iterable of them as it comes, via a
    temp file of its own in the target directory, then rename.

    Concurrent writers of one path each rename a complete file; a failed
    write, or a piece that raises, removes the temp file, and an OSError
    names `path`.
    """
    pieces = (text,) if isinstance(text, str) else text
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for piece in pieces:
                    handle.write(piece)
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read_input(path_str: str) -> tuple[bytes, str]:
    """Return (bytes, inferred format) for an input path. The bytes are
    read as they are, so the CLI and the library read a file alike."""
    path = Path(path_str)
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        return path.read_bytes(), fmt
    except OSError as exc:
        raise UsageError(f"cannot read {path_str}: {exc}") from exc


def _load_dataset(args) -> ResponseDataset:
    data, inferred = _read_input(args.input)
    fmt = getattr(args, "format", None) or inferred
    ds = load_responses(data, fmt)
    if args.map is not None:
        ds = reduce_arity(ds, parse_label_map(args.map))
    return ds


def _check_confidence(value: float) -> float:
    if not 0.0 < value < 1.0:
        raise UsageError(f"--confidence must lie in (0, 1), got {value}")
    return value


# -- label maps --------------------------------------------------------------


def parse_label_map(text: str) -> dict[int, int]:
    """Parse a label table like "1:1,2:1,3:2,4:2" into {label: new label}.

    Items are comma-separated `label:new` pairs of integers; spaces around a
    number are ignored. A malformed item, an empty table or a repeated label
    is a usage error. `reduce_arity` checks the labels against the data.
    """
    table: dict[int, int] = {}
    for item in text.split(","):
        label, _, new = item.partition(":")
        try:
            label, new = int(label), int(new)
        except ValueError:
            raise UsageError(f"label map item {item!r} is not 'label:new'") from None
        if label in table:
            raise UsageError(f"label {label} appears twice in the label map")
        table[label] = new
    return table


# -- evaluate ----------------------------------------------------------------


def _proxy_error_rates(ds: ResponseDataset, gold: GoldLabels) -> dict[str, float | None]:
    """Each worker's share of wrong answers on the gold tasks it attempted;
    None for a worker who attempted none of them."""
    gold_row = np.zeros(ds.num_tasks, dtype=ds.matrix.dtype)
    gold_row[[ds.task_index(t) for t in gold.labels]] = list(gold.labels.values())
    graded = ds.attempts & (gold_row > 0)
    wrong = graded & (ds.matrix != gold_row)
    return {worker: (w / g if g else None) for worker, w, g in
            zip(ds.workers, wrong.sum(axis=1).tolist(), graded.sum(axis=1).tolist())}


def cmd_evaluate(args) -> int:
    ds = _load_dataset(args)
    if ds.arity != 2:
        raise UsageError(
            f"evaluate expects binary responses, got arity {ds.arity}; "
            "collapse labels first with --map")
    confidence = _check_confidence(args.confidence)
    if args.min_overlap < 1:
        raise UsageError(f"--min-overlap must be at least 1, got {args.min_overlap}")
    proxies = None
    if args.gold:
        gold = load_gold(_read_input(args.gold)[0])
        if args.map is not None:
            gold = gold.relabel(parse_label_map(args.map))
        gold.validate_for(ds)
        proxies = _proxy_error_rates(ds, gold)
    reports = evaluate_all(ds, confidence, args.weighting, args.min_overlap)
    records = []
    for report in sorted(reports, key=lambda r: r.worker):
        record: dict[str, object] = {
            "worker": report.worker,
            "failed": report.failed,
            "confidence": confidence,
            "triples_used": report.triples_used,
            "triples_failed": report.triples_failed,
        }
        if report.triples_failed:
            record["triple_failures"] = report.triple_failures
        record["method"] = report.method
        if report.failed:
            record["reason"] = report.reason
        else:
            record["estimate"] = round9(report.estimate)
            record["lower"] = round9(report.lower)
            record["upper"] = round9(report.upper)
            record["weights"] = round9_many(report.weights)
            if report.clamped:
                record["clamped"] = True
            if report.weight_fallback:
                record["weight_fallback"] = True
        if proxies is not None:
            proxy = proxies[report.worker]
            record["proxy_error_rate"] = None if proxy is None else round9(proxy)
            record["covered"] = (None if proxy is None or report.failed
                                 else report.lower <= proxy <= report.upper)
        records.append(record)
    _atomic_write(Path(args.output), json.dumps(records, indent=2) + "\n")
    failed = sum(1 for r in records if r["failed"])
    print(f"wrote {args.output}: {len(records)} workers, {failed} failed")
    return 0


# -- evaluate-kary -----------------------------------------------------------


def _auto_triples(ds: ResponseDataset, threshold: int) -> list[tuple[str, str, str]]:
    """Every worker triple that shares at least `threshold` tasks.

    Each triple seats its workers in id order, and the triples come in id
    order, whatever the order of the rows. The shared counts c_abc of each
    first worker a come from one product of 0/1 attempt rows,
    (A_a o A_b) A_c^T over the workers after a.
    """
    ids = sorted(ds.workers)
    attempts = ds.attempts[[ds.worker_index(w) for w in ids]].astype(float)
    triples = []
    for a in range(len(ids) - 2):
        rest = attempts[a + 1:]
        shared = (attempts[a] * rest) @ rest.T
        b, c = np.triu_indices(len(rest), 1)
        keep = shared[b, c] >= threshold
        triples += [(ids[a], ids[a + 1 + x], ids[a + 1 + y])
                    for x, y in zip(b[keep].tolist(), c[keep].tolist())]
    return triples


# A record sits two levels into the payload: payload, "triples", record.
_RECORD_INDENT = "\n    "
_HOLE = "@"  # a placeholder value; no key of a record contains it


def _reindent(text: str) -> str:
    """json.dumps(..., indent=2) text of a record, at the record's depth."""
    return text.replace("\n", _RECORD_INDENT)


@functools.cache
def _record_template(k: int) -> tuple[str, str]:
    """The text of a successful arity-k record with a %s for each value,
    in the order json writes them, and the line break that indents the
    lines of a slice_failures value.

    json.dumps lays out a skeleton record whose values are placeholders,
    so the filled template is the text json.dumps gives the record.
    """
    cell = {"estimate": _HOLE, "lower": _HOLE, "upper": _HOLE}
    skeleton = {
        "workers": [_HOLE] * 3, "failed": False, "selectivity": [_HOLE] * k,
        "matrices": [{"worker": _HOLE, "rows": [[cell] * k] * k}] * 3,
        "diagnostics": {"slice_failures": _HOLE, "max_imag": _HOLE, "rows_permuted": _HOLE,
                        "rows_sign_fixed": _HOLE, "clamped": _HOLE},
    }
    text = _reindent(json.dumps(skeleton, indent=2))
    line = next(line for line in text.split("\n") if '"slice_failures"' in line)
    indent = "\n" + " " * (len(line) - len(line.lstrip()))
    return text.replace("%", "%%").replace(f'"{_HOLE}"', "%s"), indent


def _json_numbers(values) -> list[str]:
    """The text json.dumps writes for round9 of each of the flattened values.

    A "%.9g" text with a point and no exponent has at most 9 significant
    digits and lies in [1e-4, 1e9), so it is already the repr, which json
    writes, of the float it reads as. Any other text (an exponent, a whole
    number, -0, nan or inf) is read back and spelled by json.
    """
    return [text if "." in text and "e" not in text else json.dumps(float(text))
            for text in format9_many(values)]


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _kary_record_text(triple: Sequence[str], report: KaryReport) -> str:
    """json.dumps(record, indent=2) of one triple's report, at the record's
    depth in the payload; numbers are written at 9 significant digits."""
    if report.failed:
        record = {"workers": list(triple), "failed": True, "reason": report.reason}
        return _reindent(json.dumps(record, indent=2))
    k, diag = report.arity, report.diagnostics
    template, indent = _record_template(k)
    cells = np.stack((report.midpoints, report.lower, report.upper), axis=-1).ravel()
    numbers = _json_numbers(np.concatenate((report.selectivity, cells, [diag.max_imag])))
    ids = [encode_basestring_ascii(w) for w in triple]
    per_worker = 3 * k * k
    values = [*ids, *numbers[:k]]
    for w in range(3):
        values.append(ids[w])
        values += numbers[k + w * per_worker:k + (w + 1) * per_worker]
    slices = json.dumps([list(f) for f in diag.slice_failures], indent=2)
    values += [slices.replace("\n", indent), numbers[-1], _flag(diag.rows_permuted),
               _flag(diag.rows_sign_fixed), _flag(diag.clamped)]
    return template % tuple(values)


def cmd_evaluate_kary(args) -> int:
    ds = _load_dataset(args)
    confidence = _check_confidence(args.confidence)
    if args.workers is not None:
        ids = [w.strip() for w in args.workers.split(",")]
        if len(ids) != 3 or len(set(ids)) != 3:
            raise UsageError("--workers needs exactly three distinct ids")
        for w in ids:
            ds.worker_index(w)  # raises UnknownWorkerError -> exit 2
        triples = [tuple(ids)]
    else:
        if args.auto_triples < 1:
            raise UsageError("--auto-triples needs a threshold of at least 1")
        triples = _auto_triples(ds, args.auto_triples)
        if not triples:
            raise InsufficientConnectivityError(
                f"no worker triple shares {args.auto_triples} or more tasks")
    failed = 0

    def pieces():
        """The text of json.dumps(payload, indent=2) + "\n", written as the
        triples are recovered, one stack of stack_size(k) at a time."""
        nonlocal failed
        head = json.dumps({"arity": ds.arity, "confidence": confidence, "triples": []},
                          indent=2)
        yield head[:-len("]\n}")]
        step = stack_size(ds.arity)
        for start in range(0, len(triples), step):
            chunk = triples[start:start + step]
            counts = CountsTensor(ds.arity, np.stack([build_counts(ds, t).counts for t in chunk]))
            reports = kary_confidence_intervals(counts, confidence)
            failed += sum(report.failed for report in reports)
            yield ("" if start == 0 else ",") + ",".join(
                _RECORD_INDENT + _kary_record_text(*item) for item in zip(chunk, reports))
        yield "\n  ]\n}\n"

    _atomic_write(Path(args.output), pieces())
    print(f"wrote {args.output}: {len(triples)} triples, {failed} failed")
    return 0


# -- simulate ----------------------------------------------------------------

# name: (defaults, which of --d, --arity and --weighting it takes, runner).
# An `arity` makes the config k-ary, with that fixture. The size sweeps set
# the density themselves, so they take no --d.
_EXPERIMENTS = {
    "coverage": ({"n": 100, "m": 7, "d": 0.8, "reps": 500}, ("d", "weighting"),
                 run_coverage_experiment),
    "size-vs-density": ({"n": 300, "m": 7, "d": 0.8, "reps": 500, "confidence": 0.8},
                        ("weighting",), lambda cfg: run_size_experiment(cfg, DENSITY_GRID)),
    "weight-comparison": ({"n": 100, "m": 7, "d": "ramp", "reps": 500}, ("d",),
                          compare_weighting),
    "kary-coverage": ({"n": 1000, "m": 3, "d": 1.0, "reps": 500, "arity": 2}, ("d", "arity"),
                      run_coverage_experiment),
    "kary-size": ({"n": 500, "m": 3, "d": 0.8, "reps": 150, "arity": 3, "confidence": 0.8},
                  (), lambda cfg: run_size_experiment(cfg, arities=(2, 3, 4))),
}


def _parse_density(raw) -> float | str:
    if raw == "ramp":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"--d must be a number or 'ramp', got {raw!r}") from None


def cmd_simulate(args) -> int:
    output = Path(args.output)
    writer = {".csv": result_to_csv, ".json": result_to_json}.get(output.suffix.lower())
    if writer is None:
        raise UsageError(f"--output must end in .csv or .json, got {output.name!r}")
    defaults, takes, runner = _EXPERIMENTS[args.experiment]
    for flag in ("d", "arity", "weighting"):
        if getattr(args, flag) is not None and flag not in takes:
            raise UsageError(f"--{flag} does not apply to {args.experiment}")
    opts = {**defaults, **{key: v for key, v in vars(args).items() if v is not None}}
    confidence = opts.get("confidence")
    grid = CONFIDENCE_GRID if confidence is None else (_check_confidence(confidence),)
    try:
        cfg = SimConfig(n=opts["n"], m=opts["m"], confidence_grid=grid,
                        density=_parse_density(opts["d"]), replications=opts["reps"],
                        seed=args.seed, weighting=opts.get("weighting", "optimal"),
                        fixture=f"arity{opts['arity']}" if "arity" in opts else None)
        result = runner(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _atomic_write(output, writer(result))
    print(f"wrote {args.output}: {len(result.rows)} rows "
          f"({result.experiment}, seed {args.seed})")
    return 0


# -- prune -------------------------------------------------------------------


def cmd_prune(args) -> int:
    ds = _load_dataset(args)
    if ds.arity != 2:
        raise UsageError(
            f"prune expects binary responses, got arity {ds.arity}; "
            "collapse labels first with --map")
    if not 0.0 <= args.threshold <= 1.0:
        raise UsageError(f"--threshold must lie in [0, 1], got {args.threshold}")
    pruned, removed = prune_spammers(ds, args.threshold)
    _atomic_write(Path(args.output), write_responses_csv(pruned))
    removed_path = Path(args.removed) if args.removed \
        else Path(args.output + ".removed.json")
    payload = [{"worker": r.worker,
                "disagreement_rate": round9(r.disagreement_rate)}
               for r in removed]
    _atomic_write(removed_path, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}: kept {pruned.num_workers} of {ds.num_workers} "
          f"workers, removed {len(removed)}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crowdgauge",
                     description="Error-rate and response-probability intervals "
                                 "for crowd workers, from agreement alone.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="response file (CSV or JSON)")
    common.add_argument("--output", required=True, help="output file path")
    common.add_argument("--format", choices=("csv", "json"),
                        help="input format (default: by file extension)")
    common.add_argument("--map", help="label table, e.g. '1:1,2:1,3:2,4:2'")

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="per-worker binary error-rate intervals")
    p_eval.add_argument("--confidence", type=float, default=0.95)
    p_eval.add_argument("--weighting", choices=("uniform", "optimal"),
                        default="optimal")
    p_eval.add_argument("--min-overlap", type=int, default=1,
                        help="minimum shared tasks per pair when forming triples")
    p_eval.add_argument("--gold", help="gold-label CSV for proxy error rates")
    p_eval.set_defaults(func=cmd_evaluate)

    p_kary = sub.add_parser("evaluate-kary", parents=[common],
                            help="response-probability matrix intervals for triples")
    p_kary.add_argument("--confidence", type=float, default=0.95)
    triples = p_kary.add_mutually_exclusive_group(required=True)
    triples.add_argument("--workers", help="three comma-separated worker ids")
    triples.add_argument("--auto-triples", type=int, metavar="T",
                         help="evaluate every triple sharing at least T tasks")
    p_kary.set_defaults(func=cmd_evaluate_kary)

    p_sim = sub.add_parser("simulate", help="synthetic interval-quality experiments")
    p_sim.add_argument("experiment", choices=tuple(_EXPERIMENTS))
    p_sim.add_argument("--output", required=True,
                       help="result path (.csv or .json)")
    p_sim.add_argument("--n", type=int, help="tasks per replication")
    p_sim.add_argument("--m", type=int, help="workers per replication")
    p_sim.add_argument("--d", help="attempt density, a number or 'ramp' (coverage, "
                                   "weight-comparison and kary-coverage only)")
    p_sim.add_argument("--reps", type=int, help="replications")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--confidence", type=float,
                       help="single confidence level (size experiments)")
    p_sim.add_argument("--arity", type=int, help="task arity (kary-coverage only)")
    p_sim.add_argument("--weighting", choices=("uniform", "optimal"),
                       help="triple weighting (coverage and size-vs-density only; "
                            "default: optimal)")
    p_sim.set_defaults(func=cmd_simulate)

    p_prune = sub.add_parser("prune", parents=[common],
                             help="remove majority-vote spammers (binary)")
    p_prune.add_argument("--threshold", type=float, default=0.4,
                         help="disagreement rate above which a worker is dropped")
    p_prune.add_argument("--removed",
                         help="path for the removal JSON "
                              "(default: OUTPUT.removed.json)")
    p_prune.set_defaults(func=cmd_prune)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrowdGaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
