"""Benchmark of the crowdgauge command line, end to end and per layer.

Run from the root of a source tree:

    python3 bench/run.py --workload binary-m81 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --write-digests

A run imports crowdgauge from `src/`, writes the workload's inputs under
`bench/out/<workload>/`, and calls `crowdgauge.cli.main(argv)` in this
process: one untimed warm-up, which also measures the peak allocation,
then timed invocations until `--seconds` have passed. With `--trace 0`
it reports the end-to-end metrics; with `--trace 1` a traced
invocation follows each timed one, and it reports the per-layer metrics
instead, and prints the tracing overhead (see tracing.py). Either way it
checks the outputs, and prints one JSON object as its last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--write-digests` rewrites bench/digests.json, the output digest of each
workload at seed 0; runs print whether their digest matches it, which is
information, not a check. Workloads, metrics and reference figures are
described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
DIGEST_SEED = 0

# Set-up is repeated and its median taken; the import is timed once.
SETUP_REPEATS = 5
MIN_INVOCATIONS = 3

END_TO_END = {"setup_s": "s", "cmd_s": "s", "peak_mem_mb": "MB"}
PER_LAYER = {
    "dataset.load_s": "s", "dataset.responses": "count", "dataset.c3_lookups": "count",
    "binary.pairing_s": "s", "binary.triple_s": "s", "binary.triples": "count",
    "binary.triples_failed": "count", "binary.cross_cov_s": "s",
    "binary.cross_cov_pairs": "count", "binary.aggregate_s": "s",
    "numerics.weights_s": "s", "numerics.weights_calls": "count",
    "numerics.weights_fallbacks": "count", "numerics.invert_s": "s",
    "numerics.invert_items": "count", "numerics.eig_s": "s", "numerics.eig_items": "count",
    "kary.counts_s": "s", "kary.base_recovery_s": "s", "kary.jacobian_s": "s",
    "kary.recovered_tensors": "count", "kary.contraction_s": "s", "kary.report_s": "s",
    "simulate.world_s": "s", "simulate.estimates": "count",
    "cli.self_s": "s",
}


def import_crowdgauge() -> float:
    """Import crowdgauge from this tree's src/ and return the seconds it took."""
    if not (SRC / "crowdgauge" / "__init__.py").is_file():
        raise SystemExit(f"error: no crowdgauge package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import crowdgauge.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(crowdgauge.cli.__file__).resolve().parent != SRC / "crowdgauge":
        raise SystemExit(f"error: imported crowdgauge from {crowdgauge.cli.__file__}")
    return elapsed


def invoke(argv: list[str], tracer=None) -> float:
    """Run one command in this process; return its wall time in seconds."""
    from crowdgauge.cli import main

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv) if tracer is None else tracer.call(tracing.ROOT_SPAN, main, argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"crowdgauge {' '.join(argv)} exited {code}: {err.getvalue()}")
    return elapsed


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def reference_digest(workload: str, seed: int) -> str | None:
    if seed != DIGEST_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text())["digests"].get(workload)


def write_digests() -> None:
    import workloads

    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = OUT / name
        workdir.mkdir(parents=True, exist_ok=True)
        prepared = workload.prepare(DIGEST_SEED, workdir)
        invoke(prepared.argv)
        digests[name] = digest(prepared.output)
        print(f"{name}: {digests[name]}")
    DIGESTS.write_text(json.dumps({"seed": DIGEST_SEED, "digests": digests},
                                  indent=2) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_s = import_crowdgauge()
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]
    workdir = OUT / workload_name
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = workload.prepare(seed, workdir)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    # The warm-up is untimed; untraced runs take the peak allocation from it.
    if not trace:
        tracemalloc.start()
    invoke(prepared.argv)
    peak_mem_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    outputs = {digest(prepared.output)}
    attempted, failed = workload.operations(workloads.read_output(prepared))
    rounds = 1
    # A traced run alternates untraced and traced invocations, so the ratio
    # of each pair measures the tracing overhead under the same load.
    tracer = tracing.Tracer() if trace else None
    times, traced_times, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_INVOCATIONS:
        times.append(invoke(prepared.argv))
        outputs.add(digest(prepared.output))
        rounds += 1
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced_times.append(invoke(prepared.argv, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics(PER_LAYER))
            outputs.add(digest(prepared.output))
            rounds += 1

    output = workloads.read_output(prepared)
    problems = workloads.run_checks(workload, prepared, output)
    if len(outputs) != 1:
        problems.append(f"determinism: invocations wrote {len(outputs)} different outputs")

    q1, _, q3 = statistics.quantiles(times, n=4)
    cmd_s = statistics.median(times)
    ref = reference_digest(workload_name, seed)
    print(f"workload {workload_name}, seed {seed}, trace {int(trace)}: "
          f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"CROWDGAUGE_THREADS={os.environ.get('CROWDGAUGE_THREADS', 'unset')}")
    print(f"set-up: import {import_s:.4f} s + median input writing "
          f"{statistics.median(setup_times):.4f} s of {SETUP_REPEATS}")
    print(f"timed invocations: {len(times)}, "
          f"median {cmd_s:.4f} s, quartiles {q1:.4f} / {q3:.4f} s")
    digest_note = "no reference" if ref is None else (
        "matches reference" if ref in outputs else f"differs from reference {ref}")
    print(f"output digest {sorted(outputs)[0]} ({digest_note})")
    for line in workload.notes(prepared, output):
        print(line)
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    if tracer is not None:
        traced_s = statistics.median(traced_times)
        overhead = statistics.median(t / u for t, u in zip(traced_times, times))
        print(f"traced invocations: {len(traced_times)}, median {traced_s:.4f} s; "
              f"tracing overhead: median traced / untraced {overhead:.4f}")
        metrics = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER}
        print_layers(metrics, traced_s, tracer.missing)
        write_trace(workdir / "trace.json", workload_name, seed, tracer)
        units = PER_LAYER
    else:
        metrics = {"setup_s": setup_s, "cmd_s": cmd_s, "peak_mem_mb": peak_mem_mb}
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": attempted * rounds,
        "failed": failed * rounds,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def print_layers(metrics: dict, traced_s: float, missing: list[str]) -> None:
    print(f"{'layer metric':28} {'median':>12}  share of traced cmd_s")
    for name, unit in PER_LAYER.items():
        value = metrics[name]
        if unit == "s":
            print(f"{name:28} {value:12.4f}  {100 * value / traced_s:6.1f} %")
        else:
            print(f"{name:28} {value:12.0f}")
    if missing:
        print(f"missing boundaries (read 0): {', '.join(missing)}")


def write_trace(path: Path, workload: str, seed: int, tracer) -> None:
    """Spans and counters of the last traced invocation, times from its start."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "spans": [[name, start - origin, end - origin, parent]
                  for name, start, end, parent in tracer.spans],
        "counters": dict(tracer.counters),
        "missing": tracer.missing,
    }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--crowdgauge-threads", type=int, default=None,
                        help="set CROWDGAUGE_THREADS for the run (default: unset)")
    parser.add_argument("--write-digests", action="store_true",
                        help="rewrite bench/digests.json and exit")
    args = parser.parse_args(argv)
    os.environ.pop("CROWDGAUGE_THREADS", None)
    if args.crowdgauge_threads is not None:
        os.environ["CROWDGAUGE_THREADS"] = str(args.crowdgauge_threads)
    if args.write_digests:
        import_crowdgauge()
        write_digests()
        return 0
    if not args.workload:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
