"""Per-layer tracing of crowdgauge from outside the program.

While a `Tracer` is installed, the module-level functions named in
BOUNDARIES are replaced, in every crowdgauge module that bound them, by
wrappers that record a span (name, start, end, parent span) around each
call and add the counters read from its arguments and result. A layer's
metric `<span>_s` is its self time: the span's duration less the time of
the spans it encloses. The root span `cli` wraps the whole command, so its
self time is the command time that no other span covers, and the self
times of one invocation add up to its traced wall time.

A boundary whose function no longer exists is reported as missing and
reads 0; the rest of the run goes on.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    """A function whose calls are timed as span `span` and/or counted.

    `target` is "module:function" or "module:Class.method" inside the
    crowdgauge package. `sites` limits the replacement to those modules'
    attributes; by default every crowdgauge module that bound the function
    gets the wrapper. `count` maps (args, result) to counter increments.
    """

    target: str
    span: str | None
    count: Callable[[tuple, object], dict] | None = None
    sites: tuple[str, ...] | None = None


BOUNDARIES = (
    Boundary("dataset:load_responses", "dataset.load",
             lambda a, r: {"dataset.responses": int((r.matrix > 0).sum())}),
    Boundary("dataset:load_gold", "dataset.load"),
    Boundary("dataset:ResponseDataset.triple_overlap_by_index", None,
             lambda a, r: {"dataset.c3_lookups": 1}),
    Boundary("binary:greedy_pairs", "binary.pairing"),
    Boundary("binary:build_worker_system", "binary.triple",
             lambda a, r: {"binary.triples": len(r.triples) + r.triples_failed,
                           "binary.triples_failed": r.triples_failed}),
    Boundary("binary:cross_triple_covariances", "binary.cross_cov",
             lambda a, r: {"binary.cross_cov_pairs": len(a[0]) * (len(a[0]) - 1) // 2}),
    Boundary("binary:aggregate_system", "binary.aggregate"),
    Boundary("numerics:optimal_weights", "numerics.weights",
             lambda a, r: {"numerics.weights_calls": 1,
                           "numerics.weights_fallbacks": int(r.fallback)}),
    Boundary("numerics:invert_matrices", "numerics.invert",
             lambda a, r: {"numerics.invert_items": len(a[0])}, sites=("kary",)),
    Boundary("numerics:eigendecompose_many", "numerics.eig",
             lambda a, r: {"numerics.eig_items": len(a[0])}, sites=("kary",)),
    Boundary("kary:build_counts", "kary.counts"),
    Boundary("kary:prob_estimate", "kary.base_recovery"),
    Boundary("kary:numerical_jacobian", "kary.jacobian",
             lambda a, r: {"kary.recovered_tensors":
                           2 * (r.usable.size + r.pair_usable[r.pair_perturbed].size)}),
    Boundary("kary:kary_deviations", "kary.contraction"),
    Boundary("kary:kary_confidence_intervals", "kary.report"),
    Boundary("simulate:gen_binary_workers", "simulate.world"),
    Boundary("simulate:gen_binary_responses", "simulate.world",
             lambda a, r: {"simulate.estimates": r[0].num_workers}),
)

ROOT_SPAN = "cli"


def _package_modules() -> dict:
    return {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
            if name.startswith("crowdgauge.") and mod is not None}


class Tracer:
    """Spans and counters of the traced calls, kept in memory."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, boundary: Boundary, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if boundary.span is None:
                result = original(*args, **kwargs)
            else:
                result = self.call(boundary.span, original, *args, **kwargs)
            if boundary.count is not None:
                for key, value in boundary.count(args, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result
        return traced

    def install(self) -> None:
        """Replace every boundary function by its traced wrapper."""
        modules = _package_modules()
        self.missing = []
        for boundary in self.boundaries:
            module_name, _, qualname = boundary.target.partition(":")
            owner = modules.get(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(boundary.target)
                continue
            wrapper = self._wrap(boundary, original)
            if path:
                holders = [owner]
            else:
                holders = [mod for name, mod in modules.items()
                           if (boundary.sites is None or name in boundary.sites)
                           and getattr(mod, attr, None) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time of each span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def metrics(self, names) -> dict[str, float]:
        """The named per-layer metrics of the spans and counters recorded.

        `<span>_s` is a self time and `cli.self_s` the root's; any other
        name is a counter. Names with nothing recorded read 0.
        """
        times = self.self_times()
        values = {}
        for name in names:
            if name == f"{ROOT_SPAN}.self_s":
                values[name] = times.get(ROOT_SPAN, 0.0)
            elif name.endswith("_s"):
                values[name] = times.get(name[:-2], 0.0)
            else:
                values[name] = float(self.counters.get(name, 0))
        return values
