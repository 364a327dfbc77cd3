"""Pack and unpack the by-T arrays that `build_worker_system` returns.

Tests that build a worker's triple system by hand, or read one worker's
slice of a built one, go through these two helpers, so that only they know
how `_WorkerSystems` lays its items out.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np

from crowdgauge.binary import _WorkerSystems


def pack_systems(p_hats, covariances, reasons=None) -> _WorkerSystems:
    """A `_WorkerSystems` of one item per (p_hats, covariance) pair, each of
    worker "w" with zero partners. An item without estimates has a
    covariance of None and fails with its entry of `reasons`."""
    used = np.array([len(p) for p in p_hats], dtype=np.intp)
    reasons = [None] * used.size if reasons is None else reasons
    by_size: dict[int, list] = {}
    for size, cov in zip(used.tolist(), covariances):
        if size:
            by_size.setdefault(size, []).append(np.asarray(cov, dtype=float))
    return _WorkerSystems(
        ("w",) * used.size, used, np.zeros((int(used.sum()), 2), dtype=np.intp),
        np.concatenate([np.empty(0)] + [np.asarray(p, dtype=float) for p in p_hats]),
        {size: np.stack(covs) for size, covs in sorted(by_size.items())},
        np.array(reasons, dtype=object), {}, np.empty((0, 3), dtype=np.intp), 0)


def unpack_systems(systems: _WorkerSystems) -> list[SimpleNamespace]:
    """Each item's slice of `systems`: its worker, reason, triple_failures,
    partners, p_hats and (T, T) covariance (None without usable triples)."""
    items, seen = [], Counter()
    start = 0
    for k, used in enumerate(systems.used.tolist()):
        covariance = systems.covariances[used][seen[used]] if used else None
        seen[used] += 1
        rows = slice(start, start + used)
        start += used
        items.append(SimpleNamespace(
            worker=systems.workers[k], reason=systems.reason[k],
            triple_failures=systems.triple_failures.get(k, Counter()),
            partners=systems.partners[rows], p_hats=systems.p_hats[rows],
            covariance=covariance))
    return items
