"""Monte-Carlo bisection: random dyadic descents over a grid path."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .paths import GridPath
from .report import SearchReport
from .rng import make_rng


@dataclass
class McbParams:
    r: int        # descent depth: fair bits per descent
    g: int        # number of descents
    seed: int = 0


def mcb_search(path: GridPath, params: McbParams) -> SearchReport:
    """Monte-Carlo bisection minimum search on a grid path.

    Each of the g descents consumes r fair bits and lands on a depth-r
    cell midpoint.  For r < level that midpoint is itself a grid node; for
    r = level it falls mid-cell and the cell's left node stands in as the
    evaluated candidate.  The endpoints are evaluated first, so the search
    makes g + 2 oracle queries (repeat visits are queried again; the
    distinct count is reported in params['unique_queries']).  Ties keep
    the earliest candidate.
    """
    if params.r < 1:
        raise ValueError("descent depth r must be >= 1")
    if params.g < 1:
        raise ValueError("descent count g must be >= 1")
    if params.r > path.level:
        raise ValueError(f"descent depth {params.r} exceeds grid level {path.level}")
    rng = make_rng(params.seed)
    t0 = time.perf_counter()
    bits = rng.integers(0, 2, size=(params.g, params.r))
    idx = np.zeros(params.g, dtype=np.int64)
    for j in range(params.r):
        idx = 2 * idx + bits[:, j]
    mids = (2 * idx + 1) / 2.0 ** (params.r + 1)
    n = 2 ** path.level
    nodes = np.floor(mids * n).astype(np.int64)   # exact: left node, or the midpoint itself
    cand = np.concatenate([[0, n], nodes])
    vals = path.values[cand]
    best = int(np.argmin(vals))
    elapsed = time.perf_counter() - t0
    return SearchReport(
        argmin_t=float(path.times[cand[best]]), min_value=float(vals[best]),
        queries=params.g + 2, wall_time=elapsed, method="mcb",
        params={"l": path.level, "r": params.r, "g": params.g,
                "unique_queries": int(np.count_nonzero(np.bincount(cand)))},
        seed=params.seed)
