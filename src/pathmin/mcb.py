"""Monte-Carlo bisection: random dyadic descents over a grid path."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .paths import GridPath
from .report import SearchReport


@dataclass
class McbParams:
    r: int        # descent depth: fair bits per descent
    g: int        # number of descents


def mcb_search(path: GridPath, params: McbParams, rng: np.random.Generator) -> SearchReport:
    """Monte-Carlo bisection minimum search on a grid path.

    Each of the g descents draws one cell index k, uniform on the 2^r
    depth-r cells; its r binary digits, most significant first, are the
    descent's fair bits (left or right at each level), and it lands on the
    cell midpoint (2k + 1) / 2^(r+1).  For r < level that midpoint is
    itself a grid node; for r = level it falls mid-cell and the cell's
    left node stands in as the evaluated candidate.  The endpoints are
    evaluated first, so the search makes g + 2 oracle queries (repeat
    visits are queried again; the distinct count is reported in
    params['unique_queries'], counted in memory that grows with g, not with
    2^level).  Ties keep the earliest candidate.  The descents draw from rng.
    """
    if params.r < 1:
        raise ValueError("descent depth r must be >= 1")
    if params.g < 1:
        raise ValueError("descent count g must be >= 1")
    if params.r > path.level:
        raise ValueError(f"descent depth {params.r} exceeds grid level {path.level}")
    t0 = time.perf_counter()
    cells = rng.integers(0, 2 ** params.r, size=params.g)
    # node floor((2k + 1) / 2^(r+1) * 2^level): the midpoint, or the left node
    nodes = ((2 * cells + 1) << path.level) >> (params.r + 1)
    n = 2 ** path.level
    cand = np.concatenate([[0, n], nodes])
    vals = path.values[cand]
    best = int(np.argmin(vals))
    elapsed = time.perf_counter() - t0
    # bincount's n + 1 counters beat sorting only while the descents crowd
    # the grid; past 128 a candidate, its memory and time would grow with n
    dense = n <= 128 * len(cand)
    unique = np.count_nonzero(np.bincount(cand)) if dense else len(np.unique(cand))
    return SearchReport(
        argmin_t=float(cand[best] / n), min_value=float(vals[best]),
        queries=params.g + 2, wall_time=elapsed, method="mcb",
        params={"l": path.level, "r": params.r, "g": params.g,
                "unique_queries": int(unique)})
