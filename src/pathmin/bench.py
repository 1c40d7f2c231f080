"""Benchmark harness: accuracy/runtime grids and path range statistics."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .golden import GssParams, golden_section, iterative_gss
from .harmonic import HmcParams, harmonic_bisection_search
from .mcb import McbParams, mcb_search
from .paths import (BRIDGE, CAUCHY, GridPath, fill_dyadic, new_bridge, simulate_bridge_batch,
                    simulate_cauchy, simulate_cauchy_batch)
from .report import write_csv
from .rng import derive_seed, make_rng

FAILURE_FLAG_FRACTION = 0.01   # cells with more failed trials than this are flagged
MAX_LEVEL = 24                 # largest grid level: 2**24 + 1 float64 values take 128 MiB
CHUNK_VALUES = 2 ** 16         # grid values per drawn chunk of paths: 512 KiB
# the path kind of each grid method, whose cells run_grid draws in chunks
GRID_KINDS = {"naive-gss": BRIDGE, "iter-gss": BRIDGE, "mcb": BRIDGE, "mcb-cauchy": CAUCHY}


@dataclass
class TrialGrid:
    """A family of benchmark cells for one search method.

    method is one of run_trial's methods; cells holds one dict per cell of
    the keys run_trial reads.  level is the grid resolution of the GSS
    methods and of harmonic's reference grid.  run_grid documents the
    streams each cell's trials draw from, given seed.
    """

    method: str
    cells: list[dict]
    trials: int = 500
    seed: int = 0
    level: int = 10
    gss: GssParams = field(default_factory=GssParams)


@dataclass
class BenchRow:
    """Aggregated results of one cell."""

    method: str
    cell: dict
    mean_error: float
    stderr_error: float
    mean_wall_time: float
    mean_queries: float
    trials: int
    failures: int
    flagged: bool


def run_trial(method: str, cell: dict, seed: int, level: int = 10,
              gss: GssParams | None = None, path=None, descents=None):
    """One search of a benchmark cell: (report, grid searched or filled).

    Seed contract: unless a path is given, it is simulated from
    derive_seed(seed, 0): a level-`level` bridge grid for the GSS methods,
    a level-cell['l'] bridge or Cauchy grid for the MCB methods, a lazy
    bridge for harmonic (its grid is fill_dyadic(bridge, level), filled
    after the search).  The MCB descents draw from `descents` if it is
    given, else from make_rng(derive_seed(seed, 1)); the harmonic search
    draws nothing, so a harmonic trial uses only derive_seed(seed, 0).
    `pathmin search --seed S` runs run_trial(..., S).  cell holds 'm' for
    iter-gss, 'l', 'r', 'g' for MCB, and for harmonic 'budget', 'beta' and
    'solver' (a harmonic.SOLVER_EDGES key).
    """
    if method in ("naive-gss", "iter-gss"):
        if path is None:
            path = fill_dyadic(derive_seed(seed, 0), level)
        if method == "naive-gss":
            rep = golden_section(path, (0.0, 1.0), gss)
        else:
            rep = iterative_gss(path, cell["m"], gss)
    elif method in ("mcb", "mcb-cauchy"):
        if path is None:
            simulate = fill_dyadic if method == "mcb" else simulate_cauchy
            path = simulate(derive_seed(seed, 0), cell["l"])
        rep = mcb_search(path, McbParams(r=cell["r"], g=cell["g"]),
                         make_rng(derive_seed(seed, 1)) if descents is None else descents)
    elif method == "harmonic":
        lazy = path is None
        path = new_bridge(derive_seed(seed, 0)) if lazy else path
        rep = harmonic_bisection_search(path, cell["budget"],
                                        HmcParams(beta=cell["beta"], solver=cell["solver"]))
        if lazy:
            path = fill_dyadic(path, level)
    else:
        raise ValueError(f"unknown benchmark method '{method}'")
    return rep, path


def run_grid(grid: TrialGrid) -> list[BenchRow]:
    """Run every cell of the grid and aggregate per-cell statistics.

    Seed contract.  A cell of the four grid methods draws its trials from
    two streams of (grid.seed, c), c being the cell's index:
    - paths: trial t searches row t % n of chunk t // n, chunk k holding
      the n = max(1, CHUNK_VALUES // (2**level + 1)) paths that
      _draw_chunks draws from derive_seed(grid.seed, c, 0, k).  The level
      is grid.level for the GSS methods and cell['l'] for the MCB ones, and
      one outside 0..MAX_LEVEL raises ValueError;
    - descents: the MCB searches of the cell draw from one generator,
      make_rng(derive_seed(grid.seed, c, 1)), in trial order.
    So a cell's results depend only on (grid.seed, c, trials, level), and
    it peaks at one chunk of paths.
    A harmonic trial t runs run_trial at derive_seed(grid.seed, c, t), as
    `pathmin search` would: its lazy bridge, the trial's one draw, is
    sampled one query at a time, so there is no batch to draw.

    Trials that hit a numerical failure (RuntimeError, which covers
    ScSolverError, or FloatingPointError) are counted as failures and
    excluded from the means; a cell with more than 1% failures is
    flagged.  Any other error, such as an invalid cell or an unknown
    method, propagates to the caller.
    """
    rows = []
    for ci, cell in enumerate(grid.cells):
        if grid.method in GRID_KINDS:
            outcomes = _cell_outcomes(grid, ci, cell)
        else:
            outcomes = [_guarded_trial(grid, cell, derive_seed(grid.seed, ci, tr))
                        for tr in range(grid.trials)]
        good = [o for o in outcomes if o is not None]
        failures = len(outcomes) - len(good)
        if good:
            errs, walls, queries = np.array(good, dtype=float).T
            mean_err, mean_wall, mean_q = (float(x.mean()) for x in (errs, walls, queries))
            stderr = float(errs.std(ddof=1) / np.sqrt(len(errs))) if len(errs) > 1 else 0.0
        else:
            mean_err = stderr = mean_wall = mean_q = float("nan")
        rows.append(BenchRow(
            method=grid.method, cell=dict(cell), mean_error=mean_err,
            stderr_error=stderr, mean_wall_time=mean_wall, mean_queries=mean_q,
            trials=grid.trials, failures=failures,
            flagged=failures > FAILURE_FLAG_FRACTION * grid.trials))
    return rows


def _cell_outcomes(grid, ci, cell):
    """The outcomes of one cell's trials, drawn from its streams (run_grid)."""
    gss = grid.method in ("naive-gss", "iter-gss")
    level = grid.level if gss else cell["l"]
    kind = GRID_KINDS[grid.method]
    descents = None if gss else make_rng(derive_seed(grid.seed, ci, 1))
    outcomes = []
    _draw_chunks(kind, level, grid.trials, grid.seed, (ci, 0),
                 lambda _, chunk: outcomes.extend(
                     _guarded_trial(grid, cell, grid.seed, GridPath(level, row, kind), descents)
                     for row in chunk))
    return outcomes


def _draw_chunks(kind, level, count, seed, stream, consume):
    """Pass each chunk of count level-`level` paths of kind to consume(start, chunk).

    Chunk k holds rows start = k * n to min(start + n, count), n being
    max(1, CHUNK_VALUES // (2**level + 1)), drawn by simulate_bridge_batch
    (CAUCHY: simulate_cauchy_batch) from derive_seed(seed, *stream, k).  No
    chunk is bound here, so only one is alive at a time.  A level outside
    0..MAX_LEVEL or a kind other than those two raises ValueError first.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"grid level {level} outside 0..{MAX_LEVEL}")
    if kind not in (BRIDGE, CAUCHY):
        raise ValueError(f"unknown path kind '{kind}'")
    simulate = simulate_bridge_batch if kind == BRIDGE else simulate_cauchy_batch
    n = max(1, CHUNK_VALUES // (2 ** level + 1))
    for k, start in enumerate(range(0, count, n)):
        consume(start, simulate(derive_seed(seed, *stream, k), level, min(n, count - start)))


def _guarded_trial(grid, cell, tseed, path=None, descents=None):
    """(error, wall_time, queries) of one trial, or None on a numerical failure."""
    try:
        rep, path = run_trial(grid.method, cell, tseed, grid.level, grid.gss, path, descents)
        return rep.min_value - path.grid_min.value, rep.wall_time, rep.queries
    except (RuntimeError, FloatingPointError):
        return None


def mcb_grid(n_values, trials: int = 500, seed: int = 0) -> TrialGrid:
    """The matched-budget bisection family: cell n has l = r = n, g = 2**n."""
    cells = [{"l": n, "r": n, "g": 2 ** n} for n in n_values]
    return TrialGrid(method="mcb", cells=cells, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# Range statistics


@dataclass
class RangeDistribution:
    """Range (max - min) statistics of a batch of grid paths.

    arg_gaps holds |argmax time - argmin time| per path; bin_edges and
    density describe the normalised range histogram.
    """

    kind: str
    ranges: np.ndarray
    arg_gaps: np.ndarray
    bin_edges: np.ndarray
    density: np.ndarray

    @property
    def mean_range(self) -> float:
        return float(self.ranges.mean())


def range_distribution(kind: str, level: int, n_paths: int, bins: int = 60,
                       seed: int = 0) -> RangeDistribution:
    """Simulate n_paths grid paths and collect their range statistics.

    The paths are drawn in a grid cell's chunks (run_grid), but chunk k
    comes from derive_seed(seed, k).  So the result depends only on (kind,
    level, n_paths, seed), and memory peaks at one chunk beside the n_paths
    ranges and gaps.  A bad level or kind raises ValueError (_draw_chunks).
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    ranges, gaps = np.empty(n_paths), np.empty(n_paths)

    def collect(start, vals):
        rows = slice(start, start + len(vals))
        ranges[rows] = vals.max(axis=1) - vals.min(axis=1)
        # |argmax - argmin| / 2**level is exactly the gap of the dyadic times
        gaps[rows] = np.abs(np.argmax(vals, axis=1) - np.argmin(vals, axis=1)) / 2 ** level

    _draw_chunks(kind, level, n_paths, seed, (), collect)
    finite = ranges[np.isfinite(ranges)]
    hist_hi = float(np.quantile(finite, 0.995))
    edges = np.linspace(0.0, max(hist_hi, 1e-12), bins + 1)
    density, _ = np.histogram(finite[finite <= hist_hi], bins=edges, density=True)
    return RangeDistribution(kind=kind, ranges=ranges, arg_gaps=gaps,
                             bin_edges=edges, density=density)


# ---------------------------------------------------------------------------
# Writers


_BENCH_COLUMNS = ["method", "m", "l", "r", "g", "mean_error", "stderr_error",
                  "mean_wall_time", "mean_queries", "trials", "failures", "flagged"]


def save_bench_csv(rows: list[BenchRow], out_path: str) -> None:
    """Long-format CSV, one row per cell; absent cell parameters stay blank."""
    write_csv(out_path, _BENCH_COLUMNS, (
        [r.method, r.cell.get("m", ""), r.cell.get("l", ""), r.cell.get("r", ""),
         r.cell.get("g", ""), r.mean_error, r.stderr_error, r.mean_wall_time,
         r.mean_queries, r.trials, r.failures, int(r.flagged)]
        for r in rows))


def save_range_csv(rd: RangeDistribution, out_path: str) -> None:
    """Per-path 'range,time_gap' rows; histogram goes to '<out>.hist.csv'."""
    write_csv(out_path, ["range", "time_gap"], zip(rd.ranges, rd.arg_gaps))
    write_csv(f"{out_path}.hist.csv", ["bin_left", "bin_right", "density"],
              zip(rd.bin_edges[:-1], rd.bin_edges[1:], rd.density))
