"""Benchmark harness: accuracy/runtime grids and path range statistics."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .golden import GssParams, golden_section, iterative_gss
from .harmonic import HmcParams, harmonic_bisection_search
from .mcb import McbParams, mcb_search
from .paths import (BRIDGE, CAUCHY, GridPath, fill_dyadic, grid_steps, new_bridge,
                    simulate_bridge_batch, simulate_cauchy, simulate_cauchy_batch)
from .report import write_csv
from .rng import derive_seed, make_rng

CHUNK_VALUES = 2 ** 16         # grid values per drawn chunk of paths: 512 KiB
# the path kind of each grid method: run_trial simulates it, run_grid draws it in chunks
GRID_KINDS = {"naive-gss": BRIDGE, "iter-gss": BRIDGE, "mcb": BRIDGE, "mcb-cauchy": CAUCHY}


@dataclass
class TrialGrid:
    """A family of benchmark cells for one grid search method.

    method is one of GRID_KINDS; cells holds one dict per cell of the keys
    run_trial reads and, for MCB, its grid level 'l' (level: the GSS ones').
    run_grid documents the streams each cell's trials draw from, given seed.
    """

    method: str
    cells: list[dict]
    trials: int = 500
    seed: int = 0
    level: int = 10
    gss: GssParams = field(default_factory=GssParams)


@dataclass
class BenchRow:
    """Aggregated results of one cell; a failed trial raises instead (run_grid).

    failures is always 0.  It is kept, with its CSV column, only because
    perfbench reads it.
    """

    method: str
    cell: dict
    mean_error: float
    stderr_error: float
    mean_wall_time: float
    mean_queries: float
    trials: int
    failures: int


def run_trial(method: str, cell: dict, seed: int, level: int = 10,
              gss: GssParams | None = None, path=None, descents=None):
    """One search of a benchmark cell: (report, grid searched or filled).

    Seed contract: unless a path is given, it is simulated from
    derive_seed(seed, 0): a level-`level` grid of the kind GRID_KINDS names,
    or for harmonic a lazy bridge, filled as fill_dyadic(bridge, level) after
    the search.  The MCB descents draw from `descents` if it is given, else
    from make_rng(derive_seed(seed, 1)); the harmonic search draws nothing,
    so a harmonic trial uses only derive_seed(seed, 0).  `pathmin search
    --seed S` runs run_trial(..., S).  cell holds 'm' for iter-gss, 'r', 'g'
    for MCB, and 'budget', 'beta', 'solver' (a harmonic.SOLVER_EDGES key)
    for harmonic.  A level outside 0..MAX_LEVEL raises ValueError first, and
    so does a given path whose kind is not the one an MCB method names
    (mcb and mcb-cauchy differ only in it; the GSS methods take either kind).
    """
    if method in GRID_KINDS:
        kind = GRID_KINDS[method]
        if path is None:
            simulate = fill_dyadic if kind == BRIDGE else simulate_cauchy
            path = simulate(derive_seed(seed, 0), level)
        if method == "naive-gss":
            rep = golden_section(path, (0.0, 1.0), gss)
        elif method == "iter-gss":
            rep = iterative_gss(path, cell["m"], gss)
        else:
            if path.kind != kind:
                raise ValueError(f"{method} searches a {kind} grid, not a {path.kind} grid")
            rep = mcb_search(path, McbParams(r=cell["r"], g=cell["g"]),
                             make_rng(derive_seed(seed, 1)) if descents is None else descents)
    elif method == "harmonic":
        lazy = path is None
        if lazy:
            grid_steps(level)    # checked now: the fill comes after the search
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

    Seed contract.  A cell draws its trials from two streams of
    (grid.seed, c), c being the cell's index:
    - paths: trial t searches row t % n of chunk t // n, chunk k holding
      the n = max(1, CHUNK_VALUES // (2**level + 1)) paths that
      _draw_chunks draws from derive_seed(grid.seed, c, 0, k).  The level
      is grid.level for the GSS methods and cell['l'] for the MCB ones, and
      one outside 0..MAX_LEVEL raises ValueError (paths.grid_steps);
    - descents: the MCB searches of the cell draw from one generator,
      make_rng(derive_seed(grid.seed, c, 1)), in trial order.
    So a cell's results depend only on (grid.seed, c, trials, level), and
    it peaks at one chunk of paths.  A method outside GRID_KINDS, harmonic
    included, or fewer than one trial raises ValueError before anything is
    drawn.  Any error a trial raises, such as an invalid cell's, reaches the
    caller: no trial is dropped from a cell's means.
    """
    if grid.method not in GRID_KINDS:
        raise ValueError(f"unknown benchmark method '{grid.method}'")
    if grid.trials < 1:
        raise ValueError("need at least one trial")
    kind = GRID_KINDS[grid.method]
    gss = grid.method in ("naive-gss", "iter-gss")
    rows = []
    for ci, cell in enumerate(grid.cells):
        level = grid.level if gss else cell["l"]
        descents = None if gss else make_rng(derive_seed(grid.seed, ci, 1))
        outcomes = []
        _draw_chunks(kind, level, grid.trials, grid.seed, (ci, 0),
                     lambda _, chunk: outcomes.extend(
                         _trial_outcome(grid, cell, GridPath(level, row, kind), descents)
                         for row in chunk))
        errs, walls, queries = np.array(outcomes, dtype=float).T
        stderr = float(errs.std(ddof=1) / np.sqrt(len(errs))) if len(errs) > 1 else 0.0
        rows.append(BenchRow(
            method=grid.method, cell=dict(cell), mean_error=float(errs.mean()),
            stderr_error=stderr, mean_wall_time=float(walls.mean()),
            mean_queries=float(queries.mean()), trials=grid.trials, failures=0))
    return rows


def _draw_chunks(kind, level, count, seed, stream, consume):
    """Pass each chunk of count level-`level` paths of kind to consume(start, chunk).

    Chunk k holds rows start = k * n to min(start + n, count), n being
    max(1, CHUNK_VALUES // (2**level + 1)), drawn by simulate_bridge_batch
    (CAUCHY: simulate_cauchy_batch) from derive_seed(seed, *stream, k).  No
    chunk is bound here, so only one is alive at a time.  A level outside
    0..MAX_LEVEL or a kind other than those two raises ValueError first;
    an error that consume raises stops the draw and reaches the caller.
    """
    n = max(1, CHUNK_VALUES // (grid_steps(level) + 1))
    if kind not in (BRIDGE, CAUCHY):
        raise ValueError(f"unknown path kind '{kind}'")
    simulate = simulate_bridge_batch if kind == BRIDGE else simulate_cauchy_batch
    for k, start in enumerate(range(0, count, n)):
        consume(start, simulate(derive_seed(seed, *stream, k), level, min(n, count - start)))


def _trial_outcome(grid, cell, path, descents):
    """(error, wall_time, queries) of one trial on path."""
    rep, path = run_trial(grid.method, cell, grid.seed, grid.level, grid.gss, path, descents)
    return rep.min_value - path.grid_min.value, rep.wall_time, rep.queries


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
    hist_hi = float(np.quantile(ranges, 0.995))
    edges = np.linspace(0.0, max(hist_hi, 1e-12), bins + 1)
    density, _ = np.histogram(ranges[ranges <= hist_hi], bins=edges, density=True)
    return RangeDistribution(ranges=ranges, arg_gaps=gaps,
                             bin_edges=edges, density=density)


# ---------------------------------------------------------------------------
# Writers


_BENCH_COLUMNS = ["method", "m", "l", "r", "g", "mean_error", "stderr_error",
                  "mean_wall_time", "mean_queries", "trials", "failures"]


def save_bench_csv(rows: list[BenchRow], out_path: str) -> None:
    """Long-format CSV, one row per cell; absent cell parameters stay blank."""
    write_csv(out_path, _BENCH_COLUMNS, (
        [r.method, r.cell.get("m", ""), r.cell.get("l", ""), r.cell.get("r", ""),
         r.cell.get("g", ""), r.mean_error, r.stderr_error, r.mean_wall_time,
         r.mean_queries, r.trials, r.failures]
        for r in rows))


def save_range_csv(rd: RangeDistribution, out_path: str) -> None:
    """Per-path 'range,time_gap' rows; histogram goes to '<out>.hist.csv'."""
    write_csv(out_path, ["range", "time_gap"], zip(rd.ranges, rd.arg_gaps))
    write_csv(f"{out_path}.hist.csv", ["bin_left", "bin_right", "density"],
              zip(rd.bin_edges[:-1], rd.bin_edges[1:], rd.density))
