"""Benchmark harness: accuracy/runtime grids and path range statistics."""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .golden import GssParams, golden_section, iterative_gss
from .mcb import McbParams, mcb_search
from .paths import (BRIDGE, CAUCHY, fill_dyadic, simulate_bridge_batch,
                    simulate_cauchy, simulate_cauchy_batch)
from .rng import derive_seed

FAILURE_FLAG_FRACTION = 0.01   # cells with more failed trials than this are flagged
_BATCH_PATHS = 4096            # internal chunk size for range statistics


@dataclass
class TrialGrid:
    """A family of benchmark cells for one search method.

    method is one of 'naive-gss', 'iter-gss', 'mcb', 'mcb-cauchy'; cells
    holds one parameter dict per cell ({'m': ...} for iter-gss,
    {'l': ..., 'r': ..., 'g': ...} for the bisection methods, {} for
    naive-gss).  level is the grid resolution used by the GSS methods.
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


def _one_trial(grid: TrialGrid, cell: dict, tseed: int):
    """(error, wall_time, queries) for a single benchmark trial."""
    path_seed = derive_seed(tseed, 0)
    aux_seed = derive_seed(tseed, 1)
    if grid.method == "naive-gss":
        path = fill_dyadic(path_seed, grid.level)
        rep = golden_section(path, (0.0, 1.0), grid.gss, seed=tseed)
    elif grid.method == "iter-gss":
        path = fill_dyadic(path_seed, grid.level)
        rep = iterative_gss(path, cell["m"], grid.gss, seed=tseed)
    elif grid.method == "mcb":
        path = fill_dyadic(path_seed, cell["l"])
        rep = mcb_search(path, McbParams(r=cell["r"], g=cell["g"], seed=aux_seed))
    elif grid.method == "mcb-cauchy":
        path = simulate_cauchy(path_seed, cell["l"])
        rep = mcb_search(path, McbParams(r=cell["r"], g=cell["g"], seed=aux_seed))
    else:
        raise ValueError(f"unknown benchmark method '{grid.method}'")
    error = rep.min_value - path.grid_min.value
    return error, rep.wall_time, rep.queries


def run_grid(grid: TrialGrid) -> list[BenchRow]:
    """Run every cell of the grid and aggregate per-cell statistics.

    Trial t of cell c always uses the seed stream (grid.seed, c, t).
    Trials that hit a numerical failure (RuntimeError, which covers
    ScSolverError, or FloatingPointError) are counted as failures and
    excluded from the means; a cell with more than 1% failures is
    flagged.  Any other error, such as an invalid cell or an unknown
    method, propagates to the caller.
    """
    rows = []
    for ci, cell in enumerate(grid.cells):
        outcomes = [_guarded_trial(grid, cell, derive_seed(grid.seed, ci, tr))
                    for tr in range(grid.trials)]
        good = [o for o in outcomes if o is not None]
        failures = len(outcomes) - len(good)
        if good:
            errs = np.array([o[0] for o in good])
            walls = np.array([o[1] for o in good])
            queries = np.array([o[2] for o in good])
            mean_err = float(errs.mean())
            stderr = float(errs.std(ddof=1) / np.sqrt(len(errs))) if len(errs) > 1 else 0.0
            mean_wall = float(walls.mean())
            mean_q = float(queries.mean())
        else:
            mean_err = stderr = mean_wall = mean_q = float("nan")
        rows.append(BenchRow(
            method=grid.method, cell=dict(cell), mean_error=mean_err,
            stderr_error=stderr, mean_wall_time=mean_wall, mean_queries=mean_q,
            trials=grid.trials, failures=failures,
            flagged=failures > FAILURE_FLAG_FRACTION * grid.trials))
    return rows


def _guarded_trial(grid, cell, tseed):
    try:
        return _one_trial(grid, cell, tseed)
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
    level: int
    n_paths: int
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

    Paths are simulated in fixed-size internal batches, each on its own
    seed sub-stream, so the result depends only on (kind, level, n_paths,
    seed).
    """
    if kind not in (BRIDGE, CAUCHY):
        raise ValueError(f"unknown path kind '{kind}'")
    if n_paths < 1:
        raise ValueError("need at least one path")
    ranges = np.empty(n_paths)
    gaps = np.empty(n_paths)
    times = np.arange(2 ** level + 1) / float(2 ** level)
    done = 0
    chunk_idx = 0
    while done < n_paths:
        m = min(_BATCH_PATHS, n_paths - done)
        cseed = derive_seed(seed, chunk_idx)
        if kind == BRIDGE:
            vals = simulate_bridge_batch(cseed, level, m)
        else:
            vals = simulate_cauchy_batch(cseed, level, m)
        hi = vals.max(axis=1)
        lo = vals.min(axis=1)
        ranges[done:done + m] = hi - lo
        gaps[done:done + m] = np.abs(times[np.argmax(vals, axis=1)]
                                     - times[np.argmin(vals, axis=1)])
        done += m
        chunk_idx += 1
    finite = ranges[np.isfinite(ranges)]
    hist_hi = float(np.quantile(finite, 0.995))
    edges = np.linspace(0.0, max(hist_hi, 1e-12), bins + 1)
    density, _ = np.histogram(finite[finite <= hist_hi], bins=edges, density=True)
    return RangeDistribution(kind=kind, level=level, n_paths=n_paths,
                             ranges=ranges, arg_gaps=gaps,
                             bin_edges=edges, density=density)


# ---------------------------------------------------------------------------
# Writers


_BENCH_COLUMNS = ["method", "m", "l", "r", "g", "mean_error", "stderr_error",
                  "mean_wall_time", "mean_queries", "trials", "failures", "flagged"]


def save_bench_csv(rows: list[BenchRow], out_path: str) -> None:
    """Long-format CSV, one row per cell; absent cell parameters stay blank."""
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_BENCH_COLUMNS)
        for r in rows:
            w.writerow([
                r.method,
                r.cell.get("m", ""), r.cell.get("l", ""), r.cell.get("r", ""),
                r.cell.get("g", ""),
                f"{r.mean_error:.17g}", f"{r.stderr_error:.17g}",
                f"{r.mean_wall_time:.17g}", f"{r.mean_queries:.17g}",
                r.trials, r.failures, int(r.flagged),
            ])


def save_bench_json(rows: list[BenchRow], out_path: str,
                    meta: dict[str, Any] | None = None) -> None:
    payload = {"meta": meta or {}, "rows": [asdict(r) for r in rows]}
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_range_csv(rd: RangeDistribution, out_path: str) -> None:
    """Per-path 'range,time_gap' rows; histogram goes to '<out>.hist.csv'."""
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["range", "time_gap"])
        for r, gp in zip(rd.ranges, rd.arg_gaps):
            w.writerow([f"{r:.17g}", f"{gp:.17g}"])
    with open(f"{out_path}.hist.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_left", "bin_right", "density"])
        for i in range(len(rd.density)):
            w.writerow([f"{rd.bin_edges[i]:.17g}", f"{rd.bin_edges[i + 1]:.17g}",
                        f"{rd.density[i]:.17g}"])
