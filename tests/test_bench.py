"""Benchmark harness: trial grids, aggregation, range statistics, writers."""
import csv
import math
import tracemalloc

import numpy as np
import pytest

import pathmin.bench
from pathmin.bench import (
    CHUNK_VALUES,
    BenchRow,
    RangeDistribution,
    TrialGrid,
    mcb_grid,
    range_distribution,
    run_grid,
    run_trial,
    save_bench_csv,
    save_range_csv,
)
from pathmin.cli import main
from pathmin.golden import GssParams, iterative_gss
from pathmin.mcb import McbParams, mcb_search
from pathmin.paths import (
    BRIDGE,
    CAUCHY,
    MAX_LEVEL,
    GridPath,
    LazyBridgePath,
    dyadic_times,
    fill_dyadic,
    new_bridge,
    simulate_bridge_batch,
    simulate_cauchy,
    simulate_cauchy_batch,
)
from pathmin.rng import derive_seed, make_rng
from pathmin.scmap import ScSolverError


def test_single_cell_single_trial():
    grid = TrialGrid(method="mcb", cells=[{"l": 5, "r": 5, "g": 32}],
                     trials=1, seed=0)
    rows = run_grid(grid)
    assert len(rows) == 1
    row = rows[0]
    assert row.trials == 1
    assert row.failures == 0
    assert row.mean_queries == 34.0
    assert row.stderr_error == 0.0
    assert row.mean_error >= 0.0


def test_gss_methods_run_and_report_nonnegative_error():
    gss = GssParams(epsilon=0.01, max_iters=100)
    naive = run_grid(TrialGrid(method="naive-gss", cells=[{}], trials=10,
                               seed=1, level=8, gss=gss))[0]
    part = run_grid(TrialGrid(method="iter-gss", cells=[{"m": 3}], trials=10,
                              seed=1, level=8, gss=gss))[0]
    assert naive.mean_error >= 0.0
    assert part.mean_error >= 0.0
    assert part.mean_error < naive.mean_error
    assert part.cell == {"m": 3}


def test_mcb_error_drops_as_budget_grows():
    # with 240 trials the claim holds at every grid seed 0-199, not just this one
    rows = run_grid(mcb_grid([4, 8, 12], trials=240, seed=0))
    errs = [r.mean_error for r in rows]
    assert errs[0] > errs[1] > errs[2]
    # gaps are genuine, not noise
    for a, b in ((rows[0], rows[1]), (rows[1], rows[2])):
        gap_se = math.hypot(a.stderr_error, b.stderr_error)
        assert a.mean_error - b.mean_error > 2.0 * gap_se


def test_mcb_cauchy_method_runs():
    grid = TrialGrid(method="mcb-cauchy", cells=[{"l": 6, "r": 6, "g": 64}],
                     trials=10, seed=2)
    row = run_grid(grid)[0]
    assert row.failures == 0
    assert row.mean_error >= 0.0


def hand_cell_error(method, cell, c, seed, trials, level, gss):
    """Mean error of cell c, rebuilt from the streams run_grid documents."""
    kind = CAUCHY if method == "mcb-cauchy" else BRIDGE
    simulate = simulate_cauchy_batch if kind == CAUCHY else simulate_bridge_batch
    n = max(1, CHUNK_VALUES // (2 ** level + 1))
    descents = make_rng(derive_seed(seed, c, 1))
    errors = []
    for k in range(math.ceil(trials / n)):
        for row in simulate(derive_seed(seed, c, 0, k), level, min(n, trials - k * n)):
            grid = GridPath(level, row, kind)
            if method == "iter-gss":
                rep = iterative_gss(grid, cell["m"], gss)
            else:
                rep = mcb_search(grid, McbParams(r=cell["r"], g=cell["g"]), descents)
            errors.append(rep.min_value - row.min())
    return np.mean(errors)


@pytest.mark.parametrize("method, cells, level, trials", [
    # l = 12 holds 15 paths a chunk, so 20 trials span two chunks
    ("mcb", [{"l": 3, "r": 3, "g": 8}, {"l": 12, "r": 12, "g": 4096}], 10, 20),
    ("mcb-cauchy", [{"l": 6, "r": 6, "g": 64}], 10, 12),
    ("iter-gss", [{"m": 0}, {"m": 2}], 8, 70),
])
def test_grid_trials_follow_the_cell_streams(method, cells, level, trials):
    gss = GssParams(epsilon=0.01)
    rows = run_grid(TrialGrid(method=method, cells=cells, trials=trials, seed=7,
                              level=level, gss=gss))
    for c, (cell, row) in enumerate(zip(cells, rows)):
        assert row.mean_error == hand_cell_error(method, cell, c, 7, trials,
                                                 cell.get("l", level), gss)


def test_cell_memory_peaks_at_one_chunk():
    # a level-12 chunk holds 15 paths, so 20 and 200 trials both peak at one
    # chunk being drawn; drawing all 200 paths at once would hold 6.6 MB
    def peak(trials):
        tracemalloc.start()
        try:
            run_grid(mcb_grid([12], trials=trials, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_grid(mcb_grid([12], trials=1, seed=3))
    few, many = peak(20), peak(200)
    assert many <= 1.1 * few
    assert many < 3 * 15 * (2 ** 12 + 1) * 8


def never(*args):
    raise AssertionError("nothing may be simulated")


def test_unknown_method_raises(monkeypatch):
    # a usage error, not a failed trial: it must reach the caller before any
    # draw; harmonic is run_trial's alone, as it has no batch to draw
    monkeypatch.setattr(pathmin.bench, "simulate_bridge_batch", never)
    monkeypatch.setattr(pathmin.bench, "simulate_cauchy_batch", never)
    for method in ("bogus", "harmonic"):
        grid = TrialGrid(method=method, cells=[TRIAL_CELLS["harmonic"]], trials=5, seed=0)
        with pytest.raises(ValueError, match=f"unknown benchmark method '{method}'"):
            run_grid(grid)
    with pytest.raises(ValueError, match="unknown benchmark method 'bogus'"):
        run_trial("bogus", {}, 0)


def test_a_grid_without_trials_raises(monkeypatch):
    # no cell can have a mean of no trials: raised before any draw
    monkeypatch.setattr(pathmin.bench, "simulate_bridge_batch", never)
    monkeypatch.setattr(pathmin.bench, "simulate_cauchy_batch", never)
    for trials in (0, -1):
        for method, cell in (("naive-gss", {}), ("mcb-cauchy", {"l": 3, "r": 3, "g": 8})):
            grid = TrialGrid(method=method, cells=[cell], trials=trials, seed=0)
            with pytest.raises(ValueError, match="need at least one trial"):
                run_grid(grid)


def test_invalid_cell_raises():
    # r > l is a usage error, not a failed trial
    grid = TrialGrid(method="mcb", cells=[{"l": 3, "r": 5, "g": 4}],
                     trials=8, seed=0)
    with pytest.raises(ValueError, match="exceeds grid level"):
        run_grid(grid)


def test_grid_level_past_batch_cap_raises(monkeypatch):
    # levels past MAX_LEVEL = 24 raise before anything is drawn
    monkeypatch.setattr(pathmin.bench, "simulate_bridge_batch", never)
    monkeypatch.setattr(pathmin.bench, "simulate_cauchy_batch", never)
    for grid in (TrialGrid(method="naive-gss", cells=[{}], trials=1, level=25),
                 TrialGrid(method="naive-gss", cells=[{}], trials=1, level=27),
                 TrialGrid(method="mcb", cells=[{"l": -1, "r": 1, "g": 1}], trials=1)):
        with pytest.raises(ValueError, match="grid level"):
            run_grid(grid)
    for kind in (BRIDGE, CAUCHY):
        with pytest.raises(ValueError, match="grid level"):
            range_distribution(kind, 27, 1)


TRIAL_CELLS = {"naive-gss": {}, "iter-gss": {"m": 2}, "mcb": {"r": 1, "g": 4},
               "mcb-cauchy": {"r": 1, "g": 4},
               "harmonic": {"budget": 4, "beta": 1.0, "solver": "full"}}
GRID_PRODUCERS = {
    "fill_dyadic-seed": lambda level: fill_dyadic(1, level),
    "fill_dyadic-lazy": lambda level: fill_dyadic(new_bridge(1), level),
    "simulate_cauchy": lambda level: simulate_cauchy(1, level),
    "simulate_bridge_batch": lambda level: simulate_bridge_batch(1, level, 2),
    "simulate_cauchy_batch": lambda level: simulate_cauchy_batch(1, level, 2),
    "GridPath": lambda level: GridPath(level, np.zeros(3), BRIDGE),
    "dyadic_times": dyadic_times,
    **{f"run_trial-{method}": (lambda level, method=method:
                               run_trial(method, TRIAL_CELLS[method], 1, level))
       for method in TRIAL_CELLS},
}


@pytest.mark.parametrize("level", [-1, MAX_LEVEL + 1])
@pytest.mark.parametrize("producer", list(GRID_PRODUCERS))
def test_every_grid_producer_checks_its_level_first(monkeypatch, producer, level):
    # a level-25 grid would hold 2**25 + 1 values, 256 MiB: none may be allocated,
    # and no search may query a path whose grid could not be built afterwards
    peak_bound = 2 ** 20

    def never(*args, **kwargs):
        raise AssertionError("nothing may be queried or searched")

    monkeypatch.setattr(LazyBridgePath, "query", never)
    for search in ("golden_section", "iterative_gss", "mcb_search", "harmonic_bisection_search"):
        monkeypatch.setattr(pathmin.bench, search, never)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^grid level {level} outside 0..{MAX_LEVEL}$"):
            GRID_PRODUCERS[producer](level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_bound


@pytest.mark.parametrize("error", [ScSolverError, FloatingPointError])
def test_a_failed_trial_reaches_the_caller(monkeypatch, tmp_path, capsys, error):
    # a failure stops the grid: no trial is dropped from a cell's means
    search = pathmin.bench.mcb_search
    calls = []

    def fail_second(path, params, rng=None):
        calls.append(1)
        if len(calls) == 2:
            raise error("boom")
        return search(path, params, rng)

    monkeypatch.setattr(pathmin.bench, "mcb_search", fail_second)
    grid = TrialGrid(method="mcb", cells=[{"l": 3, "r": 3, "g": 8}], trials=8, seed=0)
    with pytest.raises(error, match="boom"):
        run_grid(grid)
    assert len(calls) == 2
    if error is ScSolverError:   # a FloatingPointError is no RuntimeError, so not exit 3
        calls.clear()
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--method", "mcb", "--n", "3", "--trials", "8",
                   "--seed", "0", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "numerical failure: boom\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method, cells", [
    ("naive-gss", [{}]),
    ("iter-gss", [{"m": 0}, {"m": 4}]),
    ("mcb", mcb_grid([1, 6, 10]).cells),
    ("mcb-cauchy", mcb_grid([1, 6, 10]).cells),
])
def test_grid_methods_raise_no_floating_point_error(method, cells):
    # run_grid counts no failed trials, so no grid method may fail: a method
    # that can should break this test, not a grid run
    with np.errstate(all="raise"):
        rows = run_grid(TrialGrid(method=method, cells=cells, trials=30, seed=1))
    assert all(np.isfinite(r.mean_error) and r.mean_error >= 0.0 for r in rows)


def test_mcb_grid_builds_matched_budget_cells():
    grid = mcb_grid([1, 3], trials=7, seed=2)
    assert grid.cells == [{"l": 1, "r": 1, "g": 2}, {"l": 3, "r": 3, "g": 8}]
    assert grid.trials == 7


def test_bridge_range_sits_below_continuum_value():
    rd = range_distribution("brownian_bridge", 8, 4000, seed=5)
    assert len(rd.ranges) == 4000
    # discrete grids clip the excursions, so the mean sits under sqrt(pi/2)
    assert 1.1 < rd.mean_range < math.sqrt(math.pi / 2.0)
    assert np.all(rd.arg_gaps >= 0.0) and np.all(rd.arg_gaps <= 1.0)


def test_cauchy_range_has_heavy_tail():
    rd = range_distribution("cauchy", 8, 2000, seed=6)
    assert np.quantile(rd.ranges, 0.99) > 10.0 * np.median(rd.ranges)


def test_range_is_deterministic_and_chunk_stable():
    a = range_distribution("brownian_bridge", 6, 5000, seed=9)
    b = range_distribution("brownian_bridge", 6, 5000, seed=9)
    assert np.array_equal(a.ranges, b.ranges)
    # whole chunks do not depend on the total path count
    n = CHUNK_VALUES // (2 ** 6 + 1)
    small = range_distribution("brownian_bridge", 6, 2 * n, seed=9)
    assert np.array_equal(a.ranges[:2 * n], small.ranges)
    assert np.array_equal(a.arg_gaps[:2 * n], small.arg_gaps)


@pytest.mark.parametrize("kind", [BRIDGE, CAUCHY])
def test_range_follows_the_chunk_streams(kind):
    # a level-12 chunk holds 15 paths, so 40 paths are three chunks: 15, 15, 10
    simulate = simulate_bridge_batch if kind == BRIDGE else simulate_cauchy_batch
    chunks = [simulate(derive_seed(4, k), 12, m) for k, m in enumerate((15, 15, 10))]
    vals = np.concatenate(chunks)
    times = np.arange(2 ** 12 + 1) / 2 ** 12
    rd = range_distribution(kind, 12, 40, seed=4)
    assert np.array_equal(rd.ranges, vals.max(axis=1) - vals.min(axis=1))
    assert np.array_equal(rd.arg_gaps, np.abs(times[vals.argmax(axis=1)]
                                              - times[vals.argmin(axis=1)]))


def test_range_memory_peaks_at_one_chunk():
    # 20 and 1000 level-12 paths both peak at one 15-path chunk being drawn;
    # drawing all 1000 paths at once would hold 33 MB
    def peak(n_paths):
        tracemalloc.start()
        try:
            range_distribution(BRIDGE, 12, n_paths, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    range_distribution(BRIDGE, 12, 1, seed=3)
    few, many = peak(20), peak(1000)
    assert many <= 1.1 * few
    assert many < 3 * 15 * (2 ** 12 + 1) * 8


def test_range_validates_inputs():
    with pytest.raises(ValueError):
        range_distribution("bridge", 4, 10)
    with pytest.raises(ValueError):
        range_distribution("cauchy", 4, 0)


def test_draw_chunks_rejects_an_unknown_kind():
    # run_grid and range_distribution both draw here, so neither can draw
    # Cauchy rows for a kind that is not the bridge
    drawn = []
    with pytest.raises(ValueError, match="unknown path kind 'levy'"):
        pathmin.bench._draw_chunks("levy", 3, 2, 0, (), lambda _, chunk: drawn.append(chunk))
    assert drawn == []


def test_bench_csv_layout(tmp_path):
    rows = [BenchRow(method="naive-gss", cell={}, mean_error=0.1,
                     stderr_error=0.01, mean_wall_time=0.002, mean_queries=18.0,
                     trials=5, failures=0),
            BenchRow(method="mcb", cell={"l": 4, "r": 4, "g": 16}, mean_error=0.05,
                     stderr_error=0.01, mean_wall_time=0.001, mean_queries=18.0,
                     trials=5, failures=0)]
    out = tmp_path / "bench.csv"
    save_bench_csv(rows, str(out))
    got = list(csv.reader(out.open()))
    assert got[0] == ["method", "m", "l", "r", "g", "mean_error", "stderr_error",
                      "mean_wall_time", "mean_queries", "trials"]
    assert got[1][1:5] == ["", "", "", ""]
    assert got[2][2:5] == ["4", "4", "16"]
    assert got[2][-1] == "5"


def test_range_csv_and_histogram_sidecar(tmp_path):
    rd = range_distribution("brownian_bridge", 4, 50, bins=10, seed=2)
    out = tmp_path / "range.csv"
    save_range_csv(rd, str(out))
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["range", "time_gap"]
    assert len(rows) == 51
    hist = list(csv.reader((tmp_path / "range.csv.hist.csv").open()))
    assert hist[0] == ["bin_left", "bin_right", "density"]
    assert len(hist) == 11
