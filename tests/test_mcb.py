"""Monte-Carlo bisection: descent mechanics and grid search behaviour."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pathmin.mcb import McbParams, mcb_search
from pathmin.paths import CAUCHY, GridPath, dyadic_times, fill_dyadic
from pathmin.rng import make_rng


def descent_grid(r):
    """Level r + 1 grid with distinct negative interior values.

    Every depth-r cell midpoint is a grid node here, and the endpoints sit
    at 0 above every interior value, so a single descent (g = 1) reports
    its own midpoint as argmin_t.
    """
    n = 2 ** (r + 1)
    values = np.concatenate([[0.0], -1.0 - np.arange(n - 1) / n, [0.0]])
    return GridPath(level=r + 1, times=dyadic_times(r + 1), values=values, kind=CAUCHY)


def descent_midpoint(r, seed):
    return mcb_search(descent_grid(r), McbParams(r=r, g=1, seed=seed)).argmin_t


def test_descent_bit_zero_goes_left():
    for seed in range(20):
        bit = make_rng(seed).integers(0, 2, size=(1, 1))[0, 0]
        assert descent_midpoint(1, seed) == (0.25 if bit == 0 else 0.75)


def test_descent_two_bits():
    # the first bit picks the half, the second the quarter inside it
    for seed in range(20):
        b0, b1 = make_rng(seed).integers(0, 2, size=(1, 2))[0]
        assert descent_midpoint(2, seed) == (2 * (2 * b0 + b1) + 1) / 8.0


def test_descent_reaches_every_cell_midpoint():
    for r in range(1, 7):
        mids = {descent_midpoint(r, seed) for seed in range(40 * 2 ** r)}
        want = {(2 * k + 1) / 2.0 ** (r + 1) for k in range(2 ** r)}
        assert mids == want


def test_descent_rejects_zero_depth():
    with pytest.raises(ValueError):
        mcb_search(descent_grid(1), McbParams(r=0, g=1))


def test_descent_cells_are_uniform():
    r = 6
    counts = np.zeros(2 ** r)
    for seed in range(100 * 2 ** r):
        counts[int(descent_midpoint(r, seed) * 2 ** r)] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_search_query_count_is_g_plus_two():
    grid = fill_dyadic(1, 6)
    rep = mcb_search(grid, McbParams(r=4, g=37, seed=0))
    assert rep.queries == 39
    assert rep.method == "mcb"
    assert rep.params["unique_queries"] <= min(39, 2 ** 4 + 2)


class ReadLog(np.ndarray):
    """Grid values that log every index read through []."""

    def __getitem__(self, idx):
        self.reads.append(np.ravel(np.arange(len(self))[idx]))
        return super().__getitem__(idx).view(np.ndarray)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 14).flatmap(lambda level: st.tuples(
    st.just(level), st.integers(1, level), st.integers(1, 3000),
    st.integers(0, 2**31 - 1))))
def test_unique_queries_counts_distinct_indices_read(case):
    level, r, g, seed = case
    grid = fill_dyadic(seed, level)
    logged = grid.values.view(ReadLog)
    logged.reads = []
    object.__setattr__(grid, "values", logged)
    rep = mcb_search(grid, McbParams(r=r, g=g, seed=seed))
    reads = np.concatenate(logged.reads)
    assert len(reads) == rep.queries == g + 2
    assert rep.params["unique_queries"] == len(np.unique(reads)) <= g + 2


def test_search_is_deterministic_in_seed():
    grid = fill_dyadic(2, 8)
    a = mcb_search(grid, McbParams(r=6, g=100, seed=5))
    b = mcb_search(grid, McbParams(r=6, g=100, seed=5))
    c = mcb_search(grid, McbParams(r=6, g=100, seed=6))
    assert a.argmin_t == b.argmin_t
    assert a.min_value == b.min_value
    assert (a.argmin_t, a.min_value) != (c.argmin_t, c.min_value) or \
        a.params["unique_queries"] != c.params["unique_queries"]


def test_search_estimate_never_beats_grid_minimum():
    for seed in range(10):
        grid = fill_dyadic(seed, 8)
        rep = mcb_search(grid, McbParams(r=5, g=50, seed=seed))
        assert rep.min_value >= grid.grid_min.value
        assert rep.min_value <= min(grid.values[0], grid.values[-1])


def test_full_depth_midpoints_evaluate_left_node():
    # r = level puts descent midpoints mid-cell; the left grid node stands in
    values = np.array([0.0, -3.0, 1.0, 2.0, 0.0])
    grid = GridPath(level=2, times=dyadic_times(2), values=values, kind=CAUCHY)
    rep = mcb_search(grid, McbParams(r=2, g=64, seed=1))
    # with 64 descents every cell is hit; best left node is -3 at t = 1/4
    assert rep.min_value == -3.0
    assert rep.argmin_t == 0.25


def test_shallow_descent_lands_on_grid_nodes():
    # r < level: cell midpoints are themselves grid nodes, queried exactly
    grid = fill_dyadic(9, 6)
    rep = mcb_search(grid, McbParams(r=3, g=200, seed=2))
    candidates = np.concatenate([[0.0, 1.0], (2 * np.arange(8) + 1) / 16.0])
    assert rep.argmin_t in candidates
    node_vals = [grid.interp(t) for t in candidates]
    assert rep.min_value == min(node_vals)


def test_exhaustive_coverage_finds_grid_minimum():
    # coupon collector: 2**6 cells, 8 * 2**6 descents miss a cell with
    # probability < 65 * exp(-8) ~ 2%; use 16x for margin
    hits = 0
    for seed in range(5):
        grid = fill_dyadic(100 + seed, 6)
        rep = mcb_search(grid, McbParams(r=6, g=16 * 2 ** 6, seed=seed))
        left_nodes = grid.values[:-1].min()
        want = min(left_nodes, grid.values[-1])
        hits += rep.min_value == want
    assert hits == 5


def test_depth_exceeding_level_raises():
    grid = fill_dyadic(3, 4)
    with pytest.raises(ValueError):
        mcb_search(grid, McbParams(r=5, g=10))
    with pytest.raises(ValueError):
        mcb_search(grid, McbParams(r=0, g=10))
    with pytest.raises(ValueError):
        mcb_search(grid, McbParams(r=2, g=0))
