"""Monte-Carlo bisection: descent mechanics and grid search behaviour."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pathmin.mcb import McbParams, mcb_search
from pathmin.paths import CAUCHY, GridPath, fill_dyadic
from pathmin.rng import make_rng


def descent_grid(r):
    """Level r + 1 grid with distinct negative interior values.

    Every depth-r cell midpoint is a grid node here, and the endpoints sit
    at 0 above every interior value, so a single descent (g = 1) reports
    its own midpoint as argmin_t.
    """
    n = 2 ** (r + 1)
    values = np.concatenate([[0.0], -1.0 - np.arange(n - 1) / n, [0.0]])
    return GridPath(level=r + 1, values=values, kind=CAUCHY)


def descent_midpoint(r, seed):
    return mcb_search(descent_grid(r), McbParams(r=r, g=1), make_rng(seed)).argmin_t


def descent_cell(r, seed):
    """The depth-r cell index the search draws for one descent at seed."""
    return int(make_rng(seed).integers(0, 2 ** r, size=1)[0])


def test_descent_bit_zero_goes_left():
    digits = set()
    for seed in range(20):
        bit = descent_cell(1, seed)
        digits.add(bit)
        assert descent_midpoint(1, seed) == (0.25 if bit == 0 else 0.75)
    assert digits == {0, 1}


def test_descent_two_bits():
    # the cell index's leading binary digit picks the half, the next the
    # quarter inside it, and the midpoint is (2k + 1) / 2^(r+1)
    cells = set()
    for seed in range(20):
        k = descent_cell(2, seed)
        cells.add(k)
        mid = descent_midpoint(2, seed)
        assert mid == (2 * k + 1) / 8.0
        assert (mid > 0.5) == bool(k >> 1)
        assert (mid % 0.5 > 0.25) == bool(k & 1)
    assert cells == {0, 1, 2, 3}


def test_descent_reaches_every_cell_midpoint():
    for r in range(1, 7):
        mids = {descent_midpoint(r, seed) for seed in range(40 * 2 ** r)}
        want = {(2 * k + 1) / 2.0 ** (r + 1) for k in range(2 ** r)}
        assert mids == want


def test_descent_rejects_zero_depth():
    with pytest.raises(ValueError):
        mcb_search(descent_grid(1), McbParams(r=0, g=1), make_rng(0))


def test_descent_cells_are_uniform():
    r = 6
    counts = np.zeros(2 ** r)
    for seed in range(100 * 2 ** r):
        counts[int(descent_midpoint(r, seed) * 2 ** r)] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_search_query_count_is_g_plus_two():
    grid = fill_dyadic(1, 6)
    rep = mcb_search(grid, McbParams(r=4, g=37), make_rng(0))
    assert rep.queries == 39
    assert rep.method == "mcb"
    assert rep.params["unique_queries"] <= min(39, 2 ** 4 + 2)


class ReadLog(np.ndarray):
    """Grid values that log every index read through []."""

    def __getitem__(self, idx):
        self.reads.append(np.ravel(np.arange(len(self))[idx]))
        return super().__getitem__(idx).view(np.ndarray)


def logged_search(grid, params, rng):
    """(report, every grid index the search read, in order)."""
    logged = grid.values.view(ReadLog)
    logged.reads = []
    object.__setattr__(grid, "values", logged)
    rep = mcb_search(grid, params, rng)
    return rep, np.concatenate(logged.reads)


search_cases = st.integers(1, 14).flatmap(lambda level: st.tuples(
    st.just(level), st.integers(1, level), st.integers(1, 3000),
    st.integers(0, 2**31 - 1)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(search_cases)
def test_unique_queries_counts_distinct_indices_read(case):
    level, r, g, seed = case
    rep, reads = logged_search(fill_dyadic(seed, level), McbParams(r=r, g=g), make_rng(seed))
    assert len(reads) == rep.queries == g + 2
    assert rep.params["unique_queries"] == len(np.unique(reads)) <= g + 2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(search_cases)
def test_descents_read_the_nodes_of_their_drawn_cells(case):
    # reference: the float midpoint (2k + 1) / 2^(r+1) of each drawn cell,
    # scaled to the grid and floored onto its node
    level, r, g, seed = case
    _, reads = logged_search(fill_dyadic(seed, level), McbParams(r=r, g=g), make_rng(seed))
    k = make_rng(seed).integers(0, 2 ** r, size=g)
    mids = (2 * k + 1) / 2.0 ** (r + 1)
    assert reads[:2].tolist() == [0, 2 ** level]
    np.testing.assert_array_equal(reads[2:], np.floor(mids * 2 ** level))


def test_deep_descent_cells_are_uniform():
    # r = l: every descent reads its own cell's left node, so the reads
    # after the two endpoints are the drawn cell indices themselves
    r = 12
    _, reads = logged_search(fill_dyadic(4, r), McbParams(r=r, g=2 ** 16), make_rng(4))
    assert len(reads) == 2 ** 16 + 2
    counts = np.bincount(reads[2:], minlength=2 ** r)
    assert len(counts) == 2 ** r
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_search_allocates_no_bit_matrix():
    # one (g, r) int64 bit matrix would take 7.3 MB here on its own
    grid = fill_dyadic(5, 14)
    tracemalloc.start()
    try:
        mcb_search(grid, McbParams(r=14, g=2 ** 16), make_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


class DrawnCells:
    """Generator stand-in that hands the search the given descent cells."""

    def __init__(self, cells):
        self.cells = np.array(cells, dtype=np.int64)

    def integers(self, low, high, size):
        assert low == 0 and size == len(self.cells) and self.cells.max() < high
        return self.cells


@pytest.mark.parametrize("level, r, cells, unique", [
    # r = l: cell k reads node k, so cell 0 reads the left endpoint again
    (3, 3, [0, 0, 7], 3),        # 9 nodes for 5 candidates: counted densely
    (12, 12, [0, 0, 7], 3),      # 4097 nodes for 5 candidates: counted sparsely
    # r < l: cell k reads node (2k + 1) 2^(l - r - 1), never an endpoint
    (6, 2, [0, 0, 3], 4),
    (12, 4, [0, 0, 15], 4),
])
def test_unique_queries_at_full_and_partial_depth(level, r, cells, unique):
    grid = fill_dyadic(level, level)
    rep, reads = logged_search(grid, McbParams(r=r, g=len(cells)), DrawnCells(cells))
    assert rep.params["unique_queries"] == len(np.unique(reads)) == unique


def test_sparse_unique_count_allocates_no_grid_sized_counter():
    # a bincount over the candidates would take 2^20 + 1 counters, 8 MiB,
    # to count three of them
    grid = fill_dyadic(1, 20)
    params = McbParams(r=20, g=1)
    mcb_search(grid, params, make_rng(0))   # numpy's first-call set-up stays out of the trace
    tracemalloc.start()
    try:
        rep = mcb_search(grid, params, make_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.params["unique_queries"] == 3
    assert peak < 256 * 1024


def test_search_is_deterministic_in_seed():
    grid = fill_dyadic(2, 8)
    a = mcb_search(grid, McbParams(r=6, g=100), make_rng(5))
    b = mcb_search(grid, McbParams(r=6, g=100), make_rng(5))
    c = mcb_search(grid, McbParams(r=6, g=100), make_rng(6))
    assert a.argmin_t == b.argmin_t
    assert a.min_value == b.min_value
    assert (a.argmin_t, a.min_value) != (c.argmin_t, c.min_value) or \
        a.params["unique_queries"] != c.params["unique_queries"]


def test_search_estimate_never_beats_grid_minimum():
    for seed in range(10):
        grid = fill_dyadic(seed, 8)
        rep = mcb_search(grid, McbParams(r=5, g=50), make_rng(seed))
        assert rep.min_value >= grid.grid_min.value
        assert rep.min_value <= min(grid.values[0], grid.values[-1])


def test_full_depth_midpoints_evaluate_left_node():
    # r = level puts descent midpoints mid-cell; the left grid node stands in
    values = np.array([0.0, -3.0, 1.0, 2.0, 0.0])
    grid = GridPath(level=2, values=values, kind=CAUCHY)
    rep = mcb_search(grid, McbParams(r=2, g=64), make_rng(1))
    # with 64 descents every cell is hit; best left node is -3 at t = 1/4
    assert rep.min_value == -3.0
    assert rep.argmin_t == 0.25


def test_shallow_descent_lands_on_grid_nodes():
    # r < level: cell midpoints are themselves grid nodes, queried exactly
    grid = fill_dyadic(9, 6)
    rep = mcb_search(grid, McbParams(r=3, g=200), make_rng(2))
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
        rep = mcb_search(grid, McbParams(r=6, g=16 * 2 ** 6), make_rng(seed))
        left_nodes = grid.values[:-1].min()
        want = min(left_nodes, grid.values[-1])
        hits += rep.min_value == want
    assert hits == 5


def test_depth_exceeding_level_raises():
    grid = fill_dyadic(3, 4)
    with pytest.raises(ValueError):
        mcb_search(grid, McbParams(r=5, g=10), make_rng(0))
    with pytest.raises(ValueError):
        mcb_search(grid, McbParams(r=0, g=10), make_rng(0))
    with pytest.raises(ValueError):
        mcb_search(grid, McbParams(r=2, g=0), make_rng(0))
