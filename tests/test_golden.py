"""Golden-section search mechanics and its partitioned variant."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmin.golden import (
    INV_PHI,
    INV_PHI2,
    GssParams,
    golden_section,
    iterative_gss,
)
from pathmin.paths import fill_dyadic, new_bridge


def recording(fn, log):
    def wrapped(t):
        log.append(t)
        return fn(t)
    return wrapped


def test_first_probes_sit_at_golden_ratios():
    log = []
    golden_section(recording(lambda t: (t - 0.3) ** 2, log), (0.0, 1.0),
                   GssParams(epsilon=0.0, max_iters=1))
    assert log[0] == 0.0
    assert log[1] == 1.0
    assert abs(log[2] - INV_PHI2) < 1e-12
    assert abs(log[3] - INV_PHI) < 1e-12


def test_probe_positions_respect_subinterval():
    log = []
    a, b = 0.25, 0.75
    golden_section(recording(lambda t: (t - 0.4) ** 2, log), (a, b),
                   GssParams(epsilon=0.0, max_iters=1))
    assert abs(log[2] - (a + (b - a) * INV_PHI2)) < 1e-12
    assert abs(log[3] - (a + (b - a) * INV_PHI)) < 1e-12


@pytest.mark.parametrize("iters", [1, 2, 5, 9, 40])
def test_one_new_call_per_iteration_after_setup(iters):
    log = []
    rep = golden_section(recording(lambda t: (t - 0.3) ** 2, log), (0.0, 1.0),
                         GssParams(epsilon=0.0, max_iters=iters))
    assert rep.params["iterations"] == iters
    assert rep.queries == iters + 3
    assert len(log) == rep.queries


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.one_of(
    st.floats(0.0, 1.0).map(lambda c: lambda t: (t - c) ** 2),
    st.integers(0, 2**31 - 1).map(lambda seed: new_bridge(seed).query)))
def test_one_new_call_per_iteration_any_oracle(iters, oracle):
    # any oracle, a quadratic or a lazy bridge: the two endpoints and the
    # two golden probes, then one new query per iteration
    log = []
    rep = golden_section(recording(oracle, log), (0.0, 1.0),
                         GssParams(epsilon=0.0, max_iters=iters))
    assert rep.params["iterations"] == iters
    assert rep.queries == iters + 3
    assert len(log) == rep.queries


def test_bracket_shrinks_by_golden_ratio():
    trace = []
    golden_section(lambda t: (t - 0.3) ** 2, (0.0, 1.0),
                   GssParams(epsilon=0.0, max_iters=30), trace=trace)
    widths = np.array([b - a for a, b in trace])
    assert np.all(np.abs(widths[1:] / widths[:-1] - INV_PHI) < 1e-9)
    assert abs(widths[0] - INV_PHI) < 1e-12


def test_epsilon_stops_once_shift_is_small():
    trace = []
    rep = golden_section(lambda t: (t - 0.3) ** 2, (0.0, 1.0),
                         GssParams(epsilon=0.01), trace=trace)
    a, b = trace[-1]
    # the stopping iteration saw its endpoint move by under epsilon
    assert (b - a) * INV_PHI2 / INV_PHI < 0.01
    assert rep.params["iterations"] == len(trace)


@pytest.mark.parametrize("fn", [lambda t: (t - 0.3) ** 2, lambda t: t])
def test_zero_epsilon_stops_once_the_bracket_stops_shrinking(fn):
    # an interior minimum's bracket stops shrinking after about 80
    # iterations; one at t = 0 shrinks into the subnormals first
    t0 = time.perf_counter()
    rep = golden_section(fn, (0.0, 1.0), GssParams(epsilon=0.0, max_iters=10**9))
    assert time.perf_counter() - t0 < 1.0
    assert rep.params["iterations"] <= 2000
    short = golden_section(fn, (0.0, 1.0), GssParams(epsilon=0.0, max_iters=100))
    assert rep.argmin_t == short.argmin_t


def test_tie_keeps_left_interval():
    trace = []
    golden_section(lambda t: 0.0, (0.0, 1.0),
                   GssParams(epsilon=0.0, max_iters=10), trace=trace)
    # constant oracle ties every comparison, so the right endpoint contracts
    assert all(a == 0.0 for a, _ in trace)


def test_constant_path_reports_first_query():
    rep = golden_section(lambda t: 0.0, (0.0, 1.0), GssParams(max_iters=10))
    assert rep.argmin_t == 0.0
    assert rep.min_value == 0.0


def test_finds_smooth_minimum():
    rep = golden_section(lambda t: (t - 0.3) ** 2, (0.0, 1.0),
                         GssParams(epsilon=1e-6, max_iters=200))
    assert abs(rep.argmin_t - 0.3) < 1e-5
    rep = golden_section(np.cos, (0.0, 6.0), GssParams(epsilon=1e-7, max_iters=200))
    assert abs(rep.argmin_t - np.pi) < 1e-6


def test_best_value_is_min_of_all_queries():
    log = []
    grid = fill_dyadic(17, 8)
    rep = golden_section(recording(grid.interp, log), (0.0, 1.0),
                         GssParams(epsilon=0.001))
    assert rep.min_value == min(grid.interp(t) for t in log)
    assert rep.method == "golden-section"


def test_degenerate_interval_raises():
    with pytest.raises(ValueError):
        golden_section(lambda t: t, (0.5, 0.5))
    with pytest.raises(ValueError):
        golden_section(lambda t: t, (0.7, 0.2))


def test_iterative_covers_all_panels():
    log = []
    rep = iterative_gss(recording(lambda t: (t - 0.55) ** 2, log), 2,
                        GssParams(epsilon=0.01, max_iters=50))
    assert rep.method == "iterative-gss"
    assert log[0] == 0.0 and log[1] == 1.0
    # every quarter panel gets probed
    for lo in (0.0, 0.25, 0.5, 0.75):
        assert any(lo < t < lo + 0.25 for t in log[2:])
    assert abs(rep.argmin_t - 0.55) < 0.01
    assert rep.queries == len(log)


def test_iterative_never_beats_endpoint_values():
    grid = fill_dyadic(23, 8)
    rep = iterative_gss(grid, 3, GssParams(epsilon=0.001))
    assert rep.min_value <= grid.interp(0.0)
    assert rep.min_value <= grid.interp(1.0)


def test_iterative_m0_equals_plain_run():
    grid = fill_dyadic(29, 8)
    single = golden_section(grid, (0.0, 1.0), GssParams(epsilon=0.001))
    whole = iterative_gss(grid, 0, GssParams(epsilon=0.001))
    assert whole.min_value <= single.min_value
    assert whole.argmin_t == single.argmin_t
    # same bracketing plus one duplicate endpoint pair
    assert whole.queries == single.queries + 2


def test_iterative_rejects_negative_m():
    with pytest.raises(ValueError):
        iterative_gss(lambda t: t, -1)


@pytest.mark.parametrize("params, named", [
    (GssParams(max_iters=0), "max_iters"),
    (GssParams(max_iters=-5), "max_iters"),
    (GssParams(epsilon=float("nan")), "epsilon"),
    (GssParams(epsilon=float("inf")), "epsilon"),
    (GssParams(epsilon=-0.001), "epsilon"),
])
def test_bad_params_raise_before_any_query(params, named):
    # the CLI's bounds: epsilon finite and >= 0, max_iters >= 1
    log = []
    oracle = recording(lambda t: (t - 0.3) ** 2, log)
    with pytest.raises(ValueError, match=named):
        golden_section(oracle, (0.0, 1.0), params)
    with pytest.raises(ValueError, match=named):
        iterative_gss(oracle, 2, params)
    assert log == []


def gss_error(seed, m=None, level=8):
    """(error, report) of golden-section, partitioned when m is given,
    against the grid minimum of a grid bridge."""
    grid = fill_dyadic(seed, level)
    if m is None:
        rep = golden_section(grid, (0.0, 1.0))
    else:
        rep = iterative_gss(grid, m)
    return rep.min_value - grid.grid_min.value, rep


def test_error_trials_are_nonnegative_and_deterministic():
    # the interpolated path attains its minimum on the grid, so the
    # estimate can never undercut the grid minimum
    for seed in range(5):
        err, rep = gss_error(seed)
        err2, _ = gss_error(seed)
        assert err >= 0.0
        assert err == err2
    err, rep = gss_error(3, m=2)
    assert err >= 0.0
    assert rep.params["m"] == 2


def test_partitioning_beats_naive_on_average():
    # coarse version of the benchmark ordering, 40 seeds at level 8
    naive = np.array([gss_error(s)[0] for s in range(40)])
    part = np.array([gss_error(s, m=3)[0] for s in range(40)])
    assert part.mean() < naive.mean()
