"""Path samplers: lazy bridge, dyadic grids, Cauchy process and bridge law."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pathmin.harmonic import HmcParams, harmonic_bisection_search
from pathmin.paths import (
    BRIDGE,
    CAUCHY,
    CauchyBridgeCdf,
    GridPath,
    as_oracle,
    dyadic_times,
    fill_dyadic,
    load_grid_csv,
    load_walk_csv,
    new_bridge,
    save_grid_csv,
    simulate_bridge_batch,
    simulate_cauchy,
    simulate_cauchy_batch,
)
from pathmin.rng import make_rng

N_MOMENT_PATHS = 4000


def test_endpoints_are_pinned():
    path = new_bridge(0)
    assert path.query(0.0) == 0.0
    assert path.query(1.0) == 0.0
    assert len(path.sampled()[0]) == 2


def test_query_outside_unit_interval_raises():
    path = new_bridge(0)
    with pytest.raises(ValueError):
        path.query(1.5)
    with pytest.raises(ValueError):
        path.query(-0.1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_requery_returns_stored_value(seed, times):
    # after every query, each time queried so far still reads its first value
    path = new_bridge(seed)
    seen = {0.0: 0.0, 1.0: 0.0}
    for t in times:
        seen.setdefault(t, path.query(t))
        for s, v in seen.items():
            assert path.query(s) == v
        assert len(path.sampled()[0]) == len(seen)


def test_same_seed_same_query_sequence_same_path():
    a = new_bridge(42)
    b = new_bridge(42)
    for t in (0.5, 0.2, 0.9, 0.55):
        assert a.query(t) == b.query(t)


def test_midpoint_marginal_moments():
    # W(1/2) of a pinned bridge is N(0, 1/4)
    vals = np.array([new_bridge(s).query(0.5) for s in range(N_MOMENT_PATHS)])
    se_mean = 0.5 / np.sqrt(N_MOMENT_PATHS)
    se_var = 0.25 * np.sqrt(2.0 / (N_MOMENT_PATHS - 1))
    assert abs(vals.mean()) < 4 * se_mean
    assert abs(vals.var() - 0.25) < 4 * se_var


def test_refinement_is_conditionally_gaussian():
    # given W(0) = 0 and W(1/2), the draw at 1/4 is N(W(1/2)/2, 1/8)
    resid = np.empty(N_MOMENT_PATHS)
    for s in range(N_MOMENT_PATHS):
        path = new_bridge(s)
        v_half = path.query(0.5)
        v_quarter = path.query(0.25)
        resid[s] = (v_quarter - 0.5 * v_half) / np.sqrt(0.125)
    assert abs(resid.mean()) < 4 / np.sqrt(N_MOMENT_PATHS)
    assert abs(resid.var() - 1.0) < 4 * np.sqrt(2.0 / (N_MOMENT_PATHS - 1))


def test_dyadic_times_exact():
    assert np.array_equal(dyadic_times(3), np.arange(9) / 8.0)
    assert np.array_equal(dyadic_times(0), np.array([0.0, 1.0]))


def test_fill_from_seed_matches_fill_through_queries():
    # the batched seed fill and the lazy fill consume the generator
    # identically; the lazy fill forms each conditional mean and
    # variance from the neighbours, so they agree to rounding, not bitwise
    path = new_bridge(11)
    path.query(0.5)
    via_path = fill_dyadic(path, 4)
    fresh = fill_dyadic(11, 4)
    assert np.max(np.abs(fresh.values - via_path.values)) <= 1e-15
    assert fresh.kind == BRIDGE


@pytest.mark.parametrize("prior", ["none", "dyadic", "harmonic"])
def test_lazy_fill_matches_per_query_sampling(prior):
    # the fill draws a level at a time; a twin bridge queried point by point
    # in the fill's order (breadth-first, left to right) reads the same bits
    level = 12
    for seed in range(4):
        path, twin = new_bridge(seed), new_bridge(seed)
        for p in (path, twin):
            if prior == "dyadic":   # times the fill meets, and finer ones between them
                rng = make_rng(seed + 100)
                for _ in range(40):
                    j = int(rng.integers(1, 21))
                    p.query(int(rng.integers(0, 2 ** j)) / 2 ** j)
            elif prior == "harmonic":
                harmonic_bisection_search(p, 8, HmcParams())
        grid = fill_dyadic(path, level)
        for d in range(1, level + 1):
            for t in dyadic_times(d)[1::2]:
                twin.query(t)
        assert np.array_equal(grid.values, [twin.query(t) for t in dyadic_times(level)])
        for a, b in zip(path.sampled(), twin.sampled()):
            assert np.array_equal(a, b)


def test_fills_nest_across_levels():
    coarse = fill_dyadic(3, 2)
    fine = fill_dyadic(3, 3)
    assert np.array_equal(fine.values[::2], coarse.values)


def test_grid_path_validates_shape_and_pinning():
    with pytest.raises(ValueError):
        GridPath(level=2, values=np.array([0.0, 0.0]), kind=BRIDGE)
    with pytest.raises(ValueError):
        GridPath(level=1, values=np.array([0.0, 1.0, 2.0]), kind=BRIDGE)
    with pytest.raises(ValueError, match="start at 0"):
        GridPath(level=1, values=np.array([1.0, 2.0, 3.0]), kind=CAUCHY)
    for make in (fill_dyadic, simulate_cauchy, lambda s, lv: fill_dyadic(new_bridge(s), lv)):
        with pytest.raises(ValueError, match="grid level -1 outside 0..24"):
            make(0, -1)


def test_grid_path_rejects_an_unknown_kind(tmp_path):
    # load_grid_csv refuses any other kind, so no such grid may be saved
    out = tmp_path / "levy.csv"
    with pytest.raises(ValueError, match="unknown path kind 'levy'"):
        save_grid_csv(GridPath(2, np.zeros(5), "levy"), str(out))
    assert not out.exists()


def test_grid_min_takes_earliest_tie():
    grid = GridPath(level=1, values=np.array([0.0, -1.0, -1.0]), kind=CAUCHY)
    assert grid.grid_min.time == 0.5
    assert grid.grid_min.value == -1.0


def test_grid_interp_is_piecewise_linear():
    grid = fill_dyadic(5, 3)
    for i, t in enumerate(grid.times):
        assert grid.interp(t) == grid.values[i]
    mid = 0.5 * (grid.values[3] + grid.values[4])
    assert abs(grid.interp((3.5) / 8.0) - mid) < 1e-15
    for t in (-0.1, 1.5):
        with pytest.raises(ValueError, match="outside"):
            grid.interp(t)


def test_bridge_batch_moments_and_covariance():
    vals = simulate_bridge_batch(9, 3, 20_000)
    assert vals.shape == (20_000, 9)
    t = dyadic_times(3)
    # cov(W_s, W_t) = s (1 - t) for s <= t
    for i, j in ((1, 3), (2, 5), (4, 6), (3, 3)):
        want = t[i] * (1.0 - t[j])
        got = np.mean(vals[:, i] * vals[:, j])
        se = np.std(vals[:, i] * vals[:, j]) / np.sqrt(len(vals))
        assert abs(got - want) < 4 * se


def test_cauchy_grid_structure():
    grid = simulate_cauchy(4, 6)
    assert grid.kind == CAUCHY
    assert grid.values[0] == 0.0
    assert grid.values[-1] != 0.0
    assert len(grid.times) == 65


def test_cauchy_increments_have_unit_scaled_median():
    # |increment| * 2**level is |Cauchy(0,1)|, whose median is tan(pi/4) = 1
    vals = simulate_cauchy_batch(8, 8, 50)
    inc = np.abs(np.diff(vals, axis=1)) * 256.0
    med = np.median(inc)
    assert 0.9 < med < 1.1


def test_cauchy_tail_dwarfs_median():
    vals = simulate_cauchy_batch(8, 8, 50)
    inc = np.abs(np.diff(vals, axis=1))
    assert np.quantile(inc, 0.99) > 10.0 * np.median(inc)


def test_batch_cauchy_matches_single():
    # the single path is the first row of the batch, and both keep the
    # stream of one uniform draw per increment, cumulated from 0
    for seed in range(50):
        for level in (0, 1, 5, 10, 14):
            n = 2 ** level
            u = make_rng(seed).random(n)
            ref = np.concatenate([[0.0], np.cumsum(np.tan(np.pi * (u - 0.5)) / n)])
            batch = simulate_cauchy_batch(seed, level, 1)
            assert np.array_equal(batch[0], ref)
            assert np.array_equal(simulate_cauchy(seed, level).values, ref)


def test_bridge_batch_peaks_at_twice_its_result():
    # each level is written into the result through strided slices, so the
    # batch holds its result and one half-size mean and draw beside it
    simulate_bridge_batch(0, 1, 1)
    tracemalloc.start()
    try:
        out = simulate_bridge_batch(3, 10, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * out.nbytes


def test_lazy_fill_peaks_under_seven_grids():
    # the last level's draw holds the old store, its new times and their
    # neighbours' laws beside the new store: about 6.2 grids at most
    path = new_bridge(1)
    path.query(0.3)
    tracemalloc.start()
    try:
        grid = fill_dyadic(path, 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * grid.values.nbytes


def test_cauchy_batch_peaks_at_twice_its_result():
    # the increments are built in the uniforms' array, so the batch holds
    # that array and its result at once, and no temporary beside them
    simulate_cauchy_batch(0, 1, 1)
    tracemalloc.start()
    try:
        out = simulate_cauchy_batch(3, 10, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * out.nbytes


def test_as_oracle_dispatch():
    grid = fill_dyadic(2, 2)
    assert as_oracle(grid)(0.5) == grid.interp(0.5)
    path = new_bridge(2)
    assert as_oracle(path) == path.query
    fn = lambda t: t * t
    assert as_oracle(fn) is fn
    with pytest.raises(TypeError):
        as_oracle(5)


# ---------------------------------------------------------------------------
# Cauchy bridge midpoint law


def _quadrature_cdf(u: float, v: float) -> float:
    # direct integral of the defining density f1(u+x) f1(u-x) / f2(2u)
    f1 = lambda x: 1.0 / (np.pi * (1.0 + x * x))
    f2 = 2.0 / (np.pi * (4.0 + 4.0 * u * u))
    val, _ = quad(lambda x: f1(u + x) * f1(u - x), -np.inf, v,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val / f2


@pytest.mark.parametrize("u", [0.3, 1.0, 2.5, 7.0])
def test_cdf_matches_defining_quadrature(u):
    for v in (-6.0, -1.3, 0.0, 0.4, 2.0, 9.0):
        assert abs(CauchyBridgeCdf(u).cdf(v) - _quadrature_cdf(u, v)) < 1e-10


def test_cdf_limits_and_monotonicity():
    for u in (0.5, 1.0, 2.0):
        law = CauchyBridgeCdf(u)
        assert abs(law.cdf(-1e6)) < 1e-4
        assert abs(law.cdf(1e6) - 1.0) < 1e-4
        assert law.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        grid = np.linspace(-50.0, 50.0, 2001)
        assert np.all(np.diff(law.cdf(grid)) >= 0.0)


def test_ppf_roundtrip():
    for u in (0.5, 1.0, 2.0):
        law = CauchyBridgeCdf(u)
        for p in np.linspace(0.01, 0.99, 25):
            assert abs(law.cdf(law.ppf(p)) - p) < 1e-9


def test_sample_is_inverse_cdf():
    v = CauchyBridgeCdf(1.5).ppf(0.75)
    assert abs(CauchyBridgeCdf(1.5).cdf(v) - 0.75) < 1e-9


def test_cdf_rejects_nonpositive_halfspan():
    with pytest.raises(ValueError):
        CauchyBridgeCdf(0.0)
    with pytest.raises(ValueError):
        CauchyBridgeCdf(1.0).ppf(0.0)


# ---------------------------------------------------------------------------
# CSV round-trips


def test_grid_csv_roundtrip(tmp_path):
    grid = fill_dyadic(2, 3)
    out = str(tmp_path / "grid.csv")
    save_grid_csv(grid, out)
    back = load_grid_csv(out)
    assert np.array_equal(back.times, grid.times)
    assert np.array_equal(back.values, grid.values)
    assert back.kind == grid.kind
    assert back.level == grid.level


def test_grid_csv_rejects_non_dyadic_times(tmp_path):
    grid = fill_dyadic(2, 3)
    out = str(tmp_path / "grid.csv")
    save_grid_csv(grid, out)
    lines = open(out).read().splitlines(keepends=True)
    lines[2] = lines[2].replace("0.125,", "0.041,", 1)
    open(out, "w").write("".join(lines))
    with pytest.raises(ValueError, match="grid.csv: times are not the level-3 grid"):
        load_grid_csv(out)
    # a sidecar level that does not match the row count is rejected unbuilt
    save_grid_csv(grid, out, extra_meta={"level": 40})
    with pytest.raises(ValueError, match="level-40"):
        load_grid_csv(out)


def test_walk_csv_errors_name_the_line(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,val\n0,0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_walk_csv(str(bad_header))

    bad_row = tmp_path / "r.csv"
    # blank rows are skipped but counted
    bad_row.write_text("t,value\n0,0\n\n0.5,oops\n1,0\n")
    with pytest.raises(ValueError, match="line 4"):
        load_walk_csv(str(bad_row))

    short_row = tmp_path / "s.csv"
    short_row.write_text("t,value\n0,0\n0.5\n")
    with pytest.raises(ValueError, match="line 3"):
        load_walk_csv(str(short_row))

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_walk_csv(str(empty))
