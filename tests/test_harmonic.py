"""Edge harmonic measures, the guided bisection search and the walker oracle."""
import bisect
import csv
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_bridge_walk
from pathmin.bench import run_trial
from pathmin.harmonic import (
    MAX_WALKER_EDGES,
    NEAREST_BLOCK,
    HmcParams,
    _edge_weights,
    _fold,
    _nearest_edge,
    edge_measures,
    harmonic_bisection_search,
    mc_hitting_oracle,
    save_measures_csv,
)
from pathmin.paths import as_oracle, fill_dyadic, new_bridge
from pathmin.rng import derive_seed, make_rng
from pathmin.scmap import (MAX_PERTURBATIVE_EDGES, MAX_VERTICES, ScSolverError, WalkPolygon,
                           solve_prevertices_full)


def flat_polygon(times):
    times = np.asarray(times, dtype=float)
    return WalkPolygon(times=times, values=np.zeros(len(times)), beta=0.0)


# ---------------------------------------------------------------------------
# Analytic measures


@pytest.mark.parametrize("solver", ["full", "perturbative"])
def test_flat_weights_equal_edge_widths(solver):
    # arcsin(sqrt(sin^2(pi t / 2))) telescopes back to t itself
    t = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
    w = edge_measures(flat_polygon(t), solver=solver)
    assert type(w) is np.ndarray and w.shape == (4,)
    assert np.max(np.abs(w - np.diff(t))) < 1e-12


def test_flat_equal_dyadic_weights_are_quarters():
    w = edge_measures(flat_polygon([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert np.max(np.abs(w - 0.25)) < 1e-12


def test_single_edge_gets_all_the_measure():
    w = edge_measures(flat_polygon([0.0, 1.0]))
    assert w.shape == (1,)
    assert w[0] == 1.0


@pytest.mark.parametrize("beta", [0.3, 1.0])
def test_weights_are_a_probability_vector(beta):
    for seed in range(6):
        poly = make_bridge_walk(seed, 7, beta=beta)
        w = edge_measures(poly, solver="full")
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-10


def test_weights_reverse_with_the_walk():
    for seed in range(4):
        poly = make_bridge_walk(seed, 6, beta=0.6)
        rev = WalkPolygon(times=1.0 - poly.times[::-1],
                          values=poly.values[::-1], beta=0.6)
        w = edge_measures(poly, solver="full")
        w_rev = edge_measures(rev, solver="full")
        assert np.max(np.abs(w_rev - w[::-1])) < 1e-9


def test_perturbative_weights_match_full_at_small_amplitude():
    beta = 0.04
    for seed in range(10):
        poly = make_bridge_walk(seed, 8, beta=beta)
        w_full = edge_measures(poly, solver="full")
        w_pert = edge_measures(poly, solver="perturbative")
        assert np.max(np.abs(w_full - w_pert)) < 20.0 * beta ** 2


@pytest.mark.parametrize("z", [[0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.4, 1.0],
                               [0.0, np.nan, 1.0]], ids=["tie", "swap", "nan"])
def test_weights_of_pre_vertices_out_of_order_raise(z):
    with pytest.raises(ScSolverError, match="pre-vertices out of order"):
        _edge_weights(np.array(z))


def test_perturbative_solve_past_its_amplitude_raises():
    # beta = 1 is far outside the first-order solve's range: its pre-vertices cross
    for seed in range(3):
        with pytest.raises(ScSolverError, match="pre-vertices out of order; amplitude "
                                                "too large for the chosen solver"):
            edge_measures(make_bridge_walk(seed, 12, beta=1.0), solver="perturbative")


def test_unknown_solver_raises():
    with pytest.raises(ValueError):
        edge_measures(flat_polygon([0.0, 1.0]), solver="magic")


# ---------------------------------------------------------------------------
# Guided bisection search


def test_flat_search_bisects_widest_edge_leftmost_first():
    rep = harmonic_bisection_search(new_bridge(5), 9, HmcParams(beta=0.0))
    assert rep.params["midpoints"] == [0.5, 0.25, 0.75, 0.125, 0.375,
                                       0.625, 0.875, 0.0625, 0.1875]
    assert rep.queries == 11
    assert rep.method == "harmonic-bisection"
    assert rep.params["fallbacks"] == 0


def test_budget_one_only_queries_the_midpoint():
    rep = harmonic_bisection_search(new_bridge(1), 1, HmcParams(beta=0.0))
    assert rep.params["midpoints"] == [0.5]
    assert rep.queries == 3


def test_search_rejects_bad_budget_and_unpinned_paths():
    with pytest.raises(ValueError):
        harmonic_bisection_search(new_bridge(1), 0)
    with pytest.raises(ValueError):
        harmonic_bisection_search(lambda t: t, 3)


def test_search_requires_exact_zeros_before_any_solve(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an unpinned path must be rejected before any solve")

    monkeypatch.setattr("pathmin.harmonic.solve_prevertices_full", never)
    for budget in (1, 2):
        queried = []

        def oracle(t):
            queried.append(t)
            return 1e-13 if t == 0.0 else 0.0

        with pytest.raises(ValueError, match="pinned"):
            harmonic_bisection_search(oracle, budget)
        assert queried == [0.0, 1.0]


def test_full_solver_budget_past_vertex_cap_raises():
    # the last round's walk would have budget + 1 > MAX_VERTICES vertices
    path = new_bridge(1)
    with pytest.raises(ValueError, match="caps at"):
        harmonic_bisection_search(path, MAX_VERTICES, HmcParams(solver="full"))
    assert len(path.sampled()[0]) == 2   # rejected before any query
    rep = harmonic_bisection_search(lambda t: 0.0, MAX_VERTICES,
                                    HmcParams(beta=0.0, solver="perturbative"))
    assert rep.queries == MAX_VERTICES + 2


def test_perturbative_budget_past_edge_cap_raises():
    # the last round's walk would have budget > MAX_PERTURBATIVE_EDGES edges
    path = new_bridge(1)
    with pytest.raises(ValueError, match="caps at"):
        harmonic_bisection_search(path, MAX_PERTURBATIVE_EDGES + 1,
                                  HmcParams(solver="perturbative"))
    assert len(path.sampled()[0]) == 2   # rejected before any query


BAD_OPTIONS = {
    "solver": ({"solver": "bogus"}, "unknown solver 'bogus'"),
    "strategy": ({"strategy": "bogus"}, "unknown strategy 'bogus'"),
    "sample_measure": ({"strategy": "sample_measure"}, "unknown strategy 'sample_measure'"),
    "beta-nan": ({"beta": np.nan}, "beta must be finite and >= 0"),
    "beta-inf": ({"beta": np.inf}, "beta must be finite and >= 0"),
    "beta-negative": ({"beta": -0.5}, "beta must be finite and >= 0"),
}


@pytest.mark.parametrize("field", list(BAD_OPTIONS))
@pytest.mark.parametrize("budget", [1, 2])
def test_unknown_solver_or_strategy_raises_before_any_query(field, budget):
    # a budget of 1 never reaches the solver, the walk or the edge choice, so
    # without an up-front check a bad option would pass silently
    options, message = BAD_OPTIONS[field]
    path = new_bridge(1)
    with pytest.raises(ValueError, match=message):
        harmonic_bisection_search(path, budget, HmcParams(**{"beta": 0.0, **options}))
    assert len(path.sampled()[0]) == 2


def test_search_is_deterministic_per_seed():
    # the search draws nothing, so one bridge seed fixes every midpoint
    params = HmcParams(beta=1.0, solver="full")
    a = harmonic_bisection_search(new_bridge(8), 8, params)
    b = harmonic_bisection_search(new_bridge(8), 8, params)
    assert a.params["midpoints"] == b.params["midpoints"]
    assert a.min_value == b.min_value


def test_solver_failure_falls_back_to_uniform_weights(monkeypatch):
    def boom(poly, initial_guess=None):
        raise ScSolverError("forced failure")

    monkeypatch.setattr("pathmin.harmonic.solve_prevertices_full", boom)
    rep = harmonic_bisection_search(new_bridge(2), 4,
                                    HmcParams(beta=0.7, solver="full"))
    # every post-midpoint round fell back; uniform tie bisects leftward
    assert rep.params["fallbacks"] == 3
    assert rep.params["midpoints"] == [0.5, 0.25, 0.125, 0.0625]


def test_failed_round_keeps_the_last_good_start(monkeypatch):
    real = solve_prevertices_full
    starts, solutions = [], []

    def flaky(poly, initial_guess=None):
        starts.append(initial_guess)
        if len(starts) == 3:
            raise ScSolverError("forced failure")
        solutions.append(real(poly, initial_guess=initial_guess))
        return solutions[-1]

    monkeypatch.setattr("pathmin.harmonic.solve_prevertices_full", flaky)
    rep = harmonic_bisection_search(new_bridge(2), 5, HmcParams(beta=0.7, solver="full"))
    assert rep.params["fallbacks"] == 1
    assert starts[0] is None
    assert starts[1] is solutions[0]
    # the round after the failure starts from the round before it
    assert starts[2] is starts[3] is solutions[1]


def test_search_midpoints_are_pinned():
    # the benchmark's budget-33 full searches at beta = 1 (hmc-b33), and
    # bridge 1 at budget 62, whose failed rounds fall back to uniform
    # weights: a solver change that moves any round's argmax, or fails a
    # round, shows here
    b33 = {
        3: [1/2, 1/4, 3/4, 5/8, 11/16, 7/8, 23/32, 47/64, 93/128, 1/8,
            187/256, 13/16, 1/16, 375/512, 27/32, 53/64, 105/128, 25/32,
            51/64, 103/128, 101/128, 201/256, 403/512, 805/1024, 1/32, 1/64,
            1/128, 1/256, 207/256, 1609/2048, 1/512, 1611/2048, 3221/4096],
        1: [1/2, 1/4, 3/8, 1/8, 3/4, 5/16, 3/16, 7/8, 9/32, 1/16, 15/16,
            13/16, 27/32, 3/32, 7/64, 55/64, 11/32, 23/64, 111/128, 15/128,
            5/32, 45/128, 91/256, 9/64, 181/512, 361/1024, 223/256, 31/256,
            47/128, 445/512, 7/32, 891/1024, 17/64],
    }
    pinned = {(bridge, 33): (midpoints, 0) for bridge, midpoints in b33.items()}
    pinned[1, 62] = (b33[1] + [
        17/128, 35/256, 71/512, 143/1024, 69/512, 285/2048, 139/1024,
        279/2048, 559/4096, 29/32, 1783/2048, 57/64, 3567/4096, 7133/8192,
        569/4096, 7/16, 15/32, 1137/8192, 1/32, 1/64, 1/128, 1/256, 1/512,
        1/1024, 1/2048, 1/4096, 1/8192, 1/16384, 1/32768], 11)
    for (bridge, budget), (midpoints, fallbacks) in pinned.items():
        rep = harmonic_bisection_search(new_bridge(bridge), budget,
                                        HmcParams(beta=1.0, solver="full"))
        assert rep.params["fallbacks"] == fallbacks
        assert rep.params["midpoints"] == midpoints


def test_report_tracks_best_queried_point():
    path = new_bridge(13)
    rep = harmonic_bisection_search(path, 12, HmcParams(beta=0.5))
    times, values = path.sampled()
    assert rep.min_value == values.min()
    assert rep.argmin_t == times[np.argmin(values)]


def uniform_bisection(path, budget, rng):
    """Minimum found by bisecting a uniformly drawn edge: budget + 2 queries."""
    fn = as_oracle(path)
    times = [0.0, 1.0]
    values = [fn(0.0), fn(1.0)]

    def insert(t):
        i = bisect.bisect_left(times, t)
        times.insert(i, t)
        values.insert(i, fn(t))

    insert(0.5)
    for _ in range(budget - 1):
        k = int(rng.integers(0, len(times) - 1))
        insert(0.5 * (times[k] + times[k + 1]))
    return min(values)


def test_guided_search_beats_uniform_bisection_on_average():
    # exploratory comparison: mean found-minimum over 60 fresh bridges,
    # heaviest-edge bisection vs uniformly random edge bisection
    n, budget = 60, 33
    guided = np.array([
        harmonic_bisection_search(new_bridge(derive_seed(900, i)), budget,
                                  HmcParams(beta=1.0, solver="perturbative")).min_value
        for i in range(n)
    ])
    uniform = np.array([
        uniform_bisection(new_bridge(derive_seed(902, i)), budget,
                          make_rng(derive_seed(903, i)))
        for i in range(n)
    ])
    se = np.sqrt(guided.var(ddof=1) / n + uniform.var(ddof=1) / n)
    assert guided.mean() <= uniform.mean() + se


def test_full_solver_search_beats_blind_bisection_on_the_same_grids():
    # the paper's claim, paired: on each of 20 level-10 bridge grids the
    # harmonic search (full solver), uniform-edge bisection and MCB all make
    # 18 queries.  Bound, fixed before the first run: the paired mean of
    # each baseline's error minus harmonic's error is positive.
    n, budget = 20, 16
    cell = {"budget": budget, "beta": 1.0, "solver": "full"}
    over_uniform, over_mcb = [], []
    for i in range(n):
        seed = derive_seed(704, i)
        grid = fill_dyadic(derive_seed(seed, 0), 10)
        guided, _ = run_trial("harmonic", cell, seed, path=grid)
        mcb, _ = run_trial("mcb", {"l": 10, "r": 10, "g": budget}, seed, path=grid)
        assert guided.queries == mcb.queries == budget + 2
        # the errors share the grid minimum, so their differences are the minima's
        over_uniform.append(uniform_bisection(grid, budget, make_rng(derive_seed(seed, 2)))
                            - guided.min_value)
        over_mcb.append(mcb.min_value - guided.min_value)
    assert np.mean(over_uniform) > 0.0
    assert np.mean(over_mcb) > 0.0


# ---------------------------------------------------------------------------
# Walker oracle


def reference_nearest_edge(px, py, t, yb):
    """The broadcast (points, edges) distance formula the kernel must match bit for bit."""
    ax, ay, bx, by = t[:-1], yb[:-1], t[1:], yb[1:]
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    tpar = ((px[:, None] - ax) * dx + (py[:, None] - ay) * dy) / denom
    tpar = np.clip(tpar, 0.0, 1.0)
    cx = ax + tpar * dx
    cy = ay + tpar * dy
    dist = np.sqrt((px[:, None] - cx) ** 2 + (py[:, None] - cy) ** 2)
    edge = dist.argmin(axis=1)
    return edge, dist[np.arange(len(px)), edge]


def check_nearest_edge(px, py, t, yb, walkers=None, dt=np.inf):
    """Run the kernel on buffers sized as the oracle sizes them for `walkers`,
    which may exceed the live points, and compare it with the reference: every
    distance, and the edge of every point within dt (-1 for the others)."""
    n = len(t) - 1
    u, v = np.empty((2, n * min(walkers or len(px), max(1, NEAREST_BLOCK // n))))
    edge, r = _nearest_edge(px, py, t, yb, u, v, dt)
    want_edge, want_r = reference_nearest_edge(px, py, t, yb)
    assert np.array_equal(r, want_r)
    assert np.array_equal(edge, np.where(want_r < dt, want_edge, -1))
    return edge


def scattered_points(poly, count, seed):
    yb = poly.scaled_values()
    rng = make_rng(seed)
    return rng.random(count), rng.uniform(yb.min() - 1.0, yb.max() + 0.5, count)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.floats(0.0, 2.0), st.integers(0, 2**31 - 1),
       st.integers(1, 3000), st.floats(0.0, 1.0))
def test_nearest_edge_matches_reference(n, beta, seed, walkers, live):
    poly = make_bridge_walk(seed, n, beta=beta)
    px, py = scattered_points(poly, max(1, int(live * walkers)), seed)
    check_nearest_edge(px, py, poly.times, poly.scaled_values(), walkers)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.integers(0, 2**31 - 1), st.floats(0.0, 2.0))
def test_nearest_edge_matches_reference_on_512_edges(walkers, seed, beta):
    poly = make_bridge_walk(seed, 512, beta=beta)
    px, py = scattered_points(poly, walkers, seed)
    check_nearest_edge(px, py, poly.times, poly.scaled_values())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 64) | st.just(512), st.sampled_from([-1, 0, 1]), st.integers(1, 2),
       st.integers(0, 2**31 - 1))
def test_nearest_edge_matches_reference_at_chunk_boundaries(n, offset, chunks, seed):
    poly = make_bridge_walk(seed, n, beta=1.0)
    px, py = scattered_points(poly, chunks * (NEAREST_BLOCK // n) + offset, seed)
    check_nearest_edge(px, py, poly.times, poly.scaled_values())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 2**10), st.integers(0, 2**31 - 1))
def test_nearest_edge_ties_go_to_the_lowest_edge(j, depth, seed):
    # a zigzag of 2^j edges with slopes +-1 and dyadic nodes, so every
    # distance below is exact: a vertex lies at distance 0 from both of its
    # edges, and a point below a peak, by at most the peak's height, is
    # equally far from the peak's two edges and nearer to them than to any other
    n = 2 ** j
    t = np.arange(n + 1) / n
    yb = np.where(np.arange(n + 1) % 2 == 1, 1.0 / n, 0.0)
    edge = check_nearest_edge(t, yb, t, yb)
    assert np.array_equal(edge, np.maximum(np.arange(n + 1) - 1, 0))
    peaks = np.arange(1, n, 2)
    edge = check_nearest_edge(t[peaks], yb[peaks] - depth / (n * 2.0 ** 10), t, yb)
    assert np.array_equal(edge, peaks - 1)
    # vertices of a random walk, where a tie may be off by an ulp
    poly = make_bridge_walk(seed, n, beta=1.0)
    check_nearest_edge(poly.times, poly.scaled_values(), poly.times, poly.scaled_values())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 64), st.integers(0, 2**31 - 1),
       st.integers(1, 3000), st.floats(-6.0, 0.0))
def test_nearest_edge_within_dt_matches_reference(j, n, seed, walkers, log_dt):
    # a finite dt: every distance, but the edge only of points within dt.
    # The zigzag's vertices lie at distance 0 from two edges, so they are
    # ties that must still go to the lower edge.
    dt = 10.0 ** log_dt
    zn = 2 ** j
    zt = np.arange(zn + 1) / zn
    zy = np.where(np.arange(zn + 1) % 2 == 1, 1.0 / zn, 0.0)
    px, py = scattered_points(WalkPolygon(times=zt, values=zy, beta=0.0), walkers, seed)
    edge = check_nearest_edge(np.concatenate([zt, px]), np.concatenate([zy, py]), zt, zy,
                              walkers, dt)
    assert np.array_equal(edge[:zn + 1], np.maximum(np.arange(zn + 1) - 1, 0))
    poly = make_bridge_walk(seed, n, beta=1.0)
    yb = poly.scaled_values()
    px, py = scattered_points(poly, walkers, seed)
    check_nearest_edge(np.concatenate([poly.times, px]), np.concatenate([yb, py]),
                       poly.times, yb, walkers, dt)


def test_fold_is_the_reflection_bit_for_bit():
    # the in-place fold skips np.mod inside [0, 2), so compare its bits with
    # the plain formula on Cauchy draws and on the edges of that range
    x = np.concatenate([
        make_rng(5).standard_cauchy(200_000), make_rng(6).random(50_000) * 2.0,
        [0.0, -0.0, 2.0, -2.0, np.nextafter(2.0, 0.0), np.nextafter(0.0, -1.0),
         -1e-300, 4.0]])
    want = 1.0 - np.abs(1.0 - np.mod(x, 2.0))
    got = x.copy()
    assert _fold(got) is got
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_oracle_matches_flat_two_edge_split():
    for split in (0.5, 0.1, 0.93):
        poly = flat_polygon([0.0, split, 1.0])
        w, se = mc_hitting_oracle(poly, walkers=4000, dt=1e-4, rng=make_rng(1))
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(np.abs(w - [split, 1.0 - split]) < 3.5 * se)


def test_oracle_matches_flat_uneven_widths():
    # a flat walk's weights are its edge widths (the arcsine law telescopes)
    for t in ([0.0, 0.2, 0.45, 0.7, 1.0],
              [0.0, 0.05, 0.1, 0.9, 1.0],
              [0.0, 0.3, 0.35, 0.4, 0.45, 0.5, 1.0]):
        t = np.array(t)
        w, se = mc_hitting_oracle(flat_polygon(t), walkers=4000, dt=1e-4, rng=make_rng(2))
        assert np.all(np.abs(w - np.diff(t)) < 3.5 * se)


def test_oracle_matches_flat_walk_with_one_low_vertex():
    # the walk's lowest point is one interior vertex, so walkers start off
    # the graph and sphere jumps and Cauchy re-entries run
    poly = WalkPolygon(times=np.array([0.0, 0.2, 0.45, 0.7, 1.0]),
                       values=np.array([0.0, 0.0, -1.0, 0.0, 0.0]))
    mc, se = mc_hitting_oracle(poly, walkers=20_000, dt=1e-4, rng=make_rng(6))
    an = edge_measures(poly, solver="full")
    assert np.all(np.abs(mc - an) < 4.0 * se)


def test_oracle_matches_analytic_weights_on_a_walk():
    poly = make_bridge_walk(77, 4, beta=0.4)
    mc, se = mc_hitting_oracle(poly, walkers=6000, dt=1e-4, rng=make_rng(3))
    an = edge_measures(poly, solver="full")
    assert np.all(np.abs(mc - an) < 4.0 * se)


def test_oracle_matches_analytic_weights_on_a_steep_walk():
    # beta = 1 on 16 edges: deep narrow troughs, and edges whose weight is
    # far below one walker, so stderr is floored at one walker
    walkers = 100_000
    poly = make_bridge_walk(derive_seed(77, 16), 16, beta=1.0)
    mc, mc_se = mc_hitting_oracle(poly, walkers=walkers, dt=1e-4, rng=make_rng(4))
    an = edge_measures(poly, solver="full")
    se = np.maximum(mc_se, 1.0 / walkers)
    assert np.all(np.abs(mc - an) < 4.0 * se)


def test_oracle_round_cap_raises(monkeypatch):
    monkeypatch.setattr("pathmin.harmonic.MAX_WALK_ROUNDS", 1)
    poly = make_bridge_walk(77, 4, beta=0.4)
    with pytest.raises(RuntimeError, match="still alive after 1 rounds"):
        mc_hitting_oracle(poly, walkers=100, rng=make_rng(5))


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-4])
def test_oracle_rejects_dt_that_is_not_finite_and_positive(dt):
    # a nan shell absorbs no walker and an infinite one absorbs every walker
    poly = make_bridge_walk(77, 4, beta=0.4)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        mc_hitting_oracle(poly, walkers=10, dt=dt, rng=make_rng(5))
    assert time.perf_counter() - start < 1.0


def test_oracle_rejects_walker_edges_past_memory_cap():
    # a walker count out of range raises before the generator is touched
    class Drawn(Exception):
        pass

    class Refusing:
        def __getattr__(self, name):
            raise Drawn

    poly = flat_polygon(np.linspace(0.0, 1.0, 7))   # 6 edges
    for walkers in (MAX_WALKER_EDGES // 6 + 1, 10**10):
        with pytest.raises(ValueError, match="limit"):
            mc_hitting_oracle(poly, walkers=walkers, rng=Refusing())
    for walkers in (0, -3):
        with pytest.raises(ValueError, match="at least one walker"):
            mc_hitting_oracle(poly, walkers=walkers, rng=Refusing())
    with pytest.raises(Drawn):
        mc_hitting_oracle(poly, walkers=MAX_WALKER_EDGES // 6, rng=Refusing())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.floats(0.0, 1.5), st.integers(0, 2**31 - 1),
       st.integers(1, 300))
def test_oracle_counts_every_walker_once(n, beta, seed, walkers):
    poly = make_bridge_walk(seed, n, beta=beta)
    w, _ = mc_hitting_oracle(poly, walkers=walkers, dt=1e-3, rng=make_rng(seed))
    counts = w * walkers
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-9)
    assert int(np.round(counts).sum()) == walkers


def test_oracle_counts_are_pinned():
    # exact hit counts, so a change in draw order or in which edge gets the
    # credit shows: measure-xval's oracle walk, then a 32-edge walk whose
    # walkers span three distance chunks
    bridge = new_bridge(derive_seed(11, 100))
    t = np.arange(7) / 6.0
    poly = WalkPolygon(times=t, values=np.array([bridge.query(s) for s in t]), beta=0.5)
    w, _ = mc_hitting_oracle(poly, walkers=20_000, rng=make_rng(1))
    assert np.round(w * 20_000).astype(int).tolist() == [
        3347, 5103, 2759, 3178, 3525, 2088]
    assert 5000 > NEAREST_BLOCK // 32
    w, _ = mc_hitting_oracle(make_bridge_walk(derive_seed(77, 32), 32, beta=1.0),
                             walkers=5000, rng=make_rng(2))
    assert np.round(w * 5000).astype(int).tolist() == [
        0, 0, 183, 41, 745, 425, 1, 475, 1459, 272, 4, 9, 73, 109, 67, 282,
        3, 0, 0, 0, 13, 184, 210, 19, 1, 1, 0, 19, 196, 112, 54, 43]


def test_oracle_is_deterministic_per_seed():
    poly = flat_polygon([0.0, 0.5, 1.0])
    a = mc_hitting_oracle(poly, walkers=500, dt=1e-3, rng=make_rng(9))
    b = mc_hitting_oracle(poly, walkers=500, dt=1e-3, rng=make_rng(9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# ---------------------------------------------------------------------------
# CSV output


def test_measures_csv_layout(tmp_path):
    out = tmp_path / "m.csv"
    save_measures_csv(np.array([0.0, 0.4, 1.0]), np.array([0.25, 0.75]), str(out))
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["k", "t_left", "t_right", "weight"]
    assert rows[1][0] == "1" and rows[2][0] == "2"
    assert float(rows[1][3]) == 0.25


def test_measures_csv_rejects_times_that_do_not_bound_the_edges(tmp_path):
    out = tmp_path / "m.csv"
    for times in ([0.0, 1.0], [0.0, 0.2, 0.4, 1.0]):
        with pytest.raises(ValueError, match="n \\+ 1 times"):
            save_measures_csv(np.array(times), np.array([0.25, 0.75]), str(out))
    assert not out.exists()


def test_measures_csv_appends_oracle_columns(tmp_path):
    times, weights = np.array([0.0, 0.4, 1.0]), np.array([0.25, 0.75])
    mc = (np.array([0.26, 0.74]), np.array([0.01, 0.01]))
    out = tmp_path / "m.csv"
    save_measures_csv(times, weights, str(out), oracle=mc)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["k", "t_left", "t_right", "weight", "mc_weight", "mc_stderr"]
    assert float(rows[1][4]) == 0.26 and float(rows[1][5]) == 0.01
    short = (np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        save_measures_csv(times, weights, str(out), oracle=short)
