"""Conformal map machinery: angles, pre-vertex solvers, forward map."""
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import pathmin.scmap as scmap
from conftest import make_bridge_walk
from pathmin.paths import new_bridge
from pathmin.rng import derive_seed
from pathmin.scmap import (
    LAM_ONE,
    MAX_PERTURBATIVE_EDGES,
    MAX_VERTICES,
    RESIDUAL_ACCEPT,
    ScSolverError,
    WalkPolygon,
    _residual_jacobian,
    _side_integrals_dz,
    _side_nodes,
    _z_from_log_gaps,
    lam_log_sin,
    sc_forward_map,
    solve_prevertices_full,
    solve_prevertices_perturbative,
    turning_angles,
)


@st.composite
def walks(draw, edges, beta):
    """Pinned walks on uneven nodes, gaps within a factor 4 of each other
    and unscaled heights in [-1, 1]."""
    n = draw(edges)
    gaps = np.array(draw(st.lists(st.floats(0.25, 1.0), min_size=n, max_size=n)))
    times = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    times[-1] = 1.0
    inner = draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1))
    return WalkPolygon(times=times, values=np.array([0.0, *inner, 0.0]), beta=draw(beta))


def flat_polygon(times, beta=0.0):
    times = np.asarray(times, dtype=float)
    return WalkPolygon(times=times, values=np.zeros(len(times)), beta=beta)


def test_polygon_validates_nodes():
    with pytest.raises(ValueError):
        WalkPolygon(times=np.array([0.0, 0.5, 0.4, 1.0]),
                    values=np.zeros(4))
    with pytest.raises(ValueError):
        WalkPolygon(times=np.array([0.0, 0.5, 1.0]),
                    values=np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError, match="equal length"):
        WalkPolygon(times=np.array([0.0, 0.5, 1.0]), values=np.zeros(2))
    with pytest.raises(ValueError, match="at least one edge"):
        WalkPolygon(times=np.array([0.0]), values=np.zeros(1))
    for times in ([0.1, 0.5, 1.0], [0.0, 0.5, 0.9]):
        with pytest.raises(ValueError, match="start at 0 and end at 1"):
            WalkPolygon(times=np.array(times), values=np.zeros(3))


@pytest.mark.parametrize("times, values, beta, what", [
    ([0.0, np.nan, 1.0], [0.0, 0.1, 0.0], 1.0, "times"),
    ([0.0, np.inf, 1.0], [0.0, 0.1, 0.0], 1.0, "times"),
    ([0.0, 0.5, 1.0], [0.0, np.nan, 0.0], 1.0, "values"),
    ([0.0, 0.5, 1.0], [0.0, -np.inf, 0.0], 1.0, "values"),
    ([0.0, 0.5, 1.0], [0.0, 0.3, 0.0], np.inf, "beta"),
    ([0.0, 0.5, 1.0], [0.0, 0.3, 0.0], np.nan, "beta"),
    ([0.0, 0.5, 1.0], [0.0, 0.3, 0.0], -1.0, "beta"),
    ([0.0, 0.5, 1.0], [0.0, 2.0, 0.0], 1e308, "slope jumps"),    # heights overflow
    ([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], 1e308, "slope jumps"),    # slopes overflow
    ([0.0, 0.5, 1.0], [0.0, 0.45, 0.0], 1e308, "slope jumps"),   # only the jump does
])
@pytest.mark.filterwarnings("error::RuntimeWarning")   # the check overflows silently
def test_polygon_rejects_non_finite_input(times, values, beta, what):
    with pytest.raises(ValueError, match=what):
        WalkPolygon(times=np.array(times), values=np.array(values), beta=beta)


def test_polygon_scales_heights_by_beta():
    poly = WalkPolygon(times=np.array([0.0, 0.5, 1.0]),
                       values=np.array([0.0, -1.0, 0.0]), beta=0.25)
    assert poly.n_edges == 2
    assert np.array_equal(poly.scaled_values(), np.array([0.0, -0.25, 0.0]))


# ---------------------------------------------------------------------------
# Turning angles


def test_flat_walk_angles():
    alpha = turning_angles(flat_polygon([0.0, 0.3, 0.7, 1.0]))
    assert np.allclose(alpha, [0.5, 1.0, 1.0, 0.5, 0.0], atol=1e-15)
    assert abs(np.sum(1.0 - alpha) - 2.0) < 1e-15


def test_peak_and_trough_angles():
    peak = WalkPolygon(times=np.array([0.0, 0.5, 1.0]),
                       values=np.array([0.0, 1.0, 0.0]), beta=1.0)
    a = turning_angles(peak)
    # seen from below, an upward tent apex subtends less than a half turn
    assert abs(a[1] - (1.0 - 2.0 * math.atan(2.0) / math.pi)) < 1e-14
    trough = WalkPolygon(times=np.array([0.0, 0.5, 1.0]),
                         values=np.array([0.0, -1.0, 0.0]), beta=1.0)
    a = turning_angles(trough)
    assert abs(a[1] - (1.0 + 2.0 * math.atan(2.0) / math.pi)) < 1e-14


def test_angles_match_slope_geometry():
    for seed in range(20):
        poly = make_bridge_walk(seed, 8, beta=0.7)
        slopes = np.diff(poly.scaled_values()) / np.diff(poly.times)
        th = np.arctan(slopes) / math.pi
        want = np.empty(poly.n_edges + 2)
        want[0] = 0.5 + th[0]
        want[1:-2] = 1.0 + np.diff(th)
        want[-2] = 0.5 - th[-1]
        want[-1] = 0.0
        assert np.max(np.abs(turning_angles(poly) - want)) < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(walks(st.integers(1, MAX_VERTICES - 1), st.floats(0.0, 10.0)))
def test_angle_defects_always_sum_to_two(poly):
    assert abs(np.sum(1.0 - turning_angles(poly)) - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# Gauss-Jacobi heads


def _mp_gauss_jacobi(p, n=scmap.GJ_POINTS):
    """n-point rule for (1 + x)^p on [-1, 1] at the working precision.

    Nodes are the roots of P_n^(0, p), polished by findroot from the float
    nodes and checked to be n distinct roots; weights come from the
    closed form (Abramowitz & Stegun 25.4.33) with
    P_n' = (n + p + 1) / 2 * P_{n-1}^(1, p + 1), independent of the
    recurrence the rule under test sums.
    """
    a, b = mpmath.mpf(0), mpmath.mpf(p)
    start = scmap._gj_rule(np.array([p]))[0][0]
    x = [mpmath.findroot(lambda t: mpmath.jacobi(n, a, b, t), mpmath.mpf(v)) for v in start]
    assert all(lo < hi for lo, hi in zip(x, x[1:])) and -1 < x[0] and x[-1] < 1
    c = (-(2 * n + a + b + 2) / (n + a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
         / (mpmath.gamma(n + a + b + 1) * mpmath.factorial(n + 1)) * 2 ** (a + b))
    w = [c / ((n + a + b + 1) / 2 * mpmath.jacobi(n - 1, a + 1, b + 1, t)
              * mpmath.jacobi(n + 1, a, b, t)) for t in x]
    return np.array([float(v) for v in x]), np.array([float(v) for v in w])


def test_gauss_jacobi_rule_matches_mpmath():
    ps = [-0.999, -0.99, -0.5, 0.0, 0.5, 0.99]
    x, w = scmap._gj_rule(np.array(ps))
    with mpmath.workdps(32):
        for i, p in enumerate(ps):
            ref_x, ref_w = _mp_gauss_jacobi(p)
            # about twice the errors seen (1.1e-16, 4.9e-15): an unpolished
            # node or a cancelling off-diagonal factor fails these bounds
            assert np.max(np.abs(x[i] - ref_x)) <= 2.5e-16
            assert np.max(np.abs(w[i] / ref_w - 1.0)) <= 1e-14
            assert abs(w[i].sum() / (2.0 ** (p + 1.0) / (p + 1.0)) - 1.0) <= 1e-14
    leg_x, leg_w = np.polynomial.legendre.leggauss(scmap.GJ_POINTS)
    assert np.max(np.abs(x[3] - leg_x)) <= 1e-15
    # leggauss's own weights sit up to 6.4e-16 from the 32-digit rule
    assert np.max(np.abs(w[3] - leg_w)) <= 2e-15


def test_gauss_legendre_rule_matches_mpmath():
    # the rule of the graded tails and of lam_log_sin; numpy's leggauss
    # weights are up to 8.8e-15 off at the end nodes
    with mpmath.workdps(32):
        ref_x, ref_w = _mp_gauss_jacobi(0.0)
    assert np.max(np.abs(scmap._GL_X - ref_x)) <= 2.5e-16
    assert np.max(np.abs(scmap._GL_W / ref_w - 1.0)) <= 5e-14


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(-0.999, 0.99), min_size=1, max_size=40))
def test_gauss_jacobi_rules_do_not_depend_on_batch_or_table_history(ps):
    p = np.array(ps)
    x, w = scmap._gj_rule(p)
    for i in range(len(p)):
        xi, wi = scmap._gj_rule(p[i:i + 1])
        assert np.array_equal(xi[0], x[i]) and np.array_equal(wi[0], w[i])
    for history in ([], p[::-1], np.linspace(-0.9, 0.9, 50)):
        scmap._gj_table.clear()
        hx, hw = scmap._gj_heads(np.asarray(history, dtype=float))
        assert hx.shape == hw.shape == (len(history), scmap.GJ_POINTS)
        hx, hw = scmap._gj_heads(p)
        assert np.array_equal(hx, x) and np.array_equal(hw, w)
    # a full table that holds p[0] but not the rest of p overflows on a
    # batch that mixes found and new exponents
    rows = len(set(ps))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scmap, "GJ_TABLE_ROWS", rows)
        scmap._gj_table.clear()
        scmap._gj_heads(np.r_[p[:1], np.linspace(-0.95, 0.95, rows - 1)])
        hx, hw = scmap._gj_heads(p)
    assert np.array_equal(hx, x) and np.array_equal(hw, w)


def test_full_head_table_is_cleared_and_rebuilt(monkeypatch):
    # a lookup answers from the table, then clears it if it holds more
    # than GJ_TABLE_ROWS rules; the next lookup builds its rules again
    monkeypatch.setattr(scmap, "GJ_TABLE_ROWS", 8)
    scmap._gj_table.clear()
    first = np.linspace(-0.9, 0.9, 6)
    x, w = scmap._gj_heads(first)
    scmap._gj_heads(np.r_[first[:3], -0.95, 0.95])
    assert len(scmap._gj_table) == 8
    new_x, new_w = scmap._gj_heads(np.linspace(-0.8, 0.8, 5))
    ref_x, ref_w = scmap._gj_rule(np.linspace(-0.8, 0.8, 5))
    assert np.array_equal(new_x, ref_x) and np.array_equal(new_w, ref_w)
    assert len(scmap._gj_table) == 0
    again_x, again_w = scmap._gj_heads(first)
    assert np.array_equal(again_x, x) and np.array_equal(again_w, w)
    assert len(scmap._gj_table) == 6
    # an overflowing batch whose other exponents are already in the table
    mixed = np.r_[first[:2], np.linspace(-0.8, 0.8, 5)]
    mixed_x, mixed_w = scmap._gj_heads(mixed)
    ref_x, ref_w = scmap._gj_rule(mixed)
    assert np.array_equal(mixed_x, ref_x) and np.array_equal(mixed_w, ref_w)
    assert len(scmap._gj_table) == 0


# ---------------------------------------------------------------------------
# Side integrals


def _mp_half_panel(z, p, j, direction, span):
    """integral over u in [0, span] of prod_i |z_j + direction * u - z_i|^{p_i}.

    With q = p_j, the substitution u = v^(1/(1+q)) turns u^q du into
    dv / (1 + q), so tanh-sinh sees no endpoint singularity; without it,
    40-digit tanh-sinh is off by 2e-3 on u^-0.94 (1 + u)^0.3 over [0, 1].
    The v-range is split where u passes the distance to the nearest other
    pre-vertex and at every fourfold step beyond it, so each piece sees
    its nearest singularity at a distance comparable to its length.
    """
    zj, q = mpmath.mpf(z[j]), mpmath.mpf(p[j])
    others = [(mpmath.mpf(z[i]), mpmath.mpf(p[i])) for i in range(len(z)) if i != j]

    def integrand(v):
        x = zj + direction * v ** (1 / (1 + q))
        return mpmath.fprod(abs(x - zi) ** pi for zi, pi in others)

    span = mpmath.mpf(span)
    cuts = [mpmath.mpf(0)]
    u = min(abs(zi - zj) for zi, _ in others)
    while u < span:
        cuts.append(u ** (1 + q))
        u *= 4
    cuts.append(span ** (1 + q))
    return mpmath.quad(integrand, cuts) / (1 + q)


def _mp_integrals(z, p):
    """Side integrals at the working precision; z may hold mpf values."""
    out = []
    for k in range(len(z) - 1):
        span = (mpmath.mpf(z[k + 1]) - mpmath.mpf(z[k])) / 2
        out.append(_mp_half_panel(z, p, k, 1, span) + _mp_half_panel(z, p, k + 1, -1, span))
    return out


def _mp_side_integrals(z, p):
    return np.array([float(v) for v in _mp_integrals(z, p)])


def _origin_cluster(n, log_ratio, seed):
    """n + 1 pre-vertices whose gaps span a ratio of exactly e^log_ratio.

    The log-gaps are sorted, so the smallest gaps crowd at z = 0, where
    float spacing shrinks with z and x - z_j keeps full relative precision.
    """
    y = np.sort(np.random.default_rng(seed).uniform(-log_ratio, 0.0, n - 1))
    y[0] = -log_ratio
    return _z_from_log_gaps(y)


def _mid_cluster(n, log_ratio, seed):
    """2n + 1 pre-vertices crowding at z = 0.5 from both sides.

    An origin cluster halved onto [0, 0.5], mirrored onto [0.5, 1], so the
    gap ratio is still e^log_ratio and the crowding sits away from both
    ends, where the x2 grading meets it from two sides at once.
    """
    half = 0.5 * _origin_cluster(n, log_ratio, seed)
    return np.concatenate([0.5 - half[::-1], 0.5 + half[1:]])


def test_side_integrals_match_mpmath_reference():
    # Clusters at z = 0, mirrored to z = 1 and crowding at z = 0.5 (where
    # float spacing does not shrink): distances formed from pre-vertex
    # differences keep all of them at the rule's own error, 5.6e-16 to
    # 4.4e-15 at 12 nodes.  Rounding the node x = z_k + u first would cost
    # up to ~4e-9 at e^20 and ~4e-6 at e^30 at z = 1.  The 2e-14 bound
    # fails an under-resolved rule: 8 nodes miss it on every set
    # (6.5e-14 to 3.9e-13).
    walk = solve_prevertices_full(make_bridge_walk(5, 12, beta=1.0))
    cases = [(walk.prevertices, turning_angles(walk.poly)[:-1] - 1.0)]
    for log_ratio in (10, 20, 30):
        p = turning_angles(make_bridge_walk(log_ratio, 10, beta=1.0))[:-1] - 1.0
        cases.append((_origin_cluster(10, log_ratio, log_ratio), p))
    for log_ratio in (20, 30):
        p = turning_angles(make_bridge_walk(log_ratio + 1, 10, beta=1.0))[:-1] - 1.0
        cases.append((1.0 - _origin_cluster(10, log_ratio, log_ratio + 1)[::-1], p))
    for log_ratio in (20, 30):
        p = turning_angles(make_bridge_walk(log_ratio + 2, 10, beta=1.0))[:-1] - 1.0
        cases.append((_mid_cluster(5, log_ratio, log_ratio + 2), p))
    with mpmath.workdps(20):
        for z, p in cases:
            ints = _side_nodes(z, p, scmap._quadrature_plan(p))[-1]
            err = np.max(np.abs(ints / _mp_side_integrals(z, p) - 1.0))
            assert err < 1e-9
            assert err < 2e-14


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 14).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-10.0, 0.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.floats(-0.95, 0.95), min_size=n + 1, max_size=n + 1))))
def test_side_integrals_are_reflection_symmetric(case):
    # x -> 1 - x swaps the two half-panels of every panel, so a swapped
    # anchor or direction between them breaks the symmetry
    y, p = case
    z, p = _z_from_log_gaps(np.array(y)), np.array(p)
    direct = _side_nodes(z, p, scmap._quadrature_plan(p))[-1]
    mirrored = _side_nodes(1.0 - z[::-1], p[::-1], scmap._quadrature_plan(p[::-1]))[-1][::-1]
    assert np.max(np.abs(mirrored / direct - 1.0)) < 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gap, message", [
    (0.0, "degenerate panel"),
    # half the gap is 2^-1023 of the panel's span or less, so span / head may overflow
    (1e-310, "degenerate panel"),
    # laid out, but near the crowded pair the integrand overflows before its weight scales it
    (1e-300, "too crowded for float arithmetic"),
])
def test_side_nodes_reject_a_panel_they_cannot_lay_out(gap, message):
    z, p = np.array([0.0, gap, 0.5, 1.0]), np.array([-0.5, -0.9, -0.3, -0.3])
    with pytest.raises(ScSolverError, match=message):
        _side_nodes(z, p, scmap._quadrature_plan(p))


# ---------------------------------------------------------------------------
# Analytic Jacobian


def _mp_central(fun, x, h):
    """Central differences of fun (a list of mpf) in each entry of x."""
    cols = []
    for j in range(len(x)):
        up, down = list(x), list(x)
        up[j] += h[j]
        down[j] -= h[j]
        cols.append([(a - b) / (2 * h[j]) for a, b in zip(fun(up), fun(down))])
    return np.array([[float(v) for v in col] for col in cols]).T


def _mp_pred(y, p):
    """Predicted side fractions I_k / sum I at mpf log-gaps y."""
    cs = [mpmath.mpf(0)]
    for g in [mpmath.e ** v for v in y] + [mpmath.mpf(1)]:
        cs.append(cs[-1] + g)
    ints = _mp_integrals([c / cs[-1] for c in cs], p)
    return [v / sum(ints) for v in ints]


def test_jacobian_matches_mpmath_central_differences():
    # 30-digit integrals and relative steps of 1e-10 put the reference's
    # own error near 1e-20; the analytic entries agree to about 1e-14 on
    # the walk and 3e-11 on the cluster
    sol = solve_prevertices_full(make_bridge_walk(5, 5, beta=1.0))
    p_cluster = turning_angles(make_bridge_walk(10, 5, beta=1.0))[:-1] - 1.0
    cases = [(sol.prevertices, turning_angles(sol.poly)[:-1] - 1.0),
             (1.0 - _origin_cluster(5, 10, 10)[::-1], p_cluster)]
    with mpmath.workdps(30):
        for z, p in cases:
            plan = scmap._quadrature_plan(p)
            layout = _side_nodes(z, p, plan)
            gaps = np.diff(z)
            near = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
            z_mp = [mpmath.mpf(v) for v in z]
            ref = _mp_central(lambda x: _mp_integrals(x, p), z_mp,
                              [mpmath.mpf(1e-10) * g for g in near])
            assert np.max(np.abs(_side_integrals_dz(z, p, layout)[1] / ref - 1.0)) < 1e-8
            y_mp = [mpmath.log((z_mp[m + 1] - z_mp[m]) / (z_mp[-1] - z_mp[-2]))
                    for m in range(len(z) - 2)]
            ref = _mp_central(lambda x: _mp_pred(x, p)[:-1], y_mp,
                              [mpmath.mpf(1e-10)] * len(y_mp))
            assert np.max(np.abs(_residual_jacobian(z, p, plan, layout) / ref - 1.0)) < 1e-8


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-8.0, 0.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.floats(-0.95, 0.95), min_size=n + 1, max_size=n + 1))))
def test_jacobian_matches_central_differences(case):
    # central differences of the quadrature itself in the log-gap unknowns;
    # each row (one side-length equation) is compared at its own scale
    y, p = np.array(case[0]), np.array(case[1])
    plan = scmap._quadrature_plan(p)
    h = 1e-5

    def pred(y):
        a = _side_nodes(_z_from_log_gaps(y), p, plan)[-1]
        return (a / a.sum())[:-1]

    ref = np.column_stack([(pred(y + h * e) - pred(y - h * e)) / (2.0 * h)
                           for e in np.eye(len(y))])
    z = _z_from_log_gaps(y)
    jac = _residual_jacobian(z, p, plan, _side_nodes(z, p, plan))
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.max(np.abs(jac - ref) / scale) < 1e-5


# ---------------------------------------------------------------------------
# Full pre-vertex solver


def test_flat_prevertices_are_arcsine_points():
    t = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
    sol = solve_prevertices_full(flat_polygon(t))
    assert np.max(np.abs(sol.prevertices - np.sin(0.5 * np.pi * t) ** 2)) < 1e-10


def test_cold_solve_reports_convergence():
    sol = solve_prevertices_full(make_bridge_walk(2, 8, beta=1.0))
    assert sol.residual_norm <= RESIDUAL_ACCEPT
    assert sol.iterations >= 1
    assert sol.residual_evals > sol.iterations


def test_residual_evals_counts_every_residual(monkeypatch):
    calls = []
    residual = scmap._side_residual

    def counted(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(scmap, "_side_residual", counted)
    sol = solve_prevertices_full(make_bridge_walk(7, 4, beta=1.0))
    assert sol.residual_evals == len(calls) > 1


def measure_walk(n):
    """The n-edge walk of `pathmin measure --walk-nodes n --seed 5`."""
    bridge = new_bridge(derive_seed(5, 100))
    t = np.arange(n + 1) / float(n)
    return WalkPolygon(times=t, values=np.array([bridge.query(x) for x in t]), beta=1.0)


def test_cold_solve_stops_at_the_quadrature_floor():
    # the 32-edge walk of `pathmin measure --seed 5` reaches the rule's
    # noise floor near 3e-11 in 12 residual evaluations; grinding on
    # toward RESIDUAL_TARGET takes 89
    sol = solve_prevertices_full(measure_walk(32))
    assert sol.residual_norm <= RESIDUAL_ACCEPT
    assert sol.residual_evals <= 45


@pytest.mark.parametrize("n, evals", [(16, 10), (32, 12)])
def test_measure_walks_converge_directly(n, evals):
    # halving the Newton step until the residual falls takes both cold
    # solves of the measure benchmark straight from the flat walk's
    # pre-vertices to the floor
    sol = solve_prevertices_full(measure_walk(n))
    assert sol.residual_evals == evals
    assert sol.residual_norm <= RESIDUAL_ACCEPT


def test_singular_newton_system_stops_the_direct_solve_as_crowded(monkeypatch):
    # a singular Newton system ends the only Newton solve, so the solve fails
    poly = make_bridge_walk(2, 8, beta=1.0)
    solve, calls = np.linalg.solve, []

    def singular_once(a, b):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(scmap.np.linalg, "solve", singular_once)
    with pytest.raises(ScSolverError) as exc:
        solve_prevertices_full(poly)
    assert exc.value.stop == "crowded"
    assert len(calls) == 1


def test_single_edge_walk_is_trivial():
    sol = solve_prevertices_full(flat_polygon([0.0, 1.0]))
    assert np.array_equal(sol.prevertices, [0.0, 1.0])


def test_solver_output_structure_on_random_walks():
    for seed in range(8):
        poly = make_bridge_walk(seed, 6, beta=0.8)
        sol = solve_prevertices_full(poly)
        z = sol.prevertices
        assert z[0] == 0.0 and z[-1] == 1.0
        assert np.all(np.diff(z) > 0.0)
        assert sol.residual_norm <= RESIDUAL_ACCEPT
        again = solve_prevertices_full(poly)
        assert np.array_equal(again.prevertices, z)


def sub_walk(poly, keep):
    """The walk through the nodes of poly at the indices keep."""
    return WalkPolygon(times=poly.times[keep], values=poly.values[keep], beta=poly.beta)


def test_warm_start_accepts_the_solution():
    poly = make_bridge_walk(3, 6, beta=0.6)
    sol = solve_prevertices_full(poly)
    assert sol.poly is poly
    warm = solve_prevertices_full(poly, initial_guess=sol)
    assert warm.iterations <= 2
    assert np.max(np.abs(warm.prevertices - sol.prevertices)) < 1e-9


def test_perturbed_start_reaches_the_same_solution():
    # start from the walk with every other node dropped: the dropped nodes
    # begin on its chords and their heights ramp up
    poly = make_bridge_walk(4, 6, beta=0.5)
    sol = solve_prevertices_full(poly)
    start = solve_prevertices_full(sub_walk(poly, slice(None, None, 2)))
    again = solve_prevertices_full(poly, initial_guess=start)
    assert np.max(np.abs(again.prevertices - sol.prevertices)) < 1e-6


def counted_calls(monkeypatch, name):
    """A list that gains one entry per call of scmap's function name."""
    calls, original = [], getattr(scmap, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(scmap, name, counted)
    return calls


def test_each_residual_builds_the_only_layout(monkeypatch):
    # the Jacobian takes the accepted residual's node layout, so a solve
    # builds one layout per residual evaluation and none for its Jacobians
    poly = make_bridge_walk(2, 8, beta=1.0)
    start = solve_prevertices_full(sub_walk(poly, slice(None, None, 2)))
    calls = counted_calls(monkeypatch, "_side_nodes")
    for guess in (None, start):
        calls.clear()
        sol = solve_prevertices_full(poly, initial_guess=guess)
        assert sol.iterations >= 1
        assert len(calls) == sol.residual_evals


def test_heads_are_looked_up_once_per_newton_solve_and_forward_map(monkeypatch):
    # every layout of a solve shares one exponent vector, so the solve
    # (and a forward map, however many points it takes) builds one plan
    # and looks the head rules up once; the one graded rule lays out every
    # residual's side integrals and every forward-map point's segment
    poly = make_bridge_walk(2, 8, beta=1.0)
    start = solve_prevertices_full(sub_walk(poly, slice(None, None, 2)))
    plans = counted_calls(monkeypatch, "_quadrature_plan")
    lookups = counted_calls(monkeypatch, "_gj_heads")
    rules = counted_calls(monkeypatch, "_graded_rule")
    for guess in (None, start):
        for calls in (plans, lookups, rules):
            calls.clear()
        sol = solve_prevertices_full(poly, initial_guess=guess)
        assert sol.residual_evals > 1
        assert len(plans) == len(lookups) == 1
        assert len(rules) == sol.residual_evals
    for calls in (plans, lookups, rules):
        calls.clear()
    points = np.linspace(0.0, 1.0, 7) - 0.1j
    sc_forward_map(sol, points)
    assert len(plans) == len(lookups) == 1
    assert len(rules) == 1 + len(points)


def test_stalled_warm_start_fails_after_one_newton_solve(monkeypatch):
    # Newton from the interpolated start stalls: its first gap is 4e-11,
    # the Newton step there is far too long, and no step length down to
    # 2^-24 lowers the residual; the solve fails at once, though a cold
    # solve of the same walk converges
    poly = make_bridge_walk(15, 6, beta=5.0)
    assert solve_prevertices_full(poly).residual_norm <= RESIDUAL_ACCEPT
    start = solve_prevertices_full(sub_walk(poly, [0, 1, 3, 4, 5, 6]))
    lookups = counted_calls(monkeypatch, "_gj_heads")
    with pytest.raises(ScSolverError) as exc:
        solve_prevertices_full(poly, initial_guess=start)
    assert exc.value.stop == "no_descent"
    assert len(lookups) == 1


def singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


def stop_case(stop, monkeypatch):
    """A walk whose cold solve misses RESIDUAL_ACCEPT, stopping for stop."""
    if stop == "crowded":
        monkeypatch.setattr(scmap.np.linalg, "solve", singular)
        return make_bridge_walk(2, 8, beta=1.0)
    if stop == "budget":
        monkeypatch.setattr(scmap, "NEWTON_BUDGET", 1)
        return make_bridge_walk(2, 8, beta=1.0)
    # stagnation stops after 11 iterations and 56 residuals at 1.141e-03,
    # no_descent after 9 and 37 at 3.413e-06
    return make_bridge_walk({"stagnation": 0, "no_descent": 1}[stop], 12, beta=3.0)


@pytest.mark.parametrize("stop", ["stagnation", "no_descent", "crowded", "budget"])
def test_a_missed_solve_carries_its_record(stop, monkeypatch):
    poly = stop_case(stop, monkeypatch)
    evals = counted_calls(monkeypatch, "_side_nodes")
    with pytest.raises(ScSolverError) as info:
        solve_prevertices_full(poly)
    exc = info.value
    assert exc.stop == stop
    assert exc.residual_evals == len(evals)
    assert exc.iterations >= 1
    assert exc.residual_norm > RESIDUAL_ACCEPT
    assert str(exc) == (f"side-length solve stalled ({exc.stop}) "
                        f"at relative residual {exc.residual_norm:.3e}")


def test_vertex_cap_raises():
    with pytest.raises(ValueError, match=f"caps at {MAX_VERTICES}"):
        solve_prevertices_full(make_bridge_walk(0, MAX_VERTICES, beta=0.1))


@pytest.mark.filterwarnings("error")
def test_unsorted_guess_raises():
    poly = make_bridge_walk(5, 4, beta=0.3)
    sol = solve_prevertices_full(poly)
    bad = dataclasses.replace(sol, prevertices=np.array([0.0, 0.6, 0.4, 0.8, 1.0]))
    with pytest.raises(ScSolverError, match="not strictly increasing") as exc:
        solve_prevertices_full(poly, initial_guess=bad)
    assert exc.value.stop is None
    # a sorted start whose first gap is too small to lay out is unevaluable
    tiny = dataclasses.replace(sol, prevertices=np.array([0.0, 1e-310, 0.4, 0.8, 1.0]))
    with pytest.raises(ScSolverError, match="degenerate panel") as exc:
        solve_prevertices_full(poly, initial_guess=tiny)
    assert exc.value.stop is None
    # a start walk must not have a node the target lacks
    with pytest.raises(ValueError, match="nodes"):
        solve_prevertices_full(sub_walk(poly, [0, 1, 3, 4]), initial_guess=sol)


# ---------------------------------------------------------------------------
# Perturbative solver


def test_perturbative_is_exact_for_flat_walks():
    t = np.linspace(0.0, 1.0, 7)
    sol = solve_prevertices_perturbative(flat_polygon(t))
    assert np.array_equal(sol.prevertices, np.sin(0.5 * np.pi * t) ** 2)


def test_perturbative_pins_endpoint_prevertices_exactly():
    for seed in range(10):
        poly = make_bridge_walk(seed, 8, beta=0.04)
        z = solve_prevertices_perturbative(poly).prevertices
        assert z[0] == 0.0
        assert z[-1] == 1.0


def test_perturbative_correction_is_linear_in_amplitude():
    walk = make_bridge_walk(6, 8, beta=1.0)
    t = walk.times
    z0 = np.sin(0.5 * np.pi * t) ** 2

    def corr(beta):
        poly = WalkPolygon(times=t, values=walk.values, beta=beta)
        return solve_prevertices_perturbative(poly).prevertices - z0

    assert np.allclose(corr(0.02), 2.0 * corr(0.01), rtol=1e-12, atol=1e-16)
    # flipping the walk flips the first-order correction
    flipped = WalkPolygon(times=t, values=-walk.values, beta=0.01)
    assert np.allclose(solve_prevertices_perturbative(flipped).prevertices - z0,
                       -corr(0.01), rtol=1e-12, atol=1e-16)


def test_perturbative_agrees_with_full_at_small_amplitude():
    beta = 1e-2
    for seed in range(4):
        poly = make_bridge_walk(seed, 8, beta=beta)
        z_full = solve_prevertices_full(poly).prevertices
        z_pert = solve_prevertices_perturbative(poly).prevertices
        assert np.max(np.abs(z_full - z_pert)) < 50.0 * beta ** 2


def test_perturbative_residual_check_fills_norm():
    # the perturbative solver leaves residual_norm nan; the full solver's
    # side-length residual checks its pre-vertices instead
    poly = make_bridge_walk(2, 6, beta=0.02)
    sol = solve_prevertices_perturbative(poly)
    assert math.isnan(sol.residual_norm)
    p = turning_angles(poly)[:-1] - 1.0
    targets = poly.edge_lengths() / poly.edge_lengths().sum()
    _, rel, _ = scmap._side_residual(sol.prevertices, p, scmap._quadrature_plan(p), targets)
    assert rel < 1e-2


def test_perturbative_kernel_peaks_near_half_a_kilobyte_per_edge_squared():
    # the n x n kernel is expanded by the GJ_POINTS nodes of lam_log_sin;
    # 522 B x n^2 at 12 nodes, 1,002 at 24
    n = 256
    poly = make_bridge_walk(4, n, beta=0.1)
    tracemalloc.start()
    try:
        solve_prevertices_perturbative(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600 * n * n


def test_full_solver_reports_a_vertex_angle_that_rounds_to_zero():
    # atan(2e20) / pi rounds to 1/2: the spike's angle is 0, its exponent
    # -1, and no Gauss-Jacobi rule exists for it
    poly = WalkPolygon(times=[0.0, 0.5, 1.0], values=[0.0, 1.0, 0.0], beta=1e20)
    with pytest.raises(ScSolverError, match="rounds to 0") as exc:
        solve_prevertices_full(poly)
    assert exc.value.stop is None


def test_perturbative_walk_past_edge_cap_raises_before_allocating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the cap must stop the solve before its kernel")

    n = MAX_PERTURBATIVE_EDGES + 1
    poly = WalkPolygon(times=np.arange(n + 1) / n, values=np.zeros(n + 1))
    monkeypatch.setattr(scmap, "lam_log_sin", never)
    with pytest.raises(ValueError, match=f"caps at {MAX_PERTURBATIVE_EDGES}"):
        solve_prevertices_perturbative(poly)
    small = WalkPolygon(times=np.linspace(0.0, 1.0, 4), values=np.zeros(4))
    with pytest.raises(AssertionError, match="kernel"):
        solve_prevertices_perturbative(small)


# ---------------------------------------------------------------------------
# Forward map


def test_flat_map_is_scaled_arcsine():
    t = np.linspace(0.0, 1.0, 6)
    sol = solve_prevertices_full(flat_polygon(t))
    xs = np.linspace(0.02, 0.98, 50)
    w = sc_forward_map(sol, xs)
    assert np.max(np.abs(w - (2.0 / np.pi) * np.arcsin(np.sqrt(xs)))) < 1e-10


def test_flat_map_continues_into_the_lower_halfplane():
    sol = solve_prevertices_full(flat_polygon(np.linspace(0.0, 1.0, 5)))
    zs = np.array([0.5 - 0.3j, 0.2 - 0.05j, 0.9 - 1.2j])
    ref = (2.0 / np.pi) * np.arcsin(np.sqrt(zs))
    assert np.max(np.abs(sc_forward_map(sol, zs) - ref)) < 1e-10
    for z in (0.5 + 0.1j, np.array([0.5 - 0.3j, 0.2 + 1e-6j])):
        with pytest.raises(ValueError, match="lower half-plane"):
            sc_forward_map(sol, z)


def test_map_endpoints_are_exact():
    sol = solve_prevertices_full(make_bridge_walk(1, 5, beta=0.4))
    assert sc_forward_map(sol, 0.0) == 0.0
    assert abs(sc_forward_map(sol, 1.0) - 1.0) < 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(walks(st.integers(2, 8), st.floats(0.0, 1.0)))
def test_prevertices_map_to_walk_vertices(poly):
    # each image integrates from the nearest pre-vertex along the x2 rule
    sol = solve_prevertices_full(poly)
    imgs = sc_forward_map(sol, sol.prevertices)
    assert np.max(np.abs(imgs - (poly.times + 1j * poly.scaled_values()))) < 1e-9


def test_real_points_land_on_their_edges():
    # x sits nearer z_{k+1} than z_k, so the map anchors it at z_{k+1}
    for seed in range(3):
        poly = make_bridge_walk(seed, 6, beta=0.5)
        sol = solve_prevertices_full(poly)
        z, w = sol.prevertices, poly.times + 1j * poly.scaled_values()
        x = z[:-1] + 0.9 * np.diff(z)
        img = sc_forward_map(sol, x)
        edge = np.diff(w)
        s = np.clip(((img - w[:-1]) * np.conj(edge)).real / np.abs(edge) ** 2, 0.0, 1.0)
        assert np.max(np.abs(img - (w[:-1] + s * edge))) < 1e-9


def test_map_preserves_input_shape():
    sol = solve_prevertices_full(flat_polygon([0.0, 0.5, 1.0]))
    assert np.isscalar(sc_forward_map(sol, 0.25)) or \
        isinstance(sc_forward_map(sol, 0.25), complex)
    out = sc_forward_map(sol, np.array([[0.2, 0.4], [0.6, 0.8]]))
    assert out.shape == (2, 2)


# ---------------------------------------------------------------------------
# Helpers


def test_log_sine_integral_against_quadrature():
    assert abs(lam_log_sin(np.array([1.0]))[0] - LAM_ONE) < 1e-12
    for x in (0.3, 0.8, 1.0, 1.6, 2.0):
        want, _ = quad(lambda u: math.log(abs(math.sin(math.pi * u / 2.0))), 0.0, x)
        assert abs(lam_log_sin(np.array([x]))[0] - want) < 1e-10
        assert abs(lam_log_sin(np.array([-x]))[0] + want) < 1e-10
    assert lam_log_sin(np.array([0.0]))[0] == 0.0
    with pytest.raises(ValueError):
        lam_log_sin(np.array([2.5]))
