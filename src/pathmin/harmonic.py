"""Harmonic-measure edge weights and measure-guided bisection search.

The weight of a walk edge is the probability that Brownian motion started
deep below the walk graph (with reflecting vertical walls at t = 0 and
t = 1) first hits the graph on that edge.  Conformally this is the
arcsine measure of the edge's pre-vertex interval, which the guided
search uses to decide which edge to bisect next.  mc_hitting_oracle
estimates the same weights by walk-on-spheres simulation, exact in law up
to its absorption shell, and serves as the ground truth for the analytic
route.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .paths import as_oracle, cauchy_from_uniform
from .report import SearchReport, write_csv
from .scmap import (MAX_PERTURBATIVE_EDGES, MAX_VERTICES, ScSolverError, WalkPolygon,
                    solve_prevertices_full, solve_prevertices_perturbative)

MAX_WALKER_EDGES = 2 ** 24   # oracle walkers x edges per round; peak about 50 B per walker
NEAREST_BLOCK = 2 ** 16      # walker-edges per distance chunk of the oracle
MAX_WALK_ROUNDS = 1_000_000  # oracle rounds before surviving walkers raise
# pre-vertex solver -> the longest walk it takes in edges, its largest search budget
SOLVER_EDGES = {"full": MAX_VERTICES - 1, "perturbative": MAX_PERTURBATIVE_EDGES}


def _edge_weights(z: np.ndarray) -> np.ndarray:
    """Arcsine measure of each pre-vertex interval of z, renormalised to sum to one.

    weight_k = (2 / pi) * (asin sqrt(z_{k+1}) - asin sqrt(z_k)); pre-vertices
    that are not strictly increasing, NaN among them, raise ScSolverError.
    """
    if not np.all(np.diff(z) > 0.0):
        raise ScSolverError("pre-vertices out of order; amplitude too large "
                            "for the chosen solver")
    w = (2.0 / np.pi) * np.diff(np.arcsin(np.sqrt(z)))
    return w / w.sum()


def _solve(poly: WalkPolygon, solver: str, warm=None):
    """Pre-vertices of poly by a solver of SOLVER_EDGES; only 'full' starts from warm."""
    if solver == "full":
        return solve_prevertices_full(poly, initial_guess=warm)
    if solver == "perturbative":
        return solve_prevertices_perturbative(poly)
    raise ValueError(f"unknown solver '{solver}'")


def edge_measures(poly: WalkPolygon, solver: str = "full") -> np.ndarray:
    """Harmonic-measure weight of each walk edge seen from deep below.

    Returns the n edge weights, non-negative and summing to one: the
    arcsine measures (_edge_weights) of the pre-vertices of a cold solve by
    solver, a key of SOLVER_EDGES.  Raises ValueError for an unknown solver
    or a walk past its cap, ScSolverError for a failed solve or pre-vertices
    out of order.
    """
    return _edge_weights(_solve(poly, solver).prevertices)


@dataclass
class HmcParams:
    beta: float = 1.0
    # strategy and seed stay only because perfbench/workloads.py passes them;
    # the search reads no seed, and ROADMAP item 1 drops both fields
    strategy: str = "max_measure"
    solver: str = "full"
    seed: int = 0


def harmonic_bisection_search(path, budget: int, params: HmcParams | None = None) -> SearchReport:
    """Bisect the edge carrying the most harmonic measure until out of budget.

    The path must be pinned (values exactly 0 at both endpoints, checked
    before any other query).  Each round queries t, starting at 1/2, and
    stops after budget midpoints.  Otherwise it solves the pre-vertices of
    the walk through every queried point at amplitude params.beta with
    params.solver, weighs its edges and takes the next t at the midpoint
    of the heaviest edge, the lowest one on ties.  Nothing is drawn, so the
    midpoints depend only on the path and params.  The full solver starts
    from the last solution it found, which a failed round keeps; a failed
    solve, one Newton solve that missed, gives uniform weights, counted in
    report.params['fallbacks'].  Queries = budget + 2.  report.params
    holds budget, beta, solver, fallbacks and 'midpoints', the queried
    times in order; report.method is 'harmonic'.
    A budget past the solver's SOLVER_EDGES entry (the last walk has budget
    edges), a solver not in SOLVER_EDGES, a strategy other than
    'max_measure', or a beta that is not finite and >= 0 raises ValueError
    before any query.
    """
    params = params or HmcParams()
    cap = SOLVER_EDGES.get(params.solver)
    if cap is None:
        raise ValueError(f"unknown solver '{params.solver}'")
    if params.strategy != "max_measure":
        raise ValueError(f"unknown strategy '{params.strategy}'")
    if not 0.0 <= params.beta < np.inf:
        raise ValueError(f"beta must be finite and >= 0, got {params.beta}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > cap:
        raise ValueError(f"budget {budget} needs walks of up to {budget + 1} vertices; "
                         f"the {params.solver} solver caps at {cap + 1}")
    fn = as_oracle(path)
    t0 = time.perf_counter()
    v0, v1 = fn(0.0), fn(1.0)
    if v0 != 0.0 or v1 != 0.0:
        raise ValueError("harmonic bisection needs a pinned path "
                         "(exactly zero at both endpoints)")
    times = [0.0, 1.0]
    values = [v0, v1]
    midpoints = []
    fallbacks = 0
    warm = None
    k, t = 0, 0.5   # t is the midpoint of edge k, so it goes in at index k + 1
    while True:
        times.insert(k + 1, t)
        values.insert(k + 1, fn(t))
        midpoints.append(t)
        if len(midpoints) == budget:
            break
        poly = WalkPolygon(times=np.array(times), values=np.array(values), beta=params.beta)
        try:
            sol = _solve(poly, params.solver, warm)
            weights = _edge_weights(sol.prevertices)
            warm = sol
        except ScSolverError:
            weights = np.full(poly.n_edges, 1.0 / poly.n_edges)
            fallbacks += 1
        k = int(np.argmax(weights))
        t = 0.5 * (times[k] + times[k + 1])

    vals = np.array(values)
    best = int(np.argmin(vals))
    elapsed = time.perf_counter() - t0
    return SearchReport(
        argmin_t=float(times[best]), min_value=float(vals[best]),
        queries=budget + 2, wall_time=elapsed, method="harmonic",
        params={"budget": budget, "beta": params.beta, "solver": params.solver,
                "fallbacks": fallbacks, "midpoints": midpoints})


# ---------------------------------------------------------------------------
# Monte-Carlo hitting oracle


def _nearest_edge(x, y, t, yb, u, v, dt):
    """Each point's distance to the walk (t, yb) and, for points within dt, its nearest edge.

    Returns (edge, r).  r is the square root of each point's least squared
    distance, which equals the least root because sqrt is monotone and
    correctly rounded.  edge is the argmin of the roots, ties to the lowest
    edge, where r < dt, and -1 elsewhere: only the oracle's absorbed walkers
    need it.  Squared distances lie (edges, points) in the flat buffers u
    and v, len(u) // edges points at a time, so that every inner loop runs
    along points.
    """
    ax, ay = t[:-1, None], yb[:-1, None]
    dx, dy = t[1:, None] - ax, yb[1:, None] - ay
    n, step = len(ax), len(u) // len(ax)
    edge, r = np.full(len(x), -1, dtype=np.intp), np.empty(len(x))
    for s in range(0, len(x), step):
        px, py = x[s:s + step], y[s:s + step]
        k = len(px)
        d, e = u[:n * k].reshape(n, k), v[:n * k].reshape(n, k)
        np.subtract(px, ax, out=d)
        d *= dx
        np.subtract(py, ay, out=e)
        e *= dy
        d += e
        d /= dx * dx + dy * dy
        np.clip(d, 0.0, 1.0, out=d)
        np.multiply(d, dx, out=e)
        e += ax
        np.subtract(px, e, out=e)
        e *= e
        d *= dy
        d += ay
        np.subtract(py, d, out=d)
        d *= d
        d += e
        rs = r[s:s + step]
        d.min(axis=0, out=rs)
        np.sqrt(rs, out=rs)
        near = np.flatnonzero(rs < dt)
        if len(near):
            edge[s + near] = np.sqrt(d[:, near]).argmin(axis=0)
    return edge, r


def _fold(x):
    """Period-2 reflection of the real line onto [0, 1], in place; returns x.

    Bit for bit 1 - |1 - mod(x, 2)|: mod is applied only outside [0, 2),
    since inside it is the identity (fmod is exact there and needs no sign
    fix; -0 becomes +0 either way after the reflection).
    """
    out = np.flatnonzero((x < 0.0) | (x >= 2.0))
    x[out] = np.mod(x[out], 2.0)
    np.subtract(1.0, x, out=x)
    np.abs(x, out=x)
    np.subtract(1.0, x, out=x)
    return x


def _circle_step(x, y, r, tau):
    """Move each point (x, y) by r along the unit vector at angle 2 atan(tau), in place.

    That vector is ((1 - tau^2), 2 tau) / (1 + tau^2), the tangent half-angle
    form of (cos, sin), so a standard Cauchy tau gives an angle uniform on
    (-pi, pi) without a cos or sin call.  r and tau are overwritten.
    """
    t2 = tau * tau
    tau *= r
    tau += tau
    r *= 1.0 - t2
    t2 += 1.0
    r /= t2
    x += r
    tau /= t2
    y += tau


def mc_hitting_oracle(poly: WalkPolygon, walkers: int = 100_000, dt: float = 1e-4, *,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the edge hitting weights by walk-on-spheres, every draw from rng.

    The horizontal coordinate lives on the whole line and is folded onto
    [0, 1] by the period-2 reflection, which realises the reflecting walls
    exactly in law; every mirror image of the graph lies farther from a
    folded point than the graph itself.  Below the graph's lowest height
    y_min the domain is a free half-plane, so a walker there jumps straight
    to its exact re-entry point on the line y = y_min, whose horizontal
    offset is Cauchy with the current depth as scale.  Walkers start on
    that line at x uniform on [0, 2), the exact law of a start infinitely
    deep.  Above it a walker jumps to a uniform point on the circle whose
    radius is its distance to the graph (Muller 1956), which is exact in
    law.  Both draws take one uniform each through the Cauchy inverse CDF
    (cauchy_from_uniform): the re-entry offset is that draw times the
    depth, and the circle point is at twice its arctangent (_circle_step).
    A walker within `dt` of the graph is absorbed on its nearest
    edge, the lowest of tied edges; this absorption shell is the only
    source of bias.  Each round finds every walker's distance but the
    nearest edge only of the absorbed ones (_nearest_edge).  Memory peaks
    near 50 B per walker, plus 1 MiB for squared distances, taken
    NEAREST_BLOCK walker-edges at a time.

    dt must also be below half the walk's shortest edge.  An absorption
    disc then has a diameter below every edge's length, so it never covers
    a whole edge and the shell is finer than every feature of the walk.  A
    wider shell credits walkers far off the graph to whichever edge is
    nearest; dt = 1e300 absorbs every walker where it starts.

    Returns (weights, stderr): each edge's share of the walkers and its
    binomial standard error.  Raises ValueError, before drawing anything,
    when walkers < 1, walkers x edges > MAX_WALKER_EDGES or dt is not
    finite, positive and below half the shortest edge, and RuntimeError if
    any walker survives MAX_WALK_ROUNDS rounds.
    """
    if walkers < 1:
        raise ValueError("need at least one walker")
    if walkers * poly.n_edges > MAX_WALKER_EDGES:
        raise ValueError(f"{walkers} walkers on {poly.n_edges} edges exceed the oracle's "
                         f"limit of {MAX_WALKER_EDGES} walker-edges")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    half_edge = 0.5 * poly.edge_lengths().min()
    if not dt < half_edge:
        raise ValueError(f"dt must be below half the walk's shortest edge "
                         f"({half_edge:.6g}), got {dt}")
    t = poly.times
    yb = poly.scaled_values()
    n = poly.n_edges
    y_min = float(yb.min())
    u, v = np.empty((2, n * min(walkers, max(1, NEAREST_BLOCK // n))))

    x = _fold(2.0 * rng.random(walkers))
    y = np.full(walkers, y_min)
    counts = np.zeros(n, dtype=np.int64)
    rounds = 0
    while len(x):
        if rounds >= MAX_WALK_ROUNDS:
            raise RuntimeError(
                f"{len(x)} walkers still alive after {MAX_WALK_ROUNDS} rounds; "
                f"deepest at y = {float(y.min()):.3g}")
        rounds += 1
        edge, r = _nearest_edge(x, y, t, yb, u, v, dt)
        hit = r < dt
        counts += np.bincount(edge[hit], minlength=n)
        live = ~hit
        del edge   # this and the del below keep the peak near 50 B per walker
        x, y, r = x[live], y[live], r[live]
        tau = cauchy_from_uniform(rng.random(len(x)))
        _circle_step(x, y, r, tau)
        deep = np.flatnonzero(y < y_min)
        # the offsets' uniforms reuse tau's buffer; rng.random(out=) draws as rng.random(k)
        offset = cauchy_from_uniform(rng.random(out=tau[:len(deep)]))
        x[deep] += (y_min - y[deep]) * offset
        y[deep] = y_min
        _fold(x)
        del tau, deep, offset

    w = counts / float(walkers)
    return w, np.sqrt(w * (1.0 - w) / walkers)


def save_measures_csv(
    times: np.ndarray,
    weights: np.ndarray,
    out_path: str,
    oracle: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """Write 'k,t_left,t_right,weight' rows, k counting from 1.

    times holds the walk's n + 1 node times and weights its n edge weights.
    When an ``oracle`` pair (mc_weight, mc_stderr) is given, a Monte-Carlo
    estimate over the same edges as mc_hitting_oracle returns it, those two
    columns are appended per row.
    """
    if len(times) != len(weights) + 1:
        raise ValueError("a walk of n edges needs n + 1 times")
    if oracle is not None and len(oracle[0]) != len(weights):
        raise ValueError("oracle edge count does not match the measure")
    header = ["k", "t_left", "t_right", "weight"]
    cols = [range(1, len(weights) + 1), times[:-1], times[1:], weights]
    if oracle is not None:
        header += ["mc_weight", "mc_stderr"]
        cols += oracle
    write_csv(out_path, header, zip(*cols))
