"""Harmonic-measure edge weights and measure-guided bisection search.

The weight of a walk edge is the probability that Brownian motion started
deep below the walk graph (with reflecting vertical walls at t = 0 and
t = 1) first hits the graph on that edge.  Conformally this is the
arcsine measure of the edge's pre-vertex interval, which the guided
search uses to decide which edge to bisect next.  mc_hitting_oracle
estimates the same weights by direct walker simulation and serves as the
ground truth for the analytic route.
"""
from __future__ import annotations

import bisect
import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from .paths import as_oracle
from .report import SearchReport
from .rng import make_rng
from .scmap import (MAX_VERTICES, ScSolverError, WalkPolygon,
                    solve_prevertices_full, solve_prevertices_perturbative)

# endpoint values this close to zero still count as pinned
PIN_TOL = 1e-12


@dataclass(frozen=True)
class EdgeMeasures:
    """Per-edge hitting weights of a walk polygon.

    times holds the n + 1 node times; weights the n edge probabilities,
    non-negative and summing to one.  stderr is filled by the Monte-Carlo
    oracle and left None by the analytic solvers.
    """

    times: np.ndarray
    weights: np.ndarray
    stderr: np.ndarray | None = None


def _measures_from_solution(poly, sol) -> EdgeMeasures:
    z = sol.prevertices
    if np.any(np.diff(z) <= 0.0):
        raise ScSolverError("pre-vertices out of order; amplitude too large "
                            "for the chosen solver")
    w = (2.0 / np.pi) * np.diff(np.arcsin(np.sqrt(np.clip(z, 0.0, 1.0))))
    if np.any(w < 0.0):
        raise ScSolverError("negative edge weight from pre-vertex solve")
    w = w / w.sum()
    return EdgeMeasures(times=poly.times.copy(), weights=w)


def edge_measures(poly: WalkPolygon, solver: str = "full",
                  initial_guess: np.ndarray | None = None) -> EdgeMeasures:
    """Harmonic-measure weight of each walk edge seen from deep below.

    weight_k = (2 / pi) * (asin sqrt(z_{k+1}) - asin sqrt(z_k)) over the
    solved pre-vertices, renormalised against float drift.  solver picks
    the pre-vertex solve: 'full' (optionally warm-started from
    initial_guess) or 'perturbative'.  Raises ScSolverError if the solve
    fails or yields out-of-order pre-vertices.
    """
    if solver == "full":
        sol = solve_prevertices_full(poly, initial_guess=initial_guess)
    elif solver == "perturbative":
        sol = solve_prevertices_perturbative(poly)
    else:
        raise ValueError(f"unknown solver '{solver}'")
    return _measures_from_solution(poly, sol)


def choose_edge(measures: EdgeMeasures, params: HmcParams, rng=None) -> int:
    """Pick an edge index (0-based) from the weights.

    'max_measure' takes the argmax, lowest index on ties; 'sample_measure'
    draws one edge from the weight distribution using `rng`.
    """
    w = measures.weights
    if params.strategy == "max_measure":
        return int(np.argmax(w))
    if params.strategy == "sample_measure":
        if rng is None:
            raise ValueError("sample_measure needs an rng")
        u = float(rng.random())
        k = int(np.searchsorted(np.cumsum(w), u * np.sum(w), side="right"))
        return min(k, len(w) - 1)
    raise ValueError(f"unknown strategy '{params.strategy}'")


@dataclass
class HmcParams:
    beta: float = 1.0
    strategy: str = "max_measure"
    solver: str = "full"
    seed: int = 0


def harmonic_bisection_search(path, budget: int, params: HmcParams | None = None) -> SearchReport:
    """Bisect the edge carrying the most harmonic measure until out of budget.

    The path must be pinned (values 0 at both endpoints).  The first budget
    unit always queries t = 1/2; each later round rebuilds the walk polygon
    from every queried point at amplitude params.beta, weights its edges,
    picks one by params.strategy and queries that edge's midpoint.  A
    pre-vertex solve failure downgrades the round to uniform weights; such
    rounds are counted in report.params['fallbacks'].  Total oracle
    queries = budget + 2 (the two endpoints plus one query per budget
    unit); report.params['midpoints'] lists the queried times in order.
    The last round's walk has budget + 1 vertices, so the full solver
    takes budgets below MAX_VERTICES only; larger ones raise ValueError.
    """
    params = params or HmcParams()
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if params.solver == "full" and budget >= MAX_VERTICES:
        raise ValueError(f"budget {budget} needs walks of up to {budget + 1} vertices; "
                         f"the full solver caps at {MAX_VERTICES}, so use a budget "
                         f"below {MAX_VERTICES} or solver 'perturbative'")
    fn = as_oracle(path)
    t0 = time.perf_counter()
    v0 = fn(0.0)
    v1 = fn(1.0)
    if abs(v0) > PIN_TOL or abs(v1) > PIN_TOL:
        raise ValueError("harmonic bisection needs a pinned path "
                         "(zero at both endpoints)")
    times = [0.0, 1.0]
    values = [v0, v1]
    rng = make_rng(params.seed)
    midpoints = []

    def insert(t: float) -> float:
        v = fn(t)
        i = bisect.bisect_left(times, t)
        times.insert(i, t)
        values.insert(i, v)
        midpoints.append(t)
        return v

    insert(0.5)
    used = 1
    fallbacks = 0
    warm: tuple[np.ndarray, np.ndarray] | None = None
    while used < budget:
        poly = WalkPolygon(times=np.array(times), values=np.array(values),
                           beta=params.beta)
        guess = None
        if warm is not None and params.solver == "full" and params.beta != 0.0:
            # warm start: carry the previous round's pre-vertices over,
            # placing the new node by monotone interpolation.  Skipped for a
            # flat boundary, where the default arcsine start is already exact
            # and keeps equal-width edge ties exact for the argmax rule.
            guess = np.interp(poly.times, warm[0], warm[1])
        try:
            if params.solver == "full":
                sol = solve_prevertices_full(poly, initial_guess=guess)
                em = _measures_from_solution(poly, sol)
                warm = (poly.times.copy(), sol.prevertices.copy())
            else:
                em = edge_measures(poly, solver=params.solver)
        except ScSolverError:
            n = poly.n_edges
            em = EdgeMeasures(times=poly.times, weights=np.full(n, 1.0 / n))
            fallbacks += 1
            warm = None
        k = choose_edge(em, params, rng)
        insert(0.5 * (times[k] + times[k + 1]))
        used += 1

    vals = np.array(values)
    best = int(np.argmin(vals))
    elapsed = time.perf_counter() - t0
    return SearchReport(
        argmin_t=float(times[best]), min_value=float(vals[best]),
        queries=budget + 2, wall_time=elapsed, method="harmonic-bisection",
        params={"budget": budget, "beta": params.beta, "strategy": params.strategy,
                "solver": params.solver, "fallbacks": fallbacks,
                "midpoints": midpoints},
        seed=params.seed)


# ---------------------------------------------------------------------------
# Monte-Carlo hitting oracle


def _extended_boundary(poly: WalkPolygon):
    """Period-2 reflection of the walk graph across the walls.

    Returns (breaks, y_start, slopes, edge_ids) for the 2n pieces covering
    one period [0, 2): piece p starts at x = breaks[p] with height
    y_start[p] and maps back to walk edge edge_ids[p].
    """
    t = poly.times
    y = poly.scaled_values()
    n = poly.n_edges
    slopes = np.diff(y) / np.diff(t)
    breaks = np.concatenate([t[:-1], 2.0 - t[::-1][:n]])
    y_start = np.concatenate([y[:-1], y[::-1][:n]])
    sl = np.concatenate([slopes, -slopes[::-1]])
    edge_ids = np.concatenate([np.arange(n), np.arange(n - 1, -1, -1)])
    return breaks, y_start, sl, edge_ids


def _point_segment_distance(px, py, ax, ay, bx, by):
    """Vectorised distance from points (px, py) to segments (a, b)."""
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    tpar = ((px[:, None] - ax) * dx + (py[:, None] - ay) * dy) / denom
    tpar = np.clip(tpar, 0.0, 1.0)
    cx = ax + tpar * dx
    cy = ay + tpar * dy
    return np.sqrt((px[:, None] - cx) ** 2 + (py[:, None] - cy) ** 2)


def mc_hitting_oracle(poly: WalkPolygon, walkers: int = 100_000, dt: float = 1e-4,
                      depth: float = 10.0, seed: int = 0,
                      max_rounds: int = 1_000_000) -> EdgeMeasures:
    """Estimate the edge hitting weights by simulating reflected walkers.

    Walkers start at (1/2, min graph height - depth); the horizontal
    coordinate lives on the whole line and is folded by the period-2
    reflection of the boundary, which realises the reflecting walls
    exactly in law.  Below the graph's lowest height the domain is a free
    half-plane, so a walker there jumps straight to its exact re-entry
    point on that height line, whose horizontal offset is Cauchy with the
    current depth as scale.  Above it walkers take Gaussian steps whose
    variance grows as (distance to the graph / 5)^2 down to the floor
    `dt`, with a Brownian-bridge crossing correction that removes the
    leading discrete-monitoring bias.  A walker is absorbed on the first
    edge its step chord (or bridge excursion) crosses.

    Returns EdgeMeasures with binomial standard errors.  Raises
    RuntimeError if any walker survives max_rounds rounds.
    """
    if walkers < 1:
        raise ValueError("need at least one walker")
    if dt <= 0.0 or depth <= 0.0:
        raise ValueError("dt and depth must be positive")
    t = poly.times
    yb = poly.scaled_values()
    n = poly.n_edges
    y_min = float(yb.min())
    breaks, py0, sl, edge_ids = _extended_boundary(poly)
    # segment endpoints in folded coordinates, for exact distances
    ax, ay = t[:-1], yb[:-1]
    bx, by = t[1:], yb[1:]

    rng = make_rng(seed)
    xu = np.full(walkers, 0.5)
    y = np.full(walkers, y_min - depth)
    counts = np.zeros(n, dtype=np.int64)

    def boundary_height(x):
        m, frac = np.divmod(x, 2.0)
        p = np.searchsorted(breaks, frac, side="right") - 1
        return py0[p] + sl[p] * (frac - breaks[p]), p + 2 * n * m.astype(np.int64)

    rounds = 0
    while len(xu):
        if rounds >= max_rounds:
            raise RuntimeError(
                f"{len(xu)} walkers still alive after {max_rounds} rounds; "
                f"deepest at y = {float(y.min()):.3g}")
        rounds += 1
        hit_edge = np.full(len(xu), -1, dtype=np.int64)

        deep = y < y_min
        if np.any(deep):
            di = np.nonzero(deep)[0]
            jump = (y_min - y[di]) * rng.standard_cauchy(len(di))
            xland = np.mod(xu[di] + jump, 2.0)
            xu[di] = xland
            y[di] = y_min
            bh, gp = boundary_height(xland)
            on = bh <= y_min   # the boundary only touches the line at its minima
            if np.any(on):
                hit_edge[di[on]] = edge_ids[gp[on] % (2 * n)]

        live = hit_edge < 0
        step = np.full(len(xu), dt)
        if np.any(live):
            li = np.nonzero(live)[0]
            pxf = np.abs(np.mod(xu[li], 2.0))
            pxf = np.where(pxf > 1.0, 2.0 - pxf, pxf)
            seg_d = _point_segment_distance(pxf, y[li], ax, ay, bx, by)
            step[li] = np.maximum(dt, (seg_d.min(axis=1) / 5.0) ** 2)
        sqs = np.sqrt(step)
        noise = rng.standard_normal((2, len(xu)))
        u_bridge = rng.random(len(xu))
        xu2 = np.where(live, xu + sqs * noise[0], xu)
        y2 = np.where(live, y + sqs * noise[1], y)

        test = live & (np.maximum(y, y2) >= y_min - 4.0 * sqs)
        if np.any(test):
            ti = np.nonzero(test)[0]
            hx0, hy0 = xu[ti], y[ti]
            hx1, hy1 = xu2[ti], y2[ti]
            gb0, gp0 = boundary_height(hx0)
            gb1, gp1 = boundary_height(hx1)
            span = gp1 - gp0
            sgn = np.sign(span).astype(np.int64)
            abs_span = np.abs(span)
            alive = np.ones(len(ti), dtype=bool)
            # sweep the boundary pieces under each chord in travel order; a
            # walker starts below, so it crosses inside the first piece whose
            # exit point sits on or above the boundary
            for j in range(int(abs_span.max()) + 1):
                active = alive & (j <= abs_span)
                if not np.any(active):
                    break
                cur = gp0 + sgn * j
                per, frac_idx = np.divmod(cur, 2 * n)
                exit_x = np.where(sgn >= 0,
                                  2.0 * per + breaks[np.minimum(frac_idx + 1, 2 * n - 1)],
                                  2.0 * per + breaks[frac_idx])
                exit_x = np.where((sgn >= 0) & (frac_idx == 2 * n - 1),
                                  2.0 * (per + 1), exit_x)
                last = j == abs_span
                with np.errstate(divide="ignore", invalid="ignore"):
                    sig_exit = np.where(last | (hx1 == hx0), 1.0,
                                        (exit_x - hx0) / (hx1 - hx0))
                sig_exit = np.clip(sig_exit, 0.0, 1.0)
                ex = hx0 + sig_exit * (hx1 - hx0)
                ey = hy0 + sig_exit * (hy1 - hy0)
                gb_e = py0[frac_idx] + sl[frac_idx] * (ex - (2.0 * per + breaks[frac_idx]))
                crossed = active & (ey - gb_e >= 0.0)
                if np.any(crossed):
                    hit_edge[ti[crossed]] = edge_ids[frac_idx[crossed]]
                    alive &= ~crossed
            # Brownian-bridge correction for chords that stayed below: the
            # excursion may still have touched the boundary.  The endpoint
            # gaps are perpendicular distances to each endpoint's own piece,
            # which makes the correction exact for single-piece chords.
            rem = np.nonzero(alive)[0]
            if len(rem):
                fr0 = np.mod(gp0[rem], 2 * n)
                fr1 = np.mod(gp1[rem], 2 * n)
                dp0 = (gb0[rem] - hy0[rem]) / np.sqrt(1.0 + sl[fr0] ** 2)
                dp1 = (gb1[rem] - hy1[rem]) / np.sqrt(1.0 + sl[fr1] ** 2)
                p_cross = np.exp(-2.0 * dp0 * dp1 / step[ti[rem]])
                bridged = u_bridge[ti[rem]] < p_cross
                edge_b = np.where(dp0 <= dp1, edge_ids[fr0], edge_ids[fr1])
                if np.any(bridged):
                    hit_edge[ti[rem[bridged]]] = edge_b[bridged]

        hits = hit_edge >= 0
        if np.any(hits):
            counts += np.bincount(hit_edge[hits], minlength=n)
        keep = ~hits
        xu = xu2[keep]
        y = y2[keep]

    w = counts / float(walkers)
    stderr = np.sqrt(w * (1.0 - w) / walkers)
    return EdgeMeasures(times=t.copy(), weights=w, stderr=stderr)


def save_measures_csv(
    em: EdgeMeasures,
    out_path: str,
    extra_meta: dict | None = None,
    oracle: EdgeMeasures | None = None,
) -> None:
    """Write 'k,t_left,t_right,weight,stderr' rows (k is 1-based) plus a sidecar.

    When an ``oracle`` measure is given (a Monte-Carlo estimate over the same
    edges) two extra columns, mc_weight and mc_stderr, are appended per row.
    """
    if oracle is not None and len(oracle.weights) != len(em.weights):
        raise ValueError("oracle edge count does not match the measure")
    header = ["k", "t_left", "t_right", "weight", "stderr"]
    if oracle is not None:
        header += ["mc_weight", "mc_stderr"]
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(len(em.weights)):
            se = "" if em.stderr is None else f"{em.stderr[k]:.17g}"
            row = [k + 1, f"{em.times[k]:.17g}", f"{em.times[k + 1]:.17g}",
                   f"{em.weights[k]:.17g}", se]
            if oracle is not None:
                ose = "" if oracle.stderr is None else f"{oracle.stderr[k]:.17g}"
                row += [f"{oracle.weights[k]:.17g}", ose]
            w.writerow(row)
    if extra_meta is not None:
        with open(f"{out_path}.meta.json", "w") as fh:
            json.dump(extra_meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
