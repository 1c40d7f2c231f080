"""Numerical Schwarz-Christoffel machinery for walk polygons.

A walk polygon is the boundary of the semi-infinite region lying below the
graph of a piecewise-linear bridge walk on [0, 1] (pinned to zero at both
ends), closed by two vertical walls running down from the endpoints.  The
conformal map phi from the closed lower half-plane onto that region sends
real pre-vertices 0 = z_1 < ... < z_{n+1} = 1 to the walk vertices
w_k = t_{k-1} + i * beta * W_{k-1}, and infinity to the bottom of the
walls.  solve_prevertices_full recovers the pre-vertices from the polygon
side lengths by one Newton iteration with step halving on compound
Gauss-Jacobi quadratures of |phi'|, started from a solved walk: the flat
walk, or a previous solution whose nodes the walk contains.  Every solve
keeps one record, its relative residual, Newton iterations and residual
evaluations: a converged solve returns it in its PreVertexSolution, and a
missed one raises it in its ScSolverError, with the reason it stopped.
solve_prevertices_perturbative linearises the pre-vertices in the walk
amplitude around the flat-strip solution sin^2(pi t / 2).

The quadrature splits every panel at its midpoint and grades each half
from its end pre-vertex: a Gauss-Jacobi head of length min(span, nearest
gap / 2), then Gauss-Legendre segments [c, 2c] starting at c = head * 2^m,
each as long as its distance from that pre-vertex.  Every other pre-vertex
lies at least one segment length beyond a segment, so the integrand's
smooth factor is analytic inside the Bernstein ellipse rho = 3 + sqrt(8)
of every segment, head or tail, and a GJ_POINTS-node rule errs like
rho^(-2 GJ_POINTS): 4e-19 at 12 nodes, below float64's 1.1e-16.  The Newton
Jacobian is analytic and uses the same nodes (_side_integrals_dz).  Each
Newton solve or forward map builds its quadrature plan once
(_quadrature_plan): the part of the layout that depends on the exponents
alone, that is the half-panels' anchors, signs and exponents, their
Gauss-Jacobi head rows and the Jacobian's ahead mask.  Each accepted
Newton point builds its node layout once from that plan, in the
residual, segment by segment (_graded_rule), and the Jacobian takes it
from there, with the segment owners that name each node's panel; below
RESIDUAL_ACCEPT, Newton stops once a step is rejected or no longer cuts
the residual tenfold, where only the rule's own error is left.  The
forward map integrates from the nearest pre-vertex with the same graded
rule and plan.  Every Gauss rule, Gauss-Legendre (p = 0) included, comes
from numpy alone, by the Golub-Welsch method with one Newton polish
(_gj_rule); the heads are kept in a bounded table keyed by exponent, and
each plan looks its heads up there once (_gj_heads).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_VERTICES = 64            # finite-vertex cap: crowding makes larger solves unreliable
MAX_PERTURBATIVE_EDGES = 512  # perturbative cap: its kernel takes about 0.5 KB x n^2, 0.13 GiB
NEWTON_BUDGET = 80
STAGNATION_LIMIT = 3         # consecutive sub-0.1% residual-norm drops before stalling
RESIDUAL_TARGET = 1e-11      # Newton always stops here ...
RESIDUAL_ACCEPT = 1e-8       # ... below this once a step cuts |f| < 10x or fails; accepted
STEP_HALVINGS = 25           # step lengths 1, 1/2, ..., 2^-24 tried per iteration before stalling
GJ_POINTS = 12               # nodes per segment; errs like (3 + sqrt 8)^(-2N), see the docstring

LAM_ONE = -math.log(2.0)     # integral_0^1 log|sin(pi u / 2)| du


class ScSolverError(RuntimeError):
    """Pre-vertex solve failure.

    A Newton solve of solve_prevertices_full that misses RESIDUAL_ACCEPT
    carries its record, under PreVertexSolution's names: stop, the reason
    it gave up, and the residual_norm, iterations and residual_evals it
    stopped at.  Every other failure leaves all four None.
    """

    def __init__(self, message, *, stop=None, residual_norm=None, iterations=None,
                 residual_evals=None):
        super().__init__(message)
        self.stop, self.residual_norm = stop, residual_norm
        self.iterations, self.residual_evals = iterations, residual_evals


@dataclass(frozen=True)
class WalkPolygon:
    """Piecewise-linear bridge walk with an amplitude scale.

    times holds t_0 = 0 < t_1 < ... < t_n = 1 and values the unscaled
    heights W_k with W_0 = W_n = 0; beta multiplies the heights wherever
    geometry is built, so the same walk can be examined at any amplitude.
    Non-finite times, values or beta, or slope jumps that beta overflows, raise.
    """

    times: np.ndarray
    values: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if len(t) != len(v):
            raise ValueError("times and values must have equal length")
        if len(t) < 2:
            raise ValueError("a walk needs at least one edge")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("walk times must start at 0 and end at 1")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("walk times must be strictly increasing")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise ValueError("walks are pinned: W_0 = W_n = 0")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        with np.errstate(over="ignore", invalid="ignore"):   # |slope jump| <= 2 max |slope|
            jumps = 2.0 * np.abs(self.beta * (v[1:] - v[:-1]) / (t[1:] - t[:-1])).max()
        for name, x in (("times", t), ("values", v), ("slope jumps", jumps)):
            if not np.isfinite(x).all():
                raise ValueError(f"walk {name} must be finite, at beta = {self.beta:g}")

    @property
    def n_edges(self) -> int:
        return len(self.times) - 1

    def scaled_values(self) -> np.ndarray:
        return self.beta * self.values

    def edge_lengths(self) -> np.ndarray:
        return np.hypot(np.diff(self.times), np.diff(self.scaled_values()))

    def vertices(self) -> np.ndarray:
        """Complex vertices w_1 .. w_{n+1} of the walk graph."""
        return self.times + 1j * self.scaled_values()


def turning_angles(poly: WalkPolygon) -> np.ndarray:
    """Interior angle fractions alpha of the n + 2 polygon vertices, from
    the edge slopes.

    alpha[k] (0-based) is the fraction at vertex w_{k+1}; the final entry
    is the vertex at infinity closing the walls, with fraction 0.

    With a_k = atan(edge slope of the scaled walk) / pi, each graph vertex
    splits into half-angles eta^+ = 1/2 + a (taken from the outgoing edge)
    and eta^- = 1/2 - a (from the incoming edge); the walls contribute
    eta^-_0 = eta^+_n = 0 at the endpoints.  Each a_k enters one vertex
    with a plus and its neighbour with a minus, so sum(1 - alpha) = 2 up
    to float cancellation.
    """
    t = poly.times
    y = poly.scaled_values()
    a = np.arctan(np.diff(y) / np.diff(t)) / math.pi
    n = poly.n_edges
    alpha = np.zeros(n + 2)
    alpha[:n] += 0.5 + a
    alpha[1:n + 1] += 0.5 - a
    return alpha


@dataclass(frozen=True)
class PreVertexSolution:
    """Pre-vertices of the half-plane-to-walk-polygon map.

    poly is the walk the pre-vertices belong to, so a solution can serve
    as the start of a later solve (see solve_prevertices_full).
    residual_norm is the max relative side-length error of the returned
    pre-vertices; the perturbative solver does not evaluate it and leaves
    it nan.

    The full solver returns only converged solutions, with the Newton
    iterations and side-length residual evaluations of its one solve; a
    missed solve raises ScSolverError with the same record and its stop
    reason.  The perturbative solver runs no Newton solve and leaves
    iterations and residual_evals 0.
    """

    poly: WalkPolygon
    prevertices: np.ndarray      # z_1 .. z_{n+1} with z_1 = 0, z_{n+1} = 1
    residual_norm: float
    iterations: int
    residual_evals: int = 0


# ---------------------------------------------------------------------------
# Compound Gauss-Jacobi quadrature of the side integrals


def _jacobi_recurrence(x, diag, off):
    """Orthonormal Jacobi recurrence at the nodes x (one row per rule),
    started from phat_0 = 1: returns sum_{k < n} phat_k(x)^2, phat_n(x)
    and phat_n'(x).  off[:, k] is sqrt(beta_k), with off[:, 0] = 0.
    """
    a, b = diag.T[:, :, None], off.T[:, :, None]
    prev = np.zeros((2,) + x.shape)             # (phat_{k-1}, phat_{k-1}')
    cur = np.zeros((2,) + x.shape)              # (phat_k, phat_k')
    cur[0] = 1.0
    total = np.zeros_like(x)
    for k in range(GJ_POINTS):
        total += cur[0] * cur[0]
        nxt = (x - a[k]) * cur
        nxt[1] += cur[0]
        nxt -= b[k] * prev
        nxt /= b[k + 1]
        prev, cur = cur, nxt
    return total, cur[0], cur[1]


def _gj_rule(p):
    """Gauss-Jacobi rules on [-1, 1] for the weights (1 + x)^p_i, one row
    of GJ_POINTS nodes and weights per exponent (Golub & Welsch 1969).

    The nodes are the eigenvalues of the Jacobi matrix of the recurrence
    for a = 0, b = p, polished by one Newton step on phat_n; the weights
    are 1 / sum_k phat_k(x)^2 from the same recurrence, which has no
    1 - x^2 to cancel as p -> -1, rescaled to the exact moment
    2^(p+1) / (p+1).  Every step acts row by row, so a rule is
    bit-identical whether built alone or in a batch.
    """
    q = p[:, None]
    k = np.arange(1.0, GJ_POINTS + 1.0)
    s = 2.0 * k + q
    diag = np.concatenate([q / (q + 2.0), q * q / (s[:, :-1] * (s[:, :-1] + 2.0))], axis=1)
    off = np.zeros((len(p), GJ_POINTS + 1))
    # (2k - 1) + p is exact where it is small, as p -> -1 at k = 1
    off[:, 1:] = 2.0 * k * (k + q) / (s * np.sqrt(((2.0 * k - 1.0) + q) * ((2.0 * k + 1.0) + q)))
    jac = np.zeros((len(p), GJ_POINTS, GJ_POINTS))
    i = np.arange(GJ_POINTS)
    jac[:, i, i] = diag
    jac[:, i[1:], i[:-1]] = off[:, 1:-1]
    x = np.linalg.eigvalsh(jac, UPLO="L")
    _, pn, dpn = _jacobi_recurrence(x, diag, off)
    x -= pn / dpn
    w = 1.0 / _jacobi_recurrence(x, diag, off)[0]
    moment = np.array([2.0 ** (v + 1.0) / (v + 1.0) for v in p.tolist()])
    return x, w * (moment / w.sum(axis=1))[:, None]


_GL_X, _GL_W = (row[0] for row in _gj_rule(np.zeros(1)))   # Gauss-Legendre: p = 0
_GL_X1 = _GL_X + 1.0

# Head table: exponent -> its rule, nodes and weights stacked as (2, GJ_POINTS).
# A lookup that leaves more than GJ_TABLE_ROWS rules in it clears it after
# answering; a rule is the same whenever it is built, so results do not
# depend on the table's history.
GJ_TABLE_ROWS = 4096         # heads of 64 MAX_VERTICES-vertex solves, no exponent shared; 1.5 MiB
_gj_table: dict[float, np.ndarray] = {}


def _gj_heads(p):
    """Gauss-Jacobi nodes and weights (rows) for the exponents p, from the
    head table; the exponents it lacks are built in one batch."""
    keys = p.tolist()
    missing = list(dict.fromkeys(q for q in keys if q not in _gj_table))
    if missing:
        _gj_table.update(zip(missing, np.stack(_gj_rule(np.array(missing)), axis=1)))
    rules = np.array([_gj_table[q] for q in keys]).reshape(-1, 2, GJ_POINTS)  # p may be empty
    if len(_gj_table) > GJ_TABLE_ROWS:
        _gj_table.clear()
    return rules[:, 0], rules[:, 1]


class _Plan(NamedTuple):
    """The part of the side-integral layout that depends on the exponents
    alone (_quadrature_plan).  All but ahead hold one row per half-panel,
    2k and 2k + 1 making panel k."""

    anchor: np.ndarray     # anchor pre-vertex: k, then k + 1
    sign: np.ndarray       # +1 off the anchor toward z_{k+1}, -1 toward z_k
    p_anchor: np.ndarray   # the anchor's exponent, as a column
    rows: tuple            # _graded_rule's head rows: 1 + GJ nodes, GJ weights, p_anchor + 1
    ahead: np.ndarray      # [i > m], the chain rule of _residual_jacobian


def _quadrature_plan(p):
    """The plan of a Newton solve or forward map with exponents p, built
    once and passed to every layout: the anchors and signs of the
    half-panels, their exponents, their Gauss-Jacobi head rows (looked up
    once, _gj_heads) and the Jacobian's ahead mask."""
    n = len(p) - 1
    anchor = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1).ravel()
    head_x, head_w = _gj_heads(p)
    p_anchor = p[anchor, None]
    return _Plan(anchor, np.tile([1.0, -1.0], n), p_anchor,
                 (1.0 + head_x[anchor], head_w[anchor], p_anchor + 1.0),
                 np.arange(n + 1)[:, None] > np.arange(n - 1))


def _graded_rule(head, span, rows):
    """Nodes of the graded rule on half-panels [0, span] off their anchors,
    segment by segment.

    A half-panel runs from an anchor pre-vertex with exponent p_anchor
    toward a point no nearer to any other pre-vertex, so every point of
    it has the anchor as its nearest pre-vertex.  Its Gauss-Jacobi head
    [0, head] absorbs u^{p_anchor}; Gauss-Legendre segments follow at
    c_m = head * 2^m with length min(span - c_m, c_m), each as long as
    its distance from the anchor, until span is covered, so a half-panel
    takes 1 + ceil(log2(span / head)) segments.  rows holds each
    half-panel's head rows from its plan (_Plan.rows).

    Returns (owner, first, u, w): each segment's half-panel, the index of
    each half-panel's head segment, and every segment's GJ_POINTS offsets
    from the anchor and weights, one row per segment.  Segments are
    grouped by half-panel, head first.
    """
    head_x1, head_w, p1 = rows
    n_seg = 1 + np.maximum(np.ceil(np.log2(span * (1.0 - 1e-14) / head)), 0.0).astype(int)
    owner = np.repeat(np.arange(len(head)), n_seg)
    first = n_seg.cumsum() - n_seg
    m = np.arange(len(owner)) - first[owner]
    c = head[owner] * 2.0 ** (m - 1.0)
    half = 0.5 * np.minimum(span[owner] - c, c)
    u = c[:, None] + half[:, None] * _GL_X1
    w = half[:, None] * _GL_W
    head_half = 0.5 * head[:, None]
    u[first] = head_half * head_x1
    w[first] = head_w * head_half ** p1
    return owner, first, u, w


def _side_nodes(z, p, plan):
    """Quadrature layout of the side integrals, grouped by panel.

    Each panel [z_k, z_{k+1}] splits at its midpoint into two half-panels,
    graded from their end pre-vertices by _graded_rule: a Gauss-Jacobi
    head of length min(span, nearest gap / 2), then Gauss-Legendre
    segments doubling in length, each as long as its distance from that
    pre-vertex.  plan (_quadrature_plan) holds what does not move with z:
    the half-panels' anchors, signs and exponents and the head rules.
    Distances to the pre-vertices are formed as (z_anchor - z_j) + offset
    by _distances, never as x - z_j after rounding x = z_anchor + offset,
    so crowded pre-vertices away from z = 0 keep full relative precision.

    Returns the layout (starts, owner, a, offset, wf, integrals): the
    first node of each panel, every segment's half-panel, anchor
    pre-vertex and signed node offsets from it (a row per segment), the
    weighted integrand w * prod_j |x - z_j|^{p_j} at every node, with the
    anchor factor taken out at the head nodes, whose weights absorb it,
    and each panel's integral of prod_j |x - z_j|^{p_j}, summed and
    checked finite once here.  The Jacobian takes its panels from the
    segment owners.  The layout holds no node-by-pre-vertex array, so it
    costs little to keep for a Jacobian at the same point.
    """
    half_gaps = 0.5 * (z[1:] - z[:-1])
    near = np.full(len(z) + 1, np.inf)
    near[1:-1] = half_gaps
    # half the nearest gap never passes the half-panel's span
    head = np.minimum(near[:-1], near[1:])[plan.anchor]
    if not (head > 0.0).all():
        raise ScSolverError("degenerate panel: coincident pre-vertices")
    owner, first, u, w = _graded_rule(head, np.repeat(half_gaps, 2), plan.rows)
    a = plan.anchor[owner]
    offset = u * plan.sign[owner, None]
    log_abs = _distances(z, a, offset)          # becomes log|x - z_j| in place
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.abs(log_abs, out=log_abs)
        np.log(log_abs, out=log_abs)
        log_f = log_abs @ p
        log_f.reshape(-1, GJ_POINTS)[first] -= plan.p_anchor * np.log(u[first])
        wf = w.ravel() * np.exp(log_f)
        starts = GJ_POINTS * first[::2]
        return starts, owner, a, offset, wf, _require_finite(np.add.reduceat(wf, starts))


def _distances(z, a, offset):
    """d[i, j] = x_i - z_j for the nodes x_i = z_{a_s} + offset_{s, g} of
    segment s, formed as (z_{a_s} - z_j) + offset_{s, g}, one row per node.
    The only node-by-pre-vertex array of a residual or a Jacobian, so that
    glibc malloc does not trim the heap when a second one is freed and
    page-fault it back in on the next call.
    """
    d = np.repeat(z[a, None] - z, GJ_POINTS, axis=0)
    d += offset.reshape(-1, 1)
    return d


def _require_finite(out):
    if not np.isfinite(out).all():
        raise ScSolverError("quadrature node collided with a pre-vertex; "
                            "pre-vertices too crowded for float arithmetic")
    return out


def _side_integrals_dz(z, p, layout):
    """(I, dI/dz): the side integrals and their analytic Jacobian.

    With F = prod_j |x - z_j|^{p_j} and g_k = z_{k+1} - z_k, a pre-vertex
    off panel k moves only the integrand, dI_k/dz_j = -p_j * int F / (x - z_j).
    The end pre-vertices also move the panel; with x = z_k + g_k * s,
    I_k = g_k^{1 + p_k + p_{k+1}} * int s^{p_k} (1 - s)^{p_{k+1}} (...) ds, so

        dI_k/dz_k     = -(1 + p_k + p_{k+1}) I_k / g_k + int F (1 - s) S'
        dI_k/dz_{k+1} = +(1 + p_k + p_{k+1}) I_k / g_k + int F s S'

    where S' = sum of p_j / (x - z_j) over j outside {k, k + 1}.  Every
    integrand keeps F's endpoint singularities, so the nodes of the
    integrals, the layout of _side_nodes at (z, p), serve them too; the
    layout's segment owners name each node's panel.
    """
    starts, owner, a, offset, wf, integrals = layout
    k = np.arange(len(z) - 1)
    seg, panel = np.arange(len(owner)), owner // 2
    gaps = z[1:] - z[:-1]
    d = _distances(z, a, offset)
    by_seg = d.reshape(len(owner), GJ_POINTS, len(z))    # a view: d[seg, node in seg, j]
    d_lo, d_hi = by_seg[seg, :, panel].ravel(), by_seg[seg, :, panel + 1].ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.reciprocal(d, out=d)
        by_seg[seg, :, panel] = 0.0
        by_seg[seg, :, panel + 1] = 0.0
        wf_s = wf * (inv @ p)                 # weighted F * S' at every node
        inv *= wf[:, None]
        jac = np.add.reduceat(inv, starts) * -p
        ends = (1.0 + p[:-1] + p[1:]) * integrals / gaps
        # 1 - s = -(x - z_{k+1}) / g_k and s = (x - z_k) / g_k
        jac[k, k] = np.add.reduceat(wf_s * -d_hi, starts) / gaps - ends
        jac[k, k + 1] = np.add.reduceat(wf_s * d_lo, starts) / gaps + ends
    return integrals, _require_finite(jac)


def _z_from_log_gaps(y: np.ndarray) -> np.ndarray:
    z = np.empty(len(y) + 2)
    z[0], z[-1] = 0.0, 1.0
    np.exp(y, out=z[1:-1])
    z.cumsum(out=z)
    z /= z[-1]
    return z


def _log_gaps_from_z(z: np.ndarray) -> np.ndarray:
    gaps = np.diff(z)
    if np.any(gaps <= 0.0):
        raise ScSolverError("initial pre-vertices are not strictly increasing")
    return np.log(gaps[:-1] / gaps[-1])


def _side_residual(z, p, plan, targets):
    """(residual vector, max relative error, layout) of the side-length
    conditions.

    Predicted and target fractions both sum to one, so the last equation
    is redundant and the residual keeps only the first n - 1 components.
    layout is the _side_nodes layout at z, for a Jacobian at the same point.
    """
    layout = _side_nodes(z, p, plan)
    pred = layout[-1] / layout[-1].sum()
    rel = float(np.abs(pred / targets - 1.0).max())
    return (pred - targets)[:-1], rel, layout


def _residual_jacobian(z, p, plan, layout):
    """Jacobian of the residual of _side_residual in the log-gap unknowns.

    pred = I / sum(I) gives dpred = (dI - pred * sum_k dI_k) / sum(I), and
    z_i = c_i / c_n with c the cumulative gaps gives
    dz_i / dy_m = (z_{m+1} - z_m) * ([m < i] - z_i).  Scaling every z_j by
    one factor scales every I_k by a common power of it, so pred does not
    see the -z_i term, and it is left out; plan holds the mask [m < i].
    """
    a, da = _side_integrals_dz(z, p, layout)
    total = a.sum()
    dpred = (da - (a / total)[:, None] * da.sum(axis=0)) / total
    return dpred[:-1] @ (plan.ahead * (z[1:-1] - z[:-2]))


def solve_prevertices_full(poly: WalkPolygon,
                           initial_guess: PreVertexSolution | None = None) -> PreVertexSolution:
    """Pre-vertices from the side-length conditions, by one Newton solve
    with step halving.

    Unknowns are the n - 1 log-ratios of pre-vertex gaps; the residual
    matches each predicted relative side length |I_k| / sum|I_j| to the
    polygon's L_k / L_total.  Without initial_guess, or for a flat poly,
    the solve starts from the flat walk's pre-vertices sin^2(pi t / 2),
    exact for a flat poly.  Otherwise initial_guess must be a solution of
    a walk whose nodes are all nodes of poly, and its pre-vertices,
    interpolated onto poly's nodes, are the start.

    Each iteration solves the Newton system once, with the analytic
    Jacobian of _residual_jacobian, whose panel-endpoint terms come from
    the affine substitution x = z_k + g_k * s, on the nodes of the side
    integrals.  The accepted residual hands its node layout to that
    Jacobian, so every residual evaluation builds one layout and the
    Jacobian builds none; every layout starts from the solve's one
    quadrature plan.  The iteration then tries the step lengths
    1, 1/2, 1/4, ... along that Newton step, up to STEP_HALVINGS of them,
    and takes the first that lowers the residual norm (Dennis & Schnabel
    1996, Numerical Methods for Unconstrained Optimization and Nonlinear
    Equations, sec. 6.3); an unevaluable trial counts as rejected.

    The iteration stops at the quadrature's noise floor: once the max
    relative side-length error is at most RESIDUAL_ACCEPT, and either the
    last accepted step cut the residual norm by less than 10x or a full
    step is rejected, further steps only move the pre-vertices within the
    rule's own error.  Reaching RESIDUAL_TARGET stops it as well.

    Raises ValueError for a walk of more than MAX_VERTICES finite vertices
    or an initial_guess with a node that poly lacks, and ScSolverError for
    a vertex angle of 0, an unevaluable or unsorted start, or a solve that
    misses RESIDUAL_ACCEPT.  A miss carries its record (see ScSolverError)
    with the stop reason: 'crowded' (the Jacobian could not be evaluated,
    or the Newton system is singular), 'no_descent' (no step length gave a
    smaller residual), 'stagnation' (STAGNATION_LIMIT sub-0.1%
    improvements in a row) or 'budget' (NEWTON_BUDGET iterations).
    """
    n = poly.n_edges
    if n + 1 > MAX_VERTICES:
        raise ValueError(f"walk has {n + 1} vertices; full solver caps at {MAX_VERTICES}")
    if initial_guess is None or not np.any(poly.scaled_values()):
        z0 = np.sin(0.5 * np.pi * poly.times) ** 2
    else:
        start = initial_guess.poly
        # both walks end at t = 1, so every index is in range
        if not (poly.times[poly.times.searchsorted(start.times)] == start.times).all():
            raise ValueError("initial_guess must solve a walk whose nodes are all nodes of poly")
        z0 = np.interp(poly.times, start.times, initial_guess.prevertices)
    p = turning_angles(poly)[:-1] - 1.0
    if not (p > -1.0).all():    # atan(slope) / pi rounds to +-1/2 beyond about 1e16
        raise ScSolverError("a vertex angle rounds to 0; the walk is too steep to solve")
    plan = _quadrature_plan(p)
    lengths = poly.edge_lengths()
    targets = lengths / lengths.sum()
    y = _log_gaps_from_z(z0)
    z = _z_from_log_gaps(y)
    f, rel, layout = _side_residual(z, p, plan, targets)
    norm = math.sqrt(f @ f)
    evals = 1
    iters = 0
    stagnant = 0
    stop = "budget"
    while rel > RESIDUAL_TARGET and iters < NEWTON_BUDGET:
        iters += 1
        try:
            step = np.linalg.solve(_residual_jacobian(z, p, plan, layout), -f)
        except (ScSolverError, np.linalg.LinAlgError):
            stop = "crowded"
            break
        base = norm
        for _ in range(STEP_HALVINGS):
            y_new = (y + step).clip(-60.0, 60.0)
            z_new = _z_from_log_gaps(y_new)
            evals += 1
            try:
                f_new, rel_new, layout = _side_residual(z_new, p, plan, targets)
                norm_new = math.sqrt(f_new @ f_new)
            except ScSolverError:   # an unevaluable trial is a rejected one
                norm_new = math.inf
            if norm_new < base:
                y, z, f, rel, norm = y_new, z_new, f_new, rel_new, norm_new
                break
            if rel <= RESIDUAL_ACCEPT:   # at the floor a rejection is the rule's noise
                break
            step *= 0.5
        else:
            stop = "no_descent"
            break
        # at the quadrature's noise floor a step no longer cuts |f| tenfold
        if rel <= RESIDUAL_ACCEPT and norm > 0.1 * base:
            break
        # crowding stalls show up as a long grind of sub-0.1% improvements
        stagnant = stagnant + 1 if norm > base * 0.999 else 0
        if stagnant >= STAGNATION_LIMIT:
            stop = "stagnation"
            break
    if not rel <= RESIDUAL_ACCEPT:   # a nan residual misses too
        raise ScSolverError(f"side-length solve stalled ({stop}) at relative residual {rel:.3e}",
                            stop=stop, residual_norm=rel, iterations=iters, residual_evals=evals)
    return PreVertexSolution(poly=poly, prevertices=z, residual_norm=rel, iterations=iters,
                             residual_evals=evals)


# ---------------------------------------------------------------------------
# Perturbative solver


def lam_log_sin(x):
    """Lam(x) = integral_0^x log|sin(pi u / 2)| du for |x| <= 2, vectorised.

    Odd in x, with the reflection Lam(x) = 2 * Lam(1) - Lam(2 - x) for
    x in (1, 2] and Lam(1) = -log 2.  On [0, 1] the endpoint log
    singularity integrates in closed form and the smooth remainder
    log(sinc(u/2)), analytic well beyond [0, 1], by the GJ_POINTS-node rule.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    ax = np.abs(x)
    if np.any(ax > 2.0 + 1e-9):
        raise ValueError("lam_log_sin is defined on [-2, 2]")
    ax = np.minimum(ax, 2.0)
    refl = ax > 1.0
    ax = np.where(refl, 2.0 - ax, ax)
    vals = np.zeros_like(ax)
    pos = ax > 0.0
    xi = ax[pos]
    u = 0.5 * xi[:, None] * _GL_X1
    smooth = (np.log(np.sinc(0.5 * u)) @ _GL_W) * 0.5 * xi
    vals[pos] = smooth + xi * (np.log(0.5 * np.pi * xi) - 1.0)
    vals = np.where(refl, 2.0 * LAM_ONE - vals, vals)
    vals = np.where(x < 0.0, -vals, vals)
    return float(vals[0]) if scalar else vals


def slope_jumps(poly: WalkPolygon) -> np.ndarray:
    """D_k = jump of the scaled walk slope at node t_k, k = 0 .. n.

    The walk is flat outside [0, 1], so the jumps telescope:
    sum_k D_k = 0 and -sum_k D_k min(t, t_k) reproduces the scaled walk.
    """
    slopes = np.diff(poly.scaled_values()) / np.diff(poly.times)
    return np.diff(np.concatenate([[0.0], slopes, [0.0]]))


def solve_prevertices_perturbative(poly: WalkPolygon) -> PreVertexSolution:
    """First-order pre-vertices in the walk amplitude.

    Expands around the flat-strip pre-vertices z0_k = sin^2(pi t_{k-1} / 2).
    With D_k the scaled slope jumps and

        K_k(tau) = Lam(tau - t_k) + Lam(tau + t_k)
        c        = -(1 / pi) * sum_k D_k K_k(1)

    the interior corrections are

        xi = -(sin(pi tau) / 2) * (pi c tau + sum_k D_k K_k(tau))

    at tau = t_{l-1} for l = 2 .. n, while xi_1 = xi_{n+1} = 0 keeps the
    endpoints exactly.  Valid to O(beta^2).  The kernel K is an n x n
    array expanded by the GJ_POINTS nodes of lam_log_sin, so walks of more than
    MAX_PERTURBATIVE_EDGES edges raise ValueError before it is built.
    """
    t = poly.times
    n = poly.n_edges
    if n > MAX_PERTURBATIVE_EDGES:
        raise ValueError(f"walk has {n} edges; the perturbative solver caps at "
                         f"{MAX_PERTURBATIVE_EDGES}")
    z0 = np.sin(0.5 * np.pi * t) ** 2
    d = slope_jumps(poly)
    kk1 = lam_log_sin(1.0 - t) + lam_log_sin(1.0 + t)
    c = -float(d @ kk1) / math.pi
    z = z0.copy()
    tau = t[1:-1]
    kk = lam_log_sin(tau[None, :] - t[:, None]) + lam_log_sin(tau[None, :] + t[:, None])
    s = d @ kk
    xi = -(np.sin(np.pi * tau) / 2.0) * (math.pi * c * tau + s)
    z[1:-1] = z0[1:-1] + xi
    return PreVertexSolution(poly=poly, prevertices=z, residual_norm=math.nan, iterations=0)


# ---------------------------------------------------------------------------
# Forward map


def _branch_log(w):
    """log with arg in (-pi, 0]: the lower-half-plane branch of the integrand."""
    w = np.asarray(w, dtype=complex)
    theta = np.arctan2(w.imag, w.real)
    theta = np.where(theta > 0.0, theta - 2.0 * np.pi, theta)
    return np.log(np.abs(w)) + 1j * theta


def _complex_segment_integral(z, p, plan, j, z_to):
    """integral of prod_i (zeta - z_i)^{p_i} along the straight segment
    z_j -> z_to, where z_to is no nearer to any other pre-vertex than to
    z_j.  The segment then stays in z_j's (convex) Voronoi cell, so it is
    one half-panel of the graded rule anchored at z_j, with the head rows
    of a plan half-panel anchored there: 2j - 1, or 0 at z_1.
    """
    direction = z_to - z[j]
    span = abs(direction)
    if span == 0.0:
        return 0.0 + 0.0j
    unit = direction / span
    near = float(np.min(np.abs(np.delete(z, j) - z[j])))
    h = max(2 * j - 1, 0)
    _, first, u, w = _graded_rule(np.array([min(span, 0.5 * near)]), np.array([span]),
                                  [row[h:h + 1] for row in plan.rows])
    # zeta - z_i formed as (z_j - z_i) + unit * u, like the side integrals
    log_f = _branch_log((z[j] - z)[None, :] + (unit * u.ravel())[:, None]) @ p
    # (zeta - z_j)^{p_j} = u^{p_j} * unit^{p_j}; the head weights absorb u^{p_j}
    log_f.reshape(-1, GJ_POINTS)[first] -= p[j] * np.log(u[first])
    return unit * np.dot(w.ravel(), np.exp(log_f))


def sc_forward_map(sol: PreVertexSolution, z_points) -> np.ndarray | complex:
    """Evaluate the solved map at points of the closed lower half-plane.

    phi(z) = C * integral_0^z prod (zeta - z_k)^{alpha_k - 1} dzeta, with C
    set so the first and last pre-vertices map to 0 and 1 exactly; real
    points inside [z_1, z_{n+1}] land on the walk graph.  Accepts a scalar
    or an array and matches the input shape.
    """
    z = sol.prevertices
    p = turning_angles(sol.poly)[:-1] - 1.0
    # phase of the integrand is constant on each panel: -pi * sum of the
    # exponents of the pre-vertices still ahead
    tail = np.cumsum(p[::-1])[::-1]
    plan = _quadrature_plan(p)
    panels = _side_nodes(z, p, plan)[-1] * np.exp(-1j * np.pi * tail[1:])
    scale = 1.0 / np.sum(panels)
    images = scale * np.concatenate([[0.0], np.cumsum(panels)])

    def at(z_point: complex) -> complex:
        if z_point.imag > 1e-12:
            raise ValueError("the map is defined on the closed lower half-plane")
        # anchor at the nearest pre-vertex, so the graded rule applies
        j = int(np.argmin(np.abs(z - z_point)))
        return complex(images[j] + scale * _complex_segment_integral(z, p, plan, j, z_point))

    zs = np.asarray(z_points, dtype=complex)
    if zs.ndim == 0:
        return at(complex(zs))
    out = np.array([at(complex(zp)) for zp in zs.ravel()], dtype=complex)
    return out.reshape(zs.shape)
