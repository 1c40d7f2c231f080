"""Numerical Schwarz-Christoffel machinery for walk polygons.

A walk polygon is the boundary of the semi-infinite region lying below the
graph of a piecewise-linear bridge walk on [0, 1] (pinned to zero at both
ends), closed by two vertical walls running down from the endpoints.  The
conformal map phi from the closed lower half-plane onto that region sends
real pre-vertices 0 = z_1 < ... < z_{n+1} = 1 to the walk vertices
w_k = t_{k-1} + i * beta * W_{k-1}, and infinity to the bottom of the
walls.  solve_prevertices_full recovers the pre-vertices from the polygon
side lengths by a damped Newton iteration on compound Gauss-Jacobi
quadratures of |phi'|; solve_prevertices_perturbative linearises them in
the walk amplitude around the flat-strip solution sin^2(pi t / 2).

The quadrature splits every panel at its midpoint and grades each half
from its end pre-vertex: a Gauss-Jacobi head of length min(span, nearest
gap / 2), then Gauss-Legendre segments starting at head * 1.5^m, each half
as long as its distance from that pre-vertex.  The forward map integrates
from the nearest pre-vertex with the same rule.  Gauss-Jacobi rules are
memoised per exponent at module level and shared by every solve.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

MAX_VERTICES = 64            # finite-vertex cap: crowding makes larger solves unreliable
NEWTON_BUDGET = 80
STAGNATION_LIMIT = 3         # consecutive sub-0.1% residual-norm drops before stalling
RESIDUAL_TARGET = 1e-11      # Newton aims here ...
RESIDUAL_ACCEPT = 1e-8       # ... and anything converged past this is accepted
FD_STEP = 1e-7               # Jacobian finite-difference step in log-gap space
LM_MU_MIN = 1e-8             # smallest nonzero Marquardt damping
LM_TRIES = 25                # damping escalations per iteration before stalling
PERT_BETA_MAX = 0.05         # amplitude below which the perturbative warm start is used
CONTINUATION_SOLVES = 16     # inner-solve budget for the amplitude ramp
GJ_POINTS = 24               # Gauss-Jacobi / Gauss-Legendre nodes per subsegment

_GL_X, _GL_W = leggauss(GJ_POINTS)
_LAM_X, _LAM_W = leggauss(48)
LAM_ONE = -math.log(2.0)     # integral_0^1 log|sin(pi u / 2)| du


class ScSolverError(RuntimeError):
    """Pre-vertex solve failure; carries the best residual reached."""

    def __init__(self, msg: str, residual: float | None = None):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True)
class WalkPolygon:
    """Piecewise-linear bridge walk with an amplitude scale.

    times holds t_0 = 0 < t_1 < ... < t_n = 1 and values the unscaled
    heights W_k with W_0 = W_n = 0; beta multiplies the heights wherever
    geometry is built, so the same walk can be examined at any amplitude.
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
        if not self.beta >= 0.0:
            raise ValueError("beta must be >= 0")

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


@dataclass(frozen=True)
class TurningAngles:
    """Interior angle fractions at the n+2 polygon vertices.

    alpha[k] (0-based) is the fraction at vertex w_{k+1}; the final entry
    is the vertex at infinity closing the walls, with fraction 0.
    """

    alpha: np.ndarray

    def defect_sum(self) -> float:
        return float(np.sum(1.0 - self.alpha))


def turning_angles(poly: WalkPolygon) -> TurningAngles:
    """Interior angle fractions of the walk polygon from the edge slopes.

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
    eta_plus = np.zeros(n + 1)
    eta_minus = np.zeros(n + 1)
    eta_plus[:n] = 0.5 + a
    eta_minus[1:] = 0.5 - a
    alpha = np.zeros(n + 2)
    alpha[: n + 1] = eta_plus + eta_minus
    return TurningAngles(alpha=alpha)


@dataclass(frozen=True)
class PreVertexSolution:
    """Pre-vertices of the half-plane-to-walk-polygon map.

    residual_norm is the max relative side-length error of the returned
    pre-vertices; the perturbative solver fills it in only when asked to
    check itself (nan otherwise).  c_constant is the first-order map
    constant of the small-amplitude expansion; zero for the full solver.
    """

    prevertices: np.ndarray      # z_1 .. z_{n+1} with z_1 = 0, z_{n+1} = 1
    alpha: np.ndarray            # angle fractions at the finite vertices
    residual_norm: float
    iterations: int
    solver: str
    c_constant: float = 0.0


# ---------------------------------------------------------------------------
# Compound Gauss-Jacobi quadrature of the side integrals


@functools.lru_cache(maxsize=4096)   # every exponent of a cold 63-vertex continuation
def _gj_rule(p: float):
    # weight (1 + x)^p: singular behaviour absorbed at the left node
    return roots_jacobi(GJ_POINTS, 0.0, p)


def _graded_rule(head, span, p_anchor):
    """Nodes of the graded rule on half-panels [0, span] off their anchors.

    A half-panel runs from an anchor pre-vertex with exponent p_anchor
    toward a point no nearer to any other pre-vertex, so every point of
    it has the anchor as its nearest pre-vertex.  Its Gauss-Jacobi head
    [0, head] absorbs u^{p_anchor}; Gauss-Legendre segments follow at
    c_m = head * 1.5^m with length min(span - c_m, c_m / 2), each half
    its distance from the anchor, until span is covered.

    Returns (owner, u, w): for every node, its half-panel, its offset from
    the anchor and its weight.  The GJ_POINTS * len(head) Gauss-Jacobi
    nodes come first, one half-panel after another.
    """
    n_tail = np.ceil(np.log(span * (1.0 - 1e-14) / head) / math.log(1.5))
    n_tail = np.maximum(n_tail, 0.0).astype(int)
    seg_owner = np.repeat(np.arange(len(head)), n_tail)
    m = np.arange(len(seg_owner)) - np.repeat(np.cumsum(n_tail) - n_tail, n_tail)
    c = head[seg_owner] * 1.5 ** m
    half = 0.5 * np.minimum(span[seg_owner] - c, 0.5 * c)
    rules = [_gj_rule(q) for q in p_anchor]
    xi = np.stack([r[0] for r in rules])
    w_gj = np.stack([r[1] for r in rules])
    head_half = 0.5 * head[:, None]
    owner = np.repeat(np.concatenate([np.arange(len(head)), seg_owner]), GJ_POINTS)
    u = np.concatenate([(head_half * (1.0 + xi)).ravel(),
                        (c[:, None] + half[:, None] * (_GL_X + 1.0)).ravel()])
    w = np.concatenate([(w_gj * head_half ** (p_anchor[:, None] + 1.0)).ravel(),
                        (half[:, None] * _GL_W).ravel()])
    return owner, u, w


def _abs_side_integrals(z, p) -> np.ndarray:
    """integral over each panel [z_k, z_{k+1}] of prod_j |x - z_j|^{p_j}.

    Each panel splits at its midpoint into two half-panels, graded from
    their end pre-vertices by _graded_rule: a Gauss-Jacobi head of length
    min(span, nearest gap / 2), then Gauss-Legendre segments growing by
    1.5, each half as long as its distance from that pre-vertex.  One
    log-product matrix covers every node; the head weights absorb the end
    factor, which is divided back out in log space.  The Gauss-Jacobi
    rules are memoised per exponent at module level and shared by every
    solve.
    """
    n_pan = len(z) - 1
    k = np.arange(n_pan)
    gaps = np.diff(z)
    near = np.minimum(np.concatenate([[np.inf], gaps]), np.concatenate([gaps, [np.inf]]))
    anchor = np.concatenate([k, k + 1])
    span = np.tile(0.5 * gaps, 2)
    head = np.minimum(span, 0.5 * near[anchor])
    if not np.all(head > 0.0):
        raise ScSolverError("degenerate panel: coincident pre-vertices")
    owner, u, w = _graded_rule(head, span, p[anchor])
    direction = np.repeat([1.0, -1.0], n_pan)
    x = z[anchor][owner] + direction[owner] * u
    n_head = GJ_POINTS * len(head)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.log(np.abs(x[:, None] - z[None, :])) @ p
        a = anchor[owner[:n_head]]
        log_f[:n_head] -= p[a] * np.log(np.abs(x[:n_head] - z[a]))
        out = np.bincount(np.tile(k, 2)[owner], weights=w * np.exp(log_f), minlength=n_pan)
    if not np.all(np.isfinite(out)):
        raise ScSolverError("quadrature node collided with a pre-vertex; "
                            "pre-vertices too crowded for float arithmetic")
    return out


def _z_from_log_gaps(y: np.ndarray) -> np.ndarray:
    g = np.concatenate([np.exp(y), [1.0]])
    cs = np.concatenate([[0.0], np.cumsum(g)])
    return cs / cs[-1]


def _log_gaps_from_z(z: np.ndarray) -> np.ndarray:
    gaps = np.diff(z)
    if np.any(gaps <= 0.0):
        raise ScSolverError("initial pre-vertices are not strictly increasing")
    return np.log(gaps[:-1] / gaps[-1])


def _side_residual(z, p, targets):
    """(residual vector, max relative error) of the side-length conditions.

    Predicted and target fractions both sum to one, so the last equation
    is redundant and the residual keeps only the first n - 1 components.
    """
    a = _abs_side_integrals(z, p)
    pred = a / a.sum()
    rel = float(np.max(np.abs(pred / targets - 1.0)))
    return (pred - targets)[:-1], rel


def _default_start(poly: WalkPolygon) -> np.ndarray:
    if poly.beta <= PERT_BETA_MAX:
        z = solve_prevertices_perturbative(poly).prevertices
        if np.all(np.diff(z) > 0.0):
            return z
    return np.sin(0.5 * np.pi * poly.times) ** 2


def _newton_side_solve(poly: WalkPolygon, z0: np.ndarray):
    """Damped Newton on the side-length conditions from z0.

    Returns (z, rel, iters, converged); converged means the max relative
    side-length error fell below RESIDUAL_ACCEPT.  A rejected or
    unevaluable trial step raises the Marquardt damping instead of
    failing, so ill-conditioned Jacobians degrade toward gradient steps;
    only an unevaluable starting point raises.
    """
    n = poly.n_edges
    p = turning_angles(poly).alpha[:-1] - 1.0
    lengths = poly.edge_lengths()
    targets = lengths / lengths.sum()
    y = _log_gaps_from_z(z0)
    f, rel = _side_residual(_z_from_log_gaps(y), p, targets)
    mu = 0.0
    iters = 0
    stagnant = 0
    while rel > RESIDUAL_TARGET and iters < NEWTON_BUDGET:
        iters += 1
        jac = np.empty((n - 1, n - 1))
        try:
            for j in range(n - 1):
                y_j = y.copy()
                y_j[j] += FD_STEP
                f_j, _ = _side_residual(_z_from_log_gaps(y_j), p, targets)
                jac[:, j] = (f_j - f) / FD_STEP
        except ScSolverError:
            # too crowded to differentiate at the current point
            break
        base = float(np.linalg.norm(f))
        jtj = jac.T @ jac
        jtf = jac.T @ f
        scale = np.diag(np.maximum(np.diag(jtj), 1e-30))
        improved = False
        for _ in range(LM_TRIES):
            if mu == 0.0:
                try:
                    step = np.linalg.solve(jac, -f)
                except np.linalg.LinAlgError:
                    mu = LM_MU_MIN
                    continue
            else:
                step = np.linalg.solve(jtj + mu * scale, -jtf)
            y_new = np.clip(y + step, -60.0, 60.0)
            try:
                f_new, rel_new = _side_residual(_z_from_log_gaps(y_new), p, targets)
            except ScSolverError:
                mu = max(mu * 10.0, LM_MU_MIN)
                continue
            if np.linalg.norm(f_new) < base:
                y, f, rel = y_new, f_new, rel_new
                improved = True
                mu = 0.0 if mu <= LM_MU_MIN else mu / 3.0
                break
            mu = max(mu * 10.0, LM_MU_MIN)
        if not improved:
            break
        # crowding stalls show up as a long grind of sub-0.1% improvements
        stagnant = stagnant + 1 if np.linalg.norm(f) > base * 0.999 else 0
        if stagnant >= STAGNATION_LIMIT:
            break
    return _z_from_log_gaps(y), rel, iters, rel <= RESIDUAL_ACCEPT


def solve_prevertices_full(poly: WalkPolygon,
                           initial_guess: np.ndarray | None = None) -> PreVertexSolution:
    """Pre-vertices from the side-length conditions, solved by damped Newton.

    Unknowns are the n - 1 log-ratios of pre-vertex gaps; the residual
    matches each predicted relative side length |I_k| / sum|I_j| to the
    polygon's L_k / L_total.  The Newton step uses a finite-difference
    Jacobian with backtracking damping.  When the direct solve stalls,
    whether it started from initial_guess or from the default start, the
    amplitude is ramped: the same walk is solved from the default start at
    a fraction of beta where Newton converges and the result carried
    upward as the next starting point.  Raises ScSolverError when
    the walk has more than MAX_VERTICES finite vertices or when no route
    reaches RESIDUAL_ACCEPT.
    """
    n = poly.n_edges
    if n + 1 > MAX_VERTICES:
        raise ScSolverError(f"walk has {n + 1} vertices; full solver caps at {MAX_VERTICES}")
    alpha = turning_angles(poly).alpha[:-1]
    if n == 1:
        return PreVertexSolution(prevertices=np.array([0.0, 1.0]), alpha=alpha,
                                 residual_norm=0.0, iterations=0, solver="full")

    if initial_guess is not None:
        z0 = np.asarray(initial_guess, dtype=float)
        if len(z0) != n + 1:
            raise ValueError("initial_guess must supply all n + 1 pre-vertices")
    else:
        z0 = _default_start(poly)

    z, rel, iters, ok = _newton_side_solve(poly, z0)
    total = iters
    if not ok and poly.beta > 0.0:
        z2, rel2, extra, ok2 = _amplitude_continuation(poly)
        total += extra
        if ok2 or rel2 < rel:
            z, rel, ok = z2, rel2, ok2
    if not ok:
        raise ScSolverError(
            f"side-length solve stalled at relative residual {rel:.3e}",
            residual=rel)
    return PreVertexSolution(prevertices=z, alpha=alpha,
                             residual_norm=rel, iterations=total, solver="full")


def _amplitude_continuation(poly: WalkPolygon):
    """Solve at a reduced amplitude, then ramp beta back up.

    Halves the amplitude until the cold start converges, then repeatedly
    jumps toward the target amplitude, bisecting the jump on failure.
    Returns (z, rel, iterations, converged); gives up when the ramp needs
    more than CONTINUATION_SOLVES inner solves or the jump underflows.
    """
    total = 0
    f_lo, z_lo = None, None
    frac = 0.5
    for _ in range(8):
        sub = WalkPolygon(times=poly.times, values=poly.values, beta=frac * poly.beta)
        z, rel, iters, ok = _newton_side_solve(sub, _default_start(sub))
        total += iters
        if ok:
            f_lo, z_lo = frac, z
            break
        frac *= 0.5
    if f_lo is None:
        return None, math.inf, total, False

    frac = 1.0
    for _ in range(CONTINUATION_SOLVES):
        sub = WalkPolygon(times=poly.times, values=poly.values, beta=frac * poly.beta)
        z, rel, iters, ok = _newton_side_solve(sub, z_lo)
        total += iters
        if ok:
            if frac == 1.0:
                return z, rel, total, True
            f_lo, z_lo = frac, z
            frac = 1.0
        else:
            frac = 0.5 * (f_lo + frac)
            if frac - f_lo < 1e-3:
                break
    return None, math.inf, total, False


# ---------------------------------------------------------------------------
# Perturbative solver


def lam_log_sin(x):
    """Lam(x) = integral_0^x log|sin(pi u / 2)| du for |x| <= 2, vectorised.

    Odd in x, with the reflection Lam(x) = 2 * Lam(1) - Lam(2 - x) for
    x in (1, 2] and Lam(1) = -log 2.  On [0, 1] the endpoint log
    singularity integrates in closed form and the smooth remainder
    log(sinc(u/2)) is handled by Gauss-Legendre.
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
    if np.any(pos):
        xi = ax[pos]
        u = 0.5 * xi[:, None] * (_LAM_X + 1.0)
        smooth = (np.log(np.sinc(0.5 * u)) @ _LAM_W) * 0.5 * xi
        vals[pos] = smooth + xi * (np.log(0.5 * np.pi * xi) - 1.0)
    vals = np.where(refl, 2.0 * LAM_ONE - vals, vals)
    vals = np.where(x < 0.0, -vals, vals)
    return float(vals[0]) if scalar else vals.reshape(np.shape(x))


def slope_jumps(poly: WalkPolygon) -> np.ndarray:
    """D_k = jump of the scaled walk slope at node t_k, k = 0 .. n.

    The walk is flat outside [0, 1], so the jumps telescope:
    sum_k D_k = 0 and -sum_k D_k min(t, t_k) reproduces the scaled walk.
    """
    slopes = np.diff(poly.scaled_values()) / np.diff(poly.times)
    return np.diff(np.concatenate([[0.0], slopes, [0.0]]))


def solve_prevertices_perturbative(poly: WalkPolygon,
                                   check_residual: bool = False) -> PreVertexSolution:
    """First-order pre-vertices in the walk amplitude.

    Expands around the flat-strip pre-vertices z0_k = sin^2(pi t_{k-1} / 2).
    With D_k the scaled slope jumps and

        K_k(tau) = Lam(tau - t_k) + Lam(tau + t_k)
        c        = -(1 / pi) * sum_k D_k K_k(1)

    the interior corrections are

        xi = -(sin(pi tau) / 2) * (pi c tau + sum_k D_k K_k(tau))

    at tau = t_{l-1} for l = 2 .. n, while xi_1 = xi_{n+1} = 0 keeps the
    endpoints exactly.  Valid to O(beta^2); never raises, but only fills
    residual_norm (via the quadrature of the full solver) when
    check_residual is set.
    """
    t = poly.times
    n = poly.n_edges
    alpha = turning_angles(poly).alpha[:-1]
    z0 = np.sin(0.5 * np.pi * t) ** 2
    d = slope_jumps(poly)
    kk1 = lam_log_sin(1.0 - t) + lam_log_sin(1.0 + t)
    c = -float(d @ kk1) / math.pi
    z = z0.copy()
    if n >= 2:
        tau = t[1:-1]
        kk = lam_log_sin(tau[None, :] - t[:, None]) + lam_log_sin(tau[None, :] + t[:, None])
        s = d @ kk
        xi = -(np.sin(np.pi * tau) / 2.0) * (math.pi * c * tau + s)
        z[1:-1] = z0[1:-1] + xi
    residual = math.nan
    if check_residual:
        if np.any(np.diff(z) <= 0.0):
            residual = math.inf
        else:
            _, residual = _side_residual(z, alpha - 1.0,
                                         poly.edge_lengths() / poly.edge_lengths().sum())
    return PreVertexSolution(prevertices=z, alpha=alpha, residual_norm=residual,
                             iterations=0, solver="perturbative", c_constant=c)


# ---------------------------------------------------------------------------
# Forward map


def _branch_log(w):
    """log with arg in (-pi, 0]: the lower-half-plane branch of the integrand."""
    w = np.asarray(w, dtype=complex)
    theta = np.arctan2(w.imag, w.real)
    theta = np.where(theta > 0.0, theta - 2.0 * np.pi, theta)
    # real positive axis: arctan2 gives 0 which is already the right edge
    theta = np.where((w.imag == 0.0) & (w.real < 0.0), -np.pi, theta)
    return np.log(np.abs(w)) + 1j * theta


def _complex_segment_integral(z, p, j, z_to):
    """integral of prod_i (zeta - z_i)^{p_i} along the straight segment
    z_j -> z_to, where z_to is no nearer to any other pre-vertex than to
    z_j.  The segment then stays in z_j's (convex) Voronoi cell, so it is
    one half-panel of the graded rule anchored at z_j.
    """
    direction = z_to - z[j]
    span = abs(direction)
    if span == 0.0:
        return 0.0 + 0.0j
    unit = direction / span
    others = np.delete(z, j)
    near = float(np.min(np.abs(others - z[j])))
    _, u, w = _graded_rule(np.array([min(span, 0.5 * near)]), np.array([span]), p[j:j + 1])
    zeta = z[j] + unit * u
    # (zeta - z_j)^{p_j} = u^{p_j} * unit^{p_j}; the head weights absorb u^{p_j}
    log_f = _branch_log(zeta[:, None] - others[None, :]) @ np.delete(p, j)
    log_f += p[j] * _branch_log(unit)
    log_f[GJ_POINTS:] += p[j] * np.log(u[GJ_POINTS:])
    return unit * np.dot(w, np.exp(log_f))


class _ForwardMap:
    """phi(z) = A + C * integral_0^z prod (zeta - z_k)^{alpha_k - 1} dzeta
    normalised so the first and last pre-vertices map to 0 and 1."""

    def __init__(self, sol: PreVertexSolution):
        self.z = np.asarray(sol.prevertices, dtype=float)
        self.p = np.asarray(sol.alpha, dtype=float) - 1.0
        a = _abs_side_integrals(self.z, self.p)
        # phase of the integrand is constant on each panel: -pi * sum of the
        # exponents of the pre-vertices still ahead
        tail = np.cumsum(self.p[::-1])[::-1]
        phases = np.exp(-1j * np.pi * np.concatenate([tail[1:], [0.0]]))
        self.panel_integrals = a * phases[:len(a)]
        total = np.sum(self.panel_integrals)
        self.scale = 1.0 / total
        self.vertex_images = self.scale * np.concatenate([[0.0], np.cumsum(self.panel_integrals)])

    def at(self, z_point: complex) -> complex:
        z_point = complex(z_point)
        if z_point.imag > 1e-12:
            raise ValueError("the map is defined on the closed lower half-plane")
        hit = np.nonzero(self.z == z_point)[0]
        if len(hit):
            return complex(self.vertex_images[hit[0]])
        # anchor at the nearest pre-vertex, so the graded rule applies
        j = int(np.argmin(np.abs(self.z - z_point)))
        part = _complex_segment_integral(self.z, self.p, j, z_point)
        return complex(self.vertex_images[j] + self.scale * part)


def sc_forward_map(sol: PreVertexSolution, z_points) -> np.ndarray | complex:
    """Evaluate the solved map at points of the closed lower half-plane.

    Real points inside [z_1, z_{n+1}] land on the walk graph; the first
    and last pre-vertices map to 0 and 1 exactly.  Accepts a scalar or an
    array and matches the input shape.
    """
    fm = _ForwardMap(sol)
    zs = np.asarray(z_points, dtype=complex)
    if zs.ndim == 0:
        return fm.at(complex(zs))
    out = np.array([fm.at(zp) for zp in zs.ravel()], dtype=complex)
    return out.reshape(zs.shape)
