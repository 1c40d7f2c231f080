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
"""
from __future__ import annotations

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
MAX_SUBSEGMENTS = 400        # covers gap ratios up to the log-gap clip box (e^120)

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


def _gj_rule(p: float, cache: dict):
    rule = cache.get(p)
    if rule is None:
        # weight (1 + x)^p: singular behaviour absorbed at the left node
        rule = roots_jacobi(GJ_POINTS, 0.0, p)
        cache[p] = rule
    return rule


def _half_segments(z, p, j_sing, s, span, direction, cache):
    """Quadrature segments covering the half-panel from singular endpoint s.

    Yields (nodes, weights, absorbed_index) triples.  The first segment is
    Gauss-Jacobi with the |x - z_j|^{p_j} factor absorbed into the weight;
    the rest are Gauss-Legendre panels marching toward the panel midpoint,
    each no longer than half its distance to the nearest pre-vertex so the
    integrand stays analytic well beyond the panel.
    """
    others = np.abs(np.delete(z, j_sing) - s)
    d = float(np.min(others)) if len(others) else span
    length = min(span, 0.5 * d)
    if length <= 0.0:
        raise ScSolverError("degenerate panel: coincident pre-vertices")
    xi, w = _gj_rule(p[j_sing], cache)
    half = 0.5 * length
    nodes = s + direction * half * (1.0 + xi)
    yield nodes, w * half ** (p[j_sing] + 1.0), j_sing

    covered = length
    for _ in range(MAX_SUBSEGMENTS):
        if covered >= span * (1.0 - 1e-14):
            return
        x0 = s + direction * covered
        d0 = float(np.min(np.abs(z - x0)))
        length = min(span - covered, 0.5 * d0)
        if covered + length == covered:
            # an underflow-narrow sliver next to a crowded pre-vertex; its
            # mass is O(length^(1+p)) and beyond float resolution, so drop it
            return
        half = 0.5 * length
        nodes = x0 + direction * half * (_GL_X + 1.0)
        yield nodes, _GL_W * half, -1
        covered += length
    raise ScSolverError("panel subdivision did not terminate")


def _panel_segments(z, p, k, cache):
    a, b = z[k], z[k + 1]
    span = 0.5 * (b - a)
    yield from _half_segments(z, p, k, a, span, +1.0, cache)
    yield from _half_segments(z, p, k + 1, b, span, -1.0, cache)


def _abs_side_integrals(z, p, cache) -> np.ndarray:
    """integral over each panel [z_k, z_{k+1}] of prod_j |x - z_j|^{p_j}.

    All segments of all panels are batched into one log-product matrix
    evaluation; the absorbed singular factor of each Gauss-Jacobi segment
    is divided back out in log space.
    """
    n_pan = len(z) - 1
    seg_panel = []
    seg_nodes = []
    seg_weights = []
    seg_absorbed = []
    for k in range(n_pan):
        for nodes, weights, j_abs in _panel_segments(z, p, k, cache):
            seg_panel.append(k)
            seg_nodes.append(nodes)
            seg_weights.append(weights)
            seg_absorbed.append(j_abs)
    xs = np.concatenate(seg_nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.log(np.abs(xs[:, None] - z[None, :])) @ p
        out = np.zeros(n_pan)
        pos = 0
        for k, nodes, weights, j_abs in zip(seg_panel, seg_nodes, seg_weights,
                                            seg_absorbed):
            m = len(nodes)
            lf = log_f[pos:pos + m]
            if j_abs >= 0:
                lf = lf - p[j_abs] * np.log(np.abs(nodes - z[j_abs]))
            out[k] += float(np.dot(weights, np.exp(lf)))
            pos += m
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


def _side_residual(z, p, targets, cache):
    """(residual vector, max relative error) of the side-length conditions.

    Predicted and target fractions both sum to one, so the last equation
    is redundant and the residual keeps only the first n - 1 components.
    """
    a = _abs_side_integrals(z, p, cache)
    pred = a / a.sum()
    rel = float(np.max(np.abs(pred / targets - 1.0)))
    return (pred - targets)[:-1], rel


def _default_start(poly: WalkPolygon) -> np.ndarray:
    if poly.beta <= PERT_BETA_MAX:
        z = solve_prevertices_perturbative(poly).prevertices
        if np.all(np.diff(z) > 0.0):
            return z
    return np.sin(0.5 * np.pi * poly.times) ** 2


def _newton_side_solve(poly: WalkPolygon, z0: np.ndarray, cache: dict):
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
    f, rel = _side_residual(_z_from_log_gaps(y), p, targets, cache)
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
                f_j, _ = _side_residual(_z_from_log_gaps(y_j), p, targets, cache)
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
                f_new, rel_new = _side_residual(_z_from_log_gaps(y_new), p, targets, cache)
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
    Jacobian with backtracking damping.  When the direct solve stalls and
    no initial_guess was supplied, the amplitude is ramped: the same walk
    is solved at a fraction of beta where Newton converges and the result
    carried upward as the next starting point.  Raises ScSolverError when
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

    cache: dict = {}
    z, rel, iters, ok = _newton_side_solve(poly, z0, cache)
    total = iters
    if not ok and initial_guess is None and poly.beta > 0.0:
        z2, rel2, extra, ok2 = _amplitude_continuation(poly, cache)
        total += extra
        if ok2 or rel2 < rel:
            z, rel, ok = z2, rel2, ok2
    if not ok:
        raise ScSolverError(
            f"side-length solve stalled at relative residual {rel:.3e}",
            residual=rel)
    return PreVertexSolution(prevertices=z, alpha=alpha,
                             residual_norm=rel, iterations=total, solver="full")


def _amplitude_continuation(poly: WalkPolygon, cache: dict):
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
        z, rel, iters, ok = _newton_side_solve(sub, _default_start(sub), cache)
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
        z, rel, iters, ok = _newton_side_solve(sub, z_lo, cache)
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
                                         poly.edge_lengths() / poly.edge_lengths().sum(), {})
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


def _complex_segment_integral(z, p, j_anchor, z_from, z_to, cache):
    """integral of prod_j (zeta - z_j)^{p_j} along the straight segment
    z_from -> z_to, where z_from = z[j_anchor] is the only pre-vertex the
    segment touches.  Same compound rule as the real panels: Gauss-Jacobi
    absorbs sigma^{p_j} at the anchor, Gauss-Legendre panels march the rest.
    """
    direction = z_to - z_from
    span = abs(direction)
    if span == 0.0:
        return 0.0 + 0.0j
    unit = direction / span
    others = np.delete(z, j_anchor)
    d = float(np.min(np.abs(others - z_from))) if len(others) else span
    total = 0.0 + 0.0j
    p_anchor = p[j_anchor]
    length = min(span, 0.5 * d)
    xi, w = _gj_rule(p_anchor, cache)
    half = 0.5 * length
    sigma = half * (1.0 + xi)
    zeta = z_from + unit * sigma
    log_rest = np.zeros(len(sigma), dtype=complex)
    for j in range(len(z)):
        if j == j_anchor:
            continue
        log_rest += p[j] * _branch_log(zeta - z[j])
    # absorbed factor: (sigma * unit)^{p_anchor} = sigma^{p_anchor} * unit^{p_anchor}
    phase = np.exp(p_anchor * _branch_log(np.asarray(unit)))
    total += half ** (p_anchor + 1.0) * phase * np.dot(w, np.exp(log_rest)) * unit
    covered = length
    for _ in range(MAX_SUBSEGMENTS):
        if covered >= span * (1.0 - 1e-14):
            break
        x0 = z_from + unit * covered
        d0 = float(np.min(np.abs(z - x0)))
        length = min(span - covered, 0.5 * d0)
        half = 0.5 * length
        sigma = covered + half * (_GL_X + 1.0)
        zeta = z_from + unit * sigma
        log_full = np.zeros(len(sigma), dtype=complex)
        for j in range(len(z)):
            log_full += p[j] * _branch_log(zeta - z[j])
        total += half * np.dot(_GL_W, np.exp(log_full)) * unit
        covered += length
    else:
        raise ScSolverError("segment subdivision did not terminate")
    return total


class _ForwardMap:
    """phi(z) = A + C * integral_0^z prod (zeta - z_k)^{alpha_k - 1} dzeta
    normalised so the first and last pre-vertices map to 0 and 1."""

    def __init__(self, sol: PreVertexSolution):
        self.z = np.asarray(sol.prevertices, dtype=float)
        self.p = np.asarray(sol.alpha, dtype=float) - 1.0
        self.cache: dict = {}
        a = _abs_side_integrals(self.z, self.p, self.cache)
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
        if z_point.imag == 0.0:
            x = z_point.real
            hit = np.nonzero(self.z == x)[0]
            if len(hit):
                return complex(self.vertex_images[hit[0]])
            if self.z[0] < x < self.z[-1]:
                k = int(np.searchsorted(self.z, x) - 1)
                part = _complex_segment_integral(self.z, self.p, k, self.z[k], x, self.cache)
                return complex(self.vertex_images[k] + self.scale * part)
        j = int(np.argmin(np.abs(self.z - z_point)))
        part = _complex_segment_integral(self.z, self.p, j, self.z[j], z_point, self.cache)
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
