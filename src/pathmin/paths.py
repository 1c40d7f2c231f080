"""Stochastic paths on [0, 1]: lazy Brownian bridges, dyadic grids, Cauchy walks.

A LazyBridgePath materialises a Brownian bridge one query at a time; any
query order yields a consistent realisation because each new point is drawn
from the bridge law conditioned on its two nearest sampled neighbours.
GridPath is the dense snapshot on a dyadic grid, used as the ground-truth
oracle by the search benchmarks.  Cauchy paths are simulated directly on
the grid with exact inverse-CDF increments.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .report import write_csv, write_json
from .rng import make_rng

BRIDGE = "brownian_bridge"
CAUCHY = "cauchy"
MAX_LEVEL = 24      # largest grid level: 2**24 + 1 float64 values take 128 MiB

# inverse-CDF sampling stops once |cdf(v) - p| falls below this
PPF_RESIDUAL_TOL = 1e-10


class GridMin(NamedTuple):
    time: float
    value: float


class LazyBridgePath:
    """Brownian bridge on [0, 1], sampled lazily.

    The path is pinned at (0, 0) and (1, 0).  A query at an unsampled
    time t finds the nearest sampled neighbours t_l < t < t_r with values
    v_l, v_r and draws from the conditional bridge law (_bridge_law)

        mean = v_l + (t - t_l) * (v_r - v_l) / (t_r - t_l)
        var  = (t - t_l) * (t_r - t) / (t_r - t_l)

    The draw is stored, so re-querying any time returns the same value and
    the realisation is a function of the generator's state and the query
    sequence only.  new_bridge(seed) is the seeded entry point.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._times = np.array([0.0, 1.0])       # sampled times in order, and their values;
        self._values = np.array([0.0, 0.0])      # replaced on each draw, never changed in place

    def sampled(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the sampled times and values, in time order."""
        return self._times.copy(), self._values.copy()

    def query(self, t: float) -> float:
        """Value of the bridge at t, sampling it first if needed."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"query time {t} outside [0, 1]")
        times, values = self._times, self._values
        i = int(times.searchsorted(t))
        if times[i] == t:      # t <= 1, and 1 is always sampled
            return float(values[i])
        v, var = _bridge_law(t, times[i - 1], times[i], values[i - 1], values[i])
        v += math.sqrt(var) * self.rng.standard_normal()     # the mean, plus its draw
        self._times, self._values = _inserted(times, i, t), _inserted(values, i, v)
        return float(v)

    def _fill(self, level: int) -> np.ndarray:
        """Values at k / 2**level, one draw per level: a coarser time splits any two new ones."""
        n = grid_steps(level)
        for d in range(1, level + 1):
            self._draw(np.arange(1, 2 ** d, 2) / 2 ** d)
        if len(self._times) == n + 1:    # the store is the grid
            return self._values.copy()
        return self._values[np.searchsorted(self._times, dyadic_times(level))]

    def _draw(self, t: np.ndarray) -> None:
        """Sample those of the sorted times t not yet sampled, each from its two
        store neighbours, between which no other time of t may lie."""
        times, values = self._times, self._values
        i = np.searchsorted(times, t)
        new = times[i] != t
        t, i = t[new], i[new]
        v, var = _bridge_law(t, times[i - 1], times[i], values[i - 1], values[i])
        v += np.sqrt(var) * self.rng.standard_normal(len(t))     # the mean, plus its draw
        self._times, self._values = np.insert(times, i, t), np.insert(values, i, v)


def _inserted(a, i, x):
    """A copy of a with x inserted before index i; cheaper than np.insert for one value."""
    out = np.empty(len(a) + 1)
    out[:i], out[i], out[i + 1:] = a[:i], x, a[i:]
    return out


def _bridge_law(t, tl, tr, vl, vr):
    """Mean and variance at t of a bridge through (tl, vl) and (tr, vr), floats or arrays."""
    return vl + (t - tl) * (vr - vl) / (tr - tl), (t - tl) * (tr - t) / (tr - tl)


def new_bridge(seed: int) -> LazyBridgePath:
    """Fresh lazily-sampled Brownian bridge drawing from make_rng(seed)."""
    return LazyBridgePath(make_rng(seed))


@dataclass(frozen=True)
class GridPath:
    """A BRIDGE or CAUCHY path's values at the 2**level + 1 dyadic times
    k / 2**level; the times derive from the level (dyadic_times), unstored."""

    level: int
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in (BRIDGE, CAUCHY):
            raise ValueError(f"unknown path kind '{self.kind}'")
        n = grid_steps(self.level)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.values) != n + 1:
            raise ValueError(f"level {self.level} grid needs {n + 1} points")
        if self.values[0] != 0.0:
            raise ValueError("grid paths start at 0")
        if self.kind == BRIDGE and self.values[-1] != 0.0:
            raise ValueError("bridge grid paths are pinned to 0 at t = 1")

    @functools.cached_property
    def times(self) -> np.ndarray:
        return dyadic_times(self.level)

    @property
    def grid_min(self) -> GridMin:
        """Grid minimum; ties go to the earliest time attaining it."""
        i = int(np.argmin(self.values))
        return GridMin(i / 2 ** self.level, float(self.values[i]))   # times[i], exactly

    def interp(self, t: float) -> float:
        """Piecewise-linear value of the grid path at an arbitrary time."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"time {t} outside [0, 1]")
        n = len(self.values) - 1
        x = t * n
        i = int(x)
        if i >= n:
            return float(self.values[n])
        frac = x - i
        return float(self.values[i] + frac * (self.values[i + 1] - self.values[i]))


def grid_steps(level: int) -> int:
    """2**level, the steps of a level-`level` grid, which every grid producer
    takes from here before it allocates; a level outside 0..MAX_LEVEL raises ValueError."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"grid level {level} outside 0..{MAX_LEVEL}")
    return 2 ** level


def dyadic_times(level: int) -> np.ndarray:
    """The 2**level + 1 grid times k / 2**level, exact binary floats."""
    n = grid_steps(level)
    return np.arange(n + 1) / float(n)


def fill_dyadic(path_or_seed: LazyBridgePath | int, level: int) -> GridPath:
    """Sample every time k/2**level of a pinned bridge and snapshot its values.

    An int seed gives simulate_bridge_batch(seed, level, 1)[0].  A LazyBridgePath
    keeps what it has sampled and draws the rest one dyadic level per draw, bit
    for bit as query() would breadth-first, left to right.  A fresh new_bridge(seed)
    draws as the batch of its seed does but forms each mean and variance from its
    neighbours, so the two agree to an ulp, not bitwise.  The grid records no seed.
    """
    values = (path_or_seed._fill(level) if isinstance(path_or_seed, LazyBridgePath)
              else simulate_bridge_batch(path_or_seed, level, 1)[0])
    return GridPath(level=level, values=values, kind=BRIDGE)


def simulate_bridge_batch(seed: int, level: int, count: int) -> np.ndarray:
    """(count, 2**level + 1) array of independent pinned-bridge grid values,
    each level drawn into it in place, so a batch peaks at twice its result."""
    rng = make_rng(seed)
    v = np.zeros((count, grid_steps(level) + 1))
    for d in range(1, level + 1):
        h = 2 ** (level - d)
        v[:, h::2 * h] = 0.5 * (v[:, :-h:2 * h] + v[:, 2 * h::2 * h]) + (
            math.sqrt(2.0 ** -(d + 1)) * rng.standard_normal((count, 2 ** (d - 1))))
    return v


def simulate_cauchy(seed: int, level: int) -> GridPath:
    """Cauchy process on the dyadic grid: the one path of
    simulate_cauchy_batch(seed, level, 1)."""
    return GridPath(level=level, values=simulate_cauchy_batch(seed, level, 1)[0], kind=CAUCHY)


def simulate_cauchy_batch(seed: int, level: int, count: int) -> np.ndarray:
    """(count, 2**level + 1) array of independent Cauchy grid values.

    Increments are exact in law: each of the 2**level increments over a
    step h = 2**-level is h times a standard Cauchy draw of
    cauchy_from_uniform, the inverse CDF of the Cauchy(0, h) law.  The
    increments are formed in place in the uniforms' array, so a batch peaks
    at twice its result.
    """
    rng = make_rng(seed)
    n = grid_steps(level)
    u = cauchy_from_uniform(rng.random((count, n)))
    u /= n
    out = np.zeros((count, n + 1))
    np.cumsum(u, axis=1, out=out[:, 1:])
    return out


def cauchy_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard Cauchy draws tan(pi * (u - 1/2)) from uniforms u on [0, 1), in place;
    returns u.  This inverts the Cauchy CDF 1/2 + atan(x) / pi."""
    u -= 0.5
    u *= np.pi
    return np.tan(u, out=u)


def as_oracle(path) -> Callable[[float], float]:
    """Uniform callable view of a path: t in [0, 1] -> value."""
    if isinstance(path, LazyBridgePath):
        return path.query
    if isinstance(path, GridPath):
        return path.interp
    if callable(path):
        return path
    raise TypeError(f"cannot evaluate object of type {type(path).__name__} as a path")


# ---------------------------------------------------------------------------
# Cauchy bridge marginal


class CauchyBridgeCdf:
    """Law of a Cauchy bridge at its midpoint, parametrised by half-span u.

    For a Cauchy process conditioned on its endpoints, the centred midpoint
    value v over a window of half-width u has density
    f1(u + v) * f1(u - v) / f2(2u), with f_s the Cauchy(0, s) density.  The
    CDF integrates in closed form:

        G(u, v) = 1/2 + [log(((u+v)^2 + 1) / ((u-v)^2 + 1))
                         + 2u (atan(u+v) - atan(u-v))] / (4 pi u)

    The log ratio is evaluated as log1p(4uv / ((u-v)^2 + 1)) to keep the
    tails cancellation-safe.
    """

    def __init__(self, u: float):
        u = float(u)
        if not u > 0.0:
            raise ValueError("half-span u must be positive")
        self.u = u

    def cdf(self, v):
        u = self.u
        v = np.asarray(v, dtype=float)
        log_term = np.log1p(4.0 * u * v / ((u - v) ** 2 + 1.0))
        atan_term = 2.0 * u * (np.arctan(u + v) - np.arctan(u - v))
        out = (log_term + atan_term) / (4.0 * np.pi * u) + 0.5
        return float(out) if out.ndim == 0 else out

    def ppf(self, p: float) -> float:
        """Quantile by bisection of a bracket, the cdf being monotone, down to
        a width of 2 (1e-14 + 8.9e-16 |v|); |cdf(v) - p| <= 1e-10."""
        p = float(p)
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie strictly inside (0, 1)")
        lo, hi = -1.0, 1.0
        while self.cdf(lo) > p:
            lo *= 8.0
        while self.cdf(hi) < p:
            hi *= 8.0
        v = 0.5 * (lo + hi)
        while hi - lo > 2.0 * (1e-14 + 8.9e-16 * abs(v)):
            lo, hi = (v, hi) if self.cdf(v) < p else (lo, v)
            v = 0.5 * (lo + hi)
        if abs(self.cdf(v) - p) > PPF_RESIDUAL_TOL:
            raise RuntimeError(f"quantile solve residual above {PPF_RESIDUAL_TOL}")
        return float(v)


# ---------------------------------------------------------------------------
# Grid I/O


def save_grid_csv(grid: GridPath, out_path: str, extra_meta: dict | None = None) -> None:
    """Write 't,value' rows at 17 significant digits plus a JSON sidecar.

    The sidecar lands at '<out_path>.meta.json' and holds {level, kind} with
    extra_meta's entries merged on top; a grid records no seed, so a caller
    that drew it from one puts it in extra_meta.
    """
    write_csv(out_path, ["t", "value"], zip(grid.times, grid.values))
    write_json(f"{out_path}.meta.json",
               {"level": grid.level, "kind": grid.kind, **(extra_meta or {})})


def load_grid_csv(path: str) -> GridPath:
    """Read a grid CSV written by save_grid_csv; its sidecar's level and kind
    are required and its other entries ignored.  Bad input raises ValueError."""
    times, values = load_walk_csv(path)
    with open(f"{path}.meta.json") as fh:
        meta = json.load(fh)
    level = meta.get("level") if isinstance(meta, dict) else None
    # type(), not isinstance(): a JSON true loads as a bool, which is an int subclass
    if type(level) is not int or level < 0 or meta.get("kind") not in (BRIDGE, CAUCHY):
        raise ValueError(f"{path}: sidecar needs a 'level' >= 0 and a kind {BRIDGE} or {CAUCHY}")
    # 2**level <= rows - 1 < 2**(level + 1) first, so a corrupt level allocates nothing
    if (len(times) - 1) >> level != 1 or not np.array_equal(times, dyadic_times(level)):
        raise ValueError(f"{path}: times are not the level-{level} grid k / 2**{level}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: grid values must be finite")
    return GridPath(level=level, values=values, kind=meta["kind"])


def load_walk_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a bare 't,value' CSV into time and value arrays.

    Malformed rows raise ValueError naming the offending line number.
    """
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a 't,value' header")
        if [c.strip() for c in header[:2]] != ["t", "value"]:
            raise ValueError(f"{path}: line 1: expected 't,value' header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: line {lineno}: expected two columns")
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse '{','.join(row[:2])}'"
                ) from None
    return np.array(times), np.array(values)
