"""Golden-section minimum search over a path oracle, plain and partitioned."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .paths import as_oracle
from .report import SearchReport

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi
INV_PHI2 = 1.0 - INV_PHI                 # 1/phi**2


@dataclass
class GssParams:
    epsilon: float = 0.001
    max_iters: int = 200


def _checked(params: GssParams | None) -> GssParams:
    """params, GssParams() for None; an epsilon that is not finite and >= 0,
    or a max_iters below 1, raises ValueError (the CLI's own bounds)."""
    params = params or GssParams()
    if not (math.isfinite(params.epsilon) and params.epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {params.epsilon}")
    if params.max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {params.max_iters}")
    return params


class _CountingOracle:
    """Wraps a path oracle; counts calls and tracks the best point seen.

    Ties keep the earlier query, so the reported argmin is the first
    evaluation attaining the minimum.
    """

    def __init__(self, path):
        self._fn = as_oracle(path)
        self.count = 0
        self.best_t = math.nan
        self.best_v = math.inf

    def __call__(self, t: float) -> float:
        v = self._fn(t)
        self.count += 1
        if v < self.best_v:
            self.best_v = v
            self.best_t = t
        return v


def _gss_core(oracle, a, b, params, trace=None):
    """Golden-section loop on [a, b]; returns the iteration count.

    Probes sit at a + (b-a)/phi^2 and a + (b-a)/phi; on a tie the left
    interval is kept.  Each iteration shrinks the bracket by 1/phi, moving
    one endpoint by (b-a)/phi^2.  The loop stops once that shift drops
    below params.epsilon or to 0, where the bracket no longer shrinks in
    float arithmetic, or the iteration budget runs out, and the stopping
    iteration skips its replacement probe, so an n-iteration run costs
    exactly n + 1 interior calls on top of the two endpoint evaluations.
    """
    oracle(a)
    oracle(b)
    t1 = a + (b - a) * INV_PHI2
    t2 = a + (b - a) * INV_PHI
    f1 = oracle(t1)
    f2 = oracle(t2)
    iters = 0
    while iters < params.max_iters:
        iters += 1
        left = f1 <= f2   # keep [a, t2] and refresh the left probe, else [t1, b]
        if left:
            shift = b - t2
            b = t2
            t2, f2 = t1, f1
        else:
            shift = t1 - a
            a = t1
            t1, f1 = t2, f2
        if trace is not None:
            trace.append((a, b))
        if shift < params.epsilon or shift == 0.0 or iters >= params.max_iters:
            break
        if left:
            t1 = a + (b - a) * INV_PHI2
            f1 = oracle(t1)
        else:
            t2 = a + (b - a) * INV_PHI
            f2 = oracle(t2)
    return iters


def golden_section(path, interval=(0.0, 1.0), params: GssParams | None = None,
                   trace: list | None = None) -> SearchReport:
    """Minimise a path oracle on an interval by golden-section bracketing.

    `path` may be a lazily-sampled bridge, a grid path (evaluated by
    piecewise-linear interpolation) or any callable of t.  `trace`, if
    given, collects the (a, b) bracket after every iteration.
    """
    params = _checked(params)
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("interval must have positive length")
    oracle = _CountingOracle(path)
    t0 = time.perf_counter()
    iters = _gss_core(oracle, a, b, params, trace)
    elapsed = time.perf_counter() - t0
    return SearchReport(
        argmin_t=oracle.best_t, min_value=oracle.best_v, queries=oracle.count,
        wall_time=elapsed, method="golden-section",
        params={"epsilon": params.epsilon, "max_iters": params.max_iters,
                "interval": [a, b], "iterations": iters})


def iterative_gss(path, m: int, params: GssParams | None = None) -> SearchReport:
    """Golden-section search on each of 2**m equal panels, keeping the best.

    The two endpoints of [0, 1] are evaluated once up front and always
    compete as candidates; every panel then runs a full golden-section
    pass through a shared query counter.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    params = _checked(params)
    oracle = _CountingOracle(path)
    k = 2 ** m
    t0 = time.perf_counter()
    oracle(0.0)
    oracle(1.0)
    total_iters = 0
    for i in range(k):
        total_iters += _gss_core(oracle, i / k, (i + 1) / k, params)
    elapsed = time.perf_counter() - t0
    return SearchReport(
        argmin_t=oracle.best_t, min_value=oracle.best_v, queries=oracle.count,
        wall_time=elapsed, method="iterative-gss",
        params={"m": m, "epsilon": params.epsilon, "max_iters": params.max_iters,
                "iterations": total_iters})
