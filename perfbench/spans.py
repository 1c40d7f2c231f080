"""Span recorder that times pathmin's layers from outside the package.

A Tracer replaces the attributes through which callers reach each layer
(for example ``pathmin.harmonic.solve_prevertices_full``, the name the
harmonic search resolves at call time) with wrappers that record one span
per call: name, start, end and the span that was open when it began.  The
originals are put back when the ``installed`` block ends, so nothing
inside ``src/`` changes.  Layer metrics are derived from the spans and a
few counters read off arguments and return values.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _solve_name(args, kwargs):
    guess = kwargs.get("initial_guess", args[1] if len(args) > 1 else None)
    return "scmap.solve_cold" if guess is None else "scmap.solve_warm"


def _count_solve(counts, name, args, kwargs, out, seconds):
    counts[name + ".iterations"] += out.iterations
    counts[name + ".ok_s"] += seconds


def _count_search(counts, name, args, kwargs, out, seconds):
    counts["harmonic.rounds"] += out.params["budget"] - 1
    counts["harmonic.fallbacks"] += out.params["fallbacks"]


def _count_mcb(counts, name, args, kwargs, out, seconds):
    counts["mcb.descents"] += out.params["g"]
    counts["mcb.unique"] += out.params["unique_queries"]
    counts["mcb.slots"] += out.params["g"] + 2


def _count_golden(counts, name, args, kwargs, out, seconds):
    counts["golden.queries"] += out.queries


def _count_oracle(counts, name, args, kwargs, out, seconds):
    counts["harmonic.oracle.walkers"] += kwargs.get("walkers", args[1] if len(args) > 1 else 0)


def layer_targets(pathmin):
    """(owner, attribute, span name or namer, counter) for every wrapped layer.

    Each attribute is the one the calling module looks up at call time, so
    wrapping it there captures the calls that matter for the workloads.
    """
    h, b, c = pathmin.harmonic, pathmin.bench, pathmin.cli
    return [
        (h, "harmonic_bisection_search", "harmonic.search", _count_search),
        (h, "solve_prevertices_full", _solve_name, _count_solve),
        (pathmin.paths.LazyBridgePath, "query", "paths.query", None),
        (b, "fill_dyadic", "paths.fill_dyadic", None),
        (b, "simulate_cauchy", "paths.simulate_cauchy", None),
        (b, "simulate_bridge_batch", "paths.batch", None),
        (b, "simulate_cauchy_batch", "paths.batch", None),
        (b, "mcb_search", "mcb.search", _count_mcb),
        (b, "golden_section", "golden.search", _count_golden),
        (b, "iterative_gss", "golden.search", _count_golden),
        (b, "derive_seed", "rng.derive_seed", None),
        (c, "derive_seed", "rng.derive_seed", None),
        (b, "run_grid", "bench.run_grid", None),
        (b, "range_distribution", "bench.range", None),
        (c, "edge_measures", "harmonic.edge_measures", None),
        (c, "mc_hitting_oracle", "harmonic.oracle", _count_oracle),
        (c, "main", "cli.main", None),
    ]


class Tracer:
    """In-memory span log for calls into pathmin's layers."""

    def __init__(self, pathmin):
        self._targets = layer_targets(pathmin)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name, counter):
        namer = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            span = namer(args, kwargs)
            idx = len(self.start)
            self.name_id.append(self._id(span))
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[span + ".failed"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                counter(self.counts, span, args, kwargs, out, t1 - t0)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in self._targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        """(name_id, start, end, parent) as numpy arrays."""
        return (np.array(self.name_id, dtype=np.int64), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int64))

    def save(self, path) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its
        children; calls run on one thread, so children never overlap.
        """
        name_id, start, end, parent = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = name_id == i
            out[name] = {"calls": float(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
LAYER_METRICS = {
    "scmap.solve_warm.calls": ("count", "lower"),
    "scmap.solve_warm.s": ("s", "lower"),
    "scmap.solve_warm.iterations": ("count", "lower"),
    "scmap.solve_warm.failed": ("count", "lower"),
    "scmap.solve_warm.s_per_iteration": ("s", "lower"),
    "scmap.solve_cold.calls": ("count", "lower"),
    "scmap.solve_cold.s": ("s", "lower"),
    "scmap.solve_cold.iterations": ("count", "lower"),
    "scmap.solve_cold.failed": ("count", "lower"),
    "scmap.solve_cold.s_per_iteration": ("s", "lower"),
    "scmap.share": ("ratio", "lower"),
    "harmonic.search.self_s": ("s", "lower"),
    "harmonic.rounds": ("count", "lower"),
    "harmonic.fallbacks": ("count", "lower"),
    "harmonic.edge_measures.self_s": ("s", "lower"),
    "harmonic.oracle.calls": ("count", "lower"),
    "harmonic.oracle.s": ("s", "lower"),
    "harmonic.oracle.walkers_per_s": ("1/s", "higher"),
    "paths.query.calls": ("count", "lower"),
    "paths.query.s": ("s", "lower"),
    "paths.fill_dyadic.calls": ("count", "lower"),
    "paths.fill_dyadic.s": ("s", "lower"),
    "paths.simulate_cauchy.s": ("s", "lower"),
    "paths.batch.s": ("s", "lower"),
    "mcb.search.calls": ("count", "lower"),
    "mcb.search.s": ("s", "lower"),
    "mcb.search.descents_per_s": ("1/s", "higher"),
    "mcb.unique_share": ("ratio", "higher"),
    "golden.search.calls": ("count", "lower"),
    "golden.search.s": ("s", "lower"),
    "golden.search.queries": ("count", "lower"),
    "rng.derive_seed.calls": ("count", "lower"),
    "rng.derive_seed.s": ("s", "lower"),
    "bench.run_grid.self_s": ("s", "lower"),
    "bench.range.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.self_share": ("ratio", "higher"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, passes: int, traced_seconds: list[float]) -> dict[str, float]:
    """Every LAYER_METRICS value, per traced pass; layers a workload never
    reaches read 0.  traced_seconds holds the timed seconds of each traced
    pass."""
    tot = tracer.totals()
    cnt = tracer.counts

    def get(name, key):
        return tot.get(name, {}).get(key, 0.0)

    wall = sum(traced_seconds)
    m: dict[str, float] = {}
    for kind in ("warm", "cold"):
        span = f"scmap.solve_{kind}"
        m[span + ".calls"] = get(span, "calls")
        m[span + ".s"] = get(span, "s")
        m[span + ".iterations"] = cnt[span + ".iterations"]
        m[span + ".failed"] = cnt[span + ".failed"]
        m[span + ".s_per_iteration"] = _ratio(cnt[span + ".ok_s"], cnt[span + ".iterations"])
    m["scmap.share"] = _ratio(m["scmap.solve_warm.s"] + m["scmap.solve_cold.s"], wall)
    m["harmonic.search.self_s"] = get("harmonic.search", "self_s")
    m["harmonic.rounds"] = cnt["harmonic.rounds"]
    m["harmonic.fallbacks"] = cnt["harmonic.fallbacks"]
    m["harmonic.edge_measures.self_s"] = get("harmonic.edge_measures", "self_s")
    m["harmonic.oracle.calls"] = get("harmonic.oracle", "calls")
    m["harmonic.oracle.s"] = get("harmonic.oracle", "s")
    m["harmonic.oracle.walkers_per_s"] = _ratio(cnt["harmonic.oracle.walkers"],
                                                m["harmonic.oracle.s"])
    m["paths.query.calls"] = get("paths.query", "calls")
    m["paths.query.s"] = get("paths.query", "s")
    m["paths.fill_dyadic.calls"] = get("paths.fill_dyadic", "calls")
    m["paths.fill_dyadic.s"] = get("paths.fill_dyadic", "s")
    m["paths.simulate_cauchy.s"] = get("paths.simulate_cauchy", "s")
    m["paths.batch.s"] = get("paths.batch", "s")
    m["mcb.search.calls"] = get("mcb.search", "calls")
    m["mcb.search.s"] = get("mcb.search", "s")
    m["mcb.search.descents_per_s"] = _ratio(cnt["mcb.descents"], m["mcb.search.s"])
    m["mcb.unique_share"] = _ratio(cnt["mcb.unique"], cnt["mcb.slots"])
    m["golden.search.calls"] = get("golden.search", "calls")
    m["golden.search.s"] = get("golden.search", "s")
    m["golden.search.queries"] = cnt["golden.queries"]
    m["rng.derive_seed.calls"] = get("rng.derive_seed", "calls")
    m["rng.derive_seed.s"] = get("rng.derive_seed", "s")
    m["bench.run_grid.self_s"] = get("bench.run_grid", "self_s")
    m["bench.range.self_s"] = get("bench.range", "self_s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    m["trace.spans"] = float(len(tracer.start))
    m["trace.self_share"] = _ratio(sum(v["self_s"] for v in tot.values()), wall)
    # totals and counts above are per run; report them per pass
    shares = {"scmap.share", "trace.self_share", "mcb.unique_share"}
    for k in list(m):
        if k not in shares and not k.endswith(("_per_s", "_per_iteration")):
            m[k] /= passes
    m["trace.run_s"] = float(np.median(traced_seconds))
    return {k: m[k] for k in LAYER_METRICS}
