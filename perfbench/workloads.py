"""The three benchmark workloads.

Each workload builds its inputs once (``setup``), then runs identical
passes of fixed work (``run_pass``); only the calls into pathmin inside a
pass are timed.  ``finish`` does a pass's untimed bookkeeping, ``check``
returns the output problems found, and ``summary`` turns the passes into
the workload's own metrics.  All calls go through module attributes
(``pathmin.harmonic.harmonic_bisection_search``, ``pathmin.bench.run_grid``,
``pathmin.cli.main``) so that a Tracer can wrap them.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import pathmin
import pathmin.bench
import pathmin.cli
import pathmin.harmonic
import pathmin.paths
from pathmin.rng import derive_seed


@dataclass(frozen=True)
class Sizes:
    """Work per pass.  FULL is the benchmark; TOY only exercises the code."""

    budget: int = 33                  # CLI default harmonic budget
    bridges: tuple = (3, 1)           # raw lazy-bridge seeds; 3 has a fallback round
    fill_level: int = 12              # dense fill behind each search, for its error
    mcb_n: tuple = tuple(range(1, 15))
    gss_m: tuple = tuple(range(5))
    trials: int = 200
    check_trials: int = 10            # leading trials per cell replayed for checks
    range_level: int = 10
    range_paths: int = 8192
    walk_seed: int = 5                # the walk of `pathmin measure --seed 5`
    walk_edges: tuple = (16, 32)      # cold full solves at beta = 1
    oracle_walk_seed: int = 11
    oracle_edges: int = 6
    oracle_beta: float = 0.5
    walkers: int = 100_000


FULL = Sizes()
TOY = Sizes(budget=5, bridges=(3,), fill_level=6, mcb_n=(1, 2, 3), gss_m=(0, 1),
            trials=4, check_trials=2, range_level=4, range_paths=64,
            walk_edges=(3, 4), oracle_edges=3, walkers=500)


def _digits(x: float) -> str:
    # ten significant digits: stable under harmless last-bit reorderings
    return f"{x:.10g}"


@contextlib.contextmanager
def counted_queries(path):
    """Count the calls made to a lazy bridge's ``query`` inside the block.

    The instance attribute shadows the method, so ``as_oracle(path)`` and
    direct calls both go through the counter; the count is the one item
    of the yielded list.
    """
    query = path.query          # bound now: a traced run's wrapper stays inside
    count = [0]

    def counting(t):
        count[0] += 1
        return query(t)

    path.query = counting
    try:
        yield count
    finally:
        del path.query


class ReadLog(np.ndarray):
    """Grid values that log every index read through ``[]``."""

    def __getitem__(self, idx):
        self.reads.append(np.ravel(np.arange(len(self))[idx]))
        out = super().__getitem__(idx)
        return out.view(np.ndarray) if isinstance(out, np.ndarray) else out


def logged_grid(path):
    """A copy of a GridPath whose values log the indices read from them."""
    view = copy.copy(path)
    values = path.values.view(ReadLog)
    values.reads = []
    object.__setattr__(view, "values", values)
    return view


@dataclass
class Pass:
    seconds: float = 0.0              # timed seconds of this pass
    parts: dict = field(default_factory=dict)
    out: dict = field(default_factory=dict)


class HarmonicSearch:
    """hmc-b33: the default harmonic search on pinned lazy bridges."""

    name = "hmc-b33"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> None:
        # The bridges are pinned, not drawn from the seed: one search takes
        # 13-30 s depending on the bridge and a pass holds only two, so a
        # seed-drawn set would spread run_s far past any usable bound.
        self.sizes = sizes
        self.params = [pathmin.harmonic.HmcParams(beta=1.0, strategy="max_measure",
                                                  solver="full", seed=derive_seed(b, 1))
                       for b in sizes.bridges]

    def run_pass(self) -> Pass:
        p = Pass(out={"reports": [], "queries": [], "paths": []})
        for b, hp in zip(self.sizes.bridges, self.params):
            path = pathmin.paths.new_bridge(b)
            with counted_queries(path) as calls:
                t0 = time.perf_counter()
                rep = pathmin.harmonic.harmonic_bisection_search(path, self.sizes.budget, hp)
                p.seconds += time.perf_counter() - t0
            p.out["reports"].append(rep)
            p.out["queries"].append(calls[0])
            p.out["paths"].append(path)
        return p

    def finish(self, p: Pass) -> None:
        # the dense minimum covers the search's own points as well as the
        # grid, so it can only sit at or below the reported minimum
        dense = []
        for path in p.out.pop("paths"):
            pathmin.paths.fill_dyadic(path, self.sizes.fill_level)
            dense.append(float(path.sampled()[1].min()))
        p.out["dense_min"] = dense

    def check(self, p: Pass) -> list[str]:
        bad = []
        for b, rep, calls, dmin in zip(self.sizes.bridges, p.out["reports"],
                                       p.out["queries"], p.out["dense_min"]):
            mids = rep.params["midpoints"]
            if not calls == rep.queries == self.sizes.budget + 2:
                bad.append(f"bridge {b}: {calls} oracle calls, {rep.queries} reported, "
                           f"expected budget + 2")
            if len(mids) != self.sizes.budget or len(set(mids)) != len(mids):
                bad.append(f"bridge {b}: midpoints are not {self.sizes.budget} distinct times")
            if not all(0.0 < t < 1.0 for t in mids):
                bad.append(f"bridge {b}: midpoint outside (0, 1)")
            if rep.min_value < dmin:
                bad.append(f"bridge {b}: reported minimum below the dense minimum")
        return bad

    def digest(self, p: Pass):
        return [[r.params["midpoints"], r.params["fallbacks"]] for r in p.out["reports"]]

    def counts(self, p: Pass) -> tuple[int, int, int, int]:
        """(attempted, failed, units, degraded) of one pass."""
        reps = p.out["reports"]
        rounds = sum(r.params["budget"] - 1 for r in reps)
        return len(reps), 0, rounds, sum(r.params["fallbacks"] for r in reps)

    def summary(self, passes: list[Pass]) -> dict:
        p = passes[0]
        errs = [r.min_value - d for r, d in zip(p.out["reports"], p.out["dense_min"])]
        searches = sum(len(q.out["reports"]) for q in passes)
        return {
            "search_s": (sum(q.seconds for q in passes) / searches, "s/search"),
            "search_error": (float(np.mean(errs)), "value"),
        }


class GridStudy:
    """grid-study: matched-budget grids of the cheap families, plus ranges."""

    name = "grid-study"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> None:
        b = pathmin.bench
        self.sizes = sizes
        self.seed = seed
        mcb = b.mcb_grid(sizes.mcb_n, trials=sizes.trials, seed=seed)
        self.grids = [
            mcb,
            b.TrialGrid(method="mcb-cauchy", cells=mcb.cells, trials=sizes.trials, seed=seed),
            b.TrialGrid(method="iter-gss", cells=[{"m": m} for m in sizes.gss_m],
                        trials=sizes.trials, seed=seed),
            b.TrialGrid(method="naive-gss", cells=[{}], trials=sizes.trials, seed=seed),
        ]
        self.kinds = (pathmin.paths.BRIDGE, pathmin.paths.CAUCHY)

    def run_pass(self) -> Pass:
        b = pathmin.bench
        p = Pass(parts={"grid_s": 0.0, "range_s": 0.0}, out={"rows": [], "ranges": []})
        for grid in self.grids:
            t0 = time.perf_counter()
            rows = b.run_grid(grid)
            p.parts["grid_s"] += time.perf_counter() - t0
            p.out["rows"].extend(rows)
        for kind in self.kinds:
            t0 = time.perf_counter()
            rd = b.range_distribution(kind, self.sizes.range_level, self.sizes.range_paths,
                                      seed=self.seed)
            p.parts["range_s"] += time.perf_counter() - t0
            p.out["ranges"].append(rd)
        p.seconds = p.parts["grid_s"] + p.parts["range_s"]
        return p

    def finish(self, p: Pass) -> None:
        p.out["trials"] = self._replay()

    def _replay(self) -> list[tuple]:
        """(report, grid minimum, reads) of the leading trials of every
        cell, rerun through run_grid with each search's report kept, for
        the per-trial checks and digest that the row means hide.

        An MCB search reads its grid through a ReadLog, and reads holds the
        indices it actually read; a GSS search counts its own queries, and
        reads is None.
        """
        b = pathmin.bench
        kept = []

        def keep(search, logged):
            def wrapper(path, *args, **kwargs):
                view = logged_grid(path) if logged else path
                rep = search(view, *args, **kwargs)
                reads = np.concatenate(view.values.reads) if logged else None
                kept.append((rep, path.grid_min.value, reads))
                return rep
            return wrapper

        saved = [(name, getattr(b, name))
                 for name in ("mcb_search", "golden_section", "iterative_gss")]
        try:
            for name, search in saved:
                setattr(b, name, keep(search, name == "mcb_search"))
            for grid in self.grids:
                b.run_grid(b.TrialGrid(method=grid.method, cells=grid.cells,
                                       trials=self.sizes.check_trials, seed=grid.seed,
                                       level=grid.level, gss=grid.gss))
        finally:
            for name, search in saved:
                setattr(b, name, search)
        return kept

    def check(self, p: Pass) -> list[str]:
        bad = []
        for r in p.out["rows"]:
            if not r.mean_error >= 0.0:
                bad.append(f"{r.method} {r.cell}: mean error {r.mean_error}")
        expected = self.sizes.check_trials * sum(len(g.cells) for g in self.grids)
        if len(p.out["trials"]) != expected:
            bad.append(f"replay kept {len(p.out['trials'])} of {expected} trials")
        for rep, grid_min, reads in p.out["trials"]:
            if not rep.min_value - grid_min >= 0.0:
                bad.append(f"{rep.method} trial below the grid minimum")
            if reads is not None:
                g, unique = rep.params["g"], rep.params["unique_queries"]
                if not len(reads) == rep.queries == g + 2:
                    bad.append(f"mcb g={g}: {len(reads)} values read, "
                               f"{rep.queries} reported, expected g + 2")
                if unique != len(np.unique(reads)) or unique > g + 2:
                    bad.append(f"mcb g={g}: {unique} unique queries reported, "
                               f"{len(np.unique(reads))} read")
        return bad

    def digest(self, p: Pass):
        rows = [[r.method, r.cell, r.mean_queries, r.failures, _digits(r.mean_error)]
                for r in p.out["rows"]]
        trials = [[rep.argmin_t, rep.queries if reads is None else len(reads)]
                  for rep, _, reads in p.out["trials"]]
        ranges = [_digits(rd.mean_range) for rd in p.out["ranges"]]
        return [rows, trials, ranges]

    def counts(self, p: Pass) -> tuple[int, int, int, int]:
        trials = sum(r.trials for r in p.out["rows"])
        failed = sum(r.failures for r in p.out["rows"])
        return trials, failed, trials, failed

    def summary(self, passes: list[Pass]) -> dict:
        rows = passes[0].out["rows"]
        trials = sum(r.trials for r in rows) * len(passes)
        mcb = [r.mean_error for r in rows if r.method == "mcb"]
        paths = self.sizes.range_paths * len(self.kinds) * len(passes)
        return {
            "trials_per_s": (trials / sum(q.parts["grid_s"] for q in passes), "1/s"),
            "grid_error": (float(np.mean(mcb)), "value"),
            "paths_per_s": (paths / sum(q.parts["range_s"] for q in passes), "1/s"),
        }


class MeasureXval:
    """measure-xval: `pathmin measure` in-process, cold solves plus the oracle."""

    name = "measure-xval"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> None:
        # Walks are pinned (cold solve time varies from 4 s to over 90 s
        # across 32-edge walks); the seed drives the oracle's walkers.
        self.sizes = sizes
        jobs = [(sizes.walk_seed, n, 1.0, None) for n in sizes.walk_edges]
        jobs.append((sizes.oracle_walk_seed, sizes.oracle_edges, sizes.oracle_beta,
                     sizes.walkers))
        self.jobs = []
        for i, (wseed, n, beta, walkers) in enumerate(jobs):
            walk = os.path.join(workdir, f"walk{i}.csv")
            bridge = pathmin.paths.new_bridge(derive_seed(wseed, 100))
            with open(walk, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t", "value"])
                for k in range(n + 1):
                    w.writerow([repr(k / n), repr(bridge.query(k / n))])
            out = os.path.join(workdir, f"measure{i}.csv")
            argv = ["measure", "--walk", walk, "--beta", repr(beta), "--solver", "full",
                    "--seed", str(seed), "--out", out]
            if walkers:
                argv += ["--oracle", str(walkers)]
            self.jobs.append((argv, out, walkers))

    def run_pass(self) -> Pass:
        p = Pass(parts={"measure_s": 0.0, "oracle_s": 0.0}, out={"codes": [], "tables": []})
        for argv, out, walkers in self.jobs:
            if os.path.exists(out):
                os.remove(out)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = pathmin.cli.main(argv)
                dt = time.perf_counter() - t0
            p.seconds += dt
            p.parts["oracle_s" if walkers else "measure_s"] += dt
            if code not in (0, 3):
                raise RuntimeError(f"pathmin {' '.join(argv)} exited with code {code}")
            p.out["codes"].append(code)
        return p

    def finish(self, p: Pass) -> None:
        for (argv, out, walkers), code in zip(self.jobs, p.out["codes"]):
            table = None
            if code == 0:
                with open(out, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                table = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]
                         if rows[0][k] != ""}
            p.out["tables"].append(table)

    def _max_z(self, p: Pass) -> float:
        table = p.out["tables"][-1]
        if table is None:
            return math.nan
        # an edge no walker hit has zero stderr; floor it at one walker
        se = np.maximum(table["mc_stderr"], 1.0 / self.sizes.walkers)
        return float(np.max(np.abs(table["weight"] - table["mc_weight"]) / se))

    def check(self, p: Pass) -> list[str]:
        bad = []
        for (argv, _, _), table in zip(self.jobs, p.out["tables"]):
            if table is None:
                continue
            w = table["weight"]
            if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
                bad.append(f"{argv[2]}: weights negative or not summing to 1")
        return bad

    def digest(self, p: Pass):
        out = []
        for table in p.out["tables"]:
            if table is None:
                out.append(None)
                continue
            item = [_digits(x) for x in table["weight"]]
            if "mc_weight" in table:
                item.append([int(round(x * self.sizes.walkers)) for x in table["mc_weight"]])
            out.append(item)
        return [p.out["codes"], out]

    def counts(self, p: Pass) -> tuple[int, int, int, int]:
        failed = sum(c != 0 for c in p.out["codes"])
        return len(self.jobs), failed, len(self.jobs), failed

    def summary(self, passes: list[Pass]) -> dict:
        n = len(passes)
        return {
            "measure_s": (sum(q.parts["measure_s"] for q in passes) / n, "s"),
            "walkers_per_s": (self.sizes.walkers * n / sum(q.parts["oracle_s"] for q in passes),
                              "1/s"),
            "oracle_max_z": (self._max_z(passes[0]), "sigma"),
        }


WORKLOADS = {w.name: w for w in (HarmonicSearch, GridStudy, MeasureXval)}
