"""Command-line front end: simulate, search, measure, bench, range.

Every command requires an explicit --seed and writes one data file,
'<out>', and one meta record, so a run can be reproduced from its
artifacts.  meta holds the tool, version, command and seed, and in 'params'
each other option the run read that no other record of the artifact holds.
search's report names its method in 'method', as --method spells it,
embeds meta and keeps the options its method read in its own 'params';
the other commands write a CSV and a '<out>.meta.json' sidecar
(save_grid_csv puts the grid's level and kind in simulate's), and range
also writes its histogram to '<out>.hist.csv'.
Only argparse recognises options, by full name (allow_abbrev=False), and
--config entries reach it as '--KEY=VALUE' flags.  Each option's valid
range is declared once, on the option, by its argparse type (_bounded for
ints, paths.MAX_LEVEL capping grid levels and panel exponents), so flags
and --config entries are checked alike before any command runs.  Each
trial input has one source: search takes --path or --level (and --r
defaults to that level), measure --walk or --walk-nodes.  search and bench
take the grid method names from bench, search and measure the solver
names and walk caps from harmonic.
Exit codes: 0 success, 2 usage or invalid arguments, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .bench import (GRID_KINDS, TrialGrid, mcb_grid, range_distribution, run_grid, run_trial,
                    save_bench_csv, save_range_csv)
from .golden import GssParams
from .harmonic import SOLVER_EDGES, edge_measures, mc_hitting_oracle, save_measures_csv
from .paths import (BRIDGE, CAUCHY, MAX_LEVEL, fill_dyadic, load_grid_csv, load_walk_csv,
                    new_bridge, save_grid_csv, simulate_cauchy)
from .report import write_json
from .rng import derive_seed, make_rng
from .scmap import WalkPolygon

KIND_ALIASES = {"bridge": BRIDGE, "brownian_bridge": BRIDGE, "cauchy": CAUCHY}
MAX_WALK_EDGES = max(SOLVER_EDGES.values())   # longest walk any solver takes


def _parse_int_list(text: str):
    """'1..8' -> range(1, 9); '1,3,5' -> [1, 3, 5]; '4' -> [4]."""
    text = text.strip()
    if ".." in text:
        lo, hi = (int(x) for x in text.split("..", 1))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range '{text}'")
        return range(lo, hi + 1)
    return [int(p) for p in text.split(",")]


def _bounded(what: str, lo: int, hi: float = math.inf, listed: bool = False):
    """argparse type of an int option that runs from lo to hi.  A listed
    option holds a list of them ('1..8', '2,4,6' or '4'), checked up to the
    first entry out of range and kept as typed, so meta records the text."""
    def parse(text: str):
        values = _parse_int_list(text) if listed else [int(text)]
        for value in values:
            if not lo <= value <= hi:
                upper = f" and <= {hi}" if hi < math.inf else ""
                raise argparse.ArgumentTypeError(f"{what} must be >= {lo}{upper}, got {value}")
        return text if listed else values[0]
    parse.__name__ = "int list" if listed else "int"   # argparse's "invalid int value"
    return parse


def _finite(low: str):
    """argparse type of a finite float option that is > 0 or >= 0 (low)."""
    def parse(text: str) -> float:
        value = float(text)
        if not (value > 0.0 if low == "> 0" else value >= 0.0) or value == math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and {low}, got {value}")
        return value
    parse.__name__ = "float"
    return parse


_grid_level = _bounded("grid level", 1, MAX_LEVEL)


def _meta(args, *owned, **extra) -> dict:
    """The meta record: tool, version, command, seed and extra, and in 'params'
    each other option but the owned ones, held by another record or unread."""
    skip = {"func", "config", "command", "seed", *owned}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return {"tool": "pathmin", "version": __version__, "command": args.command,
            "seed": args.seed, "params": params, **extra}


def _write_meta(args, *owned, **extra) -> None:
    """Write the command's meta record to its '<out>.meta.json' sidecar."""
    write_json(f"{args.out}.meta.json", _meta(args, *owned, **extra))


def cmd_simulate(args) -> int:
    kind = KIND_ALIASES[args.kind]
    grid = (fill_dyadic if kind == BRIDGE else simulate_cauchy)(args.seed, args.level)
    save_grid_csv(grid, args.out, extra_meta=_meta(args, "level", "kind"))
    gm = grid.grid_min
    print(f"{kind} level {args.level}: {len(grid.values)} points, "
          f"grid min {gm.value:.6g} at t = {gm.time:.6g} -> {args.out}")
    return 0


def cmd_search(args) -> int:
    path = load_grid_csv(args.path) if args.path else None
    args.level = path.level if args.path else args.level or 10
    cell = {"m": args.m, "r": args.r or args.level, "g": args.g, "budget": args.budget,
            "beta": args.beta, "solver": args.solver}
    gss = GssParams(epsilon=args.epsilon, max_iters=args.max_iters)
    rep, grid = run_trial(args.method, cell, args.seed, args.level, gss, path)
    if rep.params.get("fallbacks"):
        print(f"warning: {rep.params['fallbacks']} of {args.budget - 1} rounds fell "
              f"back to uniform weights", file=sys.stderr)
    gm = grid.grid_min
    payload = {**dataclasses.asdict(rep), "grid_min": {"time": gm.time, "value": gm.value},
               "error_vs_grid_min": rep.min_value - gm.value,
               "meta": _meta(args, "method", *cell, "epsilon", "max_iters")}   # rep holds them
    write_json(args.out, payload)
    print(f"{args.method}: min {rep.min_value:.6g} at t = {rep.argmin_t:.6g} "
          f"({rep.queries} queries) -> {args.out}")
    return 0


def _load_polygon(args) -> WalkPolygon:
    if args.walk:
        times, values = load_walk_csv(args.walk)
    else:
        n = args.walk_nodes or 6
        path = new_bridge(derive_seed(args.seed, 100))
        times = np.arange(n + 1) / float(n)
        values = np.array([path.query(t) for t in times])
    return WalkPolygon(times=times, values=values, beta=args.beta)


def cmd_measure(args) -> int:
    poly = _load_polygon(args)
    args.walk_nodes = poly.n_edges
    weights = edge_measures(poly, solver=args.solver)
    oracle = None
    if args.oracle is not None:
        oracle = mc_hitting_oracle(poly, walkers=args.oracle, dt=args.dt,
                                   rng=make_rng(derive_seed(args.seed, 1)))
    t = poly.times
    save_measures_csv(t, weights, args.out, oracle=oracle)
    _write_meta(args, *(() if args.oracle else ("dt",)))   # only the oracle reads --dt
    top = int(np.argmax(weights))
    line = (f"{poly.n_edges} edges, beta = {poly.beta}: heaviest edge {top + 1} "
            f"on [{t[top]:.6g}, {t[top + 1]:.6g}] w = {weights[top]:.6g}")
    if oracle is not None:
        mc_weight, mc_stderr = oracle
        line += f" (mc {mc_weight[top]:.6g} +- {mc_stderr[top]:.6g})"
    print(f"{line} -> {args.out}")
    return 0


def cmd_bench(args) -> int:
    gss = GssParams(epsilon=args.epsilon, max_iters=args.max_iters)
    if args.method in ("mcb", "mcb-cauchy"):
        if not args.n:
            raise ValueError("--n is required for bisection benchmarks")
        cells = mcb_grid(_parse_int_list(args.n)).cells
        unread = ("level", "epsilon", "max_iters", "m")   # the CSV gives each cell's l, r, g
    elif args.method == "naive-gss":
        cells, unread = [{}], ("m", "n")
    elif not args.m:
        raise ValueError("--m is required for iter-gss benchmarks")
    else:
        cells, unread = [{"m": m} for m in _parse_int_list(args.m)], ("n",)
    grid = TrialGrid(method=args.method, cells=cells, trials=args.trials,
                     seed=args.seed, level=args.level, gss=gss)
    rows = run_grid(grid)
    save_bench_csv(rows, args.out)
    _write_meta(args, *unread)
    print(f"{args.method}: {len(rows)} cells x {args.trials} trials -> {args.out}")
    return 0


def cmd_range(args) -> int:
    kind = KIND_ALIASES[args.kind]
    rd = range_distribution(kind, args.level, args.paths, bins=args.bins,
                            seed=args.seed)
    save_range_csv(rd, args.out)
    med = float(np.median(rd.ranges))
    _write_meta(args, mean_range=rd.mean_range, median_range=med)
    print(f"{kind} level {args.level}: {args.paths} paths, mean range "
          f"{rd.mean_range:.6g}, median {med:.6g} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # exit_on_error=False: main prints an out-of-range value as one 'error:' line
    parser = argparse.ArgumentParser(
        prog="pathmin", allow_abbrev=False, exit_on_error=False,
        description="Query-budgeted minimum search on stochastic paths.")
    parser.add_argument("--version", action="version", version=f"pathmin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary, allow_abbrev=False, exit_on_error=False)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=_bounded("seed", 0), required=True,
                       help="root seed; all randomness derives from it")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--config", default=None,
                       help="JSON file of option values, read as flags; explicit flags win")
        return p

    def gss_options(p):
        p.add_argument("--epsilon", type=_finite(">= 0"), default=0.001, help="finite and >= 0")
        p.add_argument("--max-iters", type=_bounded("iteration cap", 1), default=200, help=">= 1")

    levels = f"1..{MAX_LEVEL}"
    p = command("simulate", cmd_simulate, "simulate one grid path and write it as CSV")
    p.add_argument("--kind", choices=sorted(KIND_ALIASES), default="bridge")
    p.add_argument("--level", type=_grid_level, default=10, help=f"dyadic grid level, {levels}")

    p = command("search", cmd_search, "run one budgeted minimum search")
    p.add_argument("--method", choices=[*GRID_KINDS, "harmonic"], required=True,
                   help="mcb-cauchy simulates a Cauchy path, the others a bridge")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--path", default=None,
                        help="grid CSV to search instead of simulating a path")
    source.add_argument("--level", type=_grid_level, default=None,
                        help=f"grid level of every method (harmonic: its reference grid), "
                             f"{levels}; default 10, or the --path grid's")
    p.add_argument("--m", type=_bounded("panel exponent", 0, MAX_LEVEL), default=3,
                   help=f"iter-gss: 2**m panels, m in 0..{MAX_LEVEL}")
    gss_options(p)
    p.add_argument("--r", type=_bounded("descent depth", 1, MAX_LEVEL), default=None,
                   help="mcb: descent depth, 1..level; default the grid level")
    p.add_argument("--g", type=_bounded("descent count", 1, 2 ** MAX_LEVEL), default=1024,
                   help=f"mcb: descent count, 1..2**{MAX_LEVEL}")
    p.add_argument("--budget", type=_bounded("query budget", 1, MAX_WALK_EDGES), default=33,
                   help="harmonic: midpoints, " + " or ".join(
                       f"1..{cap} ({solver} solver)" for solver, cap in SOLVER_EDGES.items()))
    p.add_argument("--beta", type=_finite(">= 0"), default=1.0,
                   help="harmonic: amplitude, finite and >= 0")
    p.add_argument("--solver", choices=list(SOLVER_EDGES), default="full",
                   help="harmonic: pre-vertex solver")

    p = command("measure", cmd_measure, "harmonic edge weights of a walk polygon")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--walk", default=None, help="CSV of walk nodes (t,value)")
    source.add_argument("--walk-nodes", type=_bounded("walk edge count", 2, MAX_WALK_EDGES),
                        help=f"edges, 2..{MAX_WALK_EDGES}, of a synthetic bridge walk; "
                             f"default 6, or the --walk walk's")
    p.add_argument("--beta", type=_finite(">= 0"), default=1.0, help="finite and >= 0")
    p.add_argument("--solver", choices=list(SOLVER_EDGES), default="full")
    p.add_argument("--oracle", type=_bounded("walker count", 1), default=None, metavar="N",
                   help="also run the random-walk oracle with N >= 1 walkers and "
                        "append mc_weight,mc_stderr columns")
    p.add_argument("--dt", type=_finite("> 0"), default=1e-4,
                   help="oracle absorption shell width, finite and > 0")

    p = command("bench", cmd_bench, "accuracy/runtime grid over one method")
    p.add_argument("--method", choices=list(GRID_KINDS), required=True)
    p.add_argument("--trials", type=_bounded("trial count", 1), default=500,
                   help="trials per cell, >= 1")
    p.add_argument("--level", type=_grid_level, default=10,
                   help=f"grid level for GSS methods, {levels}")
    p.add_argument("--n", type=_bounded("grid level and descent depth", 1, MAX_LEVEL, True),
                   help=f"mcb cells, e.g. '1..8' or '2,4,6' (l = r = n, g = 2**n), "
                        f"each in {levels}")
    p.add_argument("--m", type=_bounded("panel exponent", 0, MAX_LEVEL, True),
                   help=f"iter-gss cells, e.g. '0..4', each in 0..{MAX_LEVEL}")
    gss_options(p)

    p = command("range", cmd_range, "range statistics of simulated paths")
    p.add_argument("--kind", choices=sorted(KIND_ALIASES), default="bridge")
    p.add_argument("--level", type=_grid_level, default=10, help=f"dyadic grid level, {levels}")
    p.add_argument("--paths", type=_bounded("path count", 1, 2 ** 24), default=10_000,
                   help="paths to simulate, 1..2**24")
    p.add_argument("--bins", type=_bounded("bin count", 1, 2 ** 16), default=60,
                   help="histogram bins, 1..2**16")
    return parser


def _config_flags(argv: list[str]) -> list[str]:
    """argv with each entry of the --config file inserted as a '--KEY=VALUE'
    token right after the subcommand, so argparse checks it as it checks any
    flag, and the command line's own flags, which come later, win.

    A null value leaves its option unset.  A second --config, a file that
    holds no JSON object, or a file that names 'config' raises ValueError.
    """
    paths = [argv[i + 1] for i, tok in enumerate(argv[:-1]) if tok == "--config"]
    paths += [tok.split("=", 1)[1] for tok in argv if tok.startswith("--config=")]
    if not paths:
        return argv
    if len(paths) > 1:
        raise ValueError("--config may be given only once")
    with open(paths[0]) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("--config must hold a JSON object")
    if "config" in config:
        raise ValueError("a --config file cannot name 'config'")
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), len(argv))
    flags = [f"--{k}={v}" for k, v in config.items() if v is not None]
    return argv[:at + 1] + flags + argv[at + 1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_config_flags(argv))
        return args.func(args)
    except SystemExit as exc:   # argparse's own usage errors, --help and --version
        return int(exc.code or 0)
    except (argparse.ArgumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:   # ScSolverError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
