"""Command-line front end: simulate, search, measure, bench, range.

Every command requires an explicit --seed and records the tool version,
the seed and the resolved parameters ('meta'), so a run can be reproduced
from its artifacts alone: search embeds meta in its JSON report, and the
other commands write a '<out>.meta.json' sidecar (bench also puts meta in
'<out>.json').
Exit codes: 0 success, 2 usage or invalid arguments, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bench import (TrialGrid, mcb_grid, range_distribution, run_grid, run_trial,
                    save_bench_csv, save_bench_json, save_range_csv)
from .golden import GssParams
from .harmonic import (HmcParams, edge_measures, harmonic_bisection_search,
                       mc_hitting_oracle, save_measures_csv)
from .paths import (BRIDGE, CAUCHY, fill_dyadic, load_grid_csv, load_walk_csv,
                    new_bridge, save_grid_csv, simulate_cauchy)
from .report import write_json
from .rng import derive_seed
from .scmap import ScSolverError, WalkPolygon

KIND_ALIASES = {"bridge": BRIDGE, "brownian_bridge": BRIDGE, "cauchy": CAUCHY}
STRATEGY_ALIASES = {"max": "max_measure", "sample": "sample_measure"}
MAX_LEVEL = 24   # largest grid level: 2**24 + 1 float64 values take 128 MiB


def _require_positive(value: int, flag: str) -> None:
    # grids need at least one dyadic split; level 0 is a usage error
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _require_level(value: int, flag: str) -> None:
    _require_positive(value, flag)
    if value > MAX_LEVEL:
        raise ValueError(f"{flag} must be <= {MAX_LEVEL}, got {value}")


def _parse_int_list(text: str) -> list[int]:
    """'1..8' -> [1, ..., 8]; '1,3,5' -> [1, 3, 5]; '4' -> [4]."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range '{text}'")
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",") if p.strip()]


def _meta(args, **extra) -> dict:
    skip = {"func", "config"}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    meta = {"tool": "pathmin", "version": __version__, "command": args.command,
            "seed": args.seed, "params": params}
    meta.update(extra)
    return meta


def cmd_simulate(args) -> int:
    _require_level(args.level, "--level")
    kind = KIND_ALIASES[args.kind]
    if kind == BRIDGE:
        grid = fill_dyadic(args.seed, args.level)
    else:
        grid = simulate_cauchy(args.seed, args.level)
    save_grid_csv(grid, args.out, extra_meta=_meta(args))
    gm = grid.grid_min
    print(f"{kind} level {args.level}: {len(grid.values)} points, "
          f"grid min {gm.value:.6g} at t = {gm.time:.6g} -> {args.out}")
    return 0


def cmd_search(args) -> int:
    path = load_grid_csv(args.path) if args.path else None
    if args.method == "harmonic":
        if path is None:
            path = new_bridge(derive_seed(args.seed, 0))
        strategy = STRATEGY_ALIASES.get(args.strategy, args.strategy)
        hp = HmcParams(beta=args.beta, strategy=strategy, solver=args.solver,
                       seed=derive_seed(args.seed, 1))
        rep = harmonic_bisection_search(path, args.budget, hp)
        if rep.params["fallbacks"]:
            print(f"warning: {rep.params['fallbacks']} of {args.budget - 1} rounds fell "
                  f"back to uniform weights", file=sys.stderr)
    else:
        if path is None:
            if args.method == "mcb":
                _require_level(args.l, "--l")
            else:
                _require_level(args.level, "--level")
        cauchy = args.method == "mcb" and KIND_ALIASES[args.kind] == CAUCHY
        method = "mcb-cauchy" if cauchy else args.method
        cell = {"m": args.m, "l": args.l, "r": args.r, "g": args.g}
        gss = GssParams(epsilon=args.epsilon, max_iters=args.max_iters)
        rep, path = run_trial(method, cell, args.seed, args.level, gss, path)
    rep.seed = args.seed
    payload = rep.to_dict()
    if args.method != "harmonic":
        gm = path.grid_min
        payload.update({"grid_min": {"time": gm.time, "value": gm.value},
                        "error_vs_grid_min": rep.min_value - gm.value})
    payload["meta"] = _meta(args)
    write_json(args.out, payload)
    print(f"{args.method}: min {rep.min_value:.6g} at t = {rep.argmin_t:.6g} "
          f"({rep.queries} queries) -> {args.out}")
    return 0


def _load_polygon(args) -> WalkPolygon:
    if args.walk:
        times, values = load_walk_csv(args.walk)
    else:
        n = args.walk_nodes
        if n < 2:
            raise ValueError("--walk-nodes must be >= 2")
        path = new_bridge(derive_seed(args.seed, 100))
        times = np.arange(n + 1) / float(n)
        values = np.array([path.query(t) for t in times])
    return WalkPolygon(times=times, values=values, beta=args.beta)


def cmd_measure(args) -> int:
    poly = _load_polygon(args)
    em = edge_measures(poly, solver=args.solver)
    oracle = None
    if args.oracle is not None:
        _require_positive(args.oracle, "--oracle")
        oracle = mc_hitting_oracle(poly, walkers=args.oracle, dt=args.dt,
                                   seed=derive_seed(args.seed, 1))
    save_measures_csv(em, args.out, extra_meta=_meta(args), oracle=oracle)
    top = int(np.argmax(em.weights))
    line = (f"{poly.n_edges} edges, beta = {poly.beta}: heaviest edge {top + 1} "
            f"on [{em.times[top]:.6g}, {em.times[top + 1]:.6g}] "
            f"w = {em.weights[top]:.6g}")
    if oracle is not None:
        line += f" (mc {oracle.weights[top]:.6g} +- {oracle.stderr[top]:.6g})"
    print(f"{line} -> {args.out}")
    return 0


def cmd_bench(args) -> int:
    gss = GssParams(epsilon=args.epsilon, max_iters=args.max_iters)
    if args.method in ("mcb", "mcb-cauchy"):
        if not args.n:
            raise ValueError("--n is required for bisection benchmarks")
        ns = _parse_int_list(args.n)
        for n in ns:
            _require_level(n, "--n entry (grid level and descent depth)")
        cells = mcb_grid(ns).cells
    else:
        _require_level(args.level, "--level")
        if args.method == "naive-gss":
            cells = [{}]
        elif not args.m:
            raise ValueError("--m is required for iter-gss benchmarks")
        else:
            cells = [{"m": m} for m in _parse_int_list(args.m)]
    grid = TrialGrid(method=args.method, cells=cells, trials=args.trials,
                     seed=args.seed, level=args.level, gss=gss)
    rows = run_grid(grid)
    save_bench_csv(rows, args.out)
    save_bench_json(rows, f"{args.out}.json", meta=_meta(args))
    write_json(f"{args.out}.meta.json", _meta(args))
    flagged = sum(r.flagged for r in rows)
    print(f"{args.method}: {len(rows)} cells x {args.trials} trials"
          + (f", {flagged} flagged" if flagged else "") + f" -> {args.out}")
    return 0


def cmd_range(args) -> int:
    _require_level(args.level, "--level")
    kind = KIND_ALIASES[args.kind]
    rd = range_distribution(kind, args.level, args.paths, bins=args.bins,
                            seed=args.seed)
    save_range_csv(rd, args.out)
    med = float(np.median(rd.ranges))
    write_json(f"{args.out}.meta.json",
               _meta(args, mean_range=rd.mean_range, median_range=med))
    print(f"{kind} level {args.level}: {args.paths} paths, mean range "
          f"{rd.mean_range:.6g}, median {med:.6g} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathmin",
        description="Query-budgeted minimum search on stochastic paths.")
    parser.add_argument("--version", action="version", version=f"pathmin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, required=True,
                       help="root seed; all randomness derives from it")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--config", default=None,
                       help="JSON file of option values, read as flags; "
                            "explicit flags win")

    p = sub.add_parser("simulate", help="simulate one grid path and write it as CSV")
    common(p)
    p.add_argument("--kind", choices=sorted(KIND_ALIASES), default="bridge")
    p.add_argument("--level", type=int, default=10, help="dyadic grid level")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("search", help="run one budgeted minimum search")
    common(p)
    p.add_argument("--method", choices=["naive-gss", "iter-gss", "mcb", "harmonic"],
                   required=True)
    p.add_argument("--path", default=None,
                   help="grid CSV to search instead of simulating one")
    p.add_argument("--level", type=int, default=10, help="grid level for GSS methods")
    p.add_argument("--m", type=int, default=3, help="iter-gss: 2**m panels")
    p.add_argument("--epsilon", type=float, default=0.001)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--kind", choices=sorted(KIND_ALIASES), default="bridge",
                   help="mcb: path kind")
    p.add_argument("--l", type=int, default=10, help="mcb: grid level")
    p.add_argument("--r", type=int, default=10, help="mcb: descent depth")
    p.add_argument("--g", type=int, default=1024, help="mcb: descent count")
    p.add_argument("--budget", type=int, default=33, help="harmonic: query budget")
    p.add_argument("--beta", type=float, default=1.0, help="harmonic: amplitude")
    p.add_argument("--strategy", default="max_measure",
                   choices=["max_measure", "sample_measure", "max", "sample"])
    p.add_argument("--solver", choices=["full", "perturbative"], default="full",
                   help="harmonic: pre-vertex solver")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("measure", help="harmonic edge weights of a walk polygon")
    common(p)
    p.add_argument("--walk", default=None, help="CSV of walk nodes (t,value)")
    p.add_argument("--walk-nodes", type=int, default=6,
                   help="edges of a synthetic bridge walk when --walk is absent")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--solver", choices=["full", "perturbative"], default="full")
    p.add_argument("--oracle", type=int, default=None, metavar="N",
                   help="also run the random-walk oracle with N walkers and "
                        "append mc_weight,mc_stderr columns")
    p.add_argument("--dt", type=float, default=1e-4, help="oracle absorption shell width")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("bench", help="accuracy/runtime grid over one method")
    common(p)
    p.add_argument("--method", choices=["naive-gss", "iter-gss", "mcb", "mcb-cauchy"],
                   required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--level", type=int, default=10, help="grid level for GSS methods")
    p.add_argument("--n", default=None,
                   help="mcb cells, e.g. '1..8' or '2,4,6' (l = r = n, g = 2**n)")
    p.add_argument("--m", default=None, help="iter-gss cells, e.g. '0..4'")
    p.add_argument("--epsilon", type=float, default=0.001)
    p.add_argument("--max-iters", type=int, default=200)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("range", help="range statistics of simulated paths")
    common(p)
    p.add_argument("--kind", choices=sorted(KIND_ALIASES), default="bridge")
    p.add_argument("--level", type=int, default=10)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--bins", type=int, default=60)
    p.set_defaults(func=cmd_range)

    parser.commands = sub.choices   # name -> subparser, to map --config keys
    return parser


def _config_flags(argv: list[str], commands: dict) -> list[str]:
    """argv with the --config file's entries inserted as '--option=value'
    tokens right after the subcommand, so argparse checks them as it checks
    any flag, and the command line's own flags, which come later, win.

    A null value leaves its option unset.  A file that holds no JSON
    object, or a key that names no option of the subcommand, raises
    ValueError.
    """
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    else:
        return argv
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("--config must hold a JSON object")
    config = {k.replace("-", "_"): v for k, v in config.items()}
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if at is None or argv[at] not in commands:
        return argv     # argparse reports the missing or unknown subcommand
    options = {a.dest: a.option_strings[-1] for a in commands[argv[at]]._actions
               if a.option_strings and a.dest != "help"}
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise ValueError(f"--config key(s) {', '.join(unknown)} name no option of "
                         f"'pathmin {argv[at]}'")
    flags = [f"{options[k]}={v}" for k, v in config.items() if v is not None]
    return argv[:at + 1] + flags + argv[at + 1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _config_flags(argv, parser.commands)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScSolverError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
