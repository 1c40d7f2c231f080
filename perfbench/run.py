"""pathmin benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload hmc-b33 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; pathmin is imported from ./src.
The workload repeats identical passes of fixed work until --seconds have
elapsed (always at least one pass), checks every pass's outputs, and
prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (setup_s, run_s, ok_share);
--trace 1 wraps pathmin's layers (see spans.py) and reports the per-layer
metrics instead.  Each run also writes a result file with the run
environment, and traced runs their spans, under .perfbench-out/.
Exit codes: 0 success, 1 an output check failed, 2 no pathmin source.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 9   # this process plus eight fresh-interpreter probes


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_threads() -> None:
    """Cap every native thread pool at nproc, defaulting to one thread:
    the solver's matrices are at most 63 x 63, too small to gain from more."""
    cap = nproc()
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, "1"))
        except ValueError:
            n = 1
        os.environ[var] = str(max(1, min(n, cap)))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs, for the smoke test only")
    ap.add_argument("--setup-probe", action="store_true",
                    help="time set-up in this fresh interpreter, print it, exit")
    return ap.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "pathmin").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha, "source_sha256": source_digest(), "nproc": nproc(),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(), "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def probe_setup(args) -> float:
    """Set-up seconds measured in a fresh interpreter (import included)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    if args.toy:
        cmd.append("--toy")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def recorded_digest(workload: str, seed: int):
    try:
        with open(HERE / "baseline.json") as fh:
            known = json.load(fh).get("digests", {}).get(workload, {})
    except FileNotFoundError:
        return None
    return known.get(str(seed), known.get("*"))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "pathmin" / "__init__.py").is_file():
        print(f"error: no pathmin source under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import pathmin  # noqa: E402  (timed: import is part of set-up)
    import workloads
    if not Path(pathmin.__file__).resolve().is_relative_to(SRC):
        print(f"error: pathmin imported from {pathmin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload]()
        wl.setup(args.seed, workloads.TOY if args.toy else workloads.FULL, workdir)
        setup_own = time.perf_counter() - t0
        if args.setup_probe:
            print(repr(setup_own))
            return 0
        return run_workload(args, pathmin, wl, setup_own)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, pathmin, wl, setup_own: float) -> int:
    from spans import LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer(pathmin) if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            with tracer.installed():
                p = wl.run_pass()
        else:
            p = wl.run_pass()
        wl.finish(p)
        passes.append(p)
        if time.perf_counter() - start >= args.seconds:
            break

    problems = []
    digests = []
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {msg}" for msg in wl.check(p)]
        digests.append(digest_of(wl.digest(p)))
    if len(set(digests)) > 1:
        problems.append(f"passes disagree on identical inputs: digests {digests}")
    setup = [setup_own] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    counts = [wl.counts(p) for p in passes]
    attempted, failed, units, degraded = (sum(c[i] for c in counts) for i in range(4))
    seconds = [p.seconds for p in passes]
    known = None if args.toy else recorded_digest(wl.name, args.seed)
    behaviour = "unrecorded" if known is None else (
        "match" if known == digests[0] else "CHANGED")
    report = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(seconds), "s"),
        "failed_share": (degraded / units, "ratio"),
        **wl.summary(passes),
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": report["setup_s"][0], "unit": "s"},
            "run_s": {"value": report["run_s"][0], "unit": "s"},
            "ok_share": {"value": 1.0 - degraded / units, "unit": "ratio"},
        }
    else:
        layer = layer_metrics(tracer, len(passes), seconds)
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in layer.items()}

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    env = environment()
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "toy": args.toy, "env": env, "pass_seconds": seconds,
        "setup_samples": setup, "report": {k: v[0] for k, v in report.items()},
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
        "digest": digests[0], "behaviour": behaviour,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.save(OUT / f"{stem}.spans.npz")

    print(f"{wl.name} seed {args.seed}: {len(passes)} pass(es), "
          f"{'traced' if tracer else 'untraced'}, digest {digests[0]} ({behaviour})")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, OMP/BLAS threads {env['threads']['OMP_NUM_THREADS']}/"
          f"{env['threads']['OPENBLAS_NUM_THREADS']}, git {env['git_sha'] or 'none'}")
    for name, (value, unit) in report.items():
        print(f"  {name:<15} {value:.6g} {unit}")
    for msg in problems:
        print(f"  CHECK FAILED: {msg}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
