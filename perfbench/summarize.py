"""Summarise benchmark result files: medians, quartile spreads, tracing overhead.

    python3 perfbench/summarize.py [--baseline FILE] [RESULT.json ...]

Reads the given result files, or every full-size one under .perfbench-out/,
and prints per workload, for untraced and traced runs apart, each metric's
run count, median, quartiles and spread (interquartile distance over the
median, as statistics.quantiles(n=4) gives them).  The tracing overhead of
a workload is its median traced trace.run_s minus its median untraced run_s.
--baseline also writes the summary, the environment of the first run and
every seed's output digest (one "*" entry when all seeds agree) to FILE.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench-out"


def load(paths):
    results = []
    for p in paths:
        with open(p) as fh:
            r = json.load(fh)
        if not r["toy"]:
            results.append(r)
    return results


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(results) -> dict:
    groups = defaultdict(list)
    for r in results:
        groups[(r["workload"], r["trace"])].append(r)
    out = {}
    for (workload, trace), rs in sorted(groups.items()):
        values = defaultdict(list)
        for r in rs:
            for k, v in {**r["report"], **r["metrics"]}.items():
                values[k].append(v)
        entry = {k: stats(v) for k, v in values.items()}
        entry["digests"] = {str(r["seed"]): r["digest"] for r in rs}
        out.setdefault(workload, {})["traced" if trace else "untraced"] = entry
    for workload, modes in out.items():
        if "traced" in modes and "untraced" in modes:
            modes["trace_overhead_s"] = (modes["traced"]["trace.run_s"]["median"]
                                         - modes["untraced"]["run_s"]["median"])
    return out


def baseline(results, summary) -> dict:
    digests = {}
    for workload, modes in summary.items():
        seen = {**modes.get("traced", {}).get("digests", {}),
                **modes.get("untraced", {}).get("digests", {})}
        digests[workload] = {"*": seen.popitem()[1]} if len(set(seen.values())) == 1 else seen
    return {"env": results[0]["env"], "summary": summary, "digests": digests}


def main(argv) -> int:
    out = None
    if argv[:1] == ["--baseline"]:
        out, argv = argv[1], argv[2:]
    paths = argv or sorted(str(p) for p in OUT.glob("*.json"))
    results = load(paths)
    summary = summarize(results)
    if out:
        with open(out, "w") as fh:
            json.dump(baseline(results, summary), fh, indent=1, sort_keys=True)
            fh.write("\n")
    for workload, modes in summary.items():
        for mode in ("untraced", "traced"):
            if mode not in modes:
                continue
            print(f"{workload} ({mode})")
            for k, s in modes[mode].items():
                if k == "digests":
                    print(f"  digests: {len(set(s.values()))} distinct over {len(s)} seeds")
                elif "spread" in s:
                    print(f"  {k:<34} n={s['n']:<3} median {s['median']:<12.6g} "
                          f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
                else:
                    print(f"  {k:<34} n={s['n']:<3} median {s['median']:.6g}")
        if "trace_overhead_s" in modes:
            print(f"{workload} tracing overhead: {modes['trace_overhead_s']:.4g} s per pass")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
