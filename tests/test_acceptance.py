"""Acceptance gate: one test per release criterion, in order.

Each test prints a single PASS/FAIL line on the real stdout so the gate
can be read off any pytest run regardless of capture settings.
"""
import csv
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import spearmanr

from conftest import make_bridge_walk
from pathmin.bench import TrialGrid, mcb_grid, range_distribution, run_grid
from pathmin.cli import main
from pathmin.golden import INV_PHI, INV_PHI2, GssParams, golden_section
from pathmin.harmonic import edge_measures, mc_hitting_oracle
from pathmin.mcb import McbParams, mcb_search
from pathmin.paths import (CauchyBridgeCdf, dyadic_times, fill_dyadic, new_bridge,
                           simulate_bridge_batch)
from pathmin.rng import derive_seed, make_rng
from pathmin.scmap import (WalkPolygon, sc_forward_map, solve_prevertices_full,
                           solve_prevertices_perturbative, turning_angles)


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion on the real stdout, then assert."""
    def emit(num: int, name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion {num:02d}] {verdict} {name}: {detail}", flush=True)
        assert ok, f"criterion {num}: {name} ({detail})"
    return emit


def test_c01_bridge_sampler_moments(report):
    n = 100_000
    vals = np.array([new_bridge(derive_seed(1, i)).query(0.5) for i in range(n)])
    mean_z = abs(vals.mean()) / (0.5 / math.sqrt(n))
    var_z = abs(vals.var() - 0.25) / (0.25 * math.sqrt(2.0 / (n - 1)))

    batch = simulate_bridge_batch(9, 3, n)
    t = dyadic_times(3)
    cov_z = 0.0
    for i, j in ((1, 3), (2, 5), (4, 6), (1, 7), (3, 5), (2, 6)):
        prod = batch[:, i] * batch[:, j]
        want = t[i] * (1.0 - t[j])
        cov_z = max(cov_z, abs(prod.mean() - want) / (prod.std() / math.sqrt(n)))

    ok = mean_z < 3.0 and var_z < 3.0 and cov_z < 3.0
    report(1, "bridge sampler correctness", ok,
            f"midpoint mean {mean_z:.2f} sigma, variance {var_z:.2f} sigma, "
            f"worst covariance {cov_z:.2f} sigma over 6 pairs")


def test_c02_golden_section_mechanics(report):
    log = []
    trace = []
    rep = golden_section(lambda u: log.append(u) or (u - 0.3) ** 2, (0.0, 1.0),
                         GssParams(epsilon=0.0, max_iters=25), trace=trace)
    probe_err = max(abs(log[2] - INV_PHI2), abs(log[3] - INV_PHI))
    widths = np.array([b - a for a, b in trace])
    shrink_err = float(np.max(np.abs(widths[1:] / widths[:-1] - INV_PHI)))
    counts_ok = rep.queries == 25 + 3 and len(log) == rep.queries
    for iters in (1, 4, 13):
        r = golden_section(lambda u: (u - 0.61) ** 2, (0.0, 1.0),
                           GssParams(epsilon=0.0, max_iters=iters))
        counts_ok = counts_ok and r.queries == iters + 3

    ok = probe_err < 1e-12 and shrink_err < 1e-9 and counts_ok
    report(2, "golden-section mechanics", ok,
            f"probe error {probe_err:.1e}, bracket ratio error {shrink_err:.1e}, "
            f"one new call per iteration {counts_ok}")


def test_c03_partition_ordering(report):
    means, ses = [], []
    for method, cells in (("naive-gss", [{}]), ("iter-gss", [{"m": 1}]),
                          ("iter-gss", [{"m": 8}])):
        row = run_grid(TrialGrid(method=method, cells=cells, trials=500,
                                 seed=0, level=10))[0]
        means.append(row.mean_error)
        ses.append(row.stderr_error)
    gap1 = (means[0] - means[1]) / math.hypot(ses[0], ses[1])
    gap2 = (means[1] - means[2]) / math.hypot(ses[1], ses[2])

    ok = gap1 > 2.0 and gap2 > 2.0
    report(3, "error ordering naive > m=1 > m=8", ok,
            f"means {means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f}, "
            f"gaps {gap1:.1f} and {gap2:.1f} combined standard errors")


def test_c04_mcb_budget_trend(report):
    ns = list(range(1, 15))
    rows = run_grid(mcb_grid(ns, trials=500, seed=0))
    rho = float(spearmanr(ns, [r.mean_error for r in rows]).statistic)
    ok = rho <= -0.8
    report(4, "matched-budget bisection trend", ok,
            f"Spearman rho(n, mean error) = {rho:.3f} over n = 1..14")


def test_c05_mcb_exhaustiveness(report):
    hits = 0
    for s in range(100):
        grid = fill_dyadic(derive_seed(11, s), 8)
        rep = mcb_search(grid, McbParams(r=8, g=2 ** 12), make_rng(derive_seed(12, s)))
        hits += rep.min_value == grid.grid_min.value
    ok = hits >= 99
    report(5, "bisection exhaustiveness at g = 2^12", ok,
            f"exact grid minimum in {hits}/100 runs")


def test_c06_cauchy_bridge_cdf(report):
    def oracle(u, v):
        f1 = lambda x: 1.0 / (np.pi * (1.0 + x * x))
        val, _ = quad(lambda x: f1(u + x) * f1(u - x), -np.inf, v,
                      limit=200, epsabs=1e-13, epsrel=1e-13)
        return val * (np.pi * (4.0 + 4.0 * u * u)) / 2.0

    quad_err = max(abs(CauchyBridgeCdf(u).cdf(v) - oracle(u, v))
                   for u in (0.3, 0.7, 1.0, 2.5, 7.0)
                   for v in (-4.0, -0.5, 0.8, 3.0))
    limit_err = max(abs(CauchyBridgeCdf(u).cdf(-1e6)) +
                    abs(CauchyBridgeCdf(u).cdf(1e6) - 1.0)
                    for u in (0.5, 1.0, 2.0))
    round_err = 0.0
    for u in (0.5, 1.0, 2.0):
        law = CauchyBridgeCdf(u)
        for p in np.linspace(0.05, 0.95, 10):
            round_err = max(round_err, abs(law.cdf(law.ppf(p)) - p))
        for v in (-3.0, 0.4, 2.0):
            round_err = max(round_err, abs(law.ppf(law.cdf(v)) - v))

    ok = quad_err < 1e-8 and limit_err < 1e-4 and round_err < 1e-6
    report(6, "Cauchy bridge CDF", ok,
            f"quadrature error {quad_err:.1e} at 20 points, tail limit error "
            f"{limit_err:.1e}, round-trip error {round_err:.1e}")


def test_c07_angle_bookkeeping(report):
    worst = 0.0
    for i in range(1000):
        poly = make_bridge_walk(derive_seed(70, i), 2 + i % 15,
                                beta=0.05 + (i % 20) * 0.05)
        worst = max(worst, abs(np.sum(1.0 - turning_angles(poly)) - 2.0))
    ok = worst < 1e-12
    report(7, "turning-angle defects sum to 2", ok,
            f"worst |sum - 2| = {worst:.1e} over 1000 walks")


def test_c08_flat_conformal_closed_form(report):
    z_err = 0.0
    map_err = 0.0
    for times in (np.linspace(0.0, 1.0, 7),
                  np.array([0.0, 0.15, 0.4, 0.55, 0.8, 1.0])):
        poly = WalkPolygon(times=times, values=np.zeros(len(times)), beta=0.0)
        sol = solve_prevertices_full(poly)
        z_err = max(z_err, float(np.max(np.abs(
            sol.prevertices - np.sin(0.5 * np.pi * times) ** 2))))
        xs = np.linspace(0.01, 0.99, 50)
        w = sc_forward_map(sol, xs)
        map_err = max(map_err, float(np.max(np.abs(
            w - (2.0 / np.pi) * np.arcsin(np.sqrt(xs))))))
    ok = z_err < 1e-8 and map_err < 1e-8
    report(8, "flat-walk closed forms", ok,
            f"pre-vertex error {z_err:.1e}, map error {map_err:.1e} "
            f"at 50 interior points")


def test_c09_perturbative_quadratic_decay(report):
    ratios = []
    endpoints_exact = True
    for i in range(20):
        walk = make_bridge_walk(derive_seed(33, i), 8)
        gaps = {}
        for beta in (1e-2, 1e-3):
            poly = WalkPolygon(times=walk.times, values=walk.values, beta=beta)
            z_full = solve_prevertices_full(poly).prevertices
            pert = solve_prevertices_perturbative(poly).prevertices
            endpoints_exact &= pert[0] == 0.0 and pert[-1] == 1.0
            gaps[beta] = float(np.max(np.abs(z_full - pert)))
        ratios.append(gaps[1e-2] / gaps[1e-3])
    ok = endpoints_exact and all(50.0 <= r <= 200.0 for r in ratios)
    report(9, "perturbative pre-vertices decay as beta^2", ok,
            f"error ratios between beta 1e-2 and 1e-3 in "
            f"[{min(ratios):.1f}, {max(ratios):.1f}] over 20 walks, "
            f"endpoint corrections exactly zero: {endpoints_exact}")


def test_c10_harmonic_measure_cross_validation(report):
    worst = 0.0
    for i in range(10):
        poly = make_bridge_walk(derive_seed(55, i), 6, beta=0.5)
        analytic = edge_measures(poly, solver="full")
        mc, se = mc_hitting_oracle(poly, walkers=100_000, dt=1e-5,
                                   rng=make_rng(derive_seed(56, i)))
        z = np.max(np.abs(mc - analytic) / se)
        worst = max(worst, float(z))
    ok = worst < 4.0
    report(10, "walker oracle matches analytic measures", ok,
            f"worst per-edge deviation {worst:.2f} sigma over 10 walks "
            f"at 10^5 walkers")


def test_c11_measure_normalization(report):
    worst_sum = 0.0
    min_weight = np.inf
    count = 0
    for seed in range(40):
        poly = make_bridge_walk(derive_seed(110, seed), 3 + seed % 6,
                                beta=0.2 + (seed % 5) * 0.2)
        w = edge_measures(poly, solver="full")
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        min_weight = min(min_weight, float(w.min()))
        count += 1
    for seed in range(20):
        poly = make_bridge_walk(derive_seed(111, seed), 8, beta=0.03)
        w = edge_measures(poly, solver="perturbative")
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        min_weight = min(min_weight, float(w.min()))
        count += 1
    for seed in range(3):
        poly = make_bridge_walk(derive_seed(112, seed), 4, beta=0.4)
        w, _ = mc_hitting_oracle(poly, walkers=2000, dt=1e-4, rng=make_rng(seed))
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        min_weight = min(min_weight, float(w.min()))
        count += 1
    ok = worst_sum < 1e-10 and min_weight >= 0.0
    report(11, "edge measures normalize", ok,
            f"worst |sum - 1| = {worst_sum:.1e}, smallest weight "
            f"{min_weight:.3f} over {count} measure sets")


def test_c12_cli_reproducibility(report, tmp_path):
    identical = True

    def rerun(args, out_a, out_b):
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0

    rerun(["simulate", "--seed", "5", "--level", "6"],
          tmp_path / "s1.csv", tmp_path / "s2.csv")
    identical &= (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    rerun(["measure", "--walk-nodes", "5", "--beta", "0.5", "--seed", "6"],
          tmp_path / "m1.csv", tmp_path / "m2.csv")
    identical &= (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()

    rerun(["range", "--seed", "7", "--level", "5", "--paths", "200"],
          tmp_path / "r1.csv", tmp_path / "r2.csv")
    identical &= (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    rerun(["search", "--method", "harmonic", "--beta", "0.5", "--budget", "8",
           "--seed", "8"], tmp_path / "h1.json", tmp_path / "h2.json")
    a = json.loads((tmp_path / "h1.json").read_text())
    b = json.loads((tmp_path / "h2.json").read_text())
    for payload in (a, b):
        payload.pop("wall_time")
        payload.pop("meta")
    identical &= a == b

    rerun(["bench", "--method", "mcb", "--n", "3..5", "--trials", "20",
           "--seed", "9"], tmp_path / "b1.csv", tmp_path / "b2.csv")
    rows_a = list(csv.reader((tmp_path / "b1.csv").open()))
    rows_b = list(csv.reader((tmp_path / "b2.csv").open()))
    wall = rows_a[0].index("mean_wall_time")
    for ra, rb in zip(rows_a, rows_b):
        del ra[wall], rb[wall]
    identical &= rows_a == rows_b

    report(12, "CLI reruns are byte-identical", bool(identical),
            "simulate, measure, range, search and bench data columns match "
            "across reruns")


def test_c13_range_statistics(report):
    rd = range_distribution("brownian_bridge", 12, 20_000, seed=3)

    # independent oracle: pinned random-walk bridges from a different
    # generator family at the same resolution
    rng = np.random.default_rng(99)
    n = 2 ** 12
    t = np.arange(n + 1) / n
    total = 0.0
    m = 20_000
    chunk = 2000
    for _ in range(m // chunk):
        steps = rng.standard_normal((chunk, n)) / math.sqrt(n)
        w = np.concatenate([np.zeros((chunk, 1)), np.cumsum(steps, axis=1)], axis=1)
        w -= t[None, :] * w[:, -1:]
        total += float(np.sum(w.max(axis=1) - w.min(axis=1)))
    oracle_mean = total / m

    rel_gap = abs(rd.mean_range - oracle_mean) / oracle_mean
    below_limit = rd.mean_range < math.sqrt(math.pi / 2.0)

    cauchy = range_distribution("cauchy", 10, 20_000, seed=4)
    tail_ratio = float(np.quantile(cauchy.ranges, 0.99) / np.median(cauchy.ranges))

    ok = rel_gap < 0.01 and below_limit and tail_ratio > 10.0
    report(13, "range statistics", ok,
            f"bridge mean range {rd.mean_range:.5f} vs oracle "
            f"{oracle_mean:.5f} (gap {100 * rel_gap:.2f}%), Cauchy "
            f"q99/median = {tail_ratio:.1f}")
