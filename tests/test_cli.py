"""Command-line interface: flags, outputs, exit codes, reproducibility."""
import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import pathmin
from conftest import make_bridge_walk
from pathmin.bench import TrialGrid, run_grid, run_trial, save_bench_csv
from pathmin.cli import MAX_LEVEL, main
from pathmin.golden import GssParams
from pathmin.paths import load_grid_csv


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + ["--out", str(out)]), out


def test_simulate_writes_grid_and_sidecar(tmp_path, capsys):
    rc, out = run(tmp_path, "simulate", "--seed", "1", "--level", "3")
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "value"]
    assert len(rows) == 10
    meta = json.loads((tmp_path / "out.meta.json").read_text())
    assert meta["tool"] == "pathmin"
    assert meta["seed"] == 1
    assert meta["command"] == "simulate"
    assert "grid min" in capsys.readouterr().out


def test_simulate_kind_aliases(tmp_path):
    rc, _ = run(tmp_path, "simulate", "--seed", "1", "--level", "2",
                "--kind", "brownian_bridge")
    assert rc == 0
    rc, _ = run(tmp_path, "simulate", "--seed", "1", "--level", "2",
                "--kind", "cauchy")
    assert rc == 0


def test_simulate_level_zero_is_usage_error(tmp_path, capsys):
    rc, _ = run(tmp_path, "simulate", "--seed", "1", "--level", "0")
    assert rc == 2
    assert "--level" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["search", "--method", "mcb", "--level", "40", "--r", "1", "--g", "1"], "--level"),
    (["search", "--method", "mcb", "--level", "30", "--r", "1", "--g", "1"], "--level"),
    (["search", "--method", "naive-gss", "--level", "25"], "--level"),
    (["simulate", "--level", "25"], "--level"),
    (["range", "--level", "25", "--paths", "1"], "--level"),
    (["bench", "--method", "mcb", "--n", "1,25", "--trials", "1"], "--n"),
    (["bench", "--method", "naive-gss", "--level", "25", "--trials", "1"], "--level"),
])
def test_oversized_grid_is_usage_error(tmp_path, capsys, argv, flag):
    # a level-L grid holds 2**L + 1 values; above MAX_LEVEL nothing is built
    assert MAX_LEVEL == 24
    rc, out = run(tmp_path, *argv, "--seed", "1")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert flag in err and f"<= {MAX_LEVEL}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, bound", [
    (["bench", "--method", "naive-gss", "--trials", "0"], "--trials", ">= 1"),
    (["bench", "--method", "naive-gss", "--trials", "-3"], "--trials", ">= 1"),
    (["range", "--bins", "0"], "--bins", ">= 1"),
    (["search", "--method", "iter-gss", "--m", "25"], "--m", "<= 24"),
    (["bench", "--method", "iter-gss", "--m", "0..25"], "--m", "<= 24"),
    (["bench", "--method", "iter-gss", "--m", "0..10000000000"], "--m", "<= 24"),
    (["search", "--method", "mcb", "--g", "16777217"], "--g", "<= 16777216"),
    (["measure", "--walk-nodes", "4", "--oracle", "10", "--dt", "nan"], "--dt", "> 0"),
    (["measure", "--walk-nodes", "4", "--oracle", "10", "--dt", "inf"], "--dt", "finite"),
    (["measure", "--walk-nodes", "4", "--oracle", "0"], "--oracle", ">= 1"),
    (["measure", "--walk-nodes", "1"], "--walk-nodes", ">= 2"),
    # search takes bench's method names: a Cauchy MCB search is mcb-cauchy
    (["search", "--method", "naive-gss", "--kind", "cauchy"], "--kind", None),
    (["measure", "--walk-nodes", "513"], "--walk-nodes", "<= 512"),
    (["measure", "--walk-nodes", "4", "--beta", "inf"], "--beta", "finite"),
    (["search", "--method", "harmonic", "--beta", "nan"], "--beta", ">= 0"),
    (["measure", "--walk-nodes", "4", "--beta", "-1"], "--beta", ">= 0"),
    (["range", "--paths", "0"], "--paths", ">= 1"),
    (["range", "--paths", str(2 ** 24 + 1)], "--paths", "<= 16777216"),
    (["range", "--bins", "65537"], "--bins", "<= 65536"),
    # each single-option bound sits on its option, so nothing is simulated first
    (["search", "--method", "mcb", "--level", "24", "--r", "0"], "--r", ">= 1"),
    (["search", "--method", "mcb", "--r", "25"], "--r", "<= 24"),
    (["search", "--method", "naive-gss", "--epsilon", "nan"], "--epsilon", ">= 0"),
    (["search", "--method", "naive-gss", "--epsilon", "-1"], "--epsilon", ">= 0"),
    (["bench", "--method", "naive-gss", "--epsilon", "inf"], "--epsilon", "finite"),
    (["search", "--method", "naive-gss", "--max-iters", "-5"], "--max-iters", ">= 1"),
    (["bench", "--method", "naive-gss", "--max-iters", "0"], "--max-iters", ">= 1"),
    (["search", "--method", "harmonic", "--budget", "0"], "--budget", ">= 1"),
    (["search", "--method", "harmonic", "--solver", "perturbative", "--budget", "513"],
     "--budget", "<= 512"),
    # a list option takes comma-separated integers, none of them blank
    (["bench", "--method", "mcb", "--n", ",", "--trials", "1"], "--n", "invalid int list"),
    (["bench", "--method", "mcb", "--n", "1,,2", "--trials", "1"], "--n", "invalid int list"),
    (["bench", "--method", "mcb", "--n", "8..1", "--trials", "1"], "--n", "empty range"),
])
def test_option_out_of_range_is_usage_error(tmp_path, capsys, monkeypatch, argv, flag,
                                            bound):
    def never(*args, **kwargs):
        raise AssertionError("an invalid option must be rejected before any work")

    for name in ("fill_dyadic", "new_bridge", "run_trial", "run_grid", "edge_measures",
                 "mc_hitting_oracle", "range_distribution"):
        monkeypatch.setattr(f"pathmin.cli.{name}", never)
    rc, out = run(tmp_path, *argv, "--seed", "1")
    assert rc == 2
    assert not out.exists()
    first = capsys.readouterr().err.splitlines()[0]
    if bound is None and not first.startswith("error: "):
        return   # argparse reported the unknown option itself, as up to Python 3.12
    assert first.startswith("error: ")
    assert flag in first and (bound or "") in first


def test_simulate_reruns_byte_identical(tmp_path):
    rc, first = main(["simulate", "--seed", "9", "--level", "4",
                      "--out", str(tmp_path / "a.csv")]), tmp_path / "a.csv"
    rc2, second = main(["simulate", "--seed", "9", "--level", "4",
                        "--out", str(tmp_path / "b.csv")]), tmp_path / "b.csv"
    assert rc == rc2 == 0
    assert first.read_bytes() == second.read_bytes()


def test_search_mcb_default_budget(tmp_path):
    rc, out = run(tmp_path, "search", "--method", "mcb", "--seed", "4")
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["method"] == "mcb"
    assert rep["queries"] == 1026
    assert rep["error_vs_grid_min"] >= 0.0
    assert rep["meta"]["seed"] == 4


def test_search_reports_are_reproducible_minus_wall_time(tmp_path):
    payloads = []
    for name in ("a.json", "b.json"):
        rc = main(["search", "--method", "iter-gss", "--m", "2", "--seed", "6",
                   "--level", "8", "--out", str(tmp_path / name)])
        assert rc == 0
        rep = json.loads((tmp_path / name).read_text())
        rep.pop("wall_time")
        rep.pop("meta")
        payloads.append(rep)
    assert payloads[0] == payloads[1]
    assert payloads[0]["method"] == "iterative-gss"


def test_search_naive_gss_tags_method(tmp_path):
    rc, out = run(tmp_path, "search", "--method", "naive-gss", "--seed", "2",
                  "--level", "8")
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["method"] == "golden-section"
    assert rep["grid_min"]["value"] <= rep["min_value"]


def test_search_harmonic_flat_midpoint_sequence(tmp_path):
    rc, out = run(tmp_path, "search", "--method", "harmonic", "--beta", "0",
                  "--budget", "9", "--seed", "5")
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["params"]["strategy"] == "max_measure"
    assert rep["params"]["midpoints"] == [0.5, 0.25, 0.75, 0.125, 0.375,
                                          0.625, 0.875, 0.0625, 0.1875]


def test_search_harmonic_warns_about_fallback_rounds(tmp_path, capsys):
    argv = ("search", "--method", "harmonic", "--solver", "perturbative",
            "--beta", "0.5", "--budget", "8")
    rc, out = run(tmp_path, *argv, "--seed", "2")
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning: 2 of 7 rounds fell back to uniform weights" in captured.err
    assert "warning" not in captured.out
    assert json.loads(out.read_text())["params"]["fallbacks"] == 2
    rc, _ = run(tmp_path, *argv, "--seed", "1")
    assert rc == 0
    assert "warning" not in capsys.readouterr().err
    # the full solver's missed solves fall back too
    rc, out = run(tmp_path, "search", "--method", "harmonic", "--budget", "62", "--seed", "1")
    assert rc == 0
    assert "warning: 34 of 61 rounds fell back to uniform weights" in capsys.readouterr().err
    assert json.loads(out.read_text())["params"]["fallbacks"] == 34


def test_search_accepts_saved_grid(tmp_path):
    grid_file = tmp_path / "grid.csv"
    assert main(["simulate", "--seed", "3", "--level", "6",
                 "--out", str(grid_file)]) == 0
    rc = main(["search", "--method", "naive-gss", "--path", str(grid_file),
               "--seed", "3", "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    grid_vals = [float(r[1]) for r in list(csv.reader(grid_file.open()))[1:]]
    assert rep["grid_min"]["value"] == min(grid_vals)

    rc = main(["search", "--method", "mcb", "--path", str(grid_file), "--r", "6",
               "--g", "64", "--seed", "3", "--out", str(tmp_path / "rep2.json")])
    assert rc == 0
    assert json.loads((tmp_path / "rep2.json").read_text())["queries"] == 66


@pytest.mark.parametrize("method, kind", [("mcb-cauchy", "bridge"), ("mcb", "cauchy")])
def test_search_mcb_rejects_a_grid_of_the_other_kind(tmp_path, capsys, monkeypatch,
                                                      method, kind):
    # mcb and mcb-cauchy are one search that differs only in its grid's kind,
    # so the wrong kind is refused before the search draws its descents
    grid_file = tmp_path / "grid.csv"
    assert main(["simulate", "--seed", "3", "--level", "6", "--kind", kind,
                 "--out", str(grid_file)]) == 0
    monkeypatch.setattr("pathmin.bench.mcb_search", None)
    capsys.readouterr()
    rc, out = run(tmp_path, "search", "--method", method, "--path", str(grid_file),
                  "--r", "6", "--g", "64", "--seed", "1")
    assert rc == 2
    err = capsys.readouterr().err
    assert "brownian_bridge" in err and "cauchy" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["mcb", "naive-gss"])
def test_search_rejects_grid_with_non_dyadic_times(tmp_path, capsys, method):
    grid_file = tmp_path / "grid.csv"
    assert main(["simulate", "--seed", "3", "--level", "3",
                 "--out", str(grid_file)]) == 0
    text = grid_file.read_text()
    grid_file.write_text(text.replace("\n0.125,", "\n0.041,", 1))
    rc, out = run(tmp_path, "search", "--method", method, "--path", str(grid_file),
                  "--r", "3", "--g", "8", "--seed", "3")
    assert rc == 2
    assert "times are not the level-3 grid" in capsys.readouterr().err
    assert not out.exists()


HARMONIC = {"budget": 8, "beta": 1.0, "solver": "full"}


@pytest.mark.parametrize("flags, method, cell", [
    (["--method", "mcb", "--level", "7", "--r", "5", "--g", "32"],
     "mcb", {"r": 5, "g": 32}),
    (["--method", "mcb-cauchy", "--level", "7", "--r", "5", "--g", "32"],
     "mcb-cauchy", {"r": 5, "g": 32}),
    (["--method", "naive-gss", "--level", "7"], "naive-gss", {}),
    (["--method", "iter-gss", "--level", "7", "--m", "2"], "iter-gss", {"m": 2}),
    (["--method", "harmonic", "--budget", "8", "--level", "7"], "harmonic", HARMONIC),
    # 4 of its 11 rounds fall back to uniform weights
    (["--method", "harmonic", "--budget", "12", "--level", "7", "--solver", "perturbative",
      "--beta", "0.5"], "harmonic", {"budget": 12, "beta": 0.5, "solver": "perturbative"}),
    (["--method", "harmonic", "--budget", "8", "--path", "GRID"], "harmonic", HARMONIC),
])
def test_search_is_one_bench_trial(tmp_path, flags, method, cell):
    path = None
    if "GRID" in flags:   # search a saved level-7 bridge grid
        grid_file = tmp_path / "grid.csv"
        assert main(["simulate", "--seed", "3", "--level", "7",
                     "--out", str(grid_file)]) == 0
        flags = [str(grid_file) if f == "GRID" else f for f in flags]
        path = load_grid_csv(str(grid_file))
    rc, out = run(tmp_path, "search", *flags, "--seed", "13")
    assert rc == 0
    rep = json.loads(out.read_text())
    trial, grid = run_trial(method, cell, 13, level=7, gss=GssParams(), path=path)
    assert rep["meta"]["seed"] == 13
    assert rep["meta"]["params"]["level"] == 7   # the saved grid's level under --path
    assert rep["min_value"] == trial.min_value
    assert rep["argmin_t"] == trial.argmin_t
    assert rep["queries"] == trial.queries
    # harmonic's midpoints and fallbacks, GSS's iterations, MCB's cells
    assert rep["params"] == json.loads(json.dumps(trial.params))
    assert rep["error_vs_grid_min"] == trial.min_value - grid.grid_min.value
    if path is not None:   # a searched grid is queried by interpolation, never below its minimum
        assert rep["error_vs_grid_min"] >= 0.0


def test_search_level_is_the_mcb_grid_level(tmp_path):
    rc, out = run(tmp_path, "search", "--method", "mcb", "--level", "6", "--r", "6",
                  "--g", "64", "--seed", "1")
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["params"]["l"] == 6
    assert rep["meta"]["params"]["level"] == 6 and "l" not in rep["meta"]["params"]


def test_search_r_defaults_to_the_grid_level(tmp_path):
    rc, out = run(tmp_path, "search", "--method", "mcb", "--level", "6", "--seed", "1")
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["params"]["r"] == rep["params"]["l"] == 6


@pytest.mark.parametrize("argv", [
    ["search", "--method", "naive-gss", "--level", "4"],
    ["search", "--method", "iter-gss", "--level", "4", "--m", "1"],
    ["search", "--method", "mcb", "--level", "4", "--g", "8"],
    ["search", "--method", "mcb-cauchy", "--level", "4", "--g", "8"],
    ["search", "--method", "harmonic", "--level", "4", "--budget", "2"],
    ["simulate", "--level", "3"],
    ["measure", "--walk-nodes", "3", "--beta", "0.2"],
    ["bench", "--method", "mcb", "--n", "2", "--trials", "2"],
    ["range", "--level", "3", "--paths", "5", "--bins", "4"],
], ids=lambda argv: "-".join(argv[:3:2]) if argv[0] == "search" else argv[0])
def test_meta_says_each_fact_once(tmp_path, argv):
    rc, out = run(tmp_path, *argv, "--seed", "1")
    assert rc == 0
    if argv[0] == "search":
        rep = json.loads(out.read_text())
        meta = rep["meta"]
        assert set(meta["params"]) == {"level", "method", "out", "path"}
        assert not set(rep["params"]) & set(meta["params"])
    else:
        meta = json.loads(Path(f"{out}.meta.json").read_text())
    assert meta["command"] == argv[0] and meta["seed"] == 1
    assert not set(meta) & set(meta["params"])   # no top-level key again in params


GIVEN = ["--n", "2", "--m", "1", "--level", "4", "--trials", "2"]


@pytest.mark.parametrize("argv, kept, unread", [
    # an MCB bench's CSV gives each cell's l, r, g
    (["bench", "--method", "mcb", *GIVEN], {"n"}, {"level", "epsilon", "max_iters", "m"}),
    (["bench", "--method", "naive-gss", *GIVEN], {"level", "epsilon", "max_iters"}, {"m", "n"}),
    (["bench", "--method", "iter-gss", *GIVEN], {"level", "epsilon", "max_iters", "m"}, {"n"}),
    (["measure", "--walk-nodes", "3"], {"walk_nodes", "oracle"}, {"dt"}),
], ids=["bench-mcb", "bench-naive-gss", "bench-iter-gss", "measure"])
def test_meta_leaves_out_options_the_run_did_not_read(tmp_path, argv, kept, unread):
    rc, out = run(tmp_path, *argv, "--seed", "1")
    assert rc == 0
    params = set(json.loads(Path(f"{out}.meta.json").read_text())["params"])
    assert kept <= params and not unread & params


MCB4 = ["search", "--method", "mcb", "--r", "4", "--g", "16", "--path", "GRID"]
WALK4 = "t,value\n0,0\n0.25,0.1\n0.5,-0.2\n0.75,0.1\n1,0\n"   # a 4-edge walk


@pytest.mark.parametrize("argv, config", [
    ([*MCB4, "--level", "12"], None),
    # the former default, which argparse cannot tell from an absent option
    ([*MCB4, "--level", "10"], None),
    ([*MCB4, "--config", "CFG"], {"level": 4}),
    (["measure", "--walk", "WALK", "--walk-nodes", "6"], None),
], ids=["path-level-12", "path-level-10", "path-level-key", "walk-walk-nodes"])
def test_each_trial_input_has_one_source(tmp_path, capsys, argv, config):
    # a saved grid brings its level, a walk its edge count: a second source is refused
    grid_file, walk, cfg = tmp_path / "g.csv", tmp_path / "w.csv", tmp_path / "cfg.json"
    assert main(["simulate", "--seed", "3", "--level", "4", "--out", str(grid_file)]) == 0
    walk.write_text(WALK4)
    cfg.write_text(json.dumps(config))
    inputs = sorted(tmp_path.iterdir())
    argv = [{"GRID": str(grid_file), "WALK": str(walk), "CFG": str(cfg)}.get(a, a) for a in argv]
    capsys.readouterr()
    rc, _ = run(tmp_path, *argv, "--seed", "1")
    assert rc == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs


def test_measure_meta_records_the_walk_edge_count(tmp_path):
    walk = tmp_path / "w.csv"
    walk.write_text(WALK4)
    for argv, edges in ((["--walk", str(walk)], 4), ([], 6)):
        rc, out = run(tmp_path, "measure", *argv, "--seed", "1")
        assert rc == 0
        assert json.loads(Path(f"{out}.meta.json").read_text())["params"]["walk_nodes"] == edges


@pytest.mark.parametrize("case", ["nan", "-inf", "kind", "no-level", "not-object",
                                  "huge-level", "true-level"])
def test_search_rejects_bad_grid_csv(tmp_path, capsys, case):
    grid_file = tmp_path / "g.csv"
    assert main(["simulate", "--seed", "3", "--level", "4", "--out", str(grid_file)]) == 0
    sidecar = tmp_path / "g.csv.meta.json"
    meta = json.loads(sidecar.read_text())
    if case in ("nan", "-inf"):
        rows = grid_file.read_text().splitlines()
        rows[5] = rows[5].split(",")[0] + "," + case
        grid_file.write_text("\n".join(rows) + "\n")
    else:
        if case == "true-level":   # a level-1 grid, so only the sidecar's level is wrong
            rows = grid_file.read_text().splitlines()
            grid_file.write_text("\n".join(rows[:2] + rows[9::8]) + "\n")
        sidecar.write_text(json.dumps({
            "kind": {**meta, "kind": "levy"},
            "no-level": {k: v for k, v in meta.items() if k != "level"},
            "not-object": [meta],
            "huge-level": {**meta, "level": 10 ** 11},   # checked without forming 2**level
            "true-level": {**meta, "level": True},   # a JSON bool is no level
        }[case]))
    capsys.readouterr()
    rc, out = run(tmp_path, "search", "--method", "mcb", "--path", str(grid_file),
                  "--r", "1" if case == "true-level" else "4", "--g", "16", "--seed", "1")
    assert rc == 2
    assert f"error: {grid_file}: " in capsys.readouterr().err
    assert not out.exists()


def test_search_harmonic_rejects_unpinned_grid(tmp_path):
    grid_file = tmp_path / "c.csv"
    assert main(["simulate", "--seed", "3", "--level", "5", "--kind", "cauchy",
                 "--out", str(grid_file)]) == 0
    rc = main(["search", "--method", "harmonic", "--path", str(grid_file),
               "--budget", "3", "--seed", "3", "--out", str(tmp_path / "r.json")])
    assert rc == 2


def test_measure_flat_walk_weights_are_widths(tmp_path):
    walk = tmp_path / "walk.csv"
    walk.write_text("t,value\n0,0\n\n0.25,0\n0.5,0\n\n1,0\n")   # blank rows are skipped
    rc = main(["measure", "--walk", str(walk), "--beta", "0", "--seed", "1",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "m.csv").open()))
    assert rows[0] == ["k", "t_left", "t_right", "weight"]
    weights = [float(r[3]) for r in rows[1:]]
    assert np.allclose(weights, [0.25, 0.25, 0.5], atol=1e-12)


def test_measure_oracle_flag_appends_columns(tmp_path):
    rc = main(["measure", "--walk-nodes", "3", "--beta", "0.2", "--seed", "2",
               "--oracle", "400", "--out", str(tmp_path / "m.csv")])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "m.csv").open()))
    assert rows[0] == ["k", "t_left", "t_right", "weight", "mc_weight", "mc_stderr"]
    assert all(len(r) == 6 for r in rows[1:])


def test_measure_rejects_malformed_walk(tmp_path, capsys):
    walk = tmp_path / "walk.csv"
    walk.write_text("t,value\n0,0\n0.5,oops\n1,0\n")
    rc = main(["measure", "--walk", str(walk), "--seed", "1",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


def test_measure_numerical_failure_exits_three(tmp_path, capsys):
    # atan(2e20) / pi rounds to 1/2, so the spike's vertex angle is 0
    walk = tmp_path / "walk.csv"
    walk.write_text("t,value\n0,0\n0.5,1\n1,0\n")
    rc = main(["measure", "--walk", str(walk), "--beta", "1e20", "--seed", "1",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_measure_pre_vertices_out_of_order_exit_three(tmp_path, capsys):
    # the perturbative solve of this beta = 1 walk returns crossed pre-vertices
    poly = make_bridge_walk(0, 12, beta=1.0)
    walk = tmp_path / "walk.csv"
    nodes = zip(poly.times.tolist(), poly.values.tolist())
    walk.write_text("t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in nodes))
    out = tmp_path / "m.csv"
    rc = main(["measure", "--walk", str(walk), "--solver", "perturbative", "--seed", "1",
               "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == ("numerical failure: pre-vertices out of order; "
                                       "amplitude too large for the chosen solver\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["walk.csv"]


def test_measure_newton_miss_exits_three(tmp_path, capsys):
    # the cold solve of the 63-edge walk stops short of RESIDUAL_ACCEPT
    rc = main(["measure", "--walk-nodes", "63", "--seed", "1", "--out", str(tmp_path / "m.csv")])
    assert rc == 3
    assert capsys.readouterr().err == ("numerical failure: side-length solve stalled "
                                       "(no_descent) at relative residual 3.725e-08\n")
    assert not (tmp_path / "m.csv").exists()


def test_measure_perturbative_walk_past_edge_cap_is_usage_error(tmp_path, capsys):
    # 600 edges would need about 0.7 GiB of perturbative kernel
    walk = tmp_path / "walk.csv"
    t = np.linspace(0.0, 1.0, 601)
    walk.write_text("t,value\n" + "".join(f"{x},0\n" for x in t))
    rc = main(["measure", "--walk", str(walk), "--solver", "perturbative", "--seed", "1",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: walk has 600 edges")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("solver", ["full", "perturbative"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_measure_non_finite_walk_is_usage_error(tmp_path, capsys, solver, bad):
    walk = tmp_path / "walk.csv"
    walk.write_text(f"t,value\n0,0\n0.5,{bad}\n1,0\n")
    rc = main(["measure", "--walk", str(walk), "--solver", solver, "--seed", "1",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: walk values must be finite")
    assert not (tmp_path / "m.csv").exists()


def test_bench_small_grid(tmp_path):
    rc, out = run(tmp_path, "bench", "--method", "mcb", "--n", "2..3",
                  "--trials", "3", "--seed", "0")
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 3
    assert (tmp_path / "out.meta.json").exists()


def test_each_command_writes_one_data_file_and_one_meta_record(tmp_path):
    # search embeds meta in its report; the others write a sidecar, and
    # range also writes its histogram
    runs = {
        "simulate": ["simulate", "--level", "3"],
        "search": ["search", "--method", "mcb", "--level", "4", "--r", "4", "--g", "8"],
        "measure": ["measure", "--walk-nodes", "3", "--beta", "0.2"],
        "oracle": ["measure", "--walk-nodes", "3", "--beta", "0.2", "--oracle", "50"],
        "bench": ["bench", "--method", "mcb", "--n", "2", "--trials", "2"],
        "range": ["range", "--level", "3", "--paths", "5", "--bins", "4"],
    }
    written = {"search": ["out"], "range": ["out", "out.hist.csv", "out.meta.json"]}
    for name, argv in runs.items():
        (tmp_path / name).mkdir()
        assert main(argv + ["--seed", "1", "--out", str(tmp_path / name / "out")]) == 0
        files = sorted(p.name for p in (tmp_path / name).iterdir())
        assert files == written.get(name, ["out", "out.meta.json"]), name
    rep = json.loads((tmp_path / "search" / "out").read_text())
    assert "seed" not in rep and rep["meta"]["seed"] == 1
    header = ["k", "t_left", "t_right", "weight"]
    assert next(csv.reader((tmp_path / "measure" / "out").open())) == header
    assert next(csv.reader((tmp_path / "oracle" / "out").open())) == header + [
        "mc_weight", "mc_stderr"]


@pytest.mark.parametrize("method, flags, cells", [
    ("naive-gss", [], [{}]),
    ("iter-gss", ["--m", "0..2"], [{"m": 0}, {"m": 1}, {"m": 2}]),
])
def test_bench_gss_csv_is_run_grid(tmp_path, method, flags, cells):
    # the same grid run in-process gives the same CSV, wall times aside
    rc, out = run(tmp_path, "bench", "--method", method, *flags, "--level", "6",
                  "--trials", "5", "--epsilon", "0.01", "--max-iters", "50", "--seed", "3")
    assert rc == 0
    ref = tmp_path / "ref.csv"
    save_bench_csv(run_grid(TrialGrid(method=method, cells=cells, trials=5, seed=3, level=6,
                                      gss=GssParams(epsilon=0.01, max_iters=50))), str(ref))

    def table(path):
        rows = list(csv.reader(path.open()))
        wall = rows[0].index("mean_wall_time")
        return [row[:wall] + row[wall + 1:] for row in rows]

    assert table(out) == table(ref)
    assert len(table(out)) == len(cells) + 1


def test_bench_requires_cells_flag(tmp_path, capsys):
    rc, _ = run(tmp_path, "bench", "--method", "mcb", "--seed", "0")
    assert rc == 2
    rc, _ = run(tmp_path, "bench", "--method", "iter-gss", "--seed", "0")
    assert rc == 2


def test_bench_invalid_cells_exit_two(tmp_path, capsys):
    # n = 0 gives a depth-0 descent: a usage error, not a failed trial
    rc, out = run(tmp_path, "bench", "--method", "mcb", "--n", "0..2",
                  "--trials", "5", "--seed", "0")
    assert rc == 2
    assert "depth" in capsys.readouterr().err
    assert not out.exists()


def test_search_harmonic_budget_past_cap_exits_two(tmp_path, capsys):
    rc, out = run(tmp_path, "search", "--method", "harmonic", "--budget", "64",
                  "--seed", "1")
    assert rc == 2
    assert "caps at 64" in capsys.readouterr().err
    assert not out.exists()


def test_measure_full_solver_past_vertex_cap_exits_two(tmp_path, capsys):
    # a 64-edge walk has 65 vertices, one past the full solver's cap
    rc, out = run(tmp_path, "measure", "--walk-nodes", "64", "--solver", "full",
                  "--seed", "1")
    assert rc == 2
    assert "caps at 64" in capsys.readouterr().err
    assert not out.exists()


def test_range_command(tmp_path):
    rc, out = run(tmp_path, "range", "--seed", "2", "--level", "4",
                  "--paths", "50", "--bins", "10")
    assert rc == 0
    assert len(list(csv.reader(out.open()))) == 51
    meta = json.loads((tmp_path / "out.meta.json").read_text())
    assert 0.0 < meta["mean_range"] < 3.0
    assert (tmp_path / "out.hist.csv").exists()


def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 4}))
    rc = main(["simulate", "--seed", "1", "--config", str(cfg),
               "--out", str(tmp_path / "a.csv")])
    assert rc == 0
    assert len(list(csv.reader((tmp_path / "a.csv").open()))) == 18

    rc = main(["simulate", "--seed", "1", "--config", str(cfg), "--level", "3",
               "--out", str(tmp_path / "b.csv")])
    assert rc == 0
    assert len(list(csv.reader((tmp_path / "b.csv").open()))) == 10


def test_config_supplies_required_options(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--level", "3", "--out", str(out)]) == 0
    assert json.loads((tmp_path / "x.csv.meta.json").read_text())["seed"] == 5
    cfg.write_text(json.dumps({"seed": 5, "out": str(tmp_path / "r.json"),
                               "method": "naive-gss", "level": 6}))
    assert main(["search", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["meta"]["seed"] == 5
    # supplied by neither the config nor the command line: still required
    cfg.write_text(json.dumps({"level": 3}))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err


def test_config_with_dashed_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-iters": 5, "epsilon": 0.0}))
    rc = main(["search", "--method", "naive-gss", "--seed", "1", "--level", "6",
               "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert rc == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["params"]["iterations"] == 5


def test_config_null_leaves_option_at_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": None, "kind": None}))
    rc = main(["simulate", "--seed", "1", "--config", str(cfg),
               "--out", str(tmp_path / "a.csv")])
    assert rc == 0
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["level"] == 10   # the grid format's own keys, written by save_grid_csv
    assert meta["kind"] == "brownian_bridge"


@pytest.mark.parametrize("argv", [["search", "--method", "harmonic"], ["simulate"]])
def test_config_value_outside_choices_is_usage_error(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    option = "solver" if argv[0] == "search" else "kind"
    cfg.write_text(json.dumps({option: "levy"}))
    rc = main(argv + ["--seed", "3", "--config", str(cfg),
                      "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'levy'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_config_values_are_typed_like_flags(tmp_path):
    def rows(name, *extra):
        argv = ["bench", "--method", "mcb", "--trials", "2", "--seed", "0",
                "--out", str(tmp_path / name), *extra]
        assert main(argv) == 0
        # every column but the wall time is deterministic
        return [r[:7] + r[8:] for r in csv.reader((tmp_path / name).open())]

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4}))
    assert rows("c.csv", "--config", str(cfg)) == rows("f.csv", "--n", "4")

    def params(name, *extra):
        argv = ["search", "--method", "harmonic", "--budget", "2", "--level", "4",
                "--seed", "1", "--out", str(tmp_path / name), *extra]
        assert main(argv) == 0
        return json.loads((tmp_path / name).read_text())["params"]

    cfg.write_text(json.dumps({"beta": 1}))
    by_config = params("c.json", "--config", str(cfg))
    assert by_config == params("f.json", "--beta", "1")
    assert isinstance(by_config["beta"], float)


def test_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc = main(["simulate", "--seed", "1", "--config", str(cfg),
               "--out", str(tmp_path / "a.csv")])
    assert rc == 2
    rc = main(["simulate", "--seed", "1", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "a.csv")])
    assert rc == 2


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 3, "bogus_key": 1}))
    rc = main(["simulate", "--seed", "1", "--config", str(cfg),
               "--out", str(tmp_path / "a.csv")])
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()
    # a real option of another subcommand is unknown to this one
    cfg.write_text(json.dumps({"trials": 3}))
    rc = main(["simulate", "--seed", "1", "--config", str(cfg),
               "--out", str(tmp_path / "a.csv")])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, named", [
    # options match by full name only, on the command line and as config keys
    (["search", "--method", "naive-gss", "--seed", "1", "--conf", "CFG"], {"level": 4},
     "--conf"),
    (["search", "--method", "naive-gss", "--seed", "1", "--max-it", "3"], None, "--max-it"),
    (["search", "--method", "naive-gss", "--seed", "1", "--config", "CFG"], {"max_iters": 3},
     "max_iters"),
    # one --config, which cannot name another
    (["simulate", "--seed", "1", "--config", "CFG", "--config", "CFG"], {"level": 4},
     "--config"),
    (["simulate", "--seed", "1", "--config=CFG", "--config", "CFG"], {"level": 4}, "--config"),
    (["simulate", "--seed", "1", "--config", "CFG"], {"config": "other.json"}, "config"),
    # a seed is a non-negative integer, given as a flag or in a config
    (["simulate", "--seed", "-1"], None, "--seed"),
    (["simulate", "--config", "CFG"], {"seed": -1}, "--seed"),
    # the harmonic search always bisects its heaviest edge: no strategy to pick
    pytest.param(["search", "--method", "harmonic", "--strategy", "max", "--seed", "1"], None,
                 "unrecognized arguments: --strategy max", id="no-strategy"),
    # --level is every method's grid level: MCB has no level of its own
    pytest.param(["search", "--method", "mcb", "--l", "6", "--g", "64", "--seed", "1"], None,
                 "unrecognized arguments: --l 6", id="no-l-flag"),
    pytest.param(["search", "--method", "mcb", "--g", "64", "--seed", "1", "--config", "CFG"],
                 {"l": 6}, "unrecognized arguments: --l=6", id="no-l-key"),
])
def test_misspelt_repeated_or_negative_option_is_usage_error(tmp_path, capsys, argv, config,
                                                             named):
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
    argv = [a.replace("CFG", str(cfg)) for a in argv]
    rc, out = run(tmp_path, *argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: " in err and named in err
    assert not out.exists()


def test_argparse_errors_exit_two(tmp_path, capsys):
    assert main(["simulate", "--out", "x.csv"]) == 2          # missing --seed
    assert main(["search", "--method", "sorcery", "--seed", "1",
                 "--out", "x.json"]) == 2                      # bad choice
    assert main(["frobnicate"]) == 2                           # bad command
    capsys.readouterr()


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == 0
    assert "pathmin" in capsys.readouterr().out


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with it blocked, the CLI imports, a
    # harmonic search and a measure both succeed, and no scipy module loads
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        from pathmin.cli import main
        assert main(["search", "--method", "harmonic", "--budget", "8", "--seed", "1",
                     "--out", {str(tmp_path / "search.json")!r}]) == 0
        assert main(["measure", "--walk-nodes", "8", "--seed", "5",
                     "--out", {str(tmp_path / "measure.csv")!r}]) == 0
        loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None]
        assert not loaded, loaded
    """)
    src = str(Path(pathmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
