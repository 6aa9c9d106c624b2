"""Scenario runner: canonical artifacts, job statuses, and the CLI."""

import importlib
import json
import math
import os
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicfin import (
    ScenarioError,
    SearchConfig,
    load_scenario,
    price,
    render_summary,
    run_scenario,
    solve_bsde,
    write_csv,
    write_json,
)
from conicfin.cli import main

from test_market import AAPL_ASK, AAPL_BID

scenario_module = sys.modules["conicfin.scenario"]

LIGHT_SEARCH = {"grid_points": 11, "multi_starts": 3, "sweeps": 2, "refine_rounds": 2}


def tables_cfg():
    """Mispriced two-period tables plus an order book; every job type."""
    return {
        "name": "tables-demo",
        "seed": 7,
        "tree": {"horizon": 2},
        "drivers": {"gx": {"kind": "entropic", "gamma": 1.0}},
        "families": {"ent": {"kind": "entropic"}, "coh": {"kind": "coherent"}},
        "streams": {
            "payout": {"values": [0.0, [0.3, -0.1], [1.0, 0.4, 0.2, -0.3]]},
            "updown": {"values": [0.0, [1.0, -0.9], 0.0]},
        },
        "securities": [
            {
                "id": "stk",
                "flavor": "direct",
                "stream": "zero",
                "unit_ask": [[10], [12, 11], [13, 11, 12, 10]],
                "unit_bid": [[10], [11, 10], [12, 10, 11, 9]],
            },
            {
                "id": "aapl",
                "flavor": "book",
                "ask_ladder": AAPL_ASK,
                "bid_ladder": AAPL_BID,
                "tick_scale": 100,
            },
        ],
        "jobs": [
            {"type": "solve", "driver": "gx", "terminal": {"stream": "payout"}},
            {
                "type": "price_table",
                "family": "ent",
                "stream": "payout",
                "gammas": [1.0, 2.0],
                "times": [0, 1],
            },
            {"type": "axioms", "target": "dcrm", "driver": "gx"},
            {"type": "axioms", "target": "dai", "family": "ent", "expect_scale_invariance": False},
            {"type": "axioms", "target": "family", "family": "ent"},
            {"type": "axioms", "target": "regularity", "driver": "gx", "expect_regular": True},
            {
                "type": "index",
                "family": "coh",
                "stream": "updown",
                "expect": [0.05555555555555555],
                "tol": 1e-7,
            },
            {"type": "arbitrage", "expect": "found", "search": LIGHT_SEARCH},
            {"type": "ngd", "family": "ent", "gamma": 2.0, "expect": "GOOD_DEAL_FOUND", "search": LIGHT_SEARCH},
            {
                "type": "book_quotes",
                "security": "aapl",
                "phis": [200, 500],
                "expect": [23322.0, 58308.0],
            },
        ],
    }


def conic_cfg():
    """A conic market is good-deal-free; plain arbitrage absence is only a
    warning unless the strategy grid is swept exhaustively."""
    return {
        "name": "conic-demo",
        "seed": 3,
        "tree": {"horizon": 2},
        "families": {"ent": {"kind": "entropic"}},
        "streams": {"payout": {"values": [0.0, [0.3, -0.1], [1.0, 0.4, 0.2, -0.3]]}},
        "securities": [
            {"id": "note", "flavor": "conic", "family": "ent", "stream": "payout", "gamma_ask": 2.0}
        ],
        "jobs": [
            {"type": "arbitrage", "expect": "none", "search": LIGHT_SEARCH},
            {"type": "ngd", "family": "ent", "gamma": 2.0, "expect": "NONE_FOUND", "search": LIGHT_SEARCH},
            {"type": "hedged", "family": "ent", "gamma": 2.0, "stream": "payout", "search": LIGHT_SEARCH},
        ],
    }


def read_tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_canonical_json_is_sorted_compact_and_rounded(tmp_path):
    path = str(tmp_path / "obj.json")
    write_json(
        path,
        {
            "b": np.float64(0.1234567890123456789),
            "a": [np.inf, -np.inf, np.nan],
            "n": np.int64(3),
            "flag": np.bool_(True),
            "arr": np.array([1.0, 0.5]),
        },
    )
    text = open(path).read()
    assert text == '{"a":["inf","-inf","nan"],"arr":[1.0,0.5],"b":0.123456789012,"flag":true,"n":3}\n'


def test_csv_formatting_is_stable(tmp_path):
    path = str(tmp_path / "table.csv")
    write_csv(path, ("a", "b"), [(1, 0.25), ("x", np.float64(1e-13)), (np.nan, -np.inf)])
    assert open(path).read() == "a,b\n1,0.25\nx,1e-13\nnan,-inf\n"


# -0.0, subnormals, the least normal, the switches of %g to and from
# exponent form at 1e-4 and 1e12 (with 1e-5, 1e11 and 1e16 on either
# side), 12-digit rounding carries into those switches, the largest float,
# and each one's two neighbours
FORMAT_EDGES = [
    math.nextafter(e, d) if d else e
    for e in (
        -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 9.9999999999995e-5,
        1e11, 1e12, 999999999999.5, 1e16, 0.1 + 0.2, 1.7976931348623157e308,
    )
    for d in (0.0, -math.inf, math.inf)
    if math.isfinite(math.nextafter(e, d) if d else e)
]


@given(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FORMAT_EDGES))
@settings(max_examples=400, deadline=None)
def test_percent_render_is_the_cell_formatter(x):
    """The CSV jobs' % render gives _fmt's bytes for every finite float:
    both are CPython's 12-digit %g conversion."""
    assert "%.12g" % x == scenario_module._fmt(x)
    assert "%.12g" % -x == scenario_module._fmt(-x)


# (tree, martingale, terminal, a line fragment of the CSV): the binary
# horizon-2 walk, and a ternary level followed by a ragged one of 2, 2 and 3
# children, with increments of mean zero under each parent's probabilities
SOLVE_TREES = (
    ({"horizon": 2}, "symmetric_walk", [-0.0, 5e-324, 1e16, 0.1 + 0.2], "\n2,0,-0,-0,0\n2,1,4.94065645841e-324,"),
    (
        {"levels": [[0.25, 0.5, 0.25], [[0.5, 0.5], [0.25, 0.75], [0.2, 0.3, 0.5]]]},
        {"increments": [[-1.0, 0.0, 1.0], [1.0, -1.0, 3.0, -1.0, 1.0, 1.0, -1.0]]},
        [-0.0, 5e-324, 1e16, 0.1 + 0.2, -1.5, 1e-5, 1e12],
        "\n2,5,1e-05,",
    ),
)


def test_solve_table_matches_cell_by_cell_formatting(tmp_path):
    """Every cell of the solve CSV, Z read per child through parent[t], on
    binary levels and on ternary and ragged ones."""
    for k, (tree, martingale, terminal, fragment) in enumerate(SOLVE_TREES):
        cfg = {
            "name": "solve-bytes",
            "tree": tree,
            "martingale": martingale,
            "drivers": {"gx": {"kind": "entropic", "gamma": 1.0}},
            "jobs": [{"type": "solve", "driver": "gx", "terminal": terminal}],
        }
        summary = run_scenario(cfg, str(tmp_path / f"out{k}"))
        scn = load_scenario(cfg)
        tr = scn.walk.tree
        sol = solve_bsde(scn.drivers["gx"], np.array(terminal), scn.walk)
        lines = ["t,node,Y,Z,M"]
        for t in range(tr.horizon + 1):
            for v in range(tr.n_nodes(t)):
                z = "" if t == 0 else f"{float(sol.Z[t][tr.parent[t][v]]):.12g}"
                lines.append(f"{t},{v},{float(sol.Y[t][v]):.12g},{z},{float(sol.M[t][v]):.12g}")
        got = open(tmp_path / f"out{k}" / summary["jobs"][0]["artifact"]).read()
        assert got == "\n".join(lines) + "\n", tree
        assert fragment in got


def test_price_table_matches_cell_by_cell_formatting(tmp_path):
    """Every cell of the price_table CSV, ask and bid, on a ternary level
    followed by a ragged one. Level-1 node 1 has only zero payments left,
    so its bid quotes are -0."""
    tree, martingale = SOLVE_TREES[1][:2]
    jobs = [
        {"type": "price_table", "family": kind, "stream": "payout", "gammas": [0.5, 3.0]}
        for kind in ("ent", "coh")
    ]
    cfg = {
        "name": "price-bytes",
        "tree": tree,
        "martingale": martingale,
        "families": {"ent": {"kind": "entropic"}, "coh": {"kind": "coherent"}},
        "streams": {"payout": {"values": [0.0, [0.3, -0.1, 0.0], [1.0, -0.25, 0.0, 0.0, 1e-5, 5e-324, 1e12]]}},
        "jobs": jobs,
    }
    summary = run_scenario(cfg, str(tmp_path / "out"))
    scn = load_scenario(cfg)
    fmt = scenario_module._fmt
    for job, entry in zip(jobs, summary["jobs"]):
        fam = scn.families[job["family"]]
        lines = ["t,node,side,gamma,family,phi,value"]
        for t in range(3):
            for gamma in (0.5, 3.0):
                for side in ("ask", "bid"):
                    value = price(side, fam, gamma, 1.0, scn.streams["payout"], t).value
                    cells = [(t, v, side, gamma, fam.kind, 1.0, x) for v, x in enumerate(value)]
                    lines += [",".join(map(fmt, row)) for row in cells]
        got = open(tmp_path / "out" / entry["artifact"]).read()
        assert got == "\n".join(lines) + "\n", job["family"]
        assert f"\n1,1,bid,0.5,{fam.kind},1,-0\n" in got


def test_book_quotes_match_cell_by_cell_formatting(tmp_path):
    """Every cell of the book_quotes CSV, ask and bid."""
    cfg = tables_cfg()
    phis = [0, 200, 500.5, 1e-5]
    cfg["jobs"] = [
        {"type": "book_quotes", "security": "aapl", "side": side, "phis": phis} for side in ("ask", "bid")
    ]
    summary = run_scenario(cfg, str(tmp_path / "out"))
    sec = load_scenario(cfg).market.security("aapl")
    fmt = scenario_module._fmt
    for op, side, entry in zip((sec.op_ask, sec.op_bid), ("ask", "bid"), summary["jobs"]):
        lines = ["t,node,side,phi,value"]
        cells = [(0, 0, side, float(phi), float(op.price(0, np.full(1, phi))[0])) for phi in phis]
        lines += [",".join(map(fmt, row)) for row in cells]
        assert open(tmp_path / "out" / entry["artifact"]).read() == "\n".join(lines) + "\n", side


def test_every_job_type_passes_on_the_tables_scenario(tmp_path):
    summary = run_scenario(tables_cfg(), str(tmp_path / "out"))
    statuses = {e["job"]: e["status"] for e in summary["jobs"]}
    assert all(s == "pass" for s in statuses.values()), summary["jobs"]
    assert summary["passed"]
    assert len(summary["jobs"]) == 10
    for e in summary["jobs"]:
        if "artifact" in e:
            assert os.path.exists(tmp_path / "out" / e["artifact"])
    assert os.path.exists(tmp_path / "out" / "summary.json")


def test_reruns_are_byte_identical_even_in_parallel(tmp_path):
    """Every job type, arbitrage both searched and exhaustive, on table,
    book and conic markets: a rerun and a run with jobs_parallel=3 write
    the same bytes, summary.json included."""
    exhaustive = {"type": "arbitrage", "search": {"exhaustive": True, "exhaustive_target": 4096}}
    hedged = {"type": "hedged", "family": "ent", "gamma": 2.0, "stream": "payout", "search": LIGHT_SEARCH}
    tables, conic = tables_cfg(), conic_cfg()
    tables["jobs"] += [exhaustive, hedged]
    conic["jobs"] += [exhaustive, {"type": "price_table", "family": "ent", "stream": "payout"}]
    run_scenario(tables, str(tmp_path / "a"))
    run_scenario(tables, str(tmp_path / "b"))
    run_scenario(tables, str(tmp_path / "c"), jobs_parallel=3)
    a = read_tree_bytes(tmp_path / "a")
    assert a == read_tree_bytes(tmp_path / "b")
    assert a == read_tree_bytes(tmp_path / "c")
    assert len(a) == 13
    summary = run_scenario(conic, str(tmp_path / "d"))
    run_scenario(conic, str(tmp_path / "e"), jobs_parallel=3)
    d = read_tree_bytes(tmp_path / "d")
    assert d == read_tree_bytes(tmp_path / "e")
    assert len(d) == 6
    jobs = json.loads(a["summary.json"])["jobs"] + summary["jobs"]
    assert all(e["status"] != "error" for e in jobs), jobs
    types = {e["type"] for e in jobs}
    assert types == {"solve", "price_table", "axioms", "index", "arbitrage", "ngd", "hedged", "book_quotes"}


def test_seed_override_lands_in_the_summary(tmp_path):
    cfg = conic_cfg()
    summary = run_scenario(cfg, str(tmp_path / "out"), seed_override=123)
    assert summary["seed"] == 123


def test_heuristic_no_arbitrage_is_a_warning_and_strict_fails_it(tmp_path):
    cfg = conic_cfg()
    summary = run_scenario(cfg, str(tmp_path / "lax"))
    statuses = [e["status"] for e in summary["jobs"]]
    assert statuses == ["warn", "pass", "pass"]
    assert summary["passed"]
    strict = run_scenario(cfg, str(tmp_path / "strict"), strict=True)
    assert not strict["passed"]


def test_exhaustive_sweep_upgrades_no_arbitrage_to_a_pass(tmp_path):
    cfg = tables_cfg()
    cfg["securities"] = cfg["securities"][:1]
    cfg["jobs"] = [
        {
            "type": "arbitrage",
            "entry": 1,
            "expect": "none",
            "search": {"exhaustive": True, "bound": 3.0, "exhaustive_target": 50000},
        }
    ]
    summary = run_scenario(cfg, str(tmp_path / "out"))
    assert summary["jobs"][0]["status"] == "pass"
    assert summary["passed"]


def test_failing_job_is_reported_without_killing_siblings(tmp_path):
    cfg = tables_cfg()
    cfg["jobs"] = [
        {"type": "solve", "driver": "gx", "terminal": {"stream": "payout"}},
        {"type": "book_quotes", "security": "aapl", "phis": [5000]},
    ]
    summary = run_scenario(cfg, str(tmp_path / "out"))
    assert summary["jobs"][0]["status"] == "pass"
    assert summary["jobs"][1]["status"] == "error"
    assert "DepthExceeded" in summary["jobs"][1]["error"]
    assert not summary["passed"]


def test_wrong_expectations_fail_the_job(tmp_path):
    cfg = tables_cfg()
    cfg["jobs"] = [
        {"type": "index", "family": "coh", "stream": "updown", "expect": [0.25], "tol": 1e-7}
    ]
    summary = run_scenario(cfg, str(tmp_path / "out"))
    assert summary["jobs"][0]["status"] == "fail"
    assert not summary["passed"]


def test_malformed_configs_raise_scenario_errors(tmp_path):
    """Every malformed job raises from load_scenario alone, before any job
    runs, and from run_scenario too."""

    def refused(cfg, out, match=None):
        with pytest.raises(ScenarioError, match=match):
            load_scenario(cfg)
        with pytest.raises(ScenarioError, match=match):
            run_scenario(cfg, str(tmp_path / out))

    with pytest.raises(ScenarioError):
        load_scenario({"seed": 1})
    with pytest.raises(ScenarioError):
        load_scenario({"tree": {}})
    with pytest.raises(ScenarioError):
        load_scenario({"tree": {"horizon": 2}, "martingale": "walk?"})
    with pytest.raises(ScenarioError):
        load_scenario({"tree": {"horizon": 2}, "streams": {"s": {"wat": 1}}})
    with pytest.raises(ScenarioError):
        load_scenario({"tree": {"horizon": 2}, "families": {"f": {"kind": "coherent", "gamma": 3}}})
    with pytest.raises(ScenarioError):
        load_scenario({"tree": {"horizon": 2}, "families": {"f": "coherent"}})
    cfg = conic_cfg()
    cfg["jobs"] = [{"type": "mystery"}]
    refused(cfg, "out")
    cfg["jobs"] = [{"type": "ngd", "family": "ent", "gamma": 2.0, "search": LIGHT_SEARCH}]
    cfg.pop("securities")
    refused(cfg, "out2")
    cfg["jobs"] = [{"type": "price_table", "family": "ent", "stream": "missing"}]
    refused(cfg, "out3")
    cfg = conic_cfg()
    horizon = cfg["tree"]["horizon"]
    for job in (
        {"type": "index", "family": "ent", "stream": "payout", "time": 99},
        {"type": "index", "family": "ent", "stream": "payout", "time": -1},
        {"type": "price_table", "family": "ent", "stream": "payout", "times": [0, horizon + 1]},
        {"type": "arbitrage", "entry": horizon, "search": LIGHT_SEARCH},
        {"type": "ngd", "family": "ent", "gamma": 2.0, "entry": -1, "search": LIGHT_SEARCH},
        {"type": "hedged", "family": "ent", "gamma": 2.0, "stream": "payout", "entry": horizon},
    ):
        cfg["jobs"] = [job]
        refused(cfg, "out4", match="must lie in")
    for job in (
        {"type": "index", "family": "ent", "stream": "payout", "time": "one"},
        {"type": "index", "family": "ent", "stream": "payout", "time": 1.5},
        {"type": "index", "family": "ent", "stream": "payout", "time": True},
        {"type": "price_table", "family": "ent", "stream": "payout", "times": []},
        {"type": "solve", "driver": "zero", "terminal": [1.0, 2.0]},
        {"type": "solve", "driver": "zero", "terminal": [1.0, 2.0, float("nan"), 0.0]},
        {"type": "price_table", "family": "ent", "stream": "payout", "gammas": [-1.0]},
        {"type": "price_table", "family": "ent", "stream": "payout", "gammas": ["a"]},
        {"type": "price_table", "family": "ent", "stream": "payout", "gammas": []},
        {"type": "price_table", "family": "ent", "stream": "payout", "phi": -2},
        {"type": "price_table", "family": "ent", "stream": "payout", "sides": ["mid"]},
        {"type": "index", "family": {"kind": "coherent", "x": 1}, "stream": "payout"},
        {"type": "hedged", "family": "ent", "gamma": -1, "stream": "payout", "search": LIGHT_SEARCH},
        {"type": "hedged", "family": "ent", "gamma": "nan", "stream": "payout", "search": LIGHT_SEARCH},
        {"type": "ngd", "family": "ent", "gamma": -1, "search": LIGHT_SEARCH},
        {"type": "ngd", "family": "ent", "gamma": "nan", "search": LIGHT_SEARCH},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "grid_points": 0}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "bound": -1}},
        {"type": "ngd", "family": "ent", "search": LIGHT_SEARCH},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "sweeps": "x"}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "tol": "nan"}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "tol": float("nan")}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "multi_starts": -1}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "multi_starts": 0}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "seed": 1.5}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "exhaustive": "true"}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "exhaustive_target": 0}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "sweep": 2}},
        {"type": "arbitrage", "search": LIGHT_SEARCH, "out": "../escaped.json"},
        {"type": "arbitrage", "search": LIGHT_SEARCH, "out": str(tmp_path / "escaped.json")},
        {"type": "arbitrage", "search": LIGHT_SEARCH, "out": "summary.json"},
        {"type": "book_quotes", "security": "note", "phis": [1.0], "side": "mid"},
        {"type": "book_quotes", "security": "nope", "phis": [1.0]},
        {"type": "book_quotes", "security": "note", "phis": ["a"]},
        {"type": "book_quotes", "security": "note", "phis": 5},
        {"type": "index", "family": "ent", "stream": "payout", "expect": [0.1], "tol": "x"},
        {"type": "axioms", "target": "regularity", "driver": "zero", "expect_regular": "false"},
        {"type": "axioms", "target": "dai", "family": "ent", "expect_scale_invariance": "false"},
        {"type": "arbitrage", "expect": "nope", "search": LIGHT_SEARCH},
        {"type": "ngd", "family": "ent", "gamma": 2.0, "expect": "nope", "search": LIGHT_SEARCH},
        {"type": "price_table", "family": "ent", "stream": "payout", "times": 3},
        {"type": "price_table", "family": "ent", "stream": "payout", "sides": 5},
        {"type": "price_table", "family": "ent", "stream": "payout", "sides": {"ask": 1}},
        {"type": "index", "family": "ent", "stream": "payout", "expect": "x"},
        {"type": "index", "family": "ent", "stream": "payout", "expect": [0.1, 0.2]},
        {"type": "index", "family": "ent", "stream": "payout", "expect": ["infinite"]},
        {"type": "index", "family": "ent", "stream": "payout", "expect": [float("nan")]},
        {"type": "book_quotes", "security": "note", "phis": [1.0], "expect": 5},
        {"type": "book_quotes", "security": "note", "phis": [1.0], "expect": ["a"]},
        {"type": "book_quotes", "security": "note", "phis": [1.0], "expect": [float("inf")]},
        {"type": "book_quotes", "security": "note", "phis": [1.0, 2.0], "expect": [1.0]},
        {"type": "book_quotes", "security": "note", "phis": [1.0], "expect": []},
        {"type": "axioms", "target": "mystery"},
        {"type": "hedged", "family": "ent", "gamma": 2.0, "stream": "payout", "phi": 10**400},
        {"type": "hedged", "family": "ent", "gamma": 2.0, "stream": "payout",
         "search": {**LIGHT_SEARCH, "bound": 10**400}},
    ):
        cfg["jobs"] = [job]
        refused(cfg, "out5")
    huge_level = conic_cfg()
    huge_level["securities"][0]["gamma_ask"] = 10**400
    huge_ladder = tables_cfg()
    huge_ladder["securities"][1]["ask_ladder"] = [[10**400, 1]]
    with pytest.raises(ScenarioError, match="gamma_ask must be a finite number"):
        load_scenario(huge_level)
    with pytest.raises(ScenarioError, match="OverflowError"):
        load_scenario(huge_ladder)
    assert not (tmp_path / "escaped.json").exists()
    nan_table = tables_cfg()
    nan_table["securities"][0]["unit_ask"][1] = [float("nan"), 11]
    with pytest.raises(ScenarioError, match="unit prices must be finite"):
        load_scenario(nan_table)
    twice = {"type": "arbitrage", "search": LIGHT_SEARCH, "out": "same.json"}
    cfg["jobs"] = [twice, {**twice, "expect": "none"}]
    refused(cfg, "out6")
    for out in ("out", "out2", "out3", "out4", "out5", "out6"):
        assert not (tmp_path / out).exists()


def test_render_summary_lists_one_line_per_job(tmp_path):
    summary = run_scenario(conic_cfg(), str(tmp_path / "out"))
    text = render_summary(summary)
    lines = text.splitlines()
    assert lines[0].startswith("scenario conic-demo")
    assert len(lines) == 2 + len(summary["jobs"])
    assert lines[-1] == "PASSED"
    assert any("[warn " in l for l in lines)


def test_cli_runs_renders_and_reports_failures(tmp_path, capsys):
    cfg_path = tmp_path / "scn.json"
    cfg_path.write_text(json.dumps(conic_cfg()))
    out_dir = str(tmp_path / "out")
    assert main(["run", str(cfg_path), "--out", out_dir]) == 0
    assert "PASSED" in capsys.readouterr().out
    assert main(["render", os.path.join(out_dir, "summary.json")]) == 0
    assert "PASSED" in capsys.readouterr().out
    assert main(["run", str(cfg_path), "--out", out_dir, "--strict"]) == 1
    assert "FAILED" in capsys.readouterr().out
    bad = tables_cfg()
    bad["jobs"] = [
        {"type": "index", "family": "coh", "stream": "updown", "expect": [0.25], "tol": 1e-7}
    ]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["run", str(bad_path), "--out", str(tmp_path / "bad_out")]) == 1
    capsys.readouterr()


def test_cli_exit_code_two_for_unusable_input(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["run", str(garbled)]) == 2
    no_tree = tmp_path / "no_tree.json"
    no_tree.write_text(json.dumps({"seed": 1}))
    assert main(["run", str(no_tree), "--out", str(tmp_path / "out")]) == 2
    nan_stream = conic_cfg()
    nan_stream["streams"]["payout"]["values"][1] = [float("nan"), -0.1]
    typo = conic_cfg()
    typo["drivers"] = {"lin": {"kind": "linear", "slop": 0.3}}
    malformed = [nan_stream, typo]
    for key, value in (("streams", {"bad": 5}), ("drivers", []), ("jobs", "solve"), ("jobs", [5])):
        malformed.append({**conic_cfg(), key: value})
    malformed.append({"tree": {"levels": [[float("nan"), 0.5]]}})
    for scale in (0, 2.5):
        book = tables_cfg()
        book["securities"][1]["tick_scale"] = scale
        malformed.append(book)
    for row in ([116.61, float("inf")], [float("inf"), 200], [float("nan"), 200]):
        book = tables_cfg()
        book["securities"][1]["ask_ladder"] = [row]
        malformed.append(book)
    nan_table = tables_cfg()
    nan_table["securities"][0]["unit_ask"][1] = [float("nan"), 11]
    malformed.append(nan_table)
    # 401-digit JSON integers, past the float range
    huge_phi, huge_bound, huge_level = conic_cfg(), conic_cfg(), conic_cfg()
    huge_phi["jobs"][2]["phi"] = 10**400
    huge_bound["jobs"][2]["search"] = {**LIGHT_SEARCH, "bound": 10**400}
    huge_level["securities"][0]["gamma_ask"] = 10**400
    huge_ladder = tables_cfg()
    huge_ladder["securities"][1]["ask_ladder"] = [[10**400, 1]]
    malformed += [huge_phi, huge_bound, huge_level, huge_ladder]
    # conic levels are numbers, not strings or booleans
    for key, level in (("gamma_ask", "2"), ("gamma_ask", True), ("gamma_bid", "2"), ("gamma_bid", True)):
        cfg = conic_cfg()
        cfg["securities"][0][key] = level
        malformed.append(cfg)
    twins = conic_cfg()
    twins["securities"] *= 2
    malformed.append(twins)
    # a declared driver goes through the inline drivers' builder: a missing parameter
    malformed.append({**conic_cfg(), "drivers": {"c": {"kind": "coherent_abs"}}})
    # a linear driver takes `slope` and no other name for it
    for spec in ({"kind": "linear"}, {"kind": "linear", "slopes": 0.3}):
        malformed.append({**conic_cfg(), "drivers": {"lin": spec}})
    # cds default times are integers in 1..T+1, not truncated
    for bad in (2.9, float("nan"), 1e30):
        cds = walk_cfg()
        cds["streams"]["protection"]["cds"]["tau"] = [bad, 3, 1, 1]
        malformed.append(cds)
    # keys no job takes: the removed search tol and seed and axioms seed, and a typo;
    # keys of another axioms target, and an index tol with nothing to compare
    for job in (
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "tol": 1e-9}},
        {"type": "arbitrage", "search": {**LIGHT_SEARCH, "seed": 1}},
        {"type": "axioms", "target": "dcrm", "driver": "zero", "seed": 1},
        {"type": "hedged", "family": "ent", "gamma": 2.0, "stream": "payout", "phy": 1.0},
        {
            "type": "axioms",
            "target": "dcrm",
            "driver": "zero",
            "family": {"kind": "nope"},
            "expect_regular": "maybe",
            "expect_scale_invariance": 3,
        },
        {"type": "axioms", "target": "family", "family": "ent", "driver": {"kind": "nope"}},
        {"type": "axioms", "target": "dai", "family": "ent", "expect_regular": True},
        {"type": "axioms", "target": "regularity", "driver": "zero", "expect_scale_invariance": True},
        {"type": "index", "family": "ent", "stream": "payout", "tol": "abc"},
    ):
        malformed.append({**conic_cfg(), "jobs": [job]})
    for k, cfg in enumerate(malformed):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert main(["render", str(tmp_path / "missing_summary.json")]) == 2
    not_summaries = (
        [], {}, {"jobs": {}}, {"jobs": [{}]}, {"jobs": 5}, {"jobs": [{"status": 1, "job": 0, "type": "x"}]}
    )
    for k, not_summary in enumerate(not_summaries):
        path = tmp_path / f"not_summary{k}.json"
        path.write_text(json.dumps(not_summary))
        assert main(["render", str(path)]) == 2
        assert "cannot read summary" in capsys.readouterr().err
    capsys.readouterr()


def numeric_cfg():
    """tables_cfg as a JSON file gives it, plus a stock stream, a driver with
    per-slot levels and a solve job with a leaf terminal."""
    cfg = json.loads(json.dumps(tables_cfg()))
    cfg["streams"]["stock"] = {"stock": {"dividends": [0.0, [0.1, 0.2], 0.0], "terminal": [1.0, 2.0, 3.0, 4.0]}}
    cfg["drivers"]["slots"] = {"kind": "entropic", "gamma": [None, 1.0, [1.0, 2.0]]}
    cfg["jobs"][0]["terminal"] = [1.0, 2.0, 3.0, 0.0]
    return cfg


@pytest.mark.parametrize(
    "path",
    [
        pytest.param(("streams", "payout", "values", 1, 0), id="stream-value"),
        pytest.param(("streams", "payout", "values", 2), id="stream-level"),
        pytest.param(("streams", "stock", "stock", "dividends", 1, 1), id="stock-dividend"),
        pytest.param(("streams", "stock", "stock", "terminal", 3), id="stock-terminal"),
        pytest.param(("securities", 0, "unit_ask", 1, 0), id="unit-ask"),
        pytest.param(("securities", 0, "unit_bid", 2, 3), id="unit-bid"),
        pytest.param(("drivers", "gx", "gamma"), id="driver-gamma"),
        pytest.param(("drivers", "slots", "gamma", 2, 1), id="driver-gamma-slot"),
        pytest.param(("securities", 1, "ask_ladder", 0, 0), id="ladder-price"),
        pytest.param(("securities", 1, "bid_ladder", 2, 1), id="ladder-size"),
        pytest.param(("jobs", 0, "terminal", 2), id="solve-terminal"),
    ],
)
def test_numeric_config_fields_refuse_strings_and_booleans(path, tmp_path):
    """Each numeric field takes JSON numbers only: a number given as a
    string, or a boolean, is a config error and never becomes a float. Each
    one, the solve job's terminal included, is refused when the scenario
    loads."""
    load_scenario(numeric_cfg())
    for bad in ("1.0", True):
        cfg = numeric_cfg()
        *keys, last = path
        node = cfg
        for key in keys:
            node = node[key]
        node[last] = bad
        with pytest.raises(ScenarioError, match="must hold only numbers"):
            load_scenario(cfg)
        with pytest.raises(ScenarioError, match="must hold only numbers"):
            run_scenario(cfg, str(tmp_path / "out"))


def walk_cfg():
    """A tree given by its levels, increments of a symmetric walk and a cds
    stream: the fields _build_walk and the cds builder read."""
    cfg = json.loads(json.dumps(tables_cfg()))
    cfg["tree"] = {"levels": [[0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]]}
    cfg["martingale"] = {"increments": [[1, -1], [1, -1, 1, -1]]}
    cds = {"tau": [3, 3, 1, 1], "delta": 0.6, "kappa_ask": 0.02, "kappa_bid": 0.01}
    cfg["streams"]["protection"] = {"cds": cds}
    return cfg


@pytest.mark.parametrize(
    "path",
    [
        pytest.param(("tree", "levels", 0, 1), id="tree-level"),
        pytest.param(("tree", "levels", 1, 1, 0), id="tree-level-per-parent"),
        pytest.param(("martingale", "increments", 0, 0), id="increment"),
        pytest.param(("martingale", "increments", 1, 3), id="increment-level-2"),
        pytest.param(("streams", "protection", "cds", "tau", 2), id="cds-tau"),
        pytest.param(("streams", "protection", "cds", "delta"), id="cds-delta"),
        pytest.param(("streams", "protection", "cds", "kappa_ask"), id="cds-kappa-ask"),
        pytest.param(("streams", "protection", "cds", "kappa_bid"), id="cds-kappa-bid"),
    ],
)
def test_tree_martingale_and_cds_numbers_refuse_strings_and_booleans(path, tmp_path, capsys):
    """Tree levels, walk increments and cds terms take JSON numbers only: a
    string or a boolean is a config error, exit 2."""
    load_scenario(walk_cfg())
    for bad in ("1", True):
        cfg = walk_cfg()
        *keys, last = path
        node = cfg
        for key in keys:
            node = node[key]
        node[last] = bad
        with pytest.raises(ScenarioError, match="must hold only numbers|must be a finite number"):
            load_scenario(cfg)
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    capsys.readouterr()


def test_market_jobs_without_securities_are_refused_before_any_artifact(tmp_path, capsys):
    """A scenario without securities refuses each market job at load, so a
    solve job ahead of it writes nothing."""
    cfg = tables_cfg()
    cfg.pop("securities")
    solve = {"type": "solve", "driver": "gx", "terminal": {"stream": "payout"}}
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for job in (
        {"type": "arbitrage", "search": LIGHT_SEARCH},
        {"type": "ngd", "family": "ent", "gamma": 2.0, "search": LIGHT_SEARCH},
        {"type": "hedged", "family": "ent", "gamma": 2.0, "stream": "payout", "search": LIGHT_SEARCH},
        {"type": "book_quotes", "security": "aapl", "phis": [200]},
    ):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({**cfg, "jobs": [solve, job]}))
        assert main(["run", str(path), "--out", str(out_dir)]) == 2
        assert f"{job['type']} job needs securities" in capsys.readouterr().err
        assert os.listdir(out_dir) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_bad_job_after_a_good_one_writes_nothing(jobs, tmp_path, capsys):
    """Every job is checked when the scenario loads: a bad job of any type
    behind a valid solve job exits 2 and leaves no output directory."""
    solve = {"type": "solve", "driver": "gx", "terminal": {"stream": "payout"}}
    for k, bad in enumerate((
        {"type": "price_table", "family": "ent", "stream": "payout", "gammas": []},
        {"type": "axioms", "target": "mystery", "driver": "gx"},
        {"type": "book_quotes", "security": "nope", "phis": [200]},
        {"type": "solve", "driver": "gx", "terminal": [1.0, 2.0]},
        {"type": "index", "family": "coh", "stream": "updown", "expect": [0.1, 0.2]},
    )):
        path = tmp_path / f"scn{k}.json"
        path.write_text(json.dumps({**tables_cfg(), "jobs": [solve, bad]}))
        out_dir = tmp_path / f"out{k}"
        assert main(["run", str(path), "--out", str(out_dir), "--jobs", jobs]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()


def test_a_conic_security_quotes_both_sides_at_its_one_level():
    market = load_scenario(conic_cfg()).market
    assert market.securities[0].op_ask.gamma == market.securities[0].op_bid.gamma == 2.0
    cfg = conic_cfg()
    cfg["securities"][0]["gamma_bid"] = 3
    with pytest.raises(ScenarioError, match=r"takes no key \['gamma_bid'\]"):
        load_scenario(cfg)


def _set(cfg, path, value):
    """cfg with value placed at the path of keys and indices."""
    *keys, last = path
    node = cfg
    for key in keys:
        node = node[key]
    node[last] = value
    return cfg


@pytest.mark.parametrize(
    "cfg, path, value, match",
    [
        pytest.param(conic_cfg, ("treee",), {}, r"scenario takes no key \['treee'\]", id="top-level"),
        pytest.param(conic_cfg, ("tree", "levles"), [], "tree takes exactly one of", id="tree-typo"),
        pytest.param(walk_cfg, ("tree", "horizon"), 2, "tree takes exactly one of", id="tree-both"),
        pytest.param(walk_cfg, ("martingale", "scale"), 2, "martingale must be", id="martingale"),
        pytest.param(conic_cfg, ("streams", "payout", "note"), "x", "takes exactly one", id="stream"),
        pytest.param(walk_cfg, ("streams", "protection", "cds", "recovery"), 0.4, "cds takes no", id="cds"),
        pytest.param(numeric_cfg, ("streams", "stock", "stock", "spot"), 1, "stock takes no", id="stock"),
        pytest.param(conic_cfg, ("securities", 0, "gamma_bd"), 9.0, "'note' takes no key", id="conic"),
        pytest.param(tables_cfg, ("securities", 0, "tick_scale"), 100, "'stk' takes no key", id="direct"),
        pytest.param(tables_cfg, ("securities", 1, "unit_ask"), [[1]], "'aapl' takes no key", id="book"),
    ],
)
def test_every_config_object_refuses_a_key_it_does_not_read(cfg, path, value, match):
    """A typo or a key of another object is a config error, not a default
    silently kept: a conic security's `gamma_bd` would otherwise quote as
    if it were not there."""
    load_scenario(cfg())
    with pytest.raises(ScenarioError, match=match):
        load_scenario(_set(cfg(), path, value))


def test_the_zero_stream_cannot_be_redefined():
    """"zero" names the built-in zero stream, which a book security and
    every job naming "zero" quote, so a config stream may not take it."""
    cfg = tables_cfg()
    cfg["streams"]["zero"] = {"values": [0, [1, 1], 0]}
    with pytest.raises(ScenarioError, match="'zero' is taken"):
        load_scenario(cfg)
    assert not np.any(load_scenario(tables_cfg()).streams["zero"].future_sum(0))


@pytest.mark.parametrize(
    "cfg, path, value",
    [
        pytest.param(tables_cfg, ("jobs", 1, "phi"), 1.0, id="price-table-phi"),
        pytest.param(tables_cfg, ("jobs", 1, "sides"), ["ask", "bid"], id="price-table-sides"),
        pytest.param(conic_cfg, ("jobs", 2, "phi"), 1.0, id="hedged-phi"),
        pytest.param(tables_cfg, ("jobs", 9, "time"), 0, id="book-quotes-time"),
        pytest.param(conic_cfg, ("securities", 0, "gamma_bid"), 2.0, id="conic-gamma-bid"),
        pytest.param(tables_cfg, ("drivers", "gx", "gamma"), math.inf, id="driver-infinity"),
        pytest.param(tables_cfg, ("drivers", "lin"), {"kind": "linear", "slope": math.nan}, id="driver-nan"),
        pytest.param(tables_cfg, ("drivers", "gx", "gamma"), "2", id="driver-string"),
    ],
)
def test_removed_options_and_non_finite_driver_parameters_exit_2(cfg, path, value, tmp_path, capsys):
    """The options every caller left at one value are gone, so setting one,
    even to that value, is a config error; so is a driver parameter that is
    Infinity, NaN (JSON that Python's json reads) or a string. The run
    exits 2 and writes nothing."""
    path_ = tmp_path / "scn.json"
    path_.write_text(json.dumps(_set(cfg(), path, value)))
    assert main(["run", str(path_), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_the_readme_key_table_lists_the_keys_the_loader_takes():
    """Each row of the README's key table names a job type, a security
    flavor or the search block and lists the keys it takes; the rows must
    be the loader's key tuples, in order, so schema drift fails here."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        lines = f.read().splitlines()
    rows = {}
    for line in lines:
        m = re.fullmatch(r"\| `(\w+)` (job|security|block) \| (.*) \|", line)
        if m:
            rows[m[1], m[2]] = re.findall(r"`(\w+)`", m[3])
    want = {(t, "job"): list(keys) for t, (_, _, keys) in scenario_module._JOB_TYPES.items()}
    want |= {(f, "security"): list(keys) for f, keys in scenario_module._FLAVOR_KEYS.items()}
    want["search", "block"] = [f.name for f in fields(SearchConfig) if f.name != "seed"]
    assert rows == want


def test_cli_seed_and_parallel_flags(tmp_path, capsys):
    cfg_path = tmp_path / "scn.json"
    cfg_path.write_text(json.dumps(conic_cfg()))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--seed", "99", "--jobs", "2"]) == 0
    capsys.readouterr()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seed"] == 99
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_:
            main(["run", str(cfg_path), "--out", str(tmp_path / "none"), "--jobs", jobs])
        assert exit_.value.code == 2
        assert "--jobs: must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


def test_coherent_levels_past_the_driver_range_are_config_errors(tmp_path, capsys):
    """At 1e16, x/(x+1) rounds to 1 and the coherent driver refuses the
    level: every job and security level goes through the family's check, so
    it is a config error that names its key, and the run exits 2. 9e15
    still prices."""
    def run(jobs, name):
        cfg = {**tables_cfg(), "jobs": jobs}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        return main(["run", str(path), "--out", str(tmp_path / name)])

    def refused(key):
        err = capsys.readouterr().err
        return f"{key} 1e+16 is out of the coherent family's range" in err and "0 <= c < 1" in err

    table = lambda level: {"type": "price_table", "family": "coh", "stream": "payout", "gammas": [1.0, level]}
    assert run([table(1e16)], "table_1e16") == 2 and refused("gammas")
    assert run([table(9e15)], "table_9e15") == 0
    for jtype, extra in (("ngd", {}), ("hedged", {"stream": "payout"})):
        job = {"type": jtype, "family": "coherent", "gamma": 1e16, "search": LIGHT_SEARCH, **extra}
        assert run([job], f"{jtype}_1e16") == 2 and refused("gamma")
    cfg = tables_cfg()
    cfg["securities"].append({"id": "c", "flavor": "conic", "family": "coh", "stream": "payout", "gamma_ask": 1e16})
    path = tmp_path / "security_1e16.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "security_1e16")]) == 2 and refused("gamma_ask")


def _counted_searches(monkeypatch):
    """Count the arbitrage searches: each one, riding a good-deal ascent or
    run by find_arbitrage, re-validates its best strategy exactly once."""
    arbitrage = importlib.import_module("conicfin.arbitrage")
    calls = []
    validate = arbitrage.validate_certificate

    def counted(*args):
        calls.append(args[2])
        return validate(*args)

    monkeypatch.setattr(arbitrage, "validate_certificate", counted)
    return calls


def test_an_arbitrage_job_reuses_the_search_of_its_scenario(tmp_path, monkeypatch):
    """Within one run, an arbitrage job after an ngd or arbitrage job with
    the same entry and search block reuses that job's arbitrage search, and
    writes the bytes of the arbitrage job run alone; another entry or
    search block shares nothing, and nothing is shared across runs."""
    calls = _counted_searches(monkeypatch)
    ngd = {"type": "ngd", "family": "ent", "gamma": 2.0, "search": LIGHT_SEARCH}
    arb = {"type": "arbitrage", "search": LIGHT_SEARCH}

    def run(name, *jobs):
        calls.clear()
        run_scenario({**conic_cfg(), "jobs": list(jobs)}, str(tmp_path / name))
        return len(calls)

    assert run("alone", arb) == 1
    assert run("ngd_then_arb", ngd, arb) == 1
    assert run("arb_twice", arb, dict(arb, out="again.json")) == 1
    alone = (tmp_path / "alone" / "job0_arbitrage.json").read_bytes()
    assert (tmp_path / "ngd_then_arb" / "job1_arbitrage.json").read_bytes() == alone
    assert (tmp_path / "arb_twice" / "again.json").read_bytes() == alone
    assert run("other_entry", ngd, dict(arb, entry=1)) == 2
    assert run("other_search", ngd, dict(arb, search={**LIGHT_SEARCH, "sweeps": 1})) == 2
    cfg = {**conic_cfg(), "jobs": [ngd, arb]}
    calls.clear()
    run_scenario(cfg, str(tmp_path / "first"))
    run_scenario(cfg, str(tmp_path / "second"))
    assert len(calls) == 2
    assert read_tree_bytes(tmp_path / "first") == read_tree_bytes(tmp_path / "ngd_then_arb")
    assert read_tree_bytes(tmp_path / "second") == read_tree_bytes(tmp_path / "ngd_then_arb")


def test_cli_jobs_two_writes_the_bytes_of_jobs_one(tmp_path, capsys):
    """Under --jobs 2 the ngd and arbitrage jobs may run at once and both
    search; the artifacts are the bytes of the sequential run."""
    cfg = conic_cfg()
    cfg["jobs"] = [cfg["jobs"][1], cfg["jobs"][0], *cfg["jobs"][1:]]
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    for jobs in ("1", "2"):
        assert main(["run", str(path), "--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
    capsys.readouterr()
    assert read_tree_bytes(tmp_path / "1") == read_tree_bytes(tmp_path / "2")


def test_the_search_memo_under_more_threads_than_cores(tmp_path):
    """Four job threads, switching every few microseconds, read and fill one
    load's shared searches at once: every artifact holds the bytes of the
    sequential run."""
    ngd = {"type": "ngd", "family": "ent", "gamma": 2.0, "search": LIGHT_SEARCH}
    arb = {"type": "arbitrage", "search": LIGHT_SEARCH}
    again = [dict(arb, out="a.json"), dict(arb, entry=1, out="b.json")]
    jobs = [ngd, arb, dict(arb, entry=1), dict(ngd, entry=1), *again]
    cfg = {**conic_cfg(), "jobs": jobs}
    run_scenario(cfg, str(tmp_path / "seq"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_scenario(cfg, str(tmp_path / "par"), jobs_parallel=4)
    finally:
        sys.setswitchinterval(interval)
    assert read_tree_bytes(tmp_path / "par") == read_tree_bytes(tmp_path / "seq")


def test_run_scenario_refuses_worker_counts_below_one(tmp_path):
    """The library call refuses the worker counts that --jobs refuses,
    before it writes anything."""
    cfg = {**tables_cfg(), "jobs": tables_cfg()["jobs"][:2]}
    for jobs in (0, -3, 1.5, True):
        with pytest.raises(ScenarioError, match="jobs_parallel"):
            run_scenario(cfg, str(tmp_path / "none"), jobs_parallel=jobs)
    assert not (tmp_path / "none").exists()
    assert run_scenario(cfg, str(tmp_path / "one"), jobs_parallel=1)["passed"]


def test_load_errors_name_their_job():
    """Whatever a job's checks raise, a config error or an error of the
    family or the market, names the job by its index."""
    table = {"type": "price_table", "family": "coh", "stream": "payout", "gammas": [1.0, 1e16]}
    book = {"type": "book_quotes", "security": "nope", "phis": [200]}
    solve = tables_cfg()["jobs"][0]
    for jobs, match in (
        ([solve, table], r"^job 1: gammas 1e\+16 is out of the coherent family's range: coherent_abs needs"),
        ([solve, solve, book], r"^job 2: MarketError: unknown security 'nope'"),
        ([solve, {**table, "gammas": []}], r"^job 1: gammas must list at least one level"),
        ([{"type": "mystery"}], r"^job 0: unknown job type 'mystery'"),
    ):
        with pytest.raises(ScenarioError, match=match):
            load_scenario({**tables_cfg(), "jobs": jobs})


def _search_jobs():
    """conic_noarb's shape: arbitrage, ngd and hedged jobs on one entry and
    search block, with a second hedged and ngd job at other levels."""
    arb, ngd, hedged = conic_cfg()["jobs"]
    return [arb, ngd, hedged, dict(hedged, gamma=0.5), dict(ngd, gamma=4.0, out="ngd4.json")]


def test_searches_on_one_entry_and_search_block_share_one_ascent(monkeypatch, tmp_path):
    """A counting wrapper on complete_bank_leg sees one ascent's calls: the
    arbitrage, ngd and hedged jobs of conic_noarb's shape run one ascent,
    whose map calls, the finals' and merged legs' calls and the
    certificate's two (its strategy and its re-validation) are every ledger
    call: a hedged quote keeps its legs and builds no strategy. An arbitrage
    job alone runs find_arbitrage, and each job alone runs an ascent of its
    own."""
    search = importlib.import_module("conicfin.search")
    arbitrage = importlib.import_module("conicfin.arbitrage")
    hedging = importlib.import_module("conicfin.hedging")
    ledger, ascents, finds = [], [], []
    bank_leg, ascend, find = search.complete_bank_leg, search.ascend, hedging.find_arbitrage

    def counted_ledger(*args):
        ledger.append(1)
        return bank_leg(*args)

    def counted_ascend(wealth, *args):
        ascents.append(0)

        def counted_wealth(params):
            ascents[-1] += 1
            return wealth(params)

        return ascend(counted_wealth, *args)

    def counted_find(*args):
        finds.append(1)
        return find(*args)

    for module in (search, arbitrage):
        monkeypatch.setattr(module, "complete_bank_leg", counted_ledger)
    for module in (search, hedging):
        monkeypatch.setattr(module, "ascend", counted_ascend)
    monkeypatch.setattr(hedging, "find_arbitrage", counted_find)

    def run(name, jobs):
        for counts in (ledger, ascents, finds):
            counts.clear()
        run_scenario({**conic_cfg(), "jobs": jobs}, str(tmp_path / name))
        return len(ledger), list(ascents), len(finds)

    calls, (steps,), found = run("shared", _search_jobs()[:3])
    assert found == 0 and calls == steps + 2 + 2
    five, (more_steps,), _ = run("five", _search_jobs())
    assert five == more_steps + 2 + 2
    arb, ngd, hedged = conic_cfg()["jobs"]
    alone = [run(f"alone{k}", [job]) for k, job in enumerate((arb, ngd, hedged))]
    assert [len(a) for _, a, _ in alone] == [1, 1, 1]
    assert [f for _, _, f in alone] == [1, 0, 0]
    assert sum(c for c, _, _ in alone) > 2 * calls


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_each_grouped_job_writes_the_bytes_it_writes_alone(jobs, tmp_path, capsys):
    """Every job of a shared search writes the artifact bytes of the same
    job in a scenario of its own, under --jobs 1 and --jobs 2."""
    group = _search_jobs()
    path = tmp_path / "group.json"
    path.write_text(json.dumps({**conic_cfg(), "jobs": group}))
    assert main(["run", str(path), "--out", str(tmp_path / "group"), "--jobs", jobs]) == 0
    capsys.readouterr()
    together = read_tree_bytes(tmp_path / "group")
    for k, job in enumerate(group):
        name = job.get("out", f"job{k}_{job['type']}.json")
        run_scenario({**conic_cfg(), "jobs": [dict(job, out=name)]}, str(tmp_path / f"alone{k}"))
        assert read_tree_bytes(tmp_path / f"alone{k}")[name] == together[name]


def test_a_job_that_finds_its_group_unsearched_searches_it_again(tmp_path):
    """Each job whose group has kept no results, as when another worker's
    search has not landed, searches the group itself and writes the bytes
    of the sequential run."""
    cfg = {**conic_cfg(), "jobs": _search_jobs()}
    run_scenario(cfg, str(tmp_path / "seq"))
    scn = load_scenario(cfg)
    (group,) = scn.searches.values()
    for _, run, name in scn.jobs:
        group.results = None
        run(str(tmp_path / "again" / name))
    seq = read_tree_bytes(tmp_path / "seq")
    assert read_tree_bytes(tmp_path / "again") == {k: v for k, v in seq.items() if k != "summary.json"}
