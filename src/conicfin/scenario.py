"""Scenario configs: JSON in, deterministic artifacts out.

A scenario file declares one tree and martingale, named drivers, families,
and dividend streams, optionally a market of securities, and a list of
jobs. Jobs write their artifacts (CSV tables, JSON reports) under the
output directory and contribute one pass/warn/fail line to summary.json.

Determinism contract: artifacts depend only on the config and the seed.
Floats are canonicalized to 12 significant digits, JSON keys are sorted,
rows follow fixed orders, and files are written atomically, so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arbitrage import find_arbitrage
from .bsde import diagnose_solution, solve_bsde
from .drivers import DriverError, builtin_driver, builtin_family, is_regular, validate_family
from .hedging import check_ngd, hedged_sandwich
from .market import (
    DirectOperator,
    MarketModel,
    OrderBookOperator,
    Security,
    cds_streams,
    conic_security,
    stock_stream,
)
from .pricing import cross_compare, price, time_consistency_check
from .risk import acceptability_index, check_dai_axioms, check_dcrm_axioms
from .search import SearchConfig
from .tree import (
    AdaptedProcess,
    build_tree,
    martingale_from_increments,
    symmetric_random_walk,
    uniform_binary_tree,
)


class ScenarioError(ValueError):
    """The scenario config is malformed."""


# ---- canonical serialization -------------------------------------------------


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(f"{x:.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path: str, obj):
    _atomic_write(path, json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":")) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    return str(v)


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


# ---- scenario parsing ---------------------------------------------------------


@dataclass
class Scenario:
    name: str
    seed: int
    walk: object
    drivers: dict
    families: dict
    streams: dict
    market: Optional[MarketModel]
    jobs: list


def _build_walk(cfg: dict):
    tree_cfg = cfg.get("tree")
    if tree_cfg is None:
        raise ScenarioError("scenario needs a 'tree' section")
    if "horizon" in tree_cfg:
        tree = uniform_binary_tree(int(tree_cfg["horizon"]))
    elif "levels" in tree_cfg:
        tree = build_tree(tree_cfg["levels"])
    else:
        raise ScenarioError("tree section needs 'horizon' or 'levels'")
    mart = cfg.get("martingale", "symmetric_walk")
    if mart == "symmetric_walk":
        return symmetric_random_walk(tree)
    if isinstance(mart, dict) and "increments" in mart:
        inc = [None] + [np.asarray(v, dtype=float) for v in mart["increments"]]
        return martingale_from_increments(tree, inc)
    raise ScenarioError("martingale must be 'symmetric_walk' or {'increments': [...]}")


def _level_values(tree, values) -> list:
    """One array per level; a scalar entry fills its level."""
    return [
        np.full(tree.n_nodes(t), float(v)) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
        for t, v in enumerate(values)
    ]


def _build_stream(tree, spec) -> AdaptedProcess:
    if spec == "zero":
        return AdaptedProcess(tree, tuple(np.zeros(tree.n_nodes(t)) for t in range(tree.horizon + 1)))
    if "values" in spec:
        return AdaptedProcess(tree, tuple(_level_values(tree, spec["values"])))
    if "cds" in spec:
        c = spec["cds"]
        side = c.get("side", "ask")
        a, b = cds_streams(tree, c["tau"], c["delta"], c["kappa_ask"], c["kappa_bid"])
        return a if side == "ask" else b
    if "stock" in spec:
        s = spec["stock"]
        divs = _level_values(tree, s["dividends"])
        return stock_stream(tree, divs, np.asarray(s["terminal"], dtype=float))
    raise ScenarioError(f"cannot build stream from {spec!r}")


def _build_security(scn: Scenario, spec: dict) -> Security:
    tree = scn.walk.tree
    sid = spec.get("id", "sec")
    flavor = spec.get("flavor")
    if flavor == "conic":
        fam = scn.families[spec["family"]]
        stream = scn.streams[spec["stream"]]
        return conic_security(
            sid, fam, stream, float(spec["gamma_ask"]), float(spec.get("gamma_bid", spec["gamma_ask"]))
        )
    if flavor == "direct":
        sa = scn.streams[spec.get("stream_ask", spec.get("stream"))]
        sb = scn.streams[spec.get("stream_bid", spec.get("stream"))]
        return Security(
            sid=sid,
            stream_ask=sa,
            stream_bid=sb,
            op_ask=DirectOperator(tree, [np.asarray(v, float) for v in spec["unit_ask"]]),
            op_bid=DirectOperator(tree, [np.asarray(v, float) for v in spec["unit_bid"]]),
        )
    if flavor == "book":
        stream = scn.streams[spec.get("stream", "zero")]
        scale = int(spec.get("tick_scale", 100))
        return Security(
            sid=sid,
            stream_ask=stream,
            stream_bid=stream,
            op_ask=OrderBookOperator("ask", spec["ask_ladder"], tick_scale=scale),
            op_bid=OrderBookOperator("bid", spec["bid_ladder"], tick_scale=scale),
        )
    raise ScenarioError(f"unknown security flavor {flavor!r}")


def load_scenario(cfg: dict, seed_override: Optional[int] = None) -> Scenario:
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario config must be a JSON object")
    walk = _build_walk(cfg)
    scn = Scenario(
        name=str(cfg.get("name", "scenario")),
        seed=int(cfg["seed"] if seed_override is None else seed_override)
        if ("seed" in cfg or seed_override is not None)
        else 0,
        walk=walk,
        drivers={},
        families={},
        streams={"zero": _build_stream(walk.tree, "zero")},
        market=None,
        jobs=list(cfg.get("jobs", [])),
    )
    for name, d in cfg.get("drivers", {}).items():
        params = {k: v for k, v in d.items() if k != "kind"}
        scn.drivers[name] = builtin_driver(d["kind"], walk, **params)
    for name, f in cfg.get("families", {}).items():
        scn.families[name] = builtin_family(_family_kind(f), walk)
    for name, s in cfg.get("streams", {}).items():
        scn.streams[name] = _build_stream(walk.tree, s)
    secs = [_build_security(scn, s) for s in cfg.get("securities", [])]
    if secs:
        scn.market = MarketModel(walk=walk, securities=tuple(secs), name=scn.name)
    return scn


# ---- jobs ---------------------------------------------------------------------


def _search_config(job: dict, seed: int) -> SearchConfig:
    s = job.get("search", {})
    points = s.get("grid_points", 21)
    if isinstance(points, bool) or not isinstance(points, (int, np.integer)) or points < 1:
        raise ScenarioError(f"grid_points must be a positive integer, got {points!r}")
    bound = s.get("bound")
    return SearchConfig(
        grid_points=int(points),
        bound=None if bound is None else _number("bound", bound),
        multi_starts=int(s.get("multi_starts", 8)),
        sweeps=int(s.get("sweeps", 4)),
        refine_rounds=int(s.get("refine_rounds", 3)),
        seed=int(s.get("seed", seed)),
        exhaustive=bool(s.get("exhaustive", False)),
        exhaustive_target=int(s.get("exhaustive_target", 200_000)),
        tol=float(s.get("tol", 1e-9)),
    )


def _level(key: str, value, last: int) -> int:
    """A job's time index, which must be an integer in 0..last."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    if not 0 <= value <= last:
        raise ScenarioError(f"{key} must lie in 0..{last}, got {value}")
    return int(value)


def _number(key: str, value, positive: bool = False) -> float:
    """A job's real parameter: a finite number, nonnegative or positive."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and (value > 0 if positive else value >= 0)):
        sign = "positive" if positive else "nonnegative"
        raise ScenarioError(f"{key} must be a finite {sign} number, got {value!r}")
    return float(value)


def _family_kind(spec) -> str:
    """The kind of a family spec {"kind": ...}, which takes no other key."""
    if not isinstance(spec, dict) or set(spec) != {"kind"}:
        raise ScenarioError(f"a family spec is {{'kind': ...}} and nothing else, got {spec!r}")
    return spec["kind"]


def _resolve_driver(scn: Scenario, spec):
    """Driver reference: a name declared in the scenario, a builtin kind
    name, or an inline {"kind": ..., <params>} object."""
    try:
        if isinstance(spec, str):
            if spec in scn.drivers:
                return scn.drivers[spec]
            return builtin_driver(spec, scn.walk)
        if isinstance(spec, dict):
            params = {k: v for k, v in spec.items() if k != "kind"}
            return builtin_driver(spec["kind"], scn.walk, **params)
    except (DriverError, KeyError, TypeError) as exc:
        raise ScenarioError(f"cannot resolve driver reference {spec!r}: {exc}") from exc
    raise ScenarioError(f"cannot resolve driver reference {spec!r}")


def _resolve_family(scn: Scenario, spec):
    """Family reference: a declared name, a builtin kind name, or an inline
    {"kind": ...} object."""
    try:
        if isinstance(spec, str):
            if spec in scn.families:
                return scn.families[spec]
            return builtin_family(spec, scn.walk)
        if isinstance(spec, dict):
            return builtin_family(_family_kind(spec), scn.walk)
    except (DriverError, KeyError, TypeError) as exc:
        raise ScenarioError(f"cannot resolve family reference {spec!r}: {exc}") from exc
    raise ScenarioError(f"cannot resolve family reference {spec!r}")


def _resolve_stream(scn: Scenario, name) -> AdaptedProcess:
    if name not in scn.streams:
        raise ScenarioError(f"unknown stream {name!r}")
    return scn.streams[name]


def _job_solve(scn: Scenario, job: dict, out_dir: str, idx: int):
    g = _resolve_driver(scn, job["driver"])
    tr = scn.walk.tree
    term = job["terminal"]
    if isinstance(term, dict):
        terminal = _resolve_stream(scn, term["stream"]).future_sum(0)
    else:
        try:
            terminal = np.asarray(term, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"terminal must be a list of numbers: {exc}") from exc
        if terminal.shape != (tr.n_leaves,) or not np.all(np.isfinite(terminal)):
            raise ScenarioError(f"terminal must hold {tr.n_leaves} finite numbers, one per leaf")
    sol = solve_bsde(g, terminal, scn.walk)
    diag = diagnose_solution(sol, g, scn.walk)
    rows = []
    for t in range(tr.horizon + 1):
        for v in range(tr.n_nodes(t)):
            z = "" if t == 0 else _fmt(float(sol.Z[t][int(tr.parent[t][v])]))
            rows.append((t, v, _fmt(float(sol.Y[t][v])), z, _fmt(float(sol.M[t][v]))))
    out = job.get("out", f"job{idx}_solve.csv")
    write_csv(os.path.join(out_dir, out), ("t", "node", "Y", "Z", "M"), rows)
    ok = diag.bsde_residual <= 1e-10 and diag.orthogonality_residual <= 1e-10
    return ("pass" if ok else "fail"), {
        "residual": diag.bsde_residual,
        "orthogonality": diag.orthogonality_residual,
        "remainder_sup": diag.remainder_sup,
        "artifact": out,
    }


def _job_price_table(scn: Scenario, job: dict, out_dir: str, idx: int):
    fam = _resolve_family(scn, job["family"])
    stream = _resolve_stream(scn, job["stream"])
    tr = scn.walk.tree
    gammas = job.get("gammas", [1.0])
    if not isinstance(gammas, list) or not gammas:
        raise ScenarioError(f"gammas must list at least one level, got {gammas!r}")
    gammas = [_number("gammas", g, positive=True) for g in gammas]
    phi = _number("phi", job.get("phi", 1.0))
    times = [_level("times", t, tr.horizon) for t in job.get("times", range(tr.horizon + 1))]
    if not times:
        raise ScenarioError("times must list at least one time")
    sides = job.get("sides", ["ask", "bid"])
    if not sides or any(side not in ("ask", "bid") for side in sides):
        raise ScenarioError(f"sides must list 'ask' and/or 'bid', got {sides!r}")
    rows = []
    worst_cross = 0.0
    for t in times:
        for gamma in gammas:
            quotes = {}
            for side in sides:
                q = price(side, fam, gamma, phi, stream, t)
                quotes[side] = q.value
                for v in range(tr.n_nodes(t)):
                    rows.append((t, v, side, _fmt(gamma), fam.kind, _fmt(phi), _fmt(float(q.value[v]))))
            if "ask" in quotes and "bid" in quotes:
                worst_cross = max(worst_cross, float(np.max(quotes["bid"] - quotes["ask"])))
    out = job.get("out", f"job{idx}_prices.csv")
    write_csv(
        os.path.join(out_dir, out),
        ("t", "node", "side", "gamma", "family", "phi", "value"),
        rows,
    )
    nested = [time_consistency_check(s, fam, g, stream) for s in sides for g in gammas]
    worst_nest = max(n.worst_residual for n in nested)
    mono = cross_compare(fam, gammas[0], fam, gammas[-1], stream, times[0], gammas=gammas)
    ok = (
        worst_cross <= 1e-9
        and worst_nest <= 1e-9
        and mono.ask_monotone_ok
        and mono.bid_antitone_ok
    )
    return ("pass" if ok else "fail"), {
        "worst_bid_minus_ask": worst_cross,
        "worst_nesting_residual": worst_nest,
        "level_monotone": mono.ask_monotone_ok and mono.bid_antitone_ok,
        "artifact": out,
    }


def _job_axioms(scn: Scenario, job: dict, out_dir: str, idx: int):
    target = job.get("target")
    seed = int(job.get("seed", scn.seed))
    if target == "dcrm":
        rep = check_dcrm_axioms(_resolve_driver(scn, job["driver"]), seed=seed)
        payload = {r.name: {"passed": r.passed, "worst": r.worst} for r in rep.results}
        ok = rep.passed
    elif target == "dai":
        fam = _resolve_family(scn, job["family"])
        rep = check_dai_axioms(fam, seed=seed)
        payload = {r.name: {"passed": r.passed, "worst": r.worst} for r in rep.results}
        ok = rep.passed
        expect_si = job.get("expect_scale_invariance", fam.positive_homogeneous)
        ok = ok and (rep["scale_invariance"].passed == bool(expect_si))
    elif target == "family":
        fam = _resolve_family(scn, job["family"])
        rep = validate_family(fam)
        payload = {
            "monotone_in_level": rep.monotone_in_level,
            "each_level_convex": rep.each_level_convex,
            "each_level_regular": rep.each_level_regular,
            "left_continuous": rep.left_continuous,
        }
        ok = rep.passed
    elif target == "regularity":
        rep = is_regular(_resolve_driver(scn, job["driver"]))
        payload = {"regular": rep.regular, "margin": rep.margin, "reason": rep.reason}
        ok = rep.regular == bool(job.get("expect_regular", True))
    else:
        raise ScenarioError(f"unknown axioms target {target!r}")
    out = job.get("out", f"job{idx}_axioms.json")
    write_json(os.path.join(out_dir, out), payload)
    return ("pass" if ok else "fail"), {"target": target, "artifact": out}


def _job_index(scn: Scenario, job: dict, out_dir: str, idx: int):
    fam = _resolve_family(scn, job["family"])
    stream = _resolve_stream(scn, job["stream"])
    t = _level("time", job.get("time", 0), scn.walk.tree.horizon)
    alpha = acceptability_index(fam, stream, t)
    out = job.get("out", f"job{idx}_index.json")
    write_json(os.path.join(out_dir, out), {"time": t, "alpha": alpha})
    ok = True
    if "expect" in job:
        want = np.asarray(job["expect"], dtype=float)
        tol = float(job.get("tol", 1e-6))
        finite = np.isfinite(want)
        ok = bool(
            np.all(np.abs(alpha[finite] - want[finite]) <= tol)
            and np.all(np.isinf(alpha[~finite]))
        )
    return ("pass" if ok else "fail"), {"artifact": out}


def _job_arbitrage(scn: Scenario, job: dict, out_dir: str, idx: int):
    if scn.market is None:
        raise ScenarioError("arbitrage job needs securities")
    cfg = _search_config(job, scn.seed)
    entry = _level("entry", job.get("entry", 0), scn.walk.tree.horizon - 1)
    res = find_arbitrage(scn.market, entry, cfg)
    payload = {
        "found": res.found,
        "best_score": res.best_score,
        "evaluations": res.evaluations,
        "exhaustive_total": res.exhaustive_total,
        "note": res.note,
    }
    if res.found:
        payload["certificate"] = {
            "min_terminal": res.certificate.min_terminal,
            "max_terminal": res.certificate.max_terminal,
            "prob_positive": res.certificate.prob_positive,
            "exact": res.certificate.exact,
        }
    out = job.get("out", f"job{idx}_arbitrage.json")
    write_json(os.path.join(out_dir, out), payload)
    expect = job.get("expect")
    if expect == "found":
        status = "pass" if res.found else "fail"
    elif expect == "none":
        status = "pass" if not res.found else "fail"
        if status == "pass" and not cfg.exhaustive:
            status = "warn"
    else:
        status = "warn" if not res.found else "pass"
    return status, {"found": res.found, "artifact": out}


def _job_ngd(scn: Scenario, job: dict, out_dir: str, idx: int):
    if scn.market is None:
        raise ScenarioError("ngd job needs securities")
    fam = _resolve_family(scn, job["family"])
    cfg = _search_config(job, scn.seed)
    entry = _level("entry", job.get("entry", 0), scn.walk.tree.horizon - 1)
    rep = check_ngd(fam, _number("gamma", job["gamma"], positive=True), scn.market, entry, cfg)
    out = job.get("out", f"job{idx}_ngd.json")
    write_json(
        os.path.join(out_dir, out),
        {
            "verdict": rep.verdict,
            "worst_risk": rep.worst_risk,
            "consistent": rep.consistent,
            "note": rep.note,
        },
    )
    expect = job.get("expect")
    if expect is not None:
        status = "pass" if rep.verdict == expect else "fail"
        if status == "pass" and rep.verdict == "NONE_FOUND":
            status = "pass" if rep.consistent else "fail"
    else:
        status = "warn" if rep.verdict == "NONE_FOUND" else "pass"
    return status, {"verdict": rep.verdict, "artifact": out}


def _job_hedged(scn: Scenario, job: dict, out_dir: str, idx: int):
    if scn.market is None:
        raise ScenarioError("hedged job needs securities")
    fam = _resolve_family(scn, job["family"])
    stream = _resolve_stream(scn, job["stream"])
    cfg = _search_config(job, scn.seed)
    entry = _level("entry", job.get("entry", 0), scn.walk.tree.horizon - 1)
    gamma = _number("gamma", job["gamma"], positive=True)
    phi = _number("phi", job.get("phi", 1.0))
    rep = hedged_sandwich(fam, gamma, phi, stream, scn.market, entry, cfg)
    out = job.get("out", f"job{idx}_hedged.json")
    write_json(
        os.path.join(out_dir, out),
        {
            "ask_improvement_min": rep.ask_improvement_min,
            "bid_improvement_min": rep.bid_improvement_min,
            "hedged_spread_min": rep.hedged_spread_min,
        },
    )
    ok = rep.ask_ok and rep.bid_ok and rep.spread_ok
    return ("pass" if ok else "fail"), {"artifact": out}


def _job_book_quotes(scn: Scenario, job: dict, out_dir: str, idx: int):
    if scn.market is None:
        raise ScenarioError("book_quotes job needs securities")
    sec = scn.market.security(job["security"])
    side = job.get("side", "ask")
    op = sec.op_ask if side == "ask" else sec.op_bid
    t = _level("time", job.get("time", 0), scn.walk.tree.horizon)
    n = scn.walk.tree.n_nodes(t)
    rows = []
    values = []
    for phi in job["phis"]:
        v = float(op.price(t, np.full(n, float(phi)))[0])
        values.append(v)
        rows.append((t, 0, side, _fmt(float(phi)), _fmt(v)))
    out = job.get("out", f"job{idx}_book.csv")
    write_csv(os.path.join(out_dir, out), ("t", "node", "side", "phi", "value"), rows)
    ok = True
    if "expect" in job:
        want = [float(x) for x in job["expect"]]
        ok = all(abs(a - b) <= 1e-9 for a, b in zip(values, want)) and len(want) == len(values)
    return ("pass" if ok else "fail"), {"values": values, "artifact": out}


_JOB_RUNNERS = {
    "solve": _job_solve,
    "price_table": _job_price_table,
    "axioms": _job_axioms,
    "index": _job_index,
    "arbitrage": _job_arbitrage,
    "ngd": _job_ngd,
    "hedged": _job_hedged,
    "book_quotes": _job_book_quotes,
}


def run_scenario(
    cfg: dict,
    out_dir: str,
    seed_override: Optional[int] = None,
    jobs_parallel: int = 1,
    strict: bool = False,
) -> dict:
    """Run every job; write artifacts and summary.json; return the summary."""
    scn = load_scenario(cfg, seed_override)
    os.makedirs(out_dir, exist_ok=True)

    def run_one(idx_job):
        idx, job = idx_job
        jtype = job.get("type")
        if jtype not in _JOB_RUNNERS:
            raise ScenarioError(f"unknown job type {jtype!r}")
        try:
            status, details = _JOB_RUNNERS[jtype](scn, job, out_dir, idx)
        except ScenarioError:
            raise
        except Exception as exc:  # report, do not kill sibling jobs
            return {"job": idx, "type": jtype, "status": "error", "error": f"{type(exc).__name__}: {exc}"}
        return {"job": idx, "type": jtype, "status": status, **details}

    items = list(enumerate(scn.jobs))
    if jobs_parallel > 1:
        with ThreadPoolExecutor(max_workers=jobs_parallel) as ex:
            entries = list(ex.map(run_one, items))
    else:
        entries = [run_one(it) for it in items]
    entries.sort(key=lambda e: e["job"])
    statuses = [e["status"] for e in entries]
    failed = any(s in ("fail", "error") for s in statuses) or (
        strict and any(s == "warn" for s in statuses)
    )
    summary = {
        "scenario": scn.name,
        "seed": scn.seed,
        "jobs": entries,
        "passed": not failed,
        "strict": strict,
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def render_summary(summary: dict) -> str:
    lines = [f"scenario {summary.get('scenario')} (seed {summary.get('seed')})"]
    for e in summary.get("jobs", []):
        extra = e.get("error", e.get("artifact", ""))
        lines.append(f"  [{e['status']:5s}] job {e['job']} {e['type']} {extra}")
    lines.append("PASSED" if summary.get("passed") else "FAILED")
    return "\n".join(lines)
