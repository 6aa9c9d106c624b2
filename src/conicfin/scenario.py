"""Scenario configs: JSON in, deterministic artifacts out.

A scenario file declares one tree and martingale, named drivers, families,
and dividend streams, optionally a market of securities, and a list of
jobs. Jobs write their artifacts (CSV tables, JSON reports) under the
output directory and contribute one pass/warn/fail line to summary.json.
load_scenario checks every value, each job's included, and resolves every
name before it returns, so a malformed config raises ScenarioError before
anything is written; a job's run only computes, writes and reports.

Determinism contract: artifacts depend only on the config and the seed.
Floats are canonicalized to 12 significant digits, JSON keys are sorted,
rows follow fixed orders, and files are written atomically, so reruns are
byte-identical.

The hedged, ngd and arbitrage jobs of one entry and search block search
the same strategies, so load_scenario slots their requests in one
hedging.SharedSearch per (entry, SearchConfig): a hedged job its ask and
bid HedgeRequests, an ngd job the hedged ask of the zero stream and
ARBITRAGE, an arbitrage job ARBITRAGE. The first of them to run searches
for all of them in one ascent, with the arbitrage objective once, and
each writes its report from its own results; an arbitrage job with no
other search in its group runs find_arbitrage, and an exhaustive search
block sweeps its grid. The groups live on the one load a run makes and are
never shared between runs.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import tempfile
from contextlib import contextmanager
from functools import partial
from dataclasses import dataclass, fields
from itertools import chain
from typing import Optional

import numpy as np

from .bsde import diagnose_solution, solve_bsde
from .drivers import DriverError, _numbers as numbers_only, builtin_driver, builtin_family, is_regular, validate_family
from .hedging import ARBITRAGE, HedgeRequest, SharedSearch, check_ngd, hedged_sandwich
from .market import (
    DirectOperator,
    MarketModel,
    OrderBookOperator,
    Security,
    cds_streams,
    conic_security,
    stock_stream,
)
from .pricing import PRICE_TOL, _level_gaps, price, time_consistency_check
from .risk import acceptability_index, check_dai_axioms, check_dcrm_axioms
from .search import SearchConfig
from .tree import (
    AdaptedProcess,
    build_tree,
    martingale_from_increments,
    symmetric_random_walk,
    uniform_binary_tree,
    zero_process,
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
        return f"{float(v):.12g}"
    return str(v)


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _rows(template: str, *columns) -> str:
    """One CSV line per entry of the columns, in one % render: "%.12g" % x
    is _fmt(x) for a float x, byte for byte. A template holds only ints,
    floats and validated names besides its own % fields."""
    return template * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))


# ---- scenario parsing ---------------------------------------------------------


@dataclass
class Scenario:
    """A loaded scenario. jobs holds each job's (type, run, artifact name);
    searches holds the SharedSearch of each (entry, SearchConfig), this load only."""

    name: str
    seed: int
    walk: object
    drivers: dict
    families: dict
    streams: dict
    market: Optional[MarketModel]
    jobs: list
    searches: dict


def _required(spec: dict, key: str, where: str):
    """spec[key]; a missing key is a config error that names it."""
    if key not in spec:
        raise ScenarioError(f"{where} needs {key!r}")
    return spec[key]


def _typed(key: str, value, kind: type):
    """value, which must be a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ScenarioError(f"{key} must be {name}, got {value!r}")
    return value


def _integer(key: str, value, low: int = 0, high: Optional[int] = None) -> int:
    """An integer in low..high, or from low up when high is None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        raise ScenarioError(f"{key} must lie in {low}..{'' if high is None else high}, got {value}")
    return int(value)


def _finite(key: str, value) -> float:
    """A finite number of either sign. The bound test fails for NaN, for
    infinities and for integers past the float range."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):
        raise ScenarioError(f"{key} must be a finite number, got {value!r}")
    return float(value)


# _numbers(key, value): value, a JSON number or an array of JSON numbers
_numbers = partial(numbers_only, error=ScenarioError)


def _number(key: str, value, positive: bool = False) -> float:
    """A finite number, nonnegative or positive."""
    x = _finite(key, value)
    if not (x > 0 if positive else x >= 0):
        sign = "positive" if positive else "nonnegative"
        raise ScenarioError(f"{key} must be a finite {sign} number, got {value!r}")
    return x


def _family_level(fam, key: str, value) -> float:
    """A positive finite level that the family itself accepts, so a level
    its driver would refuse (a coherent level whose x/(x+1) rounds to 1) is
    a config error that names key and keeps the driver's reason."""
    x = _number(key, value, positive=True)
    try:
        fam.make(x)
    except DriverError as exc:
        raise ScenarioError(f"{key} {value!r} is out of the {fam.kind} family's range: {exc}") from exc
    return x


def _boolean(key: str, value) -> bool:
    """A JSON true or false."""
    if not isinstance(value, bool):
        raise ScenarioError(f"{key} must be true or false, got {value!r}")
    return value


def _choice(key: str, value, options: tuple):
    """One of the listed values."""
    if value not in options:
        raise ScenarioError(f"{key} must be one of {json.dumps(options)}, got {value!r}")
    return value


def _build_walk(cfg: dict):
    tree_cfg = _typed("tree", _required(cfg, "tree", "scenario"), dict)
    if _one_key("tree", tree_cfg, ("horizon", "levels")) == "horizon":
        tree = uniform_binary_tree(_integer("horizon", tree_cfg["horizon"], 1))
    else:
        tree = build_tree(_tree_levels(tree_cfg["levels"]))
    mart = cfg.get("martingale", "symmetric_walk")
    if mart == "symmetric_walk":
        return symmetric_random_walk(tree)
    if isinstance(mart, dict) and set(mart) == {"increments"}:
        levels = _typed("increments", mart["increments"], list)
        if len(levels) != tree.horizon:
            raise ScenarioError(f"increments must list one array per level 1..{tree.horizon}, got {len(levels)}")
        inc = [None] + [np.asarray(_numbers(f"increments level {t}", v), float) for t, v in enumerate(levels, 1)]
        return martingale_from_increments(tree, inc)
    raise ScenarioError("martingale must be 'symmetric_walk' or {'increments': [...]}")


def _tree_levels(levels) -> list:
    """Tree levels of JSON numbers: each level one probability vector, or
    one per parent."""
    for t, spec in enumerate(_typed("levels", levels, list), start=1):
        nested = isinstance(spec, list) and len(spec) > 0 and isinstance(spec[0], list)
        for vec in spec if nested else [spec]:
            _numbers(f"levels level {t}", vec)
    return levels


def _level_values(tree, key: str, values) -> list:
    """One array per level; a number fills its level."""
    levels = []
    for t, v in enumerate(_typed(key, values, list)):
        if isinstance(_numbers(f"{key} level {t}", v), (list, tuple)):
            levels.append(np.asarray(v, dtype=float))
        else:
            levels.append(np.full(tree.n_nodes(t), float(v)))
    return levels


def _build_stream(tree, spec) -> AdaptedProcess:
    if spec == "zero":
        return zero_process(tree)
    if not isinstance(spec, dict):
        raise ScenarioError(f"a stream spec is 'zero' or an object, got {spec!r}")
    kind = _one_key("a stream spec", spec, ("values", "cds", "stock"))
    if kind == "values":
        return AdaptedProcess(tree, tuple(_level_values(tree, "values", spec["values"])))
    if kind == "cds":
        keys = ("delta", "kappa_ask", "kappa_bid")
        c = _known_keys("cds", _typed("cds", spec["cds"], dict), ("tau", *keys, "side"))
        side = _choice("cds side", c.get("side", "ask"), ("ask", "bid"))
        tau = _numbers("tau", _required(c, "tau", "cds stream"))
        a, b = cds_streams(tree, tau, *(_finite(k, _required(c, k, "cds stream")) for k in keys))
        return a if side == "ask" else b
    s = _known_keys("stock", _typed("stock", spec["stock"], dict), ("dividends", "terminal"))
    divs = _level_values(tree, "dividends", _required(s, "dividends", "stock stream"))
    terminal = _numbers("terminal", _required(s, "terminal", "stock stream"))
    return stock_stream(tree, divs, terminal)


def _ladder(spec: dict, key: str, where: str) -> list:
    """A depth ladder: an array of (price, size) rows of numbers."""
    ladder = _typed(key, _required(spec, key, where), list)
    return [_numbers(f"{key} row {k}", row) for k, row in enumerate(ladder)]


def _build_security(scn: Scenario, spec) -> Security:
    """A security from its spec; an error past the key check names it:
    "<flavor> security '<id>': ..."."""
    spec = _typed("security", spec, dict)
    sid = spec.get("id", "sec")
    flavor = spec.get("flavor")
    if flavor not in _FLAVOR_KEYS:
        raise ScenarioError(f"unknown security flavor {flavor!r}")
    where = f"{flavor} security {sid!r}"
    _known_keys(where, spec, ("id", "flavor", *_FLAVOR_KEYS[flavor]))
    if flavor == "direct" and "stream" in spec and {"stream_ask", "stream_bid"} <= set(spec):
        raise ScenarioError(f"{where} takes no key ['stream'] next to stream_ask and stream_bid")
    with _config_errors(f"{where}: "):
        if flavor == "conic":
            fam = _resolve_family(scn, _required(spec, "family", "security"))
            stream = _resolve_stream(scn, _required(spec, "stream", "security"))
            gamma = _family_level(fam, "gamma_ask", _required(spec, "gamma_ask", "security"))
            return conic_security(sid, fam, stream, gamma)
        if flavor == "direct":
            # each side reads stream_<side>, or stream where that is missing
            streams, ops = [], []
            for k, u in (("stream_ask", "unit_ask"), ("stream_bid", "unit_bid")):
                name = spec[k] if k in spec else _required(spec, "stream", f"security without {k!r}")
                streams.append(_resolve_stream(scn, name))
                levels = enumerate(_typed(u, _required(spec, u, "security"), list))
                ops.append(DirectOperator(scn.walk.tree, [_numbers(f"{u} level {t}", v) for t, v in levels]))
            return Security(sid, *streams, *ops)
        stream = _resolve_stream(scn, spec.get("stream", "zero"))
        scale = spec.get("tick_scale", 100)
        return Security(
            sid=sid,
            stream_ask=stream,
            stream_bid=stream,
            op_ask=OrderBookOperator("ask", _ladder(spec, "ask_ladder", "security"), tick_scale=scale),
            op_bid=OrderBookOperator("bid", _ladder(spec, "bid_ladder", "security"), tick_scale=scale),
        )


# security flavor -> the keys it takes besides "id" and "flavor"
_FLAVOR_KEYS = {
    "conic": ("family", "stream", "gamma_ask"),
    "direct": ("unit_ask", "unit_bid", "stream", "stream_ask", "stream_bid"),
    "book": ("ask_ladder", "bid_ladder", "tick_scale", "stream"),
}


def _known_keys(where: str, spec: dict, keys) -> dict:
    """spec, which takes no key outside keys."""
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ScenarioError(f"{where} takes no key {unknown}; it takes {list(keys)}")
    return spec


def _one_key(where: str, spec: dict, keys) -> str:
    """The one key of spec, which must be one of keys."""
    if len(spec) != 1 or next(iter(spec)) not in keys:
        raise ScenarioError(f"{where} takes exactly one of {list(keys)}, got {sorted(spec)}")
    return next(iter(spec))


def _job(job, market: Optional[MarketModel]) -> dict:
    """A job object of a known type with known keys; a market job needs a market."""
    job = _typed("job", job, dict)
    jtype = job.get("type")
    if jtype not in _JOB_TYPES:
        raise ScenarioError(f"unknown job type {jtype!r}")
    _known_keys(f"{jtype} job", job, ("type", "out", *_JOB_TYPES[jtype][2]))
    if market is None and jtype in _MARKET_JOBS:
        raise ScenarioError(f"{jtype} job needs securities")
    return job


def load_scenario(cfg: dict, seed_override: Optional[int] = None) -> Scenario:
    """Build a scenario from its config; every malformed input raises
    ScenarioError, whose message starts with "job <idx>: " when it comes
    from a job."""
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario config must be a JSON object")
    with _config_errors(""):
        return _build_scenario(cfg, seed_override)


@contextmanager
def _config_errors(prefix: str):
    """Raise what the block raises as a ScenarioError whose message starts
    with prefix: a ScenarioError's own message, any other's type and message."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, ScenarioError) and not prefix:
            raise
        # TreeError, DriverError and MarketError are ValueErrors, and so are
        # the failed numpy conversions of malformed numbers; float() of an
        # integer past the float range overflows
        reason = str(exc) if isinstance(exc, ScenarioError) else f"{type(exc).__name__}: {exc}"
        raise ScenarioError(prefix + reason) from exc


def _build_scenario(cfg: dict, seed_override: Optional[int]) -> Scenario:
    keys = ("name", "seed", "tree", "martingale", "drivers", "families", "streams", "securities", "jobs")
    walk = _build_walk(_known_keys("scenario", cfg, keys))
    scn = Scenario(
        name=str(cfg.get("name", "scenario")),
        seed=_integer("seed", cfg.get("seed", 0) if seed_override is None else seed_override),
        walk=walk,
        drivers={},
        families={},
        streams={"zero": _build_stream(walk.tree, "zero")},
        market=None,
        jobs=[],
        searches={},
    )
    for name, d in _typed("drivers", cfg.get("drivers", {}), dict).items():
        scn.drivers[name] = _build_driver(walk, d)
    for name, f in _typed("families", cfg.get("families", {}), dict).items():
        scn.families[name] = _build_family(walk, f)
    for name, s in _typed("streams", cfg.get("streams", {}), dict).items():
        if name == "zero":
            raise ScenarioError("the stream name 'zero' is taken by the built-in zero stream")
        scn.streams[name] = _build_stream(walk.tree, s)
    secs = [_build_security(scn, s) for s in _typed("securities", cfg.get("securities", []), list)]
    if len({sec.sid for sec in secs}) < len(secs):
        raise ScenarioError(f"security ids must be unique, got {[sec.sid for sec in secs]}")
    if secs:
        scn.market = MarketModel(walk=walk, securities=tuple(secs), name=scn.name)
    jobs = _typed("jobs", cfg.get("jobs", []), list)
    runs = []
    for idx, job in enumerate(jobs):
        with _config_errors(f"job {idx}: "):
            jtype = _job(job, scn.market)["type"]
            runs.append((jtype, _JOB_TYPES[jtype][0](scn, job)))
    scn.jobs = [(jtype, run, name) for (jtype, run), name in zip(runs, _artifact_names(jobs))]
    return scn


# ---- jobs ---------------------------------------------------------------------


# the keys of a search block; a key left out keeps the SearchConfig default
_SEARCH_KEYS = tuple(f.name for f in fields(SearchConfig) if f.name != "seed")


def _search(scn: Scenario, job: dict):
    """A searching job's SearchConfig, seeded by the scenario, which checks
    the values, its entry level, and the SharedSearch of the two in this load."""
    s = _known_keys("search", _typed("search", job.get("search", {}), dict), _SEARCH_KEYS)
    cfg = SearchConfig(seed=scn.seed, **s)
    entry = _integer("entry", job.get("entry", 0), 0, scn.walk.tree.horizon - 1)
    if (entry, cfg) not in scn.searches:
        scn.searches[entry, cfg] = SharedSearch(scn.market, entry, cfg)
    return cfg, entry, scn.searches[entry, cfg]


def _build_driver(walk, spec):
    """A driver from its {"kind": ..., <params>} spec; the driver checks the parameters."""
    spec = _typed("a driver spec", spec, dict)
    kind = _required(spec, "kind", "a driver spec")
    return builtin_driver(kind, walk, **{k: v for k, v in spec.items() if k != "kind"})


def _build_family(walk, spec):
    """A family from its {"kind": ...} spec, which takes no other key."""
    if not isinstance(spec, dict) or set(spec) != {"kind"}:
        raise ScenarioError(f"a family spec is {{'kind': ...}} and nothing else, got {spec!r}")
    return builtin_family(spec["kind"], walk)


def _resolve_driver(scn: Scenario, spec):
    """Driver reference: a name declared in the scenario, a builtin kind
    name, or an inline {"kind": ..., <params>} object."""
    if isinstance(spec, str) and spec in scn.drivers:
        return scn.drivers[spec]
    return _build_driver(scn.walk, {"kind": spec} if isinstance(spec, str) else spec)


def _resolve_family(scn: Scenario, spec):
    """Family reference: a declared name, a builtin kind name, or an inline
    {"kind": ...} object."""
    if isinstance(spec, str) and spec in scn.families:
        return scn.families[spec]
    return _build_family(scn.walk, {"kind": spec} if isinstance(spec, str) else spec)


def _resolve_stream(scn: Scenario, name) -> AdaptedProcess:
    if name not in scn.streams:
        raise ScenarioError(f"unknown stream {name!r}")
    return scn.streams[name]


def _job_solve(scn: Scenario, job: dict):
    g = _resolve_driver(scn, _required(job, "driver", "solve job"))
    tr = scn.walk.tree
    term = _required(job, "terminal", "solve job")
    if isinstance(term, dict):
        stream = _resolve_stream(scn, _required(_known_keys("terminal", term, ("stream",)), "stream", "terminal"))
    else:
        stream, terminal = None, np.asarray(_numbers("terminal", term), dtype=float)
        if terminal.shape != (tr.n_leaves,) or not np.all(np.isfinite(terminal)):
            raise ScenarioError(f"terminal must hold {tr.n_leaves} finite numbers, one per leaf")
    def run(path):
        sol = solve_bsde(g, terminal if stream is None else stream.future_sum(0), scn.walk)
        diag = diagnose_solution(sol, g, scn.walk)
        # Z[t] sits on the parents' slots, so it is gathered per child
        levels = []
        for t in range(tr.horizon + 1):
            nodes, y, m = range(tr.n_nodes(t)), sol.Y[t].tolist(), sol.M[t].tolist()
            if t == 0:
                levels.append(_rows("0,%d,%.12g,,%.12g\n", nodes, y, m))
            else:
                z = sol.Z[t][tr.parent[t]].tolist()
                levels.append(_rows(f"{t},%d,%.12g,%.12g,%.12g\n", nodes, y, z, m))
        _atomic_write(path, "t,node,Y,Z,M\n" + "".join(levels))
        ok = diag.bsde_residual <= 1e-10 and diag.orthogonality_residual <= 1e-10
        return ("pass" if ok else "fail"), {
            "residual": diag.bsde_residual,
            "orthogonality": diag.orthogonality_residual,
            "remainder_sup": diag.remainder_sup,
        }
    return run


def _job_price_table(scn: Scenario, job: dict):
    fam = _resolve_family(scn, _required(job, "family", "price_table job"))
    stream = _resolve_stream(scn, _required(job, "stream", "price_table job"))
    tr = scn.walk.tree
    gammas = job.get("gammas", [1.0])
    if not isinstance(gammas, list) or not gammas:
        raise ScenarioError(f"gammas must list at least one level, got {gammas!r}")
    gammas = [_family_level(fam, "gammas", g) for g in gammas]
    times = _typed("times", job.get("times", list(range(tr.horizon + 1))), list)
    times = [_integer("times", t, 0, tr.horizon) for t in times]
    if not times:
        raise ScenarioError("times must list at least one time")
    def run(path):
        blocks = ["t,node,side,gamma,family,phi,value\n"]
        table = {}  # (t, gamma, side) -> quote value
        worst_cross = 0.0
        for t in times:
            for gamma in gammas:
                for side in ("ask", "bid"):
                    value = table[t, gamma, side] = price(side, fam, gamma, 1.0, stream, t).value
                    line = f"{t},%d,{side},{gamma:.12g},{fam.kind},1,%.12g\n"
                    blocks.append(_rows(line, range(len(value)), value.tolist()))
                worst_cross = max(worst_cross, float(np.max(table[t, gamma, "bid"] - table[t, gamma, "ask"])))
        _atomic_write(path, "".join(blocks))
        nested = [time_consistency_check(s, fam, g, stream) for s in ("ask", "bid") for g in gammas]
        worst_nest = max(n.worst_residual for n in nested)
        asks, bids = ([table[times[0], g, side] for g in sorted(gammas)] for side in ("ask", "bid"))
        _, ask_ok, bid_ok = _level_gaps(asks, bids, PRICE_TOL)
        level_monotone = ask_ok and bid_ok
        ok = worst_cross <= 1e-9 and worst_nest <= 1e-9 and level_monotone
        return ("pass" if ok else "fail"), {
            "worst_bid_minus_ask": worst_cross,
            "worst_nesting_residual": worst_nest,
            "level_monotone": level_monotone,
        }
    return run


# axioms target -> the keys its job takes besides "type", "out" and "target"
_AXIOMS_TARGETS = {
    "dcrm": ("driver",),
    "dai": ("family", "expect_scale_invariance"),
    "family": ("family",),
    "regularity": ("driver", "expect_regular"),
}


def _job_axioms(scn: Scenario, job: dict):
    target = _choice("target", job.get("target"), tuple(_AXIOMS_TARGETS))
    _known_keys(f"{target} axioms job", job, ("type", "out", "target", *_AXIOMS_TARGETS[target]))
    if target in ("dcrm", "regularity"):
        g = _resolve_driver(scn, _required(job, "driver", f"{target} job"))
    else:
        fam = _resolve_family(scn, _required(job, "family", f"{target} job"))
    if target == "dai":
        expect = _boolean("expect_scale_invariance", job.get("expect_scale_invariance", fam.positive_homogeneous))
    elif target == "regularity":
        expect = _boolean("expect_regular", job.get("expect_regular", True))
    def run(path):
        if target == "dcrm":
            rep = check_dcrm_axioms(g, seed=scn.seed)
            payload = {r.name: {"passed": r.passed, "worst": r.worst} for r in rep.results}
            ok = rep.passed
        elif target == "dai":
            rep = check_dai_axioms(fam, seed=scn.seed)
            payload = {r.name: {"passed": r.passed, "worst": r.worst} for r in rep.results}
            ok = rep.passed and rep["scale_invariance"].passed == expect
        elif target == "family":
            rep = validate_family(fam)
            payload = {
                "monotone_in_level": rep.monotone_in_level,
                "each_level_convex": rep.each_level_convex,
                "each_level_regular": rep.each_level_regular,
                "left_continuous": rep.left_continuous,
            }
            ok = rep.passed
        else:
            rep = is_regular(g)
            payload = {"regular": rep.regular, "margin": rep.margin, "reason": rep.reason}
            ok = rep.regular == expect
        write_json(path, payload)
        return ("pass" if ok else "fail"), {"target": target}
    return run


def _job_index(scn: Scenario, job: dict):
    fam = _resolve_family(scn, _required(job, "family", "index job"))
    stream = _resolve_stream(scn, _required(job, "stream", "index job"))
    t = _integer("time", job.get("time", 0), 0, scn.walk.tree.horizon)
    n = scn.walk.tree.n_nodes(t)
    want = None
    if "expect" in job:
        want = _typed("expect", job["expect"], list)
        if len(want) != n:
            raise ScenarioError(f"expect must list {n} values, got {len(want)}")
        # an unbounded index is +inf, or the "inf" string the index artifact writes
        want = np.array([math.inf if w in ("inf", math.inf) else _number("expect", w) for w in want])
        finite = np.isfinite(want)
        tol = _number("tol", job.get("tol", 1e-6))
    elif "tol" in job:
        raise ScenarioError("index job takes tol only with expect")
    def run(path):
        alpha = acceptability_index(fam, stream, t)
        write_json(path, {"time": t, "alpha": alpha})
        ok = want is None or bool(
            np.all(np.abs(alpha[finite] - want[finite]) <= tol) and np.all(np.isinf(alpha[~finite]))
        )
        return ("pass" if ok else "fail"), {}
    return run


def _job_arbitrage(scn: Scenario, job: dict):
    cfg, _, group = _search(scn, job)
    expect = _choice("expect", job.get("expect"), (None, "found", "none"))
    result = group.slot(ARBITRAGE)
    def run(path):
        (res,) = result()
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
        write_json(path, payload)
        if expect == "found":
            status = "pass" if res.found else "fail"
        elif expect == "none":
            status = "pass" if not res.found else "fail"
            if status == "pass" and not cfg.exhaustive:
                status = "warn"
        else:
            status = "warn" if not res.found else "pass"
        return status, {"found": res.found}
    return run


def _job_ngd(scn: Scenario, job: dict):
    fam = _resolve_family(scn, _required(job, "family", "ngd job"))
    cfg, entry, group = _search(scn, job)
    gamma = _family_level(fam, "gamma", _required(job, "gamma", "ngd job"))
    expect = _choice("expect", job.get("expect"), (None, "GOOD_DEAL_FOUND", "NONE_FOUND"))
    shared = group.slot(HedgeRequest("ask", fam, gamma, 1.0, scn.streams["zero"]), ARBITRAGE)
    def run(path):
        rep = check_ngd(fam, gamma, scn.market, entry, cfg, shared=shared)
        write_json(
            path,
            {
                "verdict": rep.verdict,
                "worst_risk": rep.worst_risk,
                "consistent": rep.consistent,
                "note": rep.note,
            },
        )
        if expect is not None:
            status = "pass" if rep.verdict == expect else "fail"
            if status == "pass" and rep.verdict == "NONE_FOUND":
                status = "pass" if rep.consistent else "fail"
        else:
            status = "warn" if rep.verdict == "NONE_FOUND" else "pass"
        return status, {"verdict": rep.verdict}
    return run


def _job_hedged(scn: Scenario, job: dict):
    fam = _resolve_family(scn, _required(job, "family", "hedged job"))
    stream = _resolve_stream(scn, _required(job, "stream", "hedged job"))
    cfg, entry, group = _search(scn, job)
    gamma = _family_level(fam, "gamma", _required(job, "gamma", "hedged job"))
    shared = group.slot(*(HedgeRequest(side, fam, gamma, 1.0, stream) for side in ("ask", "bid")))
    def run(path):
        rep = hedged_sandwich(fam, gamma, 1.0, stream, scn.market, entry, cfg, shared=shared)
        write_json(
            path,
            {
                "ask_improvement_min": rep.ask_improvement_min,
                "bid_improvement_min": rep.bid_improvement_min,
                "hedged_spread_min": rep.hedged_spread_min,
            },
        )
        ok = rep.ask_ok and rep.bid_ok and rep.spread_ok
        return ("pass" if ok else "fail"), {}
    return run


def _job_book_quotes(scn: Scenario, job: dict):
    sec = scn.market.security(_required(job, "security", "book_quotes job"))
    side = _choice("side", job.get("side", "ask"), ("ask", "bid"))
    op = sec.op_ask if side == "ask" else sec.op_bid
    phis = _typed("phis", _required(job, "phis", "book_quotes job"), list)
    phis = [_number("phis", phi) for phi in phis]
    if isinstance(op, OrderBookOperator):
        op.check_orders(phis)
    want = [_finite("expect", x) for x in _typed("expect", job.get("expect", []), list)]
    if "expect" in job and len(want) != len(phis):
        raise ScenarioError(f"expect must list {len(phis)} values, got {len(want)}")
    def run(path):
        values = [float(op.price(0, np.full(1, phi))[0]) for phi in phis]
        _atomic_write(path, "t,node,side,phi,value\n" + _rows(f"0,0,{side},%.12g,%.12g\n", phis, values))
        ok = all(abs(a - b) <= 1e-9 for a, b in zip(values, want))
        return ("pass" if ok else "fail"), {"values": values}
    return run


# job type -> (loader, suffix of the default artifact name job<idx>_<suffix>,
# the keys the job takes besides "type" and "out"). A loader checks the job and
# returns run(path) -> (status, details), which checks nothing of the config.
_JOB_TYPES = {
    "solve": (_job_solve, "solve.csv", ("driver", "terminal")),
    "price_table": (_job_price_table, "prices.csv", ("family", "stream", "gammas", "times")),
    "axioms": (
        _job_axioms, "axioms.json", ("target", "driver", "family", "expect_scale_invariance", "expect_regular")
    ),
    "index": (_job_index, "index.json", ("family", "stream", "time", "expect", "tol")),
    "arbitrage": (_job_arbitrage, "arbitrage.json", ("search", "entry", "expect")),
    "ngd": (_job_ngd, "ngd.json", ("family", "gamma", "search", "entry", "expect")),
    "hedged": (_job_hedged, "hedged.json", ("family", "gamma", "stream", "search", "entry")),
    "book_quotes": (_job_book_quotes, "book.csv", ("security", "side", "phis", "expect")),
}
# the job types that trade in the scenario market, refused at load without one
_MARKET_JOBS = ("arbitrage", "ngd", "hedged", "book_quotes")


def _artifact_names(jobs: list) -> list:
    """Each job's artifact file name: its out, or job<idx>_<suffix>. A name
    is a bare file name, so it stays inside the output directory, and it is
    neither another job's name nor summary.json, so nothing is overwritten."""
    names = []
    for idx, job in enumerate(jobs):
        name = job.get("out", f"job{idx}_{_JOB_TYPES[job['type']][1]}")
        if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
            raise ScenarioError(f"job {idx}: out must be a bare file name, got {name!r}")
        if name in names or name == "summary.json":
            raise ScenarioError(f"job {idx}: out {name!r} is taken by another job or summary.json")
        names.append(name)
    return names


def run_scenario(
    cfg: dict,
    out_dir: str,
    seed_override: Optional[int] = None,
    strict: bool = False,
) -> dict:
    """Run every job in order; write artifacts and summary.json; return
    the summary."""
    scn = load_scenario(cfg, seed_override)
    os.makedirs(out_dir, exist_ok=True)

    def run_one(idx):
        jtype, run, name = scn.jobs[idx]
        try:
            status, details = run(os.path.join(out_dir, name))
        except Exception as exc:  # report, do not kill sibling jobs
            return {"job": idx, "type": jtype, "status": "error", "error": f"{type(exc).__name__}: {exc}"}
        return {"job": idx, "type": jtype, "status": status, **details, "artifact": name}

    entries = [run_one(idx) for idx in range(len(scn.jobs))]
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
    """One line per job of a summary; a summary without a jobs array raises
    LookupError or TypeError."""
    jobs = summary["jobs"]
    if not isinstance(jobs, list):
        raise TypeError(f"summary jobs must be an array, got {jobs!r}")
    lines = [f"scenario {summary.get('scenario')} (seed {summary.get('seed')})"]
    for e in jobs:
        extra = e.get("error", e.get("artifact", ""))
        lines.append(f"  [{e['status']:5s}] job {e['job']} {e['type']} {extra}")
    lines.append("PASSED" if summary.get("passed") else "FAILED")
    return "\n".join(lines)
