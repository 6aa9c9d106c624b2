"""Seeded scenario generators for the benchmark workloads.

Each generator returns a list of `Case`s: a scenario dict handed unchanged to
`conicfin.scenario.run_scenario`, the status every job must report, and
known-answer checks computed here with plain numpy or integer arithmetic,
independently of the package. The same seed always gives the same cases.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

# The search block the bundled scenarios use for their searching jobs.
BUNDLED_SEARCH = {"grid_points": 11, "multi_starts": 3, "sweeps": 2, "refine_rounds": 2}


@dataclass
class Case:
    """One scenario of a workload and what its outputs must be.

    checks[j] inspects job j's summary entry and artifacts and returns an
    error message, or None when the known answer holds.
    """

    label: str
    config: dict
    statuses: list
    checks: dict = field(default_factory=dict)


Check = Callable[[str, dict], Optional[str]]


def _read_json(out_dir: str, entry: dict) -> dict:
    with open(os.path.join(out_dir, entry["artifact"])) as f:
        return json.load(f)


def _read_csv(out_dir: str, entry: dict) -> list:
    with open(os.path.join(out_dir, entry["artifact"]), newline="") as f:
        return list(csv.DictReader(f))


def _close(got: float, want: float, rel: float = 1e-11) -> bool:
    # Artifacts carry 12 significant digits, so 1e-11 relative is the
    # tightest tolerance a correct value always meets.
    return abs(got - want) <= rel * max(1.0, abs(want))


# ---- lattice_quotes -------------------------------------------------------------


def _leaf_sum(levels: list, start: int) -> np.ndarray:
    """Sum of levels[start:] along every root-to-leaf path of the uniform
    binary tree, whose node k at level t has children 2k and 2k+1."""
    T = len(levels) - 1
    total = np.zeros(2**T)
    for t in range(start, T + 1):
        total += np.repeat(np.asarray(levels[t], dtype=float), 2 ** (T - t))
    return total


def _entropic(x: np.ndarray, gamma: float) -> np.ndarray:
    """gamma * log E[exp(x / gamma)] along the last axis, computed stably."""
    z = x / gamma
    m = np.max(z, axis=-1, keepdims=True)
    return gamma * (m[..., 0] + np.log(np.mean(np.exp(z - m), axis=-1)))


def _check_entropic_root(levels: list, gamma: float) -> Check:
    want = float(_entropic(_leaf_sum(levels, 0), gamma))

    def check(out_dir, entry):
        row = next(r for r in _read_csv(out_dir, entry) if r["t"] == "0")
        got = float(row["Y"])
        return None if _close(got, want) else f"solve root {got!r} != closed form {want!r}"

    return check


def _check_entropic_table(levels: list, times: list) -> Check:
    """Entropic family level x quotes (1/x) log E[exp(x S) | F_t] for the ask
    and minus that of -S for the bid, with S the strictly future payments."""
    below = {t: _leaf_sum(levels, t + 1).reshape(2**t, -1) for t in times}

    def check(out_dir, entry):
        for r in _read_csv(out_dir, entry):
            t, node, x = int(r["t"]), int(r["node"]), float(r["gamma"])
            sign = 1.0 if r["side"] == "ask" else -1.0
            want = sign * float(_entropic(sign * below[t][node], 1.0 / x))
            if not _close(float(r["value"]), want):
                return f"entropic {r['side']} at t={t} node={node} x={x}: {r['value']} != {want!r}"
        return None

    return check


def lattice_quotes(seed: int, horizon: int = 14) -> list:
    """Few, large vectorised solves on one uniform binary tree."""
    rng = np.random.default_rng(seed)
    T = horizon
    half = T // 2
    # A small positive drift leaves some nodes acceptable only up to a finite
    # level, so each index job runs its full bisection.
    levels = [0.0] + [np.round(rng.normal(0.02, 0.05, 2**t), 6).tolist() for t in range(1, T + 1)]
    gamma = float(np.round(rng.uniform(0.5, 2.0), 3))
    families = ("entropic", "coherent", "quasiconcave_lse")
    jobs = [{"type": "solve", "driver": "gx", "terminal": {"stream": "div"}}]
    jobs += [
        {"type": "price_table", "family": f, "stream": "div", "gammas": [0.5, 2.0], "times": [0, half]}
        for f in families
    ]
    jobs += [{"type": "index", "family": f, "stream": "div", "time": half} for f in families]
    config = {
        "name": f"lattice-quotes-{seed}",
        "seed": seed,
        "tree": {"horizon": T},
        "drivers": {"gx": {"kind": "entropic", "gamma": gamma}},
        "families": {f: {"kind": f} for f in families},
        "streams": {"div": {"values": levels}},
        "jobs": jobs,
    }
    checks = {0: _check_entropic_root(levels, gamma), 1: _check_entropic_table(levels, [0, half])}
    return [Case("lattice", config, ["pass"] * len(jobs), checks)]


# ---- hedge_search ------------------------------------------------------------


def _check_json(key: str, want) -> Check:
    def check(out_dir, entry):
        got = _read_json(out_dir, entry).get(key)
        return None if got == want else f"{key} is {got!r}, expected {want!r}"

    return check


def _random_stream(rng: np.random.Generator, horizon: int, scale: float) -> list:
    return [0.0] + [np.round(rng.normal(0.0, scale, 2**t), 4).tolist() for t in range(1, horizon + 1)]


def hedge_search(seed: int) -> list:
    """Coordinate-ascent searches whose every evaluation is a batch of tiny
    conic solves: one entropic and one coherent security on a horizon-2 tree."""
    rng = np.random.default_rng(seed)
    gamma_ent = float(np.round(rng.uniform(1.0, 3.0), 3))
    gamma_coh = float(np.round(rng.uniform(1.0, 3.0), 3))
    config = {
        "name": f"hedge-search-{seed}",
        "seed": seed,
        "tree": {"horizon": 2},
        "families": {"ent": {"kind": "entropic"}, "coh": {"kind": "coherent"}},
        "streams": {
            "s_ent": {"values": _random_stream(rng, 2, 0.5)},
            "s_coh": {"values": _random_stream(rng, 2, 0.5)},
            "claim": {"values": _random_stream(rng, 2, 0.5)},
        },
        "securities": [
            {"id": "ent", "flavor": "conic", "family": "ent", "stream": "s_ent", "gamma_ask": gamma_ent},
            {"id": "coh", "flavor": "conic", "family": "coh", "stream": "s_coh", "gamma_ask": gamma_coh},
        ],
        "jobs": [
            {"type": "hedged", "family": "ent", "gamma": gamma_ent, "stream": "claim", "search": BUNDLED_SEARCH},
            # Every builtin driver is nonnegative, so trading at conic quotes
            # never lowers the risk of the same family below zero.
            {"type": "ngd", "family": "ent", "gamma": gamma_ent, "expect": "NONE_FOUND", "search": BUNDLED_SEARCH},
            {"type": "arbitrage", "expect": "none", "search": BUNDLED_SEARCH},
        ],
    }
    checks = {1: _check_json("verdict", "NONE_FOUND"), 2: _check_json("found", False)}
    return [Case("hedge", config, ["pass", "pass", "warn"], checks)]


# ---- exact_tables ------------------------------------------------------------


def _martingale_tables(rng: np.random.Generator, horizon: int):
    """Bid/ask tables around a martingale mid: bid < mid < ask at every node.

    Any trade then loses the spread on average against a martingale, so no
    strategy is an arbitrage."""
    mid = [None] * (horizon + 1)
    mid[horizon] = np.round(rng.uniform(90.0, 110.0, 2**horizon), 2)
    for t in range(horizon - 1, -1, -1):
        mid[t] = mid[t + 1].reshape(-1, 2).mean(axis=1)
    ask = [m + np.round(rng.uniform(0.05, 0.5, m.size), 2) for m in mid]
    bid = [m - np.round(rng.uniform(0.05, 0.5, m.size), 2) for m in mid]
    return ask, bid


def _plant(rng: np.random.Generator, ask: list, bid: list):
    """Make buying at one node and selling at both of its children a sure gain."""
    t = int(rng.integers(0, len(ask) - 1))
    node = int(rng.integers(0, ask[t].size))
    floor = float(np.min(bid[t + 1][2 * node : 2 * node + 2]))
    ask[t][node] = floor - float(np.round(rng.uniform(0.1, 0.5), 2))
    bid[t][node] = min(float(bid[t][node]), float(ask[t][node]) - 0.05)


def _direct_config(name: str, seed: int, tables: list, jobs: list) -> dict:
    return {
        "name": name,
        "seed": seed,
        "tree": {"horizon": len(tables[0][0]) - 1},
        "families": {"ent": {"kind": "entropic"}},
        "streams": {},
        "securities": [
            {
                "id": f"tbl{i}",
                "flavor": "direct",
                "stream": "zero",
                "unit_ask": [a.tolist() for a in ask],
                "unit_bid": [b.tolist() for b in bid],
            }
            for i, (ask, bid) in enumerate(tables)
        ],
        "jobs": jobs,
    }


def _check_certificate(out_dir, entry):
    rep = _read_json(out_dir, entry)
    cert = rep.get("certificate") or {}
    if not (rep.get("found") and cert.get("exact")):
        return f"expected an exactly validated certificate, got {rep!r}"
    if not (cert["min_terminal"] >= 0.0 and cert["max_terminal"] > 0.0):
        return f"certificate loses money: {cert!r}"
    return None


def _check_sweep(out_dir, entry):
    rep = _read_json(out_dir, entry)
    if rep.get("found") or not rep.get("exhaustive_total"):
        return f"expected an exhaustive sweep without a certificate, got {rep!r}"
    return None


def _fill_ticks(ladder: list, qty: int) -> int:
    """Cost in ticks of qty shares walked through (tick price, size) rows."""
    cost = 0
    for px, size in ladder:
        take = min(qty, size)
        cost += take * px
        qty -= take
    return cost


def _check_fills(want: list) -> Check:
    def check(out_dir, entry):
        got = entry.get("values", [])
        if len(got) != len(want) or not all(_close(g, w) for g, w in zip(got, want)):
            return f"book fills {got!r} != integer-tick sums {want!r}"
        return None

    return check


def _book_case(rng: np.random.Generator, seed: int) -> Case:
    scale = 100
    touch = int(rng.integers(9_000, 11_000))
    ask_ticks = [(touch + 1 + k, int(rng.integers(100, 900))) for k in range(6)]
    bid_ticks = [(touch - 1 - k, int(rng.integers(100, 900))) for k in range(6)]
    jobs, checks = [], {}
    for side, ladder in (("ask", ask_ticks), ("bid", bid_ticks)):
        depth = sum(size for _, size in ladder)
        phis = sorted(int(q) for q in rng.integers(1, depth + 1, 4))
        want = [float(Fraction(_fill_ticks(ladder, q), scale)) for q in phis]
        checks[len(jobs)] = _check_fills(want)
        jobs.append({"type": "book_quotes", "security": "book", "side": side, "phis": phis, "expect": want})
    config = {
        "name": f"book-{seed}",
        "seed": seed,
        "tree": {"horizon": 1},
        "streams": {},
        "securities": [
            {
                "id": "book",
                "flavor": "book",
                "tick_scale": scale,
                "ask_ladder": [[px / scale, size] for px, size in ask_ticks],
                "bid_ladder": [[px / scale, size] for px, size in bid_ticks],
            }
        ],
        "jobs": jobs,
    }
    return Case("book", config, ["pass"] * len(jobs), checks)


def exact_tables(seed: int, planted: int = 4, clean: int = 3) -> list:
    """Direct price tables and an order book: cheap operators, large
    exhaustive batches, and exact rational revalidation."""
    rng = np.random.default_rng(seed)
    securities = 2
    cases = []
    for k in range(planted):
        tables = [_martingale_tables(rng, 2) for _ in range(securities)]
        _plant(rng, *tables[int(rng.integers(0, securities))])
        jobs = [{"type": "arbitrage", "entry": 0, "expect": "found", "search": BUNDLED_SEARCH}]
        cfg = _direct_config(f"planted-{seed}-{k}", seed, tables, jobs)
        cases.append(Case(f"planted{k}", cfg, ["pass"], {0: _check_certificate}))
    sweep = {"exhaustive": True, "exhaustive_target": 200_000}
    for k in range(clean):
        tables = [_martingale_tables(rng, 2) for _ in range(securities)]
        jobs = [{"type": "arbitrage", "entry": 0, "expect": "none", "search": sweep}]
        statuses, checks = ["pass"], {0: _check_sweep}
        if k == 0:
            jobs.append({"type": "ngd", "family": "ent", "gamma": 2.0, "expect": "NONE_FOUND", "search": BUNDLED_SEARCH})
            statuses.append("pass")
            checks[1] = _check_json("verdict", "NONE_FOUND")
        cfg = _direct_config(f"clean-{seed}-{k}", seed, tables, jobs)
        cases.append(Case(f"clean{k}", cfg, statuses, checks))
    cases.append(_book_case(rng, seed))
    return cases


WORKLOADS = {
    "lattice_quotes": lattice_quotes,
    "hedge_search": hedge_search,
    "exact_tables": exact_tables,
}
