"""Hedged bid/ask prices and good-deal checks.

The hedged ask at time t lowers the plain conic ask by the best terminal
wealth a zero-cost strategy entered at t can deliver against the payoff;
the hedged bid mirrors it. The plain quote and the side and input checks
are pricing's own. Free consumption only ever raises the risk of a hedge,
so the searches keep consumption at zero and sweep risky legs alone (the
bank leg is reconstructed). Every objective is built by _node_values:
legs -> self-financing strategy -> time-t value of the payoff net of the
strategy's terminal wealth.

Because every leg dimension sits inside the subtree of exactly one level-t
node, the per-node objective values decompose: the shared coordinate
ascent (search.ascend) from the zero strategy improves nodes one at a
time, and winners from different starts merge into a single strategy node
by node. The zero start makes the hedged ask never exceed the plain ask
(and the hedged bid never fall below the plain bid) by construction.

Every search here shares one wealth map, LegLayout.wealth, so objectives
on one leg layout ride one ascent: the hedged sandwich searches its ask
and bid in one, and check_ngd's arbitrage cross-check (arbitrage's own
objective and report) rides the good-deal ascent. Each objective keeps
its own moves and row count, so every quote and report is the one its
own search gives.

A no-good-deal verdict is heuristic: it reports that no visited strategy
produced strictly negative risk at any node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .arbitrage import ArbitrageSearchResult, certify, find_arbitrage, wealth_score
from .bsde import solve_bsde
from .drivers import Driver, DriverFamily
from .market import MarketModel, TradingStrategy
from .pricing import price
from .search import LegLayout, SearchConfig, SearchOutcome, ascend
from .tree import AdaptedProcess, tail_payoff

GOOD_DEAL_TOL = 1e-9


@dataclass(frozen=True)
class HedgedQuote:
    side: str
    gamma: float
    t: int
    value: np.ndarray
    unhedged: np.ndarray
    strategy: TradingStrategy
    evaluations: int


def _per_node_search(
    wealth: Callable[[np.ndarray], np.ndarray],
    node_values: Sequence[Callable[[np.ndarray], np.ndarray]],
    layout: LegLayout,
    cfg: SearchConfig,
    score: Optional[Callable[[np.ndarray], np.ndarray]] = None,
):
    """Minimize per-node objectives over legs in one ascent; merge each
    one's per-node winners.

    wealth is layout.wealth, (B, dims) legs to (B, leaves) terminal wealth,
    passed on its own so that perfbench/tracing.py can count its rows, and
    each node_values map takes wealth rows to (B, n_t) node values at
    t = layout.entry. The ascent maximizes minus their sum over legs capped
    at layout.bound(cfg). Each dimension belongs to one level-t subtree, so
    accepted coordinate moves improve exactly their own node and final
    strategies from different starts can be recombined node by node into a
    single parameter vector. score, when given, is one more objective on
    wealth rows that rides the same ascent; its best final is kept whole.

    Returns ([(merged params, merged node values, rows scored)] per
    node_values map, the SearchOutcome of score or None, every objective's
    rows together, which the tracer reads as the search's row count). The
    ascent stacks every objective's candidates into one wealth call per
    coordinate step, and all the finals, then all the merged vectors, are
    valued in one call each. The ledger and solve_bsde treat each row on
    its own, so each objective gets the values and row count it would get
    alone.
    """
    dims = layout.dims
    objectives = [lambda W, v=v: -np.sum(v(W), axis=-1) for v in node_values]
    runs = ascend(wealth, objectives + ([score] if score else []), dims, cfg, layout.bound(cfg))
    best = SearchOutcome.best(*runs.pop()) if score else None
    finals = [np.stack([p for p, _ in f]) for f, _ in runs]
    ends = np.cumsum([len(p) for p in finals])[:-1]
    final_wealth = np.split(wealth(np.concatenate(finals)), ends)
    subtree = layout.dim_subtree_map(layout.entry)
    merged = []
    for v, params, W in zip(node_values, finals, final_wealth):
        # dimension d takes the start that wins the node of its subtree
        winner = np.argmin(v(W), axis=0)
        merged.append(params[winner[subtree], np.arange(dims)])
    merged_wealth = wealth(np.stack(merged))
    nodes = [
        (p, v(merged_wealth[k : k + 1])[0], evals + len(params) + 1)
        for k, (v, p, params, (_, evals)) in enumerate(zip(node_values, merged, finals, runs))
    ]
    total = sum(rows for _, _, rows in nodes) + (best.evaluations if best else 0)
    return nodes, best, total


def _node_values(g: Driver, layout: LegLayout, payoff: np.ndarray):
    """(B, leaves) terminal wealth -> (B, n_t) time-t values, under g, of
    the leaf payoff minus that wealth."""
    return lambda W: solve_bsde(g, payoff - W, layout.market.walk).Y[layout.entry]


def _hedged_quotes(sides, family, gamma, phi, stream, market, t, cfg) -> list:
    """Hedged quotes of phi shares of the stream, entered at time t, one
    per side, searched in one ascent."""
    quotes = [price(side, family, gamma, phi, stream, t) for side in sides]
    g = family.make(gamma)
    signs = [1.0 if side == "ask" else -1.0 for side in sides]
    layout = LegLayout(market, t)
    values = [_node_values(g, layout, s * tail_payoff(stream, q.phi, t)) for s, q in zip(signs, quotes)]
    nodes, _, _ = _per_node_search(layout.wealth, values, layout, cfg)
    return [
        HedgedQuote(
            side=side,
            gamma=float(gamma),
            t=t,
            value=merged_vals if side == "ask" else -merged_vals,
            unhedged=quote.value,
            strategy=layout.strategy(merged),
            evaluations=evals,
        )
        for side, quote, (merged, merged_vals, evals) in zip(sides, quotes, nodes)
    ]


def hedged_price(
    side: str,
    family: DriverFamily,
    gamma: float,
    phi,
    stream: AdaptedProcess,
    market: MarketModel,
    t: int = 0,
    cfg: SearchConfig = SearchConfig(),
) -> HedgedQuote:
    """Hedged ask/bid of phi shares of the stream, entered at time t."""
    return _hedged_quotes((side,), family, gamma, phi, stream, market, t, cfg)[0]


@dataclass(frozen=True)
class NgdReport:
    verdict: str
    worst_risk: float
    strategy: Optional[TradingStrategy]
    arbitrage: Optional[ArbitrageSearchResult]
    consistent: bool
    note: str


def check_ngd(
    family: DriverFamily,
    gamma: float,
    market: MarketModel,
    t: int = 0,
    cfg: SearchConfig = SearchConfig(),
    cross_check_arbitrage: bool = True,
) -> NgdReport:
    """Search for a good deal: a zero-cost hedge whose time-t risk is
    strictly negative somewhere. Absence of good deals implies absence of
    arbitrage, so a found arbitrage alongside a NONE_FOUND verdict is
    flagged as inconsistent (a miss of the heuristic search)."""
    g = family.make(gamma)
    layout = LegLayout(market, t)
    risk_values = _node_values(g, layout, np.zeros(market.tree.n_leaves))
    # the cross-check rides the risk ascent; an exhaustive one sweeps its grid
    ride = cross_check_arbitrage and not cfg.exhaustive
    score = wealth_score if ride else None
    nodes, best, _ = _per_node_search(layout.wealth, [risk_values], layout, cfg, score)
    ((merged, merged_vals, evals),) = nodes
    worst = float(np.min(merged_vals))
    found = worst < -GOOD_DEAL_TOL
    strategy = layout.strategy(merged) if found else None
    arb = None
    if ride:
        arb = certify(layout, best, cfg)
    elif cross_check_arbitrage:
        arb = find_arbitrage(market, t, cfg)
    consistent = True
    note = f"searched {evals} leg evaluations"
    if arb is not None and not found and arb.found:
        consistent = False
        note += "; arbitrage certificate exists, so the good-deal search missed one"
    return NgdReport(
        verdict="GOOD_DEAL_FOUND" if found else "NONE_FOUND",
        worst_risk=worst,
        strategy=strategy,
        arbitrage=arb,
        consistent=consistent,
        note=note,
    )


@dataclass(frozen=True)
class SandwichReport:
    ask_improvement_min: float
    bid_improvement_min: float
    hedged_spread_min: float
    ask_ok: bool
    bid_ok: bool
    spread_ok: bool


def hedged_sandwich(
    family: DriverFamily,
    gamma: float,
    phi,
    stream: AdaptedProcess,
    market: MarketModel,
    t: int = 0,
    cfg: SearchConfig = SearchConfig(),
) -> SandwichReport:
    """Hedging can only improve quotes, and absent good deals the hedged
    ask still dominates the hedged bid."""
    ha, hb = _hedged_quotes(("ask", "bid"), family, gamma, phi, stream, market, t, cfg)
    ask_gain = float(np.min(ha.unhedged - ha.value))
    bid_gain = float(np.min(hb.value - hb.unhedged))
    spread = float(np.min(ha.value - hb.value))
    return SandwichReport(
        ask_improvement_min=ask_gain,
        bid_improvement_min=bid_gain,
        hedged_spread_min=spread,
        ask_ok=ask_gain >= -GOOD_DEAL_TOL,
        bid_ok=bid_gain >= -GOOD_DEAL_TOL,
        spread_ok=spread >= -GOOD_DEAL_TOL,
    )
