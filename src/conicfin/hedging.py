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

A no-good-deal verdict is heuristic: it reports that no visited strategy
produced strictly negative risk at any node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .arbitrage import ArbitrageSearchResult, find_arbitrage
from .bsde import solve_bsde
from .drivers import Driver, DriverFamily
from .market import MarketModel, TradingStrategy
from .pricing import price
from .search import LegLayout, SearchConfig, ascend
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
    evaluate_values: Callable[[np.ndarray], np.ndarray],
    layout: LegLayout,
    cfg: SearchConfig,
):
    """Minimize a per-node objective over legs; merge per-node winners.

    evaluate_values maps (B, dims) to (B, n_t) node values at t =
    layout.entry; the ascent maximizes minus their sum over legs capped at
    layout.bound(cfg). Each dimension belongs to one level-t subtree, so
    accepted coordinate moves improve exactly their own node and final
    strategies from different starts can be recombined node by node into a
    single parameter vector.

    The ascent scores the candidates of all active starts in one call per
    coordinate step, and the starts' finals are valued in one call too.
    The ledger and solve_bsde treat each row on its own, so each row gets
    the values it would get alone.
    """
    dims = layout.dims
    finals, evals = ascend(
        lambda P: -np.sum(evaluate_values(P), axis=-1), dims, cfg, layout.bound(cfg)
    )
    params = np.stack([p for p, _ in finals])
    evals += len(params)
    # dimension d takes the start that wins the node of its subtree
    winner = np.argmin(evaluate_values(params), axis=0)
    merged = params[winner[layout.dim_subtree_map(layout.entry)], np.arange(dims)]
    merged_vals = evaluate_values(merged[None, :])[0]
    evals += 1
    return merged, merged_vals, evals


def _node_values(g: Driver, layout: LegLayout, payoff: np.ndarray):
    """(B, dims) legs -> (B, n_t) time-t values, under g, of the leaf payoff
    minus the terminal wealth of the strategy entered at layout.entry."""
    return lambda P: solve_bsde(g, payoff - layout.wealth(P), layout.market.walk).Y[layout.entry]


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
    quote = price(side, family, gamma, phi, stream, t)
    g = family.make(gamma)
    sign = 1.0 if side == "ask" else -1.0
    payoff = sign * tail_payoff(stream, quote.phi, t)
    layout = LegLayout(market, t)
    values = _node_values(g, layout, payoff)
    merged, merged_vals, evals = _per_node_search(values, layout, cfg)
    strat = layout.strategy(merged)
    value = merged_vals if side == "ask" else -merged_vals
    return HedgedQuote(
        side=side,
        gamma=float(gamma),
        t=t,
        value=value,
        unhedged=quote.value,
        strategy=strat,
        evaluations=evals,
    )


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
    tr = market.tree
    g = family.make(gamma)
    layout = LegLayout(market, t)
    risk_values = _node_values(g, layout, np.zeros(tr.n_leaves))
    merged, merged_vals, evals = _per_node_search(risk_values, layout, cfg)
    worst = float(np.min(merged_vals))
    found = worst < -GOOD_DEAL_TOL
    strategy = layout.strategy(merged) if found else None
    arb = find_arbitrage(market, t, cfg) if cross_check_arbitrage else None
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
    ha = hedged_price("ask", family, gamma, phi, stream, market, t, cfg)
    hb = hedged_price("bid", family, gamma, phi, stream, market, t, cfg)
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
