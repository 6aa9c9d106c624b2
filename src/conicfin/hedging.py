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
on one leg layout ride one ascent. A request names what a caller wants
searched on one market, entry and SearchConfig: one side's hedged quote
(HedgeRequest) or the arbitrage report (ARBITRAGE). A good-deal check is
the hedged ask of the zero stream, the least risk of a zero-cost hedge.
_search_all runs any list of requests in one ascent, the arbitrage
objective once for all of them, and a SharedSearch lets several callers
share one run. Each objective keeps its own moves and row count, so every
quote and report is the one its own search gives.

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
from .tree import AdaptedProcess, tail_payoff, zero_process

GOOD_DEAL_TOL = 1e-9


@dataclass(frozen=True)
class HedgedQuote:
    """A hedged quote; LegLayout(market, t).strategy(params) is its hedge."""

    side: str
    gamma: float
    t: int
    value: np.ndarray
    unhedged: np.ndarray
    params: np.ndarray
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


@dataclass(frozen=True)
class NgdReport:
    verdict: str
    worst_risk: float
    strategy: Optional[TradingStrategy]
    arbitrage: Optional[ArbitrageSearchResult]
    consistent: bool
    note: str


@dataclass(frozen=True, eq=False)
class HedgeRequest:
    """The hedged side quote of phi shares of the stream at family level
    gamma; its result is the HedgedQuote."""

    side: str
    family: DriverFamily
    gamma: float
    phi: object
    stream: AdaptedProcess


# The request for the arbitrage search's report, an ArbitrageSearchResult.
ARBITRAGE = "arbitrage"


def _search_all(requests: Sequence, market: MarketModel, t: int, cfg: SearchConfig) -> list:
    """The result of every request, entered at time t, searched in one
    ascent over LegLayout(market, t).wealth.

    Each hedge request adds its side's node-value objective. The arbitrage
    report, wanted by any ARBITRAGE request, is made once: wealth_score
    rides the ascent as one more objective, except that an exhaustive
    config sweeps its grid and a group with no hedge to search runs its own
    ascent, both through find_arbitrage. Each objective keeps its own
    moves, finals and row count, so every result is the one its request
    gets searched alone.
    """
    layout = LegLayout(market, t)
    hedges = [r for r in requests if r != ARBITRAGE]
    plain = [price(r.side, r.family, r.gamma, r.phi, r.stream, t) for r in hedges]
    values = []
    for r, q in zip(hedges, plain):
        sign = 1.0 if r.side == "ask" else -1.0
        values.append(_node_values(r.family.make(r.gamma), layout, sign * tail_payoff(r.stream, q.phi, t)))
    wants_arb = ARBITRAGE in requests
    ride = wants_arb and bool(hedges) and not cfg.exhaustive
    nodes, best = [], None
    if hedges:
        nodes, best, _ = _per_node_search(layout.wealth, values, layout, cfg, wealth_score if ride else None)
    arb = None
    if ride:
        arb = certify(layout, best, cfg)
    elif wants_arb:
        arb = find_arbitrage(market, t, cfg)
    quotes = iter([
        HedgedQuote(
            side=r.side,
            gamma=float(r.gamma),
            t=t,
            value=merged_vals if r.side == "ask" else -merged_vals,
            unhedged=q.value,
            params=merged,
            evaluations=evals,
        )
        for r, q, (merged, merged_vals, evals) in zip(hedges, plain, nodes)
    ])
    return [arb if r == ARBITRAGE else next(quotes) for r in requests]


class SharedSearch:
    """The search requests of one market, entry t and SearchConfig, and
    their results once asked for.

    slot(*requests) adds requests and returns a call that gives their
    results, the list _search_all gives for them. The first call runs every
    request added so far in one _search_all and keeps all their results;
    later calls read them.
    """

    def __init__(self, market: MarketModel, t: int, cfg: SearchConfig):
        self.where = (market, t, cfg)
        self.requests, self.results = [], None

    def slot(self, *requests) -> Callable[[], list]:
        k = len(self.requests)
        self.requests.extend(requests)

        def result():
            if self.results is None:
                self.results = _search_all(self.requests, *self.where)
            return self.results[k : k + len(requests)]

        return result


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
    return _search_all([HedgeRequest(side, family, gamma, phi, stream)], market, t, cfg)[0]


def check_ngd(
    family: DriverFamily,
    gamma: float,
    market: MarketModel,
    t: int = 0,
    cfg: SearchConfig = SearchConfig(),
    cross_check_arbitrage: bool = True,
    shared: Optional[Callable[[], list]] = None,
) -> NgdReport:
    """Search for a good deal: a zero-cost hedge whose time-t risk is
    strictly negative somewhere. That risk is the hedged ask of the zero
    stream, so the verdict is read off that quote. Absence of good deals
    implies absence of arbitrage, so a found arbitrage alongside a
    NONE_FOUND verdict is flagged as inconsistent (a miss of the heuristic
    search).

    shared, when given, is the SharedSearch slot of this call's requests,
    the zero stream's hedged ask and, with the cross-check, ARBITRAGE,
    added with these arguments; the report is then read off that group's
    one ascent instead of a search of its own."""
    if shared is None:
        zero_ask = HedgeRequest("ask", family, gamma, 1.0, zero_process(market.tree))
        checks = [ARBITRAGE] if cross_check_arbitrage else []
        shared = SharedSearch(market, t, cfg).slot(zero_ask, *checks)
    quote, *arb = shared()
    arb = arb[0] if arb else None
    worst = float(np.min(quote.value))
    found = worst < -GOOD_DEAL_TOL
    consistent = arb is None or found or not arb.found
    note = f"searched {quote.evaluations} leg evaluations"
    if not consistent:
        note += "; arbitrage certificate exists, so the good-deal search missed one"
    return NgdReport(
        verdict="GOOD_DEAL_FOUND" if found else "NONE_FOUND",
        worst_risk=worst,
        strategy=LegLayout(market, t).strategy(quote.params) if found else None,
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
    shared: Optional[Callable[[], list]] = None,
) -> SandwichReport:
    """Hedging can only improve quotes, and absent good deals the hedged
    ask still dominates the hedged bid.

    shared, when given, is the SharedSearch slot of this call's ask and bid
    requests, in that order, added with these arguments; the quotes are
    then read off that group's one ascent instead of a search of their
    own."""
    if shared is None:
        requests = [HedgeRequest(side, family, gamma, phi, stream) for side in ("ask", "bid")]
        shared = SharedSearch(market, t, cfg).slot(*requests)
    ha, hb = shared()
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
