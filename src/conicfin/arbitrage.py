"""Arbitrage search and certificate validation for bid-ask markets.

An arbitrage entered at time t is a self-financing strategy holding
nothing through t whose terminal liquidation value is nonnegative
everywhere and positive with positive probability. The search sweeps
risky legs only: the bank leg that makes any risky plan self-financing
with zero entry cost is unique, so it is reconstructed rather than
searched. Candidates are ranked by worst leaf first and mean leaf second,
because certificates may legitimately sit at a worst leaf of exactly zero.

A found candidate is only reported after re-validation: exact rational
arithmetic when every operator supports it (price tables, order books),
tight float margins otherwise. A NONE_FOUND answer is a statement about
the strategies visited, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .market import MarketModel, TradingStrategy, liquidation_value, validate_self_financing
from .search import SearchConfig, exhaustive_grid, leg_layout, maximize

FLOAT_GAIN_TOL = 1e-7
FLOAT_LOSS_TOL = 1e-10


@dataclass(frozen=True)
class CertificateReport:
    valid: bool
    min_terminal: float
    max_terminal: float
    prob_positive: float
    self_financing_residual: float
    exact: bool


@dataclass(frozen=True)
class ArbitrageSearchResult:
    found: bool
    strategy: Optional[TradingStrategy]
    certificate: Optional[CertificateReport]
    best_score: float
    evaluations: int
    exhaustive_total: int
    note: str


def _score(v_terminal: np.ndarray, tol: float) -> np.ndarray:
    """Worst leaf when losing; 1 + mean leaf once nothing is lost."""
    worst = np.min(v_terminal, axis=-1)
    mean = np.mean(v_terminal, axis=-1)
    return np.where(worst < -tol, worst, 1.0 + mean)


def find_arbitrage(
    market: MarketModel, entry: int = 0, cfg: SearchConfig = SearchConfig()
) -> ArbitrageSearchResult:
    """Search for an arbitrage entered at `entry`; certificates are re-validated."""
    layout = leg_layout(market, entry)
    T = market.tree.horizon
    evaluate = lambda P: _score(liquidation_value(layout.strategy(P), market, T), cfg.tol)
    search = exhaustive_grid if cfg.exhaustive else maximize
    outcome = search(evaluate, layout.dims, cfg, layout.bound(cfg))
    strat = layout.strategy(outcome.params)
    report = validate_certificate(strat, market, entry)
    if report.valid:
        return ArbitrageSearchResult(
            found=True,
            strategy=strat,
            certificate=report,
            best_score=outcome.score,
            evaluations=outcome.evaluations,
            exhaustive_total=outcome.exhaustive_total,
            note="certificate re-validated"
            + (" with exact arithmetic" if report.exact else " in floats"),
        )
    return ArbitrageSearchResult(
        found=False,
        strategy=None,
        certificate=None,
        best_score=outcome.score,
        evaluations=outcome.evaluations,
        exhaustive_total=outcome.exhaustive_total,
        note="no certificate among visited strategies (heuristic unless exhaustive)",
    )


def validate_certificate(
    strategy: TradingStrategy, market: MarketModel, entry: int = 0
) -> CertificateReport:
    """Re-validate a candidate: self-financing from entry, no leaf loses,
    some leaf gains. Exact rational arithmetic when the operators allow."""
    tr = market.tree
    fin = validate_self_financing(strategy, market, entry)
    if market.supports_exact:
        lo, hi, prob_pos = _exact_terminal_range(strategy, market, entry)
        valid = fin.passed and lo >= 0 and hi > 0
        return CertificateReport(
            valid=valid,
            min_terminal=float(lo),
            max_terminal=float(hi),
            prob_positive=prob_pos,
            self_financing_residual=fin.max_residual,
            exact=True,
        )
    v = liquidation_value(strategy, market, tr.horizon)
    lo, hi = float(np.min(v)), float(np.max(v))
    prob_pos = float(np.sum(tr.leaf_prob[v > FLOAT_GAIN_TOL]))
    valid = fin.passed and lo >= -FLOAT_LOSS_TOL and hi > FLOAT_GAIN_TOL
    return CertificateReport(
        valid=valid,
        min_terminal=lo,
        max_terminal=hi,
        prob_positive=prob_pos,
        self_financing_residual=fin.max_residual,
        exact=False,
    )


def _exact_terminal_range(strategy: TradingStrategy, market: MarketModel, entry: int):
    """Rebuild the bank leg and terminal wealth in exact rationals.

    Leg values, dividends, and table prices enter as the exact rationals of
    their float representations, so the walk is free of rounding; the
    reported range decides nonnegativity and strict gain exactly.
    """
    tr = market.tree
    T = tr.horizon
    K = len(market.securities)
    F = lambda a: [Fraction(float(x)) for x in np.asarray(a, dtype=float).ravel()]

    def leg(legs, t):
        if t < 1 or t > T:
            return [Fraction(0)] * tr.n_nodes(max(t - 1, 0))
        return F(legs[t])

    bank_prev = [Fraction(0)]
    for t in range(0, T):
        n_t = tr.n_nodes(t)
        bank_next = [Fraction(0)] * n_t
        for v in range(n_t):
            par = int(tr.parent[t][v]) if t >= 1 else 0
            held_bank = bank_prev[par] if t >= 1 else Fraction(0)
            if t < entry:
                bank_next[v] = Fraction(0)
                continue
            div = Fraction(0)
            rebal = Fraction(0)
            for i, sec in enumerate(market.securities):
                lng_in = leg(strategy.long[i], t)[par] if t >= 1 else Fraction(0)
                sht_in = leg(strategy.short[i], t)[par] if t >= 1 else Fraction(0)
                if t >= 1:
                    div += lng_in * Fraction(float(sec.stream_ask.at(t)[v]))
                    div -= sht_in * Fraction(float(sec.stream_bid.at(t)[v]))
                lng_out = leg(strategy.long[i], t + 1)[v]
                sht_out = leg(strategy.short[i], t + 1)[v]
                d_l = lng_out - lng_in
                d_s = sht_out - sht_in
                rebal += sec.op_ask.exact_price(t, v, max(d_l, Fraction(0)))
                rebal -= sec.op_bid.exact_price(t, v, max(-d_l, Fraction(0)))
                rebal -= sec.op_bid.exact_price(t, v, max(d_s, Fraction(0)))
                rebal += sec.op_ask.exact_price(t, v, max(-d_s, Fraction(0)))
            bank_next[v] = held_bank + div - rebal
        bank_prev = bank_next
    lo, hi = None, None
    prob_pos = 0.0
    for leaf in range(tr.n_leaves):
        par = int(tr.parent[T][leaf])
        value = bank_prev[par]
        for i, sec in enumerate(market.securities):
            lng = leg(strategy.long[i], T)[par]
            sht = leg(strategy.short[i], T)[par]
            value += sec.op_bid.exact_price(T, leaf, lng)
            value -= sec.op_ask.exact_price(T, leaf, sht)
            value += lng * Fraction(float(sec.stream_ask.at(T)[leaf]))
            value -= sht * Fraction(float(sec.stream_bid.at(T)[leaf]))
        lo = value if lo is None or value < lo else lo
        hi = value if hi is None or value > hi else hi
        if value > 0:
            prob_pos += float(tr.leaf_prob[leaf])
    return lo, hi, prob_pos
