"""Arbitrage search and certificate validation for bid-ask markets.

An arbitrage entered at time t is a self-financing strategy holding
nothing through t whose terminal liquidation value is nonnegative
everywhere and positive with positive probability. The search sweeps
risky legs only: the bank leg that makes any risky plan self-financing
with zero entry cost is unique, so it is reconstructed rather than
searched. Candidates are ranked by worst leaf first and mean leaf second,
because certificates may legitimately sit at a worst leaf of exactly zero.

The exhaustive sweep rests on the ledger never netting long against short:
each ledger term prices one (security, long/short) leg alone and the bank
sums them, so terminal wealth is the sum of every leg group's wealth alone.
Sums taken group by group differ from the full ledger by rounding only (at
most 1.5e-11 on the benchmark's clean tables); the chosen row's score is
recomputed through the full ledger.

A found candidate is only reported after re-validation. When every
operator supports exact arithmetic (price tables, order books), the market
ledger reruns over the exact rationals of the legs, dividends and quotes
and decides loss and gain with no tolerance; otherwise the float ledger is
checked within tight margins. A NONE_FOUND answer is a statement about the
strategies visited, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .market import (
    MarketModel,
    Security,
    TradingStrategy,
    complete_bank_leg,
    liquidation_value,
    validate_self_financing,
)
from .search import SearchConfig, exhaustive_grid, leg_layout, maximize

FLOAT_GAIN_TOL = 1e-7
FLOAT_LOSS_TOL = 1e-10

# The exact rationals of a float array's entries, as an object array.
_fractions = np.vectorize(Fraction, otypes=[object])


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
    """Worst leaf when losing; 1 + mean leaf once nothing is lost.

    The worst leaf is a fold of np.minimum over the leaf columns: exact and
    NaN-propagating like np.min, and much cheaper on a short leaf axis. The
    mean is taken only on the rows that lose nothing.
    """
    worst = v_terminal[..., 0].copy()
    for j in range(1, v_terminal.shape[-1]):
        np.minimum(worst, v_terminal[..., j], out=worst)
    keep = ~(worst < -tol)
    worst[keep] = 1.0 + np.mean(v_terminal[keep], axis=-1)
    return worst


def find_arbitrage(
    market: MarketModel, entry: int = 0, cfg: SearchConfig = SearchConfig()
) -> ArbitrageSearchResult:
    """Search for an arbitrage entered at `entry`; certificates are re-validated."""
    layout = leg_layout(market, entry)
    T = market.tree.horizon
    wealth = lambda P: liquidation_value(layout.strategy(P), market, T)
    score = lambda v: _score(v, cfg.tol)
    if cfg.exhaustive:
        widths = {}  # the layout lays out each leg group's blocks side by side
        for b in layout.blocks:
            widths[b.security, b.kind] = widths.get((b.security, b.kind), 0) + b.n_slots
        outcome = exhaustive_grid(wealth, tuple(widths.values()), cfg, layout.bound(cfg), score)
    else:
        outcome = maximize(lambda P: score(wealth(P)), layout.dims, cfg, layout.bound(cfg))
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
    some leaf gains.

    When every operator quotes exactly, the market ledger runs again over
    the exact rationals of the risky legs' floats, with dividends and
    quotes in rationals too: it rebuilds the bank leg and the terminal
    wealth, and the verdict takes no tolerance. Otherwise the strategy's
    own bank is valued in floats within FLOAT_LOSS_TOL/FLOAT_GAIN_TOL.
    """
    tr = market.tree
    fin = validate_self_financing(strategy, market, entry)
    exact = market.supports_exact
    if exact:
        market = _exact_view(market)
        exact_legs = lambda legs: [[None] + [_fractions(x) for x in leg[1:]] for leg in legs]
        strategy = complete_bank_leg(
            exact_legs(strategy.long), exact_legs(strategy.short), market, entry
        )
    gain_tol, loss_tol = (0, 0) if exact else (FLOAT_GAIN_TOL, FLOAT_LOSS_TOL)
    v = liquidation_value(strategy, market, tr.horizon)
    lo, hi = np.min(v), np.max(v)
    prob_pos = 0.0  # leaf by leaf, not numpy's pairwise grouping of a sum
    for p in tr.leaf_prob[v > gain_tol].tolist():
        prob_pos += p
    return CertificateReport(
        valid=bool(fin.passed and lo >= -loss_tol and hi > gain_tol),
        min_terminal=float(lo),
        max_terminal=float(hi),
        prob_positive=prob_pos,
        self_financing_residual=fin.max_residual,
        exact=exact,
    )


def _exact_view(market: MarketModel) -> MarketModel:
    """The market with every stream paying the exact rationals of its floats
    and every operator quoting node by node through exact_price."""
    pays = lambda stream: SimpleNamespace(at=lambda t: _fractions(stream.at(t)))
    quotes = lambda op: SimpleNamespace(
        price=lambda t, phi: np.array([op.exact_price(t, v, x) for v, x in enumerate(phi)], object)
    )
    secs = tuple(
        Security(s.sid, pays(s.stream_ask), pays(s.stream_bid), quotes(s.op_ask), quotes(s.op_bid))
        for s in market.securities
    )
    return MarketModel(market.walk, secs, market.name)
