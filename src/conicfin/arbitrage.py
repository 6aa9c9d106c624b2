"""Arbitrage search and certificate validation for bid-ask markets.

An arbitrage entered at time t is a self-financing strategy holding
nothing through t whose terminal liquidation value is nonnegative
everywhere and positive with positive probability. The search sweeps
risky legs only: the bank leg that makes any risky plan self-financing
with zero entry cost is unique, so it is reconstructed rather than
searched. Candidates are ranked by worst leaf first and mean leaf second
once the worst leaf loses at most SCORE_TOL, because certificates may
legitimately sit at a worst leaf of exactly zero.

The exhaustive sweep rests on the ledger never netting long against short:
each ledger term prices one (security, long/short) leg alone and the bank
sums them, so terminal wealth is the sum of every leg group's wealth alone.
Sums taken group by group differ from the full ledger by rounding only (at
most 1.5e-11 on the benchmark's clean tables); the chosen row's score is
recomputed through the full ledger.

Every search, an ascent riding another objective's (hedging.check_ngd)
included, reports through certify, so one search configuration on one
market reports the same result whichever search ran it. A found candidate
is only reported after re-validation, which takes one
path on every market: the ledger (complete_bank_leg) runs again on the
candidate's risky legs, the candidate's own bank must match the completed
bank, and terminal wealth is the completed strategy's. Exactness picks only
the number type: when every operator supports exact arithmetic (price
tables, order books), the ledger runs over the exact rationals of the legs,
dividends and quotes and decides loss and gain with no tolerance; otherwise
it runs in floats and decides them within tight margins. A NONE_FOUND
answer is a statement about the strategies visited, not a proof.
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
)
from .search import LegLayout, SearchConfig, SearchOutcome, exhaustive_grid, maximize

FLOAT_GAIN_TOL = 1e-7
FLOAT_LOSS_TOL = 1e-10
SELF_FIN_TOL = 1e-9
SCORE_TOL = 1e-9

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


def wealth_score(v_terminal: np.ndarray) -> np.ndarray:
    """_score at SCORE_TOL: the objective of every arbitrage search."""
    return _score(v_terminal, SCORE_TOL)


def find_arbitrage(
    market: MarketModel, entry: int, cfg: SearchConfig = SearchConfig()
) -> ArbitrageSearchResult:
    """Search for an arbitrage entered at `entry`; certificates are re-validated."""
    layout = LegLayout(market, entry)
    if cfg.exhaustive:
        outcome = exhaustive_grid(layout.wealth, layout.group_widths, cfg, layout.bound(cfg), wealth_score)
    else:
        outcome = maximize(lambda P: wealth_score(layout.wealth(P)), layout.dims, cfg, layout.bound(cfg))
    return certify(layout, outcome, cfg)


def certify(layout: LegLayout, outcome: SearchOutcome, cfg: SearchConfig) -> ArbitrageSearchResult:
    """The report of an arbitrage search run with cfg on the layout: the
    outcome's strategy, re-validated, with its score and row count."""
    strat = layout.strategy(outcome.params)
    report = validate_certificate(strat, layout.market, layout.entry)
    if report.valid:
        note = "certificate re-validated " + ("with exact arithmetic" if report.exact else "in floats")
    else:
        note = "no certificate among visited strategies (heuristic unless exhaustive)"
    return ArbitrageSearchResult(
        found=report.valid,
        strategy=strat if report.valid else None,
        certificate=report if report.valid else None,
        best_score=outcome.score,
        evaluations=outcome.evaluations,
        exhaustive_total=outcome.evaluations if cfg.exhaustive else 0,
        note=note,
    )


def validate_certificate(
    strategy: TradingStrategy, market: MarketModel, entry: int
) -> CertificateReport:
    """Re-validate a candidate: self-financing from entry, no leaf loses,
    some leaf gains.

    The ledger runs again on the candidate's risky legs (complete_bank_leg).
    The candidate is self-financing when its own bank stays within
    SELF_FIN_TOL of the completed bank at levels 1..T and its risky legs
    vanish through the entry; self_financing_residual is the largest gap
    between the two banks. Terminal wealth is the completed strategy's.
    When every operator quotes exactly, the ledger runs over the exact
    rationals of the risky legs' floats, with dividends and quotes in
    rationals too, and gain and loss take no tolerance; otherwise they are
    decided in floats within FLOAT_LOSS_TOL/FLOAT_GAIN_TOL.
    """
    T = market.tree.horizon
    exact = market.supports_exact
    long, short = strategy.long, strategy.short
    if exact:
        market = _exact_view(market)
        exact_legs = lambda legs: [[None] + [_fractions(x) for x in leg[1:]] for leg in legs]
        long, short = exact_legs(long), exact_legs(short)
    completed = complete_bank_leg(long, short, market, entry)
    gap = lambda a, b: np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    residual = float(np.max([gap(strategy.bank[t], completed.bank[t]) for t in range(1, T + 1)]))
    held = [gap(leg[u], 0.0) for leg in [*strategy.long, *strategy.short] for u in range(1, entry + 1)]
    vanish = np.max(held, initial=0.0) <= SELF_FIN_TOL
    gain_tol, loss_tol = (0, 0) if exact else (FLOAT_GAIN_TOL, FLOAT_LOSS_TOL)
    v = liquidation_value(completed, market, T)
    lo, hi = np.min(v), np.max(v)
    prob_pos = 0.0  # leaf by leaf, not numpy's pairwise grouping of a sum
    for p in completed.tree.leaf_prob[v > gain_tol].tolist():
        prob_pos += p
    return CertificateReport(
        valid=bool(residual <= SELF_FIN_TOL and vanish and lo >= -loss_tol and hi > gain_tol),
        min_terminal=float(lo),
        max_terminal=float(hi),
        prob_positive=prob_pos,
        self_financing_residual=residual,
        exact=exact,
    )


def _exact_view(market: MarketModel) -> MarketModel:
    """The market with every stream paying the exact rationals of its floats
    and every operator quoting node by node through exact_price."""
    pays = lambda stream: SimpleNamespace(at=lambda t: _fractions(stream.at(t)))
    at_nodes = lambda op, t: np.frompyfunc(lambda v, x: op.exact_price(t, v, x), 2, 1)
    quotes = lambda op: SimpleNamespace(
        price=lambda t, phi: at_nodes(op, t)(np.arange(phi.shape[-1]), phi)
    )
    secs = tuple(
        Security(s.sid, pays(s.stream_ask), pays(s.stream_bid), quotes(s.op_ask), quotes(s.op_bid))
        for s in market.securities
    )
    return MarketModel(market.walk, secs, market.name)
