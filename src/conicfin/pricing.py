"""Bid and ask prices for dividend streams under acceptability constraints.

At acceptability level gamma, the time-t ask of phi shares of a stream D is
the nonlinear expectation of phi * (D_{t+1} + ... + D_T), taken under the
level-gamma driver of the chosen family; the bid is minus the expectation
of the negated payoff. Both sides are quoted by the one conic pricing
operator, market.ConicOperator; ask and bid check their inputs and wrap
its value in a PriceQuote. Ask dominates bid, prices are time consistent
one step at a time, convex/concave in the stream, and market impact moves
the per-share price against large orders. When the driver is linear both
sides collapse to the discounted expectation under the reweighted measure.

Prices are also cash additive: drivers see z only and E[dW | F_t] = 0, so a
level-t amount added to the payoff passes through the g-expectation to
level t unchanged. time_consistency_check uses this to read every level's
quote off one roll-back of the cumulated stream, minus the dividends paid
so far; the subtraction adds rounding of a few ulp of the larger of the
two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bsde import _step
from .drivers import DriverFamily
from .market import ConicOperator
from .tree import AdaptedProcess

PRICE_TOL = 1e-10


class NegativeQuantity(ValueError):
    """Share counts phi must be nonnegative and finite."""


@dataclass(frozen=True)
class PriceQuote:
    side: str
    family_kind: str
    gamma: float
    t: int
    phi: np.ndarray
    value: np.ndarray


def _check_inputs(family: DriverFamily, phi, t: int):
    tr = family.tree
    phi = np.array(phi, dtype=float)
    if phi.ndim == 0:
        phi = np.full(tr.n_nodes(t), phi)
    phi = tr.check_level_array(phi, t)
    if not np.all(np.isfinite(phi)):
        raise NegativeQuantity("phi must be finite")
    if np.min(phi) < 0.0:
        raise NegativeQuantity(f"phi must be nonnegative, min is {np.min(phi)}")
    return phi


def ask(
    family: DriverFamily, gamma: float, phi, stream: AdaptedProcess, t: int
) -> PriceQuote:
    """Time-t ask price of phi shares of the stream's strictly future payments."""
    phi = _check_inputs(family, phi, t)
    value = ConicOperator("ask", family, gamma, stream).price(t, phi)
    return PriceQuote("ask", family.kind, float(gamma), t, phi, value)


def bid(
    family: DriverFamily, gamma: float, phi, stream: AdaptedProcess, t: int
) -> PriceQuote:
    """Time-t bid price; minus the nonlinear expectation of the negated payoff."""
    phi = _check_inputs(family, phi, t)
    value = ConicOperator("bid", family, gamma, stream).price(t, phi)
    return PriceQuote("bid", family.kind, float(gamma), t, phi, value)


def price(side: str, family, gamma, phi, stream, t) -> PriceQuote:
    if side == "ask":
        return ask(family, gamma, phi, stream, t)
    if side == "bid":
        return bid(family, gamma, phi, stream, t)
    raise ValueError(f"side must be 'ask' or 'bid', got {side!r}")


def cumulative_price(
    side: str, family: DriverFamily, gamma: float, stream: AdaptedProcess, t: int
) -> np.ndarray:
    """Dividends collected through t plus the quoted price of the remainder."""
    quote = price(side, family, gamma, 1.0, stream, t)
    return stream.cumulative_through(t) + quote.value


@dataclass(frozen=True)
class ConsistencyReport:
    worst_residual: float
    passed: bool


def _unit_quotes(op: ConicOperator) -> list:
    """The operator's one-share quote at every level 0..T, from one roll-back.

    With C_t = D_1 + ... + D_t along each path and sign +1 for the ask and
    -1 for the bid, every level t < T of the roll-back Y of sign * C_T gives
    the quote sign * Y_t - C_t. This is cash additivity: drivers see z only
    and E[dW | F_t] = 0, so the F_t-measurable C_t passes through the
    g-expectation unchanged. D_0 is left out of C because no quote includes
    it. The level-T quote is the operator's own. The subtraction adds
    rounding of a few ulp of max(|C_t|, |Y_t|), so the quotes match op.price
    to rounding."""
    stream, walk = op.stream, op.family.walk
    tr = walk.tree
    T = tr.horizon
    sign = 1.0 if op.side == "ask" else -1.0
    cum = [np.zeros(1)] + tr.path_sums(stream.values, 1, T)
    quotes = [None] * T + [op.price(T, np.ones(tr.n_leaves))]
    y = sign * cum[T]
    for t in range(T, 0, -1):
        y = _step(op._g, y, t, walk)[0]
        quotes[t - 1] = sign * y - cum[t - 1]
    return quotes


def time_consistency_check(
    side: str,
    family: DriverFamily,
    gamma: float,
    stream: AdaptedProcess,
    tol: float = PRICE_TOL,
) -> ConsistencyReport:
    """One-step nesting: the time-t quote of one share equals the quote of a
    single payment at t+1 worth the next dividend plus the time-(t+1) quote.

    The quotes of every level come from one roll-back of the cumulated
    stream (_unit_quotes, which relies on cash additivity and adds rounding
    of a few ulp of max(|C_t|, |Y_t|)). Each is checked against the
    operator rolling D_{t+1} + quote_{t+1} back one level, and the level-0
    quote against the operator's own quote, so two separate computations
    meet at every level. They agree up to rounding and the sign of zero,
    which the residual, a maximum of absolute values, ignores."""
    op = ConicOperator(side, family, gamma, stream)
    quotes = _unit_quotes(op)
    worst = float(np.max(np.abs(quotes[0] - op.price(0, np.ones(1)))))
    for t in range(family.tree.horizon):
        rhs = op._roll_back(stream.at(t + 1) + quotes[t + 1], t + 1, t)
        worst = max(worst, float(np.max(np.abs(quotes[t] - rhs))))
    return ConsistencyReport(worst_residual=worst, passed=worst <= tol)


def _level_gaps(asks: Sequence, bids: Sequence, tol: float):
    """Check quotes listed by rising level: asks must not fall and bids must
    not rise from one level to the next. Returns the worst gap (0 at least)
    and whether the asks and the bids each stay within tol."""
    worst, ask_ok, bid_ok = 0.0, True, True
    for k in range(1, len(asks)):
        gap_a = float(np.max(asks[k - 1] - asks[k]))
        gap_b = float(np.max(bids[k] - bids[k - 1]))
        worst = max(worst, gap_a, gap_b)
        ask_ok = ask_ok and gap_a <= tol
        bid_ok = bid_ok and gap_b <= tol
    return worst, ask_ok, bid_ok


@dataclass(frozen=True)
class CrossCompareReport:
    ask_ge_bid_ok: bool
    worst_cross_gap: float
    ask_monotone_ok: bool
    bid_antitone_ok: bool
    worst_level_gap: float


def cross_compare(
    family1: DriverFamily,
    gamma1: float,
    family2: DriverFamily,
    gamma2: float,
    stream: AdaptedProcess,
    t: int,
    gammas: Optional[Sequence[float]] = None,
    tol: float = PRICE_TOL,
) -> CrossCompareReport:
    """Ask under one driver dominates bid under another, at any levels;
    within one family asks rise and bids fall as the level tightens."""
    a1 = ask(family1, gamma1, 1.0, stream, t).value
    b2 = bid(family2, gamma2, 1.0, stream, t).value
    worst_cross = float(np.max(b2 - a1))
    gs = sorted(float(g) for g in gammas or ())
    fams = (family1, family2)
    asks = [np.stack([ask(fam, g, 1.0, stream, t).value for fam in fams]) for g in gs]
    bids = [np.stack([bid(fam, g, 1.0, stream, t).value for fam in fams]) for g in gs]
    worst_level, mono_ok, anti_ok = _level_gaps(asks, bids, tol)
    return CrossCompareReport(
        ask_ge_bid_ok=worst_cross <= tol,
        worst_cross_gap=worst_cross,
        ask_monotone_ok=mono_ok,
        bid_antitone_ok=anti_ok,
        worst_level_gap=worst_level,
    )
