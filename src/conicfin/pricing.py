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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bsde import g_expectation, solve_bsde
from .drivers import DriverFamily, LinearDriver
from .market import ConicOperator, LevelNonpositive, _check_level  # noqa: F401 (re-exported)
from .risk import random_streams
from .tree import AdaptedProcess, single_payment, tail_payment, tail_payoff

PRICE_TOL = 1e-10
IMPACT_LAMS = (0.25, 0.5, 0.75, 1.5, 2.0)
AGREEMENT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
AGREEMENT_TOL = 1e-9


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


def _check_inputs(family: DriverFamily, gamma: float, phi, t: int):
    _check_level(gamma)
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
    phi = _check_inputs(family, gamma, phi, t)
    value = ConicOperator("ask", family, gamma, stream).price(t, phi)
    return PriceQuote("ask", family.kind, float(gamma), t, phi, value)


def bid(
    family: DriverFamily, gamma: float, phi, stream: AdaptedProcess, t: int
) -> PriceQuote:
    """Time-t bid price; minus the nonlinear expectation of the negated payoff."""
    phi = _check_inputs(family, gamma, phi, t)
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


def time_consistency_check(
    side: str,
    family: DriverFamily,
    gamma: float,
    stream: AdaptedProcess,
    tol: float = PRICE_TOL,
) -> ConsistencyReport:
    """One-step nesting: the time-t quote equals the quote of a single payment
    at t+1 worth the next dividend plus the time-(t+1) quote."""
    tr = family.tree
    worst = 0.0
    lhs = price(side, family, gamma, 1.0, stream, 0).value
    for t in range(tr.horizon):
        inner = price(side, family, gamma, 1.0, stream, t + 1).value
        nested_stream = single_payment(tr, t + 1, stream.at(t + 1) + inner)
        rhs = price(side, family, gamma, 1.0, nested_stream, t).value
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        lhs = inner
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


@dataclass(frozen=True)
class ImpactReport:
    subscale_ok: bool
    superscale_ok: bool
    shares_identity_ok: bool
    convexity_ok: bool
    worst: float
    passed: bool


def market_impact_check(
    family: DriverFamily,
    gamma: float,
    stream: AdaptedProcess,
    t: int,
    phi=1.0,
) -> ImpactReport:
    """Scaling and convexity behavior of the ask (mirrored for the bid).

    Shrinking an order can only improve the per-share ask (ask(lam*phi) <=
    lam*ask(phi) for lam <= 1, the reverse for lam >= 1); pricing phi shares
    equals pricing one share of the phi-scaled stream; and the ask is convex
    in the stream while the bid is concave.
    """
    tr = family.tree
    phi = _check_inputs(family, gamma, phi, t)
    base = ask(family, gamma, phi, stream, t).value
    worst_sub, worst_super = 0.0, 0.0
    for lam in IMPACT_LAMS:
        scaled = ask(family, gamma, lam * phi, stream, t).value
        if lam <= 1.0:
            worst_sub = max(worst_sub, float(np.max(scaled - lam * base)))
        if lam >= 1.0:
            worst_super = max(worst_super, float(np.max(lam * base - scaled)))
    one_share = ask(family, gamma, 1.0, stream.scale_from(phi, t), t).value
    ident = float(np.max(np.abs(one_share - base)))
    others = random_streams(tr, np.random.default_rng(0), 2)
    worst_cvx = 0.0
    for other in others:
        for lam in (0.25, 0.5, 0.75):
            mix = stream.combine(other, np.full(tr.n_nodes(t), lam), t)
            a_mix = ask(family, gamma, 1.0, mix, t).value
            a_split = lam * ask(family, gamma, 1.0, stream, t).value + (1 - lam) * ask(
                family, gamma, 1.0, other, t
            ).value
            worst_cvx = max(worst_cvx, float(np.max(a_mix - a_split)))
            b_mix = bid(family, gamma, 1.0, mix, t).value
            b_split = lam * bid(family, gamma, 1.0, stream, t).value + (1 - lam) * bid(
                family, gamma, 1.0, other, t
            ).value
            worst_cvx = max(worst_cvx, float(np.max(b_split - b_mix)))
    worst = max(worst_sub, worst_super, ident, worst_cvx)
    return ImpactReport(
        subscale_ok=worst_sub <= PRICE_TOL,
        superscale_ok=worst_super <= PRICE_TOL,
        shares_identity_ok=ident <= PRICE_TOL,
        convexity_ok=worst_cvx <= PRICE_TOL,
        worst=worst,
        passed=worst <= PRICE_TOL,
    )


@dataclass(frozen=True)
class AgreementReport:
    holds: bool
    worst_residual: float
    slope_sup: float
    slopes_admissible: bool


def agreement_diagnostic(
    family1: DriverFamily,
    gamma1: float,
    family2: DriverFamily,
    gamma2: float,
    phi,
    stream: AdaptedProcess,
    t: int,
    indicator=None,
) -> AgreementReport:
    """Certify bid-ask agreement on a level-t event through a linear driver.

    The candidate slope at each slot is the dominating driver's chord along
    its own solution of the localized full-size payoff; agreement holds on
    the event exactly when, for every order size between 0 and phi, both
    quotes coincide with the linear expectation under that driver.
    """
    tr = family1.tree
    walk = family1.walk
    phi = _check_inputs(family1, gamma1, phi, t)
    ind = np.ones(tr.n_nodes(t)) if indicator is None else tr.check_level_array(indicator, t)
    g1 = family1.make(gamma1)
    sol = solve_bsde(g1, tail_payoff(stream, ind * phi, t), walk)
    slopes = [None]
    sup_slope = 0.0
    admissible = True
    for s in range(1, tr.horizon + 1):
        z = sol.Z[s]
        safe = np.where(np.abs(z) > 1e-14, z, 1.0)
        x = np.where(np.abs(z) > 1e-14, g1.eval(s, z) / safe, 0.0)
        slopes.append(x)
        if x.size:
            sup_slope = max(sup_slope, float(np.max(np.abs(x))))
        if np.any(np.abs(x) > g1.lipschitz(s) + 1e-9):
            admissible = False
    linear = LinearDriver(walk, slopes)
    worst = 0.0
    for frac in AGREEMENT_FRACTIONS:
        lam = frac * phi
        a_val = ask(family1, gamma1, lam, stream, t).value
        b_val = bid(family2, gamma2, lam, stream, t).value
        s, payoff = tail_payment(stream, ind * lam, t)
        lin_val = g_expectation(linear, payoff, s, t, walk)
        worst = max(worst, float(np.max(np.abs(ind * a_val - lin_val))))
        worst = max(worst, float(np.max(np.abs(ind * b_val - lin_val))))
    return AgreementReport(
        holds=worst <= AGREEMENT_TOL and admissible,
        worst_residual=worst,
        slope_sup=sup_slope,
        slopes_admissible=admissible,
    )
