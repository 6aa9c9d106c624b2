"""Securities, pricing operators, and self-financing trading strategies.

A market holds a bank account paying 1 at the horizon (quoted at face value
both ways) and securities quoted through one pricing operator per side. An
operator maps a nonnegative, time-t measurable share count to a time-t
price; flavors are conic (quotes from a driver family level), direct (a
per-share price table, homogeneous in the count), and order book (walking
a depth ladder, exact in decimal-scaled integers).

Strategies hold predictable bank/long/short legs; long and short positions
are carried gross, never netted. Rebalancing costs split by the sign of
each leg change: increases trade at ask, decreases at bid. All strategy
arithmetic is batched: legs may carry leading batch axes.

The ledger keeps the legs' number type: object arrays of Fractions stay
exact when the operators and streams also quote and pay in Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bsde import g_expectation
from .drivers import DriverFamily
from .tree import AdaptedProcess, FiltrationTree, MartingaleSpec, tail_payment

SELF_FIN_TOL = 1e-9


class MarketError(ValueError):
    """Base class for market construction and validation failures."""


class DepthExceeded(MarketError):
    """An order walks past the end of a depth ladder."""


class NotStoppingTime(MarketError):
    """A default-time assignment is not adapted to the tree."""


class NegativeLeg(MarketError):
    """Long/short legs and order sizes must be nonnegative."""


class LevelNonpositive(MarketError):
    """Acceptability levels must be strictly positive and finite."""


def _check_level(gamma: float):
    if not (gamma > 0.0 and np.isfinite(gamma)):
        raise LevelNonpositive(f"acceptability level must be positive and finite, got {gamma}")


# ---- pricing operators ------------------------------------------------------


class PricingOperator:
    """Maps (t, phi) to a time-t price array; phi is level-t measurable, >= 0."""

    supports_exact = False

    def price(self, t: int, phi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def exact_price(self, t: int, node: int, phi: Fraction) -> Fraction:
        raise NotImplementedError(f"{type(self).__name__} has no exact arithmetic")


class ConicOperator(PricingOperator):
    """Quotes from the acceptability-level driver of a family.

    The ask of phi shares is the nonlinear expectation of phi times the
    stream's strictly-future payments; the bid negates the expectation of
    the negated payoff. The payoff is tail_payment, placed at the stream's
    last paying level s, and Y rolls back from s to t only (g_expectation),
    not from the leaves. Two quotes skip the roll-back and return what a
    full solve would: an all-zero phi, or a stream that pays nothing after
    t, quotes +0.0 on the ask side and -0.0 on the bid side before the
    horizon (drivers are normalized, and every builtin family has
    g(t, +-0) = +0.0), and a quote at the horizon is tail_payment itself,
    phi times no future payments.
    """

    def __init__(self, side: str, family: DriverFamily, gamma: float, stream: AdaptedProcess):
        if side not in ("ask", "bid"):
            raise MarketError(f"side must be ask or bid, got {side!r}")
        _check_level(gamma)
        self.side = side
        self.family = family
        self.gamma = float(gamma)
        self.stream = stream
        self._g = family.make(gamma)

    def price(self, t: int, phi: np.ndarray) -> np.ndarray:
        stream = self.stream
        phi = stream.tree.check_level_array(phi, t)
        if t < stream.tree.horizon and (stream.last_paying <= t or not np.any(phi)):
            return np.zeros(phi.shape) if self.side == "ask" else np.full(phi.shape, -0.0)
        s, payoff = tail_payment(stream, phi, t)
        if t == s:
            return payoff
        if self.side == "ask":
            return g_expectation(self._g, payoff, s, t, self.family.walk)
        return -g_expectation(self._g, -payoff, s, t, self.family.walk)


class DirectOperator(PricingOperator):
    """Per-share price tables: price(t, phi) = phi * table_t, node by node."""

    supports_exact = True

    def __init__(self, tree: FiltrationTree, tables: Sequence):
        if len(tables) != tree.horizon + 1:
            raise MarketError(f"need one price table per level 0..{tree.horizon}")
        self.tree = tree
        self.tables = tuple(tree.check_level_array(np.asarray(v, float), t)
                            for t, v in enumerate(tables))
        for t, v in enumerate(self.tables):
            if not np.all(np.isfinite(v)):
                raise MarketError(f"level {t}: unit prices must be finite")

    def price(self, t: int, phi: np.ndarray) -> np.ndarray:
        return np.asarray(phi, dtype=float) * self.tables[t]

    def exact_price(self, t: int, node: int, phi: Fraction) -> Fraction:
        return phi * Fraction(float(self.tables[t][node]))


class OrderBookOperator(PricingOperator):
    """Walks a depth ladder; the same book is quoted at every (t, node).

    Ladder rows are (price, size) pairs, best level first: ascending prices
    on the ask side, descending on the bid side. Prices must sit on the
    tick grid (tick_scale units per currency unit) so the walk is exact in
    scaled integers; orders beyond the posted depth raise DepthExceeded.
    """

    supports_exact = True

    def __init__(self, side: str, ladder: Sequence, tick_scale: int = 100):
        if side not in ("ask", "bid"):
            raise MarketError(f"side must be ask or bid, got {side!r}")
        if not ladder:
            raise MarketError("ladder must have at least one level")
        integral = isinstance(tick_scale, (int, np.integer)) and not isinstance(tick_scale, bool)
        if not (integral and tick_scale >= 1):
            raise MarketError(f"tick_scale must be an integer >= 1, got {tick_scale!r}")
        self.side = side
        self.tick_scale = int(tick_scale)
        prices, sizes = [], []
        for px, sz in ladder:
            if not (np.isfinite(float(px)) and np.isfinite(float(sz))):
                raise MarketError(f"ladder prices and sizes must be finite, got ({px}, {sz})")
            scaled = round(float(px) * self.tick_scale)
            if abs(float(px) * self.tick_scale - scaled) > 1e-6:
                raise MarketError(f"price {px} is off the 1/{tick_scale} tick grid")
            if not float(sz) > 0.0:
                raise NegativeLeg(f"ladder sizes must be positive, got {sz}")
            prices.append(int(scaled))
            sizes.append(float(sz))
        steps = np.diff(np.asarray(prices, dtype=float))
        if side == "ask" and np.any(steps <= 0):
            raise MarketError("ask ladder prices must increase away from the touch")
        if side == "bid" and np.any(steps >= 0):
            raise MarketError("bid ladder prices must decrease away from the touch")
        self._prices = np.asarray(prices, dtype=float)
        self._prices_int = prices
        self._sizes = sizes
        self._cum_qty = np.concatenate([[0.0], np.cumsum(sizes)])
        self._cum_cost = np.concatenate([[0.0], np.cumsum(self._prices * np.asarray(sizes))])
        self.depth = float(self._cum_qty[-1])

    def price(self, t: int, phi: np.ndarray) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        if np.any(phi < -1e-12):
            raise NegativeLeg("order sizes must be nonnegative")
        if np.any(phi > self.depth + 1e-9):
            raise DepthExceeded(
                f"order for {float(np.max(phi))} exceeds posted depth {self.depth}"
            )
        phi = np.clip(phi, 0.0, self.depth)
        seg = np.searchsorted(self._cum_qty[1:], phi, side="left")
        seg = np.minimum(seg, len(self._sizes) - 1)
        cost = self._cum_cost[seg] + (phi - self._cum_qty[seg]) * self._prices[seg]
        return cost / self.tick_scale

    def exact_price(self, t: int, node: int, phi: Fraction) -> Fraction:
        if phi < 0:
            raise NegativeLeg("order sizes must be nonnegative")
        remaining = phi
        cost = Fraction(0)
        for px, sz in zip(self._prices_int, self._sizes):
            take = min(remaining, Fraction(sz))
            cost += take * px
            remaining -= take
            if remaining == 0:
                break
        if remaining > 0:
            raise DepthExceeded(f"order for {float(phi)} exceeds posted depth {self.depth}")
        return cost / self.tick_scale


# ---- securities and markets -------------------------------------------------


@dataclass(frozen=True)
class Security:
    """One tradeable: long positions collect stream_ask and trade in at the
    ask operator; short positions owe stream_bid and trade through the bid
    operator."""

    sid: str
    stream_ask: AdaptedProcess
    stream_bid: AdaptedProcess
    op_ask: PricingOperator
    op_bid: PricingOperator

    @property
    def frictionless(self) -> bool:
        return self.op_ask is self.op_bid and self.stream_ask is self.stream_bid


@dataclass(frozen=True)
class MarketModel:
    walk: MartingaleSpec
    securities: tuple
    name: str = "market"

    def __post_init__(self):
        if not self.securities:
            raise MarketError("a market needs at least one security")

    @property
    def tree(self) -> FiltrationTree:
        return self.walk.tree

    @property
    def supports_exact(self) -> bool:
        return all(
            s.op_ask.supports_exact and s.op_bid.supports_exact for s in self.securities
        )

    def security(self, sid: str) -> Security:
        for s in self.securities:
            if s.sid == sid:
                return s
        raise MarketError(f"unknown security {sid!r}")


def conic_security(
    sid: str,
    family: DriverFamily,
    stream: AdaptedProcess,
    gamma_ask: float,
    gamma_bid: Optional[float] = None,
) -> Security:
    gb = gamma_ask if gamma_bid is None else gamma_bid
    return Security(
        sid=sid,
        stream_ask=stream,
        stream_bid=stream,
        op_ask=ConicOperator("ask", family, gamma_ask, stream),
        op_bid=ConicOperator("bid", family, gb, stream),
    )


# ---- trading strategies -----------------------------------------------------


@dataclass
class TradingStrategy:
    """Predictable positions phi_1..phi_T; index 0 of each list is None.

    bank[t], long[i][t], short[i][t] live on the level t-1 slots and may
    carry leading batch axes. Positions before the entry time are zero by
    the phi_0 = 0 convention.
    """

    tree: FiltrationTree
    bank: list
    long: list
    short: list

    @property
    def n_securities(self) -> int:
        return len(self.long)

    def leg(self, kind: str, i: int, t: int) -> np.ndarray:
        if t < 1:
            raise MarketError("positions are indexed from t = 1")
        if kind == "bank":
            return self.bank[t]
        return (self.long if kind == "long" else self.short)[i][t]

    def _first_leg(self) -> np.ndarray:
        for legs in [self.bank] + list(self.long) + list(self.short):
            for t in range(1, len(legs)):
                if legs[t] is not None:
                    return np.asarray(legs[t])
        return np.zeros(0)

    def batch_shape(self) -> tuple:
        return self._first_leg().shape[:-1]

    def zeros(self, n: int) -> np.ndarray:
        """Zeros on n nodes in the legs' batch shape; Fraction zeros when the
        legs are object arrays of Fractions."""
        leg = self._first_leg()
        if leg.dtype == object:
            return np.full(leg.shape[:-1] + (n,), Fraction(0), dtype=object)
        return np.zeros(leg.shape[:-1] + (n,))


def _num(leg) -> np.ndarray:
    """A leg as a float array, or as it is when it holds objects (Fractions)."""
    leg = np.asarray(leg)
    return leg if leg.dtype == object else np.asarray(leg, dtype=float)


def _leg_at(strategy: TradingStrategy, leg_list, t: int) -> np.ndarray:
    """Position held over (t, t+1], i.e. phi_{t+1}, as a level-t array; zero
    for t >= T (everything is liquidated at the horizon)."""
    tr = strategy.tree
    if t + 1 <= tr.horizon:
        return _num(leg_list[t + 1])
    return strategy.zeros(tr.n_nodes(t))


def _held_into(strategy: TradingStrategy, leg_list, t: int) -> np.ndarray:
    """Position phi_t carried into time t, spread onto level-t nodes; zero
    when t = 0 (the phi_0 = 0 convention)."""
    if t == 0:
        return strategy.zeros(1)
    return np.take(_num(leg_list[t]), strategy.tree.parent[t], axis=-1)


def liquidation_value(strategy: TradingStrategy, market: MarketModel, t: int) -> np.ndarray:
    """Wealth from unwinding at time t: bank, positions sold/bought back at
    the touch, plus the dividends the positions just collected or owed."""
    tr = market.tree
    if not 1 <= t <= tr.horizon:
        raise MarketError(f"liquidation value is defined for t = 1..{tr.horizon}")
    total = _held_into(strategy, strategy.bank, t)
    for i, sec in enumerate(market.securities):
        lng = _held_into(strategy, strategy.long[i], t)
        sht = _held_into(strategy, strategy.short[i], t)
        total = total + sec.op_bid.price(t, lng) - sec.op_ask.price(t, sht)
        total = total + lng * sec.stream_ask.at(t) - sht * sec.stream_bid.at(t)
    return total


def rebalancing_cost(strategy: TradingStrategy, market: MarketModel, t: int) -> np.ndarray:
    """Cash absorbed by the risky-leg changes decided at time t: increases
    trade at ask, decreases at bid, long and short legs separately."""
    total = strategy.zeros(market.tree.n_nodes(t))
    for i, sec in enumerate(market.securities):
        d_l = _leg_at(strategy, strategy.long[i], t) - _held_into(strategy, strategy.long[i], t)
        d_s = _leg_at(strategy, strategy.short[i], t) - _held_into(strategy, strategy.short[i], t)
        total = total + sec.op_ask.price(t, np.maximum(d_l, 0))
        total = total - sec.op_bid.price(t, np.maximum(-d_l, 0))
        total = total - sec.op_bid.price(t, np.maximum(d_s, 0))
        total = total + sec.op_ask.price(t, np.maximum(-d_s, 0))
    return total


def dividends_collected(strategy: TradingStrategy, market: MarketModel, t: int) -> np.ndarray:
    """Net dividend cash at time t from positions held into t."""
    total = strategy.zeros(market.tree.n_nodes(t))
    if t == 0:
        return total
    for i, sec in enumerate(market.securities):
        lng = _held_into(strategy, strategy.long[i], t)
        sht = _held_into(strategy, strategy.short[i], t)
        total = total + lng * sec.stream_ask.at(t) - sht * sec.stream_bid.at(t)
    return total


@dataclass(frozen=True)
class SelfFinancingReport:
    max_residual: float
    passed: bool
    zero_before_ok: bool


def validate_self_financing(
    strategy: TradingStrategy, market: MarketModel, entry: int = 0
) -> SelfFinancingReport:
    """Audit the rebalancing identity at every date and, for strategies
    entering at a later time, that all positions through the entry vanish.

    At each t the bank change plus the risky rebalancing cash must equal
    the dividends just collected; at t = 0 this says the setup is fully
    financed (zero initial cost).
    """
    tr = market.tree
    worst = 0.0
    for t in range(tr.horizon):
        d_bank = _leg_at(strategy, strategy.bank, t) - _held_into(strategy, strategy.bank, t)
        resid = d_bank + rebalancing_cost(strategy, market, t) - dividends_collected(
            strategy, market, t
        )
        worst = max(worst, float(np.max(np.abs(resid))))
    zero_ok = True
    for u in range(1, entry + 1):
        for legs in [strategy.bank] + [l for l in strategy.long] + [s for s in strategy.short]:
            if float(np.max(np.abs(np.asarray(legs[u], dtype=float)))) > SELF_FIN_TOL:
                zero_ok = False
    return SelfFinancingReport(
        max_residual=worst, passed=worst <= SELF_FIN_TOL and zero_ok, zero_before_ok=zero_ok
    )


def complete_bank_leg(
    long: list,
    short: list,
    market: MarketModel,
    entry: int = 0,
) -> TradingStrategy:
    """Fill in the unique bank leg making the risky legs self-financing from
    the entry time with zero setup cost.

    Risky legs must vanish for t <= entry (strategies entering at `entry`
    hold nothing earlier); the bank positions before entry are zero, the
    first bank position absorbs the initial risky setup, and later bank
    positions roll dividends in and rebalancing costs out.
    """
    tr = market.tree
    if not 0 <= entry < tr.horizon:
        raise MarketError(f"entry time must lie in 0..{tr.horizon - 1}")
    strat = TradingStrategy(tree=tr, bank=[None] * (tr.horizon + 1), long=long, short=short)
    for u in range(1, entry + 1):
        strat.bank[u] = strat.zeros(tr.n_nodes(u - 1))
    for t in range(entry, tr.horizon):
        d_bank = dividends_collected(strat, market, t) - rebalancing_cost(strat, market, t)
        strat.bank[t + 1] = _held_into(strat, strat.bank, t) + d_bank
    return strat


# ---- stream constructors ----------------------------------------------------


def _project_leaf_to_level(tree: FiltrationTree, leaf_values: np.ndarray, t: int) -> np.ndarray:
    """Project leaf data constant on level-t blocks down to level t."""
    amap = tree.ancestor_map(tree.horizon, t)
    starts = np.searchsorted(amap, np.arange(tree.n_nodes(t)))
    lo = np.minimum.reduceat(leaf_values, starts)
    hi = np.maximum.reduceat(leaf_values, starts)
    if np.max(np.abs(hi - lo)) > 0:
        raise NotStoppingTime(f"values are not measurable at level {t}")
    return leaf_values[starts]


def cds_streams(
    tree: FiltrationTree,
    tau_leaf: Sequence,
    delta: float,
    kappa_ask: float,
    kappa_bid: float,
):
    """Protection-buyer dividend streams of a credit default swap.

    tau_leaf assigns each leaf the default time (1..T, or T+1 for no
    default before the horizon) and must be a stopping time: the event
    {tau <= t} has to be resolved by level t. The long stream pays the
    protection delta at default and bleeds the ask premium while alive;
    the short stream mirrors with the bid premium.
    """
    tau = np.asarray(tau_leaf, dtype=np.int64)
    if tau.shape != (tree.n_leaves,):
        raise NotStoppingTime(f"tau needs one value per leaf ({tree.n_leaves})")
    if np.any(tau < 1) or np.any(tau > tree.horizon + 1):
        raise NotStoppingTime(f"default times must lie in 1..{tree.horizon + 1}")
    for t in range(tree.horizon + 1):
        _project_leaf_to_level(tree, (tau <= t).astype(float), t)

    def stream(kappa: float) -> AdaptedProcess:
        vals = [np.zeros(1)]
        for t in range(1, tree.horizon + 1):
            hit = _project_leaf_to_level(tree, (tau == t).astype(float), t)
            alive = _project_leaf_to_level(tree, (tau > t).astype(float), t)
            vals.append(delta * hit - kappa * alive)
        return AdaptedProcess(tree, tuple(vals))

    return stream(float(kappa_ask)), stream(float(kappa_bid))


def stock_stream(tree: FiltrationTree, dividends: Sequence, terminal_value) -> AdaptedProcess:
    """Dividend stream of a stock liquidated at the horizon: interim
    dividends plus a final payment of dividend-plus-fundamental-value."""
    vals = [tree.check_level_array(np.asarray(v, float), t) for t, v in enumerate(dividends)]
    if len(vals) != tree.horizon + 1:
        raise MarketError("need dividend entries for every level 0..T")
    vals[-1] = vals[-1] + tree.check_level_array(np.asarray(terminal_value, float), tree.horizon)
    return AdaptedProcess(tree, tuple(vals))
