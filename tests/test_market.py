"""Market operators, self-financing strategies, and arbitrage certificates."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicfin import (
    AdaptedProcess,
    ConicOperator,
    DepthExceeded,
    DirectOperator,
    LegLayout,
    LevelMismatch,
    LevelNonpositive,
    MarketError,
    MarketModel,
    NegativeLeg,
    NotStoppingTime,
    OrderBookOperator,
    Security,
    TradingStrategy,
    build_tree,
    builtin_family,
    cds_streams,
    check_ngd,
    complete_bank_leg,
    conic_security,
    find_arbitrage,
    hedged_price,
    liquidation_value,
    martingale_from_increments,
    single_payment,
    solve_bsde,
    stock_stream,
    symmetric_random_walk,
    uniform_binary_tree,
    validate_certificate,
    zero_process,
)
from conicfin.arbitrage import FLOAT_GAIN_TOL, FLOAT_LOSS_TOL, SELF_FIN_TOL, _exact_view, _fractions
from conicfin.market import dividends_collected, rebalancing_cost
from conicfin.pricing import ask, bid, price
from conicfin.search import SearchConfig
from conicfin.tree import tail_payoff

import oracles

# Largest gap between a conic quote and the full solve on a walk that is not
# the symmetric one, as a share of the payoff's largest magnitude. There the
# full solve carries a payoff known at level s up to the leaves and back,
# and p * a + (1 - p) * a rounds; the roll-back from s does not carry it.
NONSYMMETRIC_QUOTE_RTOL = 1e-14

AAPL_ASK = [(116.61, 200), (116.62, 700), (116.63, 543), (116.64, 643), (116.65, 343)]
AAPL_BID = [(116.59, 400), (116.58, 400), (116.57, 800), (116.56, 500), (116.55, 543)]


def make_walk(horizon=2):
    return symmetric_random_walk(uniform_binary_tree(horizon))


def direct_two_period_market():
    """Two-period stock with hand-picked unit price tables and no dividends."""
    walk = make_walk(2)
    tree = walk.tree
    stream = zero_process(tree)
    sec = Security(
        sid="stk",
        stream_ask=stream,
        stream_bid=stream,
        op_ask=DirectOperator(tree, [[10.0], [12.0, 11.0], [13.0, 11.0, 12.0, 10.0]]),
        op_bid=DirectOperator(tree, [[10.0], [11.0, 10.0], [12.0, 10.0, 11.0, 9.0]]),
    )
    return MarketModel(walk=walk, securities=(sec,), name="two-period-tables")


def conic_market(horizon=2, gamma=2.0):
    walk = make_walk(horizon)
    tree = walk.tree
    fam = builtin_family("entropic", walk)
    vals = [np.zeros(tree.n_nodes(t)) for t in range(horizon + 1)]
    rng = np.random.default_rng(7)
    for t in range(1, horizon + 1):
        vals[t] = rng.normal(scale=0.4, size=tree.n_nodes(t))
    stream = AdaptedProcess(tree, tuple(vals))
    sec = conic_security("cds", fam, stream, gamma)
    return MarketModel(walk=walk, securities=(sec,), name="conic")


def book_market(horizon=1):
    """The AAPL ladders quoted at every node of a symmetric walk."""
    walk = make_walk(horizon)
    stream = zero_process(walk.tree)
    sec = Security(
        sid="book",
        stream_ask=stream,
        stream_bid=stream,
        op_ask=OrderBookOperator("ask", AAPL_ASK),
        op_bid=OrderBookOperator("bid", AAPL_BID),
    )
    return MarketModel(walk=walk, securities=(sec,), name="book")


def test_direct_operator_is_per_share_and_exact():
    tree = uniform_binary_tree(2)
    op = DirectOperator(tree, [[10.0], [12.0, 11.0], [13.0, 11.0, 12.0, 10.0]])
    assert np.allclose(op.price(1, np.array([2.0, 3.0])), [24.0, 33.0])
    assert op.exact_price(1, 0, Fraction(3, 2)) == Fraction(18)
    with pytest.raises(MarketError):
        DirectOperator(tree, [[10.0], [12.0, 11.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(MarketError, match="level 1: unit prices must be finite"):
            DirectOperator(tree, [[10.0], [bad, 11.0], [13.0, 11.0, 12.0, 10.0]])


def test_direct_operator_refuses_orders_off_its_levels():
    """A level outside 0..T, an order whose last axis is not the level's
    node count, and a node outside the level are LevelMismatch, not a quote
    off another level's table, a broadcast or an IndexError."""
    tree = uniform_binary_tree(2)
    op = DirectOperator(tree, [[10.0], [12.0, 11.0], [13.0, 11.0, 12.0, 10.0]])
    for t, phi in ((-1, np.ones(4)), (3, np.ones(4)), (2, np.ones(1)), (1, np.ones((2, 4))),
                   (0, 1.0)):
        with pytest.raises(LevelMismatch):
            op.price(t, phi)
    for t, node in ((-1, 0), (3, 0), (1, 2), (1, -1)):
        with pytest.raises(LevelMismatch):
            op.exact_price(t, node, Fraction(1))
    assert np.array_equal(op.price(2, np.ones((3, 4))), np.tile([13.0, 11.0, 12.0, 10.0], (3, 1)))


def test_order_book_walks_the_ladder_exactly():
    book = OrderBookOperator("ask", AAPL_ASK, tick_scale=100)
    assert float(book.price(0, np.array([200.0]))[0]) == 23322.00
    assert float(book.price(0, np.array([500.0]))[0]) == 58308.00
    assert book.exact_price(0, 0, Fraction(200)) == Fraction(23322)
    assert book.exact_price(0, 0, Fraction(500)) == Fraction(58308)
    assert book.depth == 200 + 700 + 543 + 643 + 343
    bid_book = OrderBookOperator("bid", AAPL_BID, tick_scale=100)
    assert float(bid_book.price(0, np.array([300.0]))[0]) == 34977.00
    grid = np.linspace(0.0, book.depth, 97)
    exact = [float(book.exact_price(0, 0, Fraction(x).limit_denominator(10**6))) for x in grid]
    approx = book.price(0, grid)
    assert np.max(np.abs(approx - exact)) < 1e-5


def test_order_book_rejects_bad_orders_and_ladders():
    book = OrderBookOperator("ask", AAPL_ASK)
    with pytest.raises(DepthExceeded):
        book.price(0, np.array([book.depth + 1.0]))
    with pytest.raises(DepthExceeded):
        book.exact_price(0, 0, Fraction(book.depth) + 1)
    with pytest.raises(NegativeLeg):
        book.price(0, np.array([-1.0]))
    with pytest.raises(MarketError):
        OrderBookOperator("ask", [(116.61, 200), (116.60, 100)])
    with pytest.raises(MarketError):
        OrderBookOperator("bid", [(116.59, 200), (116.60, 100)])
    with pytest.raises(MarketError):
        OrderBookOperator("ask", [(116.611234, 200)])
    with pytest.raises(NegativeLeg):
        OrderBookOperator("ask", [(116.61, 0.0)])
    with pytest.raises(MarketError):
        OrderBookOperator("mid", AAPL_ASK)
    with pytest.raises(MarketError):
        OrderBookOperator("ask", [])
    for scale in (0, -1, 2.5, "100", True):
        with pytest.raises(MarketError, match="tick_scale"):
            OrderBookOperator("ask", AAPL_ASK, tick_scale=scale)
    for row in ((116.61, np.inf), (np.inf, 200), (np.nan, 200), (-np.inf, 200)):
        with pytest.raises(MarketError, match="must be finite"):
            OrderBookOperator("ask", [row])


def test_conic_operator_prices_match_quote_functions():
    market = conic_market()
    sec = market.security("cds")
    fam = builtin_family("entropic", market.walk)
    stream = sec.stream_ask
    for t in range(market.tree.horizon):
        phi = np.linspace(0.5, 2.0, market.tree.n_nodes(t))
        a = ask(fam, 2.0, phi, stream, t).value
        b = bid(fam, 2.0, phi, stream, t).value
        assert np.allclose(sec.op_ask.price(t, phi), a, atol=1e-12)
        assert np.allclose(sec.op_bid.price(t, phi), b, atol=1e-12)
    assert not market.supports_exact
    assert direct_two_period_market().supports_exact


@pytest.mark.parametrize("kind", ["entropic", "coherent", "quasiconcave_lse"])
def test_conic_fast_paths_equal_the_solve_bit_for_bit(kind):
    """Zero orders before the horizon and every quote at the horizon skip
    the backward solve; values and zero signs stay those of the solve, for
    the operator and for the ask, bid and price quotes built on it."""
    market = conic_market(horizon=3)
    tree, walk = market.tree, market.walk
    stream = market.securities[0].stream_ask
    fam = builtin_family(kind, walk)
    g = fam.make(1.5)
    for t in range(tree.horizon + 1):
        n = tree.n_nodes(t)
        phis = [
            np.zeros(n),
            np.full(n, -0.0),
            np.zeros((2, n)),
            np.where(np.arange(n) % 2 == 0, 0.0, 1.3),
            np.linspace(0.5, 2.0, n),
        ]
        for phi in phis:
            payoff = tail_payoff(stream, phi, t)
            for side, want in (
                ("ask", solve_bsde(g, payoff, walk).Y[t]),
                ("bid", -solve_bsde(g, -payoff, walk).Y[t]),
            ):
                quote = ask if side == "ask" else bid
                for got in (
                    ConicOperator(side, fam, 1.5, stream).price(t, phi),
                    quote(fam, 1.5, phi, stream, t).value,
                    price(side, fam, 1.5, phi, stream, t).value,
                ):
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
    op = ConicOperator("ask", fam, 1.5, stream)
    with pytest.raises(LevelMismatch):
        op.price(1, np.zeros(3))
    with pytest.raises(LevelMismatch):
        op.price(tree.horizon + 1, np.zeros(tree.n_leaves))


@pytest.mark.parametrize("kind", ["entropic", "coherent", "quasiconcave_lse"])
def test_streams_paying_nothing_after_t_quote_the_solve_zeros(kind):
    """A stream whose last payment is at or before t quotes +0.0 on the ask
    side and -0.0 on the bid side before the horizon, for any batched phi,
    as the full solve does; quotes at the horizon and the refusal of a
    level past it are those of the solve too."""
    walk = make_walk(3)
    tree = walk.tree
    T = tree.horizon
    fam = builtin_family(kind, walk)
    g = fam.make(1.5)
    rng = np.random.default_rng(5)
    assert zero_process(tree).last_paying == 0
    for last in range(T + 1):
        vals = [
            rng.normal(size=tree.n_nodes(s)) if s <= last else np.full(tree.n_nodes(s), -0.0)
            for s in range(T + 1)
        ]
        stream = AdaptedProcess(tree, tuple(vals))
        assert stream.last_paying == last
        for t in range(last, T + 1):
            phi = np.abs(rng.normal(size=(2, tree.n_nodes(t))))
            payoff = tail_payoff(stream, phi, t)
            for side, want in (
                ("ask", solve_bsde(g, payoff, walk).Y[t]),
                ("bid", -solve_bsde(g, -payoff, walk).Y[t]),
            ):
                got = ConicOperator(side, fam, 1.5, stream).price(t, phi)
                assert got.shape == want.shape == phi.shape
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
                if t < T:
                    assert not np.any(got) and np.all(np.signbit(got) == (side == "bid"))
        with pytest.raises(LevelMismatch):
            ConicOperator("ask", fam, 1.5, stream).price(T + 1, np.zeros(tree.n_leaves))


@given(
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["entropic", "coherent", "quasiconcave_lse"]),
    st.floats(min_value=0.1, max_value=8.0),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_quotes_on_asymmetric_walks_stay_near_the_full_solve(horizon, kind, level, data):
    """On binary trees with random branch probabilities p, 1 - p and the
    mean-zero, unit-variance increments sqrt((1-p)/p), -sqrt(p/(1-p)),
    quotes of single payments stay within NONSYMMETRIC_QUOTE_RTOL of the
    full solve, on both sides and at every level."""
    branching, increments = [], [None]
    for t in range(1, horizon + 1):
        n = 2 ** (t - 1)
        p = np.array(data.draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)))
        branching.append([[q, 1.0 - q] for q in p])
        increments.append(np.stack([np.sqrt((1 - p) / p), -np.sqrt(p / (1 - p))], axis=1).ravel())
    tree = build_tree(branching)
    walk = martingale_from_increments(tree, increments)
    fam = builtin_family(kind, walk)
    g = fam.make(level)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31 - 1)))
    u = data.draw(st.integers(min_value=1, max_value=horizon))
    stream = single_payment(tree, u, rng.normal(scale=10.0, size=tree.n_nodes(u)))
    for t in range(horizon + 1):
        phi = rng.uniform(0.0, 3.0, size=(2, tree.n_nodes(t)))
        payoff = tail_payoff(stream, phi, t)
        bound = NONSYMMETRIC_QUOTE_RTOL * float(np.max(np.abs(payoff)))
        for side, want in (
            ("ask", solve_bsde(g, payoff, walk).Y[t]),
            ("bid", -solve_bsde(g, -payoff, walk).Y[t]),
        ):
            got = ConicOperator(side, fam, level, stream).price(t, phi)
            assert np.max(np.abs(got - want)) <= bound


def test_conic_operator_rejects_bad_levels_as_market_errors():
    market = conic_market()
    fam = builtin_family("entropic", market.walk)
    stream = market.securities[0].stream_ask
    for gamma in (0.0, np.nan, np.inf):
        for side in ("ask", "bid"):
            with pytest.raises(LevelNonpositive):
                ConicOperator(side, fam, gamma, stream)
            with pytest.raises(MarketError):
                ConicOperator(side, fam, gamma, stream)


def test_market_lookup_by_sid():
    market = direct_two_period_market()
    assert market.security("stk").sid == "stk"
    with pytest.raises(MarketError):
        market.security("missing")


def ledger_gaps(strat, market, entry):
    """bank[t+1] - bank held into t - (dividends_collected - rebalancing_cost)
    at every t >= entry, from the public ledger terms."""
    tr = market.tree
    gaps = []
    for t in range(entry, tr.horizon):
        held = strat.bank[t][..., tr.parent[t]] if t > 0 else 0
        cash = dividends_collected(strat, market, t) - rebalancing_cost(strat, market, t)
        gaps.append(strat.bank[t + 1] - held - cash)
    return gaps


def test_zero_strategy_costs_and_delivers_nothing():
    market = direct_two_period_market()
    layout = LegLayout(market, 0)
    strat = layout.strategy(np.zeros(layout.dims))
    assert np.array_equal(liquidation_value(strat, market, 2), np.zeros(4))
    assert all(np.array_equal(strat.bank[t], np.zeros(2 ** (t - 1))) for t in (1, 2))
    assert all(not np.any(gap) for gap in ledger_gaps(strat, market, 0))


def test_completed_bank_leg_is_self_financing_for_random_legs():
    """The completed bank moves by the dividends collected less the
    rebalancing cost at every t >= entry and holds nothing through the
    entry: within SELF_FIN_TOL on float legs of table and conic markets,
    and exactly on Fraction legs over the exact view of the table market."""
    to_fractions = lambda legs: [[None] + [_fractions(x) for x in leg[1:]] for leg in legs]
    for market in (direct_two_period_market(), conic_market()):
        tr = market.tree
        rng = np.random.default_rng(31)
        for entry in range(tr.horizon):
            long = [[None] + [rng.random(tr.n_nodes(t - 1)) * (t > entry) for t in range(1, 3)]]
            short = [[None] + [rng.random(tr.n_nodes(t - 1)) * (t > entry) for t in range(1, 3)]]
            strat = complete_bank_leg(long, short, market, entry)
            assert all(not np.any(strat.bank[u]) for u in range(1, entry + 1))
            for gap in ledger_gaps(strat, market, entry):
                assert np.max(np.abs(gap)) <= SELF_FIN_TOL, (market.name, entry)
            if market.supports_exact:
                exact = _exact_view(market)
                strat = complete_bank_leg(to_fractions(long), to_fractions(short), exact, entry)
                assert all(np.all(gap == 0) for gap in ledger_gaps(strat, exact, entry))


def test_completed_bank_leg_rejects_bad_entry_times():
    market = direct_two_period_market()
    legs = lambda: [[None, np.zeros(1), np.zeros(2)]]
    with pytest.raises(MarketError):
        complete_bank_leg(legs(), legs(), market, entry=2)
    with pytest.raises(MarketError):
        complete_bank_leg(legs(), legs(), market, entry=-1)


def moving_leg(tree, rng, batch, moves):
    """A risky leg whose order at each date t is moves[t]: "hold" (none),
    "up" (buys only), "down" (sells only) or "any"."""
    leg = [None]
    for t, move in enumerate(moves):
        size = batch + (tree.n_nodes(t),)
        held = np.take(leg[t], tree.parent[t], axis=-1) if t > 0 else np.zeros(batch + (1,))
        step = rng.uniform(0.1, 1.0, size)
        nxt = {"hold": held, "up": held + step, "down": held * step, "any": 2.0 * step}[move]
        leg.append(np.broadcast_to(nxt, size).copy())
    return leg


LEDGER_MARKETS = {
    "table": direct_two_period_market,
    "book": lambda: book_market(2),
    "conic": lambda: conic_market(horizon=3),
    "mixed": lambda: stock_and_conic_market(),
}


@pytest.mark.parametrize("name", list(LEDGER_MARKETS))
def test_rebalancing_cost_is_the_four_call_ledger_bit_for_bit(name):
    """Quoting each side once per security and date gives the one call per
    leg and side of oracles.four_call_rebalancing_cost, values and zero
    signs alike, on plain and batched legs and at dates where one side, or
    both, has no order; on the exact view of a table or book market the two
    agree in Fractions."""
    market = LEDGER_MARKETS[name]()
    tr = market.tree
    k = len(market.securities)
    rng = np.random.default_rng(13)
    # each leg opens with no order or a buy, then makes one kind of order
    paths = [[first] + [move] * (tr.horizon - 1)
             for first in ("hold", "any") for move in ("hold", "up", "down", "any")]
    for batch, m_long, m_short in product([(), (3,)], paths, paths):
        long = [moving_leg(tr, rng, batch, m_long) for _ in range(k)]
        short = [moving_leg(tr, rng, batch, m_short) for _ in range(k)]
        strat = TradingStrategy(tr, [None] * (tr.horizon + 1), long, short)
        for t in range(tr.horizon):
            got = rebalancing_cost(strat, market, t)
            want = oracles.four_call_rebalancing_cost(strat, market, t)
            assert got.shape == want.shape == batch + (tr.n_nodes(t),)
            assert np.array_equal(got, want), (batch, m_long, m_short, t)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (batch, m_long, m_short, t)
        if market.supports_exact:
            exact = _exact_view(market)
            to_fractions = lambda legs: [[None] + [_fractions(x) for x in leg[1:]] for leg in legs]
            strat = TradingStrategy(tr, [None] * (tr.horizon + 1), to_fractions(long),
                                    to_fractions(short))
            for t in range(tr.horizon):
                got = rebalancing_cost(strat, exact, t)
                assert got.dtype == object and all(isinstance(x, Fraction) for x in got.flat)
                assert np.all(got == oracles.four_call_rebalancing_cost(strat, exact, t))


class CountingOperator:
    """An operator that counts its price calls."""

    def __init__(self, op):
        self.op, self.calls = op, 0

    def price(self, t, phi):
        self.calls += 1
        return self.op.price(t, phi)


@pytest.mark.parametrize("name", list(LEDGER_MARKETS))
def test_rebalancing_cost_quotes_each_side_once_per_security_and_date(name):
    market = LEDGER_MARKETS[name]()
    tr = market.tree
    secs = tuple(
        Security(s.sid, s.stream_ask, s.stream_bid, CountingOperator(s.op_ask),
                 CountingOperator(s.op_bid))
        for s in market.securities
    )
    counted = MarketModel(market.walk, secs, market.name)
    rng = np.random.default_rng(17)
    legs = lambda: [moving_leg(tr, rng, (4,), ["any"] * tr.horizon) for _ in secs]
    strat = TradingStrategy(tr, [None] * (tr.horizon + 1), legs(), legs())
    for t in range(tr.horizon):
        rebalancing_cost(strat, counted, t)
        assert [(s.op_ask.calls, s.op_bid.calls) for s in secs] == [(t + 1, t + 1)] * len(secs)


@pytest.mark.parametrize("entry", [0, 1])
@pytest.mark.parametrize("name", list(LEDGER_MARKETS))
def test_ledger_wealth_of_a_stacked_batch_is_each_rows_own(name, entry):
    """LegLayout.wealth treats every row on its own: the wealth of each row
    of a stacked batch equals that row's wealth alone, bit for bit and sign
    bit for sign bit. All-zero rows stack beside nonzero ones, so the
    conic operator's all-zero skip, which a zero row alone takes, no
    longer fires for them in the batch; rows holding one leg group alone
    and rows zero at one date mix in too."""
    market = LEDGER_MARKETS[name]()
    layout = LegLayout(market, entry)
    rng = np.random.default_rng(17 + entry)
    bound = layout.bound(SearchConfig())
    full = rng.uniform(0.0, bound, (6, layout.dims))
    sparse = full * (rng.random(full.shape) < 0.35)
    ends = np.cumsum(layout.group_widths)
    one_group = np.zeros((len(ends), layout.dims))
    for k, (lo, hi) in enumerate(zip(ends - layout.group_widths, ends)):
        one_group[k, lo:hi] = full[k % len(full), lo:hi]
    zero = np.zeros((1, layout.dims))
    rows = np.concatenate([zero, full[:3], zero, sparse, one_group, zero, full[3:]])
    stacked = layout.wealth(rows)
    for row, got in zip(rows, stacked):
        alone = layout.wealth(row[None, :])[0]
        assert np.array_equal(got, alone), (name, entry, row)
        assert np.array_equal(np.signbit(got), np.signbit(alone)), (name, entry, row)


def test_rebalancing_cost_is_refused_off_the_rebalance_dates():
    """Rebalancing is decided at t = 0..T-1: everything is liquidated at
    the horizon, and no date precedes 0."""
    market = direct_two_period_market()
    legs = lambda: [[None, np.ones(1), np.ones(2)]]
    strat = TradingStrategy(market.tree, [None] * 3, legs(), legs())
    for t in (-1, market.tree.horizon):
        with pytest.raises(MarketError, match="rebalancing cost is defined for t = 0..1"):
            rebalancing_cost(strat, market, t)


def test_exact_view_prices_stacked_orders_node_by_node():
    """The exact view quotes a (2, n) Fraction order entry by entry through
    exact_price at the entry's node, for table and book operators."""
    rng = np.random.default_rng(23)
    for market in (direct_two_period_market(), book_market(2)):
        tr = market.tree
        for sec, view in zip(market.securities, _exact_view(market).securities):
            for op, op_view in ((sec.op_ask, view.op_ask), (sec.op_bid, view.op_bid)):
                for t in range(tr.horizon + 1):
                    phi = _fractions(rng.uniform(0.0, 3.0, (2, tr.n_nodes(t))))
                    got = op_view.price(t, phi)
                    assert got.shape == phi.shape and got.dtype == object
                    for r, v in np.ndindex(phi.shape):
                        assert isinstance(got[r, v], Fraction)
                        assert got[r, v] == op.exact_price(t, v, phi[r, v])


def test_buy_and_hold_liquidation_identity():
    market = direct_two_period_market()
    tr = market.tree
    long = [[None, np.array([1.0]), np.ones(2)]]
    short = [[None, np.zeros(1), np.zeros(2)]]
    strat = complete_bank_leg(long, short, market, 0)
    assert np.allclose(strat.bank[1], [-10.0])
    assert np.allclose(strat.bank[2], [-10.0, -10.0])
    v = liquidation_value(strat, market, 2)
    assert np.allclose(v, np.array([12.0, 10.0, 11.0, 9.0]) - 10.0)


def test_market_axioms_pass_for_all_operator_flavors():
    """For table, conic and book operators: a zero order costs nothing, the
    ask is convex and the bid concave in the order size, and buying the long
    part of a position at the ask and selling the short part at the bid
    never costs less than trading the net position."""
    rng = np.random.default_rng(5)
    for market in (direct_two_period_market(), conic_market(), book_market()):
        for sec in market.securities:
            ask_at, bid_at = sec.op_ask.price, sec.op_bid.price
            cap = min(getattr(sec.op_ask, "depth", 4.0), getattr(sec.op_bid, "depth", 4.0), 4.0)
            for t in range(market.tree.horizon):
                n = market.tree.n_nodes(t)
                assert not np.any(ask_at(t, np.zeros(n))) and not np.any(bid_at(t, np.zeros(n)))
                p1, p2, pos, neg = cap * rng.random((4, 8, n))
                lam = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(8, n))
                mix = lam * p1 + (1.0 - lam) * p2
                ask_gap = ask_at(t, mix) - lam * ask_at(t, p1) - (1 - lam) * ask_at(t, p2)
                bid_gap = lam * bid_at(t, p1) + (1 - lam) * bid_at(t, p2) - bid_at(t, mix)
                assert np.all(ask_gap <= 1e-9) and np.all(bid_gap <= 1e-9), (market.name, t)
                net = lam * pos - (1.0 - lam) * neg
                gross = lam * ask_at(t, pos) - (1.0 - lam) * bid_at(t, neg)
                net_cost = np.where(
                    net >= 0.0, ask_at(t, np.maximum(net, 0.0)), -bid_at(t, np.maximum(-net, 0.0))
                )
                assert np.all(net_cost - gross <= 1e-9), (market.name, t)


def test_explicit_certificate_on_hand_tables():
    """Buy one share at 10, sell a period later at 11 or 10: never lose,
    gain one when the first move is up."""
    market = direct_two_period_market()
    long = [[None, np.array([1.0]), np.zeros(2)]]
    short = [[None, np.zeros(1), np.zeros(2)]]
    strat = complete_bank_leg(long, short, market, 0)
    assert np.allclose(strat.bank[1], [-10.0])
    assert np.allclose(strat.bank[2], [1.0, 0.0])
    v = liquidation_value(strat, market, 2)
    assert np.array_equal(v, np.array([1.0, 1.0, 0.0, 0.0]))
    rep = validate_certificate(strat, market, 0)
    assert rep.valid and rep.exact
    assert rep.min_terminal == 0.0
    assert rep.max_terminal == 1.0
    assert rep.prob_positive == pytest.approx(0.5)


def test_exact_certificates_decide_gains_and_losses_below_float_tolerances():
    """Buy one share at 0.3 and sell it a period later at the bid: a gain or
    loss of 5.55e-17 at one leaf is decided exactly, where the float verdict
    could not tell it from zero."""
    walk = make_walk(1)
    tree = walk.tree
    stream = zero_process(tree)
    long = [[None, np.array([1.0])]]
    short = [[None, np.zeros(1)]]
    for bid_down, want_valid in ((0.3, True), (0.29999999999999993, False)):
        sec = Security(
            sid="stk",
            stream_ask=stream,
            stream_bid=stream,
            op_ask=DirectOperator(tree, [[0.3], [1.0, 1.0]]),
            op_bid=DirectOperator(tree, [[0.3], [0.1 + 0.2, bid_down]]),
        )
        market = MarketModel(walk=walk, securities=(sec,))
        rep = validate_certificate(complete_bank_leg(long, short, market, 0), market, 0)
        assert rep.exact and rep.valid == want_valid
        gains = [Fraction(0.1 + 0.2) - Fraction(0.3), Fraction(bid_down) - Fraction(0.3)]
        assert rep.min_terminal == float(min(gains))
        assert rep.max_terminal == float(max(gains))
        assert 0.0 < rep.max_terminal < FLOAT_GAIN_TOL
        assert -FLOAT_LOSS_TOL < rep.min_terminal <= 0.0


def stock_and_conic_market():
    """The hand-table stock beside a conic security: a float-ledger market
    that holds the stock's certificate."""
    direct = direct_two_period_market()
    walk = direct.walk
    pays = (np.zeros(1), np.array([0.3, -0.2]), np.array([0.1, -0.4, 0.2, 0.0]))
    stream = AdaptedProcess(walk.tree, pays)
    cds = conic_security("cds", builtin_family("entropic", walk), stream, 2.0)
    return MarketModel(walk, direct.securities + (cds,), "mixed")


def test_certificates_need_the_completed_bank_and_empty_legs_through_entry():
    """validate_certificate refuses the hand-table certificate once its bank
    is nudged by 1e-6 at one node, on the exact table market and on a float
    market with a conic security, and reports that gap as the residual;
    it also refuses a candidate that holds a long leg through its entry,
    though the completed strategy never loses."""
    for market in (direct_two_period_market(), stock_and_conic_market()):
        n = len(market.securities)
        zeros = lambda: [[None, np.zeros(1), np.zeros(2)] for _ in range(n)]
        long, short = zeros(), zeros()
        long[0][1] = np.array([1.0])
        strat = complete_bank_leg(long, short, market, 0)
        rep = validate_certificate(strat, market, 0)
        assert rep.valid and rep.self_financing_residual == 0.0
        assert rep.exact == market.supports_exact
        strat.bank[2] = strat.bank[2] + np.array([0.0, 1e-6])
        rep = validate_certificate(strat, market, 0)
        assert not rep.valid and rep.min_terminal == 0.0 and rep.max_terminal == 1.0
        assert rep.self_financing_residual == pytest.approx(1e-6, rel=1e-9)
        early = complete_bank_leg(long, short, market, 1)
        rep = validate_certificate(early, market, 1)
        assert not rep.valid and rep.self_financing_residual == 0.0
        assert rep.min_terminal > 0.0


def test_completed_bank_leg_keeps_fraction_legs_exact():
    market = direct_two_period_market()
    exact = _exact_view(market)
    tr = market.tree
    rng = np.random.default_rng(5)
    for entry in range(tr.horizon):
        long = [[None] + [rng.random(tr.n_nodes(t - 1)) * (t > entry) for t in range(1, 3)]]
        short = [[None] + [rng.random(tr.n_nodes(t - 1)) * (t > entry) for t in range(1, 3)]]
        to_fractions = lambda legs: [[None] + [_fractions(x) for x in leg[1:]] for leg in legs]
        floats = complete_bank_leg(long, short, market, entry)
        fractions = complete_bank_leg(to_fractions(long), to_fractions(short), exact, entry)
        for t in range(1, tr.horizon + 1):
            bank = fractions.bank[t]
            assert bank.dtype == object and all(isinstance(x, Fraction) for x in bank)
            assert np.max(np.abs(bank.astype(float) - floats.bank[t])) < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda m, fam: find_arbitrage(m, 0),
        lambda m, fam: find_arbitrage(m, 0, SearchConfig(exhaustive=True)),
        lambda m, fam: check_ngd(fam, 2.0, m),
        lambda m, fam: hedged_price("ask", fam, 2.0, 1.0, zero_process(m.tree), m),
    ],
    ids=["search", "exhaustive", "ngd", "hedged"],
)
def test_market_without_securities_is_refused_at_construction(call):
    """A market with no securities is a MarketError where it is built, not
    an IndexError or ZeroDivisionError inside a later search."""
    walk = make_walk(2)
    fam = builtin_family("entropic", walk)
    with pytest.raises(MarketError, match="at least one security"):
        call(MarketModel(walk=walk, securities=()), fam)


def test_search_finds_entry_zero_arbitrage_but_not_entry_one():
    market = direct_two_period_market()
    found = find_arbitrage(market, entry=0)
    assert found.found
    assert found.certificate.valid and found.certificate.exact
    assert found.certificate.min_terminal >= 0.0
    assert found.certificate.max_terminal > 0.0
    none = find_arbitrage(market, entry=1, cfg=SearchConfig(exhaustive=True, bound=3.0))
    assert not none.found
    assert none.best_score == pytest.approx(1.0)
    assert none.exhaustive_total >= 200_000


def test_cds_streams_pay_protection_and_bleed_premium():
    tree = uniform_binary_tree(2)
    tau = [3, 3, 1, 1]
    long, short = cds_streams(tree, tau, delta=0.6, kappa_ask=0.02, kappa_bid=0.01)
    assert np.allclose(long.at(0), [0.0])
    assert np.allclose(long.at(1), [-0.02, 0.6])
    assert np.allclose(long.at(2), [-0.02, -0.02, 0.0, 0.0])
    assert np.allclose(short.at(1), [-0.01, 0.6])
    assert np.allclose(short.at(2), [-0.01, -0.01, 0.0, 0.0])


def test_cds_default_times_must_be_stopping_times():
    tree = uniform_binary_tree(2)
    with pytest.raises(NotStoppingTime):
        cds_streams(tree, [1, 2, 1, 2], 0.6, 0.02, 0.01)
    with pytest.raises(NotStoppingTime):
        cds_streams(tree, [0, 3, 3, 3], 0.6, 0.02, 0.01)
    with pytest.raises(NotStoppingTime):
        cds_streams(tree, [3, 3, 3], 0.6, 0.02, 0.01)
    # default times are integers: not truncated, not a bare conversion error
    for bad in (2.9, float("nan"), 1e30):
        with pytest.raises(NotStoppingTime, match="integers in 1..3"):
            cds_streams(tree, [bad, 3, 1, 1], 0.6, 0.02, 0.01)


def test_stock_stream_adds_terminal_value_at_the_horizon():
    tree = uniform_binary_tree(2)
    divs = [[0.0], [0.5, 0.5], [0.25, 0.25, 0.25, 0.25]]
    stk = stock_stream(tree, divs, [4.0, 2.0, 2.0, 1.0])
    assert np.allclose(stk.at(1), [0.5, 0.5])
    assert np.allclose(stk.at(2), [4.25, 2.25, 2.25, 1.25])


def test_strategy_batch_shape():
    market = direct_two_period_market()
    long = [[None, np.array([1.0]), np.zeros(2)]]
    short = [[None, np.zeros(1), np.zeros(2)]]
    strat = complete_bank_leg(long, short, market, 0)
    assert strat.batch_shape() == ()
    layout = LegLayout(market, 0)
    batched = layout.strategy(np.zeros((3, layout.dims)))
    assert batched.batch_shape() == (3,)
    assert liquidation_value(batched, market, 2).shape == (3, 4)
