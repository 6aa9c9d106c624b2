"""Ask and bid prices: ordering, consistency, impact, and agreement."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conicfin import (
    AdaptedProcess,
    ConicOperator,
    LevelMismatch,
    LevelNonpositive,
    NegativeQuantity,
    acceptability_index,
    ask,
    bid,
    builtin_driver,
    builtin_family,
    cross_compare,
    cumulative_price,
    g_expectation,
    price,
    risk,
    single_payment,
    symmetric_random_walk,
    time_consistency_check,
    uniform_binary_tree,
)
from conicfin import pricing
from conicfin.tree import build_tree, martingale_from_increments

import oracles

PRICE_ATOL = 1e-10
# The nesting check's quotes subtract the dividends paid so far from one
# roll-back, which adds a few ulp of max(|C_t|, |Y_t|). The streams below
# pay unit-normal dividends over at most four levels, so that is near 1e-15.
CASH_SHIFT_ATOL = 1e-13


def make_walk(horizon=2):
    return symmetric_random_walk(uniform_binary_tree(horizon))


def random_stream(tree, seed):
    rng = np.random.default_rng(seed)
    return AdaptedProcess(
        tree, tuple(rng.normal(size=tree.n_nodes(t)) for t in range(tree.horizon + 1))
    )


@given(
    st.sampled_from(["coherent", "quasiconcave_lse", "entropic"]),
    st.floats(min_value=0.1, max_value=8.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_ask_dominates_bid_everywhere(kind, gamma, seed):
    walk = make_walk(2)
    fam = builtin_family(kind, walk)
    D = random_stream(walk.tree, seed)
    for t in range(3):
        a = ask(fam, gamma, 1.0, D, t).value
        b = bid(fam, gamma, 1.0, D, t).value
        assert np.min(a - b) > -PRICE_ATOL


# Family levels within a factor of ten of 1e-6 and of 1e6.
_EXTREME_LEVELS = st.one_of(
    st.sampled_from([1e-6, 1e6]),
    st.floats(min_value=1e-7, max_value=1e-5),
    st.floats(min_value=1e5, max_value=1e7),
)
_EXTREME_CASES = (
    st.sampled_from(["coherent", "quasiconcave_lse", "entropic"]),
    st.lists(_EXTREME_LEVELS, min_size=2, max_size=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def extreme_level_quotes(kind, levels, seed):
    """(asks, bids) at t = 0, 1, 2 of a random stream, by rising level."""
    walk = make_walk(2)
    fam = builtin_family(kind, walk)
    D = random_stream(walk.tree, seed)
    return [
        ([ask(fam, g, 1.0, D, t).value for g in sorted(levels)],
         [bid(fam, g, 1.0, D, t).value for g in sorted(levels)])
        for t in range(3)
    ]


@given(*_EXTREME_CASES)
@settings(max_examples=60, deadline=None)
def test_quotes_are_finite_and_ask_covers_bid_at_extreme_family_levels(kind, levels, seed):
    for asks, bids in extreme_level_quotes(kind, levels, seed):
        assert np.all(np.isfinite(asks)) and np.all(np.isfinite(bids))
        for a, b in zip(asks, bids):
            assert np.min(a - b) > -PRICE_ATOL


@given(*_EXTREME_CASES)
@example("entropic", [2.654856592274946e-07, 2.6943977987150283e-07, 3.6436918511421263e-07], 62829803)
@settings(max_examples=60, deadline=None)
def test_asks_do_not_fall_as_extreme_family_levels_rise(kind, levels, seed):
    for asks, _ in extreme_level_quotes(kind, levels, seed):
        for lower, higher in zip(asks, asks[1:]):
            assert np.min(higher - lower) > -PRICE_ATOL


def test_entropic_prices_match_exponential_oracle():
    walk = make_walk(3)
    tree = walk.tree
    D = random_stream(tree, 21)
    level = 1.3
    risk_aversion_gamma = 1.0 / level
    fam = builtin_family("entropic", walk)
    for t in range(3):
        payoff = D.future_sum(t + 1)
        a = ask(fam, level, 1.0, D, t).value
        b = bid(fam, level, 1.0, D, t).value
        want_a = oracles.entropic_conditional(tree, payoff, t, risk_aversion_gamma)
        want_b = -oracles.entropic_conditional(tree, -payoff, t, risk_aversion_gamma)
        assert np.max(np.abs(a - want_a)) < PRICE_ATOL
        assert np.max(np.abs(b - want_b)) < PRICE_ATOL


def test_terminal_quotes_are_zero():
    walk = make_walk(2)
    fam = builtin_family("coherent", walk)
    D = random_stream(walk.tree, 3)
    assert np.max(np.abs(ask(fam, 1.0, 1.0, D, 2).value)) < PRICE_ATOL
    assert np.max(np.abs(bid(fam, 1.0, 1.0, D, 2).value)) < PRICE_ATOL


def test_price_rejects_bad_inputs():
    walk = make_walk(2)
    fam = builtin_family("coherent", walk)
    D = random_stream(walk.tree, 4)
    with pytest.raises(LevelNonpositive):
        ask(fam, 0.0, 1.0, D, 0)
    with pytest.raises(NegativeQuantity):
        ask(fam, 1.0, -2.0, D, 0)
    with pytest.raises(NegativeQuantity):
        ask(fam, 2.0, np.nan, D, 0)
    with pytest.raises(LevelNonpositive):
        ask(fam, np.inf, 1.0, D, 0)
    with pytest.raises(LevelNonpositive):
        bid(fam, np.nan, 1.0, D, 0)
    with pytest.raises(ValueError):
        price("mid", fam, 1.0, 1.0, D, 0)


def test_share_counts_of_the_wrong_length_raise_level_mismatch():
    """Only a scalar phi is spread over the level; an array must have one
    entry per level-t node (ask and bid share the check)."""
    walk = make_walk(2)
    fam = builtin_family("coherent", walk)
    D = random_stream(walk.tree, 4)
    for t, phi in ((0, [1.0, 2.0]), (1, [1.0]), (1, np.ones(4)), (2, np.ones((2, 3)))):
        for call in (ask, bid):
            with pytest.raises(LevelMismatch):
                call(fam, 1.0, phi, D, t)
    quote = ask(fam, 1.0, 2.0, D, 1)
    assert quote.phi.shape == (2,) and np.all(quote.phi == 2.0)
    assert np.array_equal(ask(fam, 1.0, [2.0, 2.0], D, 1).value, quote.value)


@pytest.mark.parametrize("t", [-1, 3])
@pytest.mark.parametrize(
    "call",
    [
        lambda fam, g, D, t: ConicOperator("ask", fam, 1.0, D).price(t, np.zeros(4)),
        lambda fam, g, D, t: ask(fam, 1.0, 1.0, D, t),
        lambda fam, g, D, t: bid(fam, 1.0, 1.0, D, t),
        lambda fam, g, D, t: risk(g, D, t),
        lambda fam, g, D, t: acceptability_index(fam, D, t),
        lambda fam, g, D, t: g_expectation(g, D.at(2), 2, t, fam.walk),
        lambda fam, g, D, t: D.cumulative_through(t),
        lambda fam, g, D, t: D.future_sum(t + 1 if t > 0 else t),
    ],
    ids=["operator", "ask", "bid", "risk", "index", "g_expectation", "cumulative", "future_sum"],
)
def test_levels_outside_the_horizon_raise_level_mismatch(call, t):
    """On a horizon-2 walk, levels -1 and 3 are refused wherever the tree
    reads them (future_sum(3) is the empty sum, so 4 stands in for 3)."""
    walk = make_walk(2)
    fam = builtin_family("entropic", walk)
    D = random_stream(walk.tree, 6)
    with pytest.raises(LevelMismatch):
        call(fam, builtin_driver("entropic", walk, gamma=1.0), D, t)


def test_time_consistency_nesting():
    walk = make_walk(3)
    fam = builtin_family("entropic", walk)
    D = random_stream(walk.tree, 5)
    for side in ("ask", "bid"):
        rep = time_consistency_check(side, fam, 0.8, D)
        assert rep.passed, (side, rep.worst_residual)


def _nesting_walks():
    """A binary, a ternary and a ragged walk with mean-zero increments."""
    ternary = build_tree([[1 / 3] * 3] * 2)
    ragged = build_tree([[1 / 3] * 3, [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]], [0.5, 0.5]])
    return {
        "binary": make_walk(4),
        "ternary": martingale_from_increments(
            ternary, [None, np.array([1.5, 0.0, -1.5]), np.tile([1.5, 0.0, -1.5], 3)]
        ),
        "ragged": martingale_from_increments(
            ragged,
            [None, np.array([1.5, 0.0, -1.5]), np.array([1.0, -1.0, 1.5, -0.5, 2.0, -2.0]),
             np.tile([1.0, -1.0], 6)],
        ),
    }


@pytest.mark.parametrize("shape", ["binary", "ternary", "ragged"])
@pytest.mark.parametrize("kind", ["coherent", "entropic", "quasiconcave_lse"])
def test_cash_shifted_quotes_equal_the_operator_at_every_level(shape, kind):
    """The check's quotes, read off one roll-back of the cumulated stream,
    equal ConicOperator.price(t, 1) at every level on both sides. From the
    last paying level on they are exact zeros on the binary and ragged
    walks; the ternary walk's thirds round there as at every level. The
    stream pays 1e9 at level 0, which no quote includes and the shift
    leaves out."""
    walk = _nesting_walks()[shape]
    tr = walk.tree
    fam = builtin_family(kind, walk)
    rng = np.random.default_rng(11)
    for last in (tr.horizon, tr.horizon - 1):
        vals = [rng.normal(size=tr.n_nodes(t)) * (t <= last) for t in range(tr.horizon + 1)]
        vals[0] = np.array([1e9])
        D = AdaptedProcess(tr, tuple(vals))
        assert np.all(D.at(last)) and not any(np.any(v) for v in D.values[last + 1:])
        for side in ("ask", "bid"):
            op = ConicOperator(side, fam, 0.8, D)
            for t, quote in enumerate(pricing._unit_quotes(op)):
                want = op.price(t, np.ones(tr.n_nodes(t)))
                assert np.max(np.abs(quote - want)) <= CASH_SHIFT_ATOL, (side, t)
                if t >= last and shape != "ternary":
                    assert not np.any(quote), (side, t)
            assert time_consistency_check(side, fam, 0.8, D).passed


class _LaggedStream(AdaptedProcess):
    """at(t) reads the level-(t-1) dividends, lifted to level t."""

    def at(self, t):
        return self.tree.broadcast(self.values[t - 1], t - 1, t)


@pytest.mark.parametrize("fault", ["quotes_off_at_level_0", "operator_off_at_level_0", "lagged_stream"])
def test_nesting_check_reports_planted_faults(fault, monkeypatch):
    """Quotes or an operator quote off by 1e-6 at level 0, or a stream
    whose at(t) is a level late, each put the residual above tol."""
    walk = make_walk(3)
    fam = builtin_family("entropic", walk)
    D = random_stream(walk.tree, 5)
    unit_quotes, op_price = pricing._unit_quotes, ConicOperator.price
    if fault == "quotes_off_at_level_0":
        off = lambda op: [q + 1e-6 * (t == 0) for t, q in enumerate(unit_quotes(op))]
        monkeypatch.setattr(pricing, "_unit_quotes", off)
    elif fault == "operator_off_at_level_0":
        off = lambda op, t, phi: op_price(op, t, phi) + 1e-6 * (t == 0)
        monkeypatch.setattr(ConicOperator, "price", off)
    else:
        D = _LaggedStream(D.tree, D.values)
    for side in ("ask", "bid"):
        rep = time_consistency_check(side, fam, 0.8, D, tol=PRICE_ATOL)
        assert not rep.passed and rep.worst_residual > PRICE_ATOL, (side, rep)


def test_level_monotonicity_and_cross_family_ordering():
    walk = make_walk(2)
    D = random_stream(walk.tree, 6)
    fam_e = builtin_family("entropic", walk)
    fam_c = builtin_family("coherent", walk)
    rep = cross_compare(fam_e, 0.5, fam_c, 2.0, D, 0, gammas=(0.25, 0.5, 1.0, 2.0, 4.0))
    assert rep.ask_ge_bid_ok
    assert rep.ask_monotone_ok
    assert rep.bid_antitone_ok
    assert rep.worst_cross_gap <= PRICE_ATOL


def test_market_impact_and_shares_identity():
    """A smaller order never costs more per share and a larger one never
    less: ask(lam phi) <= lam ask(phi) for lam <= 1 and >= for lam >= 1,
    mirrored for the bid. phi shares of a stream quote as one share of the
    phi-scaled stream. The ask is convex and the bid concave in the stream."""
    walk = make_walk(2)
    tree = walk.tree
    D, other = random_stream(tree, 7), random_stream(tree, 17)
    for kind in ("coherent", "entropic", "quasiconcave_lse"):
        fam = builtin_family(kind, walk)
        for t in (0, 1):
            phi = np.linspace(0.5, 2.0, tree.n_nodes(t))
            a, b = ask(fam, 1.0, phi, D, t).value, bid(fam, 1.0, phi, D, t).value
            for lam in (0.25, 0.5, 1.5, 2.0):
                sign = 1.0 if lam < 1.0 else -1.0
                a_lam = ask(fam, 1.0, lam * phi, D, t).value
                b_lam = bid(fam, 1.0, lam * phi, D, t).value
                assert np.all(sign * (a_lam - lam * a) <= PRICE_ATOL), (kind, t, lam)
                assert np.all(sign * (lam * b - b_lam) <= PRICE_ATOL), (kind, t, lam)
            scaled = D.scale_from(phi, t)
            assert np.max(np.abs(ask(fam, 1.0, 1.0, scaled, t).value - a)) <= PRICE_ATOL
            assert np.max(np.abs(bid(fam, 1.0, 1.0, scaled, t).value - b)) <= PRICE_ATOL
            mix = D.combine(other, np.full(tree.n_nodes(t), 0.25), t)
            for quote, sign in ((ask, 1.0), (bid, -1.0)):
                split = 0.25 * quote(fam, 1.0, 1.0, D, t).value
                split += 0.75 * quote(fam, 1.0, 1.0, other, t).value
                assert np.all(sign * (quote(fam, 1.0, 1.0, mix, t).value - split) <= PRICE_ATOL)


def test_coherent_prices_are_positively_homogeneous():
    walk = make_walk(2)
    fam = builtin_family("coherent", walk)
    D = random_stream(walk.tree, 8)
    a1 = ask(fam, 1.0, 1.0, D, 0).value
    a3 = ask(fam, 1.0, 3.0, D, 0).value
    assert np.max(np.abs(a3 - 3.0 * a1)) < PRICE_ATOL


def test_entropic_impact_is_strict_for_risky_streams():
    walk = make_walk(2)
    fam = builtin_family("entropic", walk)
    D = single_payment(walk.tree, 2, np.array([2.0, -1.0, 1.0, -2.0]))
    a1 = ask(fam, 1.0, 1.0, D, 0).value
    a2 = ask(fam, 1.0, 2.0, D, 0).value
    assert float(a2[0]) > 2.0 * float(a1[0]) + 1e-6


def test_cumulative_price_adds_collected_dividends():
    walk = make_walk(2)
    fam = builtin_family("coherent", walk)
    D = random_stream(walk.tree, 9)
    got = cumulative_price("ask", fam, 1.0, D, 1)
    want = D.cumulative_through(1) + ask(fam, 1.0, 1.0, D, 1).value
    assert np.max(np.abs(got - want)) < PRICE_ATOL


def test_bid_equals_ask_where_the_future_is_known():
    """Bid and ask agree, across families and levels and for every order
    size, on a deterministic stream and at a node whose future payments are
    known; a risky future keeps ask above bid."""
    walk = make_walk(3)
    tree = walk.tree
    fam_e = builtin_family("entropic", walk)
    fam_c = builtin_family("coherent", walk)
    flat = AdaptedProcess(tree, tuple(np.full(tree.n_nodes(t), 0.2 * t) for t in range(4)))
    for phi in (0.0, 0.25, 0.5, 1.0):
        a = ask(fam_e, 1.0, phi, flat, 0).value
        b = bid(fam_c, 2.0, phi, flat, 0).value
        assert np.max(np.abs(a - 1.2 * phi)) < PRICE_ATOL
        assert np.max(np.abs(b - 1.2 * phi)) < PRICE_ATOL
    risky = random_stream(tree, 10)
    assert np.all(ask(fam_e, 1.0, 1.0, risky, 0).value > bid(fam_c, 2.0, 1.0, risky, 0).value + 1e-3)

    walk = make_walk(2)
    fam = builtin_family("entropic", walk)
    vals = [np.zeros(1), np.array([0.5, -0.2]), np.array([0.3, 0.3, 0.4, -0.3])]
    D = AdaptedProcess(walk.tree, tuple(vals))
    a, b = ask(fam, 1.0, 1.0, D, 1).value, bid(fam, 1.0, 1.0, D, 1).value
    assert abs(a[0] - 0.3) < PRICE_ATOL and abs(b[0] - 0.3) < PRICE_ATOL
    assert a[1] > b[1] + 1e-3
