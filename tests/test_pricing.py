"""Ask and bid prices: ordering, consistency, impact, and agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicfin import (
    AdaptedProcess,
    ConicOperator,
    LevelMismatch,
    LevelNonpositive,
    NegativeQuantity,
    acceptability_index,
    agreement_diagnostic,
    ask,
    bid,
    builtin_driver,
    builtin_family,
    cross_compare,
    cumulative_price,
    g_expectation,
    market_impact_check,
    price,
    risk,
    single_payment,
    symmetric_random_walk,
    time_consistency_check,
    uniform_binary_tree,
)

import oracles

PRICE_ATOL = 1e-10


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
    entry per level-t node (ask, bid and the impact check share the check)."""
    walk = make_walk(2)
    fam = builtin_family("coherent", walk)
    D = random_stream(walk.tree, 4)
    for t, phi in ((0, [1.0, 2.0]), (1, [1.0]), (1, np.ones(4)), (2, np.ones((2, 3)))):
        for call in (ask, bid):
            with pytest.raises(LevelMismatch):
                call(fam, 1.0, phi, D, t)
        with pytest.raises(LevelMismatch):
            market_impact_check(fam, 1.0, D, t, phi)
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
    walk = make_walk(2)
    D = random_stream(walk.tree, 7)
    for kind in ("coherent", "entropic"):
        rep = market_impact_check(builtin_family(kind, walk), 1.0, D, 0)
        assert rep.passed, (kind, rep)


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


def test_agreement_diagnostic_positive_and_negative():
    walk = make_walk(3)
    tree = walk.tree
    fam_e = builtin_family("entropic", walk)
    fam_c = builtin_family("coherent", walk)
    flat = AdaptedProcess(tree, tuple(np.full(tree.n_nodes(t), 0.2 * t) for t in range(4)))
    rep = agreement_diagnostic(fam_e, 1.0, fam_c, 2.0, 1.0, flat, 0)
    assert rep.holds
    assert rep.slope_sup < PRICE_ATOL
    assert rep.slopes_admissible
    risky = random_stream(tree, 10)
    rep2 = agreement_diagnostic(fam_e, 1.0, fam_c, 2.0, 1.0, risky, 0)
    assert not rep2.holds
    assert rep2.worst_residual > 1e-3


def test_agreement_diagnostic_on_locally_deterministic_event():
    walk = make_walk(2)
    tree = walk.tree
    fam = builtin_family("entropic", walk)
    vals = [np.zeros(1), np.array([0.5, -0.2]), np.array([0.3, 0.3, 0.4, -0.3])]
    D = AdaptedProcess(tree, tuple(vals))
    ind = np.array([1.0, 0.0])
    rep = agreement_diagnostic(fam, 1.0, fam, 1.0, 1.0, D, 1, indicator=ind)
    assert rep.holds
