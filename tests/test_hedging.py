"""Hedged quotes: improvement, sandwich, good-deal checks."""

import numpy as np
import pytest

from conicfin import (
    AdaptedProcess,
    LevelNonpositive,
    NegativeQuantity,
    SearchConfig,
    builtin_family,
    check_ngd,
    hedged_price,
    hedged_sandwich,
)

from test_market import conic_market, direct_two_period_market

LIGHT_CFG = SearchConfig(grid_points=11, multi_starts=3, sweeps=2, refine_rounds=2, seed=2)
HEDGE_ATOL = 1e-9


def payoff_stream(tree):
    return AdaptedProcess(
        tree,
        (
            np.array([0.0]),
            np.array([0.3, -0.1]),
            np.array([1.0, 0.4, 0.2, -0.3]),
        ),
    )


def test_hedging_never_worsens_either_quote():
    market = conic_market()
    fam = builtin_family("entropic", market.walk)
    stream = payoff_stream(market.tree)
    ha = hedged_price("ask", fam, 2.0, 1.0, stream, market, cfg=LIGHT_CFG)
    hb = hedged_price("bid", fam, 2.0, 1.0, stream, market, cfg=LIGHT_CFG)
    assert np.all(ha.value <= ha.unhedged + HEDGE_ATOL)
    assert np.all(hb.value >= hb.unhedged - HEDGE_ATOL)
    assert ha.side == "ask" and hb.side == "bid"
    assert ha.value.shape == (1,)


def test_hedged_quotes_at_interior_times():
    market = conic_market()
    fam = builtin_family("entropic", market.walk)
    stream = payoff_stream(market.tree)
    ha = hedged_price("ask", fam, 2.0, 1.0, stream, market, t=1, cfg=LIGHT_CFG)
    assert ha.value.shape == (2,)
    assert np.all(ha.value <= ha.unhedged + HEDGE_ATOL)
    with pytest.raises(ValueError):
        hedged_price("mid", fam, 2.0, 1.0, stream, market, cfg=LIGHT_CFG)
    for gamma in (0.0, np.nan, np.inf):
        with pytest.raises(LevelNonpositive):
            hedged_price("bid", fam, gamma, 1.0, stream, market, cfg=LIGHT_CFG)
    for side in ("ask", "bid"):
        with pytest.raises(NegativeQuantity):
            hedged_price(side, fam, 2.0, -1.0, stream, market, cfg=LIGHT_CFG)


def test_hedged_sandwich_holds_on_a_conic_market():
    market = conic_market()
    fam = builtin_family("entropic", market.walk)
    stream = payoff_stream(market.tree)
    rep = hedged_sandwich(fam, 2.0, 1.0, stream, market, cfg=LIGHT_CFG)
    assert rep.ask_ok and rep.bid_ok and rep.spread_ok
    assert rep.ask_improvement_min >= -HEDGE_ATOL
    assert rep.bid_improvement_min >= -HEDGE_ATOL
    assert rep.hedged_spread_min >= -HEDGE_ATOL


def test_no_good_deal_on_a_conic_market():
    market = conic_market()
    fam = builtin_family("entropic", market.walk)
    rep = check_ngd(fam, 2.0, market, cfg=LIGHT_CFG)
    assert rep.verdict == "NONE_FOUND"
    assert rep.consistent
    assert rep.worst_risk >= -HEDGE_ATOL
    assert rep.strategy is None
    assert rep.arbitrage is not None and not rep.arbitrage.found


def test_good_deal_found_when_tables_are_off():
    market = direct_two_period_market()
    fam = builtin_family("entropic", market.walk)
    rep = check_ngd(fam, 2.0, market, cfg=LIGHT_CFG)
    assert rep.verdict == "GOOD_DEAL_FOUND"
    assert rep.worst_risk < -HEDGE_ATOL
    assert rep.strategy is not None
    assert rep.consistent
    assert rep.arbitrage.found

