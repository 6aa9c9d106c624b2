"""Hedged quotes: improvement, sandwich, good-deal checks."""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from conicfin import (
    AdaptedProcess,
    LevelNonpositive,
    NegativeQuantity,
    SearchConfig,
    builtin_family,
    check_ngd,
    find_arbitrage,
    hedged_price,
    hedged_sandwich,
    load_scenario,
)
from conicfin.hedging import SandwichReport, _hedged_quotes

from test_market import conic_market, direct_two_period_market

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

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


def _bench_market(which):
    """(market, family, level, stream, search config): for 0 the
    hedge_search market at seed 0 with its hedged job's family, level,
    claim and search block; for 1 the first planted table market of
    exact_tables at seed 0, hedging payoff_stream under the same search."""
    hedge = workloads.hedge_search(0)[0].config
    scn = load_scenario(hedge)
    job = hedge["jobs"][0]
    cfg = SearchConfig(seed=scn.seed, **job["search"])
    if which == 0:
        return scn.market, scn.families[job["family"]], job["gamma"], scn.streams[job["stream"]], cfg
    planted = load_scenario(workloads.exact_tables(0)[0].config)
    fam = builtin_family("entropic", planted.walk)
    return planted.market, fam, 2.0, payoff_stream(planted.walk.tree), replace(cfg, seed=planted.seed)


def _same_strategy(a, b):
    legs = lambda s: [s.bank, *s.long, *s.short]
    return all(all(np.array_equal(x, y) for x, y in zip(la, lb)) for la, lb in zip(legs(a), legs(b)))


@pytest.mark.parametrize("which", [0, 1])
def test_sandwich_is_the_two_separate_hedged_quotes_bit_for_bit(which):
    """hedged_sandwich searches its ask and bid in one ascent; each quote,
    and so the report, is the separate hedged_price one bit for bit."""
    market, fam, gamma, stream, cfg = _bench_market(which)
    ha = hedged_price("ask", fam, gamma, 1.0, stream, market, 0, cfg)
    hb = hedged_price("bid", fam, gamma, 1.0, stream, market, 0, cfg)
    both = _hedged_quotes(("ask", "bid"), fam, gamma, 1.0, stream, market, 0, cfg)
    for alone, joint in zip((ha, hb), both):
        for field in ("side", "gamma", "t", "evaluations"):
            assert getattr(joint, field) == getattr(alone, field)
        for field in ("value", "unhedged"):
            got, want = getattr(joint, field), getattr(alone, field)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert _same_strategy(joint.strategy, alone.strategy)
    rep = hedged_sandwich(fam, gamma, 1.0, stream, market, 0, cfg)
    ask_gain = float(np.min(ha.unhedged - ha.value))
    bid_gain = float(np.min(hb.value - hb.unhedged))
    spread = float(np.min(ha.value - hb.value))
    assert rep == SandwichReport(
        ask_improvement_min=ask_gain,
        bid_improvement_min=bid_gain,
        hedged_spread_min=spread,
        ask_ok=ask_gain >= -HEDGE_ATOL,
        bid_ok=bid_gain >= -HEDGE_ATOL,
        spread_ok=spread >= -HEDGE_ATOL,
    )


@pytest.mark.parametrize("which", [0, 1])
def test_ngd_cross_check_is_find_arbitrage_field_for_field(which):
    """The cross-check rides the good-deal ascent and reports what
    find_arbitrage reports, field for field: no certificate on the conic
    hedge_search market, a certificate on the planted table market. The
    good-deal verdict and its row count do not change with the rider."""
    market, fam, gamma, _, cfg = _bench_market(which)
    rep = check_ngd(fam, gamma, market, 0, cfg)
    arb = find_arbitrage(market, 0, cfg)
    assert arb.found == bool(which)
    got = rep.arbitrage
    for field in ("found", "best_score", "evaluations", "exhaustive_total", "note", "certificate"):
        assert getattr(got, field) == getattr(arb, field), field
    assert (got.strategy is None) == (arb.strategy is None)
    if arb.found:
        assert _same_strategy(got.strategy, arb.strategy)
    alone = check_ngd(fam, gamma, market, 0, cfg, cross_check_arbitrage=False)
    assert alone.arbitrage is None
    assert (alone.verdict, alone.worst_risk, alone.note) == (rep.verdict, rep.worst_risk, rep.note)
