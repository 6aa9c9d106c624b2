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
    zero_process,
)
from conicfin.hedging import (
    ARBITRAGE,
    GOOD_DEAL_TOL,
    HedgeRequest,
    SandwichReport,
    SharedSearch,
    _search_all,
)

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


def _same_quote(a, b):
    """Two HedgedQuotes agree bit for bit, hedge legs included."""
    for field in ("side", "gamma", "t", "evaluations"):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("value", "unhedged"):
        got, want = getattr(a, field), getattr(b, field)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert a.params.tobytes() == b.params.tobytes()


@pytest.mark.parametrize("which", [0, 1])
def test_sandwich_is_the_two_separate_hedged_quotes_bit_for_bit(which):
    """hedged_sandwich searches its ask and bid in one ascent; each quote,
    and so the report, is the separate hedged_price one bit for bit."""
    market, fam, gamma, stream, cfg = _bench_market(which)
    ha = hedged_price("ask", fam, gamma, 1.0, stream, market, 0, cfg)
    hb = hedged_price("bid", fam, gamma, 1.0, stream, market, 0, cfg)
    requests = [HedgeRequest(side, fam, gamma, 1.0, stream) for side in ("ask", "bid")]
    both = _search_all(requests, market, 0, cfg)
    for alone, joint in zip((ha, hb), both):
        _same_quote(joint, alone)
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


def _same_ngd(a, b):
    """Two NgdReports agree bit for bit; their arbitrage reports are not compared."""
    for field in ("verdict", "worst_risk", "consistent", "note"):
        assert getattr(a, field) == getattr(b, field), field
    assert (a.strategy is None) == (b.strategy is None)
    if a.strategy is not None:
        assert _same_strategy(a.strategy, b.strategy)


def _same_arbitrage(got, want):
    """Two ArbitrageSearchResults agree field for field, strategy included."""
    for field in ("found", "best_score", "evaluations", "exhaustive_total", "note", "certificate"):
        assert getattr(got, field) == getattr(want, field), field
    assert (got.strategy is None) == (want.strategy is None)
    if want.strategy is not None:
        assert _same_strategy(got.strategy, want.strategy)


@pytest.mark.parametrize("entry", [0, 1])
@pytest.mark.parametrize("which", [0, 1])
def test_good_deal_risk_is_the_hedged_ask_of_the_zero_stream(which, entry):
    """check_ngd reads its verdict off the hedged ask of the zero stream:
    worst_risk is the least node of that quote, bit for bit, and the verdict
    is whether it falls below -GOOD_DEAL_TOL."""
    market, fam, gamma, _, cfg = _bench_market(which)
    rep = check_ngd(fam, gamma, market, entry, cfg)
    quote = hedged_price("ask", fam, gamma, 1.0, zero_process(market.tree), market, entry, cfg)
    worst = np.min(quote.value)
    assert np.float64(rep.worst_risk).tobytes() == worst.tobytes()
    assert rep.verdict == ("GOOD_DEAL_FOUND" if worst < -GOOD_DEAL_TOL else "NONE_FOUND")
    assert rep.note.startswith(f"searched {quote.evaluations} leg evaluations")
    assert np.all(quote.unhedged == 0.0)


@pytest.mark.parametrize("which", [0, 1])
def test_one_search_of_many_requests_gives_each_its_own_result(which):
    """Three hedged quotes, two zero-stream asks (the good-deal risk at two
    levels) and the arbitrage report, searched in one ascent, give each
    request what it gets searched alone: the same quotes and arbitrage
    report, bit for bit. One SharedSearch runs them once, however many
    slots ask, and each slot reads the list _search_all gives its requests."""
    market, fam, gamma, stream, cfg = _bench_market(which)
    zero = zero_process(market.tree)
    requests = [
        HedgeRequest("ask", fam, gamma, 1.0, stream),
        HedgeRequest("bid", fam, gamma, 1.0, stream),
        HedgeRequest("ask", fam, gamma, 1.0, zero),
        ARBITRAGE,
        HedgeRequest("bid", fam, 2.0 * gamma, 0.5, stream),
        HedgeRequest("ask", fam, 0.5 * gamma, 1.0, zero),
    ]
    together = _search_all(requests, market, 0, cfg)
    arb = find_arbitrage(market, 0, cfg)
    for request, joint in zip(requests, together):
        (alone,) = _search_all([request], market, 0, cfg)
        if request == ARBITRAGE:
            _same_arbitrage(joint, alone)
            _same_arbitrage(joint, arb)
        else:
            _same_quote(joint, alone)
    group = SharedSearch(market, 0, cfg)
    slot = group.slot
    slots = [slot(*requests[:2]), slot(*requests[2:4]), slot(ARBITRAGE), slot(*requests[4:])]
    assert [len(slot()) for slot in slots] == [2, 2, 1, 2]
    (report,) = slots[2]()
    assert report is slots[2]()[0] is slots[1]()[1]
    _same_arbitrage(report, arb)
    quotes = [q for slot in slots for q in slot() if q is not report]
    for got, want in zip(quotes, together[:3] + together[4:], strict=True):
        _same_quote(got, want)


@pytest.mark.parametrize("which", [0, 1])
def test_ngd_read_off_a_shared_slot_is_the_unshared_check(which):
    """A check_ngd read off a slot of the zero stream's hedged ask and
    ARBITRAGE, beside a hedged sandwich's two requests, is the unshared
    check field for field, and its arbitrage is the group's one report."""
    market, fam, gamma, stream, cfg = _bench_market(which)
    group = SharedSearch(market, 0, cfg)
    sandwich = group.slot(*(HedgeRequest(side, fam, gamma, 1.0, stream) for side in ("ask", "bid")))
    ngd = group.slot(HedgeRequest("ask", fam, gamma, 1.0, zero_process(market.tree)), ARBITRAGE)
    arbitrage = group.slot(ARBITRAGE)
    shared = check_ngd(fam, gamma, market, 0, cfg, shared=ngd)
    alone = check_ngd(fam, gamma, market, 0, cfg)
    _same_ngd(shared, alone)
    _same_arbitrage(shared.arbitrage, alone.arbitrage)
    assert shared.arbitrage is arbitrage()[0] is ngd()[1]
    assert hedged_sandwich(fam, gamma, 1.0, stream, market, 0, cfg, shared=sandwich) == hedged_sandwich(
        fam, gamma, 1.0, stream, market, 0, cfg
    )
