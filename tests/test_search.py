"""Leg layouts and the derivative-free strategy search."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicfin import (
    AdaptedProcess,
    DirectOperator,
    InstanceTooLarge,
    MarketModel,
    OrderBookOperator,
    SearchConfig,
    Security,
    auto_bound,
    exhaustive_grid,
    leg_layout,
    liquidation_value,
    maximize,
    symmetric_random_walk,
    uniform_binary_tree,
    zero_process,
)
from conicfin.arbitrage import _score
from conicfin.search import ascend

from test_market import AAPL_ASK, AAPL_BID, conic_market, direct_two_period_market

SEARCH_ATOL = 2e-2
# Exhaustive sweeps sum terminal wealth over leg groups rather than along the
# interleaved bank of the full ledger, so row scores differ by rounding only.
GROUPED_SUM_RTOL = 1e-12


def test_leg_layout_counts_every_rebalance_slot():
    market = direct_two_period_market()
    lay0 = leg_layout(market, entry=0)
    assert lay0.dims == 6
    kinds = {(b.kind, b.time, b.n_slots) for b in lay0.blocks}
    assert kinds == {("long", 1, 1), ("long", 2, 2), ("short", 1, 1), ("short", 2, 2)}
    lay1 = leg_layout(market, entry=1)
    assert lay1.dims == 4
    assert all(b.time == 2 for b in lay1.blocks)
    assert np.array_equal(lay1.dim_subtree_map(1), [0, 1, 0, 1])
    assert np.array_equal(lay0.dim_subtree_map(0), np.zeros(6, dtype=np.int64))


def test_layout_round_trips_parameter_vectors():
    market = direct_two_period_market()
    layout = leg_layout(market, entry=0)
    rng = np.random.default_rng(3)
    params = rng.random((5, layout.dims))
    long, short = layout.to_legs(params)
    rebuilt = np.zeros_like(params)
    for b in layout.blocks:
        legs = long if b.kind == "long" else short
        rebuilt[:, b.col_start : b.col_start + b.n_slots] = legs[b.security][b.time]
    assert np.array_equal(rebuilt, params)
    assert long[0][0] is None and short[0][0] is None


def test_auto_bound_reflects_quote_scale_and_book_depth():
    assert auto_bound(direct_two_period_market(), 0) == 24.0
    assert auto_bound(conic_market(), 0) == 2.0
    market = book_market(horizon=1)
    bound = auto_bound(market, 0)
    assert bound == 234.0
    assert bound < 0.5 * market.securities[0].op_ask.depth


def test_coordinate_ascent_finds_separable_concave_optimum():
    target = np.array([0.5, 1.2, 0.3])

    def evaluate(params):
        return -np.sum((params - target) ** 2, axis=-1)

    cfg = SearchConfig(grid_points=21, multi_starts=4, sweeps=3, refine_rounds=7, seed=11)
    out = maximize(evaluate, dims=3, cfg=cfg, bound=2.0)
    assert np.max(np.abs(out.params - target)) < SEARCH_ATOL
    assert out.score > -1e-3
    again = maximize(evaluate, dims=3, cfg=cfg, bound=2.0)
    assert np.array_equal(out.params, again.params)
    assert out.score == again.score


def test_maximize_always_tries_the_zero_strategy():
    def evaluate(params):
        ok = np.all(params == 0.0, axis=-1)
        return np.where(ok, 1.0, -np.max(params, axis=-1))

    out = maximize(evaluate, dims=4, cfg=SearchConfig(multi_starts=2, seed=0), bound=1.0)
    assert out.score == 1.0
    assert np.array_equal(out.params, np.zeros(4))


def test_ascend_returns_one_final_per_start_and_counts_scored_rows():
    target = np.array([0.7, 0.1])
    seen = []

    def score(params):
        seen.append(params.copy())
        return -np.sum(np.abs(params - target), axis=-1)

    cfg = SearchConfig(grid_points=11, multi_starts=5, sweeps=2, refine_rounds=2, seed=4)
    finals, evals = ascend(score, dims=2, cfg=cfg, bound=1.0)
    assert len(finals) == cfg.multi_starts
    assert evals == sum(rows.shape[0] for rows in seen)
    assert np.array_equal(seen[0], np.zeros((1, 2)))
    zero_start = maximize(score, dims=2, cfg=replace(cfg, multi_starts=1), bound=1.0)
    assert np.array_equal(finals[0][0], zero_start.params)
    for p, s in finals:
        assert p.shape == (2,) and np.all((p >= 0.0) & (p <= 1.0))
        assert s == score(p[None, :])[0]
    best = maximize(score, dims=2, cfg=cfg, bound=1.0)
    k = int(np.argmax([s for _, s in finals]))
    assert best.score == max(s for _, s in finals)
    assert np.array_equal(best.params, finals[k][0])
    assert best.evaluations == evals


def _wealth(layout):
    """Terminal wealth of a (B, dims) batch through the full ledger."""
    market = layout.market
    return lambda P: liquidation_value(layout.strategy(P), market, market.tree.horizon)


def _group_wealths(layout, rows):
    """Terminal wealth of each (security, long/short) leg group alone,
    stacked as (groups, B, leaves)."""
    out = []
    for i in range(len(layout.market.securities)):
        for kind in ("long", "short"):
            mask = np.zeros(layout.dims)
            for b in layout.blocks:
                if (b.security, b.kind) == (i, kind):
                    mask[b.col_start : b.col_start + b.n_slots] = 1.0
            out.append(_wealth(layout)(rows * mask))
    return np.stack(out)


def _within_grouping_tolerance(summed, full, gross):
    """Sums over leg groups match the full ledger up to rounding:
    GROUPED_SUM_RTOL of the gross wealth 1 + sum over groups of max |leaf|."""
    return np.abs(summed - full) <= GROUPED_SUM_RTOL * gross


def book_market(horizon=2):
    walk = symmetric_random_walk(uniform_binary_tree(horizon))
    stream = zero_process(walk.tree)
    sec = Security(
        sid="book",
        stream_ask=stream,
        stream_bid=stream,
        op_ask=OrderBookOperator("ask", AAPL_ASK),
        op_bid=OrderBookOperator("bid", AAPL_BID),
    )
    return MarketModel(walk=walk, securities=(sec,), name="book")


def test_exhaustive_grid_visits_the_whole_product_grid():
    """Brute-force oracle on direct-table (entries 0 and 1), order-book and
    conic markets: the full ledger runs on every row of the product grid in
    C order; the grouped sweep picks the same row with the same params and
    score, and scores every row within the grouping tolerance."""
    cases = [(direct_two_period_market, 0), (direct_two_period_market, 1), (book_market, 0), (conic_market, 0)]
    for make_market, entry in cases:
        market = make_market()
        layout = leg_layout(market, entry)
        K = len(market.securities)
        widths = [layout.dims // (2 * K)] * (2 * K)
        cfg = SearchConfig(exhaustive=True, exhaustive_target=4000)
        bound = layout.bound(cfg)
        scored, wealth_rows = [], []
        score = lambda v: scored.append(_score(v, cfg.tol)) or scored[-1]
        wealth = lambda P: wealth_rows.append(P.shape[0]) or _wealth(layout)(P)
        out = exhaustive_grid(wealth, widths, cfg, bound, score)

        points = round(out.exhaustive_total ** (1.0 / layout.dims))
        assert out.evaluations == out.exhaustive_total == points ** layout.dims >= 4000
        assert wealth_rows == [2 * K * points ** widths[0], 1]
        grid = np.linspace(0.0, bound, points)
        flat = np.arange(out.exhaustive_total)
        rows = grid[np.stack(np.unravel_index(flat, (points,) * layout.dims), axis=-1)]
        full = _score(_wealth(layout)(rows), cfg.tol)
        summed = np.concatenate(scored[:-1])
        k = int(np.argmax(full))
        assert int(np.argmax(summed)) == k, market.name
        assert np.array_equal(out.params, rows[k])
        assert out.score == full[k]
        gross = 1.0 + np.sum(np.max(np.abs(_group_wealths(layout, rows)), axis=-1), axis=0)
        assert np.all(_within_grouping_tolerance(summed, full, gross)), market.name


def test_exhaustive_grid_refuses_oversized_instances():
    wealth = lambda p: np.zeros((p.shape[0], 1))
    score = lambda v: v[:, 0]
    with pytest.raises(InstanceTooLarge):
        exhaustive_grid(wealth, [25], SearchConfig(), 1.0, score)
    with pytest.raises(InstanceTooLarge):
        exhaustive_grid(wealth, [12, 11], SearchConfig(), 1.0, score)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_sec=st.integers(1, 3),
    horizon=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_ledger_wealth_is_the_sum_of_its_leg_groups(seed, n_sec, horizon, data):
    """On random price tables and dividends, a strategy's terminal wealth is
    the sum of the wealths of its (security, long/short) leg groups alone."""
    entry = data.draw(st.integers(0, horizon - 1))
    rng = np.random.default_rng(seed)
    walk = symmetric_random_walk(uniform_binary_tree(horizon))
    tr = walk.tree
    table = lambda: [rng.uniform(50.0, 150.0, tr.n_nodes(t)) for t in range(horizon + 1)]
    secs = []
    for i in range(n_sec):
        divs = AdaptedProcess(tr, tuple(rng.normal(0.0, 2.0, tr.n_nodes(t)) for t in range(horizon + 1)))
        secs.append(Security(f"s{i}", divs, divs, DirectOperator(tr, table()), DirectOperator(tr, table())))
    layout = leg_layout(MarketModel(walk=walk, securities=tuple(secs)), entry)
    rows = rng.uniform(0.0, 20.0, (16, layout.dims)) * (rng.random((16, layout.dims)) < 0.7)
    parts = _group_wealths(layout, rows)
    gross = 1.0 + np.sum(np.max(np.abs(parts), axis=-1), axis=0)
    assert np.all(_within_grouping_tolerance(np.sum(parts, axis=0), _wealth(layout)(rows), gross[:, None]))


def test_zero_dimension_search_scores_the_empty_strategy():
    out = maximize(lambda p: np.full(p.shape[0], 7.0), dims=0, cfg=SearchConfig(), bound=1.0)
    assert out.score == 7.0
    assert out.params.size == 0
