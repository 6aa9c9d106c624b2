"""Leg layouts and the derivative-free strategy search."""

from dataclasses import replace

import numpy as np
import pytest

from conicfin import (
    InstanceTooLarge,
    SearchConfig,
    auto_bound,
    exhaustive_grid,
    leg_layout,
    maximize,
)
from conicfin.search import ascend

from test_market import conic_market, direct_two_period_market

SEARCH_ATOL = 2e-2


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
    from test_market import AAPL_ASK, AAPL_BID
    from conicfin import (
        MarketModel,
        OrderBookOperator,
        Security,
        symmetric_random_walk,
        uniform_binary_tree,
        zero_process,
    )

    walk = symmetric_random_walk(uniform_binary_tree(1))
    stream = zero_process(walk.tree)
    sec = Security(
        sid="book",
        stream_ask=stream,
        stream_bid=stream,
        op_ask=OrderBookOperator("ask", AAPL_ASK),
        op_bid=OrderBookOperator("bid", AAPL_BID),
    )
    bound = auto_bound(MarketModel(walk=walk, securities=(sec,)), 0)
    assert bound == 234.0
    assert bound < 0.5 * sec.op_ask.depth


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


def test_exhaustive_grid_visits_the_whole_product_grid():
    seen = []

    def evaluate(params):
        seen.append(params.copy())
        return -((params[:, 0] - 2.0) ** 2) - params[:, 1] ** 2

    cfg = SearchConfig(exhaustive_target=1000)
    out = exhaustive_grid(evaluate, dims=2, cfg=cfg, bound=2.0)
    assert out.exhaustive_total >= 1000
    rows = np.concatenate(seen, axis=0)
    assert rows.shape[0] == out.exhaustive_total
    assert np.unique(rows, axis=0).shape[0] == out.exhaustive_total
    assert np.allclose(out.params, [2.0, 0.0])
    assert out.score == 0.0


def test_exhaustive_grid_refuses_oversized_instances():
    evaluate = lambda p: np.zeros(p.shape[0])
    with pytest.raises(InstanceTooLarge):
        exhaustive_grid(evaluate, dims=25, cfg=SearchConfig(), bound=1.0)
    with pytest.raises(InstanceTooLarge):
        exhaustive_grid(evaluate, dims=23, cfg=SearchConfig(), bound=1.0)


def test_zero_dimension_search_scores_the_empty_strategy():
    out = maximize(lambda p: np.full(p.shape[0], 7.0), dims=0, cfg=SearchConfig(), bound=1.0)
    assert out.score == 7.0
    assert out.params.size == 0
