"""Leg layouts and the derivative-free strategy search."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicfin import (
    AdaptedProcess,
    DirectOperator,
    InstanceTooLarge,
    LegLayout,
    MarketModel,
    OrderBookOperator,
    SearchConfig,
    Security,
    auto_bound,
    exhaustive_grid,
    maximize,
    symmetric_random_walk,
    uniform_binary_tree,
    zero_process,
)
from conicfin import search
from conicfin.arbitrage import SCORE_TOL, _score
from conicfin.search import ascend

import oracles
from test_market import AAPL_ASK, AAPL_BID, conic_market, direct_two_period_market

SEARCH_ATOL = 2e-2
# Exhaustive sweeps sum terminal wealth over leg groups rather than along the
# interleaved bank of the full ledger, so row scores differ by rounding only.
GROUPED_SUM_RTOL = 1e-12


def two_security_market(horizon):
    """conic_market with a second security of its own id."""
    market = conic_market(horizon=horizon)
    sec = market.securities[0]
    return replace(market, securities=(sec, replace(sec, sid="other")))


def test_leg_layout_counts_every_rebalance_slot():
    """Each (security, long/short) group holds the level u-1 slots of every
    rebalance date u after the entry, so all 2K groups have one width."""
    market = direct_two_period_market()
    lay0 = LegLayout(market, 0)
    assert lay0.group_widths == (3, 3) and lay0.dims == 6
    assert np.array_equal(lay0.dim_subtree_map(0), np.zeros(6, dtype=np.int64))
    lay1 = LegLayout(market, 1)
    assert lay1.group_widths == (2, 2) and lay1.dims == 4
    assert np.array_equal(lay1.dim_subtree_map(1), [0, 1, 0, 1])
    two = two_security_market(horizon=3)
    lay = LegLayout(two, 1)
    assert lay.group_widths == (6,) * 4 and lay.dims == 24
    assert np.array_equal(lay.dim_subtree_map(1), [0, 1, 0, 0, 1, 1] * 4)
    lay2 = LegLayout(two, 2)
    assert lay2.group_widths == (4,) * 4 and lay2.dims == 16
    assert np.array_equal(lay2.dim_subtree_map(2), [0, 1, 2, 3] * 4)
    assert np.array_equal(lay2.dim_subtree_map(1), [0, 0, 1, 1] * 4)


def test_layout_round_trips_parameter_vectors():
    """to_legs hands out the columns group by group (security by security,
    long before short) and date by date after the entry, and zero legs in
    the batch shape at dates 1..entry."""
    market = two_security_market(horizon=3)
    tr = market.tree
    rng = np.random.default_rng(3)
    for entry in (0, 1):
        layout = LegLayout(market, entry)
        params = rng.random((5, layout.dims))
        long, short = layout.to_legs(params)
        assert len(long) == len(short) == len(market.securities)
        groups = [leg for pair in zip(long, short) for leg in pair]
        assert all(len(leg) == tr.horizon + 1 and leg[0] is None for leg in groups)
        dates = range(entry + 1, tr.horizon + 1)
        rebuilt = np.concatenate([leg[u] for leg in groups for u in dates], axis=-1)
        assert np.array_equal(rebuilt, params)
        for leg in groups:
            for u in range(1, entry + 1):
                assert leg[u].shape == (5, tr.n_nodes(u - 1)) and not np.any(leg[u])


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


@pytest.mark.parametrize("starts", [0, -1])
def test_a_search_without_starts_is_refused(starts):
    """The zero start is one of the starts, so fewer than one is an error,
    not a search of the zero start alone."""
    with pytest.raises(ValueError, match="multi_starts must be at least 1"):
        SearchConfig(multi_starts=starts)
    with pytest.raises(ValueError, match="multi_starts must be at least 1"):
        replace(SearchConfig(), multi_starts=starts)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("grid_points", 0, "grid_points must be at least 1"),
        ("exhaustive_target", 0, "exhaustive_target must be at least 1"),
        ("sweeps", -1, "sweeps must be at least 0"),
        ("refine_rounds", -2, "refine_rounds must be at least 0"),
        ("grid_points", 2.5, "grid_points must be at least 1 and an integer"),
        ("multi_starts", 2.0, "multi_starts must be at least 1 and an integer"),
        ("sweeps", True, "sweeps must be at least 0 and an integer"),
        ("bound", float("nan"), "bound must be None or a finite nonnegative number"),
        ("bound", float("inf"), "bound must be None or a finite nonnegative number"),
        ("bound", -1.0, "bound must be None or a finite nonnegative number"),
        ("bound", True, "bound must be None or a finite nonnegative number"),
        ("exhaustive", "true", "exhaustive must be true or false"),
        ("exhaustive_target", 10**7, "exhaustive_target must be at most 5000000"),
        ("exhaustive_target", 10**400, "exhaustive_target must be at most 5000000"),
        ("seed", "x", "seed must be at least 0 and an integer"),
        ("seed", -1.5, "seed must be at least 0 and an integer"),
        ("seed", True, "seed must be at least 0 and an integer"),
        ("seed", -1, "seed must be at least 0 and an integer"),
    ],
)
def test_a_search_config_refuses_what_the_scenario_refuses(field, value, message):
    """A count below its least value, a count or seed that is no integer, a
    negative seed, a bound that is not a finite nonnegative number, a flag
    that is not a boolean and a target past the grid cap raise at
    construction, not a silent empty sweep, a search over NaN grids, or an
    error of the sweep or of the seeded draw later."""
    with pytest.raises(ValueError, match=message):
        SearchConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        replace(SearchConfig(), **{field: value})


def test_a_search_config_takes_the_least_counts_and_a_zero_bound():
    cfg = SearchConfig(grid_points=1, sweeps=0, refine_rounds=0, exhaustive_target=1, bound=0.0)
    assert SearchConfig(grid_points=np.int64(3)).grid_points == 3
    assert SearchConfig(seed=np.int64(3)).seed == 3
    assert SearchConfig(exhaustive_target=search.EXHAUSTIVE_MAX_GRID).exhaustive_target == 5_000_000
    assert (cfg.sweeps, cfg.refine_rounds, cfg.bound) == (0, 0, 0.0)


def _rows(params):
    """The identity map: objectives score the parameter rows themselves."""
    return params


def test_ascend_returns_one_final_per_start_and_counts_scored_rows():
    target = np.array([0.7, 0.1])
    seen = []

    def score(params):
        seen.append(params.copy())
        return -np.sum(np.abs(params - target), axis=-1)

    cfg = SearchConfig(grid_points=11, multi_starts=5, sweeps=2, refine_rounds=2, seed=4)
    ((finals, evals),) = ascend(_rows, [score], dims=2, cfg=cfg, bound=1.0)
    assert len(finals) == cfg.multi_starts
    assert evals == sum(rows.shape[0] for rows in seen)
    assert seen[0].shape == (cfg.multi_starts, 2) and np.array_equal(seen[0][0], np.zeros(2))
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


def _rugged_objective(draw, dims):
    """A row-wise objective with plateaus (floor), kinks (abs, maximum) and
    ties (rounding), built from exact elementwise ops one column at a time,
    so a row scores the same in any batch."""
    col = lambda: draw(st.lists(st.floats(-2.0, 2.0), min_size=dims, max_size=dims))
    centre, weight, kink, slope = col(), col(), col(), col()
    steps = draw(st.lists(st.sampled_from([1.0, 3.0, 8.0, 64.0]), min_size=dims, max_size=dims))
    digits = draw(st.integers(0, 6))

    def score(params):
        out = np.zeros(params.shape[0])
        for j in range(dims):
            x = np.floor(params[:, j] * steps[j]) / steps[j]
            out = out - abs(weight[j]) * np.abs(x - centre[j]) + slope[j] * np.maximum(x - kink[j], 0.0)
        return np.round(out, digits)

    return score


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lockstep_ascend_matches_the_sequential_per_start_ascent(data):
    """Random rugged objectives: the lockstep ascent gives every start the
    final point and score of the per-start loop, and the same row count."""
    dims = data.draw(st.integers(1, 4))
    cfg = SearchConfig(
        grid_points=data.draw(st.integers(1, 21)),
        multi_starts=data.draw(st.integers(1, 8)),
        sweeps=data.draw(st.integers(1, 4)),
        refine_rounds=data.draw(st.integers(1, 5)),
        seed=data.draw(st.integers(0, 2**32 - 1)),
    )
    bound = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    score = _rugged_objective(data.draw, dims)
    ((finals, evals),) = ascend(_rows, [score], dims, cfg, bound)
    want, want_evals = oracles.sequential_ascend(score, dims, cfg, bound)
    assert evals == want_evals
    assert len(finals) == len(want)
    for (p, s), (q, r) in zip(finals, want):
        assert np.array_equal(p, q)
        assert s == r


def test_lockstep_ascend_scores_several_starts_in_one_call():
    """Coordinate steps stack the active starts' candidates: some call holds
    more rows than one start's candidate set can, and there are fewer calls
    than the per-start loop makes."""
    target = np.array([0.7, 0.1, 0.4])
    calls = []

    def score(params):
        calls.append(params.shape[0])
        return -np.sum(np.abs(params - target), axis=-1)

    cfg = SearchConfig(grid_points=5, multi_starts=4, sweeps=2, refine_rounds=3, seed=2)
    ascend(_rows, [score], dims=3, cfg=cfg, bound=1.0)
    lockstep = list(calls)
    calls.clear()
    oracles.sequential_ascend(score, 3, cfg, 1.0)
    assert lockstep[0] == cfg.multi_starts
    assert max(lockstep) > cfg.grid_points + 2
    assert len(lockstep) < len(calls)
    assert sum(lockstep) == sum(calls)


def _shared_map(draw, dims):
    """A row-wise map from (B, dims) legs to (B, 2 * dims) rows: each
    column shifted and folded, beside its square, by exact elementwise ops."""
    shift = draw(st.lists(st.floats(0.0, 1.0), min_size=dims, max_size=dims))
    return lambda P: np.concatenate([np.abs(P - shift), P * P], axis=-1)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ascend_gives_each_objective_its_own_ascent_over_one_map(data):
    """One to three rugged objectives, some flat (idle after their first
    sweep of each round), over one shared map: every objective gets the
    finals, scores and row count that the sequential ascent gives it alone,
    and one map call per coordinate step covers every active objective."""
    dims = data.draw(st.integers(1, 4))
    cfg = SearchConfig(
        grid_points=data.draw(st.integers(1, 21)),
        multi_starts=data.draw(st.integers(1, 6)),
        sweeps=data.draw(st.integers(1, 4)),
        refine_rounds=data.draw(st.integers(1, 4)),
        seed=data.draw(st.integers(0, 2**32 - 1)),
    )
    bound = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    shared = _shared_map(data.draw, dims)
    objectives = []
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            objectives.append(_rugged_objective(data.draw, 2 * dims))
        else:
            objectives.append(lambda W: np.zeros(W.shape[0]))
    log = []

    def wealth(P):
        log.append(("map", P.shape[0]))
        return shared(P)

    def logged(o):
        def score(W):
            log.append((o, W.shape[0]))
            return objectives[o](W)

        return score

    runs = ascend(wealth, [logged(o) for o in range(len(objectives))], dims, cfg, bound)
    assert len(runs) == len(objectives)
    for objective, (finals, evals) in zip(objectives, runs):
        want, want_evals = oracles.sequential_ascend(lambda P: objective(shared(P)), dims, cfg, bound)
        assert evals == want_evals
        assert len(finals) == len(want)
        for (p, s), (q, r) in zip(finals, want):
            assert np.array_equal(p, q)
            assert s == r
    # the starts' first rows are one map call, scored by every objective
    starts = cfg.multi_starts
    assert log[0] == ("map", starts)
    assert log[1 : 1 + len(objectives)] == [(o, starts) for o in range(len(objectives))]
    # then each coordinate step's map call is followed by one call per
    # objective with active starts, in objective order, whose rows add up
    # to the map call's
    steps = log[1 + len(objectives) :]
    calls = [i for i, event in enumerate(steps) if event[0] == "map"] + [len(steps)]
    assert calls[0] == 0
    for at, nxt in zip(calls, calls[1:]):
        owners = [o for o, _ in steps[at + 1 : nxt]]
        assert owners == sorted(set(owners)) and owners
        assert sum(n for _, n in steps[at + 1 : nxt]) == steps[at][1]


def test_objectives_that_go_idle_leave_the_shared_map_calls():
    """A flat objective accepts no move, so each round it goes idle after
    its first sweep while a tilted one keeps sweeping: the later map calls
    hold the tilted objective's rows alone, and the steps they share hold
    both objectives' rows in one call."""
    flat = lambda W: np.zeros(W.shape[0])
    tilted = lambda W: -np.sum(np.abs(W - np.array([0.7, 0.1])), axis=-1)
    cfg = SearchConfig(grid_points=5, multi_starts=2, sweeps=3, refine_rounds=2, seed=5)
    maps, scored = [], []

    def wealth(P):
        maps.append(P.shape[0])
        return P

    def logged(name, objective):
        def score(W):
            scored.append((len(maps), name, W.shape[0]))
            return objective(W)

        return score

    runs = ascend(wealth, [logged("flat", flat), logged("tilted", tilted)], 2, cfg, 1.0)
    (_, flat_evals), (_, tilted_evals) = runs
    assert tilted_evals > flat_evals
    alone = [ascend(_rows, [objective], 2, cfg, 1.0)[0][1] for objective in (flat, tilted)]
    assert [flat_evals, tilted_evals] == alone
    assert maps[0] == cfg.multi_starts
    by_call = {}
    for call, name, rows in scored[2:]:
        by_call.setdefault(call, []).append(name)
    assert sorted(by_call) == list(range(2, len(maps) + 1))
    shared = [call for call, names in by_call.items() if names == ["flat", "tilted"]]
    solo = [call for call, names in by_call.items() if names == ["tilted"]]
    assert len(shared) + len(solo) == len(by_call)
    assert shared and solo and max(shared) > min(solo)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_candidate_grids_of_all_starts_are_each_starts_own_unique_grid(data):
    """One coordinate step builds every active start's candidates in one
    array op: each start's block is np.unique of its own clipped linspace
    with 0 and x appended, value for value and sign bit for sign bit, with
    the other coordinates kept. x lies anywhere in [0, bound], its ends
    included, the grid holds one point or many, and the span may be below
    half an ulp of x, so that x - span and x + span round to x."""
    bound = data.draw(st.sampled_from([0.5, 1.0, 3.0, 6.0, 24.0]))
    grid_points = data.draw(st.integers(1, 25))
    span = bound * 0.5 ** data.draw(st.one_of(st.integers(0, 8), st.integers(50, 70)))
    dims = data.draw(st.integers(1, 3))
    coord = st.one_of(st.sampled_from([0.0, bound]), st.floats(0.0, bound))
    point = st.lists(coord, min_size=dims, max_size=dims)
    points = np.array(data.draw(st.lists(point, min_size=1, max_size=6)))
    d = data.draw(st.integers(0, dims - 1))
    batch, sizes = search._candidates(points, d, span, grid_points, bound)
    assert sizes.sum() == len(batch)
    for p, block in zip(points, np.split(batch, np.cumsum(sizes)[:-1])):
        x = p[d]
        cand = np.clip(np.linspace(x - span, x + span, grid_points), 0.0, bound)
        want = np.unique(np.concatenate([cand, [0.0, x]]))
        assert np.array_equal(block[:, d], want)
        assert np.array_equal(np.signbit(block[:, d]), np.signbit(want))
        assert np.array_equal(np.delete(block, d, axis=1), np.delete(np.tile(p, (len(block), 1)), d, axis=1))


def _group_wealths(layout, rows):
    """Terminal wealth of each of the layout's leg groups alone, stacked as
    (groups, B, leaves)."""
    ends = np.cumsum(layout.group_widths)
    cols = np.arange(layout.dims)
    masks = [(lo <= cols) & (cols < hi) for lo, hi in zip(ends - layout.group_widths, ends)]
    return np.stack([layout.wealth(rows * mask) for mask in masks])


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
        layout = LegLayout(market, entry)
        K = len(market.securities)
        widths = [layout.dims // (2 * K)] * (2 * K)
        assert layout.group_widths == tuple(widths)
        cfg = SearchConfig(exhaustive=True, exhaustive_target=4000)
        bound = layout.bound(cfg)
        scored, wealth_rows = [], []
        score = lambda v: scored.append(_score(v, SCORE_TOL)) or scored[-1]
        wealth = lambda P: wealth_rows.append(P.shape[0]) or layout.wealth(P)
        out = exhaustive_grid(wealth, widths, cfg, bound, score)

        points = round(out.evaluations ** (1.0 / layout.dims))
        assert out.evaluations == points ** layout.dims >= 4000
        assert wealth_rows == [2 * K * points ** widths[0], 1]
        grid = np.linspace(0.0, bound, points)
        flat = np.arange(out.evaluations)
        rows = grid[np.stack(np.unravel_index(flat, (points,) * layout.dims), axis=-1)]
        full = _score(layout.wealth(rows), SCORE_TOL)
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


def test_a_nan_score_hides_no_better_row_of_the_exhaustive_grid():
    """The grid is 0, 0.25, ..., 1; the score is NaN at 0.25 and best at
    0.75, so np.argmax alone would stop at the NaN and keep row 0."""
    def score(rows):
        x = rows[:, 0]
        return np.where(x == 0.25, np.nan, np.where(x == 0.75, 2.0, 0.0))

    out = exhaustive_grid(lambda P: P, [1], SearchConfig(exhaustive_target=5), 1.0, score)
    assert np.array_equal(out.params, [0.75])
    assert out.score == 2.0
    assert out.evaluations == 5


def test_a_nan_score_hides_no_better_move_of_the_ascent():
    """f(x) = x but NaN at 0.25: the first sweep's candidates are 0, 0.25,
    0.5, 0.75 and 1, so the one start must move to 1, not stay at 0."""
    def evaluate(params):
        x = params[:, 0]
        return np.where(x == 0.25, np.nan, x)

    cfg = SearchConfig(grid_points=9, multi_starts=1, sweeps=1, refine_rounds=1)
    out = maximize(evaluate, 1, cfg, 1.0)
    assert np.array_equal(out.params, [1.0])
    assert out.score == 1.0


def _additive_wealth(rng, dims, leaves):
    """Synthetic wealth, additive over columns: each column adds its own
    kinked leaf profile, column by column, so a row's wealth is the same in
    any batch."""
    slope = rng.normal(0.0, 1.0, (dims, leaves))
    kink = rng.uniform(0.0, 1.0, (dims, leaves))
    cost = rng.uniform(0.0, 0.5, dims)

    def wealth(params):
        out = np.zeros((params.shape[0], leaves))
        for j in range(dims):
            x = params[:, j : j + 1]
            out = out + slope[j] * np.maximum(x - kink[j], 0.0) - cost[j] * x
        return out

    return wealth


@pytest.mark.parametrize("widths", [[5], [1, 3, 2], [2, 2, 2, 2]])
@pytest.mark.parametrize("leaves", [1, 4, 9])
@pytest.mark.parametrize("chunk", [1, 100, 2000, search.EXHAUSTIVE_CHUNK])
def test_exhaustive_chunks_match_the_brute_force_grid_exactly(widths, leaves, chunk, monkeypatch):
    """The broadcast chunks hold, in C order, exactly the row sums of the
    brute-force product grid, score them exactly as scoring the whole grid
    does, and pick the same flat row. The chunk caps give one chunk for the
    whole grid, chunks of two or three trailing groups, and, below a
    group's size, the last group alone."""
    monkeypatch.setattr(search, "EXHAUSTIVE_CHUNK", chunk)
    dims = sum(widths)
    rng = np.random.default_rng(dims * 100 + leaves)
    wealth = _additive_wealth(rng, dims, leaves)
    cfg = SearchConfig(exhaustive=True, exhaustive_target=3000)
    bound = 2.0
    seen, scored, sub_grid = [], [], []

    def score(v):
        seen.append(v.copy())
        scored.append(_score(v, SCORE_TOL))
        return scored[-1]

    out = exhaustive_grid(lambda P: sub_grid.append(P) or wealth(P), widths, cfg, bound, score)

    sizes = [round(out.evaluations ** (w / dims)) for w in widths]
    terms = np.split(wealth(sub_grid[0]), np.cumsum(sizes)[:-1])
    brute = oracles.product_grid_sums(terms)
    worst = np.min(brute, axis=-1)
    brute_scores = np.where(worst < -SCORE_TOL, worst, 1.0 + np.mean(brute, axis=-1))
    assert np.array_equal(np.concatenate(seen[:-1]), brute)
    assert np.array_equal(np.signbit(np.concatenate(seen[:-1])), np.signbit(brute))
    assert np.array_equal(np.concatenate(scored[:-1]), brute_scores)
    k = int(np.argmax(brute_scores))
    points = round(out.evaluations ** (1.0 / dims))
    grid = np.linspace(0.0, bound, points)
    assert np.array_equal(out.params, grid[np.array(np.unravel_index(k, (points,) * dims))])
    assert out.score == _score(wealth(out.params[None, :]), SCORE_TOL)[0]
    assert 0.0 < np.mean(brute_scores < 0.0) < 1.0  # rows that lose and rows that do not
    rows = {v.shape[0] for v in seen[:-1]}
    assert len(rows) == 1 and rows.pop() <= max(chunk, sizes[-1])


@pytest.mark.parametrize("widths, points, leaves", [([1], 7, 1), ([1, 2, 1], 3, 4), ([1, 1, 1, 1], 3, 9)])
@pytest.mark.parametrize("chunk", [1, 20, search.EXHAUSTIVE_CHUNK])
def test_exhaustive_chunks_keep_signed_zeros_infinities_and_nans_of_the_brute_force_grid(
    widths, points, leaves, chunk, monkeypatch
):
    """Group terms with planted -0.0, +-inf and NaN: the leaf-major chunks
    hold the sums of the brute-force grid, sum(term[pick] ...), with NaN
    where it has NaN and every other value bit for bit. That sum starts
    from +0.0, so a row of -0.0 terms sums to +0.0, and adds one term per
    group left to right. The sign of a NaN is not compared: IEEE 754 leaves
    it open when both addends are NaN, and numpy's add loops give
    -nan + nan either sign depending on where the element falls in the loop
    (its vector body or its scalar tail)."""
    monkeypatch.setattr(search, "EXHAUSTIVE_CHUNK", chunk)
    rng = np.random.default_rng(len(widths) * 10 + leaves)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.25])
    odds = [0.1, 0.1, 0.1, 0.15, 0.35, 0.1, 0.1]
    terms = [rng.choice(special, size=(points**w, leaves), p=odds) for w in widths]
    for term in terms:
        term[0] = -0.0  # so the first row sums -0.0 terms only
    table = np.concatenate(terms)
    seen = []
    wealth = lambda P: table if len(P) == len(table) else np.zeros((len(P), leaves))
    score = lambda v: seen.append(v.copy()) or np.zeros(len(v))
    cfg = SearchConfig(exhaustive_target=points ** sum(widths))
    with np.errstate(invalid="ignore"):
        out = exhaustive_grid(wealth, widths, cfg, 1.0, score)
        brute = oracles.product_grid_sums(terms)
    got = np.concatenate(seen[:-1])
    assert out.evaluations == len(brute) == len(got)
    nan = np.isnan(brute)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), brute[~nan].view(np.uint64))
    assert not np.signbit(got[0]).any() and nan.any() and np.isinf(brute).any()


def test_exhaustive_sweep_of_a_two_security_horizon_two_grid_runs_in_27_chunks():
    """Four groups of three columns at the default target, as a clean
    two-security, horizon-2 table market: 3 points per column, 27 rows per
    group, and one chunk per row of the first group."""
    wealth = _additive_wealth(np.random.default_rng(0), 12, 4)
    chunks = []
    score = lambda v: chunks.append(v.shape[0]) or _score(v, 1e-9)
    out = exhaustive_grid(wealth, [3, 3, 3, 3], SearchConfig(exhaustive=True), 2.0, score)
    assert out.evaluations == 27**4
    assert chunks == [27**3] * 27 + [1]


def test_score_matches_min_and_mean_exactly_on_special_values():
    """Folded np.minimum and the mean of the non-losing rows give the bits
    of np.where(np.min(v) < -tol, np.min(v), 1 + np.mean(v)), NaN, infinities
    and signed zeros included."""
    rng = np.random.default_rng(5)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300, 1e-9, -1e-9, -1.0, 2.5])
    for leaves in (1, 2, 4, 8, 9, 17):
        v = rng.choice(special, size=(500, leaves), p=[0.02, 0.03, 0.03, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.12])
        v[:50] = rng.normal(0.0, 1.0, (50, leaves))
        for tol in (0.0, 1e-9, 0.5):
            with np.errstate(invalid="ignore"):
                old = np.where(np.min(v, axis=-1) < -tol, np.min(v, axis=-1), 1.0 + np.mean(v, axis=-1))
                new = _score(v, tol)
            assert np.array_equal(new, old, equal_nan=True)
            assert np.array_equal(np.signbit(new), np.signbit(old))


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
    layout = LegLayout(MarketModel(walk=walk, securities=tuple(secs)), entry)
    rows = rng.uniform(0.0, 20.0, (16, layout.dims)) * (rng.random((16, layout.dims)) < 0.7)
    parts = _group_wealths(layout, rows)
    gross = 1.0 + np.sum(np.max(np.abs(parts), axis=-1), axis=0)
    assert np.all(_within_grouping_tolerance(np.sum(parts, axis=0), layout.wealth(rows), gross[:, None]))


def test_zero_dimension_search_scores_the_empty_strategy():
    out = maximize(lambda p: np.full(p.shape[0], 7.0), dims=0, cfg=SearchConfig(), bound=1.0)
    assert out.score == 7.0
    assert out.params.size == 0
