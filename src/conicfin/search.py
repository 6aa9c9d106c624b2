"""Deterministic derivative-free search over trading-strategy legs.

Strategy search spaces are flattened to nonnegative parameter vectors: one
dimension per (security, long/short, rebalance date, slot). LegLayout maps
a batch of parameter vectors to self-financing strategies, filling in the
bank leg, and to their terminal wealth, so every objective is built as
legs -> strategy -> value.

ascend is the one seeded multi-start coordinate ascent over shrinking
grids that arbitrage and hedging share. It runs several objectives in
lockstep over one row-wise map, such as LegLayout.wealth: the starts are
drawn once, and one map call per coordinate step covers the candidate sets
of every active start of every objective; the rows are then split back, so
each objective scores only its own. Each objective keeps its own points,
moves and idle starts, because its winners are its own: a row's map value
does not depend on the objective that asked for it, but its score does.
maximize is the one-objective case and keeps the best start's final
point; hedging merges the starts' finals node by node instead.
exhaustive_grid sweeps the full product grid of a small instance whose
wealth is a sum over column groups, in chunks built by broadcasting the
group terms. All these batchings are bit for bit the same as scoring one
start, or one row, at a time whenever the map and the objectives treat
each row on its own: every row gets the same score, so every accepted
move and chosen row is the same.

Every dimension touches exactly one subtree of the evaluation root, so
objectives that decompose across level-t nodes can merge per-node winners
from different starts into one strategy; dim_subtree_map exposes the
dimension-to-node assignment for that.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .market import MarketModel, TradingStrategy, complete_bank_leg, liquidation_value


EXHAUSTIVE_MAX_DIMS = 24
EXHAUSTIVE_MAX_GRID = 5_000_000
EXHAUSTIVE_CHUNK = 32_768


class InstanceTooLarge(ValueError):
    """The exhaustive grid would be astronomically large."""


@dataclass(frozen=True)
class SearchConfig:
    grid_points: int = 21
    bound: Optional[float] = None
    multi_starts: int = 8
    sweeps: int = 4
    refine_rounds: int = 3
    seed: int = 0
    exhaustive: bool = False
    exhaustive_target: int = 200_000

    def __post_init__(self):
        lows = {
            "grid_points": 1, "multi_starts": 1, "sweeps": 0, "refine_rounds": 0, "exhaustive_target": 1, "seed": 0
        }
        for name, low in lows.items():
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < low:
                raise ValueError(f"{name} must be at least {low} and an integer, got {n!r}")
        if self.exhaustive_target > EXHAUSTIVE_MAX_GRID:
            raise ValueError(f"exhaustive_target must be at most {EXHAUSTIVE_MAX_GRID}, got {self.exhaustive_target}")
        b = self.bound
        real = isinstance(b, numbers.Real) and not isinstance(b, bool)
        if b is not None and not (real and math.isfinite(b) and b >= 0.0):
            raise ValueError(f"bound must be None or a finite nonnegative number, got {b!r}")
        if not isinstance(self.exhaustive, bool):
            raise ValueError(f"exhaustive must be true or false, got {self.exhaustive!r}")


@dataclass(frozen=True)
class LegLayout:
    """Column layout of the flattened leg vector for one market and entry.

    Long and short positions are carried gross, so the columns fall into
    2K leg groups, security by security, long before short. Each group
    holds, date by date, the level u-1 slots of every rebalance date
    u = entry+1..T, so every group has the same width.
    """

    market: MarketModel
    entry: int

    @property
    def group_widths(self) -> tuple:
        """Column count of each (security, long/short) leg group, in column order."""
        tr = self.market.tree
        width = sum(tr.n_nodes(u - 1) for u in range(self.entry + 1, tr.horizon + 1))
        return (width,) * (2 * len(self.market.securities))

    @property
    def dims(self) -> int:
        return sum(self.group_widths)

    def to_legs(self, params: np.ndarray):
        """Split a (..., dims) parameter array into long/short leg lists:
        column slices after the entry, zero legs at dates 1..entry."""
        tr = self.market.tree
        batch = params.shape[:-1]
        legs, col = [], 0
        for _ in range(2 * len(self.market.securities)):
            leg = [None] + [np.zeros(batch + (tr.n_nodes(u - 1),)) for u in range(1, self.entry + 1)]
            for u in range(self.entry + 1, tr.horizon + 1):
                n = tr.n_nodes(u - 1)
                leg.append(params[..., col : col + n])
                col += n
            legs.append(leg)
        return legs[0::2], legs[1::2]

    def strategy(self, params: np.ndarray) -> TradingStrategy:
        """Self-financing strategy entered at the layout's entry with these risky legs."""
        long, short = self.to_legs(params)
        return complete_bank_leg(long, short, self.market, self.entry)

    def wealth(self, params: np.ndarray) -> np.ndarray:
        """Terminal wealth, (..., leaves), of the strategy built from these legs."""
        return liquidation_value(self.strategy(params), self.market, self.market.tree.horizon)

    def bound(self, cfg: SearchConfig) -> float:
        """The configured position cap, or auto_bound when none is set."""
        return auto_bound(self.market, self.entry) if cfg.bound is None else cfg.bound

    def dim_subtree_map(self, t: int) -> np.ndarray:
        """Level-t ancestor node of each dimension's slot."""
        tr = self.market.tree
        dates = range(self.entry + 1, tr.horizon + 1)
        group = np.concatenate([tr.ancestor_map(u - 1, t) for u in dates])
        return np.tile(group, 2 * len(self.market.securities))


def auto_bound(market: MarketModel, entry: int) -> float:
    """Position cap from the scale of unit quotes and dividends.

    Books additionally cap positions at just under half the posted depth so
    a full round trip (build then unwind) never walks past the ladder.
    """
    tr = market.tree
    scale = 1.0
    depth_cap = np.inf
    for sec in market.securities:
        for stream in (sec.stream_ask, sec.stream_bid):
            for t in range(tr.horizon + 1):
                scale = max(scale, float(np.max(np.abs(stream.at(t)))))
        for op in (sec.op_ask, sec.op_bid):
            # a book's depth is a sum of positive sizes, so every probe is > 0
            depth = getattr(op, "depth", None)
            probe = 1.0
            if depth is not None:
                depth_cap = min(depth_cap, 0.45 * depth)
                probe = min(1.0, depth)
            for t in range(entry, tr.horizon):
                unit = op.price(t, np.full(tr.n_nodes(t), probe))
                scale = max(scale, float(np.max(np.abs(unit))) / probe)
    bound = 2.0 * np.ceil(scale)
    return float(min(bound, depth_cap))


@dataclass(frozen=True)
class SearchOutcome:
    params: np.ndarray
    score: float
    evaluations: int

    @classmethod
    def best(cls, finals, evaluations: int) -> "SearchOutcome":
        """The best of an ascent's finals; ties resolve to the earlier start
        so reruns with one seed are bit-identical."""
        best_p, best_s = None, -np.inf
        for p, s in finals:
            if s > best_s:
                best_p, best_s = p, s
        return cls(params=best_p, score=best_s, evaluations=evaluations)


def ascend(
    wealth: Callable[[np.ndarray], np.ndarray],
    objectives: Sequence[Callable[[np.ndarray], np.ndarray]],
    dims: int,
    cfg: SearchConfig,
    bound: float,
) -> list:
    """Seeded multi-start coordinate ascents on [0, bound]^dims, one per
    objective, over one shared map.

    wealth maps a (B, dims) batch to B rows, and each objective maps such
    rows to (B,) scores. Each start sweeps the coordinates over a grid
    around its current point, keeping a move to its earliest best non-NaN
    candidate only when that beats its current score by more than 1e-13,
    and the grid span halves every refinement round. The starts are drawn
    once and shared by every objective; the zero vector is always the
    first. Returns, per objective, each start's
    final (params, score), in start order, and the number of rows scored.

    The starts of every objective run in lockstep through one (round,
    sweep, coordinate) schedule. The starts' first rows are one map call,
    scored by every objective; after that, every coordinate step stacks the
    candidate batches of every objective's active starts into one map call
    and splits the rows back, one objective call per objective with active
    starts. A start with no accepted move in a sweep is idle for the rest
    of that round, as if it stopped sweeping, so objectives go idle
    independently. Each objective still builds its own candidates from its
    own points and takes its own argmax over its own rows: a row-wise map
    and score give every objective the moves, finals and row count of its
    own ascent, and every start those of its own loop.

    The candidates of every active start come from one array op: a row of
    np.linspace(x - span, x + span, grid_points) per start, clipped to
    [0, bound], with 0 and x appended, sorted along the row and kept where
    a value differs from its left neighbour. Row by row these are the
    values np.unique gives for that start alone, in the same order:
    linspace over arrays does each row's arithmetic, and rows whose span
    rounds away, past about 53 halvings of the bound, are filled apart.
    Only a step that underflows to zero on some rows and not on others, at
    a bound near the smallest normal float, would still round differently.
    """
    rng = np.random.default_rng(cfg.seed)
    base_grid = np.linspace(0.0, bound, cfg.grid_points)
    starts = [np.zeros(dims)]
    for _ in range(cfg.multi_starts - 1):
        raw = rng.choice(base_grid, size=dims)
        mask = rng.random(dims) < 0.35
        starts.append(raw * mask)
    starts = np.stack(starts)
    first = wealth(starts)
    points = np.repeat(starts[None], len(objectives), axis=0)
    values = np.array([score(first) for score in objectives], dtype=float).reshape(points.shape[:2])
    evals = [len(starts)] * len(objectives)
    span = bound
    for _ in range(cfg.refine_rounds):
        active = np.ones(values.shape, dtype=bool)
        for _ in range(cfg.sweeps):
            improved = np.zeros(values.shape, dtype=bool)
            for d in range(dims):
                owner, start = np.nonzero(active)
                batch, sizes = _candidates(points[owner, start], d, span, cfg.grid_points, bound)
                rows = wealth(batch)
                lo = k = 0
                for o, m in enumerate(np.bincount(owner, minlength=len(objectives)).tolist()):
                    if not m:
                        continue
                    own = sizes[k : k + m]
                    n = int(own.sum())
                    scores = np.asarray(objectives[o](rows[lo : lo + n]), dtype=float)
                    evals[o] += n
                    at = 0
                    for i, size in zip(start[k : k + m].tolist(), own.tolist()):
                        j = at + _best(scores[at : at + size])
                        if scores[j] > values[o, i] + 1e-13:
                            points[o, i], values[o, i] = batch[lo + j], scores[j]
                            improved[o, i] = True
                        at += size
                    lo, k = lo + n, k + m
            active = improved
            if not active.any():
                break
        span *= 0.5
    return [
        ([(p, float(s)) for p, s in zip(points[o], values[o])], evals[o]) for o in range(len(objectives))
    ]


def _best(scores: np.ndarray) -> int:
    """Index of the earliest largest non-NaN score. np.argmax stops at the
    first NaN, so only then is the argmax retaken with NaNs as -inf."""
    k = int(np.argmax(scores))
    if np.isnan(scores[k]):
        k = int(np.argmax(np.where(np.isnan(scores), -np.inf, scores)))
    return k


def _candidates(points: np.ndarray, d: int, span: float, grid_points: int, bound: float):
    """The candidate rows of every start at coordinate d, stacked start by
    start, and each start's row count; points holds one start per row."""
    x = points[:, d]
    lo, hi = x - span, x + span
    # a row whose span rounds away is lo throughout in linspace too, but
    # one such row in the batch would send every row down linspace's
    # zero-step path, which rounds differently
    grid = np.repeat(lo[:, None], grid_points, axis=1)
    wide = lo != hi
    grid[wide] = np.linspace(lo[wide], hi[wide], grid_points, axis=-1)
    grid = np.clip(grid, 0.0, bound)
    grid = np.sort(np.concatenate([grid, np.zeros((x.size, 1)), x[:, None]], axis=1), axis=1)
    keep = np.ones(grid.shape, dtype=bool)
    keep[:, 1:] = grid[:, 1:] != grid[:, :-1]
    sizes = keep.sum(axis=1)
    batch = np.repeat(points, sizes, axis=0)
    batch[:, d] = grid[keep]
    return batch, sizes


def maximize(
    evaluate: Callable[[np.ndarray], np.ndarray],
    dims: int,
    cfg: SearchConfig,
    bound: float,
) -> SearchOutcome:
    """Best final point of the one-objective ascend of evaluate, which maps
    a (B, dims) batch to (B,) scores."""
    ((finals, evals),) = ascend(evaluate, [lambda scores: scores], dims, cfg, bound)
    return SearchOutcome.best(finals, evals)


def exhaustive_grid(
    wealth: Callable[[np.ndarray], np.ndarray],
    widths: Sequence[int],
    cfg: SearchConfig,
    bound: float,
    score: Callable[[np.ndarray], np.ndarray],
) -> SearchOutcome:
    """Sweep the full product grid on [0, bound]^dims, dims = sum(widths).

    wealth maps a (B, dims) batch to (B, n) outcomes and must be additive
    over consecutive column groups of the given widths: a row's wealth is
    the sum of the wealths of the rows keeping one group's columns. So
    wealth runs once, on every group's sub-grid, and the product grid is
    swept in C order, chunk by chunk; score maps (B, n) outcomes to (B,)
    scores. The earliest best row wins, a NaN score never, and its score
    is recomputed from wealth of that row alone.

    A chunk is one index of the leading groups times the full product of
    the trailing groups: as many trailing groups as fit in EXHAUSTIVE_CHUNK
    rows, and at least the last one. Its wealth is built by broadcast
    partial sums over the group terms, left to right from zero,
    (((0 + t0[i]) + t1) + t2) + t3: the association of Python's sum of one
    gathered term per group, so every row's sum is the same float. Chunks
    run in C order and a later chunk must beat the best so far, so the
    earliest best row wins whatever the chunk size.

    The sums run leaf-major: each group's terms are transposed once to an
    (n, s_j) array, so every add runs along a contiguous line of rows, not
    along a row's few leaves, and score gets the chunk's transpose, a
    (B, n) view in row order. Each leaf adds the same float pairs in the
    same order as row by row, so every sum, score and chosen row has the
    same bits; only a NaN's sign may differ, which no comparison sees.

    The per-dimension point count is sized so the total grid lands at or
    above the configured target without exploding; instances whose grid
    would pass EXHAUSTIVE_MAX_GRID nodes (or whose dimension exceeds the cap)
    are refused.
    """
    dims = sum(widths)
    if dims > EXHAUSTIVE_MAX_DIMS:
        raise InstanceTooLarge(f"{dims} dimensions exceed the exhaustive cap {EXHAUSTIVE_MAX_DIMS}")
    points = max(2, int(round(cfg.exhaustive_target ** (1.0 / dims))))
    while points ** dims < cfg.exhaustive_target:
        points += 1
    total = points ** dims
    if total > EXHAUSTIVE_MAX_GRID:
        raise InstanceTooLarge(f"exhaustive grid would hold {total} strategies")
    grid = np.linspace(0.0, bound, points)
    product = lambda flat, w: grid[np.stack(np.unravel_index(flat, (points,) * w), axis=-1)]
    sizes = [points ** w for w in widths]
    rows = np.zeros((sum(sizes), dims))
    row, col = 0, 0
    for size, w in zip(sizes, widths):
        rows[row : row + size, col : col + w] = product(np.arange(size), w)
        row, col = row + size, col + w
    outcomes = np.asarray(wealth(rows), dtype=float)
    terms = [np.ascontiguousarray(t.T) for t in np.split(outcomes, np.cumsum(sizes)[:-1])]
    lead = len(terms) - 1
    while lead > 0 and math.prod(sizes[lead - 1 :]) <= EXHAUSTIVE_CHUNK:
        lead -= 1
    # chunk c adds every trailing row to row c of the leading partial sums
    heads = _partial_sums(np.zeros((outcomes.shape[-1], 1)), terms[:lead])
    chunk = math.prod(sizes[lead:])
    best_flat, best_s = 0, -np.inf
    for c in range(heads.shape[1]):
        scores = np.asarray(score(_partial_sums(heads[:, c : c + 1], terms[lead:]).T), dtype=float)
        k = _best(scores)
        if scores[k] > best_s:
            best_flat, best_s = c * chunk + k, float(scores[k])
    best_p = product(best_flat, dims)
    best_s = float(score(wealth(best_p[None, :]))[0])
    return SearchOutcome(params=best_p, score=best_s, evaluations=total)


def _partial_sums(acc: np.ndarray, terms) -> np.ndarray:
    """Every acc row plus one row of each term in turn, in C order, all
    leaf-major: (n, A) and terms of (n, s_j) give (n, A * prod s_j). Each
    leaf's rows are one contiguous line, so every add runs along rows."""
    for term in terms:
        acc = (acc[:, :, None] + term[:, None, :]).reshape(len(term), -1)
    return acc
