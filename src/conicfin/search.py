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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .market import MarketModel, TradingStrategy, complete_bank_leg, liquidation_value


EXHAUSTIVE_MAX_DIMS = 24
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
    around its current point, keeping a move only when it beats its current
    score by more than 1e-13, and the grid span halves every refinement
    round. The starts are drawn once and shared by every objective; the
    zero vector is always the first. Returns, per objective, each start's
    final (params, score), in start order, and the number of rows scored.

    The starts of every objective run in lockstep through one (round,
    sweep, coordinate) schedule. Each start's first row is its own map
    call, scored by every objective; after that, every coordinate step
    stacks the candidate batches of every objective's active starts into
    one map call and splits the rows back, one objective call per objective
    with active starts. A start with no accepted move in a sweep is idle
    for the rest of that round, as if it stopped sweeping, so objectives go
    idle independently. Each objective still builds its own candidates from
    its own points and takes its own argmax over its own rows: a row-wise
    map and score give every objective the moves, finals and row count of
    its own ascent, and every start those of its own loop.
    """
    rng = np.random.default_rng(cfg.seed)
    base_grid = np.linspace(0.0, bound, cfg.grid_points)
    starts = [np.zeros(dims)]
    for _ in range(max(cfg.multi_starts - 1, 0)):
        raw = rng.choice(base_grid, size=dims)
        mask = rng.random(dims) < 0.35
        starts.append(raw * mask)
    first = [wealth(p[None, :]) for p in starts]
    points = [list(starts) for _ in objectives]
    values = [[float(score(w)[0]) for w in first] for score in objectives]
    evals = [len(starts)] * len(objectives)
    span = bound
    for _ in range(cfg.refine_rounds):
        active = [range(len(starts))] * len(objectives)
        for _ in range(cfg.sweeps):
            improved = [set() for _ in objectives]
            for d in range(dims):
                owners, cands = [], []
                for o, ids in enumerate(active):
                    for i in ids:
                        x = points[o][i][d]
                        cand = np.clip(np.linspace(x - span, x + span, cfg.grid_points), 0.0, bound)
                        owners.append((o, i))
                        cands.append(np.unique(np.concatenate([cand, [0.0, x]])))
                sizes = [c.size for c in cands]
                batch = np.repeat(np.stack([points[o][i] for o, i in owners]), sizes, axis=0)
                batch[:, d] = np.concatenate(cands)
                rows = wealth(batch)
                lo = k = 0
                for o, ids in enumerate(active):
                    if not ids:
                        continue
                    own = sizes[k : k + len(ids)]
                    n = sum(own)
                    scores = np.asarray(objectives[o](rows[lo : lo + n]), dtype=float)
                    evals[o] += n
                    at = 0
                    for i, size in zip(ids, own):
                        j = at + int(np.argmax(scores[at : at + size]))
                        if scores[j] > values[o][i] + 1e-13:
                            points[o][i], values[o][i] = batch[lo + j].copy(), float(scores[j])
                            improved[o].add(i)
                        at += size
                    lo, k = lo + n, k + len(ids)
            active = [sorted(ids) for ids in improved]
            if not any(active):
                break
        span *= 0.5
    return [(list(zip(points[o], values[o])), evals[o]) for o in range(len(objectives))]


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
    scores. The earliest best row wins, and its score is recomputed from
    wealth of that row alone.

    A chunk is one index of the leading groups times the full product of
    the trailing groups: as many trailing groups as fit in EXHAUSTIVE_CHUNK
    rows, and at least the last one. Its wealth is built by broadcast
    partial sums over the group terms, left to right from zero,
    (((0 + t0[i]) + t1) + t2) + t3: the association of Python's sum of one
    gathered term per group, so every row's sum is the same float. Chunks
    run in C order and a later chunk must beat the best so far, so the
    earliest best row wins whatever the chunk size.

    The per-dimension point count is sized so the total grid lands at or
    above the configured target without exploding; instances whose grid
    would pass five million nodes (or whose dimension exceeds the cap) are
    refused.
    """
    dims = sum(widths)
    if dims > EXHAUSTIVE_MAX_DIMS:
        raise InstanceTooLarge(f"{dims} dimensions exceed the exhaustive cap {EXHAUSTIVE_MAX_DIMS}")
    points = max(2, int(round(cfg.exhaustive_target ** (1.0 / dims))))
    while points ** dims < cfg.exhaustive_target:
        points += 1
    total = points ** dims
    if total > 5_000_000:
        raise InstanceTooLarge(f"exhaustive grid would hold {total} strategies")
    grid = np.linspace(0.0, bound, points)
    product = lambda flat, w: grid[np.stack(np.unravel_index(flat, (points,) * w), axis=-1)]
    sizes = [points ** w for w in widths]
    rows = np.zeros((sum(sizes), dims))
    row, col = 0, 0
    for size, w in zip(sizes, widths):
        rows[row : row + size, col : col + w] = product(np.arange(size), w)
        row, col = row + size, col + w
    terms = np.split(np.asarray(wealth(rows), dtype=float), np.cumsum(sizes)[:-1])
    lead = len(terms) - 1
    while lead > 0 and math.prod(sizes[lead - 1 :]) <= EXHAUSTIVE_CHUNK:
        lead -= 1
    # chunk c adds every trailing row to row c of the leading partial sums
    heads = _partial_sums(np.zeros((1, terms[0].shape[-1])), terms[:lead])
    chunk = math.prod(sizes[lead:])
    best_flat, best_s = 0, -np.inf
    for c, head in enumerate(heads):
        scores = np.asarray(score(_partial_sums(head[None], terms[lead:])), dtype=float)
        k = int(np.argmax(scores))
        if scores[k] > best_s:
            best_flat, best_s = c * chunk + k, float(scores[k])
    best_p = product(best_flat, dims)
    best_s = float(score(wealth(best_p[None, :]))[0])
    return SearchOutcome(params=best_p, score=best_s, evaluations=total)


def _partial_sums(acc: np.ndarray, terms) -> np.ndarray:
    """Every acc row plus one row of each term in turn, in C order: (A, n)
    and terms of (s_j, n) rows give (A * prod s_j, n)."""
    for term in terms:
        acc = (acc[:, None] + term[None]).reshape(-1, term.shape[-1])
    return acc
