"""Independent reference implementations used to cross-check the library.

Everything here works from the raw tree structure (parent maps and branch
probabilities) with plain Python loops, deliberately avoiding the
vectorized level machinery under test.
"""

from __future__ import annotations

import numpy as np


def ancestor_ids(tree, u: int, t: int) -> np.ndarray:
    """Level-t ancestor index of each level-u node, via parent chains."""
    ids = np.arange(tree.n_nodes(u))
    for s in range(u, t, -1):
        ids = np.asarray(tree.parent[s])[ids]
    return ids


def tree_levels(branching) -> dict:
    """parent, offsets, branch_prob and node_prob of build_tree(branching),
    built one parent and one child at a time."""
    levels = {"parent": [None], "offsets": [None], "branch_prob": [None], "node_prob": [[1.0]]}
    for spec in branching:
        prev = levels["node_prob"][-1]
        per_parent = [spec] * len(prev) if np.isscalar(spec[0]) else spec
        par, offs, probs, nodes = [], [0], [], []
        for k, pvec in enumerate(per_parent):
            for p in pvec:
                par.append(k)
                probs.append(float(p))
                nodes.append(prev[k] * float(p))
            offs.append(len(par))
        for key, level in zip(levels, (par, offs, probs, nodes)):
            levels[key].append(level)
    return levels


def node_probabilities(tree, t: int) -> np.ndarray:
    """Unconditional node probabilities at level t from branch products."""
    p = np.ones(1)
    for s in range(1, t + 1):
        p = p[np.asarray(tree.parent[s])] * np.asarray(tree.branch_prob[s])
    return p


def conditional_expectation(tree, x_leaves, t: int) -> np.ndarray:
    """E[x | F_t] for leaf data x, by direct summation per node."""
    x = np.asarray(x_leaves, dtype=float)
    pl = node_probabilities(tree, tree.horizon)
    anc = ancestor_ids(tree, tree.horizon, t)
    out = np.zeros(tree.n_nodes(t))
    for j in range(tree.n_nodes(t)):
        m = anc == j
        out[j] = float(np.sum(pl[m] * x[m]) / np.sum(pl[m]))
    return out


def entropic_conditional(tree, x_leaves, t: int, gamma: float) -> np.ndarray:
    """gamma * ln E[exp(x / gamma) | F_t] by direct leaf summation."""
    x = np.asarray(x_leaves, dtype=float)
    return gamma * np.log(conditional_expectation(tree, np.exp(x / gamma), t))


def reweighted_expectation(walk, slopes, x_leaves, t: int) -> np.ndarray:
    """E_Q[x | F_t] under branch weights 1 + x_s dW_s, slopes per level."""
    tree = walk.tree
    x = np.asarray(x_leaves, dtype=float)
    q = np.ones(1)
    for s in range(1, tree.horizon + 1):
        par = np.asarray(tree.parent[s])
        w = 1.0 + float(slopes[s]) * np.asarray(walk.dW(s))
        q = q[par] * np.asarray(tree.branch_prob[s]) * w
    anc = ancestor_ids(tree, tree.horizon, t)
    out = np.zeros(tree.n_nodes(t))
    for j in range(tree.n_nodes(t)):
        m = anc == j
        out[j] = float(np.sum(q[m] * x[m]) / np.sum(q[m]))
    return out


def brute_force_solve(g, terminal, walk):
    """Backward recursion with per-node Python loops; returns the Y levels.

    Same recursion as the solver but grouped by explicit parent scans, so a
    disagreement points at the vectorized bookkeeping."""
    tree = walk.tree
    T = tree.horizon
    Y = [None] * (T + 1)
    Y[T] = [float(v) for v in np.asarray(terminal, dtype=float)]
    for t in range(T, 0, -1):
        n_par = tree.n_nodes(t - 1)
        par = np.asarray(tree.parent[t])
        pb = np.asarray(tree.branch_prob[t])
        dw = np.asarray(walk.dW(t))
        dqv = np.asarray(walk.dqv(t))
        y_prev = []
        z_level = []
        for j in range(n_par):
            kids = [v for v in range(tree.n_nodes(t)) if par[v] == j]
            ey = sum(pb[v] * Y[t][v] for v in kids)
            eyw = sum(pb[v] * Y[t][v] * dw[v] for v in kids)
            z = eyw / float(dqv[j])
            z_level.append(z)
            y_prev.append(ey + float(g.eval(t, np.full(n_par, z))[j]) * float(dqv[j]))
        Y[t - 1] = y_prev
    return [np.asarray(level, dtype=float) for level in Y]


def gathered_level_risk(family, terminal, t: int, x_nodes) -> np.ndarray:
    """Risk per level-t node when node v uses family level x_nodes[v], from
    the family's driver class, built by its own checked constructor on
    param of the levels gathered per period: no at_nodes involved."""
    from conicfin import solve_bsde

    tree = family.tree
    x_levels = [
        np.take(x_nodes, ancestor_ids(tree, u - 1, t), axis=-1) if u > t else 1.0
        for u in range(1, tree.horizon + 1)
    ]
    g = family.driver(family.walk, [None] + [family.param(x) for x in x_levels])
    return solve_bsde(g, terminal, family.walk).Y[t]


def four_call_rebalancing_cost(strategy, market, t: int) -> np.ndarray:
    """Cash absorbed by the leg changes decided at time t < T, with one
    operator call per leg and side: ask of the long increase, bid of the
    long decrease, bid of the short increase, ask of the short decrease,
    summed in that order. Positions held into t are read off the parent
    map; Fraction legs stay Fractions."""
    tree = market.tree
    total = strategy.zeros(tree.n_nodes(t))
    for i, sec in enumerate(market.securities):
        changes = []
        for leg in (strategy.long[i], strategy.short[i]):
            nxt = np.asarray(leg[t + 1])
            held = np.asarray(leg[t])[..., list(tree.parent[t])] if t > 0 else strategy.zeros(1)
            changes.append((nxt if nxt.dtype == object else nxt.astype(float)) - held)
        d_l, d_s = changes
        total = total + sec.op_ask.price(t, np.maximum(d_l, 0))
        total = total - sec.op_bid.price(t, np.maximum(-d_l, 0))
        total = total - sec.op_bid.price(t, np.maximum(d_s, 0))
        total = total + sec.op_ask.price(t, np.maximum(-d_s, 0))
    return total


def sequential_ascend(
    score: Callable[[np.ndarray], np.ndarray],
    dims: int,
    cfg: SearchConfig,
    bound: float,
):
    """Seeded multi-start coordinate ascent on [0, bound]^dims, one start
    after the other: the per-start loop that search.ascend runs in lockstep.

    score maps a (B, dims) batch to (B,) scores. Each start sweeps the
    coordinates over a grid around the current point, keeping a move only
    when it beats the current score by more than 1e-13, and halves the grid
    span every refinement round. The zero vector is always the first start.
    Returns each start's final (params, score), in start order, and the
    number of rows scored.
    """
    rng = np.random.default_rng(cfg.seed)
    base_grid = np.linspace(0.0, bound, cfg.grid_points)
    starts = [np.zeros(dims)]
    for _ in range(max(cfg.multi_starts - 1, 0)):
        raw = rng.choice(base_grid, size=dims)
        mask = rng.random(dims) < 0.35
        starts.append(raw * mask)
    finals = []
    evals = 0
    for p0 in starts:
        p = p0.copy()
        s = float(score(p[None, :])[0])
        evals += 1
        span = bound
        for _ in range(cfg.refine_rounds):
            for _ in range(cfg.sweeps):
                improved = False
                for d in range(dims):
                    cand = np.clip(
                        np.linspace(p[d] - span, p[d] + span, cfg.grid_points), 0.0, bound
                    )
                    cand = np.unique(np.concatenate([cand, [0.0, p[d]]]))
                    batch = np.repeat(p[None, :], cand.size, axis=0)
                    batch[:, d] = cand
                    scores = np.asarray(score(batch), dtype=float)
                    evals += cand.size
                    k = int(np.argmax(scores))
                    if scores[k] > s + 1e-13:
                        p, s = batch[k].copy(), float(scores[k])
                        improved = True
                if not improved:
                    break
            span *= 0.5
        finals.append((p, s))
    return finals, evals


def product_grid_sums(terms) -> np.ndarray:
    """Every row of the product grid of the groups' term rows, in C order:
    sum(term[pick] ...) with the picks gathered by np.unravel_index."""
    sizes = [len(term) for term in terms]
    picks = np.unravel_index(np.arange(int(np.prod(sizes))), sizes)
    return sum(term[pick] for term, pick in zip(terms, picks))
