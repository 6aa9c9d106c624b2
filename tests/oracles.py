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
