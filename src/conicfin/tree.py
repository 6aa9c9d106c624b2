"""Finite filtered probability trees: nodes, measures, conditional expectations.

A tree with horizon T has levels 0..T. Level t holds n_t nodes indexed
0..n_t-1; every level-t node (t >= 1) stores the index of its parent at
level t-1 and the probability of the branch leading to it. A parent may
have any number of children, which occupy a contiguous index range, so the
per-parent probability check and conditional expectations run as segmented
reductions over the last axis. On a binary level, where every parent has
exactly two children, the one-step expectation is instead one strided add
of the even and odd children, the same floats as the segmented sum. Sums
along paths run forward one level at a time (FiltrationTree.path_sums).

Random variables measurable at time t are float arrays of shape (..., n_t);
leading axes are batch axes. Quantities predictable at time t (known at
t-1) are stored on the level t-1 slots, shape (..., n_{t-1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

PROB_TOL = 1e-12
MEAN_TOL = 1e-12
QV_FLOOR = 1e-14
MAX_NODES = 2**22


class TreeError(ValueError):
    """Base class for tree construction and validation failures."""


class NonstochasticProbabilities(TreeError):
    """Branch probabilities are not strictly positive or do not sum to one."""


class EmptyLevel(TreeError):
    """A level has no nodes or a parent has no children."""


class LevelMismatch(TreeError):
    """An array's length does not match the node count of its level."""


class NotBinaryTree(TreeError):
    """An operation requires exactly two children per node."""


class NotSymmetric(TreeError):
    """An operation requires one-half branch probabilities."""


class DegenerateIncrement(TreeError):
    """A martingale increment has (conditionally) vanishing variance."""


class NonMartingaleIncrement(TreeError):
    """Increments have a nonzero conditional mean."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _per_level(tree: "FiltrationTree", values: Sequence, what: str) -> Sequence:
    """values, which must hold one entry for each level 0..T."""
    if len(values) != tree.horizon + 1:
        raise LevelMismatch(f"{what} needs {tree.horizon + 1} levels, got {len(values)}")
    return values


@dataclass(frozen=True)
class FiltrationTree:
    """Immutable finite tree carrying the filtration and the node measure.

    parent[t][j]      level t-1 index of the parent of node j at level t
    offsets[t]        child ranges: children of parent k are
                      offsets[t][k] : offsets[t][k+1]
    branch_prob[t][j] one-step transition probability into node j
    node_prob[t][j]   unconditional probability of node j
    Index 0 of parent/offsets/branch_prob is None (the root has no branch).
    """

    horizon: int
    parent: tuple
    offsets: tuple
    branch_prob: tuple
    node_prob: tuple

    def __post_init__(self):
        # ancestor_map's read-only index arrays, keyed by (u, t); the tree
        # never changes, so each map is built once.
        object.__setattr__(self, "_ancestors", {})
        # Whether every parent at level t has exactly two children.
        binary = [False] + [bool(np.all(np.diff(o) == 2)) for o in self.offsets[1:]]
        object.__setattr__(self, "_binary", tuple(binary))

    def n_nodes(self, t: int) -> int:
        if not 0 <= t <= self.horizon:
            raise LevelMismatch(f"level {t} is not one of 0..{self.horizon}")
        return self.node_prob[t].shape[0]

    @property
    def n_leaves(self) -> int:
        return self.n_nodes(self.horizon)

    @property
    def leaf_prob(self) -> np.ndarray:
        return self.node_prob[self.horizon]

    def check_level_array(self, x: np.ndarray, t: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n_nodes(t),):
            raise LevelMismatch(
                f"array with last axis {x.shape[-1:]} is not level-{t} "
                f"measurable (needs {self.n_nodes(t)} nodes)"
            )
        return x

    # ---- measurability moves -------------------------------------------

    def condexp_step(self, x: np.ndarray, t: int) -> np.ndarray:
        """E[x | F_{t-1}] for a level-t array x: per parent, the sum of
        x * branch_prob over its children. On a binary level that sum is one
        strided add, w[2k] + w[2k+1], the float np.add.reduceat gives, sign
        of zero included; other levels run the segmented reduction."""
        if t < 1 or t > self.horizon:
            raise LevelMismatch(f"no one-step expectation into level {t - 1}")
        x = self.check_level_array(x, t)
        w = x * self.branch_prob[t]
        if self._binary[t]:
            return w[..., 0::2] + w[..., 1::2]
        return np.add.reduceat(w, self.offsets[t][:-1], axis=-1)

    def conditional_expectation(self, x: np.ndarray, s: int, t: int) -> np.ndarray:
        """E[x | F_t] for x measurable at level s >= t."""
        if t > s:
            raise LevelMismatch(f"cannot condition level-{s} data on future level {t}")
        x = self.check_level_array(x, s)
        for u in range(s, t, -1):
            x = self.condexp_step(x, u)
        return x

    def expectation(self, x: np.ndarray, s: int) -> np.ndarray:
        """Plain expectation; returns shape (..., 1)."""
        return self.conditional_expectation(x, s, 0)

    def broadcast(self, x: np.ndarray, t: int, u: int) -> np.ndarray:
        """Lift a level-t array to level u >= t along the tree."""
        if u < t:
            raise LevelMismatch(f"cannot broadcast level {t} back to level {u}")
        x = self.check_level_array(x, t)
        return np.take(x, self.ancestor_map(u, t), axis=-1) if u > t else x

    def ancestor_map(self, u: int, t: int) -> np.ndarray:
        """Read-only index array of length n_u sending level-u nodes to their
        level-t ancestors; built on the first call and shared after."""
        if t > u:
            raise LevelMismatch(f"level {t} nodes are not ancestors of level {u}")
        idx = self._ancestors.get((u, t))
        if idx is None:
            idx = np.arange(self.n_nodes(u), dtype=np.int64)
            for v in range(u, t, -1):
                idx = self.parent[v][idx]
            idx = self._ancestors[(u, t)] = _readonly(idx)
        return idx

    def path_sums(self, x: Sequence, s: int, u: int) -> list:
        """Running sums x[s] + ... + x[v] along each path, one level-v array
        for each v = s..u. x[v] is level-v measurable and may carry leading
        batch axes; each path adds its terms in level order from x[s] + 0.0."""
        if not 0 <= s <= u <= self.horizon:
            raise LevelMismatch(f"no path from level {s} to level {u} in 0..{self.horizon}")
        sums = [x[s] + 0.0]
        for v in range(s + 1, u + 1):
            sums.append(np.take(sums[-1], self.parent[v], axis=-1) + x[v])
        return sums

    def segment_max(self, x: np.ndarray, t: int) -> np.ndarray:
        """Per-parent maximum of a level-t array (shape (..., n_{t-1}))."""
        x = self.check_level_array(x, t)
        return np.maximum.reduceat(x, self.offsets[t][:-1], axis=-1)

    # ---- measure change -------------------------------------------------

    def with_probabilities(self, new_branch_prob: Sequence[np.ndarray]) -> "FiltrationTree":
        """Same tree shape under new one-step transition probabilities.

        new_branch_prob[t] (t = 1..T, index 0 ignored/None) replaces the
        branch probabilities; node probabilities are recomputed.
        """
        _per_level(self, new_branch_prob, "new_branch_prob")
        bp = [None]
        np_levels = [self.node_prob[0]]
        for t in range(1, self.horizon + 1):
            p = np.asarray(new_branch_prob[t], dtype=float)
            if p.shape != (self.n_nodes(t),):
                raise LevelMismatch(f"level {t} expects {self.n_nodes(t)} branch probabilities")
            bp.append(_readonly(p))
            np_levels.append(_node_prob(t, self.parent[t], self.offsets[t], p, np_levels[t - 1]))
        return FiltrationTree(
            horizon=self.horizon,
            parent=self.parent,
            offsets=self.offsets,
            branch_prob=tuple(bp),
            node_prob=tuple(np_levels),
        )


def build_tree(branching: Sequence) -> FiltrationTree:
    """Build a tree from per-level branch probabilities.

    branching[t-1] describes level t (t = 1..horizon) and is either a single
    probability vector applied to every level t-1 node, or a list with one
    probability vector per parent. Probabilities must be strictly positive
    and sum to 1 per parent (tolerance 1e-12). A tree may hold at most
    MAX_NODES nodes over all levels; a larger one is refused before any
    level is built.
    """
    if len(branching) == 0:
        raise EmptyLevel("a tree needs at least one level beyond the root")
    total = n = 1
    for t, spec in enumerate(branching, start=1):
        uniform = len(spec) > 0 and np.isscalar(spec[0])
        n = n * len(spec) if uniform else sum(np.size(p) for p in spec)
        total += n
        if total > MAX_NODES:
            raise TreeError(f"level {t} takes the tree past {MAX_NODES} nodes")
    parent, offsets, branch_prob = [None], [None], [None]
    node_prob = [_readonly(np.ones(1))]
    for t, spec in enumerate(branching, start=1):
        n_prev = node_prob[t - 1].size
        if len(spec) > 0 and np.isscalar(spec[0]):
            p = np.asarray(spec, dtype=float)
            sizes = np.full(n_prev, p.size)
            bp = np.tile(p, n_prev)
        else:
            if len(spec) != n_prev:
                raise LevelMismatch(
                    f"level {t}: got {len(spec)} probability vectors for {n_prev} parents"
                )
            vecs = [np.asarray(p, dtype=float) for p in spec]
            sizes = np.array([p.size if p.ndim == 1 else 0 for p in vecs], dtype=np.int64)
            if not np.all(sizes):
                raise EmptyLevel(f"level {t}, parent {np.argmin(sizes)}: needs at least one child")
            bp = np.concatenate(vecs)
        parent.append(_readonly(np.repeat(np.arange(n_prev), sizes)))
        offsets.append(_readonly(np.concatenate(([0], np.cumsum(sizes)))))
        branch_prob.append(_readonly(bp))
        node_prob.append(_node_prob(t, parent[t], offsets[t], bp, node_prob[t - 1]))
    return FiltrationTree(
        horizon=len(branching),
        parent=tuple(parent),
        offsets=tuple(offsets),
        branch_prob=tuple(branch_prob),
        node_prob=tuple(node_prob),
    )


def _node_prob(t: int, parent, offsets, bp, prev) -> np.ndarray:
    """Level-t node probabilities prev[parent] * bp, once every parent's
    children carry positive branch probabilities summing to one (NaN fails)."""
    low = np.minimum.reduceat(bp, offsets[:-1])
    sums = np.add.reduceat(bp, offsets[:-1])
    bad = np.flatnonzero(~((low > 0.0) & (np.abs(sums - 1.0) <= PROB_TOL)))
    if bad.size:
        raise NonstochasticProbabilities(
            f"level {t}, parent {bad[0]}: probabilities must be positive and sum to 1"
        )
    return _readonly(prev[parent] * bp)


def uniform_binary_tree(horizon: int) -> FiltrationTree:
    """Binary tree with one-half branch probabilities at every node."""
    if horizon < 1:
        raise EmptyLevel("horizon must be at least 1")
    return build_tree([[0.5, 0.5]] * horizon)


# ---- reference martingales ----------------------------------------------


@dataclass(frozen=True)
class MartingaleSpec:
    """A square-integrable martingale W given through its increments.

    increments[t] (level-t array, t = 1..T; index 0 is None) holds the
    realized jump of W into each level-t node. qv[t] is the predictable
    one-step quadratic variation E[(dW_t)^2 | F_{t-1}] on the level t-1
    slots. Whether every martingale is a stochastic integral against W is
    not recorded: where it fails, a backward solution carries a nonzero
    orthogonal remainder M (see bsde.diagnose_solution).

    _halving[t] is set, once when the walk is built, where level t is a
    symmetric-walk level exactly: binary, branch_prob 0.5, increments +1 on
    the first child and -1 on the second, and qv 1.0 (not None). There
    E[y | F_{t-1}] and E[y dW_t | F_{t-1}] / dqv_t are the sum and the
    difference of the halves w = 0.5 * y of each child pair, the floats of
    the generic expectations: multiplying by +-1 and by 1.0 is exact,
    (-y) * 0.5 = -(y * 0.5), and a + (-b) is a - b in IEEE 754. Only the
    sign of a NaN may differ.
    """

    tree: FiltrationTree
    increments: tuple
    qv: tuple

    def __post_init__(self):
        tr, inc, qv = self.tree, self.increments, self.qv
        halving = [False] + [
            bool(tr._binary[t] and qv[t] is not None and np.all(tr.branch_prob[t] == 0.5)
                 and np.all(inc[t][0::2] == 1.0) and np.all(inc[t][1::2] == -1.0) and np.all(qv[t] == 1.0))
            for t in range(1, tr.horizon + 1)
        ]
        object.__setattr__(self, "_halving", tuple(halving))

    def dW(self, t: int) -> np.ndarray:
        return self.increments[t]

    def dqv(self, t: int) -> np.ndarray:
        return self.qv[t]

    def max_abs_dW(self, t: int) -> np.ndarray:
        """Per-slot bound max_children |dW_t| (level t-1 array)."""
        return self.tree.segment_max(np.abs(self.increments[t]), t)

    def sup_abs_dW(self, t: int) -> float:
        return float(np.max(np.abs(self.increments[t])))

    def path_values(self) -> list:
        """W_t along the tree (W_0 = 0), one level-t array per t."""
        return self.tree.path_sums((np.zeros(1),) + self.increments[1:], 0, self.tree.horizon)


def martingale_from_increments(tree: FiltrationTree, increments: Sequence) -> MartingaleSpec:
    """Validate increments and package them with their quadratic variation.

    Rejects non-finite increments, increments whose conditional mean exceeds
    1e-12 in absolute value and increments with conditional variance below
    1e-14. increments[0] is ignored.
    """
    _per_level(tree, increments, "increments")
    inc = [None]
    qv = [None]
    for t in range(1, tree.horizon + 1):
        d = tree.check_level_array(np.asarray(increments[t], dtype=float), t)
        if d.ndim != 1:
            raise LevelMismatch(f"level {t}: increments must be one flat array per level")
        if not np.all(np.isfinite(d)):
            raise TreeError(f"level {t}: increments must be finite")
        mean = tree.condexp_step(d, t)
        if np.max(np.abs(mean)) > MEAN_TOL:
            raise NonMartingaleIncrement(
                f"level {t}: conditional mean reaches {np.max(np.abs(mean)):.3e}"
            )
        q = tree.condexp_step(d * d, t)
        if np.min(q) <= QV_FLOOR:
            raise DegenerateIncrement(f"level {t}: conditional variance collapses")
        inc.append(_readonly(d))
        qv.append(_readonly(q))
    return MartingaleSpec(tree=tree, increments=tuple(inc), qv=tuple(qv))


def symmetric_random_walk(tree: FiltrationTree) -> MartingaleSpec:
    """The +/-1 symmetric walk on a binary half-half tree.

    The first child of every node carries +1, the second -1. Requires a
    binary tree with one-half branch probabilities. With its generated
    filtration every martingale is a stochastic integral against it.
    """
    for t in range(1, tree.horizon + 1):
        if not tree._binary[t]:
            raise NotBinaryTree(f"level {t}: symmetric walk needs exactly 2 children per node")
        if np.max(np.abs(tree.branch_prob[t] - 0.5)) > PROB_TOL:
            raise NotSymmetric(f"level {t}: symmetric walk needs 1/2-1/2 branches")
    increments = [None] + [
        np.tile([1.0, -1.0], tree.n_nodes(t - 1)) for t in range(1, tree.horizon + 1)
    ]
    return martingale_from_increments(tree, increments)


# ---- processes ------------------------------------------------------------


@dataclass(frozen=True)
class AdaptedProcess:
    """A process X_0..X_T with X_t measurable at level t."""

    tree: FiltrationTree
    values: tuple

    def __post_init__(self):
        levels = enumerate(_per_level(self.tree, self.values, "adapted process"))
        vals = tuple(_readonly(self.tree.check_level_array(v, t)) for t, v in levels)
        for t, v in enumerate(vals):
            if not np.all(np.isfinite(v)):
                raise TreeError(f"adapted process holds non-finite values at level {t}")
        object.__setattr__(self, "values", vals)

    def at(self, t: int) -> np.ndarray:
        return self.values[t]

    def future_sum(self, t: int) -> np.ndarray:
        """Leaf-level array of sum_{s=t}^{T} X_s along each path; zero for
        t = T + 1, the empty sum."""
        tr = self.tree
        if t == tr.horizon + 1:
            return np.zeros(tr.n_leaves)
        return tr.path_sums(self.values, t, tr.horizon)[-1]

    def cumulative_through(self, t: int) -> np.ndarray:
        """Level-t array of sum_{s=0}^{t} X_s along each path."""
        return self.tree.path_sums(self.values, 0, t)[-1]

    def scale_from(self, lam: np.ndarray, t: int) -> "AdaptedProcess":
        """The truncating module action: (0,...,0, lam*X_t, ..., lam*X_T).

        lam must be measurable at level t; entries before t are zeroed.
        """
        tr = self.tree
        lam = tr.check_level_array(np.asarray(lam, dtype=float), t)
        vals = [np.zeros(tr.n_nodes(s)) for s in range(t)]
        for s in range(t, tr.horizon + 1):
            vals.append(tr.broadcast(lam, t, s) * self.values[s])
        return AdaptedProcess(self.tree, tuple(vals))

    def add(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return AdaptedProcess(
            self.tree,
            tuple(a + b for a, b in zip(self.values, other.values)),
        )

    def combine(self, other: "AdaptedProcess", lam, t: int) -> "AdaptedProcess":
        """lam *_t self + (1 - lam) *_t other for level-t measurable lam."""
        lam = self.tree.check_level_array(np.asarray(lam, dtype=float), t)
        return self.scale_from(lam, t).add(other.scale_from(1.0 - lam, t))


def tail_payoff(stream: AdaptedProcess, phi: np.ndarray, t: int) -> np.ndarray:
    """phi shares of the stream's payments after t, as a leaf payoff: phi
    at each leaf's level-t ancestor times D_{t+1} + ... + D_T along its path
    (phi times zeros at t = T). phi is level-t measurable and may carry
    leading batch axes."""
    return stream.tree.broadcast(phi, t, stream.tree.horizon) * stream.future_sum(t + 1)


def zero_process(tree: FiltrationTree) -> AdaptedProcess:
    return AdaptedProcess(tree, tuple(np.zeros(tree.n_nodes(t)) for t in range(tree.horizon + 1)))


def single_payment(tree: FiltrationTree, t: int, x) -> AdaptedProcess:
    """The stream paying the level-t amount x at time t and nothing else."""
    vals = [np.zeros(tree.n_nodes(s)) for s in range(tree.horizon + 1)]
    vals[t] = tree.check_level_array(np.broadcast_to(np.asarray(x, float), (tree.n_nodes(t),)), t)
    return AdaptedProcess(tree, tuple(vals))
