"""Tree construction, conditional expectations, and adapted processes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicfin import (
    AdaptedProcess,
    DegenerateIncrement,
    FiltrationTree,
    LevelMismatch,
    MartingaleSpec,
    NonMartingaleIncrement,
    NonstochasticProbabilities,
    NotBinaryTree,
    NotSymmetric,
    TreeError,
    build_tree,
    martingale_from_increments,
    single_payment,
    symmetric_random_walk,
    uniform_binary_tree,
    zero_process,
)

import oracles

ATOL = 1e-12


def test_uniform_binary_tree_shapes():
    tree = uniform_binary_tree(3)
    assert tree.horizon == 3
    assert [tree.n_nodes(t) for t in range(4)] == [1, 2, 4, 8]
    assert tree.n_leaves == 8
    assert abs(float(np.sum(tree.leaf_prob)) - 1.0) < ATOL


def test_build_tree_rejects_nonstochastic_rows():
    with pytest.raises(NonstochasticProbabilities):
        build_tree([[0.4, 0.4]])
    with pytest.raises(NonstochasticProbabilities):
        build_tree([[0.5, 0.5], [1.2, -0.2]])
    with pytest.raises(NonstochasticProbabilities, match="parent 0"):
        build_tree([[np.nan, 0.5]])
    with pytest.raises(NonstochasticProbabilities, match="level 2, parent 1"):
        build_tree([[0.5, 0.5], [[0.5, 0.5], [np.inf, 0.5]]])


def test_build_tree_per_parent_branching():
    tree = build_tree([[0.25, 0.75], [[0.5, 0.5], [0.1, 0.2, 0.7]]])
    assert tree.n_nodes(1) == 2
    assert tree.n_nodes(2) == 5
    assert np.allclose(tree.node_prob[2], [0.125, 0.125, 0.075, 0.15, 0.525])


_CHILDREN = st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=4).map(
    lambda w: [x / sum(w) for x in w]
)


@st.composite
def branchings(draw):
    """Horizon 1..4; each level one shared vector or one vector per parent, 1-4 children."""
    levels, n = [], 1
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            levels.append(draw(_CHILDREN))
            n *= len(levels[-1])
        else:
            levels.append([draw(_CHILDREN) for _ in range(n)])
            n = sum(len(p) for p in levels[-1])
    return levels


@given(branchings())
@settings(max_examples=60, deadline=None)
def test_build_tree_matches_per_parent_loop(levels):
    tree = build_tree(levels)
    for key, want in oracles.tree_levels(levels).items():
        got = getattr(tree, key)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g is w is None or np.array_equal(g, np.asarray(w))


@given(branchings())
@settings(max_examples=60, deadline=None)
def test_ancestor_map_is_cached_read_only_and_matches_parent_chains(levels):
    tree = build_tree(levels)
    for u in range(tree.horizon + 1):
        for t in range(u + 1):
            amap = tree.ancestor_map(u, t)
            assert np.array_equal(amap, oracles.ancestor_ids(tree, u, t))
            assert not amap.flags.writeable
            assert tree.ancestor_map(u, t) is amap


@given(branchings(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_path_sums_equal_broadcast_sums_bit_for_bit(levels, seed):
    tree = build_tree(levels)
    T = tree.horizon
    rng = np.random.default_rng(seed)
    D = AdaptedProcess(tree, tuple(rng.normal(size=tree.n_nodes(t)) for t in range(T + 1)))

    def broadcast_sum(x, first, last, u):
        total = np.zeros(x[u].shape)
        for s in range(first, last + 1):
            total = total + tree.broadcast(x[s], s, u)
        return total

    for t in range(T + 2):
        assert np.array_equal(D.future_sum(t), broadcast_sum(D.values, t, T, T))
    for t in range(T + 1):
        assert np.array_equal(D.cumulative_through(t), broadcast_sum(D.values, 0, t, t))
    inc = (None,) + tuple(rng.normal(size=tree.n_nodes(t)) for t in range(1, T + 1))
    paths = MartingaleSpec(tree, inc, (None,) * (T + 1)).path_values()
    assert np.array_equal(paths[0], np.zeros(1))
    for t in range(1, T + 1):
        assert np.array_equal(paths[t], broadcast_sum(inc, 1, t, t))
    batch = [rng.normal(size=(3, tree.n_nodes(t))) for t in range(T + 1)]
    for t, got in enumerate(tree.path_sums(batch, 0, T)):
        assert np.array_equal(got, broadcast_sum(batch, 0, t, t))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_conditional_expectation_matches_leaf_oracle(horizon, seed):
    tree = uniform_binary_tree(horizon)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=tree.n_leaves)
    for t in range(horizon + 1):
        got = tree.conditional_expectation(x, horizon, t)
        want = oracles.conditional_expectation(tree, x, t)
        assert np.max(np.abs(got - want)) < ATOL * 10


def test_conditional_expectation_on_nonuniform_tree():
    tree = build_tree([[0.25, 0.75], [[0.5, 0.5], [0.1, 0.2, 0.7]]])
    rng = np.random.default_rng(7)
    x = rng.normal(size=tree.n_leaves)
    for t in range(3):
        got = tree.conditional_expectation(x, 2, t)
        want = oracles.conditional_expectation(tree, x, t)
        assert np.max(np.abs(got - want)) < 1e-11


def test_frozen_conditional_expectation_value():
    tree = build_tree([[0.25, 0.75]])
    got = tree.conditional_expectation(np.array([4.0, 0.0]), 1, 0)
    assert abs(float(got[0]) - 1.0) < ATOL


def test_broadcast_then_condition_is_identity():
    tree = uniform_binary_tree(4)
    rng = np.random.default_rng(0)
    for t in range(5):
        x = rng.normal(size=tree.n_nodes(t))
        lifted = tree.broadcast(x, t, 4)
        back = tree.conditional_expectation(lifted, 4, t)
        assert np.max(np.abs(back - x)) < ATOL * 10


def test_tower_property_of_condexp():
    tree = uniform_binary_tree(4)
    rng = np.random.default_rng(1)
    x = rng.normal(size=tree.n_leaves)
    via_2 = tree.conditional_expectation(tree.conditional_expectation(x, 4, 2), 2, 1)
    direct = tree.conditional_expectation(x, 4, 1)
    assert np.max(np.abs(via_2 - direct)) < ATOL * 10


def test_level_mismatch_errors():
    tree = uniform_binary_tree(2)
    with pytest.raises(LevelMismatch):
        tree.check_level_array(np.zeros(3), 1)
    with pytest.raises(LevelMismatch):
        tree.conditional_expectation(np.zeros(1), 0, 1)
    with pytest.raises(LevelMismatch):
        tree.broadcast(np.zeros(4), 2, 1)


def test_symmetric_random_walk_properties():
    walk = symmetric_random_walk(uniform_binary_tree(3))
    for t in range(1, 4):
        dw = walk.dW(t)
        assert set(np.unique(dw)) == {-1.0, 1.0}
        cm = walk.tree.condexp_step(dw, t)
        assert np.max(np.abs(cm)) < ATOL
        assert np.max(np.abs(walk.dqv(t) - 1.0)) < ATOL


def test_symmetric_walk_requires_binary_half_half():
    with pytest.raises(NotBinaryTree):
        symmetric_random_walk(build_tree([[0.3, 0.3, 0.4]]))
    with pytest.raises(NotSymmetric):
        symmetric_random_walk(build_tree([[0.25, 0.75]]))


def test_martingale_from_increments_validation():
    tree = uniform_binary_tree(2)
    bad_mean = [None, np.array([1.0, 1.0]), np.array([1.0, -1.0, 1.0, -1.0])]
    with pytest.raises(NonMartingaleIncrement):
        martingale_from_increments(tree, bad_mean)
    degenerate = [None, np.array([0.0, 0.0]), np.array([1.0, -1.0, 1.0, -1.0])]
    with pytest.raises(DegenerateIncrement):
        martingale_from_increments(tree, degenerate)
    for bad in ([np.nan, 1.0], [np.inf, -np.inf]):
        with pytest.raises(TreeError, match="finite"):
            martingale_from_increments(tree, [None, np.array(bad), np.array([1.0, -1.0, 1.0, -1.0])])


def test_martingale_from_increments_custom_qv():
    tree = build_tree([[0.25, 0.75], [0.5, 0.5]])
    inc = [None, np.array([3.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])]
    walk = martingale_from_increments(tree, inc)
    assert abs(float(walk.dqv(1)[0]) - 3.0) < ATOL
    assert np.max(np.abs(walk.dqv(2) - 1.0)) < ATOL


def test_path_values_accumulate_increments():
    walk = symmetric_random_walk(uniform_binary_tree(3))
    paths = walk.path_values()
    assert np.allclose(paths[0], [0.0])
    assert np.allclose(paths[1], [1.0, -1.0])
    assert paths[3].shape == (8,)
    assert float(paths[3][0]) == 3.0


def test_adapted_process_future_sum_and_cumulative():
    tree = uniform_binary_tree(2)
    D = AdaptedProcess(
        tree, (np.array([1.0]), np.array([2.0, 3.0]), np.array([4.0, 5.0, 6.0, 7.0]))
    )
    total = D.future_sum(0)
    assert np.allclose(total, [7.0, 8.0, 10.0, 11.0])
    tail = D.future_sum(1)
    assert np.allclose(tail, [6.0, 7.0, 9.0, 10.0])
    cum = D.cumulative_through(1)
    assert np.allclose(cum, [3.0, 4.0])


def test_adapted_process_rejects_non_finite_values():
    tree = uniform_binary_tree(2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(TreeError, match="non-finite"):
            AdaptedProcess(tree, (np.array([0.0]), np.array([bad, 1.0]), np.zeros(4)))


def test_build_tree_refuses_trees_past_the_node_budget():
    with pytest.raises(TreeError, match="past"):
        uniform_binary_tree(40)
    with pytest.raises(TreeError, match="level 22"):
        uniform_binary_tree(22)
    with pytest.raises(TreeError, match="level 1 "):
        build_tree([np.full(2**22, 2.0**-22)])


def test_truncating_scale_action():
    tree = uniform_binary_tree(2)
    D = AdaptedProcess(
        tree, (np.array([1.0]), np.array([2.0, 3.0]), np.array([4.0, 5.0, 6.0, 7.0]))
    )
    scaled = D.scale_from(np.array([0.5, 2.0]), 1)
    assert np.allclose(scaled.at(0), [0.0])
    assert np.allclose(scaled.at(1), [1.0, 6.0])
    assert np.allclose(scaled.at(2), [2.0, 2.5, 12.0, 14.0])


def test_single_payment_and_zero_process():
    tree = uniform_binary_tree(2)
    z = zero_process(tree)
    assert all(np.max(np.abs(z.at(t))) == 0.0 for t in range(3))
    pay = single_payment(tree, 1, np.array([5.0, -1.0]))
    assert np.allclose(pay.at(1), [5.0, -1.0])
    assert np.max(np.abs(pay.at(2))) == 0.0


def test_with_probabilities_replaces_measure():
    tree = uniform_binary_tree(1)
    tilted = tree.with_probabilities([None, np.array([0.75, 0.25])])
    assert np.allclose(tilted.node_prob[1], [0.75, 0.25])
    x = np.array([4.0, 0.0])
    assert abs(float(tilted.conditional_expectation(x, 1, 0)[0]) - 3.0) < ATOL
    with pytest.raises(NonstochasticProbabilities):
        tree.with_probabilities([None, np.array([np.nan, 0.5])])
