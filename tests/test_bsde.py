"""Backward solver, nonlinear expectations, comparison, linear measures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conicfin import (
    MeasureNotEquivalent,
    PreconditionViolated,
    builtin_driver,
    builtin_family,
    build_tree,
    compare_solutions,
    diagnose_solution,
    extract_linear_measure,
    g_expectation,
    martingale_from_increments,
    solve_bsde,
    symmetric_random_walk,
    uniform_binary_tree,
)

import oracles

SOLVER_ATOL = 1e-10
ORACLE_ATOL = 1e-9

# Payoff entries for the bit-for-bit checks: signed zeros and finite values
# away from the subnormal range, where halving a value (the one-half carry
# of a constant across two siblings) would round.
PAYOFF_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-50.0, max_value=50.0).filter(lambda v: v == 0.0 or abs(v) > 1e-300),
)


def make_walk(horizon=3):
    return symmetric_random_walk(uniform_binary_tree(horizon))


@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["zero", "coherent_abs", "logsumexp", "entropic"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_vectorized_solver_matches_scalar_recursion(horizon, kind, seed):
    walk = make_walk(horizon)
    params = {"coherent_abs": {"c": 0.6}, "logsumexp": {"K": 1.5}, "entropic": {"gamma": 1.2}}
    g = builtin_driver(kind, walk, **params.get(kind, {}))
    rng = np.random.default_rng(seed)
    terminal = rng.normal(size=walk.tree.n_leaves)
    sol = solve_bsde(g, terminal, walk)
    want = oracles.brute_force_solve(g, terminal, walk)
    for t in range(horizon + 1):
        assert np.max(np.abs(sol.Y[t] - want[t])) < SOLVER_ATOL


def test_entropic_solution_matches_closed_form_at_every_node():
    walk = make_walk(4)
    rng = np.random.default_rng(3)
    X = rng.normal(size=walk.tree.n_leaves)
    for gamma in (0.5, 1.0, 2.0):
        g = builtin_driver("entropic", walk, gamma=gamma)
        sol = solve_bsde(g, X, walk)
        for t in range(5):
            want = oracles.entropic_conditional(walk.tree, X, t, gamma)
            assert np.max(np.abs(sol.Y[t] - want)) < ORACLE_ATOL


def test_solution_diagnostics_are_machine_small():
    walk = make_walk(3)
    rng = np.random.default_rng(5)
    g = builtin_driver("entropic", walk, gamma=0.7)
    sol = solve_bsde(g, rng.normal(size=8), walk)
    diag = diagnose_solution(sol, g, walk)
    assert diag.bsde_residual < SOLVER_ATOL
    assert diag.orthogonality_residual < SOLVER_ATOL
    assert diag.remainder_mean_residual < SOLVER_ATOL


def test_remainder_vanishes_under_predictable_representation():
    walk = make_walk(3)
    rng = np.random.default_rng(6)
    g = builtin_driver("coherent_abs", walk, c=0.4)
    sol = solve_bsde(g, rng.normal(size=8), walk)
    diag = diagnose_solution(sol, g, walk)
    assert diag.remainder_sup < SOLVER_ATOL


def test_remainder_nonzero_without_representation():
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.5]])
    inc = [
        None,
        np.array([1.5, 0.0, -1.5]),
        np.array([1.0, -1.0] * 3),
    ]
    walk = martingale_from_increments(tree, inc)
    rng = np.random.default_rng(7)
    g = builtin_driver("zero", walk)
    sol = solve_bsde(g, rng.normal(size=tree.n_leaves), walk)
    diag = diagnose_solution(sol, g, walk)
    assert diag.bsde_residual < SOLVER_ATOL
    assert diag.remainder_sup > 1e-3


def test_lazy_remainder_equals_the_eager_formula_bit_for_bit():
    """sol.M, built on first access, equals the forward sum of
    dM_t = Z_t dW_t - Y_t + E[Y_t | F_{t-1}] as written out here."""
    tree = build_tree([[1 / 3, 1 / 3, 1 / 3], [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]]])
    inc = [None, np.array([1.5, 0.0, -1.5]), np.array([1.0, -1.0, 1.5, -0.5, 2.0, -2.0])]
    walk = martingale_from_increments(tree, inc)
    rng = np.random.default_rng(8)
    g = builtin_driver("entropic", walk, gamma=0.8)
    sol = solve_bsde(g, rng.normal(size=(2, tree.n_leaves)), walk)
    want = [np.zeros((2, 1)) + 0.0]
    for t in range(1, tree.horizon + 1):
        par = tree.parent[t]
        prev = tree.condexp_step(sol.Y[t], t)
        dM = np.take(sol.Z[t], par, axis=-1) * walk.dW(t) - sol.Y[t] + np.take(prev, par, axis=-1)
        want.append(np.take(want[-1], par, axis=-1) + dM)
    M = sol.M
    assert np.max(np.abs(M[tree.horizon])) > 1e-3
    assert len(M) == len(want)
    for got, w in zip(M, want):
        assert np.array_equal(got, w)
    assert sol.M is M


def test_batched_terminals_solve_together():
    walk = make_walk(2)
    rng = np.random.default_rng(8)
    g = builtin_driver("entropic", walk, gamma=1.0)
    batch = rng.normal(size=(5, 4))
    sol = solve_bsde(g, batch, walk)
    assert sol.Y[0].shape == (5, 1)
    for i in range(5):
        single = solve_bsde(g, batch[i], walk)
        assert np.max(np.abs(sol.Y[0][i] - single.Y[0])) < SOLVER_ATOL


def test_g_expectation_constants_and_tower():
    walk = make_walk(3)
    g = builtin_driver("logsumexp", walk, K=2.0)
    const = np.full(walk.tree.n_leaves, 3.25)
    y = g_expectation(g, const, 3, 0, walk)
    assert abs(float(y[0]) - 3.25) < SOLVER_ATOL
    rng = np.random.default_rng(9)
    X = rng.normal(size=8)
    inner = g_expectation(g, X, 3, 2, walk)
    nested = g_expectation(g, inner, 2, 0, walk)
    direct = g_expectation(g, X, 3, 0, walk)
    assert np.max(np.abs(nested - direct)) < SOLVER_ATOL


@given(
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["coherent", "quasiconcave_lse", "entropic"]),
    st.floats(min_value=0.1, max_value=8.0),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_g_expectation_equals_the_full_solve_bit_for_bit(horizon, kind, level, data):
    """The Y-only roll-back from level s equals the solve of the payoff lifted
    to the leaves, read at t: values and zero signs, for t below, at and
    above s, unbatched and batched."""
    walk = make_walk(horizon)
    tr = walk.tree
    s = data.draw(st.integers(min_value=0, max_value=horizon))
    t = data.draw(st.integers(min_value=0, max_value=horizon))
    batch = data.draw(st.sampled_from([(), (1,), (3,)]))
    x = data.draw(arrays(float, batch + (tr.n_nodes(s),), elements=PAYOFF_ENTRIES))
    g = builtin_family(kind, walk).make(level)
    got = g_expectation(g, x, s, t, walk)
    want = solve_bsde(g, tr.broadcast(x, s, horizon), walk).Y[t]
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_g_expectation_lift_carries_the_solve_zero_signs():
    """At or above the payoff's level the result is the payoff lifted along
    the tree, with +0.0 for -0.0 below the horizon as the solve gives."""
    walk = make_walk(3)
    g = builtin_driver("entropic", walk, gamma=1.0)
    x = np.array([-0.0, 2.5])
    for t in (1, 2):
        got = g_expectation(g, x, 1, t, walk)
        assert np.array_equal(got, walk.tree.broadcast(x, 1, t))
        assert not np.any(np.signbit(got))
    leaves = g_expectation(g, x, 1, 3, walk)
    assert np.array_equal(np.signbit(leaves), np.repeat([True, False], 4))


def test_comparison_orders_solutions_with_dominating_driver():
    walk = make_walk(3)
    g1 = builtin_driver("entropic", walk, gamma=1.0)
    g2 = builtin_driver("zero", walk)
    rng = np.random.default_rng(10)
    x2 = rng.normal(size=8)
    x1 = x2 + np.abs(rng.normal(size=8))
    rep = compare_solutions(g1, g2, x1, x2, walk)
    assert rep.ordering_ok
    assert rep.min_gap >= -1e-12


def test_comparison_strictness_propagates_equality():
    walk = make_walk(3)
    g = builtin_driver("coherent_abs", walk, c=0.5)
    rng = np.random.default_rng(11)
    x2 = rng.normal(size=8)
    bump = np.abs(rng.normal(size=8))
    bump[:4] = 0.0
    rep = compare_solutions(g, g, x2 + bump, x2, walk)
    assert rep.ordering_ok
    assert rep.strictness_ok
    assert rep.equality_nodes == 7


def test_comparison_rejects_unordered_terminals():
    walk = make_walk(2)
    g = builtin_driver("zero", walk)
    with pytest.raises(PreconditionViolated):
        compare_solutions(g, g, np.array([1.0, 0, 0, 0]), np.array([2.0, 0, 0, 0]), walk)


def test_comparison_rejects_undominated_driver_pair():
    walk = make_walk(2)
    small = builtin_driver("coherent_abs", walk, c=0.2)
    big = builtin_driver("coherent_abs", walk, c=0.8)
    x = np.ones(4)
    with pytest.raises(PreconditionViolated):
        compare_solutions(small, big, x + 1.0, x, walk)


def test_comparison_rejects_irregular_dominating_driver():
    """0.5|z| dominates the zero driver, but on increments 3, -1 its margin
    1 - 0.5 * 3 is negative and no certificate applies."""
    tree = build_tree([[0.25, 0.75], [0.5, 0.5]])
    inc = [None, np.array([3.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])]
    walk = martingale_from_increments(tree, inc)
    steep = builtin_driver("coherent_abs", walk, c=0.5)
    zero = builtin_driver("zero", walk)
    with pytest.raises(PreconditionViolated, match="not regular"):
        compare_solutions(steep, zero, np.ones(4), np.zeros(4), walk)


def test_linear_driver_reduces_to_reweighted_expectation():
    walk = make_walk(3)
    slopes = [None, 0.5, -0.3, 0.8]
    g = builtin_driver("linear", walk, slopes=slopes[1:])
    rng = np.random.default_rng(12)
    X = rng.normal(size=8)
    got = g_expectation(g, X, 3, 0, walk)
    want = oracles.reweighted_expectation(walk, slopes, X, 0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_frozen_linear_measure_weights():
    walk = make_walk(1)
    g = builtin_driver("linear", walk, slope=0.5)
    mq = extract_linear_measure(g, walk)
    assert np.allclose(mq.tree_q.branch_prob[1], [0.75, 0.25], atol=1e-12)


def test_linear_measure_requires_equivalent_weights():
    walk = make_walk(2)
    g = builtin_driver("linear", walk, slope=1.0)
    with pytest.raises(MeasureNotEquivalent):
        extract_linear_measure(g, walk)

