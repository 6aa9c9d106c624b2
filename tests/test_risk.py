"""Dynamic risk measures and acceptability indices on dividend streams."""

import numpy as np
import pytest

from conicfin import (
    AdaptedProcess,
    acceptability_index,
    builtin_driver,
    builtin_family,
    check_dai_axioms,
    check_dcrm_axioms,
    risk,
    single_payment,
    symmetric_random_walk,
    uniform_binary_tree,
    zero_process,
)

import oracles

RISK_ATOL = 1e-10
INDEX_ATOL = 1e-7


def make_walk(horizon=2):
    return symmetric_random_walk(uniform_binary_tree(horizon))


def interior_stream(tree):
    vals = [np.zeros(tree.n_nodes(t)) for t in range(tree.horizon + 1)]
    vals[1] = np.array([1.0, -0.9])
    return AdaptedProcess(tree, tuple(vals))


def test_entropic_risk_matches_exponential_formula():
    walk = make_walk(3)
    tree = walk.tree
    rng = np.random.default_rng(0)
    D = AdaptedProcess(tree, tuple(rng.normal(size=tree.n_nodes(t)) for t in range(4)))
    for gamma in (0.5, 1.0, 2.0):
        g = builtin_driver("entropic", walk, gamma=gamma)
        for t in range(4):
            got = risk(g, D, t)
            total = D.future_sum(t)
            want = gamma * np.log(
                oracles.conditional_expectation(tree, np.exp(-total / gamma), t)
            )
            assert np.max(np.abs(got - want)) < RISK_ATOL


def test_risk_of_zero_stream_is_zero():
    walk = make_walk(2)
    g = builtin_driver("coherent_abs", walk, c=0.5)
    assert np.max(np.abs(risk(g, zero_process(walk.tree), 0))) < RISK_ATOL


def test_dcrm_axioms_entropic_and_logsumexp():
    walk = make_walk(2)
    for kind, params in (("entropic", {"gamma": 1.0}), ("logsumexp", {"K": 2.0})):
        rep = check_dcrm_axioms(builtin_driver(kind, walk, **params))
        assert rep.passed, (kind, [(r.name, r.worst) for r in rep.results if not r.passed])
        names = [r.name for r in rep.results]
        assert "positive_homogeneity" not in names


def test_dcrm_axioms_coherent_includes_homogeneity():
    walk = make_walk(2)
    rep = check_dcrm_axioms(builtin_driver("coherent_abs", walk, c=0.5))
    assert rep.passed
    assert rep["positive_homogeneity"].passed


def test_cash_additivity_is_exact():
    walk = make_walk(2)
    tree = walk.tree
    g = builtin_driver("entropic", walk, gamma=1.0)
    D = interior_stream(tree)
    base = risk(g, D, 1)
    for s in (1, 2):
        m = 0.7
        bumped = D.add(single_payment(tree, s, np.full(tree.n_nodes(s), m)))
        assert np.max(np.abs(risk(g, bumped, 1) - (base - m))) < RISK_ATOL


def test_time_consistency_recursion():
    walk = make_walk(3)
    tree = walk.tree
    rng = np.random.default_rng(1)
    g = builtin_driver("logsumexp", walk, K=1.0)
    D = AdaptedProcess(tree, tuple(rng.normal(size=tree.n_nodes(t)) for t in range(4)))
    for t in range(3):
        inner = risk(g, D, t + 1)
        nested = single_payment(tree, t + 1, -inner)
        lhs = risk(g, D, t)
        rhs = risk(g, nested, t) - D.at(t)
        assert np.max(np.abs(lhs - rhs)) < RISK_ATOL


def test_frozen_one_step_index_value():
    walk = make_walk(2)
    fam = builtin_family("coherent", walk)
    alpha = acceptability_index(fam, interior_stream(walk.tree), 0)
    assert abs(float(alpha[0]) - 1.0 / 18.0) < INDEX_ATOL


def test_index_sentinels_zero_and_infinity():
    walk = make_walk(2)
    tree = walk.tree
    fam = builtin_family("coherent", walk)
    gain = single_payment(tree, 2, np.ones(4))
    assert np.all(np.isinf(acceptability_index(fam, gain, 0)))
    loss = single_payment(tree, 2, -np.ones(4))
    assert np.max(acceptability_index(fam, loss, 0)) == 0.0


def test_index_is_adapted_and_antitone_in_time_shift():
    walk = make_walk(2)
    fam = builtin_family("coherent", walk)
    D = interior_stream(walk.tree)
    a1 = acceptability_index(fam, D, 1)
    assert a1.shape == (2,)
    assert float(a1[0]) > 1e5 or np.isinf(float(a1[0]))
    assert float(a1[1]) == 0.0


def test_dai_axiom_battery_all_families():
    walk = make_walk(2)
    for kind in ("coherent", "quasiconcave_lse", "entropic"):
        rep = check_dai_axioms(builtin_family(kind, walk))
        failed = [(r.name, r.worst) for r in rep.results if not r.passed and r.name != "scale_invariance"]
        assert rep.passed, (kind, failed)


def test_scale_invariance_separates_homogeneous_families():
    walk = make_walk(2)
    coh = check_dai_axioms(builtin_family("coherent", walk))
    assert coh["scale_invariance"].passed
    lse = check_dai_axioms(builtin_family("quasiconcave_lse", walk))
    assert not lse["scale_invariance"].passed
    assert "lambda=" in lse["scale_invariance"].note
    ent = check_dai_axioms(builtin_family("entropic", walk))
    assert not ent["scale_invariance"].passed


def test_level_set_duality_on_interior_stream():
    """{index >= gamma} is {level-gamma risk <= 0} at every node that sits
    away from the boundary: the index at t = 0 is 1/18, at t = 1 it is
    +inf (or past 1e5) and 0."""
    walk = make_walk(2)
    fam = builtin_family("coherent", walk)
    D = interior_stream(walk.tree)
    for t in (0, 1):
        alpha = acceptability_index(fam, D, t)
        for gamma in (1.0 / 36.0, 1.0 / 9.0):
            val = risk(fam.make(gamma), D, t)
            assert np.all(np.abs(alpha - gamma) > 1e-6) and np.all(np.abs(val) > 1e-10)
            assert np.array_equal(alpha >= gamma, val <= 0.0), (t, gamma, alpha, val)
