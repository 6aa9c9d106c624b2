"""Driver construction, assumption checks, and family validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicfin import (
    NotRandomWalk,
    ParamOutOfRange,
    builtin_driver,
    builtin_family,
    build_tree,
    driver_from_risk_measure,
    is_regular,
    lipschitz_dominance_check,
    martingale_from_increments,
    symmetric_random_walk,
    uniform_binary_tree,
    validate_assumption_A,
    validate_family,
)
from conicfin.drivers import CallableDriver

ZERO_ATOL = 1e-12


def make_walk(horizon=3):
    return symmetric_random_walk(uniform_binary_tree(horizon))


def test_all_builtin_drivers_vanish_at_zero():
    walk = make_walk()
    drivers = [
        builtin_driver("zero", walk),
        builtin_driver("linear", walk, slope=0.4),
        builtin_driver("coherent_abs", walk, c=0.7),
        builtin_driver("logsumexp", walk, K=2.0),
        builtin_driver("entropic", walk, gamma=1.5),
    ]
    for g in drivers:
        for t in range(1, walk.tree.horizon + 1):
            z0 = np.zeros(walk.tree.n_nodes(t - 1))
            assert np.max(np.abs(g.eval(t, z0))) < ZERO_ATOL, g.kind


@given(st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_entropic_divided_differences_within_declared_constant(z1, z2):
    walk = make_walk(2)
    g = builtin_driver("entropic", walk, gamma=0.8)
    if abs(z1 - z2) < 1e-9:
        return
    n = walk.tree.n_nodes(0)
    v1 = g.eval(1, np.full(n, z1))
    v2 = g.eval(1, np.full(n, z2))
    ratio = np.abs(v1 - v2) / abs(z1 - z2)
    assert float(np.max(ratio)) <= g.lipschitz(1).max() + 1e-9


def test_param_range_errors():
    walk = make_walk(2)
    with pytest.raises(ParamOutOfRange):
        builtin_driver("coherent_abs", walk, c=1.0)
    with pytest.raises(ParamOutOfRange):
        builtin_driver("coherent_abs", walk, c=-0.1)
    with pytest.raises(ParamOutOfRange):
        builtin_driver("entropic", walk, gamma=0.0)
    with pytest.raises(ParamOutOfRange):
        builtin_driver("logsumexp", walk, K=-1.0)
    with pytest.raises(ParamOutOfRange, match="takes no parameter"):
        builtin_driver("linear", walk, slop=0.3)
    with pytest.raises(ParamOutOfRange, match="takes no parameter"):
        builtin_driver("zero", walk, c=0.3)


def test_assumption_A_accepts_builtins_and_rejects_non_lipschitz():
    walk = make_walk(2)
    for kind, params in (
        ("zero", {}),
        ("linear", {"slope": 0.3}),
        ("coherent_abs", {"c": 0.5}),
        ("logsumexp", {"K": 1.0}),
        ("entropic", {"gamma": 1.0}),
    ):
        rep = validate_assumption_A(builtin_driver(kind, walk, **params))
        assert rep.passed, (kind, rep)
    sqrt_kink = CallableDriver(
        walk, lambda t, z: np.sqrt(np.abs(z)), lipschitz_const=0.5, convex=False
    )
    rep = validate_assumption_A(sqrt_kink)
    assert not rep.passed
    assert not rep.lipschitz_ok


def test_regularity_margins_and_reasons():
    walk = make_walk(2)
    ok = is_regular(builtin_driver("coherent_abs", walk, c=0.5))
    assert ok.regular and ok.reason == "strict-lipschitz-margin"
    assert abs(ok.margin - 0.5) < 1e-9
    ent = is_regular(builtin_driver("entropic", walk, gamma=1.0))
    assert ent.regular and ent.reason == "certified-comparison"
    steep = CallableDriver(walk, lambda t, z: 1.2 * np.abs(z), lipschitz_const=1.2)
    bad = is_regular(steep)
    assert not bad.regular and bad.reason == "not-regular"


def test_linear_weights_rescue_regularity_on_asymmetric_increments():
    tree = build_tree([[0.25, 0.75], [0.5, 0.5]])
    inc = [None, np.array([3.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])]
    walk = martingale_from_increments(tree, inc)
    lin = is_regular(builtin_driver("linear", walk, slope=1.0 / 3.0))
    assert lin.regular and lin.reason == "linear-positive-weights"


def test_linear_driver_with_nonpositive_weight_is_not_regular():
    walk = make_walk(2)
    rep = is_regular(builtin_driver("linear", walk, slope=1.0))
    assert not rep.regular


def test_lipschitz_dominance_orders_estimated_constants():
    walk = make_walk(2)
    small = builtin_driver("coherent_abs", walk, c=0.3)
    large = builtin_driver("coherent_abs", walk, c=0.8)
    ok, c_small, c_large = lipschitz_dominance_check(small, large)
    assert ok and c_small < c_large
    ok_rev, _, _ = lipschitz_dominance_check(large, small)
    assert not ok_rev


def test_per_slot_levels_match_scalar_levels_exactly():
    walk = make_walk(3)
    tree = walk.tree
    rng = np.random.default_rng(11)
    levels = (0.05, 0.5, 1.0, 3.0, 40.0)
    x_levels = [None] + [rng.choice(levels, size=tree.n_nodes(t - 1)) for t in range(1, 4)]
    for kind in ("coherent", "quasiconcave_lse", "entropic"):
        fam = builtin_family(kind, walk)
        g_slot = fam.make(x_levels)
        flat = {x: fam.make(float(x)) for x in levels}
        for t in range(1, 4):
            z = rng.normal(scale=3.0, size=(7, tree.n_nodes(t - 1)))
            got = g_slot.eval(t, z)
            for v, x in enumerate(x_levels[t]):
                want = flat[x].eval(t, z)[:, v]
                assert np.array_equal(got[:, v], want), (kind, t, v)
                assert g_slot.lipschitz(t)[v] == flat[x].lipschitz(t)[v], (kind, t, v)


def test_family_batteries_pass_for_builtins():
    walk = make_walk(2)
    for kind in ("coherent", "quasiconcave_lse", "entropic"):
        rep = validate_family(builtin_family(kind, walk))
        assert rep.passed, (kind, rep)


def test_family_level_monotonicity_is_pointwise():
    walk = make_walk(2)
    fam = builtin_family("entropic", walk)
    z = np.linspace(-4, 4, 9)
    lo = fam.make(0.5)
    hi = fam.make(2.0)
    for t in (1, 2):
        zz = np.resize(z, walk.tree.n_nodes(t - 1))
        assert np.all(lo.eval(t, zz) <= hi.eval(t, zz) + 1e-12)


def test_positive_homogeneity_flag_only_on_coherent():
    walk = make_walk(2)
    assert builtin_family("coherent", walk).positive_homogeneous
    assert not builtin_family("quasiconcave_lse", walk).positive_homogeneous
    assert not builtin_family("entropic", walk).positive_homogeneous


def test_risk_induced_driver_requires_representation():
    tree = build_tree([[0.3, 0.3, 0.4], [0.5, 0.5]])
    inc = [
        None,
        np.array([1.0, 0.25, -0.9375]),
        np.array([1.0, -1.0] * 3),
    ]
    walk = martingale_from_increments(tree, inc)
    with pytest.raises(NotRandomWalk):
        driver_from_risk_measure(lambda t, X: np.zeros(tree.n_nodes(t)), walk)


def test_entropic_certificate_requires_increments_within_variation():
    tree = build_tree([[0.2, 0.8], [0.2, 0.8]])
    inc = [None, np.array([2.0, -0.5]), np.array([2.0, -0.5, 2.0, -0.5])]
    walk = martingale_from_increments(tree, inc)
    g = builtin_driver("entropic", walk, gamma=1.0)
    assert not g.comparison_certified
    sym = make_walk(2)
    assert builtin_driver("entropic", sym, gamma=1.0).comparison_certified
