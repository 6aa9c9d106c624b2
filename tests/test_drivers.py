"""Driver construction, assumption checks, and family validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicfin import (
    ParamOutOfRange,
    builtin_driver,
    builtin_family,
    build_tree,
    is_regular,
    martingale_from_increments,
    symmetric_random_walk,
    uniform_binary_tree,
    validate_family,
)
from conicfin.drivers import _lncosh_half, _lse3

ZERO_ATOL = 1e-12


def make_walk(horizon=3):
    return symmetric_random_walk(uniform_binary_tree(horizon))


def asymmetric_walk():
    """A 1/4-3/4 step with increments 3, -1, then a symmetric +/-1 step."""
    tree = build_tree([[0.25, 0.75], [0.5, 0.5]])
    inc = [None, np.array([3.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])]
    return martingale_from_increments(tree, inc)


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


@given(
    st.sampled_from(
        [
            ("zero", {}),
            ("linear", {"slope": -0.3}),
            ("coherent_abs", {"c": 0.5}),
            ("logsumexp", {"K": 1.0}),
            ("entropic", {"gamma": 0.8}),
        ]
    ),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_entropic_divided_differences_within_declared_constant(driver, z1, z2):
    """Every builtin driver kind keeps |g(t, z1) - g(t, z2)| / |z1 - z2|
    within its declared Lipschitz constant, slot by slot at every level."""
    walk = make_walk(2)
    kind, params = driver
    g = builtin_driver(kind, walk, **params)
    if abs(z1 - z2) < 1e-9:
        return
    for t in range(1, walk.tree.horizon + 1):
        n = walk.tree.n_nodes(t - 1)
        ratio = np.abs(g.eval(t, np.full(n, z1)) - g.eval(t, np.full(n, z2))) / abs(z1 - z2)
        assert np.all(ratio <= g.lipschitz(t) + 1e-9), (kind, t)


@given(st.floats(min_value=-1.7e308, max_value=1.7e308))
@settings(max_examples=200, deadline=None)
def test_log_cosh_and_log_sum_exp_stay_finite_up_to_the_float_maximum(z):
    """_lncosh_half and _lse3 are finite and nonnegative up to |z| = 1.7e308
    and raise no floating-point warning on the way. Near z = 0, _lse3
    subtracts log(3) from log1p(e^-|z| + e^-2|z|) and can land one rounding
    step of log(3) below zero, so it gets that much slack."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, floor in ((_lncosh_half, 0.0), (_lse3, -np.spacing(np.log(3.0)))):
            v = f(np.array([z, -z]))
            assert np.all(np.isfinite(v)) and np.all(v >= floor), (f.__name__, z, v)


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


def test_regularity_margins_and_reasons():
    walk = make_walk(2)
    ok = is_regular(builtin_driver("coherent_abs", walk, c=0.5))
    assert ok.regular and ok.reason == "strict-lipschitz-margin"
    assert abs(ok.margin - 0.5) < 1e-9
    ent = is_regular(builtin_driver("entropic", walk, gamma=1.0))
    assert ent.regular and ent.reason == "certified-comparison"
    bad = is_regular(builtin_driver("coherent_abs", asymmetric_walk(), c=0.5))
    assert not bad.regular and bad.reason == "not-regular"
    assert abs(bad.margin + 0.5) < 1e-9


def test_linear_weights_rescue_regularity_on_asymmetric_increments():
    walk = asymmetric_walk()
    lin = is_regular(builtin_driver("linear", walk, slope=1.0 / 3.0))
    assert lin.regular and lin.reason == "linear-positive-weights"


def test_linear_driver_with_nonpositive_weight_is_not_regular():
    walk = make_walk(2)
    rep = is_regular(builtin_driver("linear", walk, slope=1.0))
    assert not rep.regular


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


def test_entropic_certificate_requires_increments_within_variation():
    tree = build_tree([[0.2, 0.8], [0.2, 0.8]])
    inc = [None, np.array([2.0, -0.5]), np.array([2.0, -0.5, 2.0, -0.5])]
    walk = martingale_from_increments(tree, inc)
    g = builtin_driver("entropic", walk, gamma=1.0)
    assert not g.comparison_certified
    sym = make_walk(2)
    assert builtin_driver("entropic", sym, gamma=1.0).comparison_certified
