"""Driver construction, assumption checks, and family validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicfin import (
    LevelMismatch,
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

import oracles

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
    and raise no floating-point warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (_lncosh_half, _lse3):
            v = f(np.array([z, -z]))
            assert np.all(np.isfinite(v)) and np.all(v >= 0.0), (f.__name__, z, v)


@given(
    kind=st.sampled_from(["coherent", "quasiconcave_lse", "entropic", "logsumexp"]),
    level=st.floats(min_value=1e-6, max_value=1e6),
    z=st.one_of(
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=5e-17, max_value=2e-8),
        st.floats(min_value=-2e-8, max_value=-5e-17),
    ),
)
@settings(max_examples=300, deadline=None)
def test_builtin_drivers_are_nonnegative_and_vanish_at_zero(kind, level, z):
    """g(t, z) >= 0 = g(t, +-0.0) in floats for every builtin family at
    levels in [1e-6, 1e6] and for the logsumexp driver, also in the band
    near z = 0 where the lse formula subtracts log(3) from a value that
    rounds to it."""
    walk = make_walk(2)
    if kind == "logsumexp":
        g = builtin_driver("logsumexp", walk, K=level)
    else:
        g = builtin_family(kind, walk).make(level)
    for t in range(1, walk.tree.horizon + 1):
        n = walk.tree.n_nodes(t - 1)
        assert np.all(g.eval(t, np.full(n, z)) >= 0.0), (kind, level, z, t)
        for zero in (0.0, -0.0):
            assert np.all(g.eval(t, np.full(n, zero)) == 0.0), (kind, level, zero, t)


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
    for kind, name in (("linear", "slope"), ("coherent_abs", "c"), ("logsumexp", "K"),
                       ("entropic", "gamma")):
        with pytest.raises(ParamOutOfRange, match=f"needs parameter \\['{name}'\\]"):
            builtin_driver(kind, walk)


@pytest.mark.parametrize(
    "kind, name", [("linear", "slope"), ("coherent_abs", "c"), ("logsumexp", "K"), ("entropic", "gamma")]
)
def test_driver_parameters_are_finite_real_numbers(kind, name):
    """A string, a boolean, None or a nested list is no parameter, and NaN
    or an infinity is refused, in a per-period or per-slot entry too; numpy
    scalars and 0-d arrays are the float they hold."""
    walk = make_walk(2)
    per_period = kind != "logsumexp"
    lists = ([0.5, "0.5"], [0.5, [0.5, False]], [0.5, [[0.5]]])
    for bad in ("0.5", True, None, np.bool_(True)) + per_period * lists:
        with pytest.raises(ParamOutOfRange, match="must hold only numbers"):
            builtin_driver(kind, walk, **{name: bad})
    for bad in (np.nan, np.inf, -np.inf) + per_period * ([0.5, np.nan], [None, 0.5, [0.5, np.inf]]):
        with pytest.raises(ParamOutOfRange, match="needs"):
            builtin_driver(kind, walk, **{name: bad})
    z = np.array([-2.0, 2.0])
    want = builtin_driver(kind, walk, **{name: 0.5}).eval(2, z)
    for same in (np.float64(0.5), np.float32(0.5), np.array(0.5)):
        assert np.array_equal(builtin_driver(kind, walk, **{name: same}).eval(2, z), want)


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
    """at_nodes(t, x) evaluates, slot by slot, as make at the level of the
    slot's level-t ancestor after t, and as make(1.0) up to t; it refuses a
    level t outside 0..T and a level array that is not one level per node."""
    walk = make_walk(3)
    tree = walk.tree
    rng = np.random.default_rng(11)
    levels = (0.05, 0.5, 1.0, 3.0, 40.0)
    for kind in ("coherent", "quasiconcave_lse", "entropic"):
        fam = builtin_family(kind, walk)
        flat = {x: fam.make(x) for x in levels}
        for t in range(3):
            x_nodes = rng.choice(levels, size=tree.n_nodes(t))
            g_node = fam.at_nodes(t, x_nodes)
            for u in range(1, 4):
                z = rng.normal(scale=3.0, size=(7, tree.n_nodes(u - 1)))
                got = g_node.eval(u, z)
                x_slots = x_nodes[oracles.ancestor_ids(tree, u - 1, t)] if u > t else np.ones(tree.n_nodes(u - 1))
                for v, x in enumerate(x_slots.tolist()):
                    want = flat[x].eval(u, z)[:, v]
                    assert np.array_equal(got[:, v], want), (kind, t, u, v)
                    assert g_node.lipschitz(u)[v] == flat[x].lipschitz(u)[v], (kind, t, u, v)
        for t, x_nodes in ((1, [1.0, 2.0, 50.0]), (4, [1.0]), (-1, [1.0]), (1, [1.0]), (1, [[1.0, 2.0]] * 2)):
            with pytest.raises(LevelMismatch):
                fam.at_nodes(t, x_nodes)


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


@pytest.mark.parametrize("kind", ["coherent", "quasiconcave_lse", "entropic"])
def test_a_family_level_is_a_real_number(kind):
    """make refuses a string, a boolean or None as its level, as the
    driver parameters are refused; a numpy scalar is the float it holds."""
    fam = builtin_family(kind, make_walk(2))
    for bad in ("2", True, None):
        with pytest.raises(ParamOutOfRange, match="family level must hold only numbers"):
            fam.make(bad)
    z = np.array([-2.0, 2.0])
    assert np.array_equal(fam.make(np.float64(2.0)).eval(2, z), fam.make(2.0).eval(2, z))


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
