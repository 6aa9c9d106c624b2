"""Dynamic risk measures and acceptability indices on dividend streams."""

import os
import sys

import numpy as np
import pytest

from conicfin import (
    AdaptedProcess,
    ParamOutOfRange,
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
from conicfin.scenario import load_scenario

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402

# `conicfin.risk` the attribute is the function; the module holds the helpers
risk_module = sys.modules["conicfin.risk"]

RISK_ATOL = 1e-10
INDEX_ATOL = 1e-7
BISECTION_CALLS = 2 + 47


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


# ---- bracket replay against bisection ----------------------------------------


def reference_bisection(risk_at, n):
    """The per-node bisection acceptability_index ran before its bracket
    replay, kept verbatim but for the risk call: risk_at(x) is
    `_risk_at_levels(family, terminal, t, x)` there."""
    INDEX_TOL, X_MIN, X_MAX = risk_module.INDEX_TOL, risk_module.X_MIN, risk_module.X_MAX
    lo = np.full(n, X_MIN)
    hi = np.full(n, X_MAX)
    feas_lo = risk_at(lo) <= 0.0
    feas_hi = risk_at(hi) <= 0.0
    alpha = np.empty(n)
    alpha[~feas_lo] = 0.0
    alpha[feas_hi] = np.inf
    active = feas_lo & ~feas_hi
    while np.any(active & (hi - lo > INDEX_TOL)):
        mid = np.where(active, 0.5 * (lo + hi), lo)
        feas = risk_at(mid) <= 0.0
        take_lo = active & feas
        take_hi = active & ~feas
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_hi, mid, hi)
    alpha[active] = lo[active]
    return alpha


def bisection_index(family, stream, t):
    """reference_bisection on the risk acceptability_index bisects."""
    terminal = -stream.future_sum(t)
    risk_at = lambda x: risk_module._risk_at_levels(family, terminal, t, x)  # noqa: E731
    return reference_bisection(risk_at, family.tree.n_nodes(t))


class Calls:
    """A risk oracle that counts its calls."""

    def __init__(self, fn):
        self.fn, self.count = fn, 0

    def __call__(self, *args):
        self.count += 1
        return self.fn(*args)


FAMILIES = ("coherent", "quasiconcave_lse", "entropic")


def test_index_equals_bisection_bit_for_bit_on_the_small_walk():
    walk = make_walk(2)
    tree = walk.tree
    streams = risk_module._tilted_streams(walk)
    streams += risk_module._random_streams(tree, np.random.default_rng(3), 4)
    streams += [
        single_payment(tree, 2, np.ones(4)),
        single_payment(tree, 2, -np.ones(4)),
        interior_stream(tree),
    ]
    for kind in FAMILIES:
        fam = builtin_family(kind, walk)
        for D in streams:
            for t in range(tree.horizon + 1):
                want = bisection_index(fam, D, t)
                got = acceptability_index(fam, D, t)
                assert np.array_equal(got, want), (kind, t, got, want)


@pytest.mark.parametrize("seed", [1, 100])
def test_index_equals_bisection_bit_for_bit_on_lattice_streams(seed, monkeypatch):
    """Every level of the lattice_quotes dividend stream at horizon 8: most
    nodes carry a finite index there, so the replay does real work, and it
    takes well under half of bisection's solves."""
    scn = load_scenario(workloads.lattice_quotes(seed, horizon=8)[0].config)
    D = scn.streams["div"]
    finite = 0
    solves = []
    for kind in FAMILIES:
        fam = scn.families[kind]
        for t in range(scn.walk.tree.horizon + 1):
            want = bisection_index(fam, D, t)
            with monkeypatch.context() as m:
                counted = Calls(risk_module._risk_at_levels)
                m.setattr(risk_module, "_risk_at_levels", counted)
                got = acceptability_index(fam, D, t)
            assert np.array_equal(got, want), (kind, t)
            assert counted.count <= BISECTION_CALLS
            if np.any(np.isfinite(want) & (want > 0)):
                solves.append(counted.count)
            finite += int(np.sum(np.isfinite(want) & (want > 0)))
    assert finite > 100
    assert np.median(solves) <= 20, solves


@pytest.mark.parametrize("kind", FAMILIES)
def test_index_drivers_match_make_on_gathered_levels_bit_for_bit(kind):
    """The per-node driver of an index solve holds make's parameters, float
    for float, and its risk is the oracle's at t = 0 and at an interior t,
    on random levels over [X_MIN, X_MAX] and on both ends."""
    walk = make_walk(6)
    tree = walk.tree
    fam = builtin_family(kind, walk)
    rng = np.random.default_rng(23)
    terminal = rng.normal(size=tree.n_leaves) * 3.0
    for t in (0, 3):
        n = tree.n_nodes(t)
        x = np.exp(rng.uniform(np.log(risk_module.X_MIN), np.log(risk_module.X_MAX), size=n))
        x[[0, -1]] = risk_module.X_MIN, risk_module.X_MAX
        g = fam.at_nodes(t, x)
        want = fam.make([np.take(x, oracles.ancestor_ids(tree, u - 1, t)) if u > t else 1.0
                         for u in range(1, tree.horizon + 1)])
        for u in range(1, tree.horizon + 1):
            got_p, want_p = getattr(g, g.param_name)[u], getattr(want, want.param_name)[u]
            assert np.asarray(got_p).tobytes() == np.asarray(want_p).tobytes(), (t, u)
        got = risk_module._risk_at_levels(fam, terminal, t, x)
        assert got.tobytes() == oracles.gathered_level_risk(fam, terminal, t, x).tobytes(), t


@pytest.mark.parametrize("kind", FAMILIES)
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_index_drivers_refuse_the_levels_make_refuses(kind, bad):
    walk = make_walk(3)
    fam = builtin_family(kind, walk)
    terminal = np.ones(walk.tree.n_leaves)
    for levels in (bad, [None, 1.0, np.array([1.0, bad]), 1.0]):
        with pytest.raises(ParamOutOfRange):
            fam.make(levels)
    with pytest.raises(ParamOutOfRange):
        risk_module._risk_at_levels(fam, terminal, 1, np.array([1.0, bad]))


def test_a_coherent_level_whose_share_rounds_to_one_is_refused():
    """x/(x+1) is 1.0 at x = 2**53, outside the coherent driver's c < 1."""
    fam = builtin_family("coherent", make_walk(3))
    assert fam.param(2.0**53) == 1.0
    with pytest.raises(ParamOutOfRange, match="0 <= c < 1"):
        fam.make(2.0**53)
    with pytest.raises(ParamOutOfRange, match="0 <= c < 1"):
        risk_module._risk_at_levels(fam, np.ones(8), 1, np.array([2.0**53, 1.0]))


def test_benchmark_sized_index_takes_under_half_of_bisections_solves(monkeypatch):
    """The index jobs of lattice_quotes as the benchmark runs them: 128
    nodes at t = 7 of a 16,384-leaf tree, most with a finite index. Every
    node has to leave X_MIN's far end behind before interpolation pays."""
    scn = load_scenario(workloads.lattice_quotes(100)[0].config)
    D = scn.streams["div"]
    for kind in ("coherent", "entropic"):
        fam = scn.families[kind]
        want = bisection_index(fam, D, 7)
        counted = Calls(risk_module._risk_at_levels)
        monkeypatch.setattr(risk_module, "_risk_at_levels", counted)
        assert np.array_equal(acceptability_index(fam, D, 7), want), kind
        monkeypatch.undo()
        assert np.sum(np.isfinite(want) & (want > 0)) > 100
        assert counted.count <= 24, (kind, counted.count)


def test_bracket_replay_never_calls_more_than_bisection_on_a_step():
    """A step in the level gives interpolation nothing to work with: the
    count may not pass bisection's, and the levels must be bisection's.
    The steps sit log-uniformly over the whole bracket, on bisection
    midpoints, next to them, and at the sentinels' ends."""
    rng = np.random.default_rng(7)
    first = 0.5 * (risk_module.X_MIN + risk_module.X_MAX)
    edges = np.concatenate(
        [
            np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 200)),
            [first, np.nextafter(first, 0.0), 0.5 * first, 0.75 * first, 1.5 * first],
            [1e-6, 2e-6, 1e6, 0.5, 3.0, 1e-7, 2e6],
        ]
    )
    for values in ((-1.0, 1.0), (0.0, 1.0), (-1.0, 1e-300)):
        step = Calls(lambda x: np.where(x <= edges, *values))
        got = risk_module._index_levels(step, edges.size)
        assert step.count <= BISECTION_CALLS
        assert np.array_equal(got, reference_bisection(step.fn, edges.size)), values
        for k in rng.integers(0, edges.size, 20):
            one = Calls(lambda x: np.where(x <= edges[k], *values))
            assert np.array_equal(risk_module._index_levels(one, 1), got[k : k + 1])
            assert one.count <= BISECTION_CALLS


def test_bracket_replay_takes_few_calls_on_a_smooth_sigmoid():
    """Risk a smooth sigmoid in log-level, with roots spread over eight
    decades: the Illinois steps settle every node within 25 calls, and the
    levels are still bisection's.

    Roots within about three halvings below the first midpoint (above 6e4)
    are where the first probes, which drop below the midpoint while the
    feasible end is still X_MIN, land on the feasible side: those nodes use
    up their one call of lead and take bisection's count, no more."""
    rng = np.random.default_rng(11)
    roots = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 256))
    high = np.array([6.3e4, 1.3e5, 2.6e5, 4.9e5])
    for width in (0.5, 1.0, 3.0):
        sigmoid = Calls(lambda x: np.tanh((np.log(x) - np.log(roots)) / width))
        got = risk_module._index_levels(sigmoid, roots.size)
        assert sigmoid.count <= 25, (width, sigmoid.count)
        assert np.array_equal(got, reference_bisection(sigmoid.fn, roots.size))
        top = Calls(lambda x: np.tanh((np.log(x) - np.log(high)) / width))
        got = risk_module._index_levels(top, high.size)
        assert top.count <= BISECTION_CALLS
        assert np.array_equal(got, reference_bisection(top.fn, high.size))
