"""Dynamic convex risk measures and acceptability indices on dividend streams.

A dividend stream is an adapted process D_0..D_T. The time-t risk of a
stream under a convex regular driver is the nonlinear expectation of
-(D_t + ... + D_T); the induced functional is local, cash-additive,
monotone for the tail order, convex, and time consistent, and positively
homogeneous drivers make it coherent.

An acceptability index is built from an increasing family of drivers: the
index is the largest family level at which the risk of the stream stays
nonpositive. Values are per-node bisections on [X_MIN, X_MAX] to INDEX_TOL,
vectorized through the family's at_nodes driver: each slot takes the
level of its level-t ancestor, and locality makes each node's value the
one make's driver gives at that node's level.

The family is increasing, so risk does not fall as a node's level rises:
once a node has a feasible level a (risk <= 0) and an infeasible level b,
every bisection midpoint <= a is feasible and every one >= b is infeasible,
with no solve. Each node replays its bisection as far as its bracket (a, b)
decides it, and solves go only to the nodes whose next midpoint lies inside
it (`_index_levels`). Wherever float risk is monotone in the level, the
result is bisection's, bit for bit, and never costs more solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import g_expectation, solve_bsde
from .drivers import Driver, DriverFamily
from .tree import AdaptedProcess, FiltrationTree, single_payment

AXIOM_TOL = 1e-10
INDEX_TOL = 1e-8
X_MIN = 1e-6
X_MAX = 1e6


def risk(driver: Driver, stream: AdaptedProcess, t: int) -> np.ndarray:
    """Time-t risk of the stream: nonlinear expectation of minus its tail sum."""
    return g_expectation(driver, -stream.future_sum(t), driver.tree.horizon, t, driver.walk)


def _risk_at_levels(family: DriverFamily, terminal: np.ndarray, t: int, x_nodes: np.ndarray):
    """Risk per level-t node when node v uses family level x_nodes[v]."""
    return solve_bsde(family.at_nodes(t, x_nodes), terminal, family.walk).Y[t]


def acceptability_index(family: DriverFamily, stream: AdaptedProcess, t: int) -> np.ndarray:
    """Per-node acceptability level of the stream at time t: 0 where X_MIN
    is unacceptable, +inf where X_MAX is acceptable, else bisection's `lo`."""
    terminal = -stream.future_sum(t)
    return _index_levels(lambda x: _risk_at_levels(family, terminal, t, x), family.tree.n_nodes(t))


def _replay(lo, hi, steps, a, b, active):
    """Step each active node's bisection while mid <= a (feasible) or
    mid >= b (infeasible) decides it, up to bisection's stopping rule: every
    node takes as many steps as the one that needs the most to bring
    hi - lo to INDEX_TOL. Returns the new state, the nodes still short of
    that, each stuck at a midpoint strictly inside (a, b), and the midpoints."""
    while True:
        narrow = hi - lo <= INDEX_TOL
        short = active & (~narrow | (steps < steps[active & narrow].max(initial=0)))
        # nodes not short get an empty bracket, so that nothing decides them
        a_short, b_short = np.where(short, a, -np.inf), np.where(short, b, np.inf)
        while True:
            mid = 0.5 * (lo + hi)
            up = mid <= a_short
            down = mid >= b_short
            moved = up | down
            if not moved.any():
                return lo, hi, steps, short, mid
            lo = np.where(up, mid, lo)
            hi = np.where(down, mid, hi)
            steps = steps + moved
            if (moved & (hi - lo <= INDEX_TOL)).any():
                break


def _index_levels(risk_at, n: int) -> np.ndarray:
    """Bisection's per-node levels from fewer calls of risk_at, which maps
    one level per node to one risk per node, nondecreasing in each node's
    own level.

    Bisection calls X_MIN, X_MAX and then each midpoint: after c calls it
    has taken c - 2 steps, 47 in all. Here the first call is the first
    midpoint and the second X_MIN or X_MAX, whichever it leaves open: both
    sentinels and one step in two calls. Each further call probes every
    node stuck after `_replay`. A node s = steps - (c - 2) >= 1 steps ahead
    of bisection may spend a call that decides nothing; one with s = 0
    probes its midpoint, which decides a step. So no node falls behind
    bisection. The off-midpoint probe is the Illinois step in log-level
    between (a, b) (non-finite: the midpoint), kept within s levels of the
    midpoint; while a is still X_MIN, whose risk says little, it is the
    point 1 + s // 2 levels below the midpoint instead, which gains that
    many steps when it is infeasible; and it lies strictly inside (a, b).
    A node whose index is within a few halvings below the first midpoint
    loses its lead to that first probe and takes bisection's count.
    """
    lo = np.full(n, X_MIN)
    hi = np.full(n, X_MAX)
    mid = 0.5 * (lo + hi)
    f_mid = risk_at(mid)
    up = f_mid <= 0.0
    f_far = risk_at(np.where(up, X_MAX, X_MIN))
    calls = 2
    alpha = np.where(up, np.inf, 0.0)
    active = up != (f_far <= 0.0)
    # bracket ends and their Illinois weights: risk, halved at an end kept twice
    a = np.where(up, mid, X_MIN)
    fa = np.where(up, f_mid, f_far)
    b = np.where(up, X_MAX, mid)
    fb = np.where(up, f_far, f_mid)
    last = np.zeros(n)  # +1 after a moved, -1 after b moved
    steps = np.zeros(n, dtype=int)
    while True:
        lo, hi, steps, stuck, mid = _replay(lo, hi, steps, a, b, active)
        if not stuck.any():
            break
        lead = np.maximum(steps + 2 - calls, 0)
        with np.errstate(all="ignore"):
            ua, ub = np.log(a), np.log(b)
            x = np.exp(ub - fb * (ub - ua) / (fb - fa))
        reach = np.ldexp(hi - lo, -1 - lead)
        x = np.clip(np.where(np.isfinite(x), x, mid), lo + reach, hi - reach)
        x = np.where(a == X_MIN, lo + np.ldexp(hi - lo, -2 - lead // 2), x)
        x = np.clip(x, np.nextafter(a, np.inf), np.nextafter(b, -np.inf))
        x = np.where(stuck & (lead > 0), x, np.where(stuck, mid, lo))
        f = risk_at(x)
        calls += 1
        ok = stuck & (f <= 0.0)
        bad = stuck & ~(f <= 0.0)
        fb = np.where(ok & (last > 0), 0.5 * fb, fb)
        fa = np.where(bad & (last < 0), 0.5 * fa, fa)
        a, fa = np.where(ok, x, a), np.where(ok, f, fa)
        b, fb = np.where(bad, x, b), np.where(bad, f, fb)
        last = np.where(ok, 1.0, np.where(bad, -1.0, last))
    return np.where(active, lo, alpha)


# ---- axiom batteries --------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    worst: float
    note: str = ""


@dataclass(frozen=True)
class AxiomReport:
    results: tuple
    passed: bool

    def __getitem__(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _random_streams(tree: FiltrationTree, rng: np.random.Generator, count: int) -> list:
    out = []
    for _ in range(count):
        vals = [rng.normal(size=tree.n_nodes(s)) for s in range(tree.horizon + 1)]
        out.append(AdaptedProcess(tree, tuple(vals)))
    return out


def _nonneg_tail(tree: FiltrationTree, rng: np.random.Generator, t: int) -> AdaptedProcess:
    vals = [np.zeros(tree.n_nodes(s)) for s in range(t)]
    vals += [np.abs(rng.normal(size=tree.n_nodes(s))) for s in range(t, tree.horizon + 1)]
    return AdaptedProcess(tree, tuple(vals))


def _tilted_streams(walk) -> list:
    """Streams whose indices are strictly interior: a small positive mean on
    top of a real downside, so acceptability switches at a finite level.

    Random batteries tend to land on indices of 0 or infinity everywhere,
    which hides any level dependence; these designed payoffs anchor the
    scale-invariance probe."""
    tr = walk.tree
    out = []
    for t_star in sorted({1, tr.horizon}):
        p = np.asarray(walk.path_values()[t_star], dtype=float)
        m = float(np.max(np.abs(p)))
        if m <= 0.0:
            continue
        vals = [np.zeros(tr.n_nodes(t)) for t in range(tr.horizon + 1)]
        vals[t_star] = 0.95 * p / m + 0.05
        out.append(AdaptedProcess(tr, tuple(vals)))
    return out


def _level_lambdas(rng: np.random.Generator, n: int, values=(0.0, 0.25, 0.5, 0.75, 1.0)):
    return rng.choice(np.asarray(values, dtype=float), size=n)


def check_dcrm_axioms(driver: Driver, seed: int = 0) -> AxiomReport:
    """Sampled audit of the convex risk-measure axioms for one driver.

    Locality, convexity, tail monotonicity, cash additivity, one-step time
    consistency, and (for positively homogeneous drivers) positive
    homogeneity are checked on a battery of streams, random localization
    sets, and node-wise weights. Worst violations are reported per axiom.
    """
    tr = driver.tree
    rng = np.random.default_rng(seed)
    streams = _random_streams(tr, rng, 6)
    times = range(tr.horizon + 1)
    rho = lambda D, t: risk(driver, D, t)

    worst = {k: 0.0 for k in ("locality", "convexity", "monotonicity", "cash", "consistency")}
    for D in streams:
        for t in times:
            n = tr.n_nodes(t)
            base = rho(D, t)
            ind = (rng.random(n) < 0.5).astype(float)
            if not ind.any():
                ind[int(rng.integers(n))] = 1.0
            loc = rho(D.scale_from(ind, t), t)
            worst["locality"] = max(worst["locality"], float(np.max(np.abs(ind * (base - loc)))))
            other = streams[int(rng.integers(len(streams)))]
            lam = _level_lambdas(rng, n)
            mix = D.combine(other, lam, t)
            gap = rho(mix, t) - (lam * base + (1.0 - lam) * rho(other, t))
            worst["convexity"] = max(worst["convexity"], float(np.max(gap)))
            bump = _nonneg_tail(tr, rng, t)
            worst["monotonicity"] = max(worst["monotonicity"], float(np.max(rho(D.add(bump), t) - base)))
            s = int(rng.integers(t, tr.horizon + 1))
            m = rng.normal(size=n)
            paid = D.add(single_payment(tr, s, tr.broadcast(m, t, s)))
            worst["cash"] = max(worst["cash"], float(np.max(np.abs(rho(paid, t) - (base - m)))))
            if t < tr.horizon:
                inner = rho(D, t + 1)
                nested = rho(single_payment(tr, t + 1, -inner), t) - D.at(t)
                worst["consistency"] = max(
                    worst["consistency"], float(np.max(np.abs(base - nested)))
                )
    results = [
        AxiomResult("adapted", True, 0.0, "values live on level arrays by construction"),
        AxiomResult("locality", worst["locality"] <= AXIOM_TOL, worst["locality"]),
        AxiomResult("convexity", worst["convexity"] <= AXIOM_TOL, worst["convexity"]),
        AxiomResult("monotonicity", worst["monotonicity"] <= AXIOM_TOL, worst["monotonicity"]),
        AxiomResult("cash_additivity", worst["cash"] <= AXIOM_TOL, worst["cash"]),
        AxiomResult("time_consistency", worst["consistency"] <= AXIOM_TOL, worst["consistency"]),
    ]
    if driver.positive_homogeneous:
        worst_h = 0.0
        for D in streams:
            for t in times:
                n = tr.n_nodes(t)
                lam = rng.choice(np.array([0.0, 0.5, 1.0, 2.0]), size=n)
                gap = np.abs(risk(driver, D.scale_from(lam, t), t) - lam * risk(driver, D, t))
                worst_h = max(worst_h, float(np.max(gap)))
        results.append(AxiomResult("positive_homogeneity", worst_h <= AXIOM_TOL, worst_h))
    passed = all(r.passed for r in results)
    return AxiomReport(results=tuple(results), passed=passed)


def check_dai_axioms(family: DriverFamily, seed: int = 0) -> AxiomReport:
    """Sampled audit of the acceptability-index axioms for one family.

    Locality, quasi-concavity, tail monotonicity, the two directions of
    scale monotonicity, and one-step consistency are checked; exact scale
    invariance is probed separately and reported as scale_invariance with a
    witness note when it fails (expected for families that are not
    positively homogeneous).
    """
    tr = family.tree
    rng = np.random.default_rng(seed)
    streams = _tilted_streams(family.walk) + _random_streams(tr, rng, 3)
    times = range(tr.horizon + 1)
    tol = 200.0 * INDEX_TOL
    alpha = lambda D, t: acceptability_index(family, D, t)

    def gap_below(a, b):
        """max over nodes of (b - a) treating equal infinities as zero gap."""
        both_inf = np.isinf(a) & np.isinf(b)
        with np.errstate(invalid="ignore"):
            diff = np.where(both_inf, 0.0, b - a)
        return float(np.max(diff)) if diff.size else 0.0

    worst = {k: 0.0 for k in ("locality", "quasiconcavity", "monotonicity", "scale")}
    for D in streams:
        for t in times:
            n = tr.n_nodes(t)
            a = alpha(D, t)
            ind = (rng.random(n) < 0.5).astype(float)
            if not ind.any():
                ind[int(rng.integers(n))] = 1.0
            loc = alpha(D.scale_from(ind, t), t)
            on = ind > 0.5
            worst["locality"] = max(worst["locality"], gap_below(loc[on], a[on]), gap_below(a[on], loc[on]))
            other = streams[int(rng.integers(len(streams)))]
            lam = _level_lambdas(rng, n, values=(0.25, 0.5, 0.75))
            mixed = alpha(D.combine(other, lam, t), t)
            floor = np.minimum(a, alpha(other, t))
            worst["quasiconcavity"] = max(worst["quasiconcavity"], gap_below(mixed, floor))
            bump = _nonneg_tail(tr, rng, t)
            worst["monotonicity"] = max(worst["monotonicity"], gap_below(alpha(D.add(bump), t), a))
            lam_small = _level_lambdas(rng, n, values=(0.25, 0.5, 0.75, 1.0))
            worst["scale"] = max(worst["scale"], gap_below(alpha(D.scale_from(lam_small, t), t), a))
            lam_big = _level_lambdas(rng, n, values=(1.0, 1.5, 2.5))
            worst["scale"] = max(worst["scale"], gap_below(a, alpha(D.scale_from(lam_big, t), t)))

    worst_c = 0.0
    vacuous = 0
    for k, D0 in enumerate(streams[:3]):
        for t in range(tr.horizon):
            up = AdaptedProcess(
                tr,
                tuple(np.abs(v) if s == t else v for s, v in enumerate(D0.values)),
            )
            dn_src = streams[(k + 1) % len(streams)]
            dn = AdaptedProcess(
                tr,
                tuple(-np.abs(v) if s == t else v for s, v in enumerate(dn_src.values)),
            )
            a_up = alpha(up, t + 1)
            a_dn = alpha(dn, t + 1)
            lo_up = np.minimum.reduceat(a_up, tr.offsets[t + 1][:-1])
            hi_dn = np.maximum.reduceat(a_dn, tr.offsets[t + 1][:-1])
            m = np.where(
                np.isinf(lo_up) & np.isfinite(hi_dn),
                hi_dn + 1.0,
                0.5 * (lo_up + hi_dn),
            )
            usable = np.isfinite(m) & (lo_up >= hi_dn) & (m > 0.0)
            if not usable.any():
                vacuous += 1
                continue
            au, ad = alpha(up, t), alpha(dn, t)
            m_safe = np.where(usable, m, 0.0)
            bad = np.where(usable, np.maximum(m_safe - au, ad - m_safe), -np.inf)
            worst_c = max(worst_c, float(np.max(np.where(np.isneginf(bad), 0.0, bad))))

    scale_worst = 0.0
    witness = ""
    for D in streams[:3]:
        for t in times:
            n = tr.n_nodes(t)
            base = alpha(D, t)
            for lam_val in (0.25, 0.5, 0.75):
                scaled = alpha(D.scale_from(np.full(n, lam_val), t), t)
                finite = np.isfinite(scaled) & np.isfinite(base)
                if finite.any():
                    g = float(np.max(np.abs(scaled[finite] - base[finite])))
                    if g > scale_worst:
                        scale_worst = g
                        witness = f"lambda={lam_val}, t={t}, gap={g:.3e}"
    results = (
        AxiomResult("adapted", True, 0.0, "values live on level arrays by construction"),
        AxiomResult("locality", worst["locality"] <= tol, worst["locality"]),
        AxiomResult("quasiconcavity", worst["quasiconcavity"] <= tol, worst["quasiconcavity"]),
        AxiomResult("monotonicity", worst["monotonicity"] <= tol, worst["monotonicity"]),
        AxiomResult("scale_monotonicity", worst["scale"] <= tol, worst["scale"]),
        AxiomResult("time_consistency", worst_c <= tol, worst_c, f"vacuous batches: {vacuous}"),
        AxiomResult(
            "scale_invariance",
            scale_worst <= tol,
            scale_worst,
            witness if scale_worst > tol else "invariant on battery",
        ),
    )
    core = [r for r in results if r.name != "scale_invariance"]
    return AxiomReport(results=results, passed=all(r.passed for r in core))
