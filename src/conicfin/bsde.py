"""Backward difference equation solver and induced nonlinear expectations.

The solution of the backward equation with driver g and terminal condition
Y_T is built one level at a time: given Y_t, the martingale-integrand part
is Z_t = E[Y_t dW_t | F_{t-1}] / dqv_t, the orthogonal remainder is
dM_t = Z_t dW_t - (Y_t - E[Y_t | F_{t-1}]), and the value rolls back as
Y_{t-1} = E[Y_t | F_{t-1}] + g(t, Z_t) dqv_t. On the symmetric walk with
its generated filtration the remainder vanishes identically.

On a level of the symmetric walk (MartingaleSpec._halving) the step is
w = 0.5 * Y_t, Z_t = w[2k] - w[2k+1] and Y_{t-1} = (w[2k] + w[2k+1]) +
g(t, Z_t): one halving, not two generic expectations, and the same floats,
since multiplying by +-1 and by dqv_t = 1.0 is exact, (-y) * 0.5 =
-(y * 0.5) and a + (-b) is a - b in IEEE 754. Only a NaN's sign may
differ, which no comparison sees.

solve_bsde keeps Y and Z at every level; g_expectation rolls Y alone back
from a level-s payoff to level t. Both take the same one-level step, _step.
Above s a known payoff has Z = 0 and g(t, 0) = 0, so the full solve only
carries it; on the symmetric walk that carry is exact in floats, so the two
agree bit for bit there, and elsewhere it rounds in the last bits.

All routines accept batched inputs: leading axes of the terminal condition
are carried through every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .drivers import Driver, DriverError, _on_grid, is_regular
from .tree import LevelMismatch, MartingaleSpec

EQ_TOL = 1e-10
COMPARISON_Z_GRID = np.linspace(-8.0, 8.0, 33)


class PreconditionViolated(ValueError):
    """Hypotheses of a comparison-type statement fail on the inputs."""


class MeasureNotEquivalent(ValueError):
    """A linear reweighting produces nonpositive transition probabilities."""


@dataclass(frozen=True)
class BsdeSolution:
    """Backward solution triple; Y[t] lives on level t, Z[t] on level t-1 slots.

    Z[0] is the zero array (convention) and M[0] = 0; M accumulates the
    orthogonal increments forward. M is built from Y, Z and the walk on
    first access and then kept.
    """

    Y: tuple
    Z: tuple
    walk: MartingaleSpec

    @cached_property
    def M(self) -> tuple:
        tr = self.walk.tree
        dM = [self.Z[0]]
        for t in range(1, tr.horizon + 1):
            dM.append(
                np.take(self.Z[t], tr.parent[t], axis=-1) * self.walk.dW(t)
                - self.Y[t]
                + np.take(tr.condexp_step(self.Y[t], t), tr.parent[t], axis=-1)
            )
        return tuple(tr.path_sums(dM, 0, tr.horizon))


def _step(g: Driver, y: np.ndarray, t: int, walk: MartingaleSpec):
    """One level of the backward recursion: (Y_{t-1}, Z_t) from Y_t = y,
    by one halving on a symmetric-walk level (see the module docstring)."""
    tr = walk.tree
    if walk._halving[t]:
        w = 0.5 * tr.check_level_array(y, t)
        z = w[..., 0::2] - w[..., 1::2]
        return (w[..., 0::2] + w[..., 1::2]) + g.eval(t, z), z
    prev = tr.condexp_step(y, t)
    z = tr.condexp_step(y * walk.dW(t), t) / walk.dqv(t)
    return prev + g.eval(t, z) * walk.dqv(t), z


def solve_bsde(g: Driver, terminal, walk: MartingaleSpec) -> BsdeSolution:
    """Solve the backward equation with driver g and leaf condition terminal."""
    tr = walk.tree
    T = tr.horizon
    Y = [None] * (T + 1)
    Z = [None] * (T + 1)
    Y[T] = tr.check_level_array(np.asarray(terminal, dtype=float), T)
    for t in range(T, 0, -1):
        Y[t - 1], Z[t] = _step(g, Y[t], t, walk)
    Z[0] = np.zeros(Y[T].shape[:-1] + (1,))
    return BsdeSolution(Y=tuple(Y), Z=tuple(Z), walk=walk)


@dataclass(frozen=True)
class SolutionDiagnostics:
    bsde_residual: float
    orthogonality_residual: float
    remainder_mean_residual: float
    remainder_sup: float


def diagnose_solution(sol: BsdeSolution, g: Driver, walk: MartingaleSpec) -> SolutionDiagnostics:
    """Residuals of the defining identities; all should sit at round-off."""
    tr = walk.tree
    eq, orth, mean = [], [], []  # per-period maxima; np.max of them keeps a NaN
    for t in range(1, tr.horizon + 1):
        par = tr.parent[t]
        dM = sol.M[t] - np.take(sol.M[t - 1], par, axis=-1)
        lhs = np.take(sol.Y[t - 1], par, axis=-1)
        rhs = (
            sol.Y[t]
            + np.take(g.eval(t, sol.Z[t]) * walk.dqv(t), par, axis=-1)
            - np.take(sol.Z[t], par, axis=-1) * walk.dW(t)
            + dM
        )
        eq.append(np.max(np.abs(lhs - rhs)))
        orth.append(np.max(np.abs(tr.condexp_step(dM * walk.dW(t), t))))
        mean.append(np.max(np.abs(tr.condexp_step(dM, t))))
    return SolutionDiagnostics(
        bsde_residual=float(np.max(eq)),
        orthogonality_residual=float(np.max(orth)),
        remainder_mean_residual=float(np.max(mean)),
        remainder_sup=float(np.max(np.abs(sol.M[tr.horizon]))),
    )


def g_expectation(g: Driver, x, s: int, t: int, walk: MartingaleSpec) -> np.ndarray:
    """Nonlinear conditional expectation of the level-s payoff x at level t.

    Rolls Y alone back from level s to t. For t >= s the result is x lifted
    to level t (the integrand of a known payoff is zero and g(t, 0) = 0),
    with the solve's +0.0 for -0.0 below the horizon. A t outside 0..T
    raises LevelMismatch.
    """
    tr = walk.tree
    T = tr.horizon
    if not 0 <= t <= T:
        raise LevelMismatch(f"level {t} is not one of 0..{T}")
    y = tr.check_level_array(x, s)
    if t == T:
        return tr.broadcast(y, s, T)
    if s < T:
        # The solve reaches level s by a carry from the leaves, which turns
        # -0.0 into +0.0.
        y = y + 0.0
    if t >= s:
        return tr.broadcast(y, s, t)
    for u in range(s, t, -1):
        y = _step(g, y, u, walk)[0]
    return y


# ---- comparison -------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    ordering_ok: bool
    min_gap: float
    strictness_ok: bool
    strictness_worst: float
    equality_nodes: int


def _driver_dominates(g1: Driver, g2: Driver) -> float:
    worst = 0.0
    for t in range(1, g1.tree.horizon + 1):
        gap = _on_grid(g2, t, COMPARISON_Z_GRID) - _on_grid(g1, t, COMPARISON_Z_GRID)
        worst = max(worst, float(np.max(gap)))
    return worst


def compare_solutions(
    g1: Driver, g2: Driver, terminal1, terminal2, walk: MartingaleSpec
) -> ComparisonReport:
    """Order two backward solutions and audit propagation of equality.

    Hypotheses (checked, violations raise PreconditionViolated): the
    terminals are ordered, g1 dominates g2 pointwise on the z grid, and g1
    is regular (a positive strict-Lipschitz margin, a positive linear
    reweighting, or a comparison certificate). Conclusion: Y1 >= Y2 at
    every node; wherever equality holds it propagates to all successors,
    and the two drivers agree along the smaller solution's integrand there.
    """
    tr = walk.tree
    terminal1 = tr.check_level_array(np.asarray(terminal1, dtype=float), tr.horizon)
    terminal2 = tr.check_level_array(np.asarray(terminal2, dtype=float), tr.horizon)
    if np.min(terminal1 - terminal2) < -EQ_TOL:
        raise PreconditionViolated("terminal conditions are not ordered")
    dom = _driver_dominates(g1, g2)
    if dom > EQ_TOL:
        raise PreconditionViolated(f"driver domination fails by {dom:.3e} on the z grid")
    reg = is_regular(g1)
    if not reg.regular:
        raise PreconditionViolated(f"dominating driver is not regular ({reg.reason})")
    s1 = solve_bsde(g1, terminal1, walk)
    s2 = solve_bsde(g2, terminal2, walk)
    min_gap = min(
        float(np.min(s1.Y[t] - s2.Y[t])) for t in range(tr.horizon + 1)
    )
    strict_worst = 0.0
    eq_nodes = 0
    for t in range(tr.horizon + 1):
        eq = np.abs(s1.Y[t] - s2.Y[t]) <= EQ_TOL
        eq_nodes += int(np.count_nonzero(eq))
        if not np.any(eq):
            continue
        mask = eq.astype(float)
        for u in range(t + 1, tr.horizon + 1):
            on_u = tr.broadcast(mask, t, u)
            strict_worst = max(
                strict_worst, float(np.max(on_u * np.abs(s1.Y[u] - s2.Y[u])))
            )
            on_slots = tr.broadcast(mask, t, u - 1)
            drv_gap = np.abs(g1.eval(u, s2.Z[u]) - g2.eval(u, s2.Z[u]))
            strict_worst = max(strict_worst, float(np.max(on_slots * drv_gap)))
    return ComparisonReport(
        ordering_ok=min_gap >= -EQ_TOL,
        min_gap=min_gap,
        strictness_ok=strict_worst <= 10.0 * EQ_TOL,
        strictness_worst=strict_worst,
        equality_nodes=eq_nodes,
    )


# ---- linear structure -------------------------------------------------------


@dataclass(frozen=True)
class LinearMeasure:
    """Equivalent measure under which the linear expectation is plain.

    tree_q carries the reweighted transition probabilities; leaf_density is
    dQ/dP on the leaves.
    """

    tree_q: object
    leaf_density: np.ndarray

    def expectation(self, x, s: int, t: int) -> np.ndarray:
        return self.tree_q.conditional_expectation(x, s, t)


def extract_linear_measure(g: Driver, walk: MartingaleSpec) -> LinearMeasure:
    """Measure change reproducing a linear driver's expectation.

    The level-t transitions are reweighted by 1 + x_t dW_t; the drift of
    these weights is zero, so per-parent sums stay at one. Nonpositive
    weights mean the candidate measure is not equivalent.
    """
    if not g.linear:
        raise DriverError("measure extraction needs a linear driver")
    tr = walk.tree
    new_bp = [None]
    for t in range(1, tr.horizon + 1):
        w = 1.0 + np.take(g.slope(t), tr.parent[t], axis=-1) * walk.dW(t)
        if np.min(w) <= 1e-12:
            raise MeasureNotEquivalent(
                f"level {t}: reweighting 1 + x dW reaches {np.min(w):.3e}"
            )
        q = tr.branch_prob[t] * w
        sums = np.add.reduceat(q, tr.offsets[t][:-1])
        if np.max(np.abs(sums - 1.0)) > 1e-10:
            raise MeasureNotEquivalent(f"level {t}: reweighted transitions drift off 1")
        q = q / np.take(sums, tr.parent[t], axis=-1)
        new_bp.append(q)
    tree_q = tr.with_probabilities(new_bp)
    density = tree_q.leaf_prob / tr.leaf_prob
    return LinearMeasure(tree_q=tree_q, leaf_density=density)
