"""Driver functions g(t, z) for backward difference equations.

A driver is predictable (its time-t coefficients are known on the level t-1
slots), uniformly Lipschitz in z, and vanishes at z = 0. Drivers evaluate
elementwise: z arrays of shape (..., n_{t-1}) map to the same shape, with
per-slot coefficients broadcast along the last axis.

Each formula lives in one driver class. Its parameters are one value or one
value per period, and a period's value may itself vary over the level t-1
slots. A builtin driver kind is its class: builtin_driver takes the
parameters of the class's constructor. A builtin family x -> g_x is one row
of _FAMILY_KINDS, a driver class and a level map (coherent: CoherentAbsDriver
with c = x/(x+1); quasiconcave_lse: LseDriver with c = x/(x+1); entropic:
EntropicDriver with gamma = 1/x): make(x) at one level, at_nodes(t, x) at
one per level-t node, slot by slot bit-identical.

"Regular" means the one-step comparison argument applies to the driver. A
positive strict-Lipschitz margin (max_t sup |c_t dW_t| < 1) is sufficient;
linear drivers qualify when every reweighting 1 + x_t dW_t stays positive;
the entropic driver qualifies on trees where max |dW_t| never exceeds the
one-step quadratic variation, because its divided differences then stay
strictly inside the unit reweighting band. That certificate is carried by
the comparison_certified flag.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tree import LevelMismatch, MartingaleSpec

CERT_TOL = 1e-12


class DriverError(ValueError):
    """Base class for driver construction and validation failures."""


class ParamOutOfRange(DriverError):
    """A driver parameter violates its admissible range."""


def _lncosh_half(a: np.ndarray) -> np.ndarray:
    """log(0.5*exp(-a) + 0.5*exp(a)) = log cosh(a), as |a| + log1p((exp(-2|a|) - 1)/2).

    Nothing overflows for large |a|. For small |a|, where the value is about
    a**2/2, expm1 keeps the a**2 term that log(2) - log1p(exp(-2|a|)) loses
    in rounding, so the relative error is about 1e-16/|a|, not 1e-16/a**2.
    """
    m = np.abs(a)
    # 2m overflows for m near the float maximum; past 1e300, expm1(-2m) is -1 either way
    return m + np.log1p(0.5 * np.expm1(-2.0 * np.minimum(m, 1e300)))


def _lse3(z: np.ndarray) -> np.ndarray:
    """log((1 + exp(-z) + exp(z)) / 3), stable for large |z|.

    The formula is >= 0, since exp(-z) + exp(z) >= 2, but for |z| between
    about 5e-17 and 2e-8 subtracting log(3) lands one rounding step below
    zero; the clamp keeps the float >= 0 too, and lets NaN through.
    """
    m = np.abs(z)
    v = m + np.log1p(np.exp(-m) + np.exp(-2.0 * np.minimum(m, 1e300))) - np.log(3.0)
    return np.maximum(v, 0.0)


def _numbers(name: str, value, error: type = ParamOutOfRange):
    """value, a real number or a flat list or array of them; a string, a
    boolean or a nested list raises error, at the cost of one type scan."""
    if isinstance(value, np.ndarray):
        kinds = {value.dtype.type}
    else:
        kinds = set(map(type, value)) if isinstance(value, (list, tuple)) else {type(value)}
    bad = sorted(k.__name__ for k in kinds if k is bool or not issubclass(k, numbers.Real))
    if bad:
        raise error(f"{name} must hold only numbers, got {' and '.join(bad)}")
    return value


def _finite(name: str, value) -> float:
    """value, one finite real number, as a float."""
    x = float(_numbers(name, value))
    if not math.isfinite(x):
        raise ParamOutOfRange(f"{name} needs finite values, got {value!r}")
    return x


def _per_level(tree, value, name: str) -> list:
    """[None, v_1, ..., v_T]: one value, or one value per period.

    A per-period value list has T entries, or T + 1 with a leading None.
    Each entry is a scalar or one value per level t-1 slot, and every value
    a finite real number. Scalars stay 0-d floats and broadcast where they
    are used; per-slot arrays are copied.
    """
    T = tree.horizon
    if not isinstance(value, (list, tuple)) and np.ndim(value) == 0:
        return [None] + [_finite(name, value)] * T
    seq = list(value)
    if len(seq) == T + 1 and seq[0] is None:
        seq = seq[1:]
    if len(seq) != T:
        raise ParamOutOfRange(f"{name} needs one value per period (got {len(seq)}, horizon {T})")
    out = [None]
    for t, v in enumerate(seq, start=1):
        if isinstance(v, float) or np.ndim(v) == 0:
            out.append(_finite(name, v))
            continue
        vec = np.asarray(_numbers(name, v), dtype=float)
        if not np.all(np.isfinite(vec)):
            raise ParamOutOfRange(f"{name} at period {t} needs finite values")
        try:
            out.append(np.broadcast_to(vec, (tree.n_nodes(t - 1),)).copy())
        except ValueError as exc:
            raise ParamOutOfRange(
                f"{name} at period {t} needs one value per level {t - 1} slot"
            ) from exc
    return out


class Driver:
    """Base driver: subclasses fill in eval/lipschitz and the flags."""

    kind: str = "abstract"
    convex: bool = False
    positive_homogeneous: bool = False
    linear: bool = False
    comparison_certified: bool = False

    def __init__(self, walk: MartingaleSpec):
        self.walk = walk
        self.tree = walk.tree

    def eval(self, t: int, z) -> np.ndarray:
        raise NotImplementedError

    def lipschitz(self, t: int) -> np.ndarray:
        """Declared Lipschitz constants on the level t-1 slots."""
        raise NotImplementedError

    def slope(self, t: int) -> np.ndarray:
        raise DriverError(f"driver kind {self.kind!r} has no linear slope")

    def _slots(self, t: int) -> int:
        return self.tree.n_nodes(t - 1)

    def _on_slots(self, t: int, value) -> np.ndarray:
        """A per-level parameter read out on the level t-1 slots."""
        return np.broadcast_to(value, (self._slots(t),))


class ZeroDriver(Driver):
    kind = "zero"
    convex = True
    positive_homogeneous = True
    linear = True

    def eval(self, t, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def lipschitz(self, t):
        return np.zeros(self._slots(t))

    def slope(self, t):
        return np.zeros(self._slots(t))


class LinearDriver(Driver):
    """g(t, z) = x_t z with a predictable slope x_t."""

    kind = "linear"
    convex = True
    positive_homogeneous = True
    linear = True

    def __init__(self, walk, slope):
        super().__init__(walk)
        self._x = _per_level(self.tree, slope, "linear driver slope")

    def eval(self, t, z):
        return self._x[t] * np.asarray(z, dtype=float)

    def lipschitz(self, t):
        return self._on_slots(t, np.abs(self._x[t]))

    def slope(self, t):
        return self._on_slots(t, self._x[t])


class _LevelParamDriver(Driver):
    """A driver with one parameter, one value or one per period and slot,
    held as [None, p_1, ..., p_T] in the attribute named `param_name` and
    admitted where `admits` holds, elementwise."""

    param_name: str
    rule: str

    @staticmethod
    def admits(v):
        raise NotImplementedError

    def __init__(self, walk, value):
        super().__init__(walk)
        levels = _per_level(self.tree, value, f"{self.kind} {self.param_name}")
        if not all(self.admits(v) if isinstance(v, float) else np.all(self.admits(v)) for v in levels[1:]):
            raise ParamOutOfRange(f"{self.kind} needs {self.rule}, got {value}")
        setattr(self, self.param_name, levels)

    @classmethod
    def on_levels(cls, walk: MartingaleSpec, levels: list) -> "Driver":
        """The driver on [None, p_1, ..., p_T] whose entries are already
        floats or level t-1 slot arrays that `admits`: no copy, no check."""
        g = cls.__new__(cls)
        Driver.__init__(g, walk)
        setattr(g, cls.param_name, levels)
        return g


class CoherentAbsDriver(_LevelParamDriver):
    """g(t, z) = c_t |z| with c_t in [0, 1), one value or one per slot."""

    kind = "coherent_abs"
    convex = True
    positive_homogeneous = True
    param_name = "c"
    rule = "0 <= c < 1"

    def __init__(self, walk, c):
        super().__init__(walk, c)

    @staticmethod
    def admits(v):
        return (0.0 <= v) & (v < 1.0)

    def eval(self, t, z):
        return self.c[t] * np.abs(np.asarray(z, dtype=float))

    def lipschitz(self, t):
        return self._on_slots(t, self.c[t])


class LseDriver(_LevelParamDriver):
    """g(t, z) = c_t log((1 + e^-z + e^z)/3) with c_t >= 0, one value or one
    per slot."""

    kind = "lse"
    convex = True
    param_name = "c"
    rule = "c >= 0"

    def __init__(self, walk, c):
        super().__init__(walk, c)

    @staticmethod
    def admits(v):
        return v >= 0.0

    def eval(self, t, z):
        return self.c[t] * _lse3(np.asarray(z, dtype=float))

    def lipschitz(self, t):
        # the slope of _lse3 stays strictly inside (-1, 1)
        return self._on_slots(t, self.c[t])


class LogSumExpDriver(LseDriver):
    """The lse driver with c_t = K/((K+1) * sup|dW_t|)."""

    kind = "logsumexp"

    def __init__(self, walk, K: float):
        K = _finite("logsumexp K", K)
        if not K > 0.0:
            raise ParamOutOfRange(f"logsumexp needs K > 0, got {K}")
        T = walk.tree.horizon
        super().__init__(walk, [K / ((K + 1.0) * walk.sup_abs_dW(t)) for t in range(1, T + 1)])
        self.K = K


class EntropicDriver(_LevelParamDriver):
    """g(t, z) = (gamma_t / dqv_t) * log(0.5 e^{-z/gamma_t} + 0.5 e^{z/gamma_t}),
    gamma_t > 0 one value or one per slot.

    Its sharpest Lipschitz constant equals 1/dqv_t (a supremum that is never
    attained), so the strict-margin criterion is borderline. Comparison is
    still certified whenever max |dW_t| <= dqv_t slot by slot: the divided
    differences of the driver along any two solutions then keep every
    reweighting 1 + x dW strictly positive.
    """

    kind = "entropic"
    convex = True
    param_name = "gamma"
    rule = "gamma > 0"

    def __init__(self, walk, gamma):
        super().__init__(walk, gamma)

    @staticmethod
    def admits(v):
        return v > 0.0

    @property
    def comparison_certified(self) -> bool:
        w = self.walk
        return all(
            np.all(w.max_abs_dW(t) <= w.dqv(t) * (1.0 + CERT_TOL))
            for t in range(1, self.tree.horizon + 1)
        )

    def eval(self, t, z):
        z = np.asarray(z, dtype=float)
        return (self.gamma[t] / self.walk.dqv(t)) * _lncosh_half(z / self.gamma[t])

    def lipschitz(self, t):
        return 1.0 / self.walk.dqv(t)


# ---- parametric families ---------------------------------------------------


class DriverFamily:
    """An increasing family x -> g_x of drivers indexed by a level x > 0.

    Every level's driver is one `driver` class with parameter param(x).
    make(x) takes one level; at_nodes(t, x_nodes) takes one per level-t
    node. Locality makes the per-node driver agree, node by node, with
    make's at that node's level; this is what vectorizes the per-node
    bisection for acceptability indices.
    """

    kind: str = "abstract"
    driver: type

    def __init__(self, walk: MartingaleSpec):
        self.walk = walk
        self.tree = walk.tree

    @property
    def positive_homogeneous(self) -> bool:
        """Whether every level's driver is positively homogeneous: the
        driver class's own flag."""
        return self.driver.positive_homogeneous

    @staticmethod
    def param(x):
        """The driver parameter at level x, elementwise."""
        raise NotImplementedError

    def _params(self, x):
        """param(x), elementwise, for levels x that are all positive."""
        if not np.all(x > 0.0):
            raise ParamOutOfRange(f"family level must be positive, got {x}")
        with np.errstate(invalid="ignore"):  # inf/inf is a NaN, which admits refuses
            return self.param(x)

    def at_nodes(self, t: int, x_nodes) -> Driver:
        """make's driver with level x_nodes[v] on the slots below level-t
        node v in every period after t, and level 1 up to t.

        The levels map to parameters once, on the level-t nodes, by make's
        map and refused where make refuses them, and each period gathers its
        slots' parameters by ancestor. The map is elementwise, so the driver
        holds make's floats, bit for bit.
        """
        x_nodes = self.tree.check_level_array(x_nodes, t)
        if x_nodes.ndim != 1:
            raise LevelMismatch(f"at_nodes takes one level per level-{t} node, got shape {x_nodes.shape}")
        p_nodes = self._params(x_nodes)
        g = self.driver
        if not np.all(g.admits(p_nodes)):
            raise ParamOutOfRange(f"{g.kind} needs {g.rule}, got {p_nodes}")
        tr = self.tree
        p_one = self.param(1.0)
        levels = [
            np.take(p_nodes, tr.ancestor_map(u - 1, t)) if u > t else p_one
            for u in range(1, tr.horizon + 1)
        ]
        return g.on_levels(self.walk, [None] + levels)


def _share(x):
    return x / (x + 1.0)


# family kind -> (driver class, level map x -> driver parameter, elementwise):
# coherent g_x(z) = x/(x+1) |z|, positively homogeneous at every level;
# quasiconcave_lse g_x(z) = x/(x+1) log((1 + e^-z + e^z)/3);
# entropic g_x(z) = 1/(x dqv_t) log(0.5 e^{-xz} + 0.5 e^{xz}), gamma = 1/x.
_FAMILY_KINDS = {
    "coherent": (CoherentAbsDriver, _share),
    "quasiconcave_lse": (LseDriver, _share),
    "entropic": (EntropicDriver, lambda x: 1.0 / x),
}


class _BuiltinFamily(DriverFamily):
    """The family of one _FAMILY_KINDS row."""

    def __init__(self, walk: MartingaleSpec, kind: str):
        if kind not in _FAMILY_KINDS:
            raise ParamOutOfRange(f"unknown family kind {kind!r}; have {sorted(_FAMILY_KINDS)}")
        super().__init__(walk)
        self.kind = kind
        self.driver, self.param = _FAMILY_KINDS[kind]

    def make(self, x) -> Driver:
        """The driver at one level x; anything but one positive finite
        number raises ParamOutOfRange."""
        if isinstance(x, (list, tuple)) or np.ndim(x) != 0:
            raise ParamOutOfRange(f"make takes one family level, got {x!r}; at_nodes takes one per node")
        return self.driver(self.walk, self._params(_finite("family level", x)))


def builtin_family(kind: str, walk: MartingaleSpec) -> DriverFamily:
    return _BuiltinFamily(walk, kind)


# driver kind -> driver class; a kind takes its constructor's parameters after walk
_DRIVER_KINDS = {
    cls.kind: cls for cls in (ZeroDriver, LinearDriver, CoherentAbsDriver, LogSumExpDriver, EntropicDriver)
}


def builtin_driver(kind: str, walk: MartingaleSpec, **params) -> Driver:
    if kind not in _DRIVER_KINDS:
        raise ParamOutOfRange(f"unknown driver kind {kind!r}")
    cls = _DRIVER_KINDS[kind]
    names = [name for name in inspect.signature(cls).parameters if name != "walk"]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ParamOutOfRange(
            f"driver kind {kind!r} takes no parameter {unknown}; it takes {names}"
        )
    missing = [name for name in names if name not in params]
    if missing:
        raise ParamOutOfRange(f"driver kind {kind!r} needs parameter {missing}")
    return cls(walk, **params)


# ---- validation reports -----------------------------------------------------


FAMILY_LEVELS = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
FAMILY_Z_GRID = np.linspace(-6.0, 6.0, 49)
MONOTONE_TOL = 1e-12


def _on_grid(g: Driver, t: int, grid) -> np.ndarray:
    """g(t, z) at every grid point z on every level t-1 slot: shape
    (len(grid), slots)."""
    grid = np.asarray(grid, dtype=float)
    return g.eval(t, np.repeat(grid[:, None], g.tree.n_nodes(t - 1), axis=1))


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    margin: float
    reason: str


def is_regular(g: Driver) -> RegularityReport:
    """Decide whether the comparison argument is available for g.

    margin = 1 - max_t max_slots (c_t * max|dW_t|). Positive margin is
    sufficient on its own; linear drivers pass when every reweighting
    1 + x_t dW_t stays positive; otherwise a comparison certificate
    (e.g. the entropic divided-difference bound) is honored.
    """
    w = g.walk
    worst = 0.0
    for t in range(1, g.tree.horizon + 1):
        worst = max(worst, float(np.max(g.lipschitz(t) * w.max_abs_dW(t))))
    margin = 1.0 - worst
    if margin > 0.0:
        return RegularityReport(True, margin, "strict-lipschitz-margin")
    if g.linear:
        ok = True
        for t in range(1, g.tree.horizon + 1):
            weights = 1.0 + g.slope(t)[g.tree.parent[t]] * w.dW(t)
            ok = ok and bool(np.all(weights > CERT_TOL))
        if ok:
            return RegularityReport(True, margin, "linear-positive-weights")
    if g.comparison_certified:
        return RegularityReport(True, max(margin, 0.0), "certified-comparison")
    return RegularityReport(False, margin, "not-regular")


@dataclass(frozen=True)
class FamilyReport:
    monotone_in_level: bool
    monotone_worst: float
    each_level_convex: bool
    each_level_regular: bool
    left_continuous: bool
    passed: bool
    levels: tuple


def validate_family(family: DriverFamily) -> FamilyReport:
    """Audit the family axioms on grids of levels and z values.

    Checks pointwise monotonicity of x -> g_x, midpoint convexity and
    regularity of each g_x, and continuity from the left in x.
    """
    mids = 0.5 * (FAMILY_Z_GRID[:-1] + FAMILY_Z_GRID[1:])
    drivers = {x: family.make(x) for x in FAMILY_LEVELS}
    left = {x: family.make(max(x - 1e-9, x * 0.5e-9)) for x in FAMILY_LEVELS}
    mono_worst = 0.0
    convex_ok = True
    left_ok = True
    for t in range(1, family.tree.horizon + 1):
        vals = {x: _on_grid(g, t, FAMILY_Z_GRID) for x, g in drivers.items()}
        for lo, hi in zip(FAMILY_LEVELS, FAMILY_LEVELS[1:]):
            mono_worst = max(mono_worst, float(np.max(vals[lo] - vals[hi])))
        for x in FAMILY_LEVELS:
            v = vals[x]
            if np.max(_on_grid(drivers[x], t, mids) - 0.5 * (v[:-1] + v[1:])) > 1e-10:
                convex_ok = False
            if np.max(np.abs(_on_grid(left[x], t, FAMILY_Z_GRID) - v)) > 1e-6:
                left_ok = False
    regular_ok = all(is_regular(g).regular for g in drivers.values())
    mono_ok = mono_worst <= MONOTONE_TOL
    return FamilyReport(
        monotone_in_level=mono_ok,
        monotone_worst=mono_worst,
        each_level_convex=convex_ok,
        each_level_regular=regular_ok,
        left_continuous=left_ok,
        passed=mono_ok and convex_ok and regular_ok and left_ok,
        levels=FAMILY_LEVELS,
    )
