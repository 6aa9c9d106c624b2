"""Per-layer tracing of conicfin, wired from outside the package.

`Tracer.install()` replaces the functions and methods at each layer boundary
with wrappers that record a span (calls, inclusive time and self time, i.e.
the span minus its child spans) and the layer's work counters;
`Tracer.uninstall()` puts the originals back. A function imported into several
modules (`solve_bsde` is bound in six of them) is replaced in every module that binds
it, so a call is traced whichever binding it goes through. Methods are
replaced on their classes.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Every per-layer metric: (name, unit, better, the end-to-end metric and
# workloads it should move). Times are self times; counts repeat exactly.
METRICS = [
    ("tree.build_s", "s", "lower", "setup_s @ lattice_quotes"),
    ("tree.condexp_calls", "count", "lower", "scenario_s @ lattice_quotes, hedge_search"),
    ("tree.condexp_s", "s", "lower", "scenario_s @ lattice_quotes, hedge_search"),
    ("tree.ancestor_map_calls", "count", "lower", "scenario_s @ lattice_quotes"),
    ("tree.ancestor_map_s", "s", "lower", "scenario_s @ lattice_quotes"),
    ("tree.future_sum_calls", "count", "lower", "scenario_s @ lattice_quotes, hedge_search"),
    ("tree.future_sum_s", "s", "lower", "scenario_s @ lattice_quotes, hedge_search"),
    ("drivers.eval_calls", "count", "lower", "scenario_s @ hedge_search"),
    ("drivers.eval_elems", "count", "lower", "scenario_s @ lattice_quotes"),
    ("drivers.eval_s", "s", "lower", "scenario_s @ lattice_quotes, hedge_search"),
    ("drivers.make_calls", "count", "lower", "scenario_s @ hedge_search"),
    ("drivers.make_s", "s", "lower", "scenario_s @ hedge_search"),
    ("bsde.solves", "count", "lower", "scenario_s @ lattice_quotes, hedge_search, exact_tables"),
    ("bsde.node_updates", "count", "lower", "scenario_s @ lattice_quotes, hedge_search, exact_tables"),
    ("bsde.solve_s", "s", "lower", "scenario_s @ lattice_quotes, hedge_search, exact_tables"),
    ("bsde.node_updates_per_s", "1/s", "higher", "scenario_s @ lattice_quotes, hedge_search, exact_tables"),
    ("bsde.rows_per_solve", "count", "higher", "scenario_s @ lattice_quotes, hedge_search, exact_tables"),
    ("bsde.unused_level_ratio", "1", "lower", "scenario_s @ hedge_search"),
    ("risk.index_calls", "count", "lower", "scenario_s @ lattice_quotes"),
    ("risk.solves_per_index", "count", "lower", "scenario_s @ lattice_quotes"),
    ("risk.index_s", "s", "lower", "scenario_s @ lattice_quotes"),
    ("pricing.quotes", "count", "lower", "scenario_s @ lattice_quotes"),
    ("pricing.quote_s", "s", "lower", "scenario_s @ lattice_quotes"),
    ("pricing.check_s", "s", "lower", "scenario_s @ lattice_quotes"),
    ("market.conic_price_calls", "count", "lower", "scenario_s @ hedge_search"),
    ("market.conic_price_s", "s", "lower", "scenario_s @ hedge_search"),
    ("market.conic_zero_order_ratio", "1", "lower", "scenario_s @ hedge_search"),
    ("market.table_price_calls", "count", "lower", "scenario_s @ exact_tables"),
    ("market.table_price_s", "s", "lower", "scenario_s @ exact_tables"),
    ("market.exact_price_calls", "count", "lower", "scenario_s @ exact_tables"),
    ("market.ledger_rows", "count", "lower", "scenario_s @ exact_tables, hedge_search"),
    ("market.ledger_s", "s", "lower", "scenario_s @ exact_tables, hedge_search"),
    ("search.evaluations", "count", "lower", "scenario_s @ hedge_search, exact_tables"),
    ("search.rows_per_call", "count", "higher", "scenario_s @ hedge_search, exact_tables"),
    ("search.search_s", "s", "lower", "scenario_s @ hedge_search, exact_tables"),
    ("arbitrage.searches", "count", "lower", "scenario_s @ exact_tables"),
    ("arbitrage.validate_calls", "count", "lower", "scenario_s @ exact_tables"),
    ("arbitrage.validate_s", "s", "lower", "scenario_s @ exact_tables"),
    ("arbitrage.exact_share", "1", "higher", "scenario_s @ exact_tables"),
    ("hedging.quotes", "count", "lower", "scenario_s @ hedge_search"),
    ("hedging.evaluations_per_quote", "count", "lower", "scenario_s @ hedge_search"),
    ("hedging.hedge_s", "s", "lower", "scenario_s @ hedge_search"),
    ("scenario.load_s", "s", "lower", "setup_s, scenario_s @ lattice_quotes"),
    ("scenario.write_bytes", "B", "lower", "scenario_s @ lattice_quotes"),
    ("scenario.write_s", "s", "lower", "scenario_s @ lattice_quotes"),
    ("scenario.self_s", "s", "lower", "scenario_s @ lattice_quotes"),
    ("trace.overhead_ratio", "1", "lower", "none; reported only"),
]

# Layers that must record calls on each workload; a traced run in which one
# of them records none has lost its wiring and fails.
ACTIVE_LAYERS = {
    "lattice_quotes": ("tree", "drivers", "bsde", "risk", "pricing", "scenario"),
    "hedge_search": (
        "tree", "drivers", "bsde", "pricing", "market", "search", "arbitrage", "hedging", "scenario",
    ),
    "exact_tables": (
        "tree", "drivers", "bsde", "market", "search", "arbitrage", "hedging", "scenario",
    ),
}


class TraceError(RuntimeError):
    """The tracer could not be wired to the package it traces."""


def _arg_reader(fn, name: str):
    """Read argument `name` of a call to fn from its args, kwargs or default."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def read(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if len(args) > pos else default

    return read


class Tracer:
    """Spans and counters of one traced pass; call reset() between passes."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.counts = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []  # child time accumulated by each open span
        self._levels = []  # level t of enclosing callers that read only Y[t]
        self._inside = Counter()

    # ---- wrappers ------------------------------------------------------------

    def _span(self, name, fn, level=None, before=None, after=None):
        read_level = _arg_reader(fn, level) if level else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if read_level is not None:
                tracer._levels.append(read_level(args, kwargs))
            tracer._inside[name] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer._inside[name] -= 1
                if read_level is not None:
                    tracer._levels.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += elapsed
                tracer.self_s[name] += elapsed - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn, before=None):
        """Count calls without a span, so their time stays with the caller."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            if before is not None:
                before(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def _search(self, fn):
        """Span around a search, counting the rows of each objective call."""
        span = self._span("search.run", fn, after=self._on_search)

        def objective_counter(evaluate):
            def objective(params):
                self.counts["search.objective_calls"] += 1
                self.counts["search.rows"] += params.shape[0]
                return evaluate(params)

            return objective

        @functools.wraps(fn)
        def search(evaluate, *args, **kwargs):
            return span(objective_counter(evaluate), *args, **kwargs)

        return search

    # ---- hooks ----------------------------------------------------------------

    def _on_solve(self, args, kwargs):
        terminal = args[1] if len(args) > 1 else kwargs["terminal"]
        tree = (args[2] if len(args) > 2 else kwargs["walk"]).tree
        rows = int(np.prod(np.shape(terminal)[:-1]))
        self.counts["bsde.rows"] += rows
        self.counts["bsde.node_updates"] += rows * sum(p.shape[0] for p in tree.node_prob)
        if self._levels:
            self.counts["bsde.unused_levels"] += int(self._levels[-1])
            self.counts["bsde.levels"] += tree.horizon
        if self._inside["risk.index"]:
            self.counts["risk.index_solves"] += 1

    def _on_eval(self, args, kwargs):
        self.counts["drivers.eval_elems"] += int(np.size(args[2] if len(args) > 2 else kwargs["z"]))

    def _on_conic_price(self, args, kwargs):
        if not np.any(args[2] if len(args) > 2 else kwargs["phi"]):
            self.counts["market.conic_zero_order"] += 1

    def _on_bank_leg(self, args, kwargs, strategy):
        self.counts["market.ledger_rows"] += int(np.prod(strategy.batch_shape()))

    def _on_search(self, args, kwargs, outcome):
        evaluations = outcome[2] if isinstance(outcome, tuple) else outcome.evaluations
        self.counts["search.evaluations"] += int(evaluations)

    def _on_validate(self, args, kwargs, report):
        self.counts["arbitrage.exact"] += int(report.exact)

    def _on_hedged(self, args, kwargs, quote):
        self.counts["hedging.evaluations"] += int(quote.evaluations)

    def _on_write(self, args, kwargs):
        self.counts["scenario.write_bytes"] += len((args[1] if len(args) > 1 else kwargs["text"]).encode())

    # ---- wiring -----------------------------------------------------------------

    def _functions(self):
        """(module, name, wrapper factory) for every traced function."""
        s = self._span
        return [
            ("tree", "build_tree", lambda f: s("tree.build", f)),
            ("bsde", "solve_bsde", lambda f: s("bsde.solve", f, before=self._on_solve)),
            ("bsde", "diagnose_solution", lambda f: s("bsde.diagnose", f)),
            ("risk", "risk", lambda f: s("risk.risk", f, level="t")),
            ("risk", "acceptability_index", lambda f: s("risk.index", f, level="t")),
            ("pricing", "ask", lambda f: s("pricing.quote", f, level="t")),
            ("pricing", "bid", lambda f: s("pricing.quote", f, level="t")),
            ("pricing", "time_consistency_check", lambda f: s("pricing.check", f)),
            ("pricing", "cross_compare", lambda f: s("pricing.check", f)),
            ("market", "complete_bank_leg", lambda f: s("market.ledger", f, after=self._on_bank_leg)),
            ("market", "liquidation_value", lambda f: s("market.ledger", f)),
            ("market", "rebalancing_cost", lambda f: s("market.ledger", f)),
            ("search", "maximize", self._search),
            ("search", "exhaustive_grid", self._search),
            ("hedging", "_per_node_search", self._search),
            ("arbitrage", "find_arbitrage", lambda f: s("arbitrage.search", f)),
            ("arbitrage", "validate_certificate", lambda f: s("arbitrage.validate", f, after=self._on_validate)),
            ("hedging", "hedged_price", lambda f: s("hedging.quote", f, level="t", after=self._on_hedged)),
            ("hedging", "check_ngd", lambda f: s("hedging.ngd", f, level="t")),
            ("hedging", "hedged_sandwich", lambda f: s("hedging.sandwich", f)),
            ("scenario", "run_scenario", lambda f: s("scenario.run", f)),
            ("scenario", "load_scenario", lambda f: s("scenario.load", f)),
            ("scenario", "write_json", lambda f: s("scenario.write", f)),
            ("scenario", "write_csv", lambda f: s("scenario.write", f)),
            ("scenario", "_atomic_write", lambda f: self._counter("scenario.bytes", f, self._on_write)),
        ]

    def _methods(self):
        """(class, method name, wrapper factory) for every traced method."""
        tree = sys.modules["conicfin.tree"]
        drivers = sys.modules["conicfin.drivers"]
        market = sys.modules["conicfin.market"]
        s = self._span
        methods = [
            (tree.FiltrationTree, "condexp_step", lambda f: s("tree.condexp", f)),
            (tree.FiltrationTree, "ancestor_map", lambda f: s("tree.ancestor_map", f)),
            (tree.AdaptedProcess, "future_sum", lambda f: s("tree.future_sum", f)),
            (market.ConicOperator, "price", lambda f: s("market.conic_price", f, level="t", before=self._on_conic_price)),
            (market.DirectOperator, "price", lambda f: s("market.table_price", f)),
            (market.OrderBookOperator, "price", lambda f: s("market.table_price", f)),
        ]
        for op in (market.DirectOperator, market.OrderBookOperator):
            methods.append((op, "exact_price", lambda f: self._counter("market.exact_price", f)))
        for cls in vars(drivers).values():
            if isinstance(cls, type) and cls is not drivers.Driver and issubclass(cls, drivers.Driver) and "eval" in vars(cls):
                methods.append((cls, "eval", lambda f: s("drivers.eval", f, before=self._on_eval)))
            if isinstance(cls, type) and cls is not drivers.DriverFamily and issubclass(cls, drivers.DriverFamily) and "make" in vars(cls):
                methods.append((cls, "make", lambda f: s("drivers.make", f)))
        return methods

    def install(self):
        """Replace every binding of the traced functions and methods."""
        if self._patches:
            raise TraceError("tracer is already installed")
        # The package attribute conicfin.risk is the function risk, so every
        # module is taken from sys.modules.
        modules = {n: m for n, m in sys.modules.items() if n == "conicfin" or n.startswith("conicfin.")}
        try:
            for modname, name, factory in self._functions():
                original = getattr(modules[f"conicfin.{modname}"], name, None)
                if original is None:
                    raise TraceError(f"conicfin.{modname} has no {name}")
                wrapper = factory(original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))
            for cls, name, factory in self._methods():
                original = vars(cls).get(name)
                if original is None:
                    raise TraceError(f"{cls.__name__} defines no {name}")
                setattr(cls, name, factory(original))
                self._patches.append((cls, name, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ---- results -----------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.split(".")[0] == layer)

    def metrics(self) -> dict:
        """Per-layer metrics of the pass traced since the last reset()."""
        c, n, s = self.calls, self.counts, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "tree.build_s": s["tree.build"],
            "tree.condexp_calls": c["tree.condexp"],
            "tree.condexp_s": s["tree.condexp"],
            "tree.ancestor_map_calls": c["tree.ancestor_map"],
            "tree.ancestor_map_s": s["tree.ancestor_map"],
            "tree.future_sum_calls": c["tree.future_sum"],
            "tree.future_sum_s": s["tree.future_sum"],
            "drivers.eval_calls": c["drivers.eval"],
            "drivers.eval_elems": n["drivers.eval_elems"],
            "drivers.eval_s": s["drivers.eval"],
            "drivers.make_calls": c["drivers.make"],
            "drivers.make_s": s["drivers.make"],
            "bsde.solves": c["bsde.solve"],
            "bsde.node_updates": n["bsde.node_updates"],
            "bsde.solve_s": s["bsde.solve"],
            # Throughput of whole solves, children included.
            "bsde.node_updates_per_s": ratio(n["bsde.node_updates"], self.total_s["bsde.solve"]),
            "bsde.rows_per_solve": ratio(n["bsde.rows"], c["bsde.solve"]),
            "bsde.unused_level_ratio": ratio(n["bsde.unused_levels"], n["bsde.levels"]),
            "risk.index_calls": c["risk.index"],
            "risk.solves_per_index": ratio(n["risk.index_solves"], c["risk.index"]),
            "risk.index_s": s["risk.index"],
            "pricing.quotes": c["pricing.quote"],
            "pricing.quote_s": s["pricing.quote"],
            "pricing.check_s": s["pricing.check"],
            "market.conic_price_calls": c["market.conic_price"],
            "market.conic_price_s": s["market.conic_price"],
            "market.conic_zero_order_ratio": ratio(n["market.conic_zero_order"], c["market.conic_price"]),
            "market.table_price_calls": c["market.table_price"],
            "market.table_price_s": s["market.table_price"],
            "market.exact_price_calls": c["market.exact_price"],
            "market.ledger_rows": n["market.ledger_rows"],
            "market.ledger_s": s["market.ledger"],
            "search.evaluations": n["search.evaluations"],
            "search.rows_per_call": ratio(n["search.rows"], n["search.objective_calls"]),
            "search.search_s": s["search.run"],
            "arbitrage.searches": c["arbitrage.search"],
            "arbitrage.validate_calls": c["arbitrage.validate"],
            "arbitrage.validate_s": s["arbitrage.validate"],
            "arbitrage.exact_share": ratio(n["arbitrage.exact"], c["arbitrage.validate"]),
            "hedging.quotes": c["hedging.quote"],
            "hedging.evaluations_per_quote": ratio(n["hedging.evaluations"], c["hedging.quote"]),
            "hedging.hedge_s": s["hedging.quote"] + s["hedging.ngd"] + s["hedging.sandwich"],
            "scenario.load_s": s["scenario.load"],
            "scenario.write_bytes": n["scenario.write_bytes"],
            "scenario.write_s": s["scenario.write"],
            "scenario.self_s": s["scenario.run"],
        }


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over traced passes."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
