"""Conic pricing, dynamic risk, and acceptability on finite probability trees."""

from .tree import (
    AdaptedProcess,
    DegenerateIncrement,
    EmptyLevel,
    FiltrationTree,
    LevelMismatch,
    MartingaleSpec,
    NonMartingaleIncrement,
    NonstochasticProbabilities,
    NotBinaryTree,
    NotSymmetric,
    TreeError,
    build_tree,
    martingale_from_increments,
    single_payment,
    symmetric_random_walk,
    uniform_binary_tree,
    zero_process,
)
from .drivers import (
    Driver,
    DriverError,
    DriverFamily,
    ParamOutOfRange,
    builtin_driver,
    builtin_family,
    is_regular,
    validate_family,
)
from .bsde import (
    BsdeSolution,
    MeasureNotEquivalent,
    PreconditionViolated,
    compare_solutions,
    diagnose_solution,
    extract_linear_measure,
    g_expectation,
    solve_bsde,
)
from .risk import (
    acceptability_index,
    check_dai_axioms,
    check_dcrm_axioms,
    risk,
)
from .pricing import (
    NegativeQuantity,
    ask,
    bid,
    cross_compare,
    cumulative_price,
    price,
    time_consistency_check,
)
from .market import (
    ConicOperator,
    DepthExceeded,
    DirectOperator,
    LevelNonpositive,
    MarketError,
    MarketModel,
    NegativeLeg,
    NotStoppingTime,
    OrderBookOperator,
    Security,
    TradingStrategy,
    cds_streams,
    complete_bank_leg,
    conic_security,
    liquidation_value,
    stock_stream,
)
from .search import (
    InstanceTooLarge,
    LegLayout,
    SearchConfig,
    auto_bound,
    exhaustive_grid,
    maximize,
)
from .arbitrage import (
    find_arbitrage,
    validate_certificate,
)
from .hedging import (
    check_ngd,
    hedged_price,
    hedged_sandwich,
)
from .scenario import (
    ScenarioError,
    load_scenario,
    render_summary,
    run_scenario,
    write_csv,
    write_json,
)

__version__ = "0.1.0"
