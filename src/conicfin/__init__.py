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
    FamilyReport,
    ParamOutOfRange,
    RegularityReport,
    builtin_driver,
    builtin_family,
    is_regular,
    validate_family,
)
from .bsde import (
    BsdeSolution,
    ComparisonReport,
    LinearMeasure,
    MeasureNotEquivalent,
    PreconditionViolated,
    SolutionDiagnostics,
    compare_solutions,
    diagnose_solution,
    extract_linear_measure,
    g_expectation,
    solve_bsde,
)
from .risk import (
    AxiomReport,
    AxiomResult,
    acceptability_index,
    check_dai_axioms,
    check_dcrm_axioms,
    random_streams,
    risk,
)
from .pricing import (
    ConsistencyReport,
    CrossCompareReport,
    NegativeQuantity,
    PriceQuote,
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
    PricingOperator,
    Security,
    SelfFinancingReport,
    TradingStrategy,
    cds_streams,
    complete_bank_leg,
    conic_security,
    dividends_collected,
    liquidation_value,
    rebalancing_cost,
    stock_stream,
    validate_self_financing,
)
from .search import (
    InstanceTooLarge,
    LegLayout,
    SearchConfig,
    SearchOutcome,
    auto_bound,
    exhaustive_grid,
    leg_layout,
    maximize,
)
from .arbitrage import (
    ArbitrageSearchResult,
    CertificateReport,
    find_arbitrage,
    validate_certificate,
)
from .hedging import (
    HedgedQuote,
    NgdReport,
    SandwichReport,
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
