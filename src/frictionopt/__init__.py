"""Numerical engine for robust utility maximization under proportional
transaction costs: scenario simulation on shared noise, exact cost
accounting, consistent price systems, and a minimax policy solver with
duality diagnostics."""

__version__ = "0.1.0"

from .accounting import AccountingLedger, CostSpec, check_admissible_rplus, run_ledger, shadow_ledger
from .cps import (
    BandReport,
    CpsCertificate,
    PriceSystem,
    constant_cps,
    cps_certificate,
    entropy_membership,
    girsanov_cps,
    lattice_cps,
    polarity_gap,
    registered_cps,
    supermartingale_check,
    verify_band,
    verify_martingale,
)
from .fvproc import (
    KomlosResult,
    MonotonePath,
    RationalEnumeration,
    Strategy,
    converges_at_continuity_points,
    komlos_average,
    rho,
)
from .scenario import (
    ArctanDrift,
    BlackScholes,
    Factor,
    NoisePanel,
    PathDependentBS,
    ScenarioPanel,
    ThetaGrid,
    TimeGrid,
    gaussian_panel,
    lattice_panel,
    simulate,
    simulate_panel,
)
from .solver import (
    BruteForceReport,
    DualityReport,
    ObjectiveResult,
    OptimizerSettings,
    PolicyCodec,
    RobustProblem,
    SolveReport,
    brute_force,
    default_price_systems,
    duality_report,
    objective,
    solve,
)
from .utility import (
    UtilitySpec,
    YoungPair,
    check_assumptions,
    conjugate,
    delta2_ratio,
    exp_utility,
    log_utility,
    luxemburg_norm,
    orlicz_conjugate,
    power_utility,
    table_utility,
    vector_conjugate,
    young_pair,
)
