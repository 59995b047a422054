"""Numerical engine for robust utility maximization under proportional
transaction costs: scenario simulation on shared noise, exact cost
accounting, consistent price systems, and a minimax policy solver with
duality diagnostics.

The public names below are exported lazily (PEP 562): ``import frictionopt``
loads no submodule and no numpy, and each name imports its submodule on
first use.  So ``python -m frictionopt.cli`` reaches the command line module
before numpy loads, in time for it to choose the BLAS thread count.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it exports; each submodule listed (errors
# too) is also an attribute, as when this package imported them all
_EXPORTS = {
    "accounting": (
        "AccountingLedger", "CostSpec", "Strategy", "check_admissible_rplus", "run_ledger", "shadow_value",
    ),
    "cps": (
        "BandReport", "CpsCertificate", "PriceSystem", "constant_cps", "cps_certificate", "entropy_membership",
        "girsanov_cps", "lattice_cps", "polarity_gap", "registered_cps", "supermartingale_check", "verify_band",
        "verify_martingale",
    ),
    "errors": (),
    "fvproc": (
        "KomlosResult", "MonotonePath", "RationalEnumeration", "YoungPair", "converges_at_continuity_points",
        "delta2_ratio", "komlos_average", "luxemburg_norm", "orlicz_conjugate", "rho", "young_pair",
    ),
    "scenario": (
        "ArctanDrift", "BlackScholes", "Factor", "NoisePanel", "PathDependentBS", "ThetaGrid", "TimeGrid",
        "gaussian_panel", "lattice_panel", "simulate", "simulate_panel",
    ),
    "solver": (
        "BruteForceReport", "DualityReport", "ObjectiveResult", "OptimizerSettings", "PolicyCodec",
        "RobustProblem", "SolveReport", "brute_force", "default_price_systems", "duality_report", "objective",
        "solve",
    ),
    "utility": (
        "UtilitySpec", "check_assumptions", "conjugate", "exp_utility", "log_utility", "power_utility",
        "table_utility", "vector_conjugate",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_ORIGIN, *_EXPORTS})
