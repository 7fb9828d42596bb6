"""Principal spectrum points and persistence thresholds for time-periodic
nonlocal dispersal operators.

The package discretizes ``u -> K u - b u + lam m(t, x) u`` on a box with
hostile-exterior, reflecting, or periodic boundary treatment, computes the
principal spectrum point of the time-periodic flow, solves the weighted
threshold problem for the positive root of the spectrum curve, and confronts
that root with the persistence behavior of the KPP-type nonlinear dynamics.
"""

from .evolution import (PeriodMap, Trajectory, UnstableStepError,
                        comparison_check, default_n_steps, period_map,
                        propagate)
from .geometry import (Boundary, Grid, Kernel, WrappedKernel, build_grid,
                       make_kernel, wrap_kernel)
from .kpp import (Nonlinearity, PeriodicOrbit, ThresholdScan,
                  find_periodic_solution, simulate_kpp, summarize_scan,
                  threshold_scan)
from .operator import DispersalOperator, Problem, apply_generator, assemble
from .spectrum import (AutonomousSpectrum, PowerIterationError, SConditions,
                       SpectrumReport, autonomous_spectrum_point,
                       check_S_conditions, classify_principal_eigenvalue,
                       essential_interval, lyapunov_estimate,
                       principal_spectrum_point, refinement_diagnostics)
from .validate import CheckResult, run_checks
from .weighted_solver import (LambdaPResult, PeSufficiency, UpperBoundResult,
                              pe_sufficiency, solve_lambda_p,
                              upper_bound_lambda_p)
from .weights import (ConditionReport, S1Data, Weight, WeightExprError,
                      WeightSummary, check_conditions, closed_form,
                      from_samples, load_sampled_csv, p_functional,
                      sample_closed_form, save_sampled_csv, space_independent,
                      summarize, sup_abs, time_average)

__version__ = "0.1.0"

__all__ = [
    "AutonomousSpectrum", "Boundary", "CheckResult", "ConditionReport",
    "DispersalOperator", "Grid", "Kernel", "LambdaPResult", "Nonlinearity",
    "PeSufficiency", "PeriodMap", "PeriodicOrbit", "PowerIterationError", "Problem",
    "S1Data", "SConditions", "SpectrumReport", "ThresholdScan", "Trajectory",
    "UnstableStepError", "UpperBoundResult", "Weight", "WeightExprError",
    "WeightSummary", "WrappedKernel", "apply_generator", "assemble",
    "autonomous_spectrum_point", "build_grid", "check_S_conditions",
    "check_conditions", "classify_principal_eigenvalue", "closed_form",
    "comparison_check", "default_n_steps", "essential_interval",
    "find_periodic_solution", "from_samples", "load_sampled_csv",
    "lyapunov_estimate", "make_kernel", "p_functional", "pe_sufficiency",
    "period_map", "principal_spectrum_point", "propagate",
    "refinement_diagnostics", "run_checks", "sample_closed_form",
    "save_sampled_csv", "simulate_kpp", "solve_lambda_p", "space_independent",
    "summarize", "summarize_scan", "sup_abs", "threshold_scan", "time_average",
    "upper_bound_lambda_p", "wrap_kernel",
]
