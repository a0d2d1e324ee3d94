"""Mean-variance reinsurance/investment strategies under partial and full information.

Filtered-drift (Kalman-Bucy) and fully observed solvers for the constrained
mean-variance problem of an insurer who buys proportional reinsurance and
invests in a risky asset, with efficient frontiers in closed form and Monte
Carlo machinery that validates them.
"""

from .conelq import (ControlPair, LQCoefficients, RiccatiSolverError,
                     hamiltonian_min, riccati_pair, solve_riccati_pair,
                     xi_minimizer)
from .config import ConfigError, load_config
from .curves import CurveRangeError, PiecewiseConstantCurve, SampledCurve, as_curve
from .errors import MvreinsError
from .filtering import (FilterPath, projected_mean_curve, run_filter,
                        solve_variance)
from .frontier import (DegenerateFrontierError, FrontierCurve,
                       InfeasibleTargetError, Solution, dual_value,
                       efficient_frontier)
from .fullinfo import (NearCurveError, Region, ViscosityReport,
                       compute_solution, full_feedback_strategy, hjb_residual,
                       solve_pqr, value_function, viscosity_check)
from .model import (ClaimParams, DriftParams, MarketParams, ModelParams,
                    Objective, ValidationReport, riskless_level,
                    riskless_terminal_wealth, validate)
from .montecarlo import (EstimateResult, InsufficientDataError, PathEnsemble,
                         SimConfig, SimulationError, constant_strategy, estimate,
                         simulate_innovation, simulate_physical, zero_strategy)
from .odekernel import (IntegrationDivergedError, RngStream, gaussian_increments,
                        integrate_backward, integrate_forward)
from .partialinfo import partial_feedback_strategy, solve_partial
from .validation import CheckResult, format_table, run_checks

__version__ = "0.1.0"
