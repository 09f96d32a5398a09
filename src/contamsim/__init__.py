"""Simulation and quantitative convergence bounds for a pharmacokinetic
exposure process: piecewise-deterministic decay between random intakes,
exact coupled simulation, and theoretical total-variation / Wasserstein
bound curves with Monte Carlo verification."""

from .distributions import DistributionSpec, Family, HazardProfile, Role, hazard_profile
from .errors import (
    AssumptionError,
    CaseMismatchError,
    ConfigError,
    ContamsimError,
    DistributionError,
    HazardDomainError,
    NoDensityError,
)
from .pdmp import EventLog, ProcessState, simulate_path
from .coupling import (
    CouplingPhaseParams,
    CouplingReport,
    run_three_phase,
    simulate_coupled,
    tv_jump_coupling,
)
from .rates import (
    HolderData,
    RateReport,
    RenewalKernel,
    age_bound_params,
    eta,
    eta_envelope,
    exp_case_bounds,
    exponential_case_decay,
    find_w,
    convergence_bounds,
    solve_renewal,
)
from .estimators import (
    DominanceReport,
    survival_compare,
    tv_via_coupling,
    w1_sorted,
    wilson_interval,
)
from .config import InitLaw, RunConfig, load_config

__version__ = "1.0.0"
