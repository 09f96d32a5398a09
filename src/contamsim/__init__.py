"""Simulation and quantitative convergence bounds for a pharmacokinetic
exposure process: piecewise-deterministic decay between random intakes,
exact coupled simulation, and theoretical total-variation / Wasserstein
bound curves with Monte Carlo verification."""

from .distributions import DistributionSpec, Family, HazardProfile, Role, hazard_profile
from .errors import (
    AssumptionError,
    ConfigError,
    ContamsimError,
    DistributionError,
    HazardDomainError,
    NoDensityError,
)
from .pdmp import EventLog, ProcessState, simulate_path
from .coupling import (
    CouplingReport,
    run_three_phase,
    simulate_coupled,
    tv_jump_coupling,
)
from .rates import (
    AgeBound,
    HolderData,
    RateReport,
    RenewalKernel,
    age_bound,
    eta,
    eta_envelope,
    exp_case_bounds,
    find_w,
    convergence_bounds,
    solve_renewal,
)
from .estimators import (
    survival_compare,
    tv_via_coupling,
    wilson_interval,
)
from .config import InitLaw, RunConfig, load_config

__version__ = "1.0.0"
