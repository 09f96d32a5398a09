"""Exception types shared across the package."""


class ContamsimError(Exception):
    """Base class for all package errors."""


class DistributionError(ContamsimError, ValueError):
    """Invalid distribution parameters, or a law unfit for its part in the model."""


class NoDensityError(DistributionError):
    """A density was requested from a distribution that has none."""


class HazardDomainError(ContamsimError, ValueError):
    """Hazard rate evaluated outside its domain of finiteness."""


class AssumptionError(ContamsimError, ValueError):
    """A model assumption required by an analytic result is violated.

    The message names the violated assumption in plain terms (e.g. a
    non-monotone inter-arrival hazard, or an intake law without density).
    """


class ConfigError(ContamsimError, ValueError):
    """Malformed or inconsistent run configuration."""
