"""Parametric one-dimensional laws used by the contaminant model.

Three roles appear in the model: the intake sizes (law F), the
inter-intake times (law G) and the metabolic rates (law H).  Every law
here is a small immutable spec exposing sampling, density, CDF/survival,
moment transform E[e^{uX}], mean and inverse survival.  The inter-intake law
additionally provides a :class:`HazardProfile` with the cumulative hazard
and its inverse, which is what the exact event-time generation uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy import integrate, special

from .errors import (
    DistributionError,
    HazardDomainError,
    NoDensityError,
)

__all__ = [
    "Family",
    "Role",
    "DistributionSpec",
    "HazardProfile",
    "hazard_profile",
]


class Family(str, Enum):
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"
    UNIFORM = "uniform"
    WEIBULL = "weibull"
    DIRAC = "dirac"
    SHIFTED_EXPONENTIAL = "shifted_exponential"


class Role(str, Enum):
    INTAKE = "intake"
    INTER_ARRIVAL = "inter_arrival"
    METABOLIC = "metabolic"


_N_PARAMS = {
    Family.EXPONENTIAL: 1,
    Family.GAMMA: 2,
    Family.UNIFORM: 2,
    Family.WEIBULL: 2,
    Family.DIRAC: 1,
    Family.SHIFTED_EXPONENTIAL: 2,
}


@dataclass(frozen=True)
class DistributionSpec:
    """A parametric law, optionally tagged with the role it plays.

    Parametrizations:

    * ``exponential(rate)``: density ``rate * exp(-rate*x)``.
    * ``gamma(shape, scale)``: shape-scale convention.
    * ``uniform(lo, hi)``.
    * ``weibull(shape, scale)``: CDF ``1 - exp(-(x/scale)**shape)``.
    * ``dirac(c)``: point mass at ``c >= 0``.
    * ``shifted_exponential(shift, rate)``: law of ``shift + Exp(rate)``.
    """

    family: Family
    params: tuple
    role: Optional[Role] = None

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if self.role is not None:
            object.__setattr__(self, "role", Role(self.role))
        if len(params) != _N_PARAMS[fam]:
            raise DistributionError(
                f"{fam.value} takes {_N_PARAMS[fam]} parameter(s), got {len(params)}"
            )
        if fam is Family.UNIFORM:
            lo, hi = params
            if not lo < hi:
                raise DistributionError("uniform requires lo < hi")
            if self.role in (Role.INTER_ARRIVAL, Role.METABOLIC) and lo < 0:
                raise DistributionError(f"{self.role.value} law needs support in [0, inf)")
        elif fam is Family.DIRAC:
            if params[0] < 0:
                raise DistributionError("dirac requires c >= 0")
        elif fam is Family.SHIFTED_EXPONENTIAL:
            shift, rate = params
            if shift < 0 or rate <= 0:
                raise DistributionError("shifted_exponential requires shift >= 0 and rate > 0")
        else:
            if any(p <= 0 for p in params):
                raise DistributionError(f"{fam.value} requires strictly positive parameters")
        self._check_role()

    def _check_role(self):
        if self.role is Role.INTER_ARRIVAL:
            if self.family is Family.DIRAC:
                raise DistributionError(
                    "inter-arrival law must have a hazard rate; a point mass has none"
                )
            if self.family is Family.GAMMA and self.params[0] < 1:
                raise DistributionError(
                    "inter-arrival hazard must be non-decreasing; gamma needs shape >= 1"
                )
            if self.family is Family.WEIBULL and self.params[0] < 1:
                raise DistributionError(
                    "inter-arrival hazard must be non-decreasing; weibull needs shape >= 1"
                )
        if self.role is Role.METABOLIC:
            if self.family is Family.DIRAC and self.params[0] <= 0:
                raise DistributionError("metabolic rate must be strictly positive")
            if self.family is Family.UNIFORM and self.params[0] < 0:
                raise DistributionError("metabolic law needs support in (0, inf)")
            if self.family is Family.SHIFTED_EXPONENTIAL and self.params[0] < 0:
                raise DistributionError("metabolic law needs support in (0, inf)")

    # -- constructors -------------------------------------------------

    @staticmethod
    def exponential(rate: float, role: Role | None = None) -> "DistributionSpec":
        return DistributionSpec(Family.EXPONENTIAL, (rate,), role)

    @staticmethod
    def gamma(shape: float, scale: float, role: Role | None = None) -> "DistributionSpec":
        return DistributionSpec(Family.GAMMA, (shape, scale), role)

    @staticmethod
    def uniform(lo: float, hi: float, role: Role | None = None) -> "DistributionSpec":
        return DistributionSpec(Family.UNIFORM, (lo, hi), role)

    @staticmethod
    def weibull(shape: float, scale: float, role: Role | None = None) -> "DistributionSpec":
        return DistributionSpec(Family.WEIBULL, (shape, scale), role)

    @staticmethod
    def dirac(c: float, role: Role | None = None) -> "DistributionSpec":
        return DistributionSpec(Family.DIRAC, (c,), role)

    @staticmethod
    def shifted_exponential(shift: float, rate: float, role: Role | None = None) -> "DistributionSpec":
        return DistributionSpec(Family.SHIFTED_EXPONENTIAL, (shift, rate), role)

    # -- basic queries -------------------------------------------------

    @property
    def has_density(self) -> bool:
        return self.family is not Family.DIRAC

    def support(self) -> tuple[float, float]:
        f, p = self.family, self.params
        if f is Family.UNIFORM:
            return p[0], p[1]
        if f is Family.DIRAC:
            return p[0], p[0]
        if f is Family.SHIFTED_EXPONENTIAL:
            return p[0], math.inf
        return 0.0, math.inf

    def mean(self) -> float:
        f, p = self.family, self.params
        if f is Family.EXPONENTIAL:
            return 1.0 / p[0]
        if f is Family.GAMMA:
            return p[0] * p[1]
        if f is Family.UNIFORM:
            return 0.5 * (p[0] + p[1])
        if f is Family.WEIBULL:
            return p[1] * math.gamma(1.0 + 1.0 / p[0])
        if f is Family.DIRAC:
            return p[0]
        return p[0] + 1.0 / p[1]

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """One variate as a float, or with ``size`` an array of that many
        variates: the same draws as ``size`` successive scalar calls."""
        f, p = self.family, self.params
        if f is Family.EXPONENTIAL:
            return rng.exponential(1.0 / p[0], size)
        if f is Family.GAMMA:
            return rng.gamma(p[0], p[1], size)
        if f is Family.UNIFORM:
            return rng.uniform(p[0], p[1], size)
        if f is Family.WEIBULL:
            return p[1] * rng.weibull(p[0], size)
        if f is Family.DIRAC:
            return p[0] if size is None else np.full(size, p[0])
        return p[0] + rng.exponential(1.0 / p[1], size)

    def density(self, x: float) -> float:
        f, p = self.family, self.params
        if f is Family.DIRAC:
            raise NoDensityError("a point mass has no density")
        if f is Family.EXPONENTIAL:
            return p[0] * math.exp(-p[0] * x) if x >= 0 else 0.0
        if f is Family.GAMMA:
            if x < 0:
                return 0.0
            k, s = p
            if x == 0.0:
                return 1.0 / s if k == 1.0 else (math.inf if k < 1.0 else 0.0)
            return x ** (k - 1.0) * math.exp(-x / s) / (math.gamma(k) * s**k)
        if f is Family.UNIFORM:
            lo, hi = p
            return 1.0 / (hi - lo) if lo <= x <= hi else 0.0
        if f is Family.WEIBULL:
            if x < 0:
                return 0.0
            k, s = p
            if x == 0.0:
                return 1.0 / s if k == 1.0 else (math.inf if k < 1.0 else 0.0)
            return (k / s) * (x / s) ** (k - 1.0) * math.exp(-((x / s) ** k))
        shift, m = p
        return m * math.exp(-m * (x - shift)) if x >= shift else 0.0

    def cdf(self, x: float) -> float:
        f, p = self.family, self.params
        if x < self.support()[0]:
            return 0.0
        if f is Family.EXPONENTIAL:
            return -math.expm1(-p[0] * x)
        if f is Family.GAMMA:
            return float(special.gammainc(p[0], x / p[1]))
        if f is Family.UNIFORM:
            lo, hi = p
            return min(1.0, (x - lo) / (hi - lo))
        if f is Family.WEIBULL:
            return -math.expm1(-((x / p[1]) ** p[0]))
        if f is Family.DIRAC:
            return 1.0
        return -math.expm1(-p[1] * (x - p[0]))

    def survival(self, x: float) -> float:
        f, p = self.family, self.params
        if x < self.support()[0]:
            return 1.0
        if f is Family.EXPONENTIAL:
            return math.exp(-p[0] * x)
        if f is Family.GAMMA:
            return float(special.gammaincc(p[0], x / p[1]))
        if f is Family.UNIFORM:
            return 1.0 - self.cdf(x)
        if f is Family.WEIBULL:
            return math.exp(-((x / p[1]) ** p[0]))
        if f is Family.DIRAC:
            return 0.0
        return math.exp(-p[1] * (x - p[0]))

    def inverse_survival(self, s: float) -> float:
        """Smallest x with survival(x) <= s, for s in (0, 1]."""
        f, p = self.family, self.params
        if not 0.0 < s <= 1.0:
            raise DistributionError("survival level must lie in (0, 1]")
        if f is Family.EXPONENTIAL:
            return -math.log(s) / p[0]
        if f is Family.GAMMA:
            return float(special.gammainccinv(p[0], s)) * p[1]
        if f is Family.UNIFORM:
            lo, hi = p
            return hi - s * (hi - lo)
        if f is Family.WEIBULL:
            return p[1] * (-math.log(s)) ** (1.0 / p[0])
        if f is Family.DIRAC:
            return p[0]
        return p[0] - math.log(s) / p[1]

    def laplace(self, u: float) -> float:
        """Moment transform E[e^{uX}]; +inf outside its domain of finiteness
        and where the value exceeds the largest float."""
        try:
            return self._laplace(u)
        except OverflowError:
            return math.inf

    def _laplace(self, u: float) -> float:
        f, p = self.family, self.params
        if u == 0.0:
            return 1.0
        if f is Family.EXPONENTIAL:
            lam = p[0]
            return lam / (lam - u) if u < lam else math.inf
        if f is Family.GAMMA:
            k, s = p
            return (1.0 - s * u) ** (-k) if u < 1.0 / s else math.inf
        if f is Family.UNIFORM:
            lo, hi = p
            return (math.exp(u * hi) - math.exp(u * lo)) / (u * (hi - lo))
        if f is Family.WEIBULL:
            k, s = p
            if u > 0 and k < 1.0:
                return math.inf
            if u > 0 and k == 1.0:
                return 1.0 / (1.0 - s * u) if u < 1.0 / s else math.inf
            def integrand(x, k=k, s=s, u=u):
                if x <= 0.0:
                    return 0.0
                # combined exponent avoids overflow of exp(u*x) alone
                e = u * x - (x / s) ** k
                return 0.0 if e < -745.0 else (k / s) * (x / s) ** (k - 1.0) * math.exp(e)

            val, _ = integrate.quad(integrand, 0.0, math.inf, limit=200)
            return val
        if f is Family.DIRAC:
            return math.exp(u * p[0])
        shift, m = p
        return math.exp(u * shift) * m / (m - u) if u < m else math.inf

    def laplace_domain_sup(self) -> float:
        """sup{u : E[e^{uX}] < inf}."""
        f, p = self.family, self.params
        if f is Family.EXPONENTIAL:
            return p[0]
        if f is Family.GAMMA:
            return 1.0 / p[1]
        if f is Family.WEIBULL:
            if p[0] > 1.0:
                return math.inf
            return 1.0 / p[1] if p[0] == 1.0 else 0.0
        if f is Family.SHIFTED_EXPONENTIAL:
            return p[1]
        return math.inf


# ---------------------------------------------------------------------------
# Hazard machinery for the inter-arrival law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HazardProfile:
    """Hazard rate of an inter-arrival law, with exact inversion.

    ``zeta(t)`` is the instantaneous jump rate at age ``t``;
    ``cumulative(a0, s)`` is the integrated hazard over ``[a0, a0+s]`` and
    ``inverse(a0, target)`` its inverse in ``s``.  ``a`` is the first age
    with positive rate, ``d`` the first age with infinite rate.
    """

    zeta: Callable[[float], float]
    cumulative: Callable[[float, float], float]
    inverse: Callable[[float, float], float]
    a: float
    d: float
    inf_zeta: float
    sup_zeta: float
    spec: Optional[DistributionSpec] = None

    @property
    def constant_rate(self) -> Optional[float]:
        """The rate if the hazard is constant, else None."""
        if self.inf_zeta == self.sup_zeta and math.isfinite(self.inf_zeta):
            return self.inf_zeta
        return None


def hazard_profile(spec: DistributionSpec) -> HazardProfile:
    """Build the hazard profile of an inter-arrival law.

    Uses closed-form cumulative hazard and inversion for every family;
    the gamma family inverts through the regularized incomplete gamma.
    The spec is re-tagged as an inter-arrival law, which rejects the laws
    without a non-decreasing hazard.
    """
    spec = replace(spec, role=Role.INTER_ARRIVAL)
    f, p = spec.family, spec.params

    if f is Family.EXPONENTIAL:
        lam = p[0]
        return HazardProfile(
            zeta=lambda t: lam,
            cumulative=lambda a0, s: lam * s,
            inverse=lambda a0, target: target / lam,
            a=0.0,
            d=math.inf,
            inf_zeta=lam,
            sup_zeta=lam,
            spec=spec,
        )

    if f is Family.WEIBULL:
        k, s_ = p

        def zeta(t, k=k, s_=s_):
            if t < 0:
                return 0.0
            if t == 0.0:
                return 1.0 / s_ if k == 1.0 else 0.0
            return (k / s_) * (t / s_) ** (k - 1.0)

        def cumulative(a0, s, k=k, s_=s_):
            return ((a0 + s) / s_) ** k - (a0 / s_) ** k

        def inverse(a0, target, k=k, s_=s_):
            return s_ * ((a0 / s_) ** k + target) ** (1.0 / k) - a0

        return HazardProfile(
            zeta=zeta, cumulative=cumulative, inverse=inverse,
            a=0.0, d=math.inf, inf_zeta=zeta(0.0),
            sup_zeta=(1.0 / s_ if k == 1.0 else math.inf), spec=spec,
        )

    if f is Family.SHIFTED_EXPONENTIAL:
        shift, m = p

        def zeta(t, shift=shift, m=m):
            return m if t >= shift else 0.0

        def cumulative(a0, s, shift=shift, m=m):
            return m * max(0.0, a0 + s - max(a0, shift))

        def inverse(a0, target, shift=shift, m=m):
            return max(0.0, shift - a0) + target / m

        return HazardProfile(
            zeta=zeta, cumulative=cumulative, inverse=inverse,
            a=shift, d=math.inf, inf_zeta=(m if shift == 0.0 else 0.0),
            sup_zeta=m, spec=spec,
        )

    if f is Family.UNIFORM:
        lo, hi = p

        def zeta(t, lo=lo, hi=hi):
            if t < lo:
                return 0.0
            if t >= hi:
                raise HazardDomainError(f"hazard is infinite at ages >= {hi}")
            return 1.0 / (hi - t)

        def cumulative(a0, s, lo=lo, hi=hi):
            t0 = max(a0, lo)
            t1 = a0 + s
            if t1 <= t0:
                return 0.0
            if t1 >= hi:
                return math.inf
            return math.log((hi - t0) / (hi - t1))

        def inverse(a0, target, lo=lo, hi=hi):
            t0 = max(a0, lo)
            return (hi - (hi - t0) * math.exp(-target)) - a0

        return HazardProfile(
            zeta=zeta, cumulative=cumulative, inverse=inverse,
            a=lo, d=hi, inf_zeta=(1.0 / (hi - lo) if lo == 0.0 else 0.0),
            sup_zeta=math.inf, spec=spec,
        )

    # gamma, shape >= 1: the hazard increases to 1/scale
    k, s_ = p

    def zeta(t, spec=spec):
        if t < 0:
            return 0.0
        sv = spec.survival(t)
        if sv <= 0.0:
            raise HazardDomainError("hazard evaluated beyond the support")
        return spec.density(t) / sv

    def cumulative(a0, s, spec=spec):
        if s <= 0.0:
            return 0.0
        return math.log(spec.survival(a0)) - math.log(spec.survival(a0 + s))

    def inverse(a0, target, spec=spec):
        return spec.inverse_survival(spec.survival(a0) * math.exp(-target)) - a0

    return HazardProfile(
        zeta=zeta, cumulative=cumulative, inverse=inverse,
        a=0.0, d=math.inf, inf_zeta=zeta(0.0) if k == 1.0 else 0.0,
        sup_zeta=1.0 / s_, spec=spec,
    )
