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


def _arg(value):
    """An argument of the laws as float64: a numpy scalar for a float (its
    arithmetic is much faster than a 0-d array's), else an array."""
    return np.asarray(value, dtype=float)[()]


def _in_kind(value):
    """A 0-d result as a float, an array as it is: the laws answer a float
    with a float and an array with an array."""
    return value if getattr(value, "ndim", 0) else float(value)


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

    def density(self, x):
        f, p = self.family, self.params
        if f is Family.DIRAC:
            raise NoDensityError("a point mass has no density")
        x = _arg(x)
        lo = self.support()[0]
        z = np.maximum(x, lo)  # clipped into the support, so that no branch warns
        if f is Family.GAMMA:
            k, s = p
            val = np.exp(special.xlogy(k - 1.0, z / s) - z / s - math.lgamma(k)) / s
        elif f is Family.UNIFORM:
            val = np.where(x <= p[1], 1.0 / (p[1] - p[0]), 0.0)
        elif f is Family.WEIBULL:
            k, s = p
            val = (k / s) * np.exp(special.xlogy(k - 1.0, z / s) - (z / s) ** k)
        else:  # (shifted) exponential: the rate is the last parameter
            val = p[-1] * np.exp(-p[-1] * (z - lo))
        return _in_kind(np.where(x < lo, 0.0, val))

    def cdf(self, x):
        return self._distribution(x, upper=False)

    def survival(self, x):
        return self._distribution(x, upper=True)

    def _distribution(self, x, upper: bool):
        """P(X > x) with ``upper``, else P(X <= x)."""
        f, p = self.family, self.params
        x = _arg(x)
        lo = self.support()[0]
        z = np.maximum(x, lo)
        if f is Family.GAMMA:
            val = (special.gammaincc if upper else special.gammainc)(p[0], z / p[1])
        elif f is Family.UNIFORM:
            val = np.clip(((p[1] - z) if upper else (z - p[0])) / (p[1] - p[0]), 0.0, 1.0)
        elif f is Family.DIRAC:
            val = 0.0 if upper else 1.0
        else:  # the survival is exp(-e)
            e = (z / p[1]) ** p[0] if f is Family.WEIBULL else p[-1] * (z - lo)
            val = np.exp(-e) if upper else -np.expm1(-e)
        return _in_kind(np.where(x < lo, float(upper), val))

    def laplace(self, u):
        """Moment transform E[e^{uX}]; +inf outside its domain of finiteness
        and where the value exceeds the largest float."""
        f, p = self.family, self.params
        u = _arg(u)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if f is Family.GAMMA:
                k, s = p
                val = np.where(u < 1.0 / s, (1.0 - s * u) ** (-k), math.inf)
            elif f is Family.UNIFORM:
                lo, hi = p
                val = np.exp(u * lo) * np.expm1(u * (hi - lo)) / (u * (hi - lo))
            elif f is Family.WEIBULL:
                val = np.array([self._weibull_laplace(v) for v in u.ravel()]).reshape(u.shape)
            elif f is Family.DIRAC:
                val = np.exp(u * p[0])
            else:  # (shifted) exponential
                m = p[-1]
                val = np.where(u < m, np.exp(u * self.support()[0]) * m / (m - u), math.inf)
        return _in_kind(np.where(u == 0.0, 1.0, val))

    def _weibull_laplace(self, u: float) -> float:
        k, s = self.params
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

        try:
            val, _ = integrate.quad(integrand, 0.0, math.inf, limit=200)
        except OverflowError:
            return math.inf
        return val

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
    spec: DistributionSpec

    @property
    def constant_rate(self) -> Optional[float]:
        """The rate if the hazard is constant, else None."""
        if self.inf_zeta == self.sup_zeta and math.isfinite(self.inf_zeta):
            return self.inf_zeta
        return None


def hazard_profile(spec: DistributionSpec) -> HazardProfile:
    """Build the hazard profile of an inter-arrival law.

    Every family has a closed-form cumulative hazard and inverse; the
    gamma family works with the logarithm of the regularized incomplete
    gamma, so that ages far in the tail neither underflow nor leave the
    support.  ``zeta``, ``cumulative`` and ``inverse`` take floats or
    arrays.  The spec is re-tagged as an inter-arrival law, which rejects
    the laws without a non-decreasing hazard.
    """
    spec = replace(spec, role=Role.INTER_ARRIVAL)
    f, p = spec.family, spec.params

    if f is Family.WEIBULL:
        k, s_ = p

        def zeta(t, k=k, s_=s_):
            t = _arg(t)
            # 0**0 = 1 gives the rate 1/s_ at age 0 when k == 1
            rate = (k / s_) * (np.maximum(t, 0.0) / s_) ** (k - 1.0)
            return _in_kind(np.where(t < 0, 0.0, rate))

        def cumulative(a0, s, k=k, s_=s_):
            return ((a0 + s) / s_) ** k - (a0 / s_) ** k

        def inverse(a0, target, k=k, s_=s_):
            return s_ * ((a0 / s_) ** k + target) ** (1.0 / k) - a0

        return HazardProfile(
            zeta=zeta, cumulative=cumulative, inverse=inverse,
            a=0.0, d=math.inf, inf_zeta=zeta(0.0),
            sup_zeta=(1.0 / s_ if k == 1.0 else math.inf), spec=spec,
        )

    if f in (Family.EXPONENTIAL, Family.SHIFTED_EXPONENTIAL):
        shift, m = spec.support()[0], p[-1]  # exponential: no shift

        def zeta(t, shift=shift, m=m):
            return _in_kind(np.where(np.asarray(t) >= shift, m, 0.0))

        def cumulative(a0, s, shift=shift, m=m):
            return _in_kind(m * np.maximum(0.0, a0 + s - np.maximum(a0, shift)))

        def inverse(a0, target, shift=shift, m=m):
            return _in_kind(np.maximum(0.0, shift - a0) + target / m)

        return HazardProfile(
            zeta=zeta, cumulative=cumulative, inverse=inverse,
            a=shift, d=math.inf, inf_zeta=(m if shift == 0.0 else 0.0),
            sup_zeta=m, spec=spec,
        )

    if f is Family.UNIFORM:
        lo, hi = p

        def zeta(t, lo=lo, hi=hi):
            t = _arg(t)
            if np.any(t >= hi):
                raise HazardDomainError(f"hazard is infinite at ages >= {hi}")
            return _in_kind(np.where(t < lo, 0.0, 1.0 / (hi - t)))

        def cumulative(a0, s, lo=lo, hi=hi):
            t0 = np.maximum(a0, lo)
            t1 = np.asarray(a0 + s, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                val = np.where(t1 >= hi, math.inf, np.log((hi - t0) / (hi - t1)))
            return _in_kind(np.where(t1 <= t0, 0.0, val))

        def inverse(a0, target, lo=lo, hi=hi):
            return _in_kind(hi - (hi - np.maximum(a0, lo)) * np.exp(-target) - a0)

        return HazardProfile(
            zeta=zeta, cumulative=cumulative, inverse=inverse,
            a=lo, d=hi, inf_zeta=(1.0 / (hi - lo) if lo == 0.0 else 0.0),
            sup_zeta=math.inf, spec=spec,
        )

    # gamma, shape >= 1: the hazard increases to 1/scale
    k, s_ = p
    log_gamma_k = special.gammaln(k)

    def zeta(t, k=k, s_=s_):
        t = _arg(t)
        z = np.maximum(t, 0.0) / s_
        log_pdf = special.xlogy(k - 1.0, z) - z - log_gamma_k
        return _in_kind(np.where(t < 0, 0.0, np.exp(log_pdf - _gamma_log_sf(k, z)) / s_))

    def cumulative(a0, s, k=k, s_=s_):
        s = np.asarray(s, dtype=float)
        val = _gamma_log_sf(k, a0 / s_) - _gamma_log_sf(k, (a0 + s) / s_)
        return _in_kind(np.where(s <= 0.0, 0.0, val))

    def inverse(a0, target, k=k, s_=s_):
        level = np.asarray(_gamma_log_sf(k, np.asarray(a0) / s_) - target)
        z = np.asarray(special.gammainccinv(k, np.exp(level)))
        far = level < _LOG_SF_FAR
        if np.any(far):
            # Newton on log Q(k, z) = level from its leading asymptotics;
            # d/dz log Q = -(the hazard of the unit-scale law)
            lv = level[far]
            zf = -lv + special.xlogy(k - 1.0, -lv) - log_gamma_k
            for _ in range(8):
                log_sf = _gamma_log_sf(k, zf)
                hz = np.exp(special.xlogy(k - 1.0, zf) - zf - log_gamma_k - log_sf)
                zf = zf + (log_sf - lv) / hz
            z[far] = zf
        return _in_kind(z * s_ - a0)

    return HazardProfile(
        zeta=zeta, cumulative=cumulative, inverse=inverse,
        a=0.0, d=math.inf, inf_zeta=zeta(0.0) if k == 1.0 else 0.0,
        sup_zeta=1.0 / s_, spec=spec,
    )


# Where log Q(k, z) falls below this, Q is too small for gammaincc (it
# underflows past z ~ 745) and its asymptotic series takes over.
_LOG_SF_FAR = -600.0


def _gamma_log_sf(k: float, z):
    """log Q(k, z) for the regularized upper incomplete gamma Q, without
    underflow: far in the tail Q(k, z) = z^(k-1) e^(-z) / Gamma(k) *
    sum_j (k-1)(k-2)...(k-j) / z^j, whose terms shrink like (k/z)^j."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.log(np.asarray(special.gammaincc(k, z), dtype=float))
    far = out < _LOG_SF_FAR
    if np.any(far):
        zf = z[far]
        term = np.ones_like(zf)
        total = np.ones_like(zf)
        for j in range(1, 30):
            term = term * (k - j) / zf
            total += term
        out = np.array(out)
        out[far] = special.xlogy(k - 1.0, zf) - zf - special.gammaln(k) + np.log(total)
    return out[()]
