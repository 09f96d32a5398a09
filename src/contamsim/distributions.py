"""Parametric one-dimensional laws used by the contaminant model.

Three roles appear in the model: the intake sizes (law F), the
inter-intake times (law G) and the metabolic rates (law H).  Every law
here is a small immutable spec exposing sampling, density, CDF/survival,
moment transform E[e^{uX}] and mean.  The inter-intake law additionally
provides a :class:`HazardProfile` with the cumulative hazard and its
inverse, which is what the exact event-time generation uses.  ``integrate``
is the adaptive quadrature of the transforms without a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    DistributionError,
    HazardDomainError,
    NoDensityError,
)

__all__ = [
    "Family",
    "DistributionSpec",
    "HazardProfile",
    "hazard_profile",
]


def _arg(value):
    """An argument of the laws as a float64 array, a float as one element:
    numpy computes a scalar's power with libm but an array's with its own
    loop, and the two can differ in the last bit, so a float goes through
    the array loop."""
    return np.atleast_1d(np.asarray(value, dtype=float))


def _in_kind(value, *args):
    """The result of a law as a float when every argument was a float, else
    as an array: the laws answer a float as they answer an array of it."""
    return value if any(np.ndim(a) for a in args) else float(value.item())


def _special():
    """scipy.special, imported when a gamma law first needs its incomplete
    gamma functions: the import costs more than most commands' work."""
    from scipy import special

    return special


def _xlogy(a: float, b):
    """a * log(b), and 0 where a == 0, even at b == 0 (as scipy's xlogy)."""
    if a == 0.0:
        return np.zeros_like(b, dtype=float)
    with np.errstate(divide="ignore"):
        return a * np.log(b)


# Gauss-Kronrod (7, 15) rule on [-1, 1], as in QUADPACK's qk15: the
# positive Kronrod nodes, their Kronrod weights, and the 7-point Gauss
# weights on every other one of them (0 on the rest), then the centre's.
_GK_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_GK_KRONROD = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_GK_GAUSS = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0,
])
_GK_X = np.concatenate([-_GK_NODES, [0.0], _GK_NODES[::-1]])
_GK_WK = np.concatenate([_GK_KRONROD, [0.209482141084727828012999174891714], _GK_KRONROD[::-1]])
_GK_WG = np.concatenate([_GK_GAUSS, [0.417959183673469387755102040816327], _GK_GAUSS[::-1]])
QUAD_RTOL = 1e-12  # relative error target of integrate
# The intervals each integral starts from, on [0, 1]: halving toward the
# lower end, where the laws put their power singularities and kinks.
_QUAD_EDGES = np.concatenate([[0.0], 0.5 ** np.arange(64, 1, -1), np.linspace(0.5, 1.0, 9)])
_QUAD_ROUNDS = 100  # most halvings of one interval
_QUAD_LIMIT = 1000  # most open intervals of one integral
_QUAD_BATCH = 256  # most integrals evaluated together, which bounds the memory


def integrate(f, lo: float, hi: float, count: int = 1) -> np.ndarray:
    """The integrals int_lo^hi f(x, i) dx for i = 0 .. count-1, by globally
    adaptive Gauss-Kronrod (7, 15) quadrature; ``hi`` may be +inf, and then
    x = lo + t/(1 - t) maps the range to t in [0, 1).

    ``f(x, i)`` takes an array of nodes and a broadcastable array of the
    integral each node belongs to, and returns the integrand there.  Each
    round evaluates the rule on every open interval of every integral in
    one call of ``f``.  An integral is done when the sum of its intervals'
    Kronrod-Gauss differences is within QUAD_RTOL of its value.  Otherwise
    the intervals whose difference fits their share of the remaining error
    budget are closed and the others are halved.  A non-finite integrand
    value makes its integral +inf: that is how divergence and overflow show.
    """
    if count > _QUAD_BATCH:
        return np.concatenate([
            integrate(lambda x, i, first=first: f(x, first + i), lo, hi,
                      min(_QUAD_BATCH, count - first))
            for first in range(0, count, _QUAD_BATCH)
        ])
    infinite = math.isinf(hi)
    edges = _QUAD_EDGES if infinite else lo + (hi - lo) * _QUAD_EDGES
    left, right = np.tile(edges[:-1], count), np.tile(edges[1:], count)
    owner = np.repeat(np.arange(count), len(edges) - 1)
    value, spent = np.zeros(count), np.zeros(count)  # of the closed intervals
    blown = np.zeros(count, dtype=bool)
    for step in range(_QUAD_ROUNDS):
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        t = mid[:, None] + half[:, None] * _GK_X
        with np.errstate(all="ignore"):
            y = f(lo + t / (1.0 - t) if infinite else t, owner[:, None])
            if infinite:
                y = y / (1.0 - t) ** 2
            est = half * (y @ _GK_WK)
            err = half * np.abs(y @ (_GK_WK - _GK_WG))
        blown |= np.bincount(owner, ~np.isfinite(err), count) > 0
        budget = QUAD_RTOL * np.abs(value + np.bincount(owner, est, count)) - spent
        n_open = np.bincount(owner, minlength=count)
        done = (blown | (np.bincount(owner, err, count) <= budget) | (n_open > _QUAD_LIMIT)
                | (step == _QUAD_ROUNDS - 1))
        close = done[owner] | (err * n_open[owner] <= budget[owner])
        value += np.bincount(owner[close], est[close], count)
        spent += np.bincount(owner[close], err[close], count)
        keep = ~close
        if not keep.any():
            break
        left = np.concatenate([left[keep], mid[keep]])
        right = np.concatenate([mid[keep], right[keep]])
        owner = np.tile(owner[keep], 2)
    value[blown] = math.inf
    return value


class Family(str, Enum):
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"
    UNIFORM = "uniform"
    WEIBULL = "weibull"
    DIRAC = "dirac"
    SHIFTED_EXPONENTIAL = "shifted_exponential"


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
    """A parametric law.

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

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if len(params) != _N_PARAMS[fam]:
            raise DistributionError(
                f"{fam.value} takes {_N_PARAMS[fam]} parameter(s), got {len(params)}"
            )
        if not all(map(math.isfinite, params)):
            raise DistributionError(f"{fam.value} requires finite parameters, got {params}")
        if fam is Family.UNIFORM:
            if not params[0] < params[1]:
                raise DistributionError("uniform requires lo < hi")
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

    # -- constructors -------------------------------------------------

    @staticmethod
    def exponential(rate: float) -> "DistributionSpec":
        return DistributionSpec(Family.EXPONENTIAL, (rate,))

    @staticmethod
    def gamma(shape: float, scale: float) -> "DistributionSpec":
        return DistributionSpec(Family.GAMMA, (shape, scale))

    @staticmethod
    def uniform(lo: float, hi: float) -> "DistributionSpec":
        return DistributionSpec(Family.UNIFORM, (lo, hi))

    @staticmethod
    def weibull(shape: float, scale: float) -> "DistributionSpec":
        return DistributionSpec(Family.WEIBULL, (shape, scale))

    @staticmethod
    def dirac(c: float) -> "DistributionSpec":
        return DistributionSpec(Family.DIRAC, (c,))

    @staticmethod
    def shifted_exponential(shift: float, rate: float) -> "DistributionSpec":
        return DistributionSpec(Family.SHIFTED_EXPONENTIAL, (shift, rate))

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
        variates: the same draws as ``size`` successive scalar calls.  The
        one map of each law from numpy's standard variates (``rng`` needs
        ``random``, ``standard_exponential``, ``standard_gamma`` and
        ``weibull``), as numpy's own law methods apply it in C doubles."""
        f, p = self.family, self.params
        if f is Family.UNIFORM:
            return p[0] + (p[1] - p[0]) * rng.random(size)
        if f is Family.GAMMA:
            return p[1] * rng.standard_gamma(p[0], size)
        if f is Family.WEIBULL:
            return p[1] * rng.weibull(p[0], size)
        if f is Family.DIRAC:
            return p[0] if size is None else np.full(size, p[0])
        # (shifted) exponential: times 1/rate, as numpy scales; / rate can differ in the last bit
        wait = (1.0 / p[-1]) * rng.standard_exponential(size)
        return wait if f is Family.EXPONENTIAL else p[0] + wait

    def density(self, x):
        f, p = self.family, self.params
        if f is Family.DIRAC:
            raise NoDensityError("a point mass has no density")
        x, arg = _arg(x), x
        lo = self.support()[0]
        z = np.maximum(x, lo)  # clipped into the support, so that no branch warns
        if f is Family.GAMMA:
            k, s = p
            val = np.exp(_xlogy(k - 1.0, z / s) - z / s - math.lgamma(k)) / s
        elif f is Family.UNIFORM:
            val = np.where(x <= p[1], 1.0 / (p[1] - p[0]), 0.0)
        elif f is Family.WEIBULL:
            k, s = p
            val = (k / s) * np.exp(_xlogy(k - 1.0, z / s) - (z / s) ** k)
        else:  # (shifted) exponential: the rate is the last parameter
            val = p[-1] * np.exp(-p[-1] * (z - lo))
        return _in_kind(np.where(x < lo, 0.0, val), arg)

    def cdf(self, x):
        return self._distribution(x, upper=False)

    def survival(self, x):
        return self._distribution(x, upper=True)

    def _distribution(self, x, upper: bool):
        """P(X > x) with ``upper``, else P(X <= x)."""
        f, p = self.family, self.params
        x, arg = _arg(x), x
        lo = self.support()[0]
        z = np.maximum(x, lo)
        if f is Family.GAMMA:
            special = _special()
            val = (special.gammaincc if upper else special.gammainc)(p[0], z / p[1])
        elif f is Family.UNIFORM:
            val = np.clip(((p[1] - z) if upper else (z - p[0])) / (p[1] - p[0]), 0.0, 1.0)
        elif f is Family.DIRAC:
            val = 0.0 if upper else 1.0
        else:  # the survival is exp(-e)
            e = (z / p[1]) ** p[0] if f is Family.WEIBULL else p[-1] * (z - lo)
            val = np.exp(-e) if upper else -np.expm1(-e)
        return _in_kind(np.where(x < lo, float(upper), val), arg)

    def laplace(self, u):
        """Moment transform E[e^{uX}]; +inf outside its domain of finiteness
        and where the value exceeds the largest float."""
        f, p = self.family, self.params
        u, arg = _arg(u), u
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if f is Family.GAMMA:
                k, s = p
                val = np.where(u < 1.0 / s, (1.0 - s * u) ** (-k), math.inf)
            elif f is Family.UNIFORM:
                # e^{uc} (1 - e^{-|u|(hi - lo)}) / (|u|(hi - lo)), c the end where
                # e^{ux} peaks, so that no factor overflows while another underflows
                lo, hi = p
                a = np.abs(u) * (hi - lo)
                val = np.exp(u * np.where(u > 0, hi, lo)) * -np.expm1(-a) / a
            elif f is Family.WEIBULL:
                val = self._weibull_laplace(u)
            elif f is Family.DIRAC:
                val = np.exp(u * p[0])
            else:  # (shifted) exponential
                m = p[-1]
                val = np.where(u < m, np.exp(u * self.support()[0]) * m / (m - u), math.inf)
        return _in_kind(np.where(u == 0.0, 1.0, val), arg)

    def _weibull_laplace(self, u):
        """E[e^{uX}] elementwise.  After y = (x/s)^k the integral is
        int_0^inf exp(u s y^(1/k) - y) dy, whose integrand stays bounded at
        0 also for k < 1; it is infinite for u > 0 when k < 1, and in
        closed form when k == 1."""
        k, s = self.params
        if k == 1.0:
            return np.where(u < 1.0 / s, 1.0 / (1.0 - s * u), math.inf)
        flat = u.ravel()
        val = integrate(lambda y, i: np.exp(flat[i] * s * y ** (1.0 / k) - y),
                        0.0, math.inf, flat.size).reshape(u.shape)
        return np.where((u > 0) & (k < 1.0), math.inf, val)

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
    arrays.  It rejects the laws that cannot time the intakes: a point
    mass, which has no hazard rate, a gamma or Weibull law of shape below
    1, whose hazard decreases, and a law with support below 0.
    """
    f, p = spec.family, spec.params
    if f is Family.DIRAC:
        raise DistributionError("inter-arrival law must have a hazard rate; a point mass has none")
    if f in (Family.GAMMA, Family.WEIBULL) and p[0] < 1:
        raise DistributionError(
            f"inter-arrival hazard must be non-decreasing; {f.value} needs shape >= 1"
        )
    if spec.support()[0] < 0:
        raise DistributionError("inter_arrival law needs support in [0, inf)")

    if f is Family.WEIBULL:
        k, s_ = p

        def zeta(t):
            a = _arg(t)
            # 0**0 = 1 gives the rate 1/s_ at age 0 when k == 1
            rate = (k / s_) * (np.maximum(a, 0.0) / s_) ** (k - 1.0)
            return _in_kind(np.where(a < 0, 0.0, rate), t)

        def cumulative(a0, s):
            a, w = _arg(a0), _arg(s)
            return _in_kind(((a + w) / s_) ** k - (a / s_) ** k, a0, s)

        def inverse(a0, target):
            a, e = _arg(a0), _arg(target)
            # >= 0: for a target tiny against (a0/s_)**k the difference rounds either way
            return _in_kind(np.maximum(s_ * ((a / s_) ** k + e) ** (1.0 / k) - a, 0.0), a0, target)

        return HazardProfile(
            zeta=zeta, cumulative=cumulative, inverse=inverse,
            a=0.0, d=math.inf, inf_zeta=zeta(0.0),
            sup_zeta=(1.0 / s_ if k == 1.0 else math.inf), spec=spec,
        )

    if f in (Family.EXPONENTIAL, Family.SHIFTED_EXPONENTIAL):
        shift, m = spec.support()[0], p[-1]  # exponential: no shift

        # sums and quotients are correctly rounded in every numpy loop, so
        # these need no array argument
        def zeta(t):
            return _in_kind(np.where(np.asarray(t) >= shift, m, 0.0), t)

        def cumulative(a0, s):
            return _in_kind(m * np.maximum(0.0, a0 + s - np.maximum(a0, shift)), a0, s)

        def inverse(a0, target):
            # with no shift max(0, -a0) is +0.0, and adding it to the
            # quotient (>= 0) leaves its bits: the quotient is the wait
            if shift or np.shape(a0) != np.shape(target):
                return _in_kind(np.maximum(0.0, shift - a0) + target / m, a0, target)
            return _in_kind(np.divide(target, m), a0, target)

        return HazardProfile(
            zeta=zeta, cumulative=cumulative, inverse=inverse,
            a=shift, d=math.inf, inf_zeta=(m if shift == 0.0 else 0.0),
            sup_zeta=m, spec=spec,
        )

    if f is Family.UNIFORM:
        lo, hi = p

        def zeta(t):
            a = _arg(t)
            if np.any(a >= hi):
                raise HazardDomainError(f"hazard is infinite at ages >= {hi}")
            return _in_kind(np.where(a < lo, 0.0, 1.0 / (hi - a)), t)

        # the wait is the part before lo plus a fraction of hi - max(a0, lo);
        # log1p and expm1 keep the digits of a small fraction
        def cumulative(a0, s):
            a = _arg(a0)
            rest = hi - np.maximum(a, lo)
            inside = _arg(s) - np.maximum(lo - a, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                val = np.where(inside >= rest, math.inf, -np.log1p(-inside / rest))
            return _in_kind(np.where(inside <= 0.0, 0.0, val), a0, s)

        def inverse(a0, target):
            a = _arg(a0)
            rest = hi - np.maximum(a, lo)
            return _in_kind(np.maximum(lo - a, 0.0) - rest * np.expm1(-_arg(target)), a0, target)

        return HazardProfile(
            zeta=zeta, cumulative=cumulative, inverse=inverse,
            a=lo, d=hi, inf_zeta=(1.0 / (hi - lo) if lo == 0.0 else 0.0),
            sup_zeta=math.inf, spec=spec,
        )

    # gamma, shape >= 1: the hazard increases to 1/scale
    k, s_ = p
    log_gamma_k = math.lgamma(k)

    def zeta(t):
        a = _arg(t)
        z = np.maximum(a, 0.0) / s_
        log_pdf = _xlogy(k - 1.0, z) - z - log_gamma_k
        return _in_kind(np.where(a < 0, 0.0, np.exp(log_pdf - _gamma_log_sf(k, z)) / s_), t)

    def cumulative(a0, s):
        a, w = _arg(a0), _arg(s)
        val = _gamma_log_sf(k, a / s_) - _gamma_log_sf(k, (a + w) / s_)
        return _in_kind(np.where(w <= 0.0, 0.0, val), a0, s)

    def inverse(a0, target):
        a = _arg(a0)
        level = _gamma_log_sf(k, a / s_) - _arg(target)
        special, z = _special(), np.empty(level.shape)
        # above Q = 1/2 invert P = 1 - Q, whose digits a level near 0 keeps
        near = level > _LOG_HALF
        z[near] = special.gammaincinv(k, -np.expm1(level[near]))
        z[~near] = special.gammainccinv(k, np.exp(level[~near]))
        far = level < _LOG_SF_FAR
        if np.any(far):
            # Newton on log Q(k, z) = level from its leading asymptotics;
            # d/dz log Q = -(the hazard of the unit-scale law)
            lv = level[far]
            zf = -lv + _xlogy(k - 1.0, -lv) - log_gamma_k
            for _ in range(8):
                log_sf = _gamma_log_sf(k, zf)
                hz = np.exp(_xlogy(k - 1.0, zf) - zf - log_gamma_k - log_sf)
                zf = zf + (log_sf - lv) / hz
            z[far] = zf
        return _in_kind(np.maximum(z * s_ - a, 0.0), a0, target)

    return HazardProfile(
        zeta=zeta, cumulative=cumulative, inverse=inverse,
        a=0.0, d=math.inf, inf_zeta=zeta(0.0) if k == 1.0 else 0.0,
        sup_zeta=1.0 / s_, spec=spec,
    )


# Where log Q(k, z) falls below this, Q is too small for gammaincc (it
# underflows past z ~ 745) and its asymptotic series takes over.
_LOG_SF_FAR = -600.0
_LOG_HALF = math.log(0.5)


def _gamma_log_sf(k: float, z):
    """log Q(k, z) for the regularized upper incomplete gamma Q, without
    underflow: far in the tail Q(k, z) = z^(k-1) e^(-z) / Gamma(k) *
    sum_j (k-1)(k-2)...(k-j) / z^j, whose terms shrink like (k/z)^j."""
    z = np.asarray(z, dtype=float)
    special, out = _special(), np.empty(z.shape)
    # below z = k, about the median, P < 0.64 and log(1 - P) keeps the
    # digits of a Q near 1
    near = z < k
    out[near] = np.log1p(-special.gammainc(k, z[near]))
    with np.errstate(divide="ignore"):
        out[~near] = np.log(special.gammaincc(k, z[~near]))
    far = out < _LOG_SF_FAR
    if np.any(far):
        zf = z[far]
        term = np.ones_like(zf)
        total = np.ones_like(zf)
        for j in range(1, 30):
            term = term * (k - j) / zf
            total += term
        out[far] = _xlogy(k - 1.0, zf) - zf - math.lgamma(k) + np.log(total)
    return out[()]
