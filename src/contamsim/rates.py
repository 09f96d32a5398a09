"""Analytic and numeric convergence-rate machinery.

Everything here is deterministic given its inputs: the discounted
inter-arrival kernel and its Laplace root w, the intake-overlap deficit
eta and its power-law envelope, the age-coalescence probabilities
(p1, p2) for the three hazard regimes and the closed-form tail of the
coalescence time, and the assembled total-variation / Wasserstein bound
curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import (
    DistributionSpec,
    Family,
    HazardProfile,
    hazard_profile,
    integrate,
)
from .errors import AssumptionError, DistributionError, NoDensityError

__all__ = [
    "RenewalKernel",
    "HolderData",
    "RateReport",
    "AgeBound",
    "find_w",
    "eta",
    "eta_envelope",
    "age_bound",
    "age_bound_tail",
    "convergence_bounds",
]

# Numerics of the bound assembly
W_CAP = 64.0  # the largest Laplace root and age-tail abscissa probed
W_TOL = 1e-9  # width of the brackets find_w and AgeBound.abscissa close to
W_EPS_FRAC = 0.05  # back-off of the phase-2 rate from the Laplace root

TV_PROVENANCE = "three-phase coalescence product bound (total variation)"
W1_PROVENANCE = "age-tail plus contraction bound (Wasserstein-1)"


# ---------------------------------------------------------------------------
# Discounted renewal kernel and its Laplace root
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenewalKernel:
    """Sub-probability kernel J(dx) = E[exp(-p*Theta*x)] G(dx).

    ``density`` is the kernel density j.  The kernel mass J(R) is
    strictly below 1 whenever Theta has positive support, which makes
    the renewal equation Z = z + J * Z defective, with forcing
    z(t) = E[exp(-p*Theta*t)] P(DeltaT > t).
    """

    G: DistributionSpec
    H: DistributionSpec
    p: float = 1.0

    def __post_init__(self):
        if self.p < 1:
            raise AssumptionError("kernel order p must be >= 1")

    def discount(self, t: float) -> float:
        """E[exp(-p*Theta*t)]."""
        return self.H.laplace(-self.p * t)

    def density(self, x: float) -> float:
        return self.discount(x) * self.G.density(x)

    def mass(self) -> float:
        """The mean discount factor E[exp(-p*Theta*DeltaT)], Theta ~ H and
        DeltaT ~ G independent."""
        return self.psi(0.0)

    def domain_sup(self) -> float:
        """sup{u : psi(u) < inf}, from the supports of G and H."""
        return self.p * self.H.support()[0] + self.G.laplace_domain_sup()

    def psi(self, u: float) -> float:
        """Moment transform psi_J(u) = int exp(u*x) J(dx); +inf at and past
        domain_sup, but only for u > 0: at u <= 0, exp(u*x) j <= j keeps
        psi_J(u) at most the mass, also where domain_sup is 0."""
        if self.H.family is Family.DIRAC:
            return self.G.laplace(u - self.p * self.H.params[0])
        if u > 0.0 and u >= self.domain_sup():
            return math.inf
        lo, hi = self.G.support()

        def integrand(x, _):
            with np.errstate(divide="ignore"):  # log j = -inf where j = 0
                log_j = np.log(self.density(x))
            # exp(u*x) * j(x) as one exponential, so that neither factor overflows alone
            return np.exp(u * x + log_j)

        return float(integrate(integrand, lo, hi)[0])


def _weight(f_new: float, f_old: float) -> float:
    """Anderson and Bjorck's factor on the value at the kept end of a
    regula falsi bracket when the other end moves twice in a row:
    1 - f_new / f_old, or Illinois' 1/2 when that is not positive."""
    m = 1.0 - f_new / f_old if f_old else 0.0
    return m if m > 0.0 else 0.5


def _edge_cell(f: Callable[[float], float], f_zero: float,
               sup: float = math.inf) -> Optional[tuple[float, float]]:
    """The dyadic cell [lo, hi] of width at most W_TOL that bisection ends
    on around the edge of {u >= 0 : f(u) < 0}, with f non-decreasing and
    f(0) = ``f_zero`` < 0; None when f stays negative up to W_CAP.  f may
    be +inf past the edge, from ``sup`` on.

    The edge is probed at 1, 2, 4, ..., which gives a first bracket of a
    power-of-two width, so bisecting it would end on a cell [j d, (j + 1) d]
    of one dyadic width d <= W_TOL.  Regula falsi on f finds that cell,
    weighting the kept end as Anderson and Bjorck do (BIT 13, 1973), an
    Illinois-type method.  While f is infinite at the upper end it tries
    the cell edges around ``sup``, where the edge may sit, or else halves
    the bracket: a value that is +inf wherever it is not negative makes
    the search a bisection.  Each step stays d/2 inside the bracket.  It
    stops once the bracket lies in one cell, or spans two, which one call
    at their shared edge settles.
    """
    values = {0.0: f_zero}  # at the points met

    def below(u: float) -> bool:
        values[u] = f(u)
        return values[u] < 0.0

    hi = 1.0
    while below(hi):
        hi *= 2.0
        if hi > W_CAP:
            return None
    lo = hi / 2.0 if hi > 1.0 else 0.0
    f_lo, f_hi = values[lo], values[hi]
    cell = hi - lo
    while cell > W_TOL:
        cell *= 0.5
    kept = 0  # the end the last step kept: -1 lo, +1 hi
    while True:
        first, last = math.floor(lo / cell), math.ceil(hi / cell)
        if last - first <= 2:
            break
        if math.isinf(f_hi) and lo < sup <= hi:
            # f is infinite from sup on, and the edge may lie right below
            # it: try the cell edges on either side of it
            edge = math.ceil(sup / cell) * cell
            u = edge if edge < hi else edge - cell
        elif math.isinf(f_lo) or math.isinf(f_hi):
            u = 0.5 * (lo + hi)
        else:
            u = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            u = min(max(u, lo + 0.5 * cell), hi - 0.5 * cell)
        if below(u):
            if kept == 1:
                f_hi *= _weight(values[u], f_lo)
            lo, f_lo, kept = u, values[u], 1
        else:
            if kept == -1:
                f_lo *= _weight(values[u], f_hi)
            hi, f_hi, kept = u, values[u], -1
    if last - first == 2 and below((first + 1) * cell):
        first += 1
    return first * cell, (first + 1) * cell


def find_w(kernel: RenewalKernel, mass: Optional[float] = None) -> float:
    """Laplace root w = sup{u : psi_J(u) < 1}: the midpoint of the dyadic
    cell :func:`_edge_cell` finds on log psi_J, the cell bisection ends on.

    log psi_J is convex and, near a pole of psi_J, far flatter than
    psi_J - 1, so regula falsi on it finds the cell in a third of the
    psi_J calls of bisection or fewer; psi_J turns infinite at domain_sup,
    where the root may sit.

    Returns +inf when psi_J stays below 1 all the way up to W_CAP
    (the decay is then faster than any probed exponential rate).
    ``mass`` is the kernel mass psi_J(0) when the caller has it already.
    """
    q = kernel.mass() if mass is None else mass
    if q >= 1.0:
        raise AssumptionError(
            "kernel mass must be below 1; the metabolic rate must be positive"
        )

    def log(x: float) -> float:
        return math.log(x) if x > 0.0 else -math.inf

    cell = _edge_cell(lambda u: log(kernel.psi(u)), log(q), kernel.domain_sup())
    return math.inf if cell is None else 0.5 * (cell[0] + cell[1])


# ---------------------------------------------------------------------------
# Intake overlap deficit eta
# ---------------------------------------------------------------------------


def eta(eps, F: DistributionSpec):
    """Half L1 distance between the intake density and its eps-shift, for
    a float or elementwise for an array of eps, in closed form for the box
    and (shifted) exponential laws.  The other laws have none, and nothing
    needs it: the jump coupling draws them by rejection."""
    eps = np.abs(np.asarray(eps, dtype=float))
    if F.family is Family.UNIFORM:
        lo, hi = F.params
        val = np.minimum(1.0, eps / (hi - lo))
    elif F.family in (Family.EXPONENTIAL, Family.SHIFTED_EXPONENTIAL):
        val = -np.expm1(-F.params[-1] * eps)
    else:
        raise DistributionError(f"eta has no closed form for a {F.family.value} law")
    return float(val) if np.ndim(val) == 0 else val


@dataclass(frozen=True)
class HolderData:
    """Smoothness data of the intake density: |f(x)-f(y)| <= K|x-y|**h,
    with either a compact support bound M or a polynomial tail
    f(x) <= C_tail * x**(-p_tail), p_tail > 2.  The envelope reads M when
    it is set, so either M or the whole tail pair is required.  Each
    error message starts with the key at fault."""

    K: float
    h: float
    M: Optional[float] = None
    C_tail: Optional[float] = None
    p_tail: Optional[float] = None

    def __post_init__(self):
        for holds, message in (
            (0.0 < self.K < math.inf, "K must be > 0 and finite"),
            (0.0 < self.h <= 1.0, "h must lie in (0, 1]"),
            (self.M is None or 0.0 < self.M < math.inf, "M must be > 0 and finite"),
            (self.C_tail is None or 0.0 < self.C_tail < math.inf, "C_tail must be > 0 and finite"),
            (self.p_tail is None or 2.0 < self.p_tail < math.inf, "p_tail must be > 2 and finite"),
        ):
            if not holds:
                raise AssumptionError(message)
        if (self.C_tail is None) != (self.p_tail is None):
            missing, given = ("C_tail", "p_tail") if self.C_tail is None else ("p_tail", "C_tail")
            raise AssumptionError(f"{missing} is required with {given}")
        if self.M is None and self.C_tail is None:
            raise AssumptionError("M or the tail pair (C_tail, p_tail) is required")

    def envelope(self) -> tuple[float, float]:
        """Power-law envelope (C, v) of the overlap deficit eta: with
        compact support C = K(M+1)/2 and v = h, else the constants the
        tail quantile q controls."""
        if self.M is not None:
            return self.K * (self.M + 1.0) / 2.0, self.h
        q = (self.C_tail / (self.p_tail - 1.0)) ** (1.0 / (self.p_tail - 1.0))
        return self.K * (q + 1.0) / 2.0 + 1.0, self.h - self.h / (self.p_tail - 1.0)


def eta_envelope(F: DistributionSpec, holder: Optional[HolderData] = None) -> tuple[float, float]:
    """Power-law envelope (C, v) with eta(eps) <= C * eps**v:
    :meth:`HolderData.envelope` when smoothness data are given, else read
    off the intake density, and then for every eps >= 0.  A law without a
    density, a point mass, is rejected whatever the smoothness data.

    Every law here with a density is unimodal, so eta(eps) is the mass of
    the heaviest window of width eps, sup_t P(t - eps < X <= t), and
    eta(eps) <= eps * sup f: the envelope is (f(mode), 1).  The mode is the
    start of the support for the box and (shifted) exponential laws,
    s(k - 1) for gamma(k, s) and s(1 - 1/k)^(1/k) for Weibull(k, s) with
    k >= 1.  Gamma and Weibull laws of shape k < 1 have a decreasing
    density, unbounded at 0: their heaviest window is [0, eps], so
    eta(eps) = F(eps).  For gamma, F(eps) <= (eps/s)^k / Gamma(k + 1),
    as e^(-t) <= 1; for Weibull, F(eps) <= (eps/s)^k, as 1 - e^(-x) <= x.
    So the envelope holds for every eps.
    """
    if not F.has_density:
        raise NoDensityError("the eta envelope needs an intake law with a density")
    if holder is not None:
        return holder.envelope()
    mode = F.support()[0]
    if F.family in (Family.GAMMA, Family.WEIBULL):
        k, s = F.params
        if k < 1.0:
            norm = math.gamma(k + 1.0) if F.family is Family.GAMMA else 1.0
            return s**-k / norm, k
        mode = s * (k - 1.0) if F.family is Family.GAMMA else s * (1.0 - 1.0 / k) ** (1.0 / k)
    return float(F.density(mode)), 1.0


# ---------------------------------------------------------------------------
# Age-coalescence bound parameters and tail
# ---------------------------------------------------------------------------


def _log_geometric_pgf(p: float, u: float) -> float:
    """log phi_p(e^u), phi_p(z) = p z / (1 - (1 - p) z) the generating
    function of a Geometric(p) count on {1, 2, ...}; +inf at and past its
    pole z = 1/(1 - p), which p = 1 does not have."""
    if p == 1.0:
        return u
    log_q = math.log1p(-p)
    if log_q + u >= 0.0:
        return math.inf
    return math.log(p) + u - math.log1p(-math.exp(log_q + u))


@dataclass(frozen=True)
class AgeBound:
    """The stochastic upper bound T on the age-coalescence time;
    ``age_bound`` builds it and checks the hypotheses of its regime.

    T is a geometric mixture of blocks: H ~ Geometric(p2) outer rounds of
    Geometric(p1) blocks each, N = H + NegativeBinomial(H, p1) blocks in
    all, and in regimes ii and iii one exponential wait of rate r per
    block, S_N ~ gamma(N, 1/r) in all:
      i:   T = c + (2H - 1) eps + (d - eps) N,
      ii:  T = b N + S_N,
      iii: T = c - eps + 2 eps H + (c - eps) N + S_N.
    """

    profile: HazardProfile
    case: str  # "i": finite blow-up age d, "ii": bounded hazard, "iii": unbounded
    eps: float  # closeness threshold
    b: float  # the jump domain is [b, c]
    c: float
    p1: float  # success probability of one block
    p2: float  # success probability of one outer round

    @property
    def rate(self) -> float:
        """Rate r of the exponential waits (regimes ii and iii)."""
        return self.profile.zeta(self.b if self.case == "ii" else self.c)

    def mgf(self, s: float) -> float:
        """M(s) = E[exp(s T)], the moment generating function of the bound
        variable T; +inf past its abscissa (and beyond the largest float).

        With phi_p(z) = p z / (1 - (1 - p) z) the Geometric(p) generating
        function and r the exponential rate, term by term from the
        terms of T, M(s) is
          i:   e^{s(c-eps)} phi_p2(e^{2 eps s} phi_p1(e^{s(d-eps)})),
          ii:  phi_p2(phi_p1(e^{sb} r/(r-s))),
          iii: e^{s(c-eps)} phi_p2(e^{2 eps s} phi_p1(e^{s(c-eps)} r/(r-s))).
        """
        try:
            return math.exp(self._log_mgf(s))
        except OverflowError:
            return math.inf

    def _log_mgf(self, s: float) -> float:
        """log M(s), built from logarithms so that no exponential overflows
        on the way; +inf at and past the abscissa."""
        eps, b, c = self.eps, self.b, self.c
        if self.case == "i":
            log_block = s * (self.profile.d - eps)
        else:
            r = self.rate
            if s >= r:
                return math.inf
            log_block = s * (b if self.case == "ii" else c - eps) - math.log1p(-s / r)
        log_blocks = _log_geometric_pgf(self.p1, log_block)
        if self.case == "ii":
            return _log_geometric_pgf(self.p2, log_blocks)
        return s * (c - eps) + _log_geometric_pgf(self.p2, 2.0 * eps * s + log_blocks)

    def abscissa(self) -> float:
        """s_max = sup{s : M(s) < inf}: the lower end of the dyadic cell of
        width at most W_TOL that bisection ends on, so M is finite there;
        W_CAP when M stays finite up to W_CAP.  :func:`_edge_cell` searches
        a value that is -1 where M is finite and +inf past the pole, so it
        bisects."""
        cell = _edge_cell(lambda s: -1.0 if self._log_mgf(s) < math.inf else math.inf, -1.0)
        return W_CAP if cell is None else cell[0]


def age_bound(
    profile: HazardProfile, params: Optional[tuple[float, float, float]] = None
) -> AgeBound:
    """The age-coalescence bound of an inter-intake hazard profile.

    The regime follows from the profile: a finite blow-up age d (which
    must exceed 3a/2), else a bounded or an unbounded hazard.  ``params``
    is (eps, b, c); when None, a heuristic triple that satisfies the
    regime's hypotheses is used.
    """
    a, d = profile.a, profile.d
    if math.isfinite(d):
        case = "i"
        m = (d - 1.5 * a) / 4.0
        if m <= 0:
            raise AssumptionError(
                "case i needs d > 3a/2; configurations with d <= 3a/2 are rejected"
            )
        default = (a / 2.0 + m, a + m, 1.5 * a + 3.0 * m)
    else:
        case = "ii" if math.isfinite(profile.sup_zeta) else "iii"
        m = 0.5 * profile.spec.mean()
        eps, b = a / 2.0 + 0.5 * m, a + m
        default = (eps, b, b + eps + m)
    eps, b, c = default if params is None else params
    if eps <= a / 2.0:
        raise AssumptionError("closeness threshold must exceed a/2")
    if not (a < b < d):
        raise AssumptionError("jump-domain start b must lie in (a, d)")
    zeta_b = profile.zeta(b)
    if zeta_b <= 0.0:
        raise AssumptionError("hazard must be positive at the jump-domain start")
    if case == "ii":
        sup = profile.sup_zeta
        return AgeBound(profile, case, eps, b, c, math.exp(-b * sup), zeta_b / sup)
    if not (b + eps < c < d):
        raise AssumptionError("jump-domain end c must satisfy b + eps < c < d")
    p1 = 1.0 - math.exp(-(eps - a / 2.0) * profile.zeta(eps + a / 2.0))
    p2 = math.exp(-b * profile.zeta(b + eps)) * (1.0 - math.exp(-(c - b - eps) * zeta_b))
    if case == "iii":
        p2 *= zeta_b / profile.zeta(c)
    return AgeBound(profile, case, eps, b, c, p1, p2)


def age_bound_tail(bound: AgeBound) -> tuple[float, float]:
    """(C1, v1) with P(T > t) <= C1 exp(-v1 t) for every t, T the bound
    variable: the Chernoff bound at half the abscissa of its moment
    generating function M, v1 = s_max / 2 and C1 = M(v1) >= 1.
    """
    s_max = bound.abscissa()
    if s_max == 0.0:
        raise AssumptionError(
            f"the age-coalescence rate is below W_TOL = {W_TOL:g} (p1 = {bound.p1:g}, "
            f"p2 = {bound.p2:g}), so the phase fractions alpha and beta cannot be separated"
        )
    v1 = 0.5 * s_max
    C1 = bound.mgf(v1)
    if not math.isfinite(C1):
        raise AssumptionError(
            f"the age-coalescence constant C1 = E[exp(v1 T)] overflows at the rate v1 = {v1:g}"
        )
    return C1, v1


# ---------------------------------------------------------------------------
# Assembled bound curves
# ---------------------------------------------------------------------------


@dataclass
class RateReport:
    """Every analytic constant of the bound curves, and the curves."""

    p: float
    w: float
    v_G: float
    rho: float
    q: float  # E[exp(-Theta*DeltaT)]
    case: Optional[str]
    p1: Optional[float]
    p2: Optional[float]
    eps_age: Optional[float]
    b: Optional[float]
    c: Optional[float]
    C_renewal: float
    eta_C: float
    eta_v: float
    C1: float
    v1: float
    C2_prime: float
    v2_prime: float
    C2: float
    v2: float
    C3: float
    v3: float
    C4: float
    v4: float
    v_prime: float
    alpha: float
    beta: float
    C1_w1: float
    C2_w1: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def tv(self, t: float) -> float:
        """Total-variation bound 1 - prod_i (1 - C_i exp(-v_i * phase_i * t))
        at time t, capped at 1."""
        if t <= 0.0:
            return 1.0
        a, b = self.alpha, self.beta
        f1 = max(0.0, 1.0 - self.C1 * math.exp(-self.v1 * a * t))
        f2 = max(0.0, 1.0 - self.C2 * math.exp(-self.v2 * (b - a) * t))
        f3 = max(0.0, 1.0 - self.C3 * math.exp(-self.v3 * (1.0 - b) * t))
        f4 = max(0.0, 1.0 - self.C4 * math.exp(-self.v4 * (b - a) * t))
        return min(1.0, 1.0 - f1 * f2 * f3 * f4)

    def w1(self, t: float) -> float:
        """Wasserstein-1 bound C1 exp(-v1 alpha t) + C2 exp(-v2' (1-alpha) t)."""
        a = self.alpha
        return self.C1_w1 * math.exp(-self.v1 * a * t) + self.C2_w1 * math.exp(
            -self.v2_prime * (1.0 - a) * t
        )

    def epsilon_tv(self, t: float) -> float:
        """Default closeness threshold exp(-v' (beta - alpha) t) of the
        coupling run to time t, clamped into (0, 1)."""
        eps = math.exp(-self.v_prime * (self.beta - self.alpha) * t)
        return min(max(eps, 1e-300), 1.0 - 1e-12)


def _balanced_alpha_beta(v1: float, v2: float, v3: float) -> tuple[float, float]:
    """alpha, beta equalizing alpha*v1 = (beta-alpha)*v2 = (1-beta)*v3."""
    # beta = alpha * (1 + v1/v2); (1 - beta) * v3 = alpha * v1
    r = 1.0 + v1 / v2
    alpha = v3 / (v1 + v3 * r)
    return alpha, alpha * r


def convergence_bounds(
    F: DistributionSpec,
    G: DistributionSpec,
    H: DistributionSpec,
    x0_sum_mean: float,
    alpha: Optional[float] = None,
    beta: Optional[float] = None,
    age_params: Optional[tuple[float, float, float]] = None,
    holder: Optional[HolderData] = None,
    p: float = 1.0,
    v3: Optional[float] = None,
) -> RateReport:
    """Assemble the constants of the three-phase TV bound and the
    Wasserstein bound for intake law F, inter-intake law G, metabolic
    law H and initial quantities of summed mean ``x0_sum_mean``
    (E[X_0] + E[X~_0]).

    The TV curve is 1 - prod_i (1 - C_i exp(-v_i * phase_i * t)) and the
    Wasserstein curve C1 exp(-v1 alpha t) + C2 exp(-v2 (1-alpha) t),
    with every constant computed from the model laws.  ``age_params``
    (eps, b, c) tunes :func:`age_bound`, so it is rejected where none is built.

    Phase 2 contracts at the tilt u = (1 - W_EPS_FRAC) w, w the Laplace
    root (W_CAP when infinite).  Its constant C2' = sup_t e^{ut} Z(t),
    Z(t) = E[exp(-p int_0^t Theta_s ds)] from a renewal, is exactly 1
    when psi_J(u) < 1, which is checked: a root below find_w's bracket
    (Dirac(1e-10) rates) can leave psi_J(u) >= 1, and is rejected.  The
    proof is the inductive one of Lundberg's inequality (Asmussen and
    Albrecher, Ruin Probabilities, 2nd ed., 2010, ch. IV):

    * Z'(t) = e^{ut} Z(t) solves Z'(t) = phi(t) S_G(t)
      + int_0^t phi(x) Z'(t - x) G(dx), with phi(s) = E[e^{(u - p Theta) s}]
      and S_G(t) = P(DeltaT > t), so psi_J(u) = int phi dG.
    * phi is a moment generating function: log-convex, with phi(0) = 1.
      h(t) = E[phi(min(t, DeltaT))] = phi(t) S_G(t) + int_0^t phi dG has
      h' = phi' S_G, so h first falls, then rises, and
      h <= max(h(0), h(inf)) = max(1, psi_J(u)) = 1.
    * Let M = sup of Z' on [0, T], finite, and M >= Z'(0) = 1.  Then
      Z'(t) <= h(t) + (M - 1) int_0^t phi dG <= 1 + (M - 1) psi_J(u) on
      [0, T], so (M - 1)(1 - psi_J(u)) <= 0 and M = 1 for every T.

    So no renewal equation is solved: bound assembly is find_w and
    closed forms.
    """
    # first: the merge phase needs an intake density, whatever the smoothness data
    eta_C, eta_vp = eta_envelope(F, holder=holder)
    if (alpha is None) != (beta is None):
        missing, given = ("alpha", "beta") if alpha is None else ("beta", "alpha")
        raise AssumptionError(f"phase fraction {missing} is required with {given}")
    profile = hazard_profile(G)
    kernel = RenewalKernel(G, H, p)
    q = kernel.mass()
    rho = 1.0 - q
    if not 0.0 < rho < 1.0:
        raise AssumptionError("mean per-renewal contraction must lie in (0, 1)")

    # phase 1: age coalescence tail
    if profile.inf_zeta > 0.0:
        if age_params is not None:
            raise AssumptionError(
                f"epsilon_age, b and c would be ignored: they tune the age-coalescence "
                f"bound, and the inter-intake hazard is bounded below by {profile.inf_zeta:g}"
            )
        age = dict(case=None, p1=None, p2=None, eps_age=None, b=None, c=None)
        v1 = profile.inf_zeta
        C1p = 1.0
    else:
        bound = age_bound(profile, age_params)
        age = dict(case=bound.case, p1=bound.p1, p2=bound.p2, eps_age=bound.eps,
                   b=bound.b, c=bound.c)
        C1p, v1 = age_bound_tail(bound)

    # phase 2: Wasserstein contraction rate, with the constant C2' = 1
    const_rate = profile.constant_rate
    if const_rate is not None:
        # closed Poisson bound: exp(-lam*(1 - E[e^{-p Theta DT}])*t)
        w = const_rate * rho
        v2p = w / p
    else:
        w = find_w(kernel, q)
        w_eff = w if math.isfinite(w) else W_CAP
        shift = w_eff * (1.0 - W_EPS_FRAC)
        if kernel.psi(shift) >= 1.0:
            raise AssumptionError(
                f"the phase-2 tilt {shift:g} is not below the Laplace root, where C2' = 1 holds"
            )
        v2p = shift / p
    C2p = 1.0

    v_G = G.laplace_domain_sup()
    if v3 is None:
        v3 = 0.5 * v_G if math.isfinite(v_G) else max(1.0, 2.0 * v2p)
    C3 = G.laplace(v3)
    if not math.isfinite(C3):
        raise AssumptionError("the inter-arrival law must have the requested exponential moment")

    v_prime = v2p / (1.0 + eta_vp)
    v2 = v2p - v_prime
    v4 = eta_vp * v_prime

    c2_base = x0_sum_mean * (1.0 + 1.0 / q) + 2.0 * F.mean() / rho
    C2 = c2_base * C2p

    if alpha is None:
        alpha, beta = _balanced_alpha_beta(v1, v2, v3)
    if not 0.0 < alpha < beta < 1.0:
        raise AssumptionError("phase fractions must satisfy 0 < alpha < beta < 1")

    C1_w1 = (c2_base + 2.0 * H.mean() + 2.0 * G.mean()) * C1p

    return RateReport(
        p=p, w=w, v_G=v_G, rho=rho, q=q,
        **age, C_renewal=C2p, eta_C=eta_C, eta_v=eta_vp,
        C1=C1p, v1=v1, C2_prime=C2p, v2_prime=v2p, C2=C2, v2=v2,
        C3=C3, v3=v3, C4=eta_C, v4=v4, v_prime=v_prime,
        alpha=alpha, beta=beta, C1_w1=C1_w1, C2_w1=C2,
    )
