"""Analytic and numeric convergence-rate machinery.

Everything here is deterministic given its inputs: the discounted
inter-arrival kernel and its Laplace root w, the defective renewal
solver, the intake-overlap deficit eta and its power-law envelope, the
age-coalescence probabilities (p1, p2) for the three hazard regimes and
the closed-form tail of the coalescence time, and the assembled
total-variation / Wasserstein bound curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import (
    DistributionSpec,
    Family,
    HazardProfile,
    hazard_profile,
    integrate,
)
from .errors import AssumptionError, NoDensityError

__all__ = [
    "RenewalKernel",
    "RenewalSolution",
    "HolderData",
    "RateReport",
    "AgeBound",
    "find_w",
    "solve_renewal",
    "eta",
    "eta_envelope",
    "age_bound",
    "age_bound_tail",
    "convergence_bounds",
    "exp_case_bounds",
]

# Numerics of the bound assembly
W_CAP = 64.0  # the largest Laplace root and age-tail abscissa probed
W_TOL = 1e-9  # width of the brackets find_w and AgeBound.abscissa bisect to
W_EPS_FRAC = 0.05  # back-off of the renewal tilt from the Laplace root
RENEWAL_STEP = 1e-3  # grid step of the renewal solve
PSI_MEMO_SIZE = 64  # node arrays whose log j one kernel keeps
ETA_EPS_MAX = 1.0  # the eta envelope holds for shifts up to this
ETA_FIT_POINTS = 200  # shifts the numeric eta envelope is fitted on

TV_PROVENANCE = "three-phase coalescence product bound (total variation)"
W1_PROVENANCE = "age-tail plus contraction bound (Wasserstein-1)"


# ---------------------------------------------------------------------------
# Discounted renewal kernel and its Laplace root
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenewalKernel:
    """Sub-probability kernel J(dx) = E[exp(-p*Theta*x)] G(dx).

    ``density`` is the kernel density j; ``on_grid`` also gives the
    forcing z(t) = E[exp(-p*Theta*t)] P(DeltaT > t).  The kernel mass J(R) is
    strictly below 1 whenever Theta has positive support, which makes
    the renewal equation Z = z + J * Z defective.
    """

    G: DistributionSpec
    H: DistributionSpec
    p: float = 1.0
    # log j on the quadrature nodes psi has met, keyed by the node array
    _log_j: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p < 1:
            raise AssumptionError("kernel order p must be >= 1")

    def discount(self, t: float) -> float:
        """E[exp(-p*Theta*t)]."""
        return self.H.laplace(-self.p * t)

    def density(self, x: float) -> float:
        return self.discount(x) * self.G.density(x)

    def on_grid(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``density`` and ``forcing`` on ``grid``, sharing one discount."""
        disc = self.discount(grid)
        return disc * self.G.density(grid), disc * self.G.survival(grid)

    def mass(self) -> float:
        """The mean discount factor E[exp(-p*Theta*DeltaT)], Theta ~ H and
        DeltaT ~ G independent."""
        return self.psi(0.0)

    def domain_sup(self) -> float:
        """sup{u : psi(u) < inf}, from the supports of G and H."""
        return self.p * self.H.support()[0] + self.G.laplace_domain_sup()

    def psi(self, u: float) -> float:
        """Moment transform psi_J(u) = int exp(u*x) J(dx); +inf allowed.

        The quadrature meets the same node arrays for every u until its
        refinement parts ways, so log j(x), which does not depend on u,
        is computed once per node array and kept (up to PSI_MEMO_SIZE
        arrays, oldest dropped first)."""
        if self.H.family is Family.DIRAC:
            return self.G.laplace(u - self.p * self.H.params[0])
        if u >= self.domain_sup():
            return math.inf
        lo, hi = self.G.support()
        # exp(u*x) * j(x) as one exponential, so that neither factor overflows alone
        val = integrate(lambda x, _: np.exp(u * x + self._log_density(x)), lo, hi)
        return float(val[0])

    def _log_density(self, x: np.ndarray) -> np.ndarray:
        """log j(x), from the memo when x has been met before."""
        key = (x.shape, x.tobytes())
        log_j = self._log_j.get(key)
        if log_j is None:
            with np.errstate(divide="ignore"):
                log_j = np.log(self.density(x))
            if len(self._log_j) >= PSI_MEMO_SIZE:
                del self._log_j[next(iter(self._log_j))]
            self._log_j[key] = log_j
        return log_j


def _bracket_edge(below: Callable[[float], bool]) -> Optional[tuple[float, float]]:
    """A bracket (lo, hi) of width at most W_TOL around the edge of
    {s >= 0 : below(s)}, assumed an interval from 0, with below(lo) true
    (or lo = 0) and below(hi) false; None when below holds up to W_CAP.

    The edge is probed at 1, 2, 4, ... and then bisected.
    """
    hi = 1.0
    while below(hi):
        hi *= 2.0
        if hi > W_CAP:
            return None
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > W_TOL:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def find_w(kernel: RenewalKernel, mass: Optional[float] = None) -> float:
    """Laplace root w = sup{u : psi_J(u) < 1}, bisected to a width of W_TOL.

    Returns +inf when psi_J stays below 1 all the way up to W_CAP
    (the decay is then faster than any probed exponential rate).
    ``mass`` is the kernel mass psi_J(0) when the caller has it already.
    """
    if (kernel.mass() if mass is None else mass) >= 1.0:
        raise AssumptionError(
            "kernel mass must be below 1; the metabolic rate must be positive"
        )
    bracket = _bracket_edge(lambda u: kernel.psi(u) < 1.0)
    return math.inf if bracket is None else 0.5 * (bracket[0] + bracket[1])


@dataclass
class RenewalSolution:
    """The tilted solution exp(w_shift t) Z(t) of the renewal equation on
    its grid, and its maximum there, the constant the bound reads."""

    grid: np.ndarray
    Z_tilted: np.ndarray
    C: float


def _series_reciprocal(a: np.ndarray) -> np.ndarray:
    """The first len(a) coefficients of the power series 1/a(x), a[0] != 0.

    Newton's iteration b <- b (2 - a b) doubles the number of correct
    coefficients per step, from m to m2 <= 2m.  A step needs only the
    coefficients [m, m2) of a b, its middle product (Hanrot, Quercia and
    Zimmermann, "The middle product algorithm I", AAECC 14, 2004): a
    cyclic convolution of length L >= m2 gives them exactly, because the
    terms past L, of degree below m2 + m - 1, wrap around below m.  The
    correction b e has degree below m2 - 1 < L, so the same transform of b
    serves both products: five real FFTs of one power-of-two length per step.
    """
    b = np.array([1.0 / a[0]])
    while len(b) < len(a):
        m, m2 = len(b), min(2 * len(b), len(a))
        size = 1 << (m2 - 1).bit_length()
        fb = np.fft.rfft(b, size)
        # a b = 1 + x^m e(x) (mod x^m2), so b (2 - a b) = b - x^m b e
        e = np.fft.irfft(np.fft.rfft(a[:m2], size) * fb, size)[m:m2]
        b = np.concatenate([b, -np.fft.irfft(fb * np.fft.rfft(e, size), size)[: m2 - m]])
    return b


def _series_quotient(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The first n = len(a) coefficients of the power series r(x)/a(x).

    The last Newton step is taken on the quotient itself (Karp and
    Markstein, "High-precision division and square root", ACM TOMS 23(4),
    1997): with b = 1/a to h = ceil(n/2) terms and q = b r (mod x^h),
    a q = r + x^h e (mod x^n), so r/a = q - x^h b e (mod x^n).  The three
    products fit one cyclic length L >= n without a wrap-around that
    reaches the coefficients read, the middle one as in
    ``_series_reciprocal``, and share the transform of b.
    """
    n = len(a)
    h = (n + 1) // 2
    size = 1 << (n - 1).bit_length()
    fb = np.fft.rfft(_series_reciprocal(a[:h]), size)
    q = np.fft.irfft(fb * np.fft.rfft(r[:h], size), size)[:h]
    e = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(q, size), size)[h:n] - r[h:n]
    return np.concatenate([q, -np.fft.irfft(fb * np.fft.rfft(e, size), size)[: n - h]])


def solve_renewal(
    kernel: RenewalKernel,
    w_shift: float = 0.0,
    grid_step: float = 1e-3,
    horizon: float = 10.0,
) -> RenewalSolution:
    """Solve the tilted renewal equation Z' = z' + J' * Z' on a grid.

    The trapezoid-discretized convolution is a lower-triangular Toeplitz
    system a * Z' = r: a product of power series truncated to n terms.
    Its solution is the power series r/a.  1/a to half the terms comes
    from Newton's iteration b <- b (2 - a b) (Brent and Kung, "Fast
    algorithms for manipulating formal power series", J. ACM 25(4), 1978),
    each step a middle product on real FFTs, and one Newton step on the
    quotient itself gives r/a (see ``_series_quotient``).  Every transform
    has a power-of-two length.  The cost is O(n log n) for n grid points, with
    no LAPACK.

    Requires the tilted kernel to stay defective (psi_J(w_shift) < 1).
    Returns the grid, the tilted solution Z' on it and its maximum C.
    """
    psi_at_shift = kernel.psi(w_shift)
    if psi_at_shift >= 1.0:
        raise AssumptionError(
            f"tilted kernel is not defective (psi_J({w_shift:g}) = {psi_at_shift:g})"
        )
    grid = np.arange(0.0, horizon + grid_step / 2, grid_step)
    n = len(grid)
    tilt = np.exp(w_shift * grid)
    j, z = kernel.on_grid(grid)
    hj = grid_step * (j * tilt)  # the tilted kernel times the trapezoid step
    zp = z * tilt
    Zp = np.empty(n)
    Zp[0] = zp[0]
    if n > 1:
        # rows i >= 1: (1 - hj[0]/2) Zp[i] - sum_{0<m<i} hj[i-m] Zp[m] = zp[i] + hj[i] Zp[0]/2
        a = -hj[: n - 1]
        a[0] = 1.0 - 0.5 * hj[0]
        rhs = zp[1:] + 0.5 * hj[1:] * Zp[0]
        Zp[1:] = _series_quotient(rhs, a)
    return RenewalSolution(grid=grid, Z_tilted=Zp, C=float(Zp.max()))


# ---------------------------------------------------------------------------
# Intake overlap deficit eta
# ---------------------------------------------------------------------------


def eta(eps, F: DistributionSpec):
    """Half L1 distance between the intake density and its eps-shift, for
    a float or elementwise for an array of eps: in closed form for the box
    and exponential families, otherwise from the distribution function at
    the crossing of the two densities."""
    if not F.has_density:
        raise NoDensityError("eta requires an intake law with a density")
    eps = np.abs(np.asarray(eps, dtype=float))
    if F.family is Family.UNIFORM:
        lo, hi = F.params
        val = np.minimum(1.0, eps / (hi - lo))
    elif F.family in (Family.EXPONENTIAL, Family.SHIFTED_EXPONENTIAL):
        val = -np.expm1(-F.params[-1] * eps)
    else:
        val = _eta_unimodal(eps, F)
    return float(val) if np.ndim(val) == 0 else val


def _eta_unimodal(eps: np.ndarray, F: DistributionSpec) -> np.ndarray:
    """eta for the gamma and Weibull laws.  Both are unimodal, so
    f(u) - f(u - eps) is positive left of one point c in [mode, mode + eps]
    and negative right of it: eta = P(X < c) - P(X + eps < c), and the
    bisection's error in c moves eta only to second order."""
    k, s = F.params
    if F.family is Family.GAMMA:
        mode = s * max(k - 1.0, 0.0)
    else:
        mode = s * max(1.0 - 1.0 / k, 0.0) ** (1.0 / k)
    lo, hi = np.full(eps.shape, mode), mode + eps
    for _ in range(64):
        c = 0.5 * (lo + hi)
        rising = F.density(c) > F.density(c - eps)
        lo, hi = np.where(rising, c, lo), np.where(rising, hi, c)
    return F.cdf(hi) - F.cdf(hi - eps)


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
            (self.K > 0.0, "K must be > 0"),
            (0.0 < self.h <= 1.0, "h must lie in (0, 1]"),
            (self.M is None or self.M > 0.0, "M must be > 0"),
            (self.C_tail is None or self.C_tail > 0.0, "C_tail must be > 0"),
            (self.p_tail is None or self.p_tail > 2.0, "p_tail must be > 2"),
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
    """Power-law envelope (C, v) with sup_{x <= eps} eta(x) <= C * eps**v
    for eps up to ETA_EPS_MAX.

    Uses :meth:`HolderData.envelope` when smoothness data are supplied,
    a closed form for the box and exponential families, and otherwise a
    numeric fit inflated to dominate eta on the grid.
    """
    if holder is not None:
        return holder.envelope()
    if F.family is Family.UNIFORM:
        lo, hi = F.params
        return 1.0 / (hi - lo), 1.0
    if F.family in (Family.EXPONENTIAL, Family.SHIFTED_EXPONENTIAL):
        return F.params[-1], 1.0  # 1 - exp(-r*eps) <= r*eps, r the rate
    # numeric fit, then inflate C so the envelope dominates on the grid
    eps_grid = np.geomspace(ETA_EPS_MAX * 1e-3, ETA_EPS_MAX, ETA_FIT_POINTS)
    vals = eta(eps_grid, F)
    mask = vals > 0
    slope, icept = np.polyfit(np.log(eps_grid[mask]), np.log(vals[mask]), 1)
    v = max(min(slope, 1.0), 1e-6)
    C = float(np.max(vals[mask] / eps_grid[mask] ** v))
    return C, v


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
    """The stochastic upper bound on the age-coalescence time; ``age_bound``
    builds it and checks the hypotheses of its regime."""

    profile: HazardProfile
    case: str  # "i": finite blow-up age d, "ii": bounded hazard, "iii": unbounded
    eps: float  # closeness threshold
    b: float  # the jump domain is [b, c]
    c: float
    p1: float  # success probability of one block
    p2: float  # success probability of one outer round

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n copies of the bound variable.

        The bound is a geometric mixture of geometric/exponential blocks;
        the exponential rate is zeta(b) in the bounded-hazard regime and
        zeta(c) otherwise.  Each replica's totals are drawn from their
        closed-form laws: H ~ Geometric(p2) rounds, a sum of H Geometric(p1)
        block counts, which is H + NegativeBinomial(H, p1), and a sum of that
        many exponential waits, which is a gamma variate.
        """
        eps, b, c = self.eps, self.b, self.c
        H = rng.geometric(self.p2, size=n)
        blocks = H + rng.negative_binomial(H, self.p1)
        if self.case == "i":
            return c + (2.0 * H - 1.0) * eps + (self.profile.d - eps) * blocks
        e_per_rep = rng.gamma(blocks, 1.0 / self.rate)
        if self.case == "ii":
            return b * blocks + e_per_rep
        return c - eps + 2.0 * eps * H + (c - eps) * blocks + e_per_rep

    @property
    def rate(self) -> float:
        """Rate r of the exponential waits (regimes ii and iii)."""
        return self.profile.zeta(self.b if self.case == "ii" else self.c)

    def mgf(self, s: float) -> float:
        """M(s) = E[exp(s T)], the moment generating function of the bound
        variable T; +inf past its abscissa (and beyond the largest float).

        With phi_p(z) = p z / (1 - (1 - p) z) the Geometric(p) generating
        function and r the exponential rate, term by term from
        :meth:`sample`, M(s) is
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
        """s_max = sup{s : M(s) < inf}, bisected to a width of W_TOL from
        below, so M is finite there; W_CAP when M stays finite up to W_CAP."""
        bracket = _bracket_edge(lambda s: self._log_mgf(s) < math.inf)
        return W_CAP if bracket is None else bracket[0]


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
    """
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

    # phase 2: Wasserstein contraction rate
    const_rate = profile.constant_rate
    if const_rate is not None:
        # closed Poisson bound: exp(-lam*(1 - E[e^{-p Theta DT}])*t), no constant
        w = const_rate * rho
        v2p = w / p
        C2p = 1.0
    else:
        w = find_w(kernel, q)
        w_eff = w if math.isfinite(w) else W_CAP
        shift = w_eff * (1.0 - W_EPS_FRAC)
        sol = solve_renewal(
            kernel, w_shift=shift, grid_step=RENEWAL_STEP, horizon=10.0 / max(shift, 1e-3)
        )
        v2p = shift / p
        C2p = sol.C

    v_G = G.laplace_domain_sup()
    if v3 is None:
        v3 = 0.5 * v_G if math.isfinite(v_G) else max(1.0, 2.0 * v2p)
    C3 = G.laplace(v3)
    if not math.isfinite(C3):
        raise AssumptionError("the inter-arrival law must have the requested exponential moment")

    eta_C, eta_vp = eta_envelope(F, holder=holder)
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


def exp_case_bounds(
    lam: float,
    H: DistributionSpec,
    holder: HolderData,
    x0_sum_mean: float,
    x0_max_mean: float,
    EU: float,
) -> tuple[Callable[[float], float], Callable[[float], float], dict]:
    """The two total-variation bounds specific to memoryless inter-intakes,
    as functions of time, and their constants.

    Method 1 refines the deterministic three-phase split with the
    memoryless age coalescence; method 2 splits at the random intake
    times and achieves the strictly better exponent lam*rho*h/(1+h).
    Requires a Holder intake density with compact support.
    """
    if holder.M is None:
        raise AssumptionError("the intake density must have compact support here")
    rho = 1.0 - RenewalKernel(DistributionSpec.exponential(lam), H, 1.0).mass()
    km, h = holder.envelope()
    r1 = lam * rho * h / (1.0 + h + 2.0 * rho * h)
    r2 = lam * rho * h / (1.0 + h)
    C_m1 = x0_sum_mean * (1.0 + 1.0 / (1.0 - rho)) + 2.0 * EU / rho

    def m1_eval(t: float) -> float:
        if t <= 0.0:
            return 1.0
        e = math.exp(-r1 * t)
        val = 1.0 - max(0.0, 1.0 - e) ** 2 * max(0.0, 1.0 - C_m1 * e) * max(0.0, 1.0 - km * e)
        return min(1.0, val)

    def m2_eval(t: float) -> float:
        if t <= 0.0:
            return 1.0
        eps = math.exp(-lam * rho * t / (1.0 + h))
        miss = math.exp(-lam * t) * (
            1.0
            + lam * t
            + x0_max_mean
            / (eps * (1.0 - rho) ** 2)
            * (math.exp(lam * (1.0 - rho) * t) - 1.0 - lam * (1.0 - rho) * t)
        )
        val = 1.0 - max(0.0, 1.0 - miss) * max(0.0, 1.0 - km * eps**h)
        return min(1.0, val)

    meta = {
        "rho": rho,
        "rate_method1": r1,
        "rate_method2": r2,
        "C_method1": C_m1,
        "eta_envelope_constant": km,
    }
    return m1_eval, m2_eval, meta
