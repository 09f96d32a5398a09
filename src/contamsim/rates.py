"""Analytic and numeric convergence-rate machinery.

Everything here is deterministic given its inputs: the discounted
inter-arrival kernel and its Laplace root w, the defective renewal
solver, the intake-overlap deficit eta and its power-law envelope, the
age-coalescence probabilities (p1, p2) for the three hazard regimes,
and the assembled total-variation / Wasserstein bound curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate, linalg

from .distributions import (
    DistributionSpec,
    Family,
    HazardProfile,
    hazard_profile,
)
from .errors import AssumptionError, CaseMismatchError, NoDensityError

__all__ = [
    "RenewalKernel",
    "RenewalSolution",
    "HolderData",
    "RateReport",
    "find_w",
    "solve_renewal",
    "exponential_case_decay",
    "eta",
    "eta_envelope",
    "age_bound_params",
    "default_age_params",
    "sample_age_bound",
    "age_bound_tail",
    "fit_dominating_exponential",
    "convergence_bounds",
    "exp_case_bounds",
]

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
_TAIL_SEED = 20140611  # fixed stream of the age-tail Monte Carlo sample

# Numerics of the bound assembly
W_CAP = 64.0  # the largest Laplace root find_w probes
W_EPS_FRAC = 0.05  # back-off of the renewal tilt from the Laplace root
RENEWAL_STEP = 1e-3  # grid step of the renewal solve
N_MC_TAIL = 10**6  # draws of the age-tail Monte Carlo sample

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
    # j at the nodes of psi's quadrature: find_w calls psi some 35 times,
    # and the calls share all but a few hundred nodes
    _j_at: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Moment transform psi_J(u) = int exp(u*x) J(dx); +inf allowed."""
        if self.H.family is Family.DIRAC:
            return self.G.laplace(u - self.p * self.H.params[0])
        if u >= self.domain_sup():
            return math.inf
        lo, hi = self.G.support()
        j = self._j_at

        def integrand(x):
            if x not in j:
                j[x] = self.density(x)
            return math.exp(u * x) * j[x]

        try:
            val, _ = integrate.quad(integrand, lo, hi, **_QUAD_OPTS)
        except Exception:
            return math.inf
        return val


def find_w(kernel: RenewalKernel, cap: float = W_CAP, tol: float = 1e-9) -> float:
    """Laplace root w = sup{u : psi_J(u) < 1}, bracketed by bisection.

    Returns +inf when psi_J stays below 1 all the way up to ``cap``
    (the decay is then faster than any probed exponential rate).
    """
    if kernel.psi(0.0) >= 1.0:
        raise AssumptionError(
            "kernel mass must be below 1; the metabolic rate must be positive"
        )
    hi = 1.0
    while kernel.psi(hi) < 1.0:
        hi *= 2.0
        if hi > cap:
            return math.inf
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if kernel.psi(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of ``a`` and ``b`` by real FFT, zero-padded
    to a power of two."""
    n = len(a) + len(b) - 1
    size = 1 << max(n - 1, 0).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


@dataclass
class RenewalSolution:
    grid: np.ndarray
    Z_tilted: np.ndarray  # exp(w_shift*t) * Z(t)
    Z: np.ndarray
    C: float  # grid maximum of the tilted solution
    w_shift: float

    def residual(self, kernel: RenewalKernel) -> np.ndarray:
        """Self-consistency defect |Z' - z' - J' * Z'| on the grid."""
        h = self.grid[1] - self.grid[0]
        tilt = np.exp(self.w_shift * self.grid)
        j, z = kernel.on_grid(self.grid)
        jp, zp = j * tilt, z * tilt
        n = len(self.grid)
        conv = _convolve(jp, self.Z_tilted)[:n] * h
        conv -= 0.5 * h * (jp[0] * self.Z_tilted + jp * self.Z_tilted[0])
        return np.abs(self.Z_tilted - zp - conv)


# Index ranges at most this long are solved by one triangular solve;
# longer ones are halved, and the left half's effect on the right half
# is added by one FFT.
_RENEWAL_BLOCK = 128


def _solve_toeplitz(Zp, rhs, hj, lead, lo, hi) -> None:
    """Solve rows lo..hi-1 of lead[0, 0]*Zp[i] - sum_{m<i} hj[i-m]*Zp[m]
    = rhs[i] in place, where rhs[i] already holds the terms with m < lo.
    ``lead`` is the system's leading lower-triangular block, of side
    _RENEWAL_BLOCK; by Toeplitz structure every diagonal block is a
    leading sub-block of it."""
    if hi - lo <= _RENEWAL_BLOCK:
        Zp[lo:hi] = linalg.solve_triangular(
            lead[: hi - lo, : hi - lo], rhs[lo:hi], lower=True, check_finite=False
        )
        return
    mid = (lo + hi) // 2
    _solve_toeplitz(Zp, rhs, hj, lead, lo, mid)
    # sum_{lo<=m<mid} hj[i-m]*Zp[m] for mid <= i < hi
    rhs[mid:hi] += _convolve(Zp[lo:mid], hj[1 : hi - lo])[mid - lo - 1 : hi - lo - 1]
    _solve_toeplitz(Zp, rhs, hj, lead, mid, hi)


def solve_renewal(
    kernel: RenewalKernel,
    w_shift: float = 0.0,
    grid_step: float = 1e-3,
    horizon: float = 10.0,
    dri: bool = False,
) -> RenewalSolution:
    """Solve the tilted renewal equation Z' = z' + J' * Z' on a grid.

    The trapezoid-discretized convolution is a lower-triangular Toeplitz
    system.  It is solved by divide and conquer (Hairer, Lubich and
    Schlichte, SIAM J. Sci. Stat. Comput. 6(3), 1985): solve the left
    half of the index range, add its convolution with the kernel to the
    right half's right-hand side by one FFT, then solve the right half;
    ranges of at most _RENEWAL_BLOCK points are solved by forward
    substitution (LAPACK).  The cost is O(n log^2 n) for n grid points.

    Requires the tilted kernel to stay defective (psi_J(w_shift) < 1)
    unless the caller vouches for direct Riemann integrability of the
    tilted forcing via ``dri=True``.
    """
    psi_at_shift = kernel.psi(w_shift)
    if psi_at_shift >= 1.0 and not dri:
        raise AssumptionError(
            f"tilted kernel is not defective (psi_J({w_shift:g}) = {psi_at_shift:g}); "
            "pass dri=True only if the tilted forcing is directly Riemann-integrable"
        )
    grid = np.arange(0.0, horizon + grid_step / 2, grid_step)
    n = len(grid)
    tilt = np.exp(w_shift * grid)
    j, z = kernel.on_grid(grid)
    hj = grid_step * (j * tilt)  # the tilted kernel times the trapezoid step
    zp = z * tilt
    Zp = np.empty(n)
    Zp[0] = zp[0]
    rhs = zp + 0.5 * hj * Zp[0]
    lead = np.tril(linalg.toeplitz(-hj[:_RENEWAL_BLOCK]))
    np.fill_diagonal(lead, 1.0 - 0.5 * hj[0])
    _solve_toeplitz(Zp, rhs, hj, lead, 1, n)
    Z = Zp * np.exp(-w_shift * grid)
    return RenewalSolution(grid=grid, Z_tilted=Zp, Z=Z, C=float(Zp.max()), w_shift=w_shift)


def exponential_case_decay(lam: float, H: DistributionSpec, p: float = 1.0) -> float:
    """Decay exponent lam * (1 - E[exp(-p*Theta*DeltaT)]) for G = Exp(lam)."""
    if lam <= 0:
        raise AssumptionError("rate must be positive")
    return lam * (1.0 - RenewalKernel(DistributionSpec.exponential(lam), H, p).mass())


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


def _eta_quad(eps: float, F: DistributionSpec) -> float:
    """eta by quadrature of |f(u) - f(u - eps)|, the oracle of the tests."""
    lo, hi = F.support()
    pts = sorted({lo, lo + eps} | ({hi, hi + eps} if math.isfinite(hi) else set()))
    integrand = lambda u: abs(F.density(u) - F.density(u - eps))
    total = 0.0
    for left, right in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(integrand, left, right, epsabs=1e-10, epsrel=1e-10, limit=200)
        total += val
    if not math.isfinite(hi):
        val, _ = integrate.quad(integrand, pts[-1], math.inf, epsabs=1e-10, limit=200)
        total += val
    return 0.5 * total


@dataclass(frozen=True)
class HolderData:
    """Smoothness data of the intake density: |f(x)-f(y)| <= K|x-y|**h,
    with either a compact support bound M or a polynomial tail
    f(x) <= C_tail * x**(-p_tail), p_tail > 2."""

    K: float
    h: float
    M: Optional[float] = None
    C_tail: Optional[float] = None
    p_tail: Optional[float] = None


def eta_envelope(
    eps_max: float,
    F: DistributionSpec,
    holder: Optional[HolderData] = None,
    n_grid: int = 200,
) -> tuple[float, float]:
    """Power-law envelope (C, v) with sup_{x <= eps} eta(x) <= C * eps**v.

    Uses the smoothness data when supplied (compact support:
    C = K(M+1)/2, v = h; polynomial tail: the quantile-controlled
    constants), a closed form for the box and exponential families, and
    otherwise a numeric fit inflated to dominate eta on the grid.
    """
    if holder is not None:
        if holder.M is not None:
            return holder.K * (holder.M + 1.0) / 2.0, holder.h
        if holder.C_tail is not None and holder.p_tail is not None:
            if holder.p_tail <= 2.0:
                raise AssumptionError("polynomial tail exponent must exceed 2")
            C = (
                holder.K
                * ((holder.C_tail / (holder.p_tail - 1.0)) ** (1.0 / (holder.p_tail - 1.0)) + 1.0)
                / 2.0
                + 1.0
            )
            v = holder.h - holder.h / (holder.p_tail - 1.0)
            return C, v
    if F.family is Family.UNIFORM:
        lo, hi = F.params
        return 1.0 / (hi - lo), 1.0
    if F.family in (Family.EXPONENTIAL, Family.SHIFTED_EXPONENTIAL):
        rate = F.params[0] if F.family is Family.EXPONENTIAL else F.params[1]
        return rate, 1.0  # 1 - exp(-r*eps) <= r*eps
    # numeric fit, then inflate C so the envelope dominates on the grid
    eps_grid = np.geomspace(eps_max * 1e-3, eps_max, n_grid)
    vals = eta(eps_grid, F)
    mask = vals > 0
    slope, icept = np.polyfit(np.log(eps_grid[mask]), np.log(vals[mask]), 1)
    v = max(min(slope, 1.0), 1e-6)
    C = float(np.max(vals[mask] / eps_grid[mask] ** v))
    return C, v


# ---------------------------------------------------------------------------
# Age-coalescence bound parameters and tail
# ---------------------------------------------------------------------------


def _validate_case(case: str, profile: HazardProfile):
    if case not in ("i", "ii", "iii"):
        raise ValueError(f"unknown case {case!r}")
    a, d, sup = profile.a, profile.d, profile.sup_zeta
    if case == "i":
        if not math.isfinite(d):
            raise CaseMismatchError("case i needs a finite hazard-blowup age d")
        if d <= 1.5 * a:
            raise CaseMismatchError(
                "case i needs d > 3a/2; configurations with d <= 3a/2 are rejected"
            )
    elif case == "ii":
        if math.isfinite(d) or math.isinf(sup):
            raise CaseMismatchError("case ii needs d = inf and a bounded hazard")
    else:
        if math.isfinite(d) or math.isfinite(sup):
            raise CaseMismatchError("case iii needs d = inf and an unbounded hazard")


def age_bound_params(
    case: str, profile: HazardProfile, eps: float, b: float, c: float
) -> tuple[float, float]:
    """Coalescence probabilities (p1, p2) for the requested hazard regime."""
    _validate_case(case, profile)
    a, d = profile.a, profile.d
    if eps <= a / 2.0:
        raise AssumptionError("closeness threshold must exceed a/2")
    if not (a < b < d):
        raise AssumptionError("jump-domain start b must lie in (a, d)")
    zeta_b = profile.zeta(b)
    if zeta_b <= 0.0:
        raise AssumptionError("hazard must be positive at the jump-domain start")
    if case == "ii":
        sup = profile.sup_zeta
        return math.exp(-b * sup), zeta_b / sup
    if not (b + eps < c < d):
        raise AssumptionError("jump-domain end c must satisfy b + eps < c < d")
    p1 = 1.0 - math.exp(-(eps - a / 2.0) * profile.zeta(eps + a / 2.0))
    base = math.exp(-b * profile.zeta(b + eps)) * (
        1.0 - math.exp(-(c - b - eps) * zeta_b)
    )
    if case == "i":
        return p1, base
    return p1, (zeta_b / profile.zeta(c)) * base


def default_age_params(profile: HazardProfile) -> tuple[float, float, float]:
    """Heuristic (eps, b, c) satisfying the case hypotheses for a profile."""
    a, d = profile.a, profile.d
    if math.isfinite(d):
        m = (d - 1.5 * a) / 4.0
        if m <= 0:
            raise CaseMismatchError(
                "case i needs d > 3a/2; configurations with d <= 3a/2 are rejected"
            )
        return a / 2.0 + m, a + m, 1.5 * a + 3.0 * m
    m = 0.5 * profile.spec.mean()
    eps = a / 2.0 + 0.5 * m
    b = a + m
    return eps, b, b + eps + m


def sample_age_bound(
    case: str,
    p1: float,
    p2: float,
    eps: float,
    b: float,
    c: float,
    profile: HazardProfile,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n copies of the stochastic upper bound on the age-coalescence time.

    The bound is a geometric mixture of geometric/exponential blocks;
    the exponential rate is zeta(b) in the bounded-hazard regime and
    zeta(c) otherwise.  Each replica's totals are drawn from their
    closed-form laws: H ~ Geometric(p2) rounds, a sum of H Geometric(p1)
    block counts, which is H + NegativeBinomial(H, p1), and a sum of that
    many exponential waits, which is a gamma variate.
    """
    _validate_case(case, profile)
    H = rng.geometric(p2, size=n)
    blocks = H + rng.negative_binomial(H, p1)
    if case == "i":
        return c + (2.0 * H - 1.0) * eps + (profile.d - eps) * blocks
    rate = profile.zeta(b) if case == "ii" else profile.zeta(c)
    e_per_rep = rng.gamma(blocks, 1.0 / rate)
    if case == "ii":
        return b * blocks + e_per_rep
    return c - eps + 2.0 * eps * H + (c - eps) * blocks + e_per_rep


def age_bound_tail(
    case: str,
    p1: float,
    p2: float,
    eps: float,
    b: float,
    c: float,
    profile: HazardProfile,
    grid: np.ndarray,
) -> np.ndarray:
    """Monte Carlo survival function of the bound variable on a grid."""
    rng = np.random.default_rng(_TAIL_SEED)
    sample = np.sort(sample_age_bound(case, p1, p2, eps, b, c, profile, N_MC_TAIL, rng))
    grid = np.asarray(grid, dtype=float)
    return 1.0 - np.searchsorted(sample, grid, side="right") / len(sample)


def fit_dominating_exponential(
    grid: np.ndarray, tail: np.ndarray, v_cap: Optional[float] = None
) -> tuple[float, float]:
    """Fit (C, v) with C*exp(-v*t) >= tail(t) at every grid point.

    The rate comes from a log-linear fit of the strictly positive tail
    values, clamped by ``v_cap`` when an analytic cap applies; the
    constant is then inflated to guarantee grid dominance.
    """
    grid = np.asarray(grid, dtype=float)
    tail = np.asarray(tail, dtype=float)
    mask = tail > 0
    if mask.sum() >= 2 and np.ptp(grid[mask]) > 0:
        slope, _ = np.polyfit(grid[mask], np.log(tail[mask]), 1)
        v = max(-slope, 1e-12)
    else:
        v = 1e-12 if v_cap is None else v_cap
    if v_cap is not None:
        v = min(v, v_cap)
    with np.errstate(over="ignore"):
        C = float(np.max(np.where(tail > 0, tail * np.exp(v * grid), 0.0)))
    return max(C, 1.0), float(v)


def age_rate_cap(case: str, p1: float, p2: float, eps: float, profile: HazardProfile) -> Optional[float]:
    """Analytic cap on the exponential rate of the coalescence-time tail."""
    if case == "i":
        return 0.5 * min(
            -math.log(1.0 - p2) / (2.0 * eps),
            -math.log(1.0 - p1 * p2) / (profile.d - eps),
        )
    return None


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
    with every constant computed from the model laws.
    """
    profile = hazard_profile(G)
    kernel = RenewalKernel(G, H, p)
    q = kernel.mass()
    rho = 1.0 - q
    if not 0.0 < rho < 1.0:
        raise AssumptionError("mean per-renewal contraction must lie in (0, 1)")

    # phase 1: age coalescence tail
    if profile.inf_zeta > 0.0:
        case = None
        p1 = p2 = eps_a = b = c = None
        v1 = profile.inf_zeta
        C1p = 1.0
    else:
        if math.isfinite(profile.d):
            case = "i"
        elif math.isfinite(profile.sup_zeta):
            case = "ii"
        else:
            case = "iii"
        eps_a, b, c = age_params if age_params is not None else default_age_params(profile)
        p1, p2 = age_bound_params(case, profile, eps_a, b, c)
        mean_scale = G.mean()
        tail_grid = np.linspace(0.0, 400.0 * mean_scale / max(p1 * p2, 1e-3), 400)
        tail = age_bound_tail(case, p1, p2, eps_a, b, c, profile, tail_grid)
        C1p, v1 = fit_dominating_exponential(
            tail_grid, tail, v_cap=age_rate_cap(case, p1, p2, eps_a, profile)
        )

    # phase 2: Wasserstein contraction rate
    const_rate = profile.constant_rate
    if const_rate is not None:
        # closed Poisson bound: exp(-lam*(1 - E[e^{-p Theta DT}])*t), no constant
        w = exponential_case_decay(const_rate, H, p)
        v2p = w / p
        C2p = 1.0
    else:
        w = find_w(kernel)
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

    eta_C, eta_vp = eta_envelope(1.0, F, holder=holder)
    v_prime = v2p / (1.0 + eta_vp)
    v2 = v2p - v_prime
    v4 = eta_vp * v_prime
    C4 = eta_C

    EU = F.mean()
    c2_base = x0_sum_mean * (1.0 + 1.0 / q) + 2.0 * EU / rho
    C2 = c2_base * C2p

    if alpha is None or beta is None:
        alpha, beta = _balanced_alpha_beta(v1, v2, v3)
    if not 0.0 < alpha < beta < 1.0:
        raise AssumptionError("phase fractions must satisfy 0 < alpha < beta < 1")

    C1_tv = C1p
    C1_w1 = (c2_base + 2.0 * H.mean() + 2.0 * G.mean()) * C1p
    C2_w1 = c2_base * C2p

    return RateReport(
        p=p, w=w, v_G=v_G, rho=rho, q=q,
        case=case, p1=p1, p2=p2, eps_age=eps_a if case else None,
        b=b if case else None, c=c if case else None,
        C_renewal=C2p, eta_C=eta_C, eta_v=eta_vp,
        C1=C1_tv, v1=v1, C2_prime=C2p, v2_prime=v2p, C2=C2, v2=v2,
        C3=C3, v3=v3, C4=C4, v4=v4, v_prime=v_prime,
        alpha=alpha, beta=beta, C1_w1=C1_w1, C2_w1=C2_w1,
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
    h = holder.h
    K, M = holder.K, holder.M
    km = K * (M + 1.0) / 2.0
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
