"""Reference computations the tests check the package against,
independent of the package's own numerics: scipy's QUADPACK quadrature,
for which ``eta_quad`` evaluates its densities with ``math`` alone, the
renewal solve the phase-2 constant C2' = 1 of the bound replaces (an
FFT power-series solve, checked against the point-by-point solve of the
discretized renewal equation), the Laplace root and the age-tail
abscissa by plain bisection, a sampler of the age-coalescence bound
variable with an empirical stochastic-dominance check, and the two
total-variation bounds of the memoryless case."""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from contamsim.distributions import DistributionSpec
from contamsim.errors import AssumptionError
from contamsim.estimators import _Z95
from contamsim.rates import W_CAP, W_TOL, AgeBound, HolderData, RenewalKernel

RENEWAL_TOL = 1e-6  # relative error target of the renewal constant C


def _density(F):
    """The density of F, a uniform, exponential, gamma or Weibull law, as a
    scalar function written on ``math`` alone."""
    family, p = F.family.value, F.params
    if family == "uniform":
        lo, hi = p
        return lambda x: 1.0 / (hi - lo) if lo <= x <= hi else 0.0
    if family == "exponential":
        (rate,) = p
        return lambda x: rate * math.exp(-rate * x) if x >= 0.0 else 0.0
    if family not in ("gamma", "weibull"):
        raise ValueError(f"no oracle density for the {family} family")
    k, s = p
    at_zero = math.inf if k < 1.0 else (1.0 / s if k == 1.0 else 0.0)
    if family == "gamma":
        log_norm = math.lgamma(k) + math.log(s)
        log_f = lambda z: (k - 1.0) * math.log(z) - z - log_norm
    else:
        log_f = lambda z: math.log(k / s) + (k - 1.0) * math.log(z) - z**k

    def density(x):
        if x <= 0.0:
            return at_zero if x == 0.0 else 0.0
        return math.exp(log_f(x / s))

    return density


def eta_quad(eps: float, F) -> float:
    """eta by quadrature of |f(u) - f(u - eps)|."""
    lo, hi = F.support()
    pts = sorted({lo, lo + eps} | ({hi, hi + eps} if math.isfinite(hi) else set()))
    f = _density(F)
    integrand = lambda u: abs(f(u) - f(u - eps))
    total = 0.0
    for left, right in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(integrand, left, right, epsabs=1e-10, epsrel=1e-10, limit=200)
        total += val
    if not math.isfinite(hi):
        val, _ = integrate.quad(integrand, pts[-1], math.inf, epsabs=1e-10, limit=200)
        total += val
    return 0.5 * total


def moment_quad(density, u: float, lo: float, hi: float) -> float:
    """int_lo^hi exp(u x) density(x) dx, the exponential taken of one sum so
    that exp(u x) cannot overflow where the density is tiny."""

    def integrand(x):
        d = density(x)
        return math.exp(u * x + math.log(d)) if d > 0.0 else 0.0

    val, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=500)
    return val


@dataclass
class RenewalSolution:
    """The tilted solution exp(w_shift t) Z(t) of the renewal equation on
    its grid, and its maximum there, the phase-2 constant C2'.

    On the default grid of :func:`solve_renewal` only ``C`` is accurate
    to ``RENEWAL_TOL``: the step doubling controls the error of the
    maximum, not of ``Z_tilted`` past t = 0, which can be far off where
    the tilt is near-critical (Weibull(2, 0.02) waits with gamma(2, 0.1)
    rates: Z'(50) reads 0.502 on the accepted grid, 0.284 on the grid
    before it)."""

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
    grid_step: Optional[float] = None,
    horizon: float = 10.0,
) -> RenewalSolution:
    """Solve the tilted renewal equation Z' = z' + J' * Z' on a grid.

    With ``grid_step`` the grid is 0, grid_step, 2 grid_step, ... up to
    ``horizon`` and the trapezoid-discretized equation is solved once on
    it (see ``_solve_on_grid``).  Without it the grid step is halved until
    the maximum C is known to RENEWAL_TOL: the first grid has 2^k + 1
    points, 2^k >= max(1024, 16 horizon / E[DeltaT]) so that a mean wait
    spans 16 steps, and each halving nests the grid before it.  At the
    shared points, e_i = |Z'_fine[2i] - Z'_coarse[i]| / 3 is Richardson's
    estimate of the error of the trapezoid rule's O(h^2) fine solution,
    and the fine solution is returned once max_i(Z'_fine[2i] + e_i) - C
    <= RENEWAL_TOL * C, C = max Z'_fine.  A grid past 2^22 + 1 points is
    rejected.

    Requires the tilted kernel to stay defective (psi_J(w_shift) < 1).
    Returns the grid, the tilted solution Z' on it and its maximum C.
    """
    psi_at_shift = kernel.psi(w_shift)
    if psi_at_shift >= 1.0:
        raise AssumptionError(
            f"tilted kernel is not defective (psi_J({w_shift:g}) = {psi_at_shift:g})"
        )
    if grid_step is not None:
        grid = np.arange(0.0, horizon + grid_step / 2, grid_step)
        Zp = _solve_on_grid(kernel, w_shift, grid, grid_step)
        return RenewalSolution(grid=grid, Z_tilted=Zp, C=float(Zp.max()))
    cells = 1 << max(1023, math.ceil(16.0 * horizon / kernel.G.mean()) - 1).bit_length()
    coarse = None
    while cells <= 1 << 22:
        grid = np.linspace(0.0, horizon, cells + 1)
        Zp = _solve_on_grid(kernel, w_shift, grid, horizon / cells)
        C = float(Zp.max())
        if coarse is not None:
            shared = Zp[::2]
            if np.max(shared + np.abs(shared - coarse) / 3.0) - C <= RENEWAL_TOL * C:
                return RenewalSolution(grid=grid, Z_tilted=Zp, C=C)
        coarse = Zp
        cells *= 2
    raise AssumptionError(
        f"the renewal solve does not reach RENEWAL_TOL = {RENEWAL_TOL:g} on 2^22 + 1 grid "
        f"points over [0, {horizon:g}]"
    )


def _solve_on_grid(
    kernel: RenewalKernel, w_shift: float, grid: np.ndarray, step: float
) -> np.ndarray:
    """The tilted solution Z' on ``grid``, 0, step, 2 step, ...

    The trapezoid-discretized convolution is a lower-triangular Toeplitz
    system a * Z' = r: a product of power series truncated to n terms.
    Its solution is the power series r/a.  1/a to half the terms comes
    from Newton's iteration b <- b (2 - a b) (Brent and Kung, "Fast
    algorithms for manipulating formal power series", J. ACM 25(4), 1978),
    each step a middle product on real FFTs, and one Newton step on the
    quotient itself gives r/a (see ``_series_quotient``).  Every transform
    has a power-of-two length.  The cost is O(n log n) for n grid points, with
    no LAPACK.  A kernel or forcing that is not finite on the grid (a
    density infinite at 0) is rejected, and so is a solution that is not.
    """
    n = len(grid)
    tilt = np.exp(w_shift * grid)
    disc = kernel.discount(grid)
    j, z = disc * kernel.G.density(grid), disc * kernel.G.survival(grid)
    hj = step * (j * tilt)  # the tilted kernel times the trapezoid step
    zp = z * tilt
    if not (np.isfinite(hj).all() and np.isfinite(zp).all()):
        raise AssumptionError(
            "the renewal solve needs a kernel density and forcing finite on its grid"
        )
    Zp = np.empty(n)
    Zp[0] = zp[0]
    if n > 1:
        # rows i >= 1: (1 - hj[0]/2) Zp[i] - sum_{0<m<i} hj[i-m] Zp[m] = zp[i] + hj[i] Zp[0]/2
        a = -hj[: n - 1]
        a[0] = 1.0 - 0.5 * hj[0]
        rhs = zp[1:] + 0.5 * hj[1:] * Zp[0]
        Zp[1:] = _series_quotient(rhs, a)
    if not np.isfinite(Zp).all():
        raise AssumptionError(f"the renewal solve is not finite on {n} grid points")
    return Zp


def forward_substitution(kernel, w_shift: float, grid_step: float, horizon: float) -> np.ndarray:
    """The O(n^2) point-by-point solve of the trapezoid-discretized
    tilted renewal equation: the tilted solution on the grid of
    ``solve_renewal``, from the kernel evaluated one point at a time."""
    grid = np.arange(0.0, horizon + grid_step / 2, grid_step)
    n, h = len(grid), grid_step
    tilt = np.exp(w_shift * grid)
    jp = np.array([kernel.density(t) for t in grid]) * tilt
    zp = np.array([kernel.discount(t) * kernel.G.survival(t) for t in grid]) * tilt
    Zp = np.empty(n)
    Zp[0] = zp[0]
    denom = 1.0 - 0.5 * h * jp[0]
    for i in range(1, n):
        acc = 0.5 * h * jp[i] * Zp[0]
        if i > 1:
            acc += h * np.dot(jp[1:i], Zp[i - 1 : 0 : -1])
        Zp[i] = (zp[i] + acc) / denom
    return Zp


def _bracket_edge(below: Callable[[float], bool]) -> Optional[tuple[float, float]]:
    """A bracket (lo, hi) of width at most W_TOL around the edge of
    {s >= 0 : below(s)}, assumed an interval from 0, with below(lo) true
    (or lo = 0) and below(hi) false; None when below holds up to W_CAP.

    The edge is probed at 1, 2, 4, ... and then bisected: the package's
    regula falsi cell search must end on this bracket, bit for bit.
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


def bisected_w(kernel) -> float:
    """The Laplace root sup{u : psi_J(u) < 1} by bisection alone: the
    midpoint of the bracket ``_bracket_edge`` closes to W_TOL, +inf
    when psi_J stays below 1 up to W_CAP.  ``find_w`` must return it bit
    for bit."""
    bracket = _bracket_edge(lambda u: kernel.psi(u) < 1.0)
    return math.inf if bracket is None else 0.5 * (bracket[0] + bracket[1])


def bisected_abscissa(bound: AgeBound) -> float:
    """The abscissa sup{s : M(s) < inf} of an age bound by bisection alone:
    the lower end of the bracket ``_bracket_edge`` closes to W_TOL, W_CAP
    when M stays finite up to W_CAP.  ``AgeBound.abscissa`` must return it
    bit for bit."""
    bracket = _bracket_edge(lambda s: bound._log_mgf(s) < math.inf)
    return W_CAP if bracket is None else bracket[0]


def age_bound_sample(bound: AgeBound, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n copies of the bound variable T of ``bound``.

    Each replica's totals are drawn from their closed-form laws (see
    :class:`AgeBound`): H ~ Geometric(p2) rounds, a sum of H Geometric(p1)
    block counts, which is H + NegativeBinomial(H, p1), and a sum of that
    many exponential waits, which is a gamma variate.
    """
    eps, b, c = bound.eps, bound.b, bound.c
    H = rng.geometric(bound.p2, size=n)
    blocks = H + rng.negative_binomial(H, bound.p1)
    if bound.case == "i":
        return c + (2.0 * H - 1.0) * eps + (bound.profile.d - eps) * blocks
    e_per_rep = rng.gamma(blocks, 1.0 / bound.rate)
    if bound.case == "ii":
        return b * blocks + e_per_rep
    return c - eps + 2.0 * eps * H + (c - eps) * blocks + e_per_rep


def survival_compare(
    sample_a: Sequence[float], sample_b: Sequence[float], grid: Sequence[float]
) -> bool:
    """Whether sample A is stochastically below sample B: at every grid
    point the empirical survival of A is at most that of B plus the joint
    95% confidence slack."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    grid = np.asarray(grid, dtype=float)
    sa = np.array([(a > t).mean() for t in grid])
    sb = np.array([(b > t).mean() for t in grid])
    se_a = np.sqrt(sa * (1 - sa) / len(a))
    se_b = np.sqrt(sb * (1 - sb) / len(b))
    slack = _Z95 * np.sqrt(se_a**2 + se_b**2)
    return bool(np.all(sa <= sb + slack))


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
