"""Reference computations the tests check the package against,
independent of the package's own numerics: scipy's QUADPACK quadrature,
for which ``eta_quad`` evaluates its densities with ``math`` alone, the
point-by-point solve of the discretized renewal equation, and the
Laplace root by plain bisection."""

import math

import numpy as np
from scipy import integrate

from contamsim.rates import _bracket_edge


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


def bisected_w(kernel) -> float:
    """The Laplace root sup{u : psi_J(u) < 1} by bisection alone: the
    midpoint of the bracket ``_bracket_edge`` closes to W_TOL, +inf when
    psi_J stays below 1 up to W_CAP."""
    bracket = _bracket_edge(lambda u: kernel.psi(u) < 1.0)
    return math.inf if bracket is None else 0.5 * (bracket[0] + bracket[1])
