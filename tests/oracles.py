"""Reference computations the tests check the package against, by
scipy's QUADPACK quadrature, independent of the package's own numerics:
``eta_quad`` evaluates its densities with ``math`` alone."""

import math

from scipy import integrate


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
