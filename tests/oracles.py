"""Reference computations the tests check the package against, by
scipy's QUADPACK quadrature, independent of the package's own numerics."""

import math

from scipy import integrate


def eta_quad(eps: float, F) -> float:
    """eta by quadrature of |f(u) - f(u - eps)|."""
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


def moment_quad(density, u: float, lo: float, hi: float) -> float:
    """int_lo^hi exp(u x) density(x) dx, the exponential taken of one sum so
    that exp(u x) cannot overflow where the density is tiny."""

    def integrand(x):
        d = density(x)
        return math.exp(u * x + math.log(d)) if d > 0.0 else 0.0

    val, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=500)
    return val
