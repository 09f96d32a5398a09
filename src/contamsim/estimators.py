"""Monte Carlo estimators of distances and tails, with confidence intervals.

The total-variation estimate used against theoretical curves is the
coupling tail P(tau > t): it is an upper bound on the distance with a
clean binomial error.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ContamsimError

__all__ = [
    "wilson_interval",
    "tv_via_coupling",
    "mean_with_ci",
]

_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ContamsimError("need at least one trial")
    z = _Z95
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def mean_with_ci(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and the half-width of its 95% normal-approximation
    interval."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        raise ContamsimError("need at least one value")
    se = values.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return float(values.mean()), _Z95 * se


def tv_via_coupling(taus: Sequence[float], t: float) -> tuple[float, float, float]:
    """Fraction of replicas not yet coalesced at time t, from their
    coalescence times, with its Wilson interval: (estimate, low, high)."""
    taus = np.asarray(taus, dtype=float)
    if len(taus) == 0:
        raise ContamsimError("no coupling replicas given")
    n = len(taus)
    k = int((taus > t).sum())
    return (k / n, *wilson_interval(k, n))

