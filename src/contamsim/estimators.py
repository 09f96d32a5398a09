"""Monte Carlo estimators of distances and tails, with confidence intervals.

The total-variation estimate used against theoretical curves is the
coupling tail P(tau > t): it is an upper bound on the distance with a
clean binomial error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContamsimError

__all__ = [
    "EmpiricalCurve",
    "DominanceReport",
    "wilson_interval",
    "tv_via_coupling",
    "w1_sorted",
    "survival_compare",
    "mean_with_ci",
]

_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ContamsimError("need at least one trial")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def mean_with_ci(values: np.ndarray, z: float = _Z95) -> tuple[float, float]:
    """Sample mean and normal-approximation half-width."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        raise ContamsimError("need at least one value")
    se = values.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return float(values.mean()), z * se


@dataclass
class EmpiricalCurve:
    grid: np.ndarray
    values: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_replicas: int
    estimator_kind: str


def tv_via_coupling(taus: Sequence[float], grid: Sequence[float]) -> EmpiricalCurve:
    """Fraction of replicas not yet coalesced at each grid time, from
    their coalescence times."""
    taus = np.asarray(taus, dtype=float)
    if len(taus) == 0:
        raise ContamsimError("no coupling replicas given")
    grid = np.asarray(grid, dtype=float)
    n = len(taus)
    values = np.empty(len(grid))
    lo = np.empty(len(grid))
    hi = np.empty(len(grid))
    for i, t in enumerate(grid):
        k = int((taus > t).sum())
        values[i] = k / n
        lo[i], hi[i] = wilson_interval(k, n)
    return EmpiricalCurve(grid, values, lo, hi, n, "CouplingTailTV")


def w1_sorted(samples_a: Sequence[float], samples_b: Sequence[float]) -> float:
    """Exact empirical Wasserstein-1 distance of two equal-size 1-D samples."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) == 0:
        raise ContamsimError("need two equal-size non-empty 1-D samples")
    return float(np.abs(np.sort(a) - np.sort(b)).mean())


@dataclass
class DominanceReport:
    """Pointwise check that sample A is stochastically below sample B."""

    grid: np.ndarray
    survival_a: np.ndarray
    survival_b: np.ndarray
    slack: np.ndarray
    ok: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.ok is None:
            self.ok = self.survival_a <= self.survival_b + self.slack

    @property
    def holds(self) -> bool:
        return bool(self.ok.all())


def survival_compare(
    sample_a: Sequence[float], sample_b: Sequence[float], grid: Sequence[float], z: float = _Z95
) -> DominanceReport:
    """Compare empirical survival functions with joint CI slack."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    grid = np.asarray(grid, dtype=float)
    sa = np.array([(a > t).mean() for t in grid])
    sb = np.array([(b > t).mean() for t in grid])
    se_a = np.sqrt(sa * (1 - sa) / len(a))
    se_b = np.sqrt(sb * (1 - sb) / len(b))
    slack = z * np.sqrt(se_a**2 + se_b**2)
    return DominanceReport(grid, sa, sb, slack)
