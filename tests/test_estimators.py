"""Tests of the Monte Carlo distance estimators and interval machinery."""

import math

import numpy as np
import pytest

from contamsim.errors import ContamsimError
from contamsim.estimators import mean_with_ci, tv_via_coupling, wilson_interval
from oracles import survival_compare


def test_wilson_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ContamsimError):
        wilson_interval(0, 0)


def test_wilson_coverage():
    # the 95% interval should cover the true p in >= 93% of experiments
    rng = np.random.default_rng(0)
    p = 0.07
    n = 400
    covered = 0
    reps = 1000
    for _ in range(reps):
        k = rng.binomial(n, p)
        lo, hi = wilson_interval(k, n)
        covered += lo <= p <= hi
    assert covered / reps >= 0.93


def test_mean_with_ci():
    rng = np.random.default_rng(1)
    xs = rng.normal(3.0, 1.0, size=10_000)
    mean, half = mean_with_ci(xs)
    assert abs(mean - 3.0) < 3 * half
    assert half == pytest.approx(1.96 * xs.std(ddof=1) / 100.0, rel=1e-2)
    m, h = mean_with_ci(np.array([2.0]))
    assert (m, h) == (2.0, 0.0)
    with pytest.raises(ContamsimError):
        mean_with_ci(np.array([]))


def test_tv_via_coupling_monotone():
    taus = [0.5, 1.5, 2.5, math.inf, 3.5, 0.2] * 50
    grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    values, ci_low, ci_high = np.array([tv_via_coupling(taus, t) for t in grid]).T
    assert np.all(np.diff(values) <= 0)
    assert values[0] == 1.0
    assert values[-1] == pytest.approx(1.0 / 6.0)
    assert np.all(ci_low <= values + 1e-12)
    assert np.all(values <= ci_high + 1e-12)
    with pytest.raises(ContamsimError):
        tv_via_coupling([], 1.0)


def test_survival_compare_orders_exponentials():
    rng = np.random.default_rng(5)
    fast = rng.exponential(0.5, 50_000)   # Exp(2)
    slow = rng.exponential(1.0, 50_000)   # Exp(1)
    grid = np.linspace(0.0, 4.0, 15)
    assert survival_compare(fast, slow, grid)
    # and the reverse ordering must fail well inside the support
    assert not survival_compare(slow, fast, np.linspace(0.5, 2.0, 5))


def test_survival_compare_slack_allows_equality():
    rng = np.random.default_rng(6)
    a = rng.exponential(1.0, 20_000)
    b = rng.exponential(1.0, 20_000)
    # equal laws pass within the joint CI slack
    assert survival_compare(a, b, np.linspace(0.0, 3.0, 10))
