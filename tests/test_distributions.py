"""Tests of the parametric laws and their hazard machinery."""

import math

import numpy as np
import pytest

from contamsim.distributions import (
    DistributionSpec,
    Family,
    Role,
    hazard_profile,
)
from contamsim.errors import DistributionError, HazardDomainError, NoDensityError


def test_parameter_validation():
    with pytest.raises(DistributionError):
        DistributionSpec.uniform(1.0, 1.0)
    with pytest.raises(DistributionError):
        DistributionSpec.exponential(-1.0)
    with pytest.raises(DistributionError):
        DistributionSpec.dirac(-0.5)
    with pytest.raises(DistributionError):
        DistributionSpec(Family.GAMMA, (2.0,))


def test_role_constraints():
    # a point mass has no hazard rate, so it cannot time the intakes
    with pytest.raises(DistributionError):
        DistributionSpec.dirac(1.0, role=Role.INTER_ARRIVAL)
    # decreasing-hazard shapes are rejected for the inter-intake law
    with pytest.raises(DistributionError):
        DistributionSpec.gamma(0.5, 1.0, role=Role.INTER_ARRIVAL)
    with pytest.raises(DistributionError):
        DistributionSpec.weibull(0.5, 1.0, role=Role.INTER_ARRIVAL)
    # but they are fine in other roles
    DistributionSpec.gamma(0.5, 1.0, role=Role.INTAKE)
    DistributionSpec.dirac(1.0, role=Role.METABOLIC)
    # hazard_profile applies the inter-arrival checks whatever the tag
    for spec in [
        DistributionSpec.dirac(1.0),
        DistributionSpec.gamma(0.5, 1.0),
        DistributionSpec.weibull(0.5, 1.0),
        DistributionSpec.uniform(-1.0, 1.0),
        DistributionSpec.dirac(1.0, role=Role.METABOLIC),
    ]:
        with pytest.raises(DistributionError):
            hazard_profile(spec)
    prof = hazard_profile(DistributionSpec.gamma(2.0, 1.0, role=Role.INTAKE))
    assert prof.spec.role is Role.INTER_ARRIVAL and prof.sup_zeta == 1.0


def test_point_mass_basics():
    d = DistributionSpec.dirac(2.0)
    rng = np.random.default_rng(0)
    assert d.sample(rng) == 2.0
    assert d.mean() == 2.0
    assert not d.has_density
    with pytest.raises(NoDensityError):
        d.density(2.0)


def test_density_examples():
    assert DistributionSpec.gamma(2.0, 1.0).density(1.0) == pytest.approx(math.exp(-1.0))
    assert DistributionSpec.uniform(0.0, 2.0).density(1.0) == 0.5
    assert DistributionSpec.uniform(0.0, 2.0).density(3.0) == 0.0
    assert DistributionSpec.exponential(2.0).density(0.0) == 2.0
    assert DistributionSpec.shifted_exponential(1.0, 3.0).density(0.5) == 0.0
    assert DistributionSpec.shifted_exponential(1.0, 3.0).density(1.0) == 3.0


def test_means():
    rng = np.random.default_rng(42)
    for spec in [
        DistributionSpec.exponential(2.0),
        DistributionSpec.gamma(3.0, 0.5),
        DistributionSpec.uniform(1.0, 4.0),
        DistributionSpec.weibull(2.0, 1.5),
        DistributionSpec.shifted_exponential(1.0, 2.0),
    ]:
        xs = spec.sample(rng, 200_000)
        # CLT band at ~4 standard errors
        se = xs.std() / math.sqrt(len(xs))
        assert abs(xs.mean() - spec.mean()) < 4.5 * se


def test_laplace_examples():
    # E[e^{uX}] for Exp(1) at u = 1/2 is 2; at u >= 1 it diverges
    e1 = DistributionSpec.exponential(1.0)
    assert e1.laplace(0.5) == pytest.approx(2.0)
    assert e1.laplace(0.0) == 1.0
    assert math.isinf(e1.laplace(1.0))
    assert e1.laplace_domain_sup() == 1.0
    g = DistributionSpec.gamma(2.0, 0.5)
    assert g.laplace(1.0) == pytest.approx(4.0)
    d = DistributionSpec.dirac(3.0)
    assert d.laplace(-1.0) == pytest.approx(math.exp(-3.0))
    u = DistributionSpec.uniform(0.0, 1.0)
    assert u.laplace(1.0) == pytest.approx(math.e - 1.0)
    # finite in theory, but beyond the largest float: +inf, not OverflowError
    assert DistributionSpec.uniform(0.0, 30.0).laplace(64.0) == math.inf
    assert DistributionSpec.dirac(20.0).laplace(64.0) == math.inf


def test_laplace_monotone_and_convex():
    # the moment transform is non-decreasing and log-convex on its domain
    for spec in [
        DistributionSpec.exponential(1.5),
        DistributionSpec.gamma(2.0, 1.0),
        DistributionSpec.uniform(0.5, 2.0),
        DistributionSpec.weibull(2.0, 1.0),
    ]:
        us = np.linspace(-2.0, 0.4 * min(2.0, spec.laplace_domain_sup()), 25)
        vals = np.array([spec.laplace(u) for u in us])
        assert np.all(np.diff(vals) > -1e-12)
        logs = np.log(vals)
        assert np.all(np.diff(logs, 2) > -1e-8)


def test_laplace_against_quadrature():
    from scipy import integrate

    spec = DistributionSpec.weibull(2.0, 1.5)
    for u in (-1.0, -0.3, 0.2):
        ref, _ = integrate.quad(
            lambda x: math.exp(u * x) * spec.density(x), 0, np.inf, limit=200
        )
        assert spec.laplace(u) == pytest.approx(ref, rel=1e-8)


def test_cdf_survival_consistency():
    for spec in [
        DistributionSpec.exponential(2.0),
        DistributionSpec.gamma(3.0, 0.5),
        DistributionSpec.uniform(1.0, 4.0),
        DistributionSpec.weibull(1.5, 2.0),
        DistributionSpec.shifted_exponential(0.5, 1.0),
    ]:
        for x in np.linspace(0.0, 6.0, 25):
            assert spec.cdf(x) + spec.survival(x) == pytest.approx(1.0, abs=1e-12)


def test_sampling_matches_cdf():
    # Kolmogorov-Smirnov at the 1% level: D_n <= 1.63 / sqrt(n)
    n = 100_000
    rng = np.random.default_rng(7)
    for spec in [
        DistributionSpec.exponential(1.0),
        DistributionSpec.gamma(2.0, 1.0),
        DistributionSpec.uniform(0.5, 2.5),
        DistributionSpec.weibull(2.0, 1.0),
        DistributionSpec.shifted_exponential(1.0, 2.0),
    ]:
        xs = np.sort(spec.sample(rng, n))
        cdf = spec.cdf(xs)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        d = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_lo - cdf)))
        assert d <= 1.63 / math.sqrt(n), spec.family


def test_hazard_closed_forms():
    # Weibull(2, sqrt(2)) has hazard zeta(t) = t
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    for t in (0.5, 1.0, 2.0, 3.3):
        assert prof.zeta(t) == pytest.approx(t)
    # memoryless law: constant hazard
    prof = hazard_profile(DistributionSpec.exponential(2.5))
    assert prof.constant_rate == 2.5
    assert prof.inverse(0.7, 1.0) == pytest.approx(0.4)
    # delayed law: zero hazard before the shift
    prof = hazard_profile(DistributionSpec.shifted_exponential(1.0, 2.0))
    assert prof.zeta(0.5) == 0.0
    assert prof.zeta(1.5) == 2.0
    assert prof.a == 1.0
    assert prof.inverse(0.0, 2.0) == pytest.approx(2.0)
    # bounded support: hazard blows up at the right end point
    prof = hazard_profile(DistributionSpec.uniform(0.0, 2.0))
    assert prof.d == 2.0
    assert prof.zeta(1.0) == pytest.approx(1.0)
    with pytest.raises(HazardDomainError):
        prof.zeta(2.0)


def test_hazard_matches_survival():
    # survival(x) == exp(-cumulative hazard from age 0) for every family
    for spec in [
        DistributionSpec.exponential(1.5),
        DistributionSpec.gamma(2.0, 1.0),
        DistributionSpec.weibull(2.0, 1.0),
        DistributionSpec.shifted_exponential(0.5, 2.0),
        DistributionSpec.uniform(0.0, 3.0),
    ]:
        prof = hazard_profile(spec)
        hi = spec.support()[1]
        xs = np.linspace(0.02, min(6.0, hi * 0.99 if math.isfinite(hi) else 6.0), 50)
        for x in xs:
            assert math.exp(-prof.cumulative(0.0, x)) == pytest.approx(
                spec.survival(x), abs=1e-8
            )


def test_hazard_inverse_roundtrip():
    for spec in [
        DistributionSpec.gamma(3.0, 0.5),
        DistributionSpec.weibull(1.8, 1.3),
        DistributionSpec.uniform(0.5, 2.0),
        DistributionSpec.shifted_exponential(1.0, 2.0),
    ]:
        prof = hazard_profile(spec)
        for a0 in (0.0, 0.3, 1.1):
            for target in (0.1, 1.0, 3.0):
                s = prof.inverse(a0, target)
                assert prof.cumulative(a0, s) == pytest.approx(target, abs=1e-8)


def test_residual_sampling_is_conditional_law():
    # inverting the integrated hazard from age a0 samples T - a0 | T > a0
    spec = DistributionSpec.gamma(2.0, 1.0)
    prof = hazard_profile(spec)
    rng = np.random.default_rng(3)
    a0 = 1.0
    n = 50_000
    xs = np.sort(prof.inverse(a0, rng.exponential(size=n)))
    cond = spec.survival(a0 + xs) / spec.survival(a0)
    emp = 1.0 - np.arange(1, n + 1) / n
    assert np.max(np.abs(emp - cond)) <= 1.63 / math.sqrt(n)


def test_reproducible_sampling():
    spec = DistributionSpec.gamma(2.0, 1.0)
    a = spec.sample(np.random.default_rng([5, 1]), 100)
    b = spec.sample(np.random.default_rng([5, 1]), 100)
    assert np.array_equal(a, b)


def test_batch_and_scalar_sampling_share_one_stream():
    # a batch of n variates is the same draws as n scalar calls
    for spec in [
        DistributionSpec.exponential(2.0),
        DistributionSpec.gamma(2.5, 0.8),
        DistributionSpec.uniform(0.5, 2.0),
        DistributionSpec.weibull(1.7, 1.2),
        DistributionSpec.dirac(3.0),
        DistributionSpec.shifted_exponential(1.0, 2.0),
    ]:
        batch = spec.sample(np.random.default_rng([6, 2]), 50)
        rng = np.random.default_rng([6, 2])
        scalars = [spec.sample(rng) for _ in range(50)]
        assert all(type(x) is float for x in scalars), spec.family
        assert isinstance(batch, np.ndarray) and batch.shape == (50,)
        assert np.array_equal(batch, scalars), spec.family



def test_gamma_hazard_far_in_the_tail():
    # the survival of gamma(3, 1) underflows past age ~745; the cumulative
    # hazard, its inverse and the rate work in log space instead
    prof = hazard_profile(DistributionSpec.gamma(3.0, 1.0))
    targets = np.array([1.0, 100.0, 800.0])
    for a0 in (0.0, 2.5):
        for e in targets:
            s = prof.inverse(a0, e)
            assert s > 0 and prof.cumulative(a0, s) == pytest.approx(e, rel=1e-9)
        s = prof.inverse(np.full(3, a0), targets)
        assert s.shape == (3,)
        assert np.allclose(prof.cumulative(np.full(3, a0), s), targets, rtol=1e-9)
    assert 0.0 < prof.zeta(800.0) <= 1.0
    # shape 3: Q(3, z) = exp(-z) (1 + z + z^2/2) in closed form
    z = np.array([1.0, 30.0, 800.0, 5000.0])
    poly = 1.0 + z + z * z / 2.0
    assert np.allclose(prof.cumulative(0.0, z), z - np.log(poly), rtol=1e-12, atol=0.0)
    assert np.allclose(prof.zeta(z), z * z / 2.0 / poly, rtol=1e-12, atol=0.0)
    rates = prof.zeta(np.array([0.0, 1.0, 800.0, 5000.0]))
    assert rates[0] == 0.0 and np.all(np.diff(rates) > 0) and np.all(rates <= 1.0)
    # where the survival does not underflow, the rate is density / survival
    spec = DistributionSpec.gamma(2.5, 0.8)
    ts = np.linspace(0.1, 40.0, 30)
    assert np.allclose(hazard_profile(spec).zeta(ts), spec.density(ts) / spec.survival(ts),
                       rtol=1e-12, atol=0.0)


def test_laws_take_arrays():
    # every law answers an array elementwise, as the scalar calls do
    xs = np.array([-0.5, 0.0, 0.4, 1.0, 2.2, 7.0])
    us = np.array([-3.0, -0.2, 0.0, 0.3])
    for spec in [
        DistributionSpec.exponential(2.0),
        DistributionSpec.gamma(2.5, 0.8),
        DistributionSpec.uniform(0.5, 2.0),
        DistributionSpec.weibull(1.7, 1.2),
        DistributionSpec.dirac(1.0),
        DistributionSpec.shifted_exponential(1.0, 2.0),
    ]:
        methods = [spec.cdf, spec.survival] + ([spec.density] if spec.has_density else [])
        for method in methods:
            assert np.array_equal(method(xs), [method(float(x)) for x in xs]), spec.family
        assert np.array_equal(spec.laplace(us), [spec.laplace(float(u)) for u in us])
        if spec.family.value == "dirac":
            continue
        prof = hazard_profile(spec)
        ages = np.array([0.0, 0.3, 0.45, 1.1])
        targets = np.array([0.2, 1.0, 3.0, 0.05])
        assert np.array_equal(prof.zeta(ages), [prof.zeta(float(a)) for a in ages])
        s = prof.inverse(ages, targets)
        assert np.array_equal(s, [prof.inverse(float(a), float(e)) for a, e in zip(ages, targets)])
        assert np.allclose(prof.cumulative(ages, s), targets, rtol=1e-9)
