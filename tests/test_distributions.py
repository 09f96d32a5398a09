"""Tests of the parametric laws and their hazard machinery."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contamsim.distributions import (
    DistributionSpec,
    Family,
    hazard_profile,
)
from contamsim.errors import DistributionError, HazardDomainError, NoDensityError
from oracles import moment_quad


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
    # hazard_profile rejects the laws that cannot time the intakes: a point
    # mass has no hazard rate, shapes below 1 have a decreasing hazard, and
    # a wait cannot be negative
    for spec, message in [
        (DistributionSpec.dirac(1.0), "a point mass has none"),
        (DistributionSpec.gamma(0.5, 1.0), "gamma needs shape >= 1"),
        (DistributionSpec.weibull(0.5, 1.0), "weibull needs shape >= 1"),
        (DistributionSpec.uniform(-1.0, 1.0), r"inter_arrival law needs support in \[0, inf\)"),
    ]:
        with pytest.raises(DistributionError, match=message):
            hazard_profile(spec)
    prof = hazard_profile(DistributionSpec.gamma(2.0, 1.0))
    assert prof.spec == DistributionSpec.gamma(2.0, 1.0) and prof.sup_zeta == 1.0


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
    # shape 1: x^0 = 1 at x = 0, not 0 * log(0)
    assert DistributionSpec.gamma(1.0, 2.0).density(0.0) == 0.5
    assert DistributionSpec.weibull(1.0, 2.0).density(0.0) == 0.5


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
    # a Weibull tail of shape < 1 is heavier than any exponential, also where
    # the integrand starts to grow only beyond the largest float
    assert DistributionSpec.weibull(0.9, 1.5).laplace(1e-3) == math.inf
    # Weibull(2, s) in closed form: 1 + su (sqrt(pi)/2) e^{(su)^2/4} (1 + erf(su/2))
    for u in (-2.0, -0.3, 0.2, 1.0):
        a = 1.5 * u
        exact = 1.0 + a * math.sqrt(math.pi) / 2.0 * math.exp(a * a / 4.0) * (1.0 + math.erf(a / 2.0))
        assert DistributionSpec.weibull(2.0, 1.5).laplace(u) == pytest.approx(
            exact, rel=1e-13, abs=0.0)


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
    # the package's Gauss-Kronrod quadrature, after y = (x/s)^k, against
    # scipy's QUADPACK on the density
    for k in (0.5, 1.0, 2.0, 3.5):
        spec = DistributionSpec.weibull(k, 1.5)
        for u in (-2.0, -1.0, -0.3) + ((0.2,) if k >= 1.0 else ()):
            val = spec.laplace(u)
            assert not math.isnan(val)
            assert val == pytest.approx(moment_quad(spec.density, u, 0.0, np.inf), rel=1e-10)
        vals = spec.laplace(np.array([-2.0, -0.3]))
        assert vals.shape == (2,) and not np.isnan(vals).any()


_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_SCALES = st.floats(0.05, 20.0)
_LAWS = st.one_of(
    st.builds(DistributionSpec.exponential, _SCALES),
    st.builds(DistributionSpec.gamma, _SCALES, _SCALES),
    st.builds(lambda lo, width: DistributionSpec.uniform(lo, lo + width),
              st.floats(-20.0, 20.0), st.floats(0.01, 20.0)),
    st.builds(DistributionSpec.weibull, _SCALES, _SCALES),
    st.builds(DistributionSpec.dirac, st.floats(0.0, 20.0)),
    st.builds(DistributionSpec.shifted_exponential, st.floats(0.0, 20.0), _SCALES),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(law=_LAWS, u=st.floats(-1000.0, 1000.0))
@example(law=DistributionSpec.uniform(-10.0, 1.0), u=100.0)  # e^{u lo} = 0, expm1(...) = inf
def test_laplace_is_finite_or_infinite(law, u):
    # E[e^{uX}] is a finite non-negative number or +inf, never NaN or an
    # exception, also where a factor of its closed form would overflow
    for val in (law.laplace(u), *law.laplace(np.array([u, -u, 0.5 * u]))):
        assert val == math.inf or (math.isfinite(val) and val >= 0.0), (law, u, val)


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


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(law=_LAWS, x=st.floats(-1e4, 1e4))
@example(law=DistributionSpec.gamma(2.0, 1.0), x=math.inf)
def test_cdf_plus_survival_is_one(law, x):
    # P(X <= x) + P(X > x) = 1 within 4 units of float resolution; scipy's
    # incomplete gamma functions are accurate to about 1e-14, so the gamma
    # family is held to 1e-13
    tol = 1e-13 if law.family is Family.GAMMA else 4.0 * _EPS
    xs = np.array([x, -x, 0.5 * x, 0.0])
    for total in (law.cdf(x) + law.survival(x), *(law.cdf(xs) + law.survival(xs))):
        assert abs(total - 1.0) <= tol, (law, x, total)


_SHAPES = st.floats(1.0, 20.0)  # a non-decreasing hazard needs shape >= 1
_HAZARD_LAWS = st.one_of(
    st.builds(DistributionSpec.exponential, _SCALES),
    st.builds(DistributionSpec.gamma, _SHAPES, _SCALES),
    st.builds(lambda lo, width: DistributionSpec.uniform(lo, lo + width),
              st.floats(0.0, 20.0), st.floats(0.01, 20.0)),
    st.builds(DistributionSpec.weibull, _SHAPES, _SCALES),
    st.builds(DistributionSpec.shifted_exponential, st.floats(0.0, 20.0), _SCALES),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(law=_HAZARD_LAWS, frac=st.floats(0.0, 1.0, exclude_max=True), e=st.floats(0.0, 100.0))
# waits of -5.6e-17 and -7.1e-15 were returned: a difference of ages rounded below 0
@example(law=DistributionSpec.gamma(1.0, 1.0), frac=2.0**-8, e=0.0)
@example(law=DistributionSpec.weibull(19.272734149820753, 19.801744558668883),
         frac=0.9862458693932143, e=2.0710151936297026e-12)
# a wait of 0: Q = 1 - P and e^-e rounded to 1 lost the target
@example(law=DistributionSpec.gamma(1.0, 1.0), frac=0.0, e=6.644970245461069e-128)
@example(law=DistributionSpec.uniform(0.0, 1.0), frac=0.0, e=6.644970245461069e-128)
def test_hazard_inverse_round_trip(law, frac, e):
    # inverse(a0, e) is a waiting time s >= 0 whose cumulative hazard from
    # age a0 is e: the exact wait lies within 1e-12 (relative to the end
    # age a0 + s) of s, so e lies between the cumulative hazards of the two
    # waits that far below and above s, up to the smallest normal float
    # (below it floats lose relative precision).  Ages a0 lie in [0, 50]
    # and below the blow-up age d of a bounded law; e in [0, 100].
    prof = hazard_profile(law)
    a0 = frac * min(prof.d, 50.0)
    for s in (prof.inverse(a0, e), prof.inverse(np.full(1, a0), np.full(1, e))[0]):
        assert 0.0 <= s < math.inf, (law, a0, e, s)
        step = 1e-12 * (a0 + s)
        below = prof.cumulative(a0, max(s - step, 0.0)) - _TINY
        above = prof.cumulative(a0, s + step) + _TINY
        assert below <= e <= above, (law, a0, e, below, above)


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



# numpy's own law methods on a plain generator: the draws each map of
# DistributionSpec.sample must give bit for bit, batch and scalar
_NUMPY_LAWS = {
    "uniform": (DistributionSpec.uniform(0.3, 2.7), lambda rng, n: rng.uniform(0.3, 2.7, n)),
    "exponential": (DistributionSpec.exponential(1.7),
                    lambda rng, n: rng.exponential(1.0 / 1.7, n)),
    "gamma": (DistributionSpec.gamma(2.5, 0.3), lambda rng, n: rng.gamma(2.5, 0.3, n)),
    "weibull": (DistributionSpec.weibull(1.5, 0.7), lambda rng, n: 0.7 * rng.weibull(1.5, n)),
    "dirac": (DistributionSpec.dirac(1.3), lambda rng, n: 1.3 if n is None else np.full(n, 1.3)),
    "shifted_exponential": (DistributionSpec.shifted_exponential(0.2, 3.0),
                            lambda rng, n: 0.2 + rng.exponential(1.0 / 3.0, n)),
}


@pytest.mark.parametrize("law", list(_NUMPY_LAWS))
def test_sampling_has_the_bits_of_numpys_law_methods(law):
    spec, method = _NUMPY_LAWS[law]
    rng, reference = np.random.default_rng(17), np.random.default_rng(17)
    for size, calls in ((1000, 1), (None, 200), (7, 1)):  # each goes on where the last stopped
        got = [spec.sample(rng, size) for _ in range(calls)]
        want = [method(reference, size) for _ in range(calls)]
        assert [type(x) for x in got] == [float if size is None else np.ndarray] * calls
        assert [type(x) for x in want] == [type(x) for x in got]
        assert np.array_equal(got, want)
    assert rng.bit_generator.state == reference.bit_generator.state


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
    # a seeded sweep of 100 Weibull laws at 100 (age, target) points each:
    # numpy's power of a scalar (libm) and of an array (its own loop) can
    # differ in the last bit, so a float, a 1-element array and an element
    # of a whole array must all go through the array loop
    rng = np.random.default_rng(20240611)
    for _ in range(100):
        spec = DistributionSpec.weibull(rng.uniform(1.0, 20.0), rng.uniform(0.05, 20.0))
        prof = hazard_profile(spec)
        ages, targets = rng.uniform(0.0, 50.0, 100), rng.uniform(0.0, 100.0, 100)
        waits = prof.inverse(ages, targets)
        for method, args, whole in (
            (prof.inverse, (ages, targets), waits),
            (prof.cumulative, (ages, waits), prof.cumulative(ages, waits)),
            (prof.zeta, (ages,), prof.zeta(ages)),
        ):
            points = list(zip(*args))
            assert np.array_equal(whole, [method(*map(float, p)) for p in points])
            assert np.array_equal(whole, [method(*(np.array([v]) for v in p))[0] for p in points])
