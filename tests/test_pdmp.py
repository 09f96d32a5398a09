"""Tests of the exact single-trajectory simulator."""

import math

import numpy as np
import pytest

from contamsim.coupling import run_three_phase
from contamsim.distributions import DistributionSpec, hazard_profile
from contamsim.errors import ContamsimError
from contamsim.pdmp import ProcessState, simulate_path


def _laws(lam=1.0):
    return (
        DistributionSpec.uniform(0.0, 1.0),
        DistributionSpec.exponential(lam),
        DistributionSpec.dirac(1.0),
    )


def test_state_validation():
    with pytest.raises(ContamsimError):
        ProcessState(-1.0, 1.0, 0.0).validate()
    with pytest.raises(ContamsimError):
        ProcessState(1.0, 0.0, 0.0).validate()
    with pytest.raises(ContamsimError):
        simulate_path(ProcessState(1.0, 1.0, 0.0), *_laws(), horizon=0.0,
                      rng=np.random.default_rng(0))
    # NaN fails every comparison, so a NaN state passed the checks: x = NaN
    # came back as x = [nan], and x = inf ran to its horizon
    nan, inf = math.nan, math.inf
    for bad in (
        ProcessState(nan, 1.0, nan), ProcessState(nan, 1.0, 0.0), ProcessState(1.0, nan, 0.0),
        ProcessState(1.0, 1.0, nan), ProcessState(inf, 1.0, 0.0), ProcessState(1.0, inf, 0.0),
        ProcessState(1.0, 1.0, inf), ProcessState(np.array([1.0, nan]), 1.0, 0.0),
    ):
        with pytest.raises(ContamsimError, match="invalid process state"):
            bad.validate()
        with pytest.raises(ContamsimError, match="invalid process state"):
            simulate_path(bad, *_laws(), 1.0, np.random.default_rng(0))
    ProcessState(np.array([0.0, 1e308]), 1e-300, 0.0).validate()  # finite edges pass


def test_zero_intake_pure_decay():
    # with zero intakes the quantity is exactly x0 * exp(-integral of theta)
    F = DistributionSpec.dirac(0.0)
    G = DistributionSpec.exponential(1.0)
    H = DistributionSpec.dirac(2.0)
    rng = np.random.default_rng(1)
    init = ProcessState(3.0, 2.0, 0.0)
    log, final = simulate_path(init, F, G, H, 5.0, rng)
    assert final.x[0] == pytest.approx(3.0 * math.exp(-2.0 * 5.0), rel=1e-12)
    assert final.t[0] == 5.0
    # quantity along the path is non-increasing when intakes vanish
    prev = init.x
    for t in np.linspace(0.1, 5.0, 50):
        cur = simulate_path(init, F, G, H, t, rng)[1].x[0]
        assert cur <= prev + 1e-15
        prev = cur


def test_event_count_is_poisson():
    # memoryless inter-intakes make the counts Poisson(lam * horizon)
    F, G, H = _laws(lam=2.0)
    rng = np.random.default_rng(2)
    horizon = 3.0
    log, _ = simulate_path(ProcessState(np.ones(20_000), 1.0, 0.0), F, G, H, horizon, rng)
    counts = log.counts
    assert log.n_events() == counts.sum() and type(log.n_events()) is int
    mu = 2.0 * horizon
    assert counts.mean() == pytest.approx(mu, abs=4.5 * math.sqrt(mu / len(counts)))
    # chi-square goodness of fit on the bulk cells
    from scipy import stats

    kmax = int(stats.poisson.ppf(0.999, mu))
    obs = np.array([(counts == k).sum() for k in range(kmax)] + [(counts >= kmax).sum()])
    pk = stats.poisson.pmf(np.arange(kmax), mu)
    probs = np.append(pk, 1.0 - pk.sum())
    chi2 = ((obs - len(counts) * probs) ** 2 / (len(counts) * probs)).sum()
    assert chi2 < stats.chi2.ppf(0.999, kmax)


def test_residual_first_wait_uses_initial_age():
    # delayed intakes: starting past the delay removes the dead time
    F = DistributionSpec.dirac(1.0)
    G = DistributionSpec.shifted_exponential(5.0, 1000.0)
    H = DistributionSpec.dirac(1.0)
    rng = np.random.default_rng(3)
    # from age 0 the first event comes essentially at the shift
    log, _ = simulate_path(ProcessState(0.0, 1.0, 0.0), F, G, H, 6.0, rng, record=True)
    assert log.jump_times[0] == pytest.approx(5.0, abs=0.05)
    # from age 5 it comes almost immediately
    log, _ = simulate_path(ProcessState(0.0, 1.0, 5.0), F, G, H, 6.0, rng, record=True)
    assert log.jump_times[0] < 0.05


def test_stationary_mean_time_average():
    # long-run time average of X equals E[U] * lam / E[Theta] here:
    # E[X_inf] = E[U] * lam / theta for unit theta and Poisson(lam) intakes
    F, G, H = _laws(lam=1.0)
    rng = np.random.default_rng(4)
    horizon = 40_000.0
    log, _ = simulate_path(ProcessState(0.0, 1.0, 0.0), F, G, H, horizon, rng, record=True)
    # exact integral of the path: sum over inter-event segments
    init = ProcessState(0.0, 1.0, 0.0)
    total = 0.0
    x = init.x
    theta = init.theta
    prev = 0.0
    for i, t in enumerate(log.jump_times):
        dt = t - prev
        total += x / theta * (1.0 - math.exp(-theta * dt))
        x = x * math.exp(-theta * dt) + log.intakes[i]
        theta = log.thetas[i]
        prev = t
    dt = horizon - prev
    total += x / theta * (1.0 - math.exp(-theta * dt))
    assert total / horizon == pytest.approx(0.5, abs=0.02)


def test_age_law_at_large_time():
    # for memoryless intakes the age at a fixed large time is
    # min(Exp(lam), t), here essentially Exp(lam)
    F, G, H = _laws(lam=1.0)
    rng = np.random.default_rng(6)
    _, final = simulate_path(ProcessState(np.zeros(20_000), 1.0, 0.0), F, G, H, 15.0, rng)
    ages = np.sort(final.age)
    ref = DistributionSpec.exponential(1.0)
    cdf = ref.cdf(ages)
    emp = np.arange(1, len(ages) + 1) / len(ages)
    assert np.max(np.abs(emp - cdf)) <= 1.63 / math.sqrt(len(ages)) + math.exp(-15.0)


def test_reproducibility():
    F, G, H = _laws()
    a = simulate_path(ProcessState(np.ones(5), 1.0, 0.0), F, G, H, 20.0,
                      np.random.default_rng([9, 0, 3]), record=True)
    b = simulate_path(ProcessState(np.ones(5), 1.0, 0.0), F, G, H, 20.0,
                      np.random.default_rng([9, 0, 3]), record=True)
    assert np.array_equal(a[0].jump_times, b[0].jump_times)
    assert np.array_equal(a[1].x, b[1].x)


def test_general_hazard_inter_arrival_law():
    # non-memoryless timing: the gap between the first two events is a
    # plain draw from G (taking every gap in a fixed window would be a
    # length-biased sample); KS-test it against the closed-form CDF
    F = DistributionSpec.dirac(0.0)
    G = DistributionSpec.gamma(2.0, 1.0)
    H = DistributionSpec.dirac(1.0)
    rng = np.random.default_rng(8)
    n = 20_000
    log, _ = simulate_path(ProcessState(np.zeros(n), 1.0, 0.0), F, G, H, 30.0, rng, record=True)
    # the log groups the events by run, so a run's first two are adjacent
    first = np.searchsorted(log.runs, np.flatnonzero(log.counts >= 2))
    gaps = np.sort(log.jump_times[first + 1] - log.jump_times[first])
    cdf = G.cdf(gaps)
    emp = np.arange(1, len(gaps) + 1) / len(gaps)
    assert np.max(np.abs(emp - cdf)) <= 1.63 / math.sqrt(len(gaps))


@pytest.mark.parametrize("lam, mu, theta", [(1.0, 1.0, 1.0), (2.0, 0.5, 0.5)])
def test_gamma_ou_stationary_law(lam, mu, theta):
    # Poisson(lam) intakes of Exp(mean mu) sizes at a fixed rate theta make
    # X a Gamma-OU process with stationary law Gamma(lam/theta, mu); from
    # x = 0 its law at t = 30 is that law up to exp(-30 theta)
    F = DistributionSpec.exponential(1.0 / mu)
    G = DistributionSpec.exponential(lam)
    H = DistributionSpec.dirac(theta)
    n = 4000
    _, final = simulate_path(ProcessState(np.zeros(n), theta, 0.0), F, G, H, 30.0,
                             np.random.default_rng(14))
    xs = np.sort(final.x)
    cdf = DistributionSpec.gamma(lam / theta, mu).cdf(xs)
    d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert d <= 1.63 / math.sqrt(n)


def test_fused_draws_are_pinned():
    # a single process is a coupled pair started equal, so which draws a
    # fused batch makes, and in what order, is the random-number contract
    # (SCHEMA_VERSION) of simulate and dump-paths: a change to it must show
    # here.  Weibull waits from two ages, and random rates and intakes,
    # make every law draw
    F, G, H = (DistributionSpec.exponential(2.0), DistributionSpec.weibull(2.0, 1.0),
               DistributionSpec.uniform(0.5, 1.5))
    init = ProcessState(np.full(300, 1.0), 1.0, np.repeat([0.0, 0.7], 150))
    log, final = simulate_path(init, F, G, H, 11.0, np.random.default_rng(2024))
    recorded, same = simulate_path(init, F, G, H, 11.0, np.random.default_rng(2024), record=True)
    # recording draws nothing
    assert np.array_equal(recorded.counts, log.counts)
    for name in ("x", "theta", "age", "t"):
        assert getattr(same, name).tobytes() == getattr(final, name).tobytes()
    assert [int(log.counts[:150].sum()), int(log.counts[150:].sum())] == [1826, 1850]
    assert recorded.jump_times.size == log.n_events()
    sums = [final.x.sum(), final.theta.sum(), final.age.sum(),
            recorded.jump_times.sum(), recorded.intakes.sum()]
    expected = [170.66147799390603, 296.77113588355553, 170.70815823749382,
                20292.06395179699, 1820.6171985427045]
    assert np.allclose(sums, expected, rtol=1e-9, atol=0.0)
    # a coupled batch of pairs equal in value is fused from the start, at
    # every horizon: Y~ is Y, bit for bit
    horizon = np.repeat([2.0, 5.0, 11.0], 100)
    init_tilde = ProcessState(init.x.copy(), 1.0, init.age.copy())
    rep = run_three_phase(init, init_tilde, F, G, H, horizon, np.random.default_rng(7),
                          0.2, 0.6, 0.1)
    assert np.all(rep.tau == 0.0) and np.all(rep.tau_A == 0.0)
    # tv_from = 0.6 * horizon lies before every horizon
    assert np.all(rep.gap == 0.0)
    for name in ("x", "theta", "age", "t"):
        assert getattr(rep.y_tilde, name).tobytes() == getattr(rep.y, name).tobytes()
    assert rep.log.n_events() == 2006
    assert np.allclose(rep.y.x.sum(), 182.3667091146874, rtol=1e-9, atol=0.0)
