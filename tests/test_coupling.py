"""Tests of the coupled-pair simulators and the maximal jump coupling."""

import math
from pathlib import Path

import numpy as np
import pytest

from contamsim import coupling, rates
from contamsim.config import load_config
from contamsim.coupling import (
    BlockStreams,
    run_three_phase,
    simulate_coupled,
    tv_jump_coupling,
)
from contamsim.distributions import DistributionSpec, Family, hazard_profile
from contamsim.errors import AssumptionError, ContamsimError, NoDensityError
from contamsim.pdmp import ProcessState, simulate_path
from oracles import eta_quad

# Point-mass intakes and rates draw nothing, so a coupled run with them
# is the coupled age pair alone, draw for draw.
NO_INTAKE = DistributionSpec.dirac(0.0)
UNIT_RATE = DistributionSpec.dirac(1.0)


def _ages(a0, a0_tilde, prof, horizon, rng, n=1, record=False):
    """Run n coupled age pairs from ages (a0, a0_tilde)."""
    return simulate_coupled(
        ProcessState(np.zeros(n), 1.0, a0), ProcessState(0.0, 1.0, a0_tilde),
        NO_INTAKE, prof, UNIT_RATE, horizon, rng, record=record,
    )


def _first_jumps(rep, n):
    """The time of Y's first recorded jump in each of n runs, +inf in a
    run where Y never jumps."""
    first = np.full(n, math.inf)
    runs, at = np.unique(rep.log.runs, return_index=True)
    first[runs] = rep.log.jump_times[at]
    return first


def _arrays(rep):
    """Every per-pair array of a coupling report, by name."""
    return {"tau_A": rep.tau_A, "tau": rep.tau, "counts": rep.log.counts,
            "attempt": rep.tv_attempt_time, "merged": rep.tv_first_attempt_merged,
            "gap": rep.gap, **{f"y.{k}": v for k, v in vars(rep.y).items()},
            **{f"y~.{k}": v for k, v in vars(rep.y_tilde).items()}, **rep.phase_outcomes}


def test_phase_params_validation():
    F, G = DistributionSpec.uniform(0.0, 1.0), DistributionSpec.exponential(1.0)
    pairs = ProcessState(np.full(3, 2.0), 1.0, 0.0), ProcessState(4.0, 1.0, 0.0)
    for alpha, beta, eps, message in (
        (0.5, 0.3, 0.1, "0 < alpha < beta < 1"),
        (0.1, 0.5, 1.5, "closeness threshold"),
        (np.array([0.1, 0.5, 0.1]), 0.3, 0.1, "0 < alpha < beta < 1"),  # one pair is bad
        (0.1, 0.5, np.array([0.1, 0.1, 1.0]), "closeness threshold"),
    ):
        with pytest.raises(AssumptionError, match=message):
            run_three_phase(*pairs, F, G, UNIT_RATE, 5.0, np.random.default_rng(0),
                            alpha, beta, eps)


def test_equal_ages_coalesce_immediately():
    prof = hazard_profile(DistributionSpec.exponential(1.0))
    rep = _ages(0.7, 0.7, prof, 10.0, np.random.default_rng(0))
    assert rep.tau_A[0] == 0.0


def test_constant_hazard_coalescence_is_memoryless():
    # flat hazard: the very first event is common, so tau_A ~ Exp(lam);
    # Y is the elder, so the first event is Y's jump, common or lone
    lam = 2.0
    prof = hazard_profile(DistributionSpec.exponential(lam))
    rng = np.random.default_rng(1)
    n = 30_000
    rep = _ages(1.3, 0.0, prof, 10.0, rng, n=n, record=True)
    assert np.all(rep.tau_A == _first_jumps(rep, n))
    taus = np.sort(rep.tau_A)
    cdf = 1.0 - np.exp(-lam * taus)
    emp = np.arange(1, len(taus) + 1) / len(taus)
    assert np.max(np.abs(emp - cdf)) <= 1.63 / math.sqrt(len(taus))


def test_only_elder_jumps_alone():
    # a lone jump resets the elder age, never the younger: when the one
    # event in a short window is lone (the ages did not merge), the
    # initially-younger component has simply aged through the window
    # while the elder restarted
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    rng = np.random.default_rng(2)
    horizon = 0.1
    for young, old, ages in ((0.0, 5.0, lambda r: (r.y.age, r.y_tilde.age)),
                             (5.0, 0.0, lambda r: (r.y_tilde.age, r.y.age))):
        rep = _ages(young, old, prof, horizon, rng, n=2000)
        lone = (rep.log.counts == 1) & np.isinf(rep.tau_A)
        younger, elder = (a[lone] for a in ages(rep))
        assert np.allclose(younger, horizon, rtol=0.0, atol=1e-12)
        assert np.all((0.0 <= elder) & (elder < horizon))
        assert lone.sum() > 200


def test_common_jump_probability_matches_hazard_ratio():
    # thinning oracle: at an event of the pair (ages a < a'), the jump
    # is common with probability zeta(a+s)/zeta(a'+s)
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    rng = np.random.default_rng(3)
    n = 60_000
    a0, a0t = 0.5, 1.5
    # draw the first event times with the elder's hazard, exactly
    s = prof.inverse(a0t, rng.exponential(size=n))
    p_ref = float(np.mean(prof.zeta(a0 + s) / prof.zeta(a0t + s)))
    # Y starts at the elder age a0t, so the first event is Y's jump, common
    # or lone: the ages merged at the first event where tau_A is Y's first jump
    rep = _ages(a0t, a0, prof, 10.0, rng, n=n, record=True)
    hits = int((rep.tau_A == _first_jumps(rep, n)).sum())
    se = math.sqrt(p_ref * (1 - p_ref) / n)
    assert hits / n == pytest.approx(p_ref, abs=4.5 * se)


def test_marginal_age_law_is_preserved():
    # each coupled component alone is an ordinary renewal age process:
    # compare the age at a fixed time against the single simulator
    G = DistributionSpec.gamma(2.0, 1.0)
    prof = hazard_profile(G)
    F = DistributionSpec.uniform(0.0, 1.0)
    H = DistributionSpec.dirac(1.0)
    rng = np.random.default_rng(4)
    t_obs = 8.0
    coupled = simulate_coupled(
        ProcessState(np.ones(8000), 1.0, 0.0), ProcessState(2.0, 1.0, 0.9),
        F, prof, H, t_obs, rng,
    )
    _, single = simulate_path(ProcessState(np.ones(8000), 1.0, 0.0), F, prof, H, t_obs, rng)
    a = np.sort(coupled.y.age)
    b = np.sort(single.age)
    # two-sample KS at the 0.1% level
    grid = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    d = np.max(np.abs(fa - fb))
    assert d <= 1.95 * math.sqrt(2.0 / 8000)


def test_coupled_components_keep_their_laws():
    # with random rates, lone jumps and the maximal coupling from t = 1,
    # each component's state at t = 3 has the law of a single run from its
    # own start (two-sample KS at the 0.1% level on x, theta and age)
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    F = DistributionSpec.uniform(0.0, 1.0)
    H = DistributionSpec.uniform(0.5, 1.5)
    n, horizon = 20_000, 3.0
    starts = ProcessState(np.full(n, 1.0), 1.0, 0.0), ProcessState(np.full(n, 3.0), 0.6, 2.0)
    rng = np.random.default_rng(17)
    rep = simulate_coupled(*starts, F, prof, H, horizon, rng, tv_from=1.0)
    assert np.isfinite(rep.tau).any() and (rep.log.counts > 1).any()
    for coupled, start in zip((rep.y, rep.y_tilde), starts):
        _, single = simulate_path(start, F, prof, H, horizon, rng)
        for a, b in ((coupled.x, single.x), (coupled.theta, single.theta),
                     (coupled.age, single.age)):
            a, b = np.sort(a), np.sort(b)
            grid = np.unique(np.concatenate([a, b]))
            d = np.max(np.abs(np.searchsorted(a, grid, side="right")
                              - np.searchsorted(b, grid, side="right"))) / n
            assert d <= 1.95 * math.sqrt(2.0 / n)


def test_recorded_jumps_replay_the_first_component():
    # the recorded jumps of Y (common and lone) rebuild its final quantity.
    # The second batch meets its ages by a common jump and its quantities
    # by the jump coupling from t = 0.5; once its last pair has merged, the
    # later jumps come from the single-process branch of the kernel
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    F, H = DistributionSpec.uniform(0.0, 1.0), DistributionSpec.uniform(0.5, 1.5)
    for seed, init_tilde, tv_from, horizon in (
        (18, ProcessState(4.0, 0.7, 1.5), 2.0, 4.0),
        (19, ProcessState(2.3, 0.7, 0.4), 0.5, 12.0),
    ):
        rep = simulate_coupled(
            ProcessState(np.full(50, 2.0), 1.0, 0.0), init_tilde,
            F, prof, H, horizon, np.random.default_rng(seed), tv_from=tv_from, record=True,
        )
        assert np.all(rep.log.counts >= np.bincount(rep.log.runs, minlength=50))
        for k in range(50):
            x, theta, prev = 2.0, 1.0, 0.0
            for t, u, th in zip(*rep.log.of(k)):
                x, theta, prev = x * math.exp(-theta * (t - prev)) + u, th, t
            assert x * math.exp(-theta * (horizon - prev)) == pytest.approx(rep.y.x[k], rel=1e-12)
            assert theta == rep.y.theta[k]
    # every pair of the second batch merged, and jumps followed the last merge
    assert np.all(rep.tau < horizon) and np.any(rep.log.jump_times > rep.tau.max())


def test_kernel_rejects_bad_horizons_and_ages_past_the_blow_up():
    # horizon -1 ran backward (x = 1 came back as e, with t = -1), and a
    # NaN or infinite horizon never returned; both are rejected before the
    # first step.  A zero horizon is legal: verify grids may hold t = 0
    F, H = DistributionSpec.uniform(0.0, 1.0), DistributionSpec.dirac(1.0)
    G = DistributionSpec.exponential(1.0)
    one = ProcessState(np.ones(3), 1.0, 0.0)
    for horizon in (-1.0, math.nan, math.inf, -math.inf, np.array([1.0, math.nan, 2.0])):
        with pytest.raises(ContamsimError, match="horizon must be finite and >= 0"):
            simulate_coupled(one, one, F, G, H, horizon, np.random.default_rng(0))
    rep = simulate_coupled(one, one, F, G, H, 0.0, np.random.default_rng(0))
    assert rep.log.n_events() == 0 and np.all(rep.y.x == 1.0) and np.all(rep.y.t == 0.0)
    # uniform(0.5, 2.5) waits have an infinite hazard from age d = 2.5 on;
    # from age 3 the wait came out negative, and so did the event times
    waits = hazard_profile(DistributionSpec.uniform(0.5, 2.5))
    for age, age_tilde in ((3.0, 3.0), (0.0, 2.5), (np.array([0.0, 2.6, 1.0]), 0.0)):
        with pytest.raises(ContamsimError, match="infinite from age 2.5 on"):
            simulate_coupled(ProcessState(np.ones(3), 1.0, age), ProcessState(2.0, 1.0, age_tilde),
                             F, waits, H, 5.0, np.random.default_rng(0))
    rep = simulate_coupled(ProcessState(np.ones(3), 1.0, 2.4), ProcessState(np.ones(3), 1.0, 2.4),
                           F, waits, H, 5.0, np.random.default_rng(0), record=True)
    assert np.all(rep.log.jump_times >= 0.0) and np.all(rep.log.counts >= 1)


def test_kernel_rejects_nan_and_negative_tv_from():
    # a NaN tv_from turned the maximal jump coupling off unnoticed, and a
    # negative one ran it from t = 0 but reported no gap; 0 and +inf are legal
    F, G, H = DistributionSpec.uniform(0.0, 1.0), DistributionSpec.exponential(1.0), UNIT_RATE
    start = ProcessState(np.ones(3), 1.0, 0.0), ProcessState(2.0, 1.0, 0.0)
    for tv_from in (math.nan, -1.0, -math.inf, np.array([1.0, math.nan, 2.0]),
                    np.array([0.5, -0.1, 1.0])):
        with pytest.raises(ContamsimError, match="tv_from"):
            simulate_coupled(*start, F, G, H, 5.0, np.random.default_rng(0), tv_from=tv_from)
    rep = simulate_coupled(*start, F, G, H, 5.0, np.random.default_rng(0), tv_from=0.0)
    assert np.all(rep.gap == 1.0) and np.all(rep.tv_attempt_time > 0.0)
    rep = simulate_coupled(*start, F, G, H, 5.0, np.random.default_rng(0), tv_from=math.inf)
    assert np.all(np.isinf(rep.gap)) and np.all(np.isinf(rep.tv_attempt_time))


def test_rejection_sampler_exhaustion_is_a_package_error(monkeypatch):
    # the box and exponential intakes draw in closed form; gamma rejects
    monkeypatch.setattr(coupling, "_MAX_REJECTIONS", 0)
    F = DistributionSpec.gamma(2.0, 1.0)
    with pytest.raises(ContamsimError, match="rejection sampler"):
        tv_jump_coupling(np.zeros(4), np.full(4, 5.0), F, np.random.default_rng(13))


def test_gap_contracts_exactly_after_full_age_merge():
    # once ages and rates agree and jumps are shared, the quantity gap
    # decays by exp(-integral of the common rate), with no other change
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.exponential(1.0)
    H = DistributionSpec.uniform(0.5, 1.5)
    rng = np.random.default_rng(5)
    rep = simulate_coupled(
        ProcessState(np.full(50, 2.0), 1.0, 0.0), ProcessState(4.0, 1.0, 0.0),
        F, G, H, 6.0, rng,
    )
    assert np.array_equal(rep.y.theta, rep.y_tilde.theta)
    assert np.array_equal(rep.y.age, rep.y_tilde.age)
    # reconstruct the decay factor from the realized gap
    gap0 = 2.0
    gap = np.abs(rep.y.x - rep.y_tilde.x)
    assert np.all(gap <= gap0 * (1.0 + 1e-12))
    # independent pathwise check at a midpoint: run the pairs to 3.0, then
    # continue them from their states there for 3.0 more
    rng = np.random.default_rng(77)
    mid = simulate_coupled(
        ProcessState(np.full(50, 2.0), 1.0, 0.0), ProcessState(4.0, 1.0, 0.0),
        F, G, H, 3.0, rng,
    )
    rep2 = simulate_coupled(mid.y, mid.y_tilde, F, G, H, 3.0, rng)
    g_mid = np.abs(mid.y.x - mid.y_tilde.x)
    g_end = np.abs(rep2.y.x - rep2.y_tilde.x)
    # between 3.0 and 6.0 the same rates apply on both paths
    assert np.all(g_end <= g_mid * (1.0 + 1e-12))
    assert np.all(g_end < g_mid)  # the common rate is at least 0.5


def test_tv_jump_coupling_requires_density():
    with pytest.raises(NoDensityError):
        tv_jump_coupling(np.zeros(1), np.ones(1), DistributionSpec.dirac(1.0),
                         np.random.default_rng(0))


def test_tv_jump_coupling_zero_gap_always_merges():
    rng = np.random.default_rng(6)
    for F in (DistributionSpec.uniform(0.0, 1.0), DistributionSpec.exponential(1.0),
              DistributionSpec.gamma(2.0, 1.0)):
        x, xt, ok = tv_jump_coupling(np.ones(100), np.ones(100), F, rng)
        assert ok.all() and np.array_equal(x, xt)


def test_tv_jump_coupling_box_example():
    # box intake with gap 0.3: merge probability 1 - eta = 0.7
    F = DistributionSpec.uniform(0.0, 1.0)
    rng = np.random.default_rng(7)
    n = 100_000
    xs, xts, ok = tv_jump_coupling(np.zeros(n), np.full(n, 0.3), F, rng)
    xts = xts - 0.3  # xs is the intake of the first component
    merged = ok.sum()
    se = math.sqrt(0.7 * 0.3 / n)
    assert merged / n == pytest.approx(0.7, abs=4.5 * se)
    # both marginal intakes must remain Uniform(0,1)
    for sample in (np.sort(xs), np.sort(xts)):
        emp = np.arange(1, n + 1) / n
        cdf = np.clip(sample, 0.0, 1.0)
        assert np.max(np.abs(emp - cdf)) <= 1.63 / math.sqrt(n)


def test_tv_jump_coupling_exponential_marginals():
    F = DistributionSpec.exponential(1.0)
    rng = np.random.default_rng(8)
    n = 50_000
    x, xt, ok = tv_jump_coupling(np.zeros(n), np.full(n, 0.5), F, rng)
    merged = ok.sum()
    p_ref = math.exp(-0.5)  # 1 - eta for the memoryless intake
    se = math.sqrt(p_ref * (1 - p_ref) / n)
    assert merged / n == pytest.approx(p_ref, abs=4.5 * se)
    emp = np.arange(1, n + 1) / n
    for sample in (np.sort(x), np.sort(xt - 0.5)):
        cdf = 1.0 - np.exp(-np.maximum(sample, 0.0))
        assert np.max(np.abs(emp - cdf)) <= 1.63 / math.sqrt(n)


@pytest.mark.parametrize("F", [DistributionSpec.shifted_exponential(0.5, 2.0),
                               DistributionSpec.gamma(2.0, 1.0),
                               DistributionSpec.weibull(1.5, 1.0)])
def test_tv_jump_coupling_keeps_marginals(F):
    # closed form (shifted exponential) and rejection (gamma, Weibull):
    # the merge frequency is 1 - eta and both intakes keep the law F; eta
    # of the gamma and Weibull laws comes from quadrature
    rng = np.random.default_rng(16)
    n = 50_000
    gap = 0.4
    x, xt, ok = tv_jump_coupling(np.zeros(n), np.full(n, gap), F, rng)
    closed = F.family is Family.SHIFTED_EXPONENTIAL
    p_ref = 1.0 - (rates.eta(gap, F) if closed else eta_quad(gap, F))
    se = math.sqrt(p_ref * (1 - p_ref) / n)
    assert ok.mean() == pytest.approx(p_ref, abs=4.5 * se)
    assert np.array_equal(x[ok], xt[ok])
    emp = np.arange(1, n + 1) / n
    for sample in (np.sort(x), np.sort(xt - gap)):
        assert np.max(np.abs(emp - F.cdf(sample))) <= 1.63 / math.sqrt(n)


def test_three_phase_trivial_pair():
    # identical initial states coalesce at time zero
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.exponential(1.0)
    H = DistributionSpec.dirac(1.0)
    rep = run_three_phase(
        ProcessState(np.ones(10), 1.0, 0.0), ProcessState(1.0, 1.0, 0.0),
        F, G, H, 5.0, np.random.default_rng(9), 0.2, 0.6, 0.5,
    )
    assert np.all(rep.tau == 0.0)
    assert np.all(rep.phase_outcomes["age_merge_by_alpha"])


def test_three_phase_age_merge_probability():
    # flat hazard: ages merge by alpha*t with probability 1 - exp(-lam*alpha*t)
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.exponential(1.0)
    H = DistributionSpec.dirac(1.0)
    horizon, alpha, beta, eps = 10.0, 0.2, 0.6, 0.5
    n = 20_000

    def run(*tuning):
        return run_three_phase(
            ProcessState(np.full(n, 2.0), 1.0, 0.0), ProcessState(4.0, 1.0, 0.5),
            F, G, H, horizon, np.random.default_rng(10), *tuning,
        )

    rep = run(alpha, beta, eps)
    # a tuning of one value per pair is the same run as its float
    per_pair = _arrays(run(*(np.full(n, v) for v in (alpha, beta, eps))))
    for name, col in _arrays(rep).items():
        assert np.array_equal(per_pair[name], col), name
    hits = rep.phase_outcomes["age_merge_by_alpha"].sum()
    tau = rep.tau[np.isfinite(rep.tau)]
    assert np.all(tau >= beta * horizon)  # merges only in phase 3
    assert np.all(tau <= horizon)
    p_ref = 1.0 - math.exp(-alpha * horizon)
    se = math.sqrt(p_ref * (1 - p_ref) / n)
    assert hits / n == pytest.approx(p_ref, abs=4.5 * se)


def test_coalescence_is_absorbing():
    # after tau the two trajectories are identical forever
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.exponential(1.0)
    H = DistributionSpec.uniform(0.5, 1.5)
    rng = np.random.default_rng(11)
    for horizon in (5.0, 10.0, 15.0, 20.0):
        rep = simulate_coupled(
            ProcessState(np.full(300, 2.0), 1.0, 0.0), ProcessState(4.0, 1.0, 0.3),
            F, G, H, horizon, rng, tv_from=0.0,
        )
        merged = rep.tau < horizon
        for a, b in ((rep.y.x, rep.y_tilde.x), (rep.y.theta, rep.y_tilde.theta),
                     (rep.y.age, rep.y_tilde.age)):
            assert np.array_equal(a[merged], b[merged])
        assert merged.sum() > 100


def test_full_coupling_reproducibility():
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.gamma(2.0, 1.0)
    H = DistributionSpec.uniform(0.5, 1.5)
    runs = []
    for _ in range(2):
        rep = simulate_coupled(
            ProcessState(np.full(20, 2.0), 1.0, 0.0), ProcessState(4.0, 1.0, 0.5),
            F, G, H, 12.0, np.random.default_rng([3, 1, 4]), tv_from=6.0,
        )
        runs.append(np.concatenate([rep.tau_A, rep.tau, rep.log.counts, rep.y.x]))
    assert np.array_equal(runs[0], runs[1])


@pytest.mark.parametrize("lam, mu, theta", [(1.0, 1.0, 1.0), (2.0, 0.5, 0.5)])
def test_coupled_components_keep_gamma_ou_law(lam, mu, theta):
    # each component alone is the Gamma-OU process of
    # test_pdmp.test_gamma_ou_stationary_law, whose law at t = 30 is
    # Gamma(lam/theta, mu); the pairs start apart in quantity and age and
    # use the maximal jump coupling (exponential intakes) from t = 10
    F = DistributionSpec.exponential(1.0 / mu)
    G = DistributionSpec.exponential(lam)
    H = DistributionSpec.dirac(theta)
    n = 4000
    rep = simulate_coupled(
        ProcessState(np.zeros(n), theta, 0.0), ProcessState(3.0, theta, 0.5),
        F, G, H, 30.0, np.random.default_rng(15), tv_from=10.0,
    )
    assert np.isfinite(rep.tau).mean() > 0.5
    for xs in (np.sort(rep.y.x), np.sort(rep.y_tilde.x)):
        cdf = DistributionSpec.gamma(lam / theta, mu).cdf(xs)
        d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert d <= 1.63 / math.sqrt(n)


def _report_arrays(rep) -> list:
    return [rep.tau_A, rep.tau, rep.log.counts, rep.tv_attempt_time,
            rep.tv_first_attempt_merged, rep.gap, *vars(rep.y).values(),
            *vars(rep.y_tilde).values(), *rep.phase_outcomes.values()]


def test_scalar_times_equal_broadcast_arrays():
    # a float horizon and tv_from draw exactly as arrays of the same values
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    F, H = DistributionSpec.uniform(0.0, 1.0), DistributionSpec.uniform(0.5, 1.5)
    n, horizon, tv_from = 400, 6.0, 2.5
    starts = ProcessState(np.full(n, 2.0), 1.0, 0.0), ProcessState(4.0, 0.7, 0.5)
    scalar = simulate_coupled(*starts, F, prof, H, horizon, np.random.default_rng(21),
                              tv_from=tv_from)
    broadcast = simulate_coupled(*starts, F, prof, H, np.full(n, horizon),
                                 np.random.default_rng(21), tv_from=np.full(n, tv_from))
    assert np.isfinite(scalar.tau).any() and np.isfinite(scalar.gap).all()
    a, b = _report_arrays(scalar), _report_arrays(broadcast)
    assert len(a) == len(b)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_mixed_horizons_in_one_batch():
    # rows with their own horizon and tv_from in one batch.  Equal ages
    # make every jump common and shared, so before tv_from the gap is
    # exactly 2 exp(-integral of the common rate), which the recorded
    # rates of Y give; the pair's events are Poisson(lam)
    lam, m = 1.3, 2000
    horizons = np.array([2.0, 5.0, 11.0])
    horizon = np.repeat(horizons, m)
    tv_from = horizon * np.tile(np.linspace(0.1, 1.2, m), 3)  # some past the horizon
    F, G = DistributionSpec.uniform(0.0, 1.0), DistributionSpec.exponential(lam)
    H = DistributionSpec.uniform(0.5, 1.5)
    rep = simulate_coupled(
        ProcessState(np.full(3 * m, 2.0), 1.0, 0.0), ProcessState(4.0, 1.0, 0.0),
        F, G, H, horizon, np.random.default_rng(23), tv_from=tv_from, record=True,
    )
    assert np.array_equal(rep.y.t, horizon) and np.array_equal(rep.y_tilde.t, horizon)
    inside = tv_from <= horizon
    assert np.all(np.isinf(rep.gap[~inside]))
    for k in np.flatnonzero(inside):
        times, _, thetas = rep.log.of(k)
        before = times < tv_from[k]
        knots = np.concatenate([[0.0], times[before], [tv_from[k]]])
        rate = np.dot(np.diff(knots), np.concatenate([[1.0], thetas[before]]))
        # a difference of quantities of order 1, so exact to a few ulps of 1
        assert abs(rep.gap[k] - 2.0 * math.exp(-rate)) <= 1e-14
    tried = np.isfinite(rep.tv_attempt_time)
    assert tried.sum() > m and not (tried & ~inside).any()
    assert np.all(rep.tv_attempt_time[tried] >= tv_from[tried])
    assert np.all(rep.tau[np.isfinite(rep.tau)] >= tv_from[np.isfinite(rep.tau)])
    for g, h in enumerate(horizons):
        counts = rep.log.counts[g * m:(g + 1) * m]
        se = math.sqrt(lam * h / m)
        assert abs(counts.mean() - lam * h) <= 5.0 * se, h


def test_three_phase_takes_each_horizons_tuning():
    # equal ages and a unit point-mass rate: the gap at beta*h is exactly
    # 2 exp(-beta*h), so each group's closeness outcome is known
    F, G = DistributionSpec.uniform(0.0, 1.0), DistributionSpec.exponential(1.0)
    tunings = {  # horizon: ((alpha, beta, epsilon_tv), close at beta*h)
        2.0: ((0.2, 0.5, 0.9), True),  # gap 0.74
        5.0: ((0.3, 0.6, 0.05), False),  # gap 0.10
        11.0: ((0.1, 0.7, 0.01), True),  # gap 9e-4
    }
    m = 300
    horizon = np.repeat(list(tunings), m)
    alpha, beta, eps = np.repeat([p for p, _ in tunings.values()], m, axis=0).T
    rep = run_three_phase(
        ProcessState(np.full(3 * m, 2.0), 1.0, 0.0), ProcessState(4.0, 1.0, 0.0),
        F, G, UNIT_RATE, horizon, np.random.default_rng(24), alpha, beta, eps,
    )
    for g, (h, ((_, b, _), close)) in enumerate(tunings.items()):
        rows = slice(g * m, (g + 1) * m)
        gap = rep.phase_outcomes["gap_at_beta"][rows]
        assert np.allclose(gap, 2.0 * math.exp(-b * h), rtol=0.0, atol=1e-14)
        assert np.all(rep.phase_outcomes["close_at_beta"][rows] == close)
        assert np.all(rep.tv_attempt_time[rows] >= b * h)


def test_coupled_draws_are_pinned():
    # which draws the kernel makes, and in what order, is the random-number
    # contract (SCHEMA_VERSION): a change to it, say draws spent on pairs
    # that have ended while others run on, must show here.  Mixed horizons
    # end pairs at different steps; distinct ages make lone jumps.
    prof = hazard_profile(DistributionSpec.weibull(2.0, 1.0))
    F, H = DistributionSpec.exponential(2.0), DistributionSpec.uniform(0.5, 1.5)
    tunings = {2.0: (0.2, 0.5, 0.3), 5.0: (0.2, 0.6, 0.2), 11.0: (0.1, 0.7, 0.1)}
    m = 100
    rep = run_three_phase(
        ProcessState(np.full(3 * m, 1.0), 1.0, 0.0), ProcessState(3.0, 0.8, 0.7),
        F, prof, H, np.repeat(list(tunings), m), np.random.default_rng(2024),
        *np.repeat(list(tunings.values()), m, axis=0).T,
    )
    merged = np.isfinite(rep.tau)
    groups = [slice(g * m, (g + 1) * m) for g in range(3)]
    assert [int(rep.log.counts[g].sum()) for g in groups] == [266, 618, 1303]
    assert [int(merged[g].sum()) for g in groups] == [31, 96, 100]
    assert int(np.isfinite(rep.tau_A).sum()) == 289
    sums = [rep.tau[merged].sum(), rep.y.x.sum(), rep.y_tilde.x.sum(), rep.gap.sum()]
    expected = [1221.4991416350822, 188.33807441618774, 229.55574364476325, 110.79995560557238]
    assert np.allclose(sums, expected, rtol=1e-9, atol=0.0)


def _switch_run(rng, horizon, record=False):
    """Pairs from ages 0 and 0.7 under Weibull(2, 1) waits, with the maximal
    jump coupling from 0.7 of each horizon."""
    n = horizon.size
    return simulate_coupled(
        ProcessState(np.full(n, 1.0), 1.0, 0.0), ProcessState(3.0, 0.8, 0.7),
        DistributionSpec.exponential(2.0), hazard_profile(DistributionSpec.weibull(2.0, 1.0)),
        DistributionSpec.uniform(0.5, 1.5), horizon, rng, tv_from=0.7 * horizon, record=record,
    )


def _log_arrays(rep):
    return {"runs": rep.log.runs, "times": rep.log.jump_times, "intakes": rep.log.intakes,
            "thetas": rep.log.thetas}


# blocks of 50 and 30 pairs, with horizons 2 and 12 alternating
_SWITCH_HORIZONS = [np.resize([2.0, 12.0], n) for n in (50, 30)]


def test_coupled_draws_are_pinned_across_the_age_switch():
    # the short pairs end with their ages apart, every long pair's ages meet
    # by t = 4.3 and no pair fuses before tv_from = 8.4: so the batch steps
    # with ages apart, then with every running pair's ages met (from step 7
    # to 14, counted on an instrumented copy of the kernel), then fused.
    # Which draws each level makes, and in what order, is the contract
    horizon = np.concatenate(_SWITCH_HORIZONS)
    long = horizon == 12.0
    plain, recorded = (_switch_run(np.random.default_rng(2026), horizon, record)
                       for record in (False, True))
    rep = recorded
    for name, col in _arrays(plain).items():
        assert np.array_equal(col, _arrays(rep)[name]), name
    assert np.isinf(rep.tau_A[~long]).sum() == 7 and rep.tau_A[long].max() < 4.3
    assert np.all(rep.tau[long] >= 8.4) and np.isfinite(rep.tau[long]).all()
    assert int(rep.log.counts.sum()) == 668 and rep.log.runs.size == 600
    finite = np.isfinite(rep.tau_A)
    sums = [rep.tau_A[finite].sum(), rep.tau[long].sum(), rep.y.x.sum(), rep.y_tilde.x.sum(),
            rep.gap[long].sum(), rep.log.jump_times.sum(), rep.log.intakes.sum(),
            rep.log.thetas.sum()]
    expected = [88.82627902148735, 356.7272845956013, 38.00635292298656, 51.735219462416,
                0.05183287417758053, 3407.2370163821743, 291.01603376982064, 614.7301446062045]
    assert np.allclose(sums, expected, rtol=1e-9, atol=0.0)


def test_a_group_of_blocks_draws_as_its_blocks_alone_across_the_age_switch():
    # each block alone, and the two as one batch, switch level mid-run
    seeds = [31, 32]
    alone = [_switch_run(np.random.default_rng(s), h, True)
             for s, h in zip(seeds, _SWITCH_HORIZONS)]
    group = _switch_run(BlockStreams([np.random.default_rng(s) for s in seeds], [0, 50, 80]),
                        np.concatenate(_SWITCH_HORIZONS), True)
    assert np.isfinite(group.tau).any() and np.isinf(group.tau_A).any()
    whole = {**_arrays(group), **_log_arrays(group)}
    parts = [{**_arrays(rep), **_log_arrays(rep)} for rep in alone]
    parts[1]["runs"] = parts[1]["runs"] + 50
    for name, col in whole.items():
        assert np.array_equal(col, np.concatenate([part[name] for part in parts])), name


# horizons from 0.5 to 14: counted on an instrumented copy of the kernel,
# the batch of seed 2028 retires 31 pairs while some running pair's ages
# differ, 25 once every running pair's ages and rates have met and 4 once
# every one is fused; blocks of 36 and 24 pairs (seeds 51 and 52) retire
# pairs at all three levels, each alone and as one batch
_LEVEL_HORIZONS = np.resize([0.5, 1.0, 2.0, 6.0, 9.0, 14.0], 60)


def test_final_states_are_pinned_across_every_level():
    plain, rep = (_switch_run(np.random.default_rng(2028), _LEVEL_HORIZONS, record)
                  for record in (False, True))
    for name, col in _arrays(plain).items():
        assert np.array_equal(col, _arrays(rep)[name]), name
    aged, fused = np.isfinite(rep.tau_A), np.isfinite(rep.tau)
    assert int(rep.log.counts.sum()) == 366 and int(aged.sum()) == 47 and int(fused.sum()) == 32
    assert np.array_equal(rep.y.t, _LEVEL_HORIZONS) and np.array_equal(rep.y_tilde.t, rep.y.t)
    sums = [rep.tau_A[aged].sum(), rep.tau[fused].sum(),
            *(getattr(y, name).sum() for y in (rep.y, rep.y_tilde) for name in ("x", "theta", "age"))]
    expected = [47.85504338655559, 224.64598209804166, 30.347222202140177, 61.43786448764362,
                35.67653227245907, 58.275565330118354, 59.625283419066, 38.2809347809668]
    assert np.allclose(sums, expected, rtol=1e-9, atol=0.0)


def test_a_group_of_blocks_ends_as_its_blocks_alone_across_every_level():
    seeds, parts = [51, 52], np.split(_LEVEL_HORIZONS, [36])
    alone = [_switch_run(np.random.default_rng(s), h, True) for s, h in zip(seeds, parts)]
    group = _switch_run(BlockStreams([np.random.default_rng(s) for s in seeds], [0, 36, 60]),
                        _LEVEL_HORIZONS, True)
    whole = {**_arrays(group), **_log_arrays(group)}
    parts = [{**_arrays(rep), **_log_arrays(rep)} for rep in alone]
    parts[1]["runs"] = parts[1]["runs"] + 36
    for name, col in whole.items():
        assert np.array_equal(col, np.concatenate([part[name] for part in parts])), name


def test_the_kernel_never_writes_into_its_inputs():
    # the kernel steps in a buffer of its own: writable states, horizons and
    # tv_from come out unchanged from a batch that retires pairs at every
    # level, and read-only inputs, as the point-mass views of InitLaw.sample,
    # give the same report as arrays of their values
    n = _LEVEL_HORIZONS.size
    inputs = [np.full(n, 1.0), np.full(n, 1.0), np.zeros(n), np.full(n, 3.0), np.full(n, 0.8),
              np.full(n, 0.7), _LEVEL_HORIZONS.copy(), 0.7 * _LEVEL_HORIZONS]
    kept = [v.copy() for v in inputs]

    def run(x, theta, age, x_tilde, theta_tilde, age_tilde, horizon, tv_from):
        return simulate_coupled(
            ProcessState(x, theta, age), ProcessState(x_tilde, theta_tilde, age_tilde),
            DistributionSpec.exponential(2.0), hazard_profile(DistributionSpec.weibull(2.0, 1.0)),
            DistributionSpec.uniform(0.5, 1.5), horizon, np.random.default_rng(2028),
            tv_from=tv_from, record=True)

    rep = run(*inputs)
    for v, was in zip(inputs, kept):
        assert np.array_equal(v, was)
    views = [np.broadcast_to(v[0], n) for v in inputs[:6]]
    for v in inputs[6:]:
        v.setflags(write=False)
    frozen = run(*views, *inputs[6:])
    want, got = {**_arrays(rep), **_log_arrays(rep)}, {**_arrays(frozen), **_log_arrays(frozen)}
    for name, col in want.items():
        assert np.array_equal(col, got[name]), name


# pairs whose ages and rates start met, and pairs started apart (lone jumps)
_GAP_STARTS = {"met": ((2.0, 1.0, 0.0), (4.0, 1.0, 0.0)), "apart": ((1.0, 1.0, 0.0), (3.0, 0.8, 0.7))}
_GAP_HORIZON = np.resize([1.0, 3.0, 6.0], 40)
_GAP_PINS = {  # finite gaps, finite tau, events; sums of the finite gaps and tau, of x and x~
    ("met", "zero"): (40, 21, 137, [80.0, 48.84344516115649, 25.579457646105176, 39.35286143016003]),
    ("met", "event"): (34, 21, 137, [40.095673996062075, 48.84344516115649, 25.579457646105176,
                                     39.35286143016003]),
    ("met", "horizon"): (40, 0, 138, [11.583127615910442, 0.0, 27.57191293488894, 39.15504055079937]),
    ("met", "past"): (0, 0, 138, [0.0, 0.0, 27.57191293488894, 39.15504055079937]),
    ("met", "mix"): (28, 10, 136, [31.863066066740004, 25.009965309364958, 29.16929753839088,
                                   40.894819918698374]),
    ("apart", "zero"): (40, 21, 162, [80.0, 46.248374909645484, 21.428117035261188,
                                      38.234890351027914]),
    ("apart", "event"): (34, 23, 161, [43.7192631073583, 55.633904922176065, 25.021504219215387,
                                       38.058755334815395]),
    ("apart", "horizon"): (40, 0, 165, [14.777473228401604, 0.0, 25.13001521575111,
                                        39.907488444152726]),
    ("apart", "past"): (0, 0, 165, [0.0, 0.0, 25.13001521575111, 39.907488444152726]),
    ("apart", "mix"): (28, 11, 162, [34.44385596653271, 25.79874478398489, 22.52387860853941,
                                     37.90542507420764]),
}


def _gap_run(start, tv_from, record=False, watch_gap=True):
    (x0, theta0, age0), (x1, theta1, age1) = _GAP_STARTS[start]
    n = _GAP_HORIZON.size
    return simulate_coupled(
        ProcessState(np.full(n, x0), theta0, age0), ProcessState(x1, theta1, age1),
        DistributionSpec.exponential(2.0), hazard_profile(DistributionSpec.weibull(2.0, 1.0)),
        DistributionSpec.uniform(0.5, 1.5), _GAP_HORIZON, np.random.default_rng(2029),
        tv_from=tv_from, record=record, watch_gap=watch_gap,
    )


@pytest.mark.parametrize("start, case", list(_GAP_PINS))
def test_gap_watch_edges(start, case):
    # tv_from at 0; at each pair's first event in the batch started met, so
    # that the jump there is the maximal coupling and the next step starts
    # at tv_from, measuring the gap over dt = 0 (for the batch started
    # apart these are only times); at the horizon; past it; a mix per pair
    h = _GAP_HORIZON
    event = _first_jumps(_gap_run("met", math.inf, record=True), h.size)
    tv_from = {"zero": 0.0, "event": event, "horizon": h, "past": h + 1.0,
               "mix": np.choose(np.arange(h.size) % 4, [0.0, event, h, h + 1.0])}[case]
    rep = _gap_run(start, tv_from)
    seen, merged = np.isfinite(rep.gap), np.isfinite(rep.tau)
    n_seen, n_merged, n_events, expected = _GAP_PINS[start, case]
    assert (int(seen.sum()), int(merged.sum()), int(rep.log.counts.sum())) == (
        n_seen, n_merged, n_events)
    sums = [rep.gap[seen].sum(), rep.tau[merged].sum(), rep.y.x.sum(), rep.y_tilde.x.sum()]
    assert np.allclose(sums, expected, rtol=1e-9, atol=0.0)
    assert np.array_equal(seen, np.broadcast_to(tv_from, h.shape) <= h)
    if case == "zero":
        assert np.all(rep.gap == 2.0)
    if case == "horizon":  # the gap at the horizon is the final states' distance, bit for bit
        assert np.array_equal(rep.gap, np.abs(rep.y.x - rep.y_tilde.x))
    # the watch draws nothing: a run without it differs only in its gap, which it does not carry
    blind = _gap_run(start, tv_from, watch_gap=False)
    assert blind.gap is None
    want, got = _arrays(rep), _arrays(blind)
    del want["gap"], got["gap"]
    for name, col in want.items():
        assert np.array_equal(col, got[name]), name


def test_coupled_draws_are_pinned_from_met_ages_and_apart_rates():
    # the ages start met and the rates apart: until a pair's first jump its
    # Y~ decays at its own rate, so the batch must not step on Y's rate and
    # age for Y~ then.  Most pairs with horizon 0.3 end before that jump
    n = 60
    horizon = np.resize([0.3, 4.0], n)
    plain, rep = (simulate_coupled(
        ProcessState(np.full(n, 1.0), 1.0, 0.0), ProcessState(3.0, 0.6, 0.0),
        DistributionSpec.exponential(2.0), hazard_profile(DistributionSpec.weibull(2.0, 1.0)),
        DistributionSpec.uniform(0.5, 1.5), horizon, np.random.default_rng(2027),
        tv_from=0.5 * horizon, record=record) for record in (False, True))
    for name, col in _arrays(plain).items():
        assert np.array_equal(col, _arrays(rep)[name]), name
    assert np.all(rep.tau_A == 0.0)
    assert int((rep.y.theta != rep.y_tilde.theta).sum()) == 27
    assert int(np.isfinite(rep.tau).sum()) == 22 and int(rep.log.counts.sum()) == 130
    sums = [rep.y_tilde.x.sum(), rep.y_tilde.theta.sum(), rep.gap.sum(), rep.y.x.sum(),
            rep.tau[np.isfinite(rep.tau)].sum()]
    expected = [95.45683113208077, 50.14109773878719, 69.99852625695331, 40.22206746506805,
                62.00867550726216]
    assert np.allclose(sums, expected, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("config", ["configs/reference.yaml",
                                    "perfbench/configs/verify-weibull.yaml"])
def test_met_ages_share_rate_and_age_and_fused_pairs_share_the_state(config):
    # age coalescence is absorbing (every later jump is common), and so is
    # full coalescence, which is what lets the kernel keep Y's rows for Y~'s.
    # A pair whose ages start met shares the rate from its first jump on; the
    # starts of both configs share the rate, so a finite tau_A means both
    cfg = load_config(str(Path(__file__).resolve().parents[1] / config))
    rng = np.random.default_rng(cfg.seed)
    m = 300
    n = m * len(cfg.grid)
    rep = run_three_phase(cfg.init.sample(rng, n), cfg.init_tilde.sample(rng, n),
                          cfg.intake, cfg.inter_arrival, cfg.metabolic,
                          np.repeat(cfg.grid, m), rng, 0.2, 0.5, 0.1)
    aged, fused = np.isfinite(rep.tau_A), np.isfinite(rep.tau)
    assert fused.any() and (aged & ~fused).any()
    for name in ("theta", "age"):
        assert np.array_equal(getattr(rep.y, name)[aged], getattr(rep.y_tilde, name)[aged])
    for name, col in vars(rep.y).items():
        assert np.array_equal(col[fused], getattr(rep.y_tilde, name)[fused]), name
    # the pairs that have not met differ
    assert np.all(rep.y.x[~fused] != rep.y_tilde.x[~fused])
    assert np.all(rep.y.age[~aged] != rep.y_tilde.age[~aged])


def test_verify_runs_a_group_of_blocks_in_one_coupled_batch(tmp_path, monkeypatch):
    # a worker's blocks share one run_three_phase call, every grid time of a
    # block taking CHUNK pairs, up to the batch's column budget: the three
    # blocks of 1 100 replicas are one call of 3 x 4 608 pairs, while one
    # block of a 60-time grid, 30 720 columns, is past the budget and runs alone
    import yaml
    from click.testing import CliRunner

    from contamsim import runner
    from contamsim.cli import main

    calls = []
    real = runner.run_three_phase

    def counting(init, *args):
        calls.append(np.size(init.x))
        return real(init, *args)

    monkeypatch.setattr(runner, "run_three_phase", counting)
    config = Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"
    long_grid = tmp_path / "long.yaml"
    data = yaml.safe_load(config.read_text())
    data["experiment"]["grid"] = [0.25 * i for i in range(1, 61)]
    long_grid.write_text(yaml.safe_dump(data))
    for path, want in ((config, [3 * 9 * runner.CHUNK]), (long_grid, [60 * runner.CHUNK] * 3)):
        calls.clear()
        result = CliRunner().invoke(main, [
            "verify", "--config", str(path), "--replicas", "1100", "--out", str(tmp_path), "--quiet",
        ])
        assert result.exit_code == 0, result.output
        assert calls == want
    assert 60 * runner.CHUNK > runner.BUDGET_COLUMNS >= 3 * 9 * runner.CHUNK


def _stand_in_report(cfg):
    """The tuning coupled_rows reads from a bound report, without the bounds:
    assembling them for the Weibull instance takes an age-tail Monte Carlo."""
    from types import SimpleNamespace

    return SimpleNamespace(alpha=0.3, beta=0.6, epsilon_tv=lambda t: 0.5 / (1.0 + t))


@pytest.mark.parametrize("config", ["configs/reference.yaml",
                                    "perfbench/configs/verify-weibull.yaml"])
def test_grouped_blocks_give_the_tables_of_one_batch_per_block(config, monkeypatch):
    # 2 500 replicas are five blocks: five of 9 grid times and 23 040 columns
    # on the reference config, five of 4 times on the Weibull instance, whose
    # pairs start with ages apart on 9 rows and switch level mid-run.  One
    # batch of them gives the tables of each block in a batch of its own,
    # which a group as wide as one block's pairs per horizon makes
    from contamsim import runner

    cfg = load_config(str(Path(__file__).resolve().parents[1] / config), replicas=2500)
    report = _stand_in_report(cfg)
    calls = []
    real = runner.run_three_phase

    def counting(init, *args):
        calls.append(np.size(init.x))
        return real(init, *args)

    monkeypatch.setattr(runner, "run_three_phase", counting)
    grouped = runner.coupled_rows(cfg, runner.VERIFY_STREAM, report, cfg.grid)
    width = len(cfg.grid) * runner.CHUNK
    assert calls == [5 * width]
    calls.clear()
    monkeypatch.setattr(runner, "GROUP_COLUMNS", runner.CHUNK)
    alone = runner.coupled_rows(cfg, runner.VERIFY_STREAM, report, cfg.grid)
    assert calls == [width] * 5
    for got, want in zip(grouped, alone):
        assert list(got) == list(want)
        for name, col in want.items():
            assert np.array_equal(got[name], col), name


def test_coupled_rows_peak_bytes_per_column():
    # the traced peak of one verify batch of 23 040 columns: 187 B a column
    # under CPython 3.11, and 8 B more where the caller keeps
    # run_three_phase's beta * horizon alive through the call, as 3.10
    # does.  The bound of 210 B is 12 % above 187;  the kernel with an
    # 8-row buffer of retired columns beside a 9-row state, copied at
    # every compaction, reads 302 under the same grouping
    import tracemalloc

    from contamsim import runner
    from contamsim.cli import _bounds

    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"),
                      replicas=2500)
    report = _bounds(cfg)
    columns = ("tau", "l1_final")
    runner.coupled_rows(cfg, runner.VERIFY_STREAM, report, cfg.grid, columns)  # warm caches
    tracemalloc.start()
    try:
        runner.coupled_rows(cfg, runner.VERIFY_STREAM, report, cfg.grid, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_columns = 5 * len(cfg.grid) * runner.CHUNK
    assert n_columns == 23040
    assert peak / n_columns < 210.0, peak / n_columns


_DRAWS = [  # (method, parameters) of every standard variate the kernel draws
    ("random", ()), ("standard_exponential", ()), ("standard_gamma", (0.7,)),
    ("weibull", (1.5,)),
]


def test_block_streams_draw_each_share_from_its_block():
    # blocks of 4, 6 and 3 columns; the view skips block 1 entirely
    cols = np.array([1, 2, 3, 10, 12])
    streams = BlockStreams([np.random.default_rng(s) for s in (7, 8, 9)], [0, 4, 10, 13])
    alone = [np.random.default_rng(s) for s in (7, 8, 9)]
    mask = np.isin(np.arange(13), cols)
    for method, params in _DRAWS:
        # a mask selects the same columns as their indices
        for view, size in ((streams.at(cols), cols.size), (streams.at(mask), (cols.size,))):
            want = np.concatenate([getattr(alone[0], method)(*params, size=3),
                                   getattr(alone[2], method)(*params, size=2)])
            assert np.array_equal(getattr(view, method)(*params, size=size), want), method
    # the block without a share drew nothing
    assert streams.gens[1].bit_generator.state == np.random.default_rng(8).bit_generator.state
    # and neither does a draw of size 0 from a generator, which is why a
    # block's steps with nothing to draw at a site may be skipped or not
    for method, params in _DRAWS:
        rng = np.random.default_rng(5)
        assert getattr(rng, method)(*params, size=0).size == 0
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state, method
    with pytest.raises(ValueError, match="size 5"):
        streams.at(cols).random(4)


def test_one_stream_is_the_generator_itself():
    rng = np.random.default_rng(3)
    streams = BlockStreams.of(rng)
    assert BlockStreams.of(streams) is streams
    assert streams.at(np.array([0, 2])) is streams
    want = np.random.default_rng(3).standard_exponential(4)
    assert np.array_equal(streams.standard_exponential(4), want)
    # one generator is one stream, whatever the edges
    assert BlockStreams([rng], [0, 3]).edges is None


# every law the kernel draws: through a BlockStreams batch, a block's share
# is numpy's standard variate filled in place, and the law's map is applied
# to the whole batch; the unit laws map by the identity
_FILLED = {
    "random": lambda rng, size: rng.random(size),
    "uniform": DistributionSpec.uniform(0.3, 2.7).sample,
    "unit-uniform": DistributionSpec.uniform(0.0, 1.0).sample,
    "exponential": DistributionSpec.exponential(1.7).sample,
    "unit-exponential": DistributionSpec.exponential(1.0).sample,
    "shifted-exponential": DistributionSpec.shifted_exponential(0.2, 1.7).sample,
    "gamma": DistributionSpec.gamma(2.0, 0.1).sample,
    "unit-gamma": DistributionSpec.gamma(2.0, 1.0).sample,
    "weibull": DistributionSpec.weibull(1.5, 2.0).sample,
}


@pytest.mark.parametrize("law", list(_FILLED))
def test_block_draws_filled_in_place_equal_numpys_methods(law):
    # blocks of 5, 0 and 9 columns; a plain generator's method is the reference
    draw, sizes, seeds = _FILLED[law], [5, 0, 9], [41, 42, 43]
    edges = np.cumsum([0, *sizes]).tolist()
    streams = BlockStreams([np.random.default_rng(s) for s in seeds], edges)
    one = BlockStreams.of(np.random.default_rng(41))
    alone = [np.random.default_rng(s) for s in seeds]
    reference = np.random.default_rng(41)
    for _ in range(2):  # and the next draw goes on where each stream stopped
        got = draw(streams, edges[-1])
        for gen, lo, hi in zip(alone, edges, edges[1:]):
            assert np.array_equal(got[lo:hi], draw(gen, hi - lo))
        assert np.array_equal(draw(one, 7), draw(reference, 7))
    assert streams.gens[1].bit_generator.state == np.random.default_rng(42).bit_generator.state


@pytest.mark.parametrize("F", [DistributionSpec.exponential(1.7),
                               DistributionSpec.shifted_exponential(0.2, 3.0)])
def test_overlap_draw_has_the_bits_of_numpys_exponential(F):
    # a merging pair of the (shifted) exponential intakes lands at
    # shift + max(delta, 0) + Exp(rate), drawn as numpy's own method draws it
    delta = np.linspace(-2.0, 2.0, 1001)
    shift, rate = F.support()[0], F.params[-1]
    got = coupling._overlap(F, delta, BlockStreams.of(np.random.default_rng(19)))
    wait = np.random.default_rng(19).exponential(1.0 / rate, delta.size)
    assert np.array_equal(got, shift + np.maximum(delta, 0.0) + wait)


_LAWS = {
    "gamma": DistributionSpec.gamma(2.0, 0.5),  # rejection coupling
    "uniform": DistributionSpec.uniform(0.0, 1.0),  # overlap and residuals of the box
    "shifted_exponential": DistributionSpec.shifted_exponential(0.1, 2.0),  # closed form too
    "weibull": DistributionSpec.weibull(1.5, 0.5),  # rejection, drawn by slices with no out=
}
_STARTS = {
    "": ((1.0, 1.0, 0.0), (3.0, 0.8, 0.7)),  # unequal ages: lone jumps
    "-fused": ((2.0, 1.0, 0.0), (2.0, 1.0, 0.0)),  # equal states, as simulate: all fused
    "-unmet": ((2.0, 1.0, 0.0), (4.0, 1.0, 0.0)),  # unequal x, as verify: fused and unmet
}


@pytest.mark.parametrize("F, start", [
    pytest.param(F, start, id=law + variant)
    for variant, start in _STARTS.items() for law, F in _LAWS.items()
])
def test_a_group_of_blocks_draws_as_its_blocks_alone(F, start):
    # Weibull waits, unequal ages (lone jumps), uniform rates and tv_from
    # inside the horizon reach every draw site of the kernel; blocks of
    # unequal size with mixed horizons end at different steps.  From
    # equal ages every jump is common, so the steps that draw for every
    # running column draw through whole-slice views of the streams
    prof = hazard_profile(DistributionSpec.weibull(2.0, 1.0))
    H = DistributionSpec.uniform(0.5, 1.5)
    tunings = {2.0: (0.2, 0.5, 0.3), 6.0: (0.1, 0.6, 0.2)}
    horizons, seeds = [np.resize(list(tunings), n) for n in (30, 45, 20)], [11, 12, 13]
    (x0, theta0, age0), (x1, theta1, age1) = start

    def run(rng, horizon):
        n = horizon.size
        return run_three_phase(ProcessState(np.full(n, x0), theta0, age0),
                               ProcessState(np.full(n, x1), theta1, age1),
                               F, prof, H, horizon, rng,
                               *np.array([tunings[h] for h in horizon.tolist()]).T)

    alone = [run(np.random.default_rng(s), h) for s, h in zip(seeds, horizons)]
    edges = np.cumsum([0, *(h.size for h in horizons)])
    group = run(BlockStreams([np.random.default_rng(s) for s in seeds], edges),
                np.concatenate(horizons))
    assert np.isfinite(group.tau).any() and (group.log.counts > 0).all()
    whole = _arrays(group)
    parts = [_arrays(rep) for rep in alone]
    for name, col in whole.items():
        assert np.array_equal(col, np.concatenate([part[name] for part in parts])), name
