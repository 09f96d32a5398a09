"""Tests of the coupled-pair simulators and the maximal jump coupling."""

import math
from pathlib import Path

import numpy as np
import pytest

from contamsim import coupling, rates
from contamsim.coupling import (
    BlockStreams,
    run_three_phase,
    simulate_coupled,
    tv_jump_coupling,
)
from contamsim.distributions import DistributionSpec, hazard_profile
from contamsim.errors import AssumptionError, ContamsimError, NoDensityError
from contamsim.pdmp import ProcessState, simulate_path

# Point-mass intakes and rates draw nothing, so a coupled run with them
# is the coupled age pair alone, draw for draw.
NO_INTAKE = DistributionSpec.dirac(0.0)
UNIT_RATE = DistributionSpec.dirac(1.0)


def _ages(a0, a0_tilde, prof, horizon, rng, stop_at_merge=False, n=1):
    """Run n coupled age pairs from ages (a0, a0_tilde)."""
    return simulate_coupled(
        ProcessState(np.zeros(n), 1.0, a0), ProcessState(0.0, 1.0, a0_tilde),
        NO_INTAKE, prof, UNIT_RATE, horizon, rng, stop_at_merge=stop_at_merge,
    )


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
    # flat hazard: the very first event is common, so tau_A ~ Exp(lam)
    lam = 2.0
    prof = hazard_profile(DistributionSpec.exponential(lam))
    rng = np.random.default_rng(1)
    rep = _ages(0.0, 1.3, prof, 1e9, rng, stop_at_merge=True, n=30_000)
    assert np.all(rep.log.counts == 1)
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
    rep = _ages(a0, a0t, prof, 1e9, rng, stop_at_merge=True, n=n)
    # each run stops at its first common jump: was it the first event?
    hits = int((rep.log.counts == 1).sum())
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
    # the recorded jumps of Y (common and lone) rebuild its final quantity
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    F, H = DistributionSpec.uniform(0.0, 1.0), DistributionSpec.uniform(0.5, 1.5)
    horizon = 4.0
    rep = simulate_coupled(
        ProcessState(np.full(50, 2.0), 1.0, 0.0), ProcessState(4.0, 0.7, 1.5),
        F, prof, H, horizon, np.random.default_rng(18), tv_from=2.0, record=True,
    )
    assert np.all(rep.log.counts >= np.bincount(rep.log.runs, minlength=50))
    for k in range(50):
        x, theta, prev = 2.0, 1.0, 0.0
        for t, u, th in zip(*rep.log.of(k)):
            x, theta, prev = x * math.exp(-theta * (t - prev)) + u, th, t
        assert x * math.exp(-theta * (horizon - prev)) == pytest.approx(rep.y.x[k], rel=1e-12)
        assert theta == rep.y.theta[k]


def test_stop_at_merge():
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    F = DistributionSpec.uniform(0.0, 1.0)
    H = DistributionSpec.uniform(0.5, 1.5)
    stopped_early = 0
    for k in range(200):
        # one pair per run, so that both runs draw the same numbers up to
        # the merge (in a batch, a stopped pair changes the later draws)
        init = ProcessState(2.0, 1.0, 0.0), ProcessState(4.0, 1.0, 0.8)
        full = simulate_coupled(*init, F, prof, H, 30.0, np.random.default_rng([9, k]))
        rep = simulate_coupled(*init, F, prof, H, 30.0, np.random.default_rng([9, k]),
                               stop_at_merge=True)
        # the run is the same up to the first common jump
        assert rep.tau_A[0] == full.tau_A[0]
        if math.isfinite(rep.tau_A[0]):
            stopped_early += rep.n_events < full.n_events
            # the final state is the one just after the common jump
            for state in (rep.y, rep.y_tilde):
                assert state.t[0] == rep.tau_A[0]
                assert state.age[0] == 0.0
            assert rep.y.theta[0] == rep.y_tilde.theta[0]
    assert stopped_early > 100
    # equal initial ages: stopped at time 0, before any event
    rep = simulate_coupled(
        ProcessState(2.0, 1.0, 0.4), ProcessState(4.0, 1.0, 0.4),
        F, prof, H, 30.0, np.random.default_rng(12), stop_at_merge=True,
    )
    assert rep.tau_A[0] == 0.0 and rep.n_events == 0
    assert rep.y.t[0] == 0.0 and rep.y.x[0] == 2.0


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
    # the merge frequency is 1 - eta and both intakes keep the law F
    rng = np.random.default_rng(16)
    n = 50_000
    gap = 0.4
    x, xt, ok = tv_jump_coupling(np.zeros(n), np.full(n, gap), F, rng)
    p_ref = 1.0 - rates.eta(gap, F)
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


def test_verify_runs_one_coupled_batch_per_block(tmp_path, monkeypatch):
    # every grid time of a block is one run_three_phase call of
    # len(grid) * CHUNK pairs
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
    result = CliRunner().invoke(main, [
        "verify", "--config", str(config), "--replicas", "1100", "--out", str(tmp_path), "--quiet",
    ])
    assert result.exit_code == 0, result.output
    assert calls == [9 * runner.CHUNK] * 3


_DRAWS = [  # (method, parameters) of every draw the kernel makes
    ("random", ()), ("exponential", (2.0,)), ("gamma", (0.7, 1.5)),
    ("uniform", (1.0, 3.0)), ("weibull", (1.5,)),
]


def test_block_streams_draw_each_share_from_its_block():
    # blocks of 4, 6 and 3 columns; the view skips block 1 entirely
    block = np.repeat([0, 1, 2], [4, 6, 3])
    cols = np.array([1, 2, 3, 10, 12])
    streams = BlockStreams([np.random.default_rng(s) for s in (7, 8, 9)], block)
    alone = [np.random.default_rng(s) for s in (7, 8, 9)]
    mask = np.isin(np.arange(block.size), cols)
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
    want = np.random.default_rng(3).exponential(2.0, 4)
    assert np.array_equal(streams.exponential(2.0, 4), want)
    # one generator is one stream, whatever the labels
    assert BlockStreams([rng], np.zeros(3, dtype=int)).block is None


@pytest.mark.parametrize("F", [
    DistributionSpec.gamma(2.0, 0.5),  # rejection coupling
    DistributionSpec.uniform(0.0, 1.0),  # overlap and residuals of the box
    DistributionSpec.shifted_exponential(0.1, 2.0),  # the same in closed form
], ids=["gamma", "uniform", "shifted_exponential"])
def test_a_group_of_blocks_draws_as_its_blocks_alone(F):
    # Weibull waits, unequal ages (lone jumps), uniform rates and tv_from
    # inside the horizon reach every draw site of the kernel; blocks of
    # unequal size with mixed horizons end at different steps
    prof = hazard_profile(DistributionSpec.weibull(2.0, 1.0))
    H = DistributionSpec.uniform(0.5, 1.5)
    tunings = {2.0: (0.2, 0.5, 0.3), 6.0: (0.1, 0.6, 0.2)}
    horizons, seeds = [np.resize(list(tunings), n) for n in (30, 45, 20)], [11, 12, 13]

    def run(rng, horizon):
        n = horizon.size
        return run_three_phase(ProcessState(np.full(n, 1.0), 1.0, 0.0),
                               ProcessState(np.full(n, 3.0), 0.8, 0.7),
                               F, prof, H, horizon, rng,
                               *np.array([tunings[h] for h in horizon.tolist()]).T)

    alone = [run(np.random.default_rng(s), h) for s, h in zip(seeds, horizons)]
    block = np.repeat([0, 1, 2], [h.size for h in horizons])
    group = run(BlockStreams([np.random.default_rng(s) for s in seeds], block),
                np.concatenate(horizons))
    assert np.isfinite(group.tau).any() and (group.log.counts > 0).all()
    whole = _arrays(group)
    parts = [_arrays(rep) for rep in alone]
    for name, col in whole.items():
        assert np.array_equal(col, np.concatenate([part[name] for part in parts])), name
