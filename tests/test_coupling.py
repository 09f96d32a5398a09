"""Tests of the coupled-pair simulators and the maximal jump coupling."""

import math

import numpy as np
import pytest

from contamsim import coupling, rates
from contamsim.coupling import (
    CouplingPhaseParams,
    run_three_phase,
    simulate_coupled_full,
    tv_jump_coupling,
)
from contamsim.distributions import DistributionSpec, hazard_profile
from contamsim.errors import AssumptionError, ContamsimError, NoDensityError
from contamsim.pdmp import ProcessState, simulate_path

# Point-mass intakes and rates draw nothing, so a coupled run with them
# is the coupled age pair alone, draw for draw.
NO_INTAKE = DistributionSpec.dirac(0.0)
UNIT_RATE = DistributionSpec.dirac(1.0)


def _ages(a0, a0_tilde, prof, horizon, rng, stop_at_merge=False):
    """Run the coupled age pair from ages (a0, a0_tilde)."""
    return simulate_coupled_full(
        ProcessState(0.0, 1.0, a0), ProcessState(0.0, 1.0, a0_tilde),
        NO_INTAKE, prof, UNIT_RATE, horizon, rng, stop_at_merge=stop_at_merge,
    )


def test_phase_params_validation():
    with pytest.raises(AssumptionError):
        CouplingPhaseParams(alpha=0.5, beta=0.3, epsilon_tv=0.1)
    with pytest.raises(AssumptionError):
        CouplingPhaseParams(alpha=0.1, beta=0.5, epsilon_tv=1.5)


def test_equal_ages_coalesce_immediately():
    prof = hazard_profile(DistributionSpec.exponential(1.0))
    rep, _ = _ages(0.7, 0.7, prof, 10.0, np.random.default_rng(0))
    assert rep.tau_A == 0.0


def test_constant_hazard_coalescence_is_memoryless():
    # flat hazard: the very first event is common, so tau_A ~ Exp(lam)
    lam = 2.0
    prof = hazard_profile(DistributionSpec.exponential(lam))
    rng = np.random.default_rng(1)
    taus = []
    for _ in range(30_000):
        rep, _ = _ages(0.0, 1.3, prof, 1e9, rng, stop_at_merge=True)
        taus.append(rep.tau_A)
        assert rep.n_events == 1
    taus = np.sort(taus)
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
    seen_lone = 0
    for _ in range(2000):
        rep, traj = _ages(0.0, 5.0, prof, horizon, rng)
        if rep.n_events == 1 and math.isinf(rep.tau_A):
            seen_lone += 1
            assert traj.final.y.age == pytest.approx(horizon, abs=1e-12)
            assert 0.0 <= traj.final.y_tilde.age < horizon
    assert seen_lone > 200


def test_common_jump_probability_matches_hazard_ratio():
    # thinning oracle: at an event of the pair (ages a < a'), the jump
    # is common with probability zeta(a+s)/zeta(a'+s)
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    rng = np.random.default_rng(3)
    n = 60_000
    a0, a0t = 0.5, 1.5
    hits = 0
    probs = []
    for _ in range(n):
        # draw the first event time with the elder's hazard, exactly
        s = prof.inverse(a0t, rng.exponential())
        probs.append(prof.zeta(a0 + s) / prof.zeta(a0t + s))
        rep, _ = _ages(a0, a0t, prof, 1e9, rng, stop_at_merge=True)
        # the run stops at the first common jump: was it the first event?
        if rep.n_events == 1:
            hits += 1
    p_ref = float(np.mean(probs))
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
    coupled_ages = []
    for _ in range(8000):
        _, traj = simulate_coupled_full(
            ProcessState(1.0, 1.0, 0.0), ProcessState(2.0, 1.0, 0.9),
            F, prof, H, t_obs, rng,
        )
        coupled_ages.append(traj.final.y.age)
    single_ages = []
    for _ in range(8000):
        _, final = simulate_path(ProcessState(1.0, 1.0, 0.0), F, prof, H, t_obs, rng)
        single_ages.append(final.age)
    a = np.sort(coupled_ages)
    b = np.sort(single_ages)
    # two-sample KS at the 0.1% level
    grid = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    d = np.max(np.abs(fa - fb))
    assert d <= 1.95 * math.sqrt(2.0 / 8000)


def test_stop_at_merge():
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))
    F = DistributionSpec.uniform(0.0, 1.0)
    H = DistributionSpec.uniform(0.5, 1.5)
    stopped_early = 0
    for k in range(200):
        init = ProcessState(2.0, 1.0, 0.0), ProcessState(4.0, 1.0, 0.8)
        full, _ = simulate_coupled_full(*init, F, prof, H, 30.0,
                                        np.random.default_rng([9, k]))
        rep, traj = simulate_coupled_full(*init, F, prof, H, 30.0,
                                          np.random.default_rng([9, k]),
                                          stop_at_merge=True)
        # the run is the same up to the first common jump
        assert rep.tau_A == full.tau_A
        if math.isfinite(rep.tau_A):
            stopped_early += rep.n_events < full.n_events
            # the final state is the one just after the common jump
            for state in (traj.final.y, traj.final.y_tilde):
                assert state.t == rep.tau_A
                assert state.age == 0.0
            assert traj.final.y.theta == traj.final.y_tilde.theta
    assert stopped_early > 100
    # equal initial ages: stopped at time 0, before any event
    rep, traj = simulate_coupled_full(
        ProcessState(2.0, 1.0, 0.4), ProcessState(4.0, 1.0, 0.4),
        F, prof, H, 30.0, np.random.default_rng(12), stop_at_merge=True,
    )
    assert rep.tau_A == 0.0 and rep.n_events == 0
    assert traj.final.y.t == 0.0 and traj.final.y.x == 2.0


def test_rejection_sampler_exhaustion_is_a_package_error(monkeypatch):
    monkeypatch.setattr(coupling, "_MAX_REJECTIONS", 0)
    F = DistributionSpec.uniform(0.0, 1.0)
    with pytest.raises(ContamsimError, match="rejection sampler"):
        tv_jump_coupling(0.0, 0.3, F, np.random.default_rng(13))


def test_gap_contracts_exactly_after_full_age_merge():
    # once ages and rates agree and jumps are shared, the quantity gap
    # decays by exp(-integral of the common rate), with no other change
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.exponential(1.0)
    H = DistributionSpec.uniform(0.5, 1.5)
    rng = np.random.default_rng(5)
    for _ in range(50):
        rep, traj = simulate_coupled_full(
            ProcessState(2.0, 1.0, 0.0), ProcessState(4.0, 1.0, 0.0),
            F, G, H, 6.0, rng,
        )
        fin = traj.final
        assert fin.y.theta == fin.y_tilde.theta
        assert fin.y.age == fin.y_tilde.age
        # reconstruct the decay factor from the realized gap
        gap0 = 2.0
        gap = abs(fin.y.x - fin.y_tilde.x)
        assert gap <= gap0 * (1.0 + 1e-12)
        # independent pathwise check at a recorded midpoint
        rep2, traj2 = simulate_coupled_full(
            ProcessState(2.0, 1.0, 0.0), ProcessState(4.0, 1.0, 0.0),
            F, G, H, 6.0, np.random.default_rng([77, _]), record_times=(3.0,),
        )
        st = traj2.snapshots[0]
        g_mid = abs(st.y.x - st.y_tilde.x)
        g_end = abs(traj2.final.y.x - traj2.final.y_tilde.x)
        # between 3.0 and 6.0 the same rates apply on both paths
        assert g_end <= g_mid * (1.0 + 1e-12)


def test_tv_jump_coupling_requires_density():
    with pytest.raises(NoDensityError):
        tv_jump_coupling(0.0, 1.0, DistributionSpec.dirac(1.0),
                         np.random.default_rng(0))


def test_tv_jump_coupling_zero_gap_always_merges():
    rng = np.random.default_rng(6)
    F = DistributionSpec.uniform(0.0, 1.0)
    for _ in range(100):
        x, xt, ok = tv_jump_coupling(1.0, 1.0, F, rng)
        assert ok and x == xt


def test_tv_jump_coupling_box_example():
    # box intake with gap 0.3: merge probability 1 - eta = 0.7
    F = DistributionSpec.uniform(0.0, 1.0)
    rng = np.random.default_rng(7)
    n = 100_000
    merged = 0
    xs, xts = [], []
    for _ in range(n):
        x, xt, ok = tv_jump_coupling(0.0, 0.3, F, rng)
        merged += ok
        xs.append(x)       # = intake of the first component
        xts.append(xt - 0.3)
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
    merged = 0
    xs = []
    for _ in range(n):
        x, xt, ok = tv_jump_coupling(0.0, 0.5, F, rng)
        merged += ok
        xs.append(xt - 0.5)
    p_ref = math.exp(-0.5)  # 1 - eta for the memoryless intake
    se = math.sqrt(p_ref * (1 - p_ref) / n)
    assert merged / n == pytest.approx(p_ref, abs=4.5 * se)
    sample = np.sort(xs)
    emp = np.arange(1, n + 1) / n
    cdf = 1.0 - np.exp(-np.maximum(sample, 0.0))
    assert np.max(np.abs(emp - cdf)) <= 1.63 / math.sqrt(n)


def test_three_phase_trivial_pair():
    # identical initial states coalesce at time zero
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.exponential(1.0)
    H = DistributionSpec.dirac(1.0)
    params = CouplingPhaseParams(alpha=0.2, beta=0.6, epsilon_tv=0.5)
    rep = run_three_phase(
        ProcessState(1.0, 1.0, 0.0), ProcessState(1.0, 1.0, 0.0),
        params, F, G, H, 5.0, np.random.default_rng(9),
    )
    assert rep.tau == 0.0
    assert rep.phase_outcomes["age_merge_by_alpha"]


def test_three_phase_age_merge_probability():
    # flat hazard: ages merge by alpha*t with probability 1 - exp(-lam*alpha*t)
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.exponential(1.0)
    H = DistributionSpec.dirac(1.0)
    horizon = 10.0
    params = CouplingPhaseParams(alpha=0.2, beta=0.6, epsilon_tv=0.5)
    rng = np.random.default_rng(10)
    n = 20_000
    hits = 0
    for _ in range(n):
        rep = run_three_phase(
            ProcessState(2.0, 1.0, 0.0), ProcessState(4.0, 1.0, 0.5),
            params, F, G, H, horizon, rng,
        )
        hits += rep.phase_outcomes["age_merge_by_alpha"]
        if math.isfinite(rep.tau):
            assert rep.tau >= params.beta * horizon  # merges only in phase 3
            assert rep.tau <= horizon
    p_ref = 1.0 - math.exp(-params.alpha * horizon)
    se = math.sqrt(p_ref * (1 - p_ref) / n)
    assert hits / n == pytest.approx(p_ref, abs=4.5 * se)


def test_coalescence_is_absorbing():
    # after tau the two trajectories are identical forever
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.exponential(1.0)
    H = DistributionSpec.uniform(0.5, 1.5)
    rng = np.random.default_rng(11)
    found = 0
    for k in range(300):
        rep, traj = simulate_coupled_full(
            ProcessState(2.0, 1.0, 0.0), ProcessState(4.0, 1.0, 0.3),
            F, G, H, 20.0, rng, tv_from=0.0, record_times=(5.0, 10.0, 15.0, 20.0),
        )
        if not math.isfinite(rep.tau):
            continue
        found += 1
        for st in traj.snapshots:
            if st.y.t > rep.tau:
                assert st.y.x == st.y_tilde.x
                assert st.y.theta == st.y_tilde.theta
                assert st.y.age == st.y_tilde.age
    assert found > 100


def test_full_coupling_reproducibility():
    F = DistributionSpec.uniform(0.0, 1.0)
    G = DistributionSpec.gamma(2.0, 1.0)
    H = DistributionSpec.uniform(0.5, 1.5)
    runs = []
    for _ in range(2):
        rep, traj = simulate_coupled_full(
            ProcessState(2.0, 1.0, 0.0), ProcessState(4.0, 1.0, 0.5),
            F, G, H, 12.0, np.random.default_rng([3, 1, 4]), tv_from=6.0,
        )
        runs.append((rep.tau_A, rep.tau, rep.n_events, traj.final.y.x))
    assert runs[0] == runs[1]
