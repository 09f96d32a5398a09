"""Tests of the analytic rate machinery: kernel, renewal solver,
overlap deficit, age-coalescence parameters and assembled curves."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from contamsim import rates
from contamsim.distributions import DistributionSpec, hazard_profile
from contamsim.errors import AssumptionError, CaseMismatchError
from contamsim.rates import (
    HolderData,
    RenewalKernel,
    age_bound_params,
    age_rate_cap,
    default_age_params,
    eta,
    eta_envelope,
    exp_case_bounds,
    exponential_case_decay,
    find_w,
    convergence_bounds,
    sample_age_bound,
    solve_renewal,
)

EXP1 = DistributionSpec.exponential(1.0)
DIRAC1 = DistributionSpec.dirac(1.0)
UNIF01 = DistributionSpec.uniform(0.0, 1.0)


# ---------------------------------------------------------------------------
# Kernel and Laplace root
# ---------------------------------------------------------------------------


def test_kernel_mass_closed_form():
    # E[e^{-Theta DT}] = 1/2 for DT ~ Exp(1), Theta = 1
    k = RenewalKernel(EXP1, DIRAC1, 1.0)
    assert k.mass() == pytest.approx(0.5)
    with pytest.raises(AssumptionError):
        RenewalKernel(EXP1, DIRAC1, 0.5)


def test_kernel_psi_monotone():
    k = RenewalKernel(DistributionSpec.gamma(2.0, 1.0),
                      DistributionSpec.uniform(0.5, 1.5), 1.0)
    us = np.linspace(-1.0, 0.8, 15)
    vals = [k.psi(u) for u in us]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert k.psi(0.0) < 1.0


def test_laplace_root_unit_instance():
    # G = Exp(1), Theta = 1, p = 1: psi_J(u) = 1/(2-u), root at u = 1
    k = RenewalKernel(EXP1, DIRAC1, 1.0)
    assert k.psi(0.5) == pytest.approx(1.0 / 1.5)
    assert find_w(k) == pytest.approx(1.0, abs=1e-8)


def test_laplace_root_scaling():
    # G = Exp(lam), Theta = theta: psi_J(u) = lam/(lam+theta*p-u), root theta*p
    for lam, theta, p in [(2.0, 0.5, 1.0), (1.0, 2.0, 1.5)]:
        k = RenewalKernel(DistributionSpec.exponential(lam),
                          DistributionSpec.dirac(theta), p)
        assert find_w(k) == pytest.approx(theta * p, abs=1e-7)


def test_laplace_root_can_be_unbounded():
    # bounded inter-arrival times with strong discount: psi stays < 1
    k = RenewalKernel(DistributionSpec.uniform(1.0, 2.0),
                      DistributionSpec.dirac(50.0), 1.0)
    assert math.isinf(find_w(k, cap=8.0))


# ---------------------------------------------------------------------------
# Renewal solver
# ---------------------------------------------------------------------------


def test_renewal_solver_deterministic_rate_oracle():
    # Theta = theta a.s. makes the solution exactly exp(-p*theta*t)
    k = RenewalKernel(EXP1, DIRAC1, 1.0)
    sol = solve_renewal(k, w_shift=0.0, grid_step=1e-3, horizon=10.0)
    ref = np.exp(-sol.grid)
    assert np.max(np.abs(sol.Z - ref)) <= 1e-3
    res = sol.residual(k)
    assert np.max(res) <= 1e-6


def test_renewal_solver_tilted_oracle():
    # tilting by a sub-critical rate must reproduce the same solution
    k = RenewalKernel(EXP1, DIRAC1, 1.0)
    sol = solve_renewal(k, w_shift=0.5, grid_step=1e-3, horizon=10.0)
    ref = np.exp(-sol.grid)
    assert np.max(np.abs(sol.Z - ref)) <= 2e-3
    # the tilted solution exp(0.5 t) Z(t) stays bounded
    assert sol.C <= 1.0 + 1e-6


def test_renewal_solver_rejects_supercritical_tilt():
    k = RenewalKernel(EXP1, DIRAC1, 1.0)
    with pytest.raises(AssumptionError):
        solve_renewal(k, w_shift=1.5, horizon=2.0, grid_step=1e-2)
    # the caller can vouch for integrability at the critical rate
    sol = solve_renewal(k, w_shift=1.5, horizon=2.0, grid_step=1e-2, dri=True)
    assert np.all(np.isfinite(sol.Z))


def _forward_substitution(kernel, w_shift, grid_step, horizon):
    """The O(n^2) point-by-point solve of the trapezoid-discretized
    tilted renewal equation; the reference for solve_renewal."""
    grid = np.arange(0.0, horizon + grid_step / 2, grid_step)
    n, h = len(grid), grid_step
    tilt = np.exp(w_shift * grid)
    jp = np.array([kernel.density(t) for t in grid]) * tilt
    zp = np.array([kernel.discount(t) * kernel.G.survival(t) for t in grid]) * tilt
    Zp = np.empty(n)
    Zp[0] = zp[0]
    denom = 1.0 - 0.5 * h * jp[0]
    for i in range(1, n):
        acc = 0.5 * h * jp[i] * Zp[0]
        if i > 1:
            acc += h * np.dot(jp[1:i], Zp[i - 1 : 0 : -1])
        Zp[i] = (zp[i] + acc) / denom
    return Zp


def test_renewal_solver_matches_forward_substitution():
    weibull = RenewalKernel(DistributionSpec.weibull(2.0, 1.0),
                            DistributionSpec.gamma(2.0, 0.1), 1.0)
    instances = [  # (kernel, w_shift, dri)
        (RenewalKernel(EXP1, DIRAC1, 1.0), 0.0, False),
        (RenewalKernel(DistributionSpec.gamma(2.0, 0.5), DIRAC1, 1.0), 0.5, False),
        (weibull, 0.95 * find_w(weibull), False),
        (RenewalKernel(EXP1, DIRAC1, 1.0), 1.5, True),  # supercritical, vouched for
    ]
    block = rates._RENEWAL_BLOCK
    step = 0.01
    for kernel, shift, dri in instances:
        for n in (1, 2, block, block + 1, 999):
            horizon = (n - 1) * step
            sol = solve_renewal(kernel, w_shift=shift, grid_step=step, horizon=horizon,
                                dri=dri)
            ref = _forward_substitution(kernel, shift, step, horizon)
            assert len(sol.grid) == len(ref) == n
            assert np.max(np.abs(sol.Z_tilted - ref)) <= 1e-12 * np.max(np.abs(ref))
            if kernel is weibull:
                assert sol.C == 1.0  # the tilted solution peaks at t = 0


def test_exponential_case_decay_values():
    # lam (1 - E[e^{-t Theta}] under Exp(lam) times): closed values
    assert exponential_case_decay(1.0, DIRAC1) == pytest.approx(0.5, abs=1e-9)
    assert exponential_case_decay(2.0, DIRAC1) == pytest.approx(2.0 * (1 - 2.0 / 3.0), abs=1e-9)
    assert exponential_case_decay(1.0, DistributionSpec.dirac(2.0)) == pytest.approx(
        1.0 - 1.0 / 3.0, abs=1e-9
    )


# ---------------------------------------------------------------------------
# Overlap deficit eta and its envelope
# ---------------------------------------------------------------------------


def test_eta_closed_forms():
    assert eta(0.3, UNIF01) == pytest.approx(0.3)
    assert eta(2.0, UNIF01) == 1.0
    assert eta(0.5, EXP1) == pytest.approx(1.0 - math.exp(-0.5))
    assert eta(0.25, DistributionSpec.shifted_exponential(1.0, 2.0)) == pytest.approx(
        1.0 - math.exp(-0.5)
    )
    assert eta(0.0, UNIF01) == 0.0
    # symmetric in the sign of the shift
    assert eta(-0.3, UNIF01) == pytest.approx(0.3)


def test_eta_quadrature_matches_closed_forms():
    for spec in (UNIF01, EXP1, DistributionSpec.uniform(0.5, 2.0),
                 DistributionSpec.gamma(2.5, 0.8), DistributionSpec.gamma(0.6, 1.0),
                 DistributionSpec.weibull(1.5, 1.0), DistributionSpec.weibull(0.8, 2.0)):
        for e in np.linspace(0.01, 1.2, 40):
            assert rates._eta_quad(e, spec) == pytest.approx(
                eta(e, spec), abs=1e-6
            )


def test_eta_is_monotone_for_gamma():
    g = DistributionSpec.gamma(2.0, 1.0)
    es = np.linspace(0.05, 2.0, 20)
    vals = [eta(e, g) for e in es]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert 0.0 < vals[0] < vals[-1] < 1.0


def test_eta_envelope_box():
    C, v = eta_envelope(1.0, UNIF01)
    assert (C, v) == (1.0, 1.0)
    C, v = eta_envelope(1.0, DistributionSpec.uniform(0.0, 2.0))
    assert (C, v) == (0.5, 1.0)


def test_eta_envelope_holder_data():
    hd = HolderData(K=1.0, h=1.0, M=1.0)
    C, v = eta_envelope(1.0, UNIF01, holder=hd)
    assert (C, v) == (1.0, 1.0)
    with pytest.raises(AssumptionError):
        eta_envelope(1.0, UNIF01, holder=HolderData(K=1.0, h=0.5, C_tail=1.0, p_tail=1.5))


def test_eta_envelope_dominates_numeric_fit():
    g = DistributionSpec.gamma(2.0, 1.0)
    C, v = eta_envelope(1.0, g)
    for e in np.geomspace(1e-3, 1.0, 50):
        assert eta(e, g) <= C * e**v * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Age-coalescence parameters
# ---------------------------------------------------------------------------


def _rayleigh_profile():
    return hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))


def test_case_matching():
    ray = _rayleigh_profile()  # d = inf, unbounded hazard
    with pytest.raises(CaseMismatchError):
        age_bound_params("i", ray, 0.5, 1.0, 2.0)
    with pytest.raises(CaseMismatchError):
        age_bound_params("ii", ray, 0.5, 1.0, 2.0)
    box = hazard_profile(DistributionSpec.uniform(0.0, 2.0))  # d = 2 finite
    with pytest.raises(CaseMismatchError):
        age_bound_params("iii", box, 0.5, 1.0, 1.8)
    shifted = hazard_profile(DistributionSpec.shifted_exponential(1.0, 1.0))
    with pytest.raises(CaseMismatchError):
        age_bound_params("iii", shifted, 0.75, 1.5, 3.0)
    with pytest.raises(ValueError):
        age_bound_params("iv", ray, 0.5, 1.0, 2.0)


def test_case_iii_reference_values():
    # linear hazard zeta(t) = t with eps=1/2, b=1, c=2
    p1, p2 = age_bound_params("iii", _rayleigh_profile(), 0.5, 1.0, 2.0)
    # p1 = 1 - exp(-(eps - a/2) * zeta(eps + a/2)) = 1 - exp(-1/4)
    assert p1 == pytest.approx(1.0 - math.exp(-0.25), abs=1e-6)    # ~0.2212
    assert p2 == pytest.approx(0.5 * math.exp(-1.5) * (1.0 - math.exp(-0.5)), abs=1e-6)
    assert p2 == pytest.approx(0.0439, abs=2e-4)


def test_case_i_values_and_cap():
    # box inter-arrival on [0, 2]: hazard 1/(2-t), dead time a = 0
    box = hazard_profile(DistributionSpec.uniform(0.0, 2.0))
    eps, b, c = 0.5, 0.6, 1.5
    p1, p2 = age_bound_params("i", box, eps, b, c)
    assert p1 == pytest.approx(1.0 - math.exp(-0.5 / 1.5))
    assert p2 == pytest.approx(
        math.exp(-0.6 / 0.9) * (1.0 - math.exp(-0.4 / 1.4))
    )
    cap = age_rate_cap("i", p1, p2, eps, box)
    assert cap == pytest.approx(0.5 * min(
        -math.log(1.0 - p2) / (2.0 * eps),
        -math.log(1.0 - p1 * p2) / (box.d - eps),
    ))


def test_case_ii_shifted_exponential():
    # flat-after-delay hazard: the outer round always succeeds once the
    # waiting block lands, so p2 = zeta(b)/sup zeta = 1
    prof = hazard_profile(DistributionSpec.shifted_exponential(1.0, 2.0))
    p1, p2 = age_bound_params("ii", prof, 0.75, 1.5, 3.0)
    assert p1 == pytest.approx(math.exp(-1.5 * 2.0))
    assert p2 == 1.0


def test_age_param_validation():
    ray = _rayleigh_profile()
    with pytest.raises(AssumptionError):
        age_bound_params("iii", ray, 0.0, 1.0, 2.0)  # eps <= a/2
    with pytest.raises(AssumptionError):
        age_bound_params("iii", ray, 0.5, 1.0, 1.2)  # c <= b + eps
    shifted = hazard_profile(DistributionSpec.shifted_exponential(1.0, 1.0))
    with pytest.raises(AssumptionError):
        age_bound_params("ii", shifted, 0.4, 1.5, 3.0)  # eps <= a/2


def test_default_age_params_satisfy_hypotheses():
    for spec, case in [
        (DistributionSpec.uniform(0.0, 2.0), "i"),
        (DistributionSpec.shifted_exponential(1.0, 2.0), "ii"),
        (DistributionSpec.weibull(2.0, math.sqrt(2.0)), "iii"),
        (DistributionSpec.gamma(2.0, 1.0), "ii"),  # hazard increases to 1/scale
    ]:
        prof = hazard_profile(spec)
        eps, b, c = default_age_params(prof)
        p1, p2 = age_bound_params(case, prof, eps, b, c)
        assert 0.0 < p1 <= 1.0 and 0.0 < p2 <= 1.0


def test_bound_sampler_mean_matches_structure():
    # case ii: bound = sum over H outer rounds of (G_i blocks of b + Exp)
    # mean = (b + 1/zeta(b)) / (p1 * p2) by Wald's identity
    prof = hazard_profile(DistributionSpec.shifted_exponential(1.0, 2.0))
    eps, b, c = 0.75, 1.5, 3.0
    p1, p2 = age_bound_params("ii", prof, eps, b, c)
    rng = np.random.default_rng(0)
    s = sample_age_bound("ii", p1, p2, eps, b, c, prof, 200_000, rng)
    ref = (b + 1.0 / prof.zeta(b)) / (p1 * p2)
    se = s.std() / math.sqrt(len(s))
    assert s.mean() == pytest.approx(ref, abs=4.5 * se)


def _per_block_age_bound(case, p1, p2, eps, b, c, profile, n, rng):
    """Oracle: the bound variable composed block by block, with one
    geometric count per round and one exponential wait per block."""
    H = rng.geometric(p2, size=n)
    G = rng.geometric(p1, size=int(H.sum()))
    blocks = np.add.reduceat(G, np.concatenate([[0], np.cumsum(H)[:-1]]))
    if case == "i":
        return c + (2.0 * H - 1.0) * eps + (profile.d - eps) * blocks
    rate = profile.zeta(b) if case == "ii" else profile.zeta(c)
    E = rng.exponential(1.0 / rate, size=int(G.sum()))
    waits = np.add.reduceat(E, np.concatenate([[0], np.cumsum(blocks)[:-1]]))
    if case == "ii":
        return b * blocks + waits
    return c - eps + 2.0 * eps * H + (c - eps) * blocks + waits


@pytest.mark.parametrize(
    "spec, case, eps, b, c",
    [
        (DistributionSpec.uniform(0.0, 2.0), "i", 0.8, 0.2, 1.8),
        (DistributionSpec.shifted_exponential(1.0, 2.0), "ii", 0.55, 1.1, 2.0),
        (DistributionSpec.weibull(2.0, math.sqrt(2.0)), "iii", 1.0, 0.6, 3.5),
    ],
)
def test_bound_sampler_matches_per_block_composition(spec, case, eps, b, c):
    # closed-form totals vs the block-by-block oracle: two-sample KS at
    # the 1 % level; the parameters keep the oracle near 1e6 draws
    prof = hazard_profile(spec)
    p1, p2 = age_bound_params(case, prof, eps, b, c)
    n = 20_000
    tracemalloc.start()
    new = sample_age_bound(case, p1, p2, eps, b, c, prof, n, np.random.default_rng(31))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    old = _per_block_age_bound(case, p1, p2, eps, b, c, prof, n, np.random.default_rng(32))
    assert peak < 8 * new.nbytes  # a few arrays of length n, nothing per block
    ks = stats.ks_2samp(new, old).statistic
    assert ks < 1.63 * math.sqrt(2.0 / n)


# ---------------------------------------------------------------------------
# Assembled curves
# ---------------------------------------------------------------------------


def _reference_bounds(**kwargs):
    # point initial quantities 2 and 4
    return convergence_bounds(UNIF01, EXP1, DIRAC1, 6.0, **kwargs)


def test_reference_instance_constants():
    r = _reference_bounds()
    assert r.rho == pytest.approx(0.5, abs=1e-9)
    assert r.v1 == pytest.approx(1.0)
    assert r.C1 == 1.0  # positive hazard floor: exact exponential tail
    assert r.v2_prime == pytest.approx(0.5, abs=1e-9)
    assert r.v_prime == pytest.approx(0.25, abs=1e-9)
    assert r.v2 == pytest.approx(0.25, abs=1e-9)
    assert r.v3 == pytest.approx(0.5)
    assert r.C3 == pytest.approx(2.0, abs=1e-9)
    assert r.C2 == pytest.approx(20.0, abs=1e-7)
    assert r.alpha == pytest.approx(1.0 / 7.0, abs=1e-9)
    assert r.beta == pytest.approx(5.0 / 7.0, abs=1e-9)


def test_curves_shape_and_limits():
    r = _reference_bounds()
    # total variation bound lives in [0, 1], is 1 at t = 0 and vanishes
    assert r.tv(0.0) == 1.0
    assert 0.0 <= r.tv(5.0) <= 1.0
    assert r.tv(2000.0) < 1e-6
    ts = np.linspace(0.0, 100.0, 40)
    vals = np.array([r.tv(float(t)) for t in ts])
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    # Wasserstein bound decays to 0 and starts from the stated constants
    assert r.w1(0.0) == pytest.approx(r.C1_w1 + r.C2_w1)
    assert r.w1(3000.0) < 1e-9
    w = np.array([r.w1(float(t)) for t in ts])
    assert np.all(np.diff(w) < 0)


def test_reference_curves_closed_form():
    # the balanced split makes every phase decay as exp(-t/7): C1 = C4 = 1,
    # C2 = 20, C3 = 2; the W1 contraction term decays as exp(-(1/2)(6/7)t)
    r = _reference_bounds()
    for t in (10.0, 30.0, 60.0):
        e = math.exp(-t / 7.0)
        assert r.tv(t) == pytest.approx(
            min(1.0, 1.0 - (1.0 - e) ** 2 * max(0.0, 1.0 - 20.0 * e) * max(0.0, 1.0 - 2.0 * e)),
            rel=1e-9)
        assert r.w1(t) == pytest.approx(r.C1_w1 * e + r.C2_w1 * math.exp(-3.0 * t / 7.0),
                                        rel=1e-9)
    assert r.tv(60.0) < 0.01  # informative at t = 60


def test_default_closeness_threshold():
    r = _reference_bounds()
    t = 8.0
    assert r.epsilon_tv(t) == pytest.approx(
        math.exp(-r.v_prime * (r.beta - r.alpha) * t)
    )
    # clamped into (0, 1), as the coupling requires
    assert r.epsilon_tv(0.0) == 1.0 - 1e-12
    assert r.epsilon_tv(1e6) == 1e-300


def test_bounds_with_explicit_phases():
    r = _reference_bounds(alpha=0.2, beta=0.7)
    assert r.alpha == 0.2 and r.beta == 0.7
    with pytest.raises(AssumptionError):
        _reference_bounds(alpha=0.8, beta=0.3)


def test_bounds_nonconstant_hazard_instance():
    # Gamma inter-arrival times exercise the renewal-solver path
    r = convergence_bounds(UNIF01, DistributionSpec.gamma(2.0, 0.5), DIRAC1, 3.0)
    for name, value in r.to_dict().items():
        if isinstance(value, (int, float)):
            assert type(value) is float, name  # no numpy scalars in the report
    assert math.isfinite(r.w) and r.w > 0
    assert r.C2_prime >= 1.0 - 1e-9
    assert 0 < r.alpha < r.beta < 1
    assert 0.0 <= r.tv(10.0) <= 1.0
    assert r.w1(10.0) < r.w1(1.0)


def test_exp_case_exponent_comparison():
    # lam=1, rho=1/2, h=1: 1/6 for the deterministic split, 1/4 for the
    # random split -- the second method is strictly better
    hd = HolderData(K=1.0, h=1.0, M=1.0)
    m1, m2, meta = exp_case_bounds(1.0, DIRAC1, hd, x0_sum_mean=6.0,
                                   x0_max_mean=4.0, EU=0.5)
    assert meta["rho"] == pytest.approx(0.5, abs=1e-9)
    assert meta["rate_method1"] == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert meta["rate_method2"] == pytest.approx(1.0 / 4.0, abs=1e-9)
    assert meta["rate_method2"] > meta["rate_method1"]
    # both curves are valid TV bounds and method 2 wins eventually
    for t in (0.0, 1.0, 5.0):
        assert 0.0 <= m1(t) <= 1.0
        assert 0.0 <= m2(t) <= 1.0
    assert m2(200.0) < m1(200.0)
    with pytest.raises(AssumptionError):
        exp_case_bounds(1.0, DIRAC1, HolderData(K=1.0, h=1.0), 6.0, 4.0, 0.5)
