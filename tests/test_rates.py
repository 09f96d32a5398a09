"""Tests of the analytic rate machinery: kernel, renewal solver oracle,
overlap deficit, age-coalescence parameters and assembled curves."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from contamsim import rates
from contamsim.distributions import DistributionSpec, hazard_profile
from contamsim.errors import AssumptionError, DistributionError
from contamsim.rates import (
    AgeBound,
    HolderData,
    RenewalKernel,
    W_CAP,
    W_TOL,
    age_bound,
    age_bound_tail,
    eta,
    eta_envelope,
    find_w,
    convergence_bounds,
)
from oracles import (
    RENEWAL_TOL,
    age_bound_sample,
    bisected_abscissa,
    bisected_w,
    eta_quad,
    exp_case_bounds,
    forward_substitution,
    moment_quad,
    solve_renewal,
)

EXP1 = DistributionSpec.exponential(1.0)
DIRAC1 = DistributionSpec.dirac(1.0)
UNIF01 = DistributionSpec.uniform(0.0, 1.0)

# (G, H) of renewal kernels with Weibull, uniform, gamma and shifted
# exponential waits and gamma, uniform and Dirac rates
KERNEL_LAWS = [
    (DistributionSpec.weibull(2.0, 1.0), DistributionSpec.gamma(2.0, 0.1)),
    (DistributionSpec.weibull(2.0, 0.02), DistributionSpec.gamma(2.0, 0.1)),  # near-critical tilt
    (DistributionSpec.uniform(0.0, 10.0), DistributionSpec.gamma(0.2, 1.0)),
    (DistributionSpec.uniform(0.5, 2.5), DIRAC1),
    (DistributionSpec.uniform(1.0, 2.0), DistributionSpec.uniform(0.0, 0.5)),
    (DistributionSpec.gamma(2.0, 0.5), DistributionSpec.uniform(0.5, 1.5)),
    (DistributionSpec.gamma(3.0, 1.0), DistributionSpec.gamma(1.0, 1.0)),
    (DistributionSpec.shifted_exponential(1.0, 2.0), DIRAC1),
    (DistributionSpec.shifted_exponential(0.5, 1.0), DistributionSpec.gamma(2.0, 0.5)),
    (DistributionSpec.weibull(1.5, 2.0), DistributionSpec.uniform(0.1, 0.3)),
]
KERNEL_IDS = [f"{G.family.value}-{H.family.value}-{i}" for i, (G, H) in enumerate(KERNEL_LAWS)]


# ---------------------------------------------------------------------------
# Kernel and Laplace root
# ---------------------------------------------------------------------------


def test_kernel_mass_closed_form():
    # E[e^{-Theta DT}] = 1/2 for DT ~ Exp(1), Theta = 1
    k = RenewalKernel(EXP1, DIRAC1, 1.0)
    assert k.mass() == pytest.approx(0.5)
    with pytest.raises(AssumptionError):
        RenewalKernel(EXP1, DIRAC1, 0.5)
    # a singular density, x^(-1/2) e^(-x) / Gamma(1/2), and Theta ~ U(0.5, 1.5):
    # 2 (sqrt(2.5) - sqrt(1.5)), to the quadrature's error target
    k = RenewalKernel(DistributionSpec.gamma(0.5, 1.0), DistributionSpec.uniform(0.5, 1.5))
    assert k.mass() == pytest.approx(2.0 * (math.sqrt(2.5) - math.sqrt(1.5)), rel=1e-12, abs=0.0)


def test_kernel_psi_monotone():
    k = RenewalKernel(DistributionSpec.gamma(2.0, 1.0),
                      DistributionSpec.uniform(0.5, 1.5), 1.0)
    us = np.linspace(-1.0, 0.8, 15)
    vals = [k.psi(u) for u in us]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert k.psi(0.0) < 1.0


def test_kernel_psi_matches_quadpack():
    # the package's Gauss-Kronrod quadrature against scipy's QUADPACK, on
    # kernels with singular (gamma and Weibull shape < 1), bounded and
    # smooth inter-arrival densities
    for H in (DistributionSpec.gamma(2.0, 0.1), DistributionSpec.uniform(0.5, 1.5)):
        for G in (DistributionSpec.weibull(0.7, 1.0), DistributionSpec.gamma(0.5, 1.0),
                  DistributionSpec.uniform(0.5, 2.5), DistributionSpec.weibull(2.0, 1.0)):
            k = RenewalKernel(G, H)
            sup = k.domain_sup()
            for u in (-1.0, -0.2, 0.3, 0.9, 2.0):
                if u >= sup:
                    continue
                val = k.psi(u)
                assert not math.isnan(val)
                assert val == pytest.approx(moment_quad(k.density, u, *G.support()), rel=1e-10)
            # +inf above the end of the domain, and at it where it is positive
            # (at u <= 0, exp(u x) j <= j keeps psi at most the mass)
            if math.isfinite(sup):
                assert k.psi(sup + 0.5) == math.inf
                assert k.psi(sup) == (math.inf if sup > 0.0 else k.mass())


def test_kernel_mass_is_finite_where_the_domain_ends_at_zero():
    # Weibull(0.7) waits have no exponential moment and U(0, 2) rates come
    # arbitrarily close to 0, so psi_J is infinite for every u > 0; at u = 0
    # it is the kernel mass, below 1, and QUADPACK's to 1e-8
    k = RenewalKernel(DistributionSpec.weibull(0.7, 3.0), DistributionSpec.uniform(0.0, 2.0))
    assert k.domain_sup() == 0.0
    for u in (0.0, -0.5):
        ref = moment_quad(k.density, u, *k.G.support())
        assert k.psi(u) == pytest.approx(ref, rel=1e-8, abs=0.0), u
    assert k.mass() == pytest.approx(0.37729, rel=1e-5)
    assert k.psi(1e-6) == math.inf


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
    # bounded inter-arrival times with strong discount: psi stays < 1 up to
    # W_CAP, here psi(u) = E[exp((u - 100) DT)]
    k = RenewalKernel(DistributionSpec.uniform(1.0, 2.0),
                      DistributionSpec.dirac(100.0), 1.0)
    assert W_CAP < 100.0
    assert math.isinf(find_w(k))


@pytest.mark.parametrize("G, H", KERNEL_LAWS, ids=KERNEL_IDS)
def test_laplace_root_has_the_bits_of_bisection(monkeypatch, G, H):
    # regula falsi ends on the cell bisection ends on, in at most 20 psi
    # calls (bisection takes 32), the kernel mass included
    kernel = RenewalKernel(G, H)
    calls = []
    psi = RenewalKernel.psi
    monkeypatch.setattr(RenewalKernel, "psi", lambda self, u: calls.append(u) or psi(self, u))
    w = find_w(kernel)
    assert len(calls) <= 20
    monkeypatch.undo()
    assert w == bisected_w(kernel)


def test_laplace_root_needs_a_defective_kernel():
    # a zero metabolic rate leaves the kernel mass at 1; a caller's mass
    # replaces find_w's own psi(0) and is checked the same way
    with pytest.raises(AssumptionError, match="kernel mass must be below 1"):
        find_w(RenewalKernel(EXP1, DistributionSpec.dirac(0.0), 1.0))
    k = RenewalKernel(EXP1, DIRAC1, 1.0)
    assert find_w(k, k.mass()) == find_w(k)
    with pytest.raises(AssumptionError, match="kernel mass must be below 1"):
        find_w(k, 1.0)


# ---------------------------------------------------------------------------
# Renewal solver
# ---------------------------------------------------------------------------


def test_renewal_solver_tilted_oracle():
    # tilting by a sub-critical rate must reproduce the same solution
    k = RenewalKernel(EXP1, DIRAC1, 1.0)
    sol = solve_renewal(k, w_shift=0.5, grid_step=1e-3, horizon=10.0)
    ref = np.exp(-sol.grid)
    assert np.max(np.abs(sol.Z_tilted * np.exp(-0.5 * sol.grid) - ref)) <= 2e-3
    # the tilted solution exp(0.5 t) Z(t) stays bounded
    assert sol.C <= 1.0 + 1e-6


def test_renewal_solver_rejects_supercritical_tilt():
    k = RenewalKernel(EXP1, DIRAC1, 1.0)
    with pytest.raises(AssumptionError):
        solve_renewal(k, w_shift=1.5, horizon=2.0, grid_step=1e-2)


def test_renewal_solver_matches_forward_substitution():
    weibull = RenewalKernel(DistributionSpec.weibull(2.0, 1.0),
                            DistributionSpec.gamma(2.0, 0.1), 1.0)
    instances = [  # (kernel, w_shift)
        (RenewalKernel(EXP1, DIRAC1, 1.0), 0.0),
        (RenewalKernel(DistributionSpec.gamma(2.0, 0.5), DIRAC1, 1.0), 0.5),
        (weibull, 0.95 * find_w(weibull)),
    ]
    step = 0.01
    for kernel, shift in instances:
        # the quotient has n - 1 terms and 1/a half of them: at 1025 and 4097
        # points the Newton doublings end on that half, at 1026 and 4098 a
        # partial step follows; at 1500, 2431 and 3001 1/a ends on a partial
        # step to 750, 1215 and 1500 terms, and 1499 is an odd quotient length
        for n in (1, 2, 128, 129, 999, 1025, 1026, 1500, 2431, 3001, 4097, 4098):
            horizon = (n - 1) * step
            sol = solve_renewal(kernel, w_shift=shift, grid_step=step, horizon=horizon)
            ref = forward_substitution(kernel, shift, step, horizon)
            assert len(sol.grid) == len(ref) == n
            assert np.max(np.abs(sol.Z_tilted - ref)) <= 1e-12 * np.max(np.abs(ref))
            if kernel is weibull:
                assert sol.C == 1.0  # the tilted solution peaks at t = 0


@pytest.mark.parametrize("G, H", KERNEL_LAWS, ids=KERNEL_IDS)
def test_renewal_default_grid_reaches_its_tolerance(G, H):
    # the step-doubling grid, on the tilt and horizon the bound uses, gives
    # C within RENEWAL_TOL of a fixed-step solve four times finer
    kernel = RenewalKernel(G, H)
    shift = (1.0 - rates.W_EPS_FRAC) * find_w(kernel)
    horizon = 10.0 / shift
    sol = solve_renewal(kernel, w_shift=shift, horizon=horizon)
    cells = len(sol.grid) - 1
    assert cells >= 2048 and cells & (cells - 1) == 0 and sol.grid[-1] == horizon
    finer = solve_renewal(kernel, w_shift=shift, grid_step=horizon / cells / 4, horizon=horizon)
    assert len(finer.grid) == 4 * cells + 1
    assert sol.C == pytest.approx(finer.C, rel=RENEWAL_TOL, abs=0.0)


@pytest.mark.parametrize("G, H", KERNEL_LAWS, ids=KERNEL_IDS)
def test_renewal_constant_is_one_below_the_root(G, H):
    # below the Laplace root the tilted solution e^{ut} Z(t) never exceeds
    # Z'(0) = 1 (Lundberg's induction, in convergence_bounds' docstring), so
    # the bound takes C2' = 1 without a solve; the oracle's step-doubling
    # grid reads that maximum exactly, at t = 0, also near the root
    kernel = RenewalKernel(G, H)
    w = find_w(kernel)
    for tilt in (0.95, 0.999):
        shift = tilt * w
        sol = solve_renewal(kernel, w_shift=shift, horizon=10.0 / shift)
        assert sol.C == 1.0 and np.argmax(sol.Z_tilted) == 0, tilt
    report = convergence_bounds(UNIF01, G, H, 6.0)
    assert report.C_renewal == report.C2_prime == 1.0


def test_bound_rejects_a_tilt_past_the_root():
    # with Dirac(1e-10) rates the root is 1e-10, below find_w's first cell:
    # w = 4.7e-10 and the backed-off tilt 4.4e-10 still has psi_J > 1, where
    # C2' = 1 has no proof
    G, H = DistributionSpec.gamma(2.0, 0.5), DistributionSpec.dirac(1e-10)
    assert find_w(RenewalKernel(G, H)) > 1e-10 / (1.0 - rates.W_EPS_FRAC)
    with pytest.raises(AssumptionError, match="not below the Laplace root"):
        convergence_bounds(UNIF01, G, H, 6.0)


def test_renewal_solver_rejects_an_infinite_kernel_density():
    # gamma(0.5) waits, which no inter-arrival role checks here, have an
    # infinite density at 0: an AssumptionError, not a NaN C
    kernel = RenewalKernel(DistributionSpec.gamma(0.5, 2.0), DistributionSpec.gamma(2.0, 0.1))
    shift = 0.95 * find_w(kernel)
    with pytest.raises(AssumptionError, match="renewal solve"):
        solve_renewal(kernel, w_shift=shift, horizon=10.0 / shift)
    with pytest.raises(AssumptionError, match="renewal solve"):
        solve_renewal(kernel, w_shift=shift, grid_step=0.01, horizon=10.0)


def test_exponential_case_decay_values():
    # lam (1 - E[e^{-t Theta}] under Exp(lam) times): closed values
    def w(lam, H):
        return convergence_bounds(UNIF01, DistributionSpec.exponential(lam), H, 6.0).w

    assert w(1.0, DIRAC1) == pytest.approx(0.5, abs=1e-9)
    assert w(2.0, DIRAC1) == pytest.approx(2.0 * (1 - 2.0 / 3.0), abs=1e-9)
    assert w(1.0, DistributionSpec.dirac(2.0)) == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-9)


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
    # the other laws have no closed form; the jump coupling draws them by rejection
    for spec in (DistributionSpec.gamma(2.0, 1.0), DistributionSpec.weibull(1.5, 1.0)):
        with pytest.raises(DistributionError, match="no closed form"):
            eta(0.3, spec)


def test_eta_quadrature_matches_closed_forms():
    for spec in (UNIF01, EXP1, DistributionSpec.uniform(0.5, 2.0)):
        for e in np.linspace(0.01, 1.2, 40):
            assert eta_quad(e, spec) == pytest.approx(
                eta(e, spec), abs=1e-6
            )


def test_eta_envelope_box():
    C, v = eta_envelope(UNIF01)
    assert (C, v) == (1.0, 1.0)
    C, v = eta_envelope(DistributionSpec.uniform(0.0, 2.0))
    assert (C, v) == (0.5, 1.0)


def test_eta_envelope_holder_data():
    hd = HolderData(K=1.0, h=1.0, M=1.0)
    C, v = eta_envelope(UNIF01, holder=hd)
    assert (C, v) == (1.0, 1.0)
    # tail pair: C = K((C_tail/(p-1))^(1/(p-1)) + 1)/2 + 1, v = h - h/(p-1)
    tail = HolderData(K=1.0, h=1.0, C_tail=2.0, p_tail=3.0)
    assert eta_envelope(UNIF01, holder=tail) == tail.envelope() == (2.0, 0.5)
    with pytest.raises(AssumptionError, match="p_tail must be > 2"):
        HolderData(K=1.0, h=0.5, C_tail=1.0, p_tail=1.5)
    # data the envelope would not read is rejected, naming the missing key
    with pytest.raises(AssumptionError, match="p_tail is required with C_tail"):
        HolderData(K=1.0, h=1.0, C_tail=1.0)
    with pytest.raises(AssumptionError, match=r"M or the tail pair \(C_tail, p_tail\)"):
        HolderData(K=1.0, h=1.0)


def test_eta_envelope_dominates_quadrature():
    # eta(eps) <= C eps^v for gamma and Weibull laws of shape below, at and
    # above 1; below 1 the density decreases from +inf at 0, so eta(eps) is
    # F(eps) (quad warns on the singularity); the 1e-9 is quad's accuracy
    eps = np.geomspace(1e-3, 1.0, 60)
    for F in (DistributionSpec.gamma(2.0, 1.0), DistributionSpec.gamma(9.0, 0.1),
              DistributionSpec.gamma(1.0, 2.0), DistributionSpec.gamma(0.5, 1.0),
              DistributionSpec.weibull(1.5, 1.0), DistributionSpec.weibull(20.0, 20.0),
              DistributionSpec.weibull(1.0, 3.0), DistributionSpec.weibull(0.5, 2.0)):
        C, v = eta_envelope(F)
        ref = F.cdf(eps) if F.params[0] < 1.0 else np.array([eta_quad(e, F) for e in eps])
        assert np.all(ref <= C * eps**v * (1.0 + 1e-9)), F
    # the box and exponential envelopes are their densities' suprema
    assert eta_envelope(DistributionSpec.uniform(0.5, 2.0)) == (1.0 / 1.5, 1.0)
    assert eta_envelope(DistributionSpec.exponential(2.5)) == (2.5, 1.0)
    assert eta_envelope(DistributionSpec.shifted_exponential(1.0, 0.3)) == (0.3, 1.0)


# ---------------------------------------------------------------------------
# Age-coalescence parameters
# ---------------------------------------------------------------------------


def _rayleigh_profile():
    return hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))


def test_case_matching():
    # the regime is read from the profile
    assert age_bound(_rayleigh_profile(), (0.5, 1.0, 2.0)).case == "iii"  # unbounded hazard
    box = hazard_profile(DistributionSpec.uniform(0.0, 2.0))  # d = 2 finite
    assert age_bound(box, (0.5, 1.0, 1.8)).case == "i"
    shifted = hazard_profile(DistributionSpec.shifted_exponential(1.0, 1.0))
    assert age_bound(shifted, (0.75, 1.5, 3.0)).case == "ii"  # bounded hazard
    # a blow-up age d <= 3a/2 is rejected, with or without explicit parameters
    short = hazard_profile(DistributionSpec.uniform(1.0, 1.4))  # a = 1, d = 1.4
    for params in (None, (0.6, 1.1, 1.3)):
        with pytest.raises(AssumptionError, match="d > 3a/2"):
            age_bound(short, params)


def test_case_iii_reference_values():
    # linear hazard zeta(t) = t with eps=1/2, b=1, c=2
    bound = age_bound(_rayleigh_profile(), (0.5, 1.0, 2.0))
    p1, p2 = bound.p1, bound.p2
    # p1 = 1 - exp(-(eps - a/2) * zeta(eps + a/2)) = 1 - exp(-1/4)
    assert p1 == pytest.approx(1.0 - math.exp(-0.25), abs=1e-6)    # ~0.2212
    assert p2 == pytest.approx(0.5 * math.exp(-1.5) * (1.0 - math.exp(-0.5)), abs=1e-6)
    assert p2 == pytest.approx(0.0439, abs=2e-4)


def test_case_i_values_and_cap():
    # box inter-arrival on [0, 2]: hazard 1/(2-t), dead time a = 0
    box = hazard_profile(DistributionSpec.uniform(0.0, 2.0))
    eps, b, c = 0.5, 0.6, 1.5
    bound = age_bound(box, (eps, b, c))
    p1, p2 = bound.p1, bound.p2
    assert p1 == pytest.approx(1.0 - math.exp(-0.5 / 1.5))
    assert p2 == pytest.approx(
        math.exp(-0.6 / 0.9) * (1.0 - math.exp(-0.4 / 1.4))
    )
    # v1 = s_max/2 needs no cap in this regime: M(s) is already infinite
    # once (1 - p2) e^{2 eps s} >= 1 or (1 - p1 p2) e^{s(d - eps)} >= 1
    assert 0.5 * bound.abscissa() <= 0.5 * min(
        -math.log(1.0 - p2) / (2.0 * eps),
        -math.log(1.0 - p1 * p2) / (box.d - eps),
    )


def test_case_ii_shifted_exponential():
    # flat-after-delay hazard: the outer round always succeeds once the
    # waiting block lands, so p2 = zeta(b)/sup zeta = 1
    prof = hazard_profile(DistributionSpec.shifted_exponential(1.0, 2.0))
    bound = age_bound(prof, (0.75, 1.5, 3.0))
    assert bound.p1 == pytest.approx(math.exp(-1.5 * 2.0))
    assert bound.p2 == 1.0


def test_age_param_validation():
    ray = _rayleigh_profile()
    with pytest.raises(AssumptionError):
        age_bound(ray, (0.0, 1.0, 2.0))  # eps <= a/2
    with pytest.raises(AssumptionError):
        age_bound(ray, (0.5, 1.0, 1.2))  # c <= b + eps
    shifted = hazard_profile(DistributionSpec.shifted_exponential(1.0, 1.0))
    with pytest.raises(AssumptionError):
        age_bound(shifted, (0.4, 1.5, 3.0))  # eps <= a/2


def test_age_params_need_a_vanishing_hazard():
    # with a hazard bounded below no age bound is built, so (eps, b, c)
    # would be ignored; they are rejected by name instead
    for G in (EXP1, DistributionSpec.uniform(0.0, 2.0), DistributionSpec.gamma(1.0, 2.0)):
        assert hazard_profile(G).inf_zeta > 0.0
        with pytest.raises(AssumptionError, match="epsilon_age, b and c"):
            convergence_bounds(UNIF01, G, DIRAC1, 6.0, age_params=(5.0, 1.0, 2.0))
    r = convergence_bounds(UNIF01, DistributionSpec.weibull(2.0, math.sqrt(2.0)), DIRAC1, 6.0,
                           age_params=(0.5, 1.0, 2.0))
    assert (r.eps_age, r.b, r.c) == (0.5, 1.0, 2.0)


def test_default_age_params_satisfy_hypotheses():
    for spec, case in [
        (DistributionSpec.uniform(0.0, 2.0), "i"),
        (DistributionSpec.shifted_exponential(1.0, 2.0), "ii"),
        (DistributionSpec.weibull(2.0, math.sqrt(2.0)), "iii"),
        (DistributionSpec.gamma(2.0, 1.0), "ii"),  # hazard increases to 1/scale
    ]:
        bound = age_bound(hazard_profile(spec))
        assert bound.case == case
        assert 0.0 < bound.p1 <= 1.0 and 0.0 < bound.p2 <= 1.0


def test_bound_sampler_mean_matches_structure():
    # case ii: bound = sum over H outer rounds of (G_i blocks of b + Exp)
    # mean = (b + 1/zeta(b)) / (p1 * p2) by Wald's identity
    prof = hazard_profile(DistributionSpec.shifted_exponential(1.0, 2.0))
    bound = age_bound(prof, (0.75, 1.5, 3.0))
    rng = np.random.default_rng(0)
    s = age_bound_sample(bound, 200_000, rng)
    ref = (bound.b + 1.0 / prof.zeta(bound.b)) / (bound.p1 * bound.p2)
    se = s.std() / math.sqrt(len(s))
    assert s.mean() == pytest.approx(ref, abs=4.5 * se)


def _per_block_age_bound(bound, n, rng):
    """Oracle: the bound variable composed block by block, with one
    geometric count per round and one exponential wait per block."""
    eps, b, c, profile = bound.eps, bound.b, bound.c, bound.profile
    H = rng.geometric(bound.p2, size=n)
    G = rng.geometric(bound.p1, size=int(H.sum()))
    blocks = np.add.reduceat(G, np.concatenate([[0], np.cumsum(H)[:-1]]))
    if bound.case == "i":
        return c + (2.0 * H - 1.0) * eps + (profile.d - eps) * blocks
    rate = profile.zeta(b) if bound.case == "ii" else profile.zeta(c)
    E = rng.exponential(1.0 / rate, size=int(G.sum()))
    waits = np.add.reduceat(E, np.concatenate([[0], np.cumsum(blocks)[:-1]]))
    if bound.case == "ii":
        return b * blocks + waits
    return c - eps + 2.0 * eps * H + (c - eps) * blocks + waits


@pytest.mark.parametrize(
    "spec, case, eps, b, c",
    [
        (DistributionSpec.uniform(0.0, 2.0), "i", 0.8, 0.2, 1.8),
        (DistributionSpec.shifted_exponential(1.0, 2.0), "ii", 0.55, 1.1, 2.0),
        (DistributionSpec.weibull(2.0, math.sqrt(2.0)), "iii", 1.0, 0.6, 3.5),
        (DistributionSpec.gamma(2.0, 0.5), "ii", 0.2, 0.3, 1.25),  # zeta(b) < zeta(c)
    ],
)
def test_bound_sampler_matches_per_block_composition(spec, case, eps, b, c):
    # closed-form totals vs the block-by-block oracle: two-sample KS at
    # the 1 % level; the parameters keep the oracle near 1e6 draws
    bound = age_bound(hazard_profile(spec), (eps, b, c))
    assert bound.case == case
    n = 20_000
    tracemalloc.start()
    new = age_bound_sample(bound, n, np.random.default_rng(31))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    old = _per_block_age_bound(bound, n, np.random.default_rng(32))
    assert peak < 8 * new.nbytes  # a few arrays of length n, nothing per block
    ks = stats.ks_2samp(new, old).statistic
    assert ks < 1.63 * math.sqrt(2.0 / n)


# ---------------------------------------------------------------------------
# Age-coalescence tail: Chernoff bound from the closed-form MGF
# ---------------------------------------------------------------------------

# the default age bound of each regime on the inter-intake laws of the
# regression lock below, where p1 p2 is small and the blocks dominate T,
# and the tuned bounds of the sampler test above, where the constant
# terms of T weigh more
_TAIL_CASES = {
    "i": (DistributionSpec.uniform(0.5, 2.5), None),
    "ii": (DistributionSpec.shifted_exponential(1.0, 2.0), None),
    "ii-gamma": (DistributionSpec.gamma(2.0, 0.5), None),  # zeta(b) < zeta(c)
    "iii": (DistributionSpec.weibull(2.0, 1.0), None),
    "i-tuned": (DistributionSpec.uniform(0.0, 2.0), (0.8, 0.2, 1.8)),
    "iii-tuned": (DistributionSpec.weibull(2.0, math.sqrt(2.0)), (1.0, 0.6, 3.5)),
}
_N_TAIL = 10**6


@pytest.fixture(scope="module", params=list(_TAIL_CASES))
def tail_case(request):
    G, params = _TAIL_CASES[request.param]
    bound = age_bound(hazard_profile(G), params)
    assert bound.case == request.param.split("-")[0]
    C1, v1 = age_bound_tail(bound)
    return bound, C1, v1, np.sort(age_bound_sample(bound, _N_TAIL, np.random.default_rng(20140611)))


def test_chernoff_tail_dominates_sample(tail_case):
    # the empirical survival of 10^6 draws stays below B(t) = C1 exp(-v1 t)
    # on a grid up to the largest draw.  Where B < 1 and the true survival
    # is at most B, the empirical one has a standard deviation of at most
    # sqrt(B / n); the binomial slack is 5 of them.
    bound, C1, v1, sample = tail_case
    assert C1 >= 1.0 and v1 > 0.0
    grid = np.linspace(0.0, sample[-1], 200)
    survival = 1.0 - np.searchsorted(sample, grid, side="right") / len(sample)
    chernoff = C1 * np.exp(-v1 * grid)
    slack = 5.0 * np.sqrt(np.minimum(chernoff, 1.0) / len(sample))
    assert np.all(survival <= chernoff + slack)


def test_mgf_matches_sample_mean(tail_case):
    # C1 = M(v1) = E[exp(v1 T)] within 5 standard errors of the sample mean;
    # at v1 / 2, where exp(s T) has a finite variance, the standard error
    # is about 20 times smaller
    bound, C1, v1, sample = tail_case
    assert bound.mgf(v1) == C1
    for s in (v1, 0.5 * v1):
        e = np.exp(s * sample)
        assert bound.mgf(s) == pytest.approx(e.mean(), abs=5.0 * e.std() / math.sqrt(len(e)))


def test_mgf_abscissa(tail_case):
    # M is finite up to the bisected abscissa and +inf just above it; v1 is
    # half of it (the rate cap of regime i does not bind)
    bound, C1, v1, sample = tail_case
    s_max = bound.abscissa()
    assert 0.0 < s_max < W_CAP and v1 == 0.5 * s_max
    assert bound.mgf(0.0) == pytest.approx(1.0, rel=1e-12)
    assert math.isfinite(bound.mgf(s_max - W_TOL)) and math.isfinite(bound.mgf(s_max))
    assert bound.mgf(s_max + W_TOL) == math.inf
    assert bound.mgf(2.0 * W_CAP) == math.inf


_ABSCISSA_CASES = {
    **{name: lambda G=G, params=params: age_bound(hazard_profile(G), params)
       for name, (G, params) in _TAIL_CASES.items()},
    # below W_TOL: the abscissa is 0
    "zero": lambda: age_bound(hazard_profile(DistributionSpec.shifted_exponential(4.48, 4.96))),
    # no pole of phi_p1: exp(2 eps s) overflows first
    "no-block-pole": lambda: age_bound(hazard_profile(DistributionSpec.uniform(0.0, 1000.0)),
                                       (990.0, 1.0, 995.0)),
    # M finite up to W_CAP: the search ends capped there
    "capped": lambda: AgeBound(hazard_profile(DistributionSpec.shifted_exponential(0.1, 100.0)),
                               "ii", 0.2, 0.5, 1.0, 1.0, 1.0),
}


@pytest.mark.parametrize("case", list(_ABSCISSA_CASES))
def test_abscissa_has_the_bits_of_bisection(case):
    # the cell search bisects a value that is -1 or +inf, and ends on the
    # lower end of the bracket plain bisection closes to
    bound = _ABSCISSA_CASES[case]()
    assert bound.abscissa() == bisected_abscissa(bound)


def test_age_rate_too_small_to_split_phases():
    # shifted_exponential(4.48, 4.96) waits: p1 = exp(-b sup zeta) = 2e-15,
    # so M is finite only below about 1e-16 and no rate separates alpha
    # from beta; the error names the age-coalescence rate
    G = DistributionSpec.shifted_exponential(4.48, 4.96)
    bound = age_bound(hazard_profile(G))
    assert bound.p1 < 1e-14 and bound.abscissa() == 0.0
    with pytest.raises(AssumptionError, match="age-coalescence rate"):
        convergence_bounds(UNIF01, G, DIRAC1, 6.0)


def test_abscissa_search_without_block_pole():
    # uniform(0, 1000) waits with eps = 990: (eps - a/2) zeta(eps + a/2) = 99,
    # so p1 rounds to 1 and phi_p1 has no pole, while exp(2 eps s) alone
    # overflows a float from s = 0.36 on
    bound = age_bound(hazard_profile(DistributionSpec.uniform(0.0, 1000.0)),
                      (990.0, 1.0, 995.0))
    assert bound.p1 == 1.0
    assert bound.mgf(1.0) == math.inf and bound.mgf(W_CAP) == math.inf
    # M(s) = e^{s(c - eps)} phi_p2(e^{s(eps + d)}) has its pole at
    # -log(1 - p2) / (eps + d)
    s_max = bound.abscissa()
    assert s_max == pytest.approx(-math.log1p(-bound.p2) / 1990.0, abs=W_TOL)
    C1, v1 = age_bound_tail(bound)
    assert v1 == 0.5 * s_max and 1.0 <= C1 < math.inf
    # p1 = p2 = 1 leaves T = b + Exp(zeta(b)), zeta(b) = 100 > W_CAP: M stays
    # finite up to W_CAP and the search ends capped there
    prof = hazard_profile(DistributionSpec.shifted_exponential(0.1, 100.0))
    sure = AgeBound(prof, "ii", 0.2, 0.5, 1.0, 1.0, 1.0)
    assert sure.abscissa() == W_CAP
    C1, v1 = age_bound_tail(sure)
    assert v1 == 0.5 * W_CAP
    assert C1 == pytest.approx(math.exp(0.5 * v1) * 100.0 / (100.0 - v1), rel=1e-12)
    # with b = 30, C1 = E[exp(32 T)] > e^960 is no float
    with pytest.raises(AssumptionError, match="overflows"):
        age_bound_tail(AgeBound(prof, "ii", 0.2, 30.0, 31.0, 1.0, 1.0))


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
    # half a split is rejected, naming the missing fraction
    with pytest.raises(AssumptionError, match="beta is required"):
        _reference_bounds(alpha=0.3)
    with pytest.raises(AssumptionError, match="alpha is required"):
        _reference_bounds(beta=0.7)

# convergence_bounds(uniform(0, 1), G, dirac(1), 6.0).to_dict() at the
# default numerics, one inter-intake law G per regime: a positive hazard
# floor (no age bound), a finite blow-up age (case i), two bounded hazards
# (case ii) and an unbounded hazard (case iii).  C1, v1, alpha, beta and
# C1_w1 of the last four come from the closed-form age tail.
_LOCK_KEYS = [
    "p", "w", "v_G", "rho", "q", "case", "p1", "p2", "eps_age", "b", "c", "C_renewal",
    "eta_C", "eta_v", "C1", "v1", "C2_prime", "v2_prime", "C2", "v2", "C3", "v3", "C4",
    "v4", "v_prime", "alpha", "beta", "C1_w1", "C2_w1",
]
_LOCK_LAWS = [
    (DistributionSpec.exponential(1.0), (
        1.0, 0.5, 1.0, 0.5, 0.5, None, None, None, None, None, None, 1.0, 1.0, 1.0, 1.0,
        1.0, 1.0, 0.5, 20.0, 0.25, 2.0, 0.5, 1.0, 0.25, 0.25, 0.14285714285714285,
        0.7142857142857142, 24.0, 20.0,
    )),
    (DistributionSpec.uniform(0.5, 2.5), (
        1.0, 0.9999999995343387, math.inf, 0.7377771694556328, 0.2622228305443673, "i",
        0.24421625854427453, 0.08364867327169213, 0.6875, 0.9375, 2.0625, 1.0, 1.0, 1.0,
        2.0334731992027932, 0.004849044140428305, 1.0, 0.9499999995576217, 30.236725654834004,
        0.47499999977881086, 29.736467017361807, 1.8999999991152434, 1.0,
        0.47499999977881086, 0.47499999977881086, 0.9874001398301809, 0.9974800279660362,
        71.65293724676644, 30.236725654834004,
    )),
    (DistributionSpec.shifted_exponential(1.0, 2.0), (
        1.0, 0.9999999995343387, 2.0, 0.7547470392190384, 0.24525296078096157, "ii",
        0.0301973834223185, 1.0, 0.875, 1.75, 3.375, 1.0, 1.0, 1.0, 2.0146767411721824,
        0.006808761972934008, 1.0, 0.9499999995576217, 31.789483687504095,
        0.47499999977881086, 5.43656365691809, 1.0, 1.0, 0.47499999977881086,
        0.47499999977881086, 0.9792947728579905, 0.9933322149902715, 74.11891710494791,
        31.789483687504095,
    )),
    (DistributionSpec.gamma(2.0, 0.5), (
        1.0, 0.9999999995343387, 2.0, 0.5555555555555556, 0.4444444444444444, "ii",
        0.36787944117144233, 0.49999999999999994, 0.25, 0.5, 1.25, 1.0, 1.0, 1.0,
        2.0558965139944383, 0.06469830311834812, 1.0, 0.9499999995576217, 21.3,
        0.47499999977881086, 4.0, 1.0, 1.0, 0.47499999977881086, 0.47499999977881086,
        0.8327051564435972, 0.9461253893802006, 52.01418180405929, 21.3,
    )),
    (DistributionSpec.weibull(2.0, 1.0), (
        1.0, 0.9999999995343387, math.inf, 0.5456413607650468, 0.45435863923495323, "iii",
        0.09350953781417137, 0.07207966850211824, 0.2215567313631895, 0.443113462726379,
        1.1077836568159476, 1.0, 1.0, 1.0, 2.0093527824999367, 0.0024559912271797657, 1.0,
        0.9499999995576217, 21.03813298852108, 0.47499999977881086, 8.560198776324878,
        1.8999999991152434, 1.0, 0.47499999977881086, 0.47499999977881086,
        0.9935783690551282, 0.9987156738110257, 49.85322170125816, 21.03813298852108,
    )),
]


@pytest.mark.parametrize("G, values", _LOCK_LAWS, ids=[G.family.value for G, _ in _LOCK_LAWS])
def test_bounds_regression_lock(G, values):
    _assert_locked(convergence_bounds(UNIF01, G, DIRAC1, 6.0).to_dict(), values)


def _assert_locked(report, values):
    assert list(report) == _LOCK_KEYS
    for key, want in zip(_LOCK_KEYS, values):
        if isinstance(want, float):
            assert report[key] == pytest.approx(want, rel=1e-12, abs=0.0), key
        else:
            assert report[key] == want, key


def test_bounds_quadrature_psi_lock():
    # gamma metabolic rates take psi through quadrature rather than the
    # closed-form Laplace transform of the Dirac laws above; the values
    # predate the log j memo of RenewalKernel.psi and the middle-product
    # renewal solve
    report = convergence_bounds(UNIF01, DistributionSpec.weibull(2.0, 1.0),
                                DistributionSpec.gamma(2.0, 0.1), 6.0).to_dict()
    _assert_locked(report, (
        1.0, 0.18960548238828778, math.inf, 0.15172771173426258, 0.8482722882657374, "iii",
        0.09350953781417137, 0.07207966850211824, 0.2215567313631895, 0.443113462726379,
        1.1077836568159476, 1.0, 1.0, 1.0, 2.0093527824999367, 0.0024559912271797657, 1.0,
        0.18012520826887338, 19.66395437950127, 0.09006260413443669, 2.7302344337037, 1.0,
        1.0, 0.09006260413443669, 0.09006260413443669, 0.9711323020990359,
        0.9976149075856139, 43.877047637572396, 19.66395437950127,
    ))


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
    assert meta["eta_envelope_constant"] == hd.envelope()[0] == 1.0
    # both curves are valid TV bounds and method 2 wins eventually
    for t in (0.0, 1.0, 5.0):
        assert 0.0 <= m1(t) <= 1.0
        assert 0.0 <= m2(t) <= 1.0
    assert m2(200.0) < m1(200.0)
    with pytest.raises(AssumptionError):
        exp_case_bounds(1.0, DIRAC1, HolderData(K=1.0, h=1.0, C_tail=1.0, p_tail=3.0),
                        6.0, 4.0, 0.5)
