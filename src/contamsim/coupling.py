"""Coupled simulation of two contaminant processes.

The age pair follows the competing-risk scheme of the coupled-age
generator: the next event is generated with the elder's hazard, and at
the event a Bernoulli draw with probability zeta(younger)/zeta(elder)
decides whether the jump is common (both ages reset) or lone (only the
elder resets).  Because the hazard is non-decreasing, the younger
process never jumps alone; once a common jump occurs, every later jump
is simultaneous and the pair shares intakes and metabolic rates, which
makes the quantity gap decay deterministically.

The "TV" jump coupling additionally lands both quantities on the same
point with the maximal probability 1 - eta(gap), which is what turns
closeness into exact coalescence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, HazardProfile, hazard_profile
from .errors import AssumptionError, ContamsimError, NoDensityError
from .pdmp import ProcessState
from . import rates

__all__ = [
    "CoupledState",
    "CouplingReport",
    "CouplingPhaseParams",
    "CoupledTrajectory",
    "simulate_coupled_full",
    "tv_jump_coupling",
    "run_three_phase",
]

_MAX_REJECTIONS = 10**7


@dataclass
class CoupledState:
    y: ProcessState
    y_tilde: ProcessState
    ages_merged: bool = False
    fully_merged: bool = False


@dataclass
class CouplingReport:
    """Outcome of one coupled run; infinite times mean "not within horizon"."""

    tau_A: float = math.inf
    tau: float = math.inf
    n_events: int = 0
    phase_outcomes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CouplingPhaseParams:
    """Tuning of the three-phase coupling.

    ``alpha`` and ``beta`` are the phase-boundary fractions of the
    horizon, ``epsilon_tv`` the closeness threshold entering phase 3.
    """

    alpha: float
    beta: float
    epsilon_tv: float

    def __post_init__(self):
        if not 0.0 < self.alpha < self.beta < 1.0:
            raise AssumptionError("phase fractions must satisfy 0 < alpha < beta < 1")
        if not 0.0 < self.epsilon_tv < 1.0:
            raise AssumptionError("closeness threshold must lie in (0, 1)")


# ---------------------------------------------------------------------------
# Maximal jump coupling
# ---------------------------------------------------------------------------


def tv_jump_coupling(
    x_minus: float,
    x_tilde_minus: float,
    F: DistributionSpec,
    rng: np.random.Generator,
) -> tuple[float, float, bool]:
    """Couple the two post-jump quantities with maximal merge probability.

    Marginally each quantity gains an intake drawn from F; the landing
    points coincide with probability 1 - eta(|gap|).  Sampling is by
    composition: the overlap component and the two residual components
    are drawn by rejection against F itself.
    """
    if not F.has_density:
        raise NoDensityError("the jump coupling needs an intake law with a density")
    delta = x_tilde_minus - x_minus
    if delta == 0.0:
        u = F.sample(rng)
        return x_minus + u, x_minus + u, True
    p_merge = 1.0 - rates.eta(abs(delta), F)
    f = F.density
    if rng.random() < p_merge:
        v = _rejection_draw(F, lambda v, fv: min(fv, f(v - delta)), rng)
        return x_minus + v, x_minus + v, True
    u = _rejection_draw(F, lambda v, fv: fv - min(fv, f(v - delta)), rng)
    u_tilde = _rejection_draw(F, lambda v, fv: fv - min(fv, f(v + delta)), rng)
    return x_minus + u, x_tilde_minus + u_tilde, False


def _rejection_draw(F: DistributionSpec, target, rng: np.random.Generator) -> float:
    """Draw from the density prop. to ``target(v, f(v))`` <= f(v), proposing from F."""
    f = F.density
    for _ in range(_MAX_REJECTIONS):
        v = F.sample(rng)
        fv = f(v)
        if fv > 0.0 and rng.random() * fv <= target(v, fv):
            return v
    raise ContamsimError(
        f"jump-coupling rejection sampler accepted none of {_MAX_REJECTIONS} proposals"
    )


# ---------------------------------------------------------------------------
# Full coupled process
# ---------------------------------------------------------------------------


@dataclass
class CoupledTrajectory:
    snapshot_times: list
    snapshots: list  # CoupledState at each requested time
    final: CoupledState


def simulate_coupled_full(
    init: ProcessState,
    init_tilde: ProcessState,
    F: DistributionSpec,
    G: DistributionSpec | HazardProfile,
    H: DistributionSpec,
    horizon: float,
    rng: np.random.Generator,
    tv_from: float = math.inf,
    record_times: tuple = (),
    stop_at_merge: bool = False,
) -> tuple[CouplingReport, CoupledTrajectory]:
    """Simulate the coupled pair (Y, Y~) up to the horizon.

    Each component alone is a contaminant process for (F, G, H).  Common
    jumps share the intake and the new metabolic rate; from ``tv_from``
    on, common jumps instead use :func:`tv_jump_coupling`, which is what
    can produce full coalescence.  With ``stop_at_merge`` the run ends at
    the first common jump (the age-coalescence time ``tau_A``), and the
    final state is the one just after that jump.  Point-mass intake and
    rate laws draw nothing, so with them the run consumes the generator
    exactly as the age pair alone does.
    """
    init.validate()
    init_tilde.validate()
    profile = G if isinstance(G, HazardProfile) else hazard_profile(G)
    x, th, ag = init.x, init.theta, init.age
    xt, tht, agt = init_tilde.x, init_tilde.theta, init_tilde.age
    t = 0.0
    tau_A = math.inf
    tau = math.inf
    n_events = 0
    ages_merged = ag == agt
    if ages_merged:
        tau_A = 0.0
        if stop_at_merge:
            horizon = 0.0
    fully_merged = ages_merged and x == xt and th == tht
    if fully_merged:
        tau = 0.0
    attempt_time = math.inf
    attempt_success = False

    rec = sorted(record_times)
    rec_idx = 0
    snap_times: list = []
    snaps: list = []

    def record_up_to(limit: float):
        nonlocal rec_idx
        while rec_idx < len(rec) and rec[rec_idx] < limit:
            r = rec[rec_idx]
            dt = r - t
            snap_times.append(r)
            snaps.append(
                CoupledState(
                    ProcessState(x * math.exp(-th * dt), th, ag + dt, r),
                    ProcessState(xt * math.exp(-tht * dt), tht, agt + dt, r),
                    ages_merged,
                    fully_merged,
                )
            )
            rec_idx += 1

    inverse = profile.inverse
    zeta = profile.zeta
    while True:
        elder, younger = (ag, agt) if ag > agt else (agt, ag)
        s = inverse(elder, rng.exponential())
        tev = t + s
        if tev > horizon:
            break
        record_up_to(tev)
        x *= math.exp(-th * s)
        xt *= math.exp(-tht * s)
        t = tev
        n_events += 1
        # the uniform is drawn only while the ages differ
        if ages_merged or rng.random() * zeta(elder + s) < zeta(younger + s):
            ag = agt = 0.0
            thn = H.sample(rng)
            if fully_merged:
                x += F.sample(rng)
                xt = x
            elif tev >= tv_from:
                x, xt, ok = tv_jump_coupling(x, xt, F, rng)
                if attempt_time == math.inf:
                    attempt_time = tev
                    attempt_success = ok
                if ok:
                    fully_merged = True
                    tau = tev
            else:
                u = F.sample(rng)
                x += u
                xt += u
                if x == xt:
                    fully_merged = True
                    tau = tev
            th = tht = thn
            if not ages_merged:
                ages_merged = True
                tau_A = tev
                if stop_at_merge:
                    horizon = tev
                    break
        else:
            u = F.sample(rng)
            thn = H.sample(rng)
            if ag > agt:
                ag, agt = 0.0, younger + s
                x += u
                th = thn
            else:
                ag, agt = younger + s, 0.0
                xt += u
                tht = thn

    record_up_to(horizon * (1.0 + 1e-15) if horizon in rec else horizon)
    dt = horizon - t
    final = CoupledState(
        ProcessState(x * math.exp(-th * dt), th, ag + dt, horizon),
        ProcessState(xt * math.exp(-tht * dt), tht, agt + dt, horizon),
        ages_merged,
        fully_merged,
    )
    report = CouplingReport(
        tau_A=tau_A,
        tau=tau,
        n_events=n_events,
        phase_outcomes={
            "tv_attempt_time": attempt_time,
            "tv_first_attempt_merged": attempt_success,
        },
    )
    return report, CoupledTrajectory(snap_times, snaps, final)


def run_three_phase(
    init: ProcessState,
    init_tilde: ProcessState,
    params: CouplingPhaseParams,
    F: DistributionSpec,
    G: DistributionSpec | HazardProfile,
    H: DistributionSpec,
    horizon: float,
    rng: np.random.Generator,
) -> CouplingReport:
    """Run the three-phase coupling for one horizon and report the tree.

    Phase boundaries are alpha*horizon and beta*horizon; from the second
    boundary on, common jumps use the maximal jump coupling.  The report
    carries the four tree outcomes and bounds the total variation at the
    horizon through the indicator of non-coalescence.
    """
    beta_t = params.beta * horizon
    report, traj = simulate_coupled_full(
        init,
        init_tilde,
        F,
        G,
        H,
        horizon,
        rng,
        tv_from=beta_t,
        record_times=(beta_t,),
    )
    gap_at_beta = math.inf
    for r, st in zip(traj.snapshot_times, traj.snapshots):
        if r == beta_t:
            gap_at_beta = abs(st.y.x - st.y_tilde.x)
    attempt_time = report.phase_outcomes.get("tv_attempt_time", math.inf)
    fy, fyt = traj.final.y, traj.final.y_tilde
    l1_final = (
        abs(fy.x - fyt.x) + abs(fy.theta - fyt.theta) + abs(fy.age - fyt.age)
    )
    report.phase_outcomes = {
        "age_merge_by_alpha": report.tau_A <= params.alpha * horizon,
        "close_at_beta": gap_at_beta < params.epsilon_tv,
        "jump_by_horizon": attempt_time <= horizon,
        "merged_at_first_attempt": report.phase_outcomes.get(
            "tv_first_attempt_merged", False
        ),
        "gap_at_beta": gap_at_beta,
        "tv_attempt_time": attempt_time,
        "l1_final": l1_final,
    }
    return report
