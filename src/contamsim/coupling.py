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

from .distributions import DistributionSpec, Family, HazardProfile, hazard_profile
from .errors import AssumptionError, ContamsimError, NoDensityError
from .pdmp import EventLog, ProcessState
from . import rates

__all__ = [
    "BlockStreams",
    "CouplingReport",
    "simulate_coupled",
    "tv_jump_coupling",
    "run_three_phase",
]

_MAX_REJECTIONS = 10**7


@dataclass
class CouplingReport:
    """Outcome of a batch of coupled runs, one entry per run; infinite
    times mean "not within the horizon"."""

    tau_A: np.ndarray  # first common jump: the ages coalesce
    tau: np.ndarray  # full coalescence
    log: EventLog  # events of each pair; recorded, the jumps of Y
    tv_attempt_time: np.ndarray  # first maximal-coupling attempt
    tv_first_attempt_merged: np.ndarray
    gap: np.ndarray  # |X - X~| at tv_from
    y: ProcessState  # the states at the end of each run
    y_tilde: ProcessState
    phase_outcomes: dict = field(default_factory=dict)

    @property
    def n_events(self) -> int:
        """The events of all runs together."""
        return self.log.n_events()


class BlockStreams:
    """The random streams of several replica blocks that share one batch.

    ``gens[b]`` is the generator of block b and ``block[i]`` the block of
    column i; the columns of a block are contiguous and in block order.
    A draw for the columns is split by block, and each block's share comes
    from its own generator, in column order.  So when a batch draws only
    through views :meth:`at` makes from ascending columns, every block
    gets exactly the draws it would get in a batch of its own (a block
    with no share draws nothing, as a draw of size 0 would).  One
    generator is one stream: ``at`` returns the object itself and the
    draws go straight to the generator.
    """

    def __init__(self, gens, block: np.ndarray | None = None):
        self.gens = list(gens)
        self.block = block if len(self.gens) > 1 else None

    @classmethod
    def of(cls, rng) -> "BlockStreams":
        """``rng`` itself, or a plain generator as one stream."""
        return rng if isinstance(rng, cls) else cls([rng])

    def at(self, cols) -> "BlockStreams":
        """The streams of the columns ``cols`` (ascending indices or a mask)."""
        return self if self.block is None else BlockStreams(self.gens, self.block[cols])

    def _draw(self, method: str, size, *params) -> np.ndarray:
        if self.block is None:
            return getattr(self.gens[0], method)(*params, size=size)
        n = self.block.size
        if size != n and size != (n,):
            raise ValueError(f"a draw for {n} columns must have size {n}, not {size}")
        edges = [0, *np.searchsorted(self.block, range(1, len(self.gens))).tolist(), n]
        out = np.empty(n)
        for gen, lo, hi in zip(self.gens, edges, edges[1:]):
            if hi > lo:
                out[lo:hi] = getattr(gen, method)(*params, size=hi - lo)
        return out

    def random(self, size=None):
        return self._draw("random", size)

    def exponential(self, scale=1.0, size=None):
        return self._draw("exponential", size, scale)

    def gamma(self, shape, scale=1.0, size=None):
        return self._draw("gamma", size, shape, scale)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._draw("uniform", size, low, high)

    def weibull(self, a, size=None):
        return self._draw("weibull", size, a)


# ---------------------------------------------------------------------------
# Maximal jump coupling
# ---------------------------------------------------------------------------


def tv_jump_coupling(
    x_minus: np.ndarray,
    x_tilde_minus: np.ndarray,
    F: DistributionSpec,
    rng: np.random.Generator | BlockStreams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Couple the post-jump quantities of pairs with maximal merge probability.

    ``x_minus`` and ``x_tilde_minus`` hold one pre-jump pair per entry.
    Marginally each quantity gains an intake drawn from F; the landing
    points of a pair coincide with probability 1 - eta(|gap|).  The box
    and (shifted) exponential intakes draw by composition, each component
    in closed form: the overlap, or else the two residuals.  The other
    laws draw by rejection against F.  Returns the post-jump quantities
    and whether each pair merged.  With :class:`BlockStreams` each pair
    draws from the stream of its block.
    """
    if not F.has_density:
        raise NoDensityError("the jump coupling needs an intake law with a density")
    rng = BlockStreams.of(rng)
    x = np.asarray(x_minus, dtype=float)
    x_tilde = np.asarray(x_tilde_minus, dtype=float)
    if F.family in (Family.GAMMA, Family.WEIBULL):
        return _rejection_coupling(x, x_tilde, F, rng)
    delta = x_tilde - x
    merged = rng.random(delta.shape) < 1.0 - rates.eta(delta, F)
    apart = ~merged
    u = np.empty(delta.shape)
    u[merged] = _overlap(F, delta[merged], rng.at(merged))
    rng_apart = rng.at(apart)
    u[apart] = _residual(F, delta[apart], rng_apart)
    x_new = x + u
    x_tilde_new = x_new.copy()
    x_tilde_new[apart] = x_tilde[apart] + _residual(F, -delta[apart], rng_apart)
    return x_new, x_tilde_new, merged


def _overlap(F: DistributionSpec, delta: np.ndarray, rng: BlockStreams) -> np.ndarray:
    """Intakes v of Y in merging pairs: density prop. to min(f(v), f(v - delta)),
    where delta is the gap x~ - x."""
    if F.family is Family.UNIFORM:
        lo, hi = F.params
        return lo + np.maximum(delta, 0.0) + (hi - lo - np.abs(delta)) * rng.random(delta.size)
    # both land at max(x, x~) + shift + Exp(rate)
    shift, rate = F.support()[0], F.params[-1]
    return shift + np.maximum(delta, 0.0) + rng.exponential(1.0 / rate, delta.size)


def _residual(F: DistributionSpec, delta: np.ndarray, rng: BlockStreams) -> np.ndarray:
    """Intakes v of Y in pairs that do not merge: density prop. to
    f(v) - min(f(v), f(v - delta)); Y~'s are the same law at -delta."""
    if F.family is Family.UNIFORM:
        # the part of [lo, hi] that the shifted box leaves uncovered
        lo, hi = F.params
        d = np.minimum(np.abs(delta), hi - lo) * rng.random(delta.size)
        return np.where(delta >= 0.0, lo + d, hi - d)
    # behind (delta > 0): F cut to [shift, shift + delta); ahead: F itself
    shift, rate = F.support()[0], F.params[-1]
    mass = np.where(delta > 0.0, -np.expm1(-rate * np.maximum(delta, 0.0)), 1.0)
    return shift - np.log1p(-mass * rng.random(delta.size)) / rate


def _rejection_coupling(x, x_tilde, F: DistributionSpec, rng: BlockStreams) -> tuple:
    """The maximal coupling by rejection (Thorisson, "Coupling,
    Stationarity, and Regeneration", Springer 2000): Y's intake v ~ F
    lands Y~ on the same point with probability min(1, f(v - delta)/f(v));
    the Y~ of a pair that does not merge proposes intakes w ~ F until
    U f(w) > f(w + delta).  A pair needs one round on average, and eta
    is never computed."""
    f, delta = F.density, x_tilde - x
    v = F.sample(rng, x.size)
    merged = rng.random(x.size) * f(v) <= f(v - delta)
    x_new = x + v
    x_tilde_new = x_new.copy()
    todo = np.flatnonzero(~merged)
    for _ in range(_MAX_REJECTIONS):
        if not todo.size:
            break
        rng_todo = rng.at(todo)
        w = F.sample(rng_todo, todo.size)
        ok = rng_todo.random(todo.size) * f(w) > f(w + delta[todo])
        x_tilde_new[todo[ok]] = x_tilde[todo[ok]] + w[ok]
        todo = todo[~ok]
    if todo.size:
        raise ContamsimError(
            f"jump-coupling rejection sampler accepted no proposal for {todo.size} "
            f"pairs in {_MAX_REJECTIONS} rounds"
        )
    return x_new, x_tilde_new, merged


# ---------------------------------------------------------------------------
# The coupled kernel
# ---------------------------------------------------------------------------


def simulate_coupled(
    init: ProcessState,
    init_tilde: ProcessState,
    F: DistributionSpec,
    G: DistributionSpec | HazardProfile,
    H: DistributionSpec,
    horizon: float | np.ndarray,
    rng: np.random.Generator | BlockStreams,
    tv_from: float | np.ndarray = math.inf,
    stop_at_merge: bool = False,
    record: bool = False,
) -> CouplingReport:
    """Simulate coupled pairs (Y, Y~) up to the horizon, one pair per
    entry of the initial states.

    Each component alone is a contaminant process for (F, G, H).  Common
    jumps share the intake and the new metabolic rate; from ``tv_from``
    on, common jumps instead use :func:`tv_jump_coupling`, which is what
    can produce full coalescence.  ``horizon`` and ``tv_from`` are one
    time for every pair or one per pair; a float gives the same draws as
    an array of it.  The report's ``gap`` is |X - X~| at the pair's
    ``tv_from`` (infinite if that lies past its horizon).  With
    ``stop_at_merge`` a run ends at its first common jump (the
    age-coalescence time ``tau_A``), in the state just after that jump.
    With ``record`` the log keeps every jump of Y.

    The pairs move in lockstep: each step draws, one array per law, the
    next event of every pair still running.  Point-mass intake and rate
    laws draw nothing, so with them only the age pairs use the stream.
    With :class:`BlockStreams` for ``rng`` each pair draws from the
    stream of its block, and the pairs of a block get the draws they
    would get in a call of their own.
    """
    init.validate()
    init_tilde.validate()
    rng = BlockStreams.of(rng)  # the streams of the columns, compacted with them
    profile = G if isinstance(G, HazardProfile) else hazard_profile(G)
    start = (init.x, init.theta, init.age, init_tilde.x, init_tilde.theta, init_tilde.age)
    n = max(np.size(v) for v in (*start, horizon, tv_from))
    # rows: x, theta, age, x~, theta~, age~, the time of the last event,
    # the horizon and tv_from; one column per pair still running
    S = np.zeros((9, n))
    for row, v in enumerate(start):
        S[row] = v
    S[7], S[8] = horizon, tv_from
    gaps = bool(np.any(S[8] <= S[7]))
    ages_met = S[2] == S[5]
    met = ages_met & (S[0] == S[3]) & (S[1] == S[4])
    tau_A = np.where(ages_met, 0.0, math.inf)
    tau = np.where(met, 0.0, math.inf)
    events = np.zeros(n, dtype=np.int64)
    attempt = np.full(n, math.inf)
    attempt_ok = np.zeros(n, dtype=bool)
    gap = np.full(n, math.inf)
    final = np.empty((7, n))
    run = np.arange(n)  # the pair of each column
    jumps = []  # with record: (run, time, intake, theta) of Y's jumps, per step

    def retire(done, at_horizon=True):
        """Write the states of the columns ``done`` at their horizons (else
        at their last event), end their runs and return the indices of
        the columns that go on."""
        nonlocal S, ages_met, met, run, rng
        gone, keep = np.flatnonzero(done), np.flatnonzero(~done)
        x, th, ag, xt, tht, agt, t, hor, _ = S.take(gone, axis=1)
        end = hor if at_horizon else t
        dt = end - t
        final[:, run.take(gone)] = (
            x * np.exp(-th * dt), th, ag + dt, xt * np.exp(-tht * dt), tht, agt + dt, end
        )
        S, ages_met = S.take(keep, axis=1), ages_met.take(keep)
        met, run = met.take(keep), run.take(keep)
        rng = rng.at(keep)
        return keep

    if stop_at_merge:
        retire(ages_met.copy(), at_horizon=False)
    step = 0
    while run.size:
        x, th, ag, xt, tht, agt, t, hor, tvf = S
        elder = np.maximum(ag, agt)
        s = profile.inverse(elder, rng.exponential(size=run.size))
        tev = t + s
        if gaps:
            seen = (t <= tvf) & (tvf < tev) & (tvf <= hor)
            dt = tvf[seen] - t[seen]
            gap[run[seen]] = np.abs(
                x[seen] * np.exp(-th[seen] * dt) - xt[seen] * np.exp(-tht[seen] * dt)
            )
        out = tev > hor
        if out.any():
            events[run[out]] = step
            keep = retire(out)
            s, tev, elder = s.take(keep), tev.take(keep), elder.take(keep)
            if not run.size:
                break
            x, th, ag, xt, tht, agt, t, hor, tvf = S
        step += 1
        younger = np.minimum(ag, agt)
        x *= np.exp(-th * s)
        xt *= np.exp(-tht * s)
        t[:] = tev
        before = x.copy() if record else None
        # the event has the elder's hazard; it is common with probability
        # zeta(younger)/zeta(elder), drawn only while the ages differ
        common = ages_met.copy()
        apart = np.flatnonzero(~ages_met)
        if apart.size:
            e, y = elder[apart] + s[apart], younger[apart] + s[apart]
            common[apart] = rng.at(apart).random(apart.size) * profile.zeta(e) < profile.zeta(y)
        # a lone jump is the elder's
        y_jumps = common | (ag > agt) if record else None

        c = np.flatnonzero(common)
        theta_new = H.sample(rng.at(c), c.size)
        fused, unmet = c[met[c]], c[~met[c]]
        if fused.size:
            x[fused] += F.sample(rng.at(fused), fused.size)
            xt[fused] = x[fused]
        if unmet.size:
            late = tev[unmet] >= tvf[unmet]
            shared, tv = unmet[~late], unmet[late]
            u = F.sample(rng.at(shared), shared.size)
            x[shared] += u
            xt[shared] += u
            won = shared[x[shared] == xt[shared]]
            if tv.size:
                x[tv], xt[tv], ok = tv_jump_coupling(x[tv], xt[tv], F, rng.at(tv))
                first = np.isinf(attempt[run[tv]])
                attempt[run[tv[first]]] = tev[tv[first]]
                attempt_ok[run[tv[first]]] = ok[first]
                won = np.concatenate([won, tv[ok]])
            met[won] = True
            tau[run[won]] = tev[won]
        th[c] = tht[c] = theta_new
        ag[c] = agt[c] = 0.0
        fresh = common & ~ages_met
        ages_met |= common
        tau_A[run[fresh]] = tev[fresh]

        lone = np.flatnonzero(~common)
        if lone.size:
            rng_lone = rng.at(lone)
            u, theta_new = F.sample(rng_lone, lone.size), H.sample(rng_lone, lone.size)
            y_elder = ag[lone] > agt[lone]
            a, b = lone[y_elder], lone[~y_elder]
            agt[a], ag[a] = younger[a] + s[a], 0.0
            x[a] += u[y_elder]
            th[a] = theta_new[y_elder]
            ag[b], agt[b] = younger[b] + s[b], 0.0
            xt[b] += u[~y_elder]
            tht[b] = theta_new[~y_elder]
        if record:
            j = np.flatnonzero(y_jumps)
            jumps.append((run[j], t[j], x[j] - before[j], th[j]))
        if stop_at_merge and fresh.any():
            events[run[fresh]] = step
            retire(fresh, at_horizon=False)

    log = EventLog(events)
    if record:
        cols = [np.concatenate(c) for c in zip(*jumps)] or [np.empty(0)] * 4
        order = np.argsort(cols[0], kind="stable")
        log = EventLog(events, *(c[order] for c in cols))
    y, y_tilde = ProcessState(*final[0:3], final[6]), ProcessState(*final[3:6], final[6])
    return CouplingReport(tau_A, tau, log, attempt, attempt_ok, gap, y, y_tilde)


def run_three_phase(
    init: ProcessState,
    init_tilde: ProcessState,
    F: DistributionSpec,
    G: DistributionSpec | HazardProfile,
    H: DistributionSpec,
    horizon: float | np.ndarray,
    rng: np.random.Generator | BlockStreams,
    alpha: float | np.ndarray,
    beta: float | np.ndarray,
    epsilon_tv: float | np.ndarray,
) -> CouplingReport:
    """Run the three-phase coupling of a batch of pairs.

    ``horizon`` and the tuning, the phase-boundary fractions ``alpha`` and
    ``beta`` and the closeness threshold ``epsilon_tv`` entering phase 3,
    are each one value for every pair or one per pair.  Phase boundaries
    are alpha*horizon and beta*horizon; from the second boundary on,
    common jumps use the maximal jump coupling.  The report's
    ``phase_outcomes`` hold, per pair, the four tree outcomes, the gap at
    the second boundary and the L1 distance of the states at the horizon
    (the columns of ``coupling_reports.csv`` after ``replica_id``,
    ``tau_A``, ``tau`` and ``n_events``, in order); the indicator of
    non-coalescence bounds the total variation there.
    """
    if not np.all((0.0 < alpha) & (alpha < beta) & (beta < 1.0)):
        raise AssumptionError("phase fractions must satisfy 0 < alpha < beta < 1")
    if not np.all((0.0 < epsilon_tv) & (epsilon_tv < 1.0)):
        raise AssumptionError("closeness threshold must lie in (0, 1)")
    rep = simulate_coupled(init, init_tilde, F, G, H, horizon, rng, tv_from=beta * horizon)
    y, yt = rep.y, rep.y_tilde
    rep.phase_outcomes = {
        "age_merge_by_alpha": rep.tau_A <= alpha * horizon,
        "close_at_beta": rep.gap < epsilon_tv,
        "jump_by_horizon": rep.tv_attempt_time <= horizon,
        "merged_at_first_attempt": rep.tv_first_attempt_merged,
        "gap_at_beta": rep.gap,
        "l1_final": np.abs(y.x - yt.x) + np.abs(y.theta - yt.theta) + np.abs(y.age - yt.age),
    }
    return rep
