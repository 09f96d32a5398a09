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
    gap: np.ndarray | None  # |X - X~| at tv_from; None unless watched
    y: ProcessState  # the states at the end of each run
    y_tilde: ProcessState
    phase_outcomes: dict = field(default_factory=dict)

    @property
    def n_events(self) -> int:
        """The events of all runs together."""
        return self.log.n_events()


class BlockStreams:
    """The random streams of several replica blocks that share one batch.

    ``gens[b]`` is the generator of block b, whose columns run from
    ``edges[b]`` up to ``edges[b + 1]``; the blocks are contiguous and in
    order, and the last edge is the column count.  The draw methods are a
    plain generator's standard variates, which
    :meth:`DistributionSpec.sample` maps to each law.  A draw for the
    columns is split by block: each block's generator fills its share of
    one batch in place, in column order.  So when a batch draws only
    through views :meth:`at` makes from ascending columns, every block
    gets exactly the draws it would get in a batch of its own (a block
    with no share draws nothing, as a draw of size 0 would).  One
    generator is one stream: ``at`` returns the object itself and the
    draws go straight to the generator.
    """

    def __init__(self, gens, edges=None):
        self.gens = list(gens)
        self.edges = list(edges) if len(self.gens) > 1 else None

    @classmethod
    def of(cls, rng) -> "BlockStreams":
        """``rng`` itself, or a plain generator as one stream."""
        return rng if isinstance(rng, cls) else cls([rng])

    def at(self, cols) -> "BlockStreams":
        """The streams of the columns ``cols`` (ascending indices or a mask);
        every column, ``slice(None)``, is these streams."""
        if self.edges is None or (isinstance(cols, slice) and cols == slice(None)):
            return self
        if cols.dtype == bool:
            cols = np.flatnonzero(cols)
        # a block's first column in the view is the count of columns before its first
        return BlockStreams(self.gens, np.searchsorted(cols, self.edges).tolist())

    def _draw(self, method: str, size, *params) -> np.ndarray:
        if self.edges is None:
            return getattr(self.gens[0], method)(*params, size=size)
        edges = self.edges
        n = edges[-1]
        if size != n and size != (n,):
            raise ValueError(f"a draw for {n} columns must have size {n}, not {size}")
        out = np.empty(n)
        for gen, lo, hi in zip(self.gens, edges, edges[1:]):
            if hi > lo and method == "weibull":  # numpy's weibull has no out
                out[lo:hi] = gen.weibull(*params, size=hi - lo)
            elif hi > lo:
                getattr(gen, method)(*params, out=out[lo:hi])
        return out

    def random(self, size=None):
        return self._draw("random", size)

    def standard_exponential(self, size=None):
        return self._draw("standard_exponential", size)

    def standard_gamma(self, shape, size=None):
        return self._draw("standard_gamma", size, shape)

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
    return shift + np.maximum(delta, 0.0) + (1.0 / rate) * rng.standard_exponential(delta.size)


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


def _where(mask: np.ndarray) -> tuple[slice | np.ndarray, int]:
    """The columns where ``mask`` holds, and how many: a basic slice, which
    indexes by view, when they are every column, else their indices."""
    k = int(np.count_nonzero(mask))
    return (slice(None) if k == mask.size else np.flatnonzero(mask)), k


# The rows of S at each level, as (x, theta, age, x~, theta~, age~, t, horizon, tv_from):
# Y~'s own, then x~ with Y's theta and age once both have met, then Y's once fused.
# The buffer keeps the rows of its starting level: 9, 7 or 6
_LAYOUT = [[0, 1, 2, 3, 4, 5, -3, -2, -1], [0, 1, 2, 3, 1, 2, -3, -2, -1],
           [0, 1, 2, 0, 1, 2, -3, -2, -1]]


def simulate_coupled(
    init: ProcessState,
    init_tilde: ProcessState,
    F: DistributionSpec,
    G: DistributionSpec | HazardProfile,
    H: DistributionSpec,
    horizon: float | np.ndarray,
    rng: np.random.Generator | BlockStreams,
    tv_from: float | np.ndarray = math.inf,
    record: bool = False,
    watch_gap: bool = True,
) -> CouplingReport:
    """Simulate coupled pairs (Y, Y~) up to the horizon, one pair per
    entry of the initial states.

    Each component alone is a contaminant process for (F, G, H).  Common
    jumps share the intake and the new metabolic rate; from ``tv_from``
    on, common jumps instead use :func:`tv_jump_coupling`, which is what
    can produce full coalescence.  ``horizon`` (finite, >= 0) and
    ``tv_from`` (>= 0, +inf for never) are one time for every pair or one
    per pair; a float gives the same draws as an array of it.  Initial
    ages lie below the first age of infinite hazard of the waits.  With
    ``watch_gap``, which draws nothing, the report's ``gap`` is |X - X~|
    at the pair's ``tv_from`` (infinite past its horizon); else None.
    ``tau_A`` is the pair's first common jump, the age-coalescence time
    (infinite past the horizon).  With ``record`` the log keeps every jump of Y.
    No input array is written to, so read-only views serve as inputs.

    The pairs move in lockstep: each step draws, one array per law, the
    next event of every pair still running.  A subset of a step that is
    every running column (every jump common, every pair fused or every
    pair sharing an intake) is indexed by a basic slice, a view, not by
    an index array.  A step reads the state rows of one of three levels.
    While the ages of a running pair differ, it draws the competing-risk
    age coupling on both states.  Age coalescence is absorbing (every
    later jump is common, so Y~ keeps Y's rate and age): once every
    running pair's ages and rates have met, the steps keep x~ beside Y's
    rows and decay x~ by Y's factor.  So is coalescence: once every
    running pair is fused (a single process is a pair started fused), the
    steps keep Y's rows alone and, after the decay, take a single-process
    branch.  Each level makes the draws the level before would make, in
    the same order.  The states live in one buffer with the rows of the
    batch's starting level, one column per pair: the running columns
    first, in order.  A pair past its horizon leaves the batch with its
    rows as they are: each row of the running columns is compacted in
    place and the retired columns are parked right behind them.  The rows
    a level no longer reads are filled from Y's after the last step, and
    one closing pass decays every pair to its horizon and scatters it to
    its entry.  Point-mass intake and rate laws draw nothing, so with them
    only the age pairs use the stream.  With :class:`BlockStreams` for
    ``rng`` each pair draws from the stream of its block, and the pairs
    of a block get the draws they would get in a call of their own.
    """
    init.validate()
    init_tilde.validate()
    rng = BlockStreams.of(rng)  # the streams of the running columns, compacted with them
    profile = G if isinstance(G, HazardProfile) else hazard_profile(G)
    start = (init.x, init.theta, init.age, init_tilde.x, init_tilde.theta, init_tilde.age)
    n = max(np.size(v) for v in (*start, horizon, tv_from))
    ages_met = np.broadcast_to(np.equal(init.age, init_tilde.age), n).copy()
    rates_met = np.equal(init.theta, init_tilde.theta)
    met = ages_met & rates_met & np.equal(init.x, init_tilde.x)
    level = 2 if met.all() else 1 if ages_met.all() and np.all(rates_met) else 0
    top = level  # 0: some ages or rates differ, 1: all met, 2: all fused
    S = np.empty(((9, 7, 6)[level], n))
    for row, v in zip(_LAYOUT[level], start):
        S[row] = v
    S[-3], S[-2], S[-1] = 0.0, horizon, tv_from
    # the buffer holds them: dropping the names frees a temporary argument,
    # such as run_three_phase's beta * horizon, where the callee owns it
    del horizon, tv_from
    if not np.all((0.0 <= S[-2]) & (S[-2] < math.inf)):
        raise ContamsimError("every horizon must be finite and >= 0")
    if not np.all(S[-1] >= 0.0):
        raise ContamsimError("every tv_from must be >= 0 (+inf for never)")
    if np.any(init.age >= profile.d) or np.any(init_tilde.age >= profile.d):
        raise ContamsimError(f"the hazard of the waits is infinite from age {profile.d:g} on")
    S[-1][S[-1] > S[-2]] = math.inf  # never reached
    watch = watch_gap and bool(np.isfinite(S[-1]).any())
    tau_A = np.where(ages_met, 0.0, math.inf)
    tau = np.where(met, 0.0, math.inf)
    events = np.zeros(n, dtype=np.int64)
    attempt = np.full(n, math.inf)
    attempt_ok = np.zeros(n, dtype=bool)
    gap = np.full(n, math.inf) if watch_gap else None
    pair = np.arange(n)  # the pair of each column of the buffer
    jumps = []  # with record: (run, time, intake, theta) of Y's jumps, per step
    # the running columns are the first k of the buffer; those that ran on at
    # level 1 and at level 2 are the first k1 and k2
    k, k1, k2 = n, (0, n, n)[level], (0, 0, n)[level]

    def retire(done):
        """Park the running columns ``done`` right behind the others, which
        keep their order, and return the indices of the others."""
        nonlocal k, rng
        keep = np.flatnonzero(~done)
        order = np.concatenate((keep, np.flatnonzero(done)))
        for row in (*(S[i] for i in set(_LAYOUT[level])), pair):  # the rows read
            row[:k] = row.take(order)
        events[pair[keep.size:k]] = step
        k, rng = keep.size, rng.at(keep)
        return keep

    step = 0
    while k:
        if level < 2 and met.all():
            # coalescence is absorbing: Y~ = Y from here on, so the steps read
            # Y's rows alone (x, theta, age, t, horizon and tv_from)
            level, k1, k2 = 2, max(k1, k), k
        elif level == 0 and ages_met.all() and np.array_equal(S[1, :k], S[4, :k]):
            # so is age coalescence: every later jump is common, so once the
            # rates have met too (at the first common jump, if the ages started
            # met) Y~ keeps Y's theta and age, and the steps read x~ beside Y's rows
            level, k1 = 1, k
        x, th, ag, xt, tht, agt, t, hor, tvf = (S[i, :k] for i in _LAYOUT[level])
        run = pair[:k]
        s = profile.inverse(np.maximum(ag, agt) if level == 0 else ag,
                            rng.standard_exponential(k))
        tev = t + s
        if watch:
            # indices, not a mask: few columns pass tv_from in one step
            seen = np.flatnonzero((tvf < tev) & (t <= tvf))
            dt = tvf[seen] - t[seen]
            gap[run[seen]] = np.abs(x[seen] * np.exp(-th[seen] * dt)
                                    - xt[seen] * np.exp(-tht[seen] * dt))
        out = tev > hor
        if out.any():
            keep = retire(out)
            s, tev = s.take(keep), tev.take(keep)
            met = met.take(keep) if level < 2 else met
            ages_met = ages_met.take(keep) if level == 0 else ages_met
            if not k:
                break
            x, th, ag, xt, tht, agt, t, hor, tvf = (S[i, :k] for i in _LAYOUT[level])
            run = pair[:k]
        step += 1
        decay = np.exp(-th * s)
        x *= decay
        t[:] = tev
        before = x.copy() if record else None
        if level == 2:
            th[:] = H.sample(rng, k)
            x += F.sample(rng, k)
            ag[:] = 0.0
            if record:
                jumps.append((run.copy(), t.copy(), x - before, th.copy()))
            continue
        xt *= decay if level else np.exp(-tht * s)
        if level == 0:
            # the event has the elder's hazard; it is common with probability
            # zeta(younger)/zeta(elder), drawn only while the ages differ
            younger = np.minimum(ag, agt)
            common = ages_met.copy()
            apart = np.flatnonzero(~ages_met)
            if apart.size:
                e, y = np.maximum(ag[apart], agt[apart]) + s[apart], younger[apart] + s[apart]
                common[apart] = rng.at(apart).random(apart.size) * profile.zeta(e) < profile.zeta(y)
            # a lone jump is the elder's
            y_jumps = np.flatnonzero(common | (ag > agt)) if record else None
            c, n_common = _where(common)
            fused = common & met
        else:  # every jump is common once every pair's ages have met
            c, n_common, fused = slice(None), k, met
        theta_new = H.sample(rng.at(c), n_common)
        f, n_fused = _where(fused)
        if n_fused:
            x[f] += F.sample(rng.at(f), n_fused)
            xt[f] = x[f]
        if n_fused < n_common:
            unmet = common ^ fused if level == 0 else ~met
            late = unmet & (tev >= tvf)
            shared = unmet ^ late
            sh, n_shared = _where(shared)
            u = F.sample(rng.at(sh), n_shared)
            x[sh] += u
            xt[sh] += u
            won = shared & (x == xt)
            tv = np.flatnonzero(late)
            if tv.size:
                x[tv], xt[tv], ok = tv_jump_coupling(x[tv], xt[tv], F, rng.at(tv))
                pairs = run[tv]
                first = np.isinf(attempt[pairs])
                attempt[pairs[first]] = tev[tv[first]]
                attempt_ok[pairs[first]] = ok[first]
                won[tv[ok]] = True
            met |= won
            won = np.flatnonzero(won)
            tau[run[won]] = tev[won]
        th[c] = theta_new
        ag[c] = 0.0
        if level == 0:
            tht[c] = theta_new
            agt[c] = 0.0
            fresh = common & ~ages_met
            ages_met |= common
            tau_A[run[fresh]] = tev[fresh]

        if n_common < k:
            lone = np.flatnonzero(~common)
            rng_lone = rng.at(lone)
            u, theta_new = F.sample(rng_lone, lone.size), H.sample(rng_lone, lone.size)
            # the elder jumps alone: through Y's rows (e = 0) if Y is older,
            # else through Y~'s (e = 3)
            e = 3 * (ag[lone] <= agt[lone])
            S[e, lone] += u
            S[e + 1, lone] = theta_new
            S[e + 2, lone] = 0.0
            S[5 - e, lone] = younger[lone] + s[lone]
        if record:
            j = y_jumps if level == 0 else np.arange(k)
            jumps.append((run[j], t[j], x[j] - before[j], th[j]))

    log = EventLog(events)
    if record:
        cols = [np.concatenate(c) for c in zip(*jumps)] or [np.empty(0)] * 4
        order = np.argsort(cols[0], kind="stable")
        log = EventLog(events, *(c[order] for c in cols))
    # the columns that ran on at level 1 (the first k1) take Y~'s theta and age
    # from Y's rows, bit for bit, and those that ran on at level 2 its x too
    if top == 0:
        S[4:6, :k1] = S[1:3, :k1]
    if top < 2:
        S[3, :k2] = S[0, :k2]
    x, th, ag, xt, tht, agt, t, hor, _ = (S[i] for i in _LAYOUT[top])

    def closed(v):  # one row of the closing pass, scattered to each column's pair
        out = np.empty(n)
        out[pair] = v
        return out

    # the closing pass decays each pair to its horizon
    dt = hor - t
    hor = closed(hor)
    y = ProcessState(closed(x * np.exp(-th * dt)), closed(th), closed(ag + dt), hor)
    y_tilde = ProcessState(closed(xt * np.exp(-tht * dt)), closed(tht), closed(agt + dt), hor)
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
    watch_gap: bool = True,
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
    non-coalescence bounds the total variation there.  Without ``watch_gap``
    no gap is measured, and its two outcomes are left out.
    """
    if not np.all((0.0 < alpha) & (alpha < beta) & (beta < 1.0)):
        raise AssumptionError("phase fractions must satisfy 0 < alpha < beta < 1")
    if not np.all((0.0 < epsilon_tv) & (epsilon_tv < 1.0)):
        raise AssumptionError("closeness threshold must lie in (0, 1)")
    rep = simulate_coupled(init, init_tilde, F, G, H, horizon, rng, tv_from=beta * horizon,
                           watch_gap=watch_gap)
    y, yt = rep.y, rep.y_tilde
    rep.phase_outcomes = {
        "age_merge_by_alpha": rep.tau_A <= alpha * horizon,
        **({"close_at_beta": rep.gap < epsilon_tv} if watch_gap else {}),
        "jump_by_horizon": rep.tv_attempt_time <= horizon,
        "merged_at_first_attempt": rep.tv_first_attempt_merged,
        **({"gap_at_beta": rep.gap} if watch_gap else {}),
        "l1_final": np.abs(y.x - yt.x) + np.abs(y.theta - yt.theta) + np.abs(y.age - yt.age),
    }
    return rep
