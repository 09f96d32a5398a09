"""Exact event-driven simulation of the contaminant process (X, Theta, A).

Between intakes the quantity decays as x(t+s) = x(t) * exp(-theta*s);
at an intake the quantity jumps by U ~ F, the age resets to 0 and the
metabolic rate is redrawn from H.  Event times are generated by exact
inversion of the integrated hazard of the inter-intake law G, so there
is no discretization anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, HazardProfile, hazard_profile
from .errors import ContamsimError

__all__ = ["ProcessState", "EventLog", "simulate_path", "state_at"]


@dataclass
class ProcessState:
    x: float
    theta: float
    age: float
    t: float = 0.0

    def validate(self):
        if self.x < 0 or self.theta <= 0 or self.age < 0:
            raise ContamsimError("invalid process state")


@dataclass
class EventLog:
    """Ordered intake events of one trajectory."""

    jump_times: list = field(default_factory=list)
    intakes: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    horizon: float = 0.0

    def n_events(self) -> int:
        return len(self.jump_times)

    def count_up_to(self, t: float) -> int:
        return bisect_right(self.jump_times, t)


def simulate_path(
    init: ProcessState,
    F: DistributionSpec,
    G: DistributionSpec | HazardProfile,
    H: DistributionSpec,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[EventLog, ProcessState]:
    """Simulate one trajectory up to the horizon.

    Returns the event log and the state at the horizon.  The waiting
    time to the first intake is the residual time of G from the initial
    age, so an initial age of 0 makes the first inter-intake time a
    plain draw from G.
    """
    if horizon <= 0:
        raise ContamsimError("horizon must be positive")
    init.validate()
    profile = G if isinstance(G, HazardProfile) else hazard_profile(G)
    log = EventLog(horizon=horizon)
    x, theta, age, t = init.x, init.theta, init.age, 0.0
    while True:
        s = profile.inverse(age, rng.exponential())
        if t + s > horizon:
            break
        t += s
        u = F.sample(rng)
        x = x * math.exp(-theta * s) + u
        theta = H.sample(rng)
        age = 0.0
        log.jump_times.append(t)
        log.intakes.append(u)
        log.thetas.append(theta)
    final = ProcessState(
        x * math.exp(-theta * (horizon - t)), theta, age + (horizon - t), horizon
    )
    return log, final


def state_at(log: EventLog, init: ProcessState, t: float) -> ProcessState:
    """Exact state at time t, cadlag at jump times."""
    if t < 0 or t > log.horizon:
        raise ContamsimError(f"time {t} outside simulated horizon {log.horizon}")
    n = log.count_up_to(t)
    if n == 0:
        s = t
        return ProcessState(init.x * math.exp(-init.theta * s), init.theta, init.age + s, t)
    # reconstruct x just after the n-th jump
    x = init.x
    theta = init.theta
    prev = 0.0
    for i in range(n):
        ti = log.jump_times[i]
        x = x * math.exp(-theta * (ti - prev)) + log.intakes[i]
        theta = log.thetas[i]
        prev = ti
    s = t - prev
    return ProcessState(x * math.exp(-theta * s), theta, s, t)
