"""Exact event-driven simulation of the contaminant process (X, Theta, A).

Between intakes the quantity decays as x(t+s) = x(t) * exp(-theta*s);
at an intake the quantity jumps by U ~ F, the age resets to 0 and the
metabolic rate is redrawn from H.  Event times are generated by exact
inversion of the integrated hazard of the inter-intake law G, so there
is no discretization anywhere.

A batch of runs is one call: the states below hold one entry per run,
and the runs move forward in lockstep, one event per step, in the
coupled kernel of :mod:`contamsim.coupling`.  A single process is a
coupled pair whose two copies start, and so stay, equal: every step of
its batch takes the kernel's single-process branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import DistributionSpec, HazardProfile, hazard_profile
from .errors import ContamsimError

__all__ = ["ProcessState", "EventLog", "simulate_path"]


@dataclass
class ProcessState:
    """The state of one run (floats) or of a batch of runs (arrays)."""

    x: np.ndarray
    theta: np.ndarray
    age: np.ndarray
    t: np.ndarray = 0.0

    def validate(self):
        # NaN fails every comparison, so each check states what must hold
        x, theta, age = self.x, self.theta, self.age
        if not (np.all((0 <= x) & (x < np.inf)) and np.all((0 < theta) & (theta < np.inf))
                and np.all((0 <= age) & (age < np.inf))):
            raise ContamsimError("invalid process state: each component must be finite, "
                                 "with x >= 0, theta > 0 and age >= 0")


@dataclass
class EventLog:
    """Intake events of a batch of runs.

    ``counts[i]`` is the number of events of run i.  A recorded log also
    holds every jump of the first component, grouped by run and in time
    order within a run: its run, time, intake (the jump of the quantity)
    and the metabolic rate drawn at it.
    """

    counts: np.ndarray
    runs: Optional[np.ndarray] = None
    jump_times: Optional[np.ndarray] = None
    intakes: Optional[np.ndarray] = None
    thetas: Optional[np.ndarray] = None

    def n_events(self) -> int:
        """The events of all runs together."""
        return int(self.counts.sum())

    def of(self, run: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Jump times, intakes and new rates of one run of a recorded log."""
        lo, hi = np.searchsorted(self.runs, [run, run + 1])
        return self.jump_times[lo:hi], self.intakes[lo:hi], self.thetas[lo:hi]


def simulate_path(
    init: ProcessState,
    F: DistributionSpec,
    G: DistributionSpec | HazardProfile,
    H: DistributionSpec,
    horizon: float,
    rng: np.random.Generator,
    record: bool = False,
) -> tuple[EventLog, ProcessState]:
    """Simulate one run per entry of ``init`` up to the horizon.

    Returns the event log (with every event when ``record``) and the
    states at the horizon.  The waiting time to the first intake is the
    residual time of G from the initial age, so an initial age of 0 makes
    the first inter-intake time a plain draw from G.  ``rng`` may also be
    the :class:`~contamsim.coupling.BlockStreams` of several blocks.
    """
    from .coupling import simulate_coupled  # here: coupling imports this module

    if horizon <= 0:
        raise ContamsimError("horizon must be positive")
    profile = G if isinstance(G, HazardProfile) else hazard_profile(G)
    rep = simulate_coupled(init, init, F, profile, H, horizon, rng, record=record)
    return rep.log, rep.y
