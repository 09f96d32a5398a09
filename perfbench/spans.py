"""Span recording for the traced run, and the arithmetic on recorded spans.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it began (its parent).  Span names are
``<layer>.<function>``; the layer is the package module the work
belongs to.  The recorder keeps spans in flat arrays in memory and the
traced process writes them out once, at exit.

The analysis half (``self_times`` and ``layer_metrics``) runs in the
benchmark process; it imports numpy inside the functions, so importing
this module adds nothing to the traced process's start-up.
"""

from __future__ import annotations

import re
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "config", "runner", "coupling", "pdmp", "distributions", "rates", "estimators")

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Per-layer metrics of the traced run, with their units.  The order is
# the order they are printed in.
LAYER_METRICS = {
    "rates.convergence_bounds_s": "s",
    "rates.age_bound_tail_s": "s",
    "rates.solve_renewal_s": "s",
    "rates.solve_renewal_points": "count",
    "rates.find_w_s": "s",
    "rates.psi_calls": "count",
    "rates.eta_calls": "count",
    "runner.coupled_rows_s": "s",
    "runner.marginal_rows_s": "s",
    "runner.chunks": "count",
    "runner.rng_seeds": "count",
    "runner.rng_seed_s": "s",
    "coupling.us_per_replica": "us",
    "coupling.ns_per_event": "ns",
    "coupling.events_per_replica": "events/replica",
    "coupling.tv_jump_calls": "count",
    "coupling.tv_merge_ratio": "ratio",
    "coupling.draws_per_tv_jump": "draws/jump",
    "pdmp.us_per_replica": "us",
    "pdmp.ns_per_event": "ns",
    "distributions.sample_calls_per_replica": "calls/replica",
    "distributions.hazard_profile_calls": "count",
    "distributions.laplace_calls": "count",
    "config.from_dict_calls": "count",
    "config.load_s": "s",
    "cli.bytes_written": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class Recorder:
    """Collects spans and counters of one process, in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")  # time.perf_counter_ns
        self.end = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self._open = [-1]

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` wrapped so that every call records a span ``name``.

        ``on_return(recorder, result)`` runs after a call that returned,
        to add counters read from its result.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(open_[-1])
            ends.append(0)
            open_.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                open_.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }


def self_times(dump: dict):
    """Per-span self time in seconds: duration minus what its children cover.

    Children are clipped to their parent's interval.  Spans of one
    process are recorded from a single thread, so siblings never
    overlap; overlapping siblings are rejected rather than double
    subtracted.
    """
    import numpy as np

    start = np.asarray(dump["start"], dtype=np.int64)
    end = np.asarray(dump["end"], dtype=np.int64)
    parent = np.asarray(dump["parent"], dtype=np.int64)
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    par = parent[child]
    lo = np.maximum(start[child], start[par])
    hi = np.minimum(end[child], end[par])
    order = np.lexsort((lo, par))
    same_parent = par[order][1:] == par[order][:-1]
    if np.any(same_parent & (lo[order][1:] < hi[order][:-1])):
        raise ValueError("sibling spans overlap")
    covered = np.zeros(len(start), dtype=np.int64)
    np.add.at(covered, par, np.maximum(hi - lo, 0))
    return (dur - covered) * 1e-9


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced process (see ``LAYER_METRICS``).

    Metrics the process gave no work to read 0.  ``cli.bytes_written``
    and the ``trace.*`` metrics need the benchmark's view of the process
    and are filled in by the caller.
    """
    import numpy as np

    names = dump["names"]
    name_id = np.asarray(dump["name_id"], dtype=np.int64)
    parent = np.asarray(dump["parent"], dtype=np.int64)
    dur = (np.asarray(dump["end"], dtype=np.int64) - np.asarray(dump["start"], dtype=np.int64)) * 1e-9
    own = self_times(dump)
    ids = {n: i for i, n in enumerate(names)}
    counters = defaultdict(float, dump["counters"])

    def mask(name):
        return name_id == ids.get(name, -1)

    def count(name):
        return int(mask(name).sum())

    def total(name):
        return float(dur[mask(name)].sum())

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    layer_of = np.array([n.split(".", 1)[0] for n in names] + [""])[name_id]
    m = {f"{layer}.self_s": float(own[layer_of == layer].sum()) for layer in LAYERS}

    coupled = count("coupling.run_three_phase")
    paths = count("pdmp.simulate_path")
    jumps = count("coupling.tv_jump_coupling")
    samples = mask("distributions.DistributionSpec.sample")
    has_parent = parent >= 0
    under_jump = np.zeros_like(samples)
    under_jump[has_parent] = mask("coupling.tv_jump_coupling")[parent[has_parent]]
    m.update({
        "rates.convergence_bounds_s": total("rates.convergence_bounds"),
        "rates.age_bound_tail_s": total("rates.age_bound_tail"),
        "rates.solve_renewal_s": total("rates.solve_renewal"),
        "rates.solve_renewal_points": counters["rates.solve_renewal_points"],
        "rates.find_w_s": total("rates.find_w"),
        "rates.psi_calls": count("rates.RenewalKernel.psi"),
        "rates.eta_calls": count("rates.eta"),
        "runner.coupled_rows_s": total("runner.coupled_rows"),
        "runner.marginal_rows_s": total("runner.marginal_rows"),
        "runner.chunks": count("runner.chunk"),
        "runner.rng_seeds": count("runner.rng_seed"),
        "runner.rng_seed_s": total("runner.rng_seed"),
        "coupling.us_per_replica": ratio(total("coupling.run_three_phase"), coupled, 1e6),
        "coupling.ns_per_event": ratio(
            total("coupling.run_three_phase"), counters["coupling.events"], 1e9
        ),
        "coupling.events_per_replica": ratio(counters["coupling.events"], coupled),
        "coupling.tv_jump_calls": jumps,
        "coupling.tv_merge_ratio": ratio(counters["coupling.tv_merged"], jumps),
        "coupling.draws_per_tv_jump": ratio(int((samples & under_jump).sum()), jumps),
        "pdmp.us_per_replica": ratio(total("pdmp.simulate_path"), paths, 1e6),
        "pdmp.ns_per_event": ratio(total("pdmp.simulate_path"), counters["pdmp.events"], 1e9),
        "distributions.sample_calls_per_replica": ratio(int(samples.sum()), coupled + paths),
        "distributions.hazard_profile_calls": count("distributions.hazard_profile"),
        "distributions.laplace_calls": count("distributions.DistributionSpec.laplace"),
        "config.from_dict_calls": count("config.RunConfig.from_dict"),
        "config.load_s": total("config.RunConfig.from_dict"),
    })
    return m
