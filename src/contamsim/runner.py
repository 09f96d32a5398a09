"""Deterministic, optionally parallel replica execution in blocks.

Block b holds the replica ids [CHUNK*b, CHUNK*b + CHUNK) and draws from
one random stream keyed by ``(seed, stream, b)``.  A block is always
simulated in full, in one lockstep batch, and its rows past
``n_replicas`` are dropped; so row k depends neither on the replica count
nor on the worker count, and artifacts are byte-identical across both.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import RunConfig
from .coupling import CouplingPhaseParams, run_three_phase
from .distributions import hazard_profile
from .pdmp import EventLog, ProcessState, simulate_path

__all__ = ["coupled_rows", "marginal_rows", "marginal_block", "block_rng", "CHUNK"]

CHUNK = 512


def block_rng(cfg: RunConfig, stream: int, block: int) -> np.random.Generator:
    """The random stream of one block, keyed by (seed, stream, block)."""
    return np.random.default_rng([cfg.seed, stream, block])


def _table(cfg: RunConfig, block: int, columns: dict) -> dict:
    """The rows of one block that are replicas of the run, with their ids."""
    start = block * CHUNK
    keep = min(CHUNK, cfg.n_replicas - start)
    return {"replica_id": np.arange(start, start + keep),
            **{name: col[:keep] for name, col in columns.items()}}


def _coupled_chunk(args) -> dict:
    cfg, stream, horizon, params, block = args
    rng = block_rng(cfg, stream, block)
    init = cfg.init.sample(rng, CHUNK)
    init_tilde = cfg.init_tilde.sample(rng, CHUNK)
    G = hazard_profile(cfg.inter_arrival)
    rep = run_three_phase(init, init_tilde, params, cfg.intake, G, cfg.metabolic, horizon, rng)
    return _table(cfg, block, {
        "tau_A": rep.tau_A, "tau": rep.tau, "n_events": rep.log.counts, **rep.phase_outcomes,
    })


def marginal_block(
    cfg: RunConfig, block: int, record: bool = False
) -> tuple[EventLog, ProcessState]:
    """Simulate one full block of single trajectories to the horizon (stream 0)."""
    rng = block_rng(cfg, 0, block)
    init = cfg.init.sample(rng, CHUNK)
    G = hazard_profile(cfg.inter_arrival)
    return simulate_path(init, cfg.intake, G, cfg.metabolic, cfg.horizon, rng, record=record)


def _marginal_chunk(args) -> dict:
    cfg, block = args
    log, final = marginal_block(cfg, block)
    return _table(cfg, block, {
        "x": final.x, "theta": final.theta, "age": final.age, "n_events": log.counts,
    })


def _run(cfg: RunConfig, worker, payloads: list) -> dict:
    if cfg.parallelism > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            tables = list(pool.map(worker, payloads))
    else:
        tables = [worker(p) for p in payloads]
    return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}


def _blocks(cfg: RunConfig) -> range:
    return range(-(-cfg.n_replicas // CHUNK))


def coupled_rows(
    cfg: RunConfig, stream: int, horizon: float, params: CouplingPhaseParams
) -> dict:
    """Three-phase coupling ensemble for one horizon: a table mapping each
    column name to an array with one entry per replica."""
    return _run(cfg, _coupled_chunk, [(cfg, stream, horizon, params, b) for b in _blocks(cfg)])


def marginal_rows(cfg: RunConfig) -> dict:
    """Single-process ensemble at the configured horizon, as a table like
    :func:`coupled_rows`'s."""
    return _run(cfg, _marginal_chunk, [(cfg, b) for b in _blocks(cfg)])
