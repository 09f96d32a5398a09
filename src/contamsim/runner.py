"""Deterministic, optionally parallel replica execution in blocks.

Block b holds the replica ids [CHUNK*b, CHUNK*b + CHUNK) and draws from
one random stream keyed by ``(seed, stream, b)``.  A block is always
simulated in full, in one lockstep batch, and its rows past
``n_replicas`` are dropped; so row k depends neither on the replica count
nor on the worker count, and artifacts are byte-identical across both.

A coupled block runs every horizon it is given in that one batch, CHUNK
pairs per horizon, all drawn from the block's one stream: so the rows of
one horizon depend on the whole list of horizons.  ``simulate`` and
``dump-paths`` use stream 0, ``verify`` stream 1 with every grid time,
``couple`` stream 2 with the configured horizon (the ``*_STREAM``
constants below).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import RunConfig
from .coupling import CouplingPhaseParams, run_three_phase
from .distributions import hazard_profile
from .pdmp import EventLog, ProcessState, simulate_path

__all__ = ["coupled_rows", "marginal_rows", "marginal_block", "block_rng", "CHUNK",
           "MARGINAL_STREAM", "VERIFY_STREAM", "COUPLE_STREAM"]

CHUNK = 512
# the random streams of the commands' replica blocks
MARGINAL_STREAM = 0  # simulate and dump-paths
VERIFY_STREAM = 1
COUPLE_STREAM = 2


def block_rng(cfg: RunConfig, stream: int, block: int) -> np.random.Generator:
    """The random stream of one block, keyed by (seed, stream, block)."""
    return np.random.default_rng([cfg.seed, stream, block])


def _table(cfg: RunConfig, block: int, columns: dict) -> dict:
    """The rows of one block that are replicas of the run, with their ids."""
    start = block * CHUNK
    keep = min(CHUNK, cfg.n_replicas - start)
    return {"replica_id": np.arange(start, start + keep),
            **{name: col[:keep] for name, col in columns.items()}}


def _coupled_chunk(args) -> list[dict]:
    cfg, stream, horizons, params, columns, block = args
    rng = block_rng(cfg, stream, block)
    init = cfg.init.sample(rng, len(horizons) * CHUNK)
    init_tilde = cfg.init_tilde.sample(rng, len(horizons) * CHUNK)
    G = hazard_profile(cfg.inter_arrival)
    horizon = np.repeat(horizons, CHUNK)
    rep = run_three_phase(init, init_tilde, dict(zip(horizons, params)),
                          cfg.intake, G, cfg.metabolic, horizon, rng)
    every = {"tau_A": rep.tau_A, "tau": rep.tau, "n_events": rep.log.counts, **rep.phase_outcomes}
    tables = []
    for g in range(len(horizons)):
        rows = slice(g * CHUNK, (g + 1) * CHUNK)
        table = _table(cfg, block, {name: col[rows] for name, col in every.items()})
        tables.append({name: table[name] for name in columns or table})
    return tables


def marginal_block(
    cfg: RunConfig, block: int, record: bool = False
) -> tuple[EventLog, ProcessState]:
    """Simulate one full block of single trajectories to the horizon."""
    rng = block_rng(cfg, MARGINAL_STREAM, block)
    init = cfg.init.sample(rng, CHUNK)
    G = hazard_profile(cfg.inter_arrival)
    return simulate_path(init, cfg.intake, G, cfg.metabolic, cfg.horizon, rng, record=record)


def _marginal_chunk(args) -> list[dict]:
    cfg, block = args
    log, final = marginal_block(cfg, block)
    return [_table(cfg, block, {
        "x": final.x, "theta": final.theta, "age": final.age, "n_events": log.counts,
    })]


def _run(cfg: RunConfig, worker, payloads: list) -> list[dict]:
    """Run ``worker`` on every block and copy each table it returns into
    the whole-run table of the same position, as the blocks arrive."""
    if cfg.parallelism > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            return _gather(cfg, pool.map(worker, payloads))
    return _gather(cfg, map(worker, payloads))


def _gather(cfg: RunConfig, results) -> list[dict]:
    whole = None
    for block, tables in enumerate(results):
        if whole is None:
            whole = [{name: np.empty(cfg.n_replicas, col.dtype) for name, col in t.items()}
                     for t in tables]
        start = block * CHUNK
        for into, table in zip(whole, tables):
            for name, col in table.items():
                into[name][start:start + col.size] = col
    return whole


def _blocks(cfg: RunConfig) -> range:
    return range(-(-cfg.n_replicas // CHUNK))


def coupled_rows(
    cfg: RunConfig,
    stream: int,
    horizons: list[float],
    params: list[CouplingPhaseParams],
    columns: tuple[str, ...] | None = None,
) -> list[dict]:
    """Three-phase coupling ensembles, one per horizon with the tuning of
    the same position, each block in one batch for all horizons: one
    table per horizon, mapping each column name (all of them, or those in
    ``columns``) to an array with one entry per replica."""
    payloads = [(cfg, stream, horizons, params, columns, b) for b in _blocks(cfg)]
    return _run(cfg, _coupled_chunk, payloads)


def marginal_rows(cfg: RunConfig) -> dict:
    """Single-process ensemble at the configured horizon, as a table like
    those of :func:`coupled_rows`."""
    return _run(cfg, _marginal_chunk, [(cfg, b) for b in _blocks(cfg)])[0]
