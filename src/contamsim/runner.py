"""Deterministic, optionally parallel replica execution in blocks.

Block b holds the replica ids [CHUNK*b, CHUNK*b + CHUNK) and draws from
one random stream keyed by ``(seed, stream, b)``.  A block is always
simulated in full and its rows past ``n_replicas`` are dropped.
Consecutive blocks share one lockstep batch, up to GROUP_COLUMNS columns
(at least one block, and no more than a worker's share of the blocks),
but each draws from its own stream through
:class:`~contamsim.coupling.BlockStreams`, so it gets the draws it would
get in a batch of its own.  So row k depends neither on the replica
count nor on the worker count, and artifacts are byte-identical across
both.

A coupled block runs every horizon it is given in its batch, CHUNK
pairs per horizon, all drawn from the block's one stream: so the rows of
one horizon depend on the whole list of horizons.  ``simulate`` and
``dump-paths`` use stream 0, ``verify`` stream 1 with every grid time,
``couple`` stream 2 with the configured horizon (the ``*_STREAM``
constants below).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .config import RunConfig
from .coupling import BlockStreams, CouplingPhaseParams, run_three_phase
from .distributions import hazard_profile
from .pdmp import EventLog, ProcessState, simulate_path

__all__ = ["coupled_rows", "marginal_rows", "marginal_blocks", "block_rng", "CHUNK",
           "MARGINAL_STREAM", "VERIFY_STREAM", "COUPLE_STREAM"]

CHUNK = 512
# the columns of one lockstep batch that consecutive blocks are grouped up to
GROUP_COLUMNS = 4096
# the random streams of the commands' replica blocks
MARGINAL_STREAM = 0  # simulate and dump-paths
VERIFY_STREAM = 1
COUPLE_STREAM = 2


def block_rng(cfg: RunConfig, stream: int, block: int) -> np.random.Generator:
    """The random stream of one block, keyed by (seed, stream, block)."""
    return np.random.default_rng([cfg.seed, stream, block])


def _streams(cfg: RunConfig, stream: int, blocks: range, width: int) -> BlockStreams:
    """The streams of consecutive blocks of ``width`` columns each."""
    gens = [block_rng(cfg, stream, b) for b in blocks]
    return BlockStreams(gens, np.repeat(np.arange(len(gens)), width))


def _table(cfg: RunConfig, block: int, columns: dict, at: int) -> dict:
    """The rows of one block that are replicas of the run, with their ids,
    from the CHUNK batch columns that start at ``at``."""
    start = block * CHUNK
    keep = min(CHUNK, cfg.n_replicas - start)
    return {"replica_id": np.arange(start, start + keep),
            **{name: col[at:at + keep] for name, col in columns.items()}}


def _coupled_chunk(args) -> list[list[dict]]:
    cfg, stream, horizons, params, columns, blocks = args
    width = len(horizons) * CHUNK
    rng = _streams(cfg, stream, blocks, width)
    init = cfg.init.sample(rng, len(blocks) * width)
    init_tilde = cfg.init_tilde.sample(rng, len(blocks) * width)
    G = hazard_profile(cfg.inter_arrival)
    horizon = np.tile(np.repeat(horizons, CHUNK), len(blocks))
    rep = run_three_phase(init, init_tilde, dict(zip(horizons, params)),
                          cfg.intake, G, cfg.metabolic, horizon, rng)
    every = {"tau_A": rep.tau_A, "tau": rep.tau, "n_events": rep.log.counts, **rep.phase_outcomes}
    results = []
    for i, block in enumerate(blocks):
        tables = [_table(cfg, block, every, i * width + g * CHUNK) for g in range(len(horizons))]
        results.append([{name: table[name] for name in columns or table} for table in tables])
    return results


def marginal_blocks(
    cfg: RunConfig, blocks: range, record: bool = False
) -> tuple[EventLog, ProcessState]:
    """Simulate consecutive full blocks of single trajectories to the
    horizon in one batch, CHUNK runs per block."""
    rng = _streams(cfg, MARGINAL_STREAM, blocks, CHUNK)
    init = cfg.init.sample(rng, len(blocks) * CHUNK)
    G = hazard_profile(cfg.inter_arrival)
    return simulate_path(init, cfg.intake, G, cfg.metabolic, cfg.horizon, rng, record=record)


def _marginal_chunk(args) -> list[list[dict]]:
    cfg, blocks = args
    log, final = marginal_blocks(cfg, blocks)
    columns = {"x": final.x, "theta": final.theta, "age": final.age, "n_events": log.counts}
    return [[_table(cfg, block, columns, i * CHUNK)] for i, block in enumerate(blocks)]


def _run(cfg: RunConfig, worker, payloads: list) -> list[dict]:
    """Run ``worker`` on every group of blocks and copy each table it
    returns into the whole-run table of the same position, as the blocks
    arrive."""
    if cfg.parallelism > 1 and len(payloads) > 1:
        # imported here, as it brings in multiprocessing, which every
        # command would pay for at start-up and at exit
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            return _gather(cfg, chain.from_iterable(pool.map(worker, payloads)))
    return _gather(cfg, chain.from_iterable(map(worker, payloads)))


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


def _groups(cfg: RunConfig, n_horizons: int) -> list[range]:
    """Consecutive blocks in groups of one batch each: up to GROUP_COLUMNS
    columns of ``n_horizons`` times CHUNK per block, and no more blocks
    than a worker's share."""
    n_blocks = -(-cfg.n_replicas // CHUNK)
    size = max(1, min(GROUP_COLUMNS // (n_horizons * CHUNK), -(-n_blocks // cfg.parallelism)))
    return [range(b, min(b + size, n_blocks)) for b in range(0, n_blocks, size)]


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
    payloads = [(cfg, stream, horizons, params, columns, blocks)
                for blocks in _groups(cfg, len(horizons))]
    return _run(cfg, _coupled_chunk, payloads)


def marginal_rows(cfg: RunConfig) -> dict:
    """Single-process ensemble at the configured horizon, as a table like
    those of :func:`coupled_rows`."""
    return _run(cfg, _marginal_chunk, [(cfg, blocks) for blocks in _groups(cfg, 1)])[0]
