"""Deterministic, optionally parallel replica execution in blocks.

Block b holds the replica ids [CHUNK*b, CHUNK*b + CHUNK) and draws from
one random stream keyed by ``(seed, stream, b)``.  A block is always
simulated in full and its rows past ``n_replicas`` are dropped.
Consecutive blocks share one lockstep batch, at least one block and no
more than a worker's share of the blocks, under two caps: GROUP_COLUMNS
on its pairs per horizon (CHUNK a block), and BUDGET_COLUMNS, its memory
budget, on its columns in all (one per pair and horizon).  So verify's 9
grid times run 5 blocks a batch, simulate and couple 8.  Each block
draws from its own stream through
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

``coupled_rows(cfg, stream, report, horizons, columns=None)`` tunes the
pairs from the bound report: its phase fractions for every pair, and the
closeness threshold of each pair's horizon (``coupling.epsilon_tv``
overrides it when set), spread over the pairs as the horizons are.  It
returns one table per horizon, mapping each column name to one value per
replica.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .coupling import BlockStreams, run_three_phase
from .pdmp import EventLog, ProcessState, simulate_path
from .rates import RateReport

__all__ = ["coupled_rows", "marginal_rows", "marginal_blocks", "block_rng", "CHUNK",
           "MARGINAL_STREAM", "VERIFY_STREAM", "COUPLE_STREAM"]

CHUNK = 512
# the caps of a batch: its pairs per horizon, and its columns in all, 5 blocks
# of 9 horizons, whose coupled_rows call peaks at about 190 B a column (4.1 MiB)
GROUP_COLUMNS = 4096
BUDGET_COLUMNS = 24576
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
    return BlockStreams(gens, range(0, len(gens) * width + 1, width))


def _coupled_chunk(args) -> list[dict]:
    cfg, stream, horizons, alpha, beta, epsilon_tv, columns, blocks = args
    width = len(horizons) * CHUNK
    rng = _streams(cfg, stream, blocks, width)
    init = cfg.init.sample(rng, len(blocks) * width)
    init_tilde = cfg.init_tilde.sample(rng, len(blocks) * width)
    watch_gap = columns is None or not {"close_at_beta", "gap_at_beta"}.isdisjoint(columns)
    # the batch's columns run (block, horizon, pair); the thresholds, checked
    # in any case, are one per pair only where a gap meets them
    horizon = np.tile(np.repeat(horizons, CHUNK), len(blocks))
    eps = np.tile(np.repeat(epsilon_tv, CHUNK), len(blocks)) if watch_gap else np.asarray(epsilon_tv)
    rep = run_three_phase(init, init_tilde, cfg.intake, cfg.inter_arrival, cfg.metabolic,
                          horizon, rng, alpha, beta, eps, watch_gap)
    every = {"tau_A": rep.tau_A, "tau": rep.tau, "n_events": rep.log.counts, **rep.phase_outcomes}
    # one table per horizon
    split = {name: every[name].reshape(len(blocks), len(horizons), CHUNK).swapaxes(0, 1)
             for name in columns or every}
    return [{name: col[g].ravel() for name, col in split.items()} for g in range(len(horizons))]


def marginal_blocks(
    cfg: RunConfig, blocks: range, record: bool = False
) -> tuple[EventLog, ProcessState]:
    """Simulate consecutive full blocks of single trajectories to the
    horizon in one batch, CHUNK runs per block."""
    rng = _streams(cfg, MARGINAL_STREAM, blocks, CHUNK)
    init = cfg.init.sample(rng, len(blocks) * CHUNK)
    return simulate_path(init, cfg.intake, cfg.inter_arrival, cfg.metabolic, cfg.horizon, rng,
                         record=record)


def _marginal_chunk(args) -> list[dict]:
    cfg, blocks = args
    log, final = marginal_blocks(cfg, blocks)
    return [{"x": final.x, "theta": final.theta, "age": final.age, "n_events": log.counts}]


def _run(cfg: RunConfig, worker, payloads: list, ids: bool) -> list[dict]:
    """Run ``worker`` on every payload, each ending in its group of
    blocks, and gather the tables it returns."""
    if cfg.parallelism > 1 and len(payloads) > 1:
        # imported here, as it brings in multiprocessing, which every
        # command would pay for at start-up and at exit
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            return _gather(cfg, payloads, pool.map(worker, payloads), ids)
    return _gather(cfg, payloads, map(worker, payloads), ids)


def _gather(cfg: RunConfig, payloads: list, results, ids: bool) -> list[dict]:
    """Copy each group's tables, as the groups arrive, into the whole-run
    tables, preallocated, at the group's offset, dropping the rows past
    ``n_replicas``; ``ids`` puts a ``replica_id`` column first."""
    n = cfg.n_replicas
    whole = None
    for payload, tables in zip(payloads, results):
        if whole is None:
            first = {"replica_id": np.arange(n)} if ids else {}
            whole = [{**first, **{name: np.empty(n, col.dtype) for name, col in t.items()}}
                     for t in tables]
        blocks = payload[-1]
        start, stop = blocks.start * CHUNK, min(blocks.stop * CHUNK, n)
        for into, table in zip(whole, tables):
            for name, col in table.items():
                into[name][start:stop] = col[:stop - start]
    return whole


def _groups(cfg: RunConfig, n_horizons: int) -> list[range]:
    """Consecutive blocks in groups of one batch each: up to GROUP_COLUMNS
    pairs per horizon, BUDGET_COLUMNS columns of ``n_horizons`` times
    CHUNK per block, and no more blocks than a worker's share."""
    n_blocks = -(-cfg.n_replicas // CHUNK)
    size = max(1, min(GROUP_COLUMNS // CHUNK, BUDGET_COLUMNS // (n_horizons * CHUNK),
                      -(-n_blocks // cfg.parallelism)))
    return [range(b, min(b + size, n_blocks)) for b in range(0, n_blocks, size)]


def coupled_rows(
    cfg: RunConfig,
    stream: int,
    report: RateReport,
    horizons: list[float],
    columns: tuple[str, ...] | None = None,
) -> list[dict]:
    """Three-phase coupling ensembles, one table per horizon, each block
    in one batch for all horizons; ``columns`` selects the columns, and
    every column comes, ``replica_id`` first, when it is None."""
    eps = [report.epsilon_tv(t) if cfg.epsilon_tv is None else cfg.epsilon_tv for t in horizons]
    payloads = [(cfg, stream, horizons, report.alpha, report.beta, eps, columns, blocks)
                for blocks in _groups(cfg, len(horizons))]
    return _run(cfg, _coupled_chunk, payloads, columns is None)


def marginal_rows(cfg: RunConfig) -> dict:
    """Single-process ensemble at the configured horizon, as a table like
    those of :func:`coupled_rows`."""
    return _run(cfg, _marginal_chunk, [(cfg, blocks) for blocks in _groups(cfg, 1)], True)[0]
