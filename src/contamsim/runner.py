"""Deterministic, optionally parallel replica execution.

Every replica owns an independent random stream keyed by
``(seed, stream, replica_id)``, so results are byte-identical whatever
the worker count or chunking.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import RunConfig
from .coupling import CouplingPhaseParams, run_three_phase
from .distributions import hazard_profile
from .pdmp import simulate_path

__all__ = ["coupled_rows", "marginal_rows", "replica_rng", "CHUNK"]

CHUNK = 512


def replica_rng(cfg: RunConfig, stream: int, rid: int) -> np.random.Generator:
    """The random stream of one replica, keyed by (seed, stream, replica id)."""
    return np.random.default_rng([cfg.seed, stream, rid])


def _coupled_chunk(args) -> list:
    cfg, stream, horizon, params, start, stop = args
    G = hazard_profile(cfg.inter_arrival)
    rows = []
    for rid in range(start, stop):
        rng = replica_rng(cfg, stream, rid)
        init = cfg.init.sample(rng)
        init_tilde = cfg.init_tilde.sample(rng)
        rep = run_three_phase(
            init, init_tilde, params, cfg.intake, G, cfg.metabolic, horizon, rng
        )
        po = rep.phase_outcomes
        rows.append(
            {
                "replica_id": rid,
                "tau_A": rep.tau_A,
                "tau": rep.tau,
                "n_events": rep.n_events,
                "age_merge_by_alpha": int(po["age_merge_by_alpha"]),
                "close_at_beta": int(po["close_at_beta"]),
                "jump_by_horizon": int(po["jump_by_horizon"]),
                "merged_at_first_attempt": int(po["merged_at_first_attempt"]),
                "gap_at_beta": po["gap_at_beta"],
                "l1_final": po["l1_final"],
            }
        )
    return rows


def _marginal_chunk(args) -> list:
    cfg, stream, start, stop = args
    G = hazard_profile(cfg.inter_arrival)
    rows = []
    for rid in range(start, stop):
        rng = replica_rng(cfg, stream, rid)
        init = cfg.init.sample(rng)
        log, final = simulate_path(init, cfg.intake, G, cfg.metabolic, cfg.horizon, rng)
        rows.append(
            {
                "replica_id": rid,
                "x": final.x,
                "theta": final.theta,
                "age": final.age,
                "n_events": log.n_events(),
            }
        )
    return rows


def _run(cfg: RunConfig, worker, payloads: list) -> list:
    if cfg.parallelism > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            chunks = list(pool.map(worker, payloads))
    else:
        chunks = [worker(p) for p in payloads]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: r["replica_id"])
    return rows


def coupled_rows(
    cfg: RunConfig, stream: int, horizon: float, params: CouplingPhaseParams
) -> list:
    """Three-phase coupling ensemble for one horizon; one dict per replica."""
    payloads = [
        (cfg, stream, horizon, params, start, min(start + CHUNK, cfg.n_replicas))
        for start in range(0, cfg.n_replicas, CHUNK)
    ]
    return _run(cfg, _coupled_chunk, payloads)


def marginal_rows(cfg: RunConfig, stream: int = 0) -> list:
    """Single-process ensemble at the configured horizon."""
    payloads = [
        (cfg, stream, start, min(start + CHUNK, cfg.n_replicas))
        for start in range(0, cfg.n_replicas, CHUNK)
    ]
    return _run(cfg, _marginal_chunk, payloads)
