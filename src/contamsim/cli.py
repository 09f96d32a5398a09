"""Command-line interface.

Subcommands:

* ``rates``      — compute the theoretical bound constants and curves.
* ``simulate``   — Monte Carlo ensemble of single trajectories.
* ``couple``     — three-phase coupling ensemble at the horizon.
* ``verify``     — empirical curves vs. theoretical bounds; the exit
  status reports whether the bounds dominate the estimates.
* ``dump-paths`` — event log of one replica for inspection.

All artifacts are plain CSV/JSON with deterministic formatting, so two
runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import estimators, rates, runner
from .config import RunConfig, load_config
from .coupling import CouplingPhaseParams
from .errors import ConfigError, ContamsimError

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return x


def _write_csv(path: Path, table: dict):
    """Write ``table``, a mapping of column name to values, as CSV."""
    columns = [v.tolist() if isinstance(v, np.ndarray) else v for v in table.values()]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table)
        writer.writerows([_fmt(v) for v in row] for row in zip(*columns))


def _transpose(rows: list) -> dict:
    return {name: [row[name] for row in rows] for name in rows[0]}


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _bounds(cfg: RunConfig) -> rates.RateReport:
    return rates.convergence_bounds(
        cfg.intake,
        cfg.inter_arrival,
        cfg.metabolic,
        cfg.init.x.mean() + cfg.init_tilde.x.mean(),
        alpha=cfg.alpha,
        beta=cfg.beta,
        age_params=cfg.age_params,
        holder=cfg.holder,
        p=cfg.p,
        v3=cfg.v3,
    )


def _phase_params(cfg: RunConfig, report: rates.RateReport, t: float) -> CouplingPhaseParams:
    eps = cfg.epsilon_tv if cfg.epsilon_tv is not None else report.epsilon_tv(t)
    return CouplingPhaseParams(alpha=report.alpha, beta=report.beta, epsilon_tv=eps)


def _rate_report_payload(cfg: RunConfig, report: rates.RateReport) -> dict:
    model = {
        "intake": {"family": cfg.intake.family.value, "params": list(cfg.intake.params)},
        "inter_arrival": {
            "family": cfg.inter_arrival.family.value,
            "params": list(cfg.inter_arrival.params),
        },
        "metabolic": {
            "family": cfg.metabolic.family.value,
            "params": list(cfg.metabolic.params),
        },
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "model": model,
        "constants": report.to_dict(),
        "curves": {
            "tv": {"provenance": rates.TV_PROVENANCE},
            "w1": {"provenance": rates.W1_PROVENANCE},
        },
        "constant_descriptions": {
            "w": "Laplace root of the discounted inter-arrival kernel",
            "v_G": "supremum of the exponential-moment domain of the inter-arrival law",
            "rho": "mean per-renewal contraction 1 - E[exp(-Theta*DeltaT)]",
            "q": "mean discount factor E[exp(-Theta*DeltaT)]",
            "p1": "per-attempt success probability of one age-coalescence block",
            "p2": "success probability of the outer age-coalescence round",
            "C1/v1": "constant and rate of the age-coalescence tail envelope",
            "C2/v2": "constant and rate of the closeness phase of the TV curve",
            "C3/v3": "exponential moment constant and rate of the no-jump phase",
            "C4/v4": "intake-overlap envelope contribution to the merge phase",
            "v_prime": "rate of the default closeness threshold exp(-v'(beta-alpha)t)",
            "alpha/beta": "phase boundaries as fractions of the horizon",
            "C1_w1/C2_w1": "constants of the two Wasserstein-1 terms",
        },
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _common(f):
    f = click.option("--config", "config_path", required=True, type=click.Path())(f)
    f = click.option("--seed", type=int, default=None, help="override experiment.seed")(f)
    f = click.option("--replicas", type=int, default=None, help="override n_replicas")(f)
    f = click.option("--out", type=click.Path(), default=None, help="override output dir")(f)
    f = click.option("--quiet", is_flag=True, default=False)(f)
    return f


class _Group(click.Group):
    """Translate package errors into clean CLI failures."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            raise click.UsageError(str(exc))
        except ContamsimError as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Group)
def main():
    """Monte Carlo study of a stochastic exposure process and its
    theoretical convergence bounds."""


@main.command(name="rates")
@_common
def rates_cmd(config_path, seed, replicas, out, quiet):
    """Compute bound constants and write rate_report.json."""
    cfg = load_config(config_path, seed, replicas, out)
    r = _bounds(cfg)
    path = Path(cfg.out_dir) / "rate_report.json"
    _write_json(path, _rate_report_payload(cfg, r))
    if not quiet:
        click.echo(
            f"rates: v1={_fmt(r.v1)} v2'={_fmt(r.v2_prime)} v3={_fmt(r.v3)} "
            f"alpha={_fmt(r.alpha)} beta={_fmt(r.beta)} -> {path}"
        )


@main.command()
@_common
def simulate(config_path, seed, replicas, out, quiet):
    """Simulate an ensemble of single trajectories."""
    cfg = load_config(config_path, seed, replicas, out)
    table = runner.marginal_rows(cfg)
    path = Path(cfg.out_dir) / "paths_summary.csv"
    _write_csv(path, table)
    if not quiet:
        click.echo(
            f"simulate: {len(table['x'])} replicas, mean final quantity "
            f"{_fmt(float(table['x'].mean()))} -> {path}"
        )


@main.command(name="dump-paths")
@_common
@click.option("--replica", type=click.IntRange(min=0), default=0, show_default=True)
def dump_paths(config_path, seed, replicas, out, quiet, replica):
    """Write the full event log of one replica: the replica's block of
    ``simulate`` is run again, recording its events."""
    cfg = load_config(config_path, seed, replicas, out)
    block, row = divmod(replica, runner.CHUNK)
    log, final = runner.marginal_block(cfg, 0, block, record=True)
    times, intakes, thetas = log.of(row)
    path = Path(cfg.out_dir) / f"path_{replica}.csv"
    _write_csv(path, {"t": times, "intake": intakes, "theta_after": thetas})
    if not quiet:
        click.echo(
            f"dump-paths: replica {replica}, {len(times)} events, "
            f"final quantity {_fmt(float(final.x[row]))} -> {path}"
        )


@main.command()
@_common
def couple(config_path, seed, replicas, out, quiet):
    """Run the three-phase coupling ensemble at the horizon."""
    cfg = load_config(config_path, seed, replicas, out)
    params = _phase_params(cfg, _bounds(cfg), cfg.horizon)
    table = runner.coupled_rows(cfg, stream=len(cfg.grid), horizon=cfg.horizon, params=params)
    path = Path(cfg.out_dir) / "coupling_reports.csv"
    _write_csv(path, table)
    if not quiet:
        merged = int((table["tau"] <= cfg.horizon).sum())
        click.echo(
            f"couple: {merged}/{len(table['tau'])} replicas coalesced by "
            f"t={_fmt(cfg.horizon)} -> {path}"
        )


@main.command()
@_common
def verify(config_path, seed, replicas, out, quiet):
    """Estimate distance curves and check them against the bounds.

    Exits 0 when the theoretical curves dominate the estimates (within
    the 95% confidence bands) at every grid time, 1 otherwise.
    """
    cfg = load_config(config_path, seed, replicas, out)
    report = _bounds(cfg)
    out_dir = Path(cfg.out_dir)
    _write_json(out_dir / "rate_report.json", _rate_report_payload(cfg, report))

    tv_rows, w1_rows = [], []
    ok = True
    informative = 0
    for gi, t in enumerate(cfg.grid):
        params = _phase_params(cfg, report, t)
        table = runner.coupled_rows(cfg, stream=gi, horizon=t, params=params)
        estimate, ci_low, ci_high = estimators.tv_via_coupling(table["tau"], t)
        tv_bound = report.tv(t)
        tv_ok = ci_low <= tv_bound
        # a TV bound of 1 holds for any estimate, so it verifies nothing
        vacuous = tv_bound >= 1.0
        tv_rows.append(
            {
                "t": t,
                "estimate": estimate,
                "ci_low": ci_low,
                "ci_high": ci_high,
                "bound_value": tv_bound,
                "bound_provenance": rates.TV_PROVENANCE,
                "vacuous": vacuous,
            }
        )
        mean, half = estimators.mean_with_ci(table["l1_final"])
        w1_bound = report.w1(t)
        w1_ok = mean - half <= w1_bound
        w1_rows.append(
            {
                "t": t,
                "estimate": mean,
                "ci_low": mean - half,
                "ci_high": mean + half,
                "bound_value": w1_bound,
                "bound_provenance": rates.W1_PROVENANCE,
            }
        )
        ok = ok and tv_ok and w1_ok
        informative += not vacuous
        if not quiet:
            tv_status = "vacuous" if vacuous else ("ok" if tv_ok else "VIOLATED")
            click.echo(
                f"t={_fmt(t)}: TV est {_fmt(estimate)} vs bound "
                f"{_fmt(tv_bound)} [{tv_status}]; "
                f"W1 est {_fmt(mean)} vs bound {_fmt(w1_bound)} "
                f"[{'ok' if w1_ok else 'VIOLATED'}]"
            )

    _write_csv(out_dir / "curves_tv.csv", _transpose(tv_rows))
    _write_csv(out_dir / "curves_w1.csv", _transpose(w1_rows))
    if not quiet:
        click.echo(f"verify: TV bound informative at {informative} of {len(cfg.grid)} grid times")
        click.echo("verify: bounds dominate" if ok else "verify: bound violation detected")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
