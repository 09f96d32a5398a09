"""Command-line interface.

Subcommands:

* ``rates``      — compute the theoretical bound constants and curves.
* ``simulate``   — Monte Carlo ensemble of single trajectories.
* ``couple``     — three-phase coupling ensemble at the horizon.
* ``verify``     — empirical curves vs. theoretical bounds; the exit
  status reports whether the bounds dominate the estimates.
* ``dump-paths`` — event log of one replica for inspection.

All artifacts are plain CSV/JSON with deterministic formatting, so two
runs with the same configuration produce byte-identical files.  Before a
subcommand runs, the CLI freezes the heap of the process it runs in
(``gc.freeze``), so the interpreter's exit does not walk and free what
the imports built.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import estimators, rates, runner
from .config import RunConfig, load_config
from .errors import ConfigError, ContamsimError

SCHEMA_VERSION = 3


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


_CSV_SLICE = 1024  # rows formatted at a time


def _field(values) -> str:
    """The ``%`` field of a column's cells, as :func:`_fmt` writes them:
    ``%.12g`` for floats, ``%d`` for integers and booleans (0 and 1), and
    ``%s`` for anything else, whose cells go in as quoted text."""
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        return "%.12g" if kind == "f" else "%d" if kind in "iub" else "%s"
    if all(isinstance(v, float) for v in values):
        return "%.12g"
    return "%d" if all(isinstance(v, int) for v in values) else "%s"


def _quoted(values, alone: bool) -> list[str]:
    """Text cells as ``csv.writer`` writes them: beside other cells, or
    in a row of their own when ``alone`` (an empty cell is then quoted)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for v in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((_fmt(v),) if alone else (_fmt(v), ""))
        cells.append(buf.getvalue()[:-1 if alone else -2])
    return cells


def _constant(part) -> bool:
    """Whether a slice of a numeric array holds one value, compared by its
    bits (floats through an integer view), so that 0.0 and -0.0, or NaNs
    of different payloads, stay apart."""
    bits = part.view(f"i{part.itemsize}") if part.dtype.kind == "f" else part
    return bool((bits == bits[0]).all())


def _write_csv(path: Path, table: dict):
    """Write ``table``, a mapping of column name to values, as CSV.

    The rows are written a slice at a time, each slice in one ``%`` of a
    row format string, one field per column (see :func:`_field`), with
    the slice's cells interleaved row by row.  A numeric array whose
    slice holds one value is formatted once, into that slice's row
    format."""
    columns = list(table.values())
    m, n = len(columns), min(map(len, columns), default=0)
    fields = [_field(col) for col in columns]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(table)
        for lo in range(0, n, _CSV_SLICE):
            hi = min(lo + _CSV_SLICE, n)
            row, cells = [], []
            for col, field in zip(columns, fields):
                part = col[lo:hi]
                if field != "%s" and isinstance(part, np.ndarray) and _constant(part):
                    row.append(field % part[0].item())
                    continue
                row.append(field)
                part = part.tolist() if isinstance(part, np.ndarray) else part
                cells.append(_quoted(part, m == 1) if field == "%s" else part)
            k = len(cells)
            flat = [None] * ((hi - lo) * k)
            for j, part in enumerate(cells):
                flat[j::k] = part
            fh.write(((",".join(row) + "\n") * (hi - lo)) % tuple(flat))


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
    gc.freeze()


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
    if replica >= cfg.n_replicas:
        raise click.BadParameter(
            f"{replica} is not below the replica count {cfg.n_replicas}",
            param_hint="'--replica'")
    block, row = divmod(replica, runner.CHUNK)
    log, final = runner.marginal_blocks(cfg, range(block, block + 1), record=True)
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
    (table,) = runner.coupled_rows(cfg, runner.COUPLE_STREAM, _bounds(cfg), [cfg.horizon])
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

    tables = runner.coupled_rows(cfg, runner.VERIFY_STREAM, report, cfg.grid,
                                 columns=("tau", "l1_final"))
    tv, ci_low, ci_high = np.array(
        [estimators.tv_via_coupling(table["tau"], t) for t, table in zip(cfg.grid, tables)]).T
    mean, half = np.array([estimators.mean_with_ci(table["l1_final"]) for table in tables]).T
    tv_bound = np.array([report.tv(t) for t in cfg.grid])
    w1_bound = np.array([report.w1(t) for t in cfg.grid])
    # a TV bound of 1 holds for any estimate, so it verifies nothing
    vacuous = tv_bound >= 1.0
    tv_ok = ci_low <= tv_bound
    w1_ok = mean - half <= w1_bound
    ok = bool(tv_ok.all() and w1_ok.all())
    _write_csv(out_dir / "curves_tv.csv", {
        "t": cfg.grid, "estimate": tv, "ci_low": ci_low, "ci_high": ci_high,
        "bound_value": tv_bound, "bound_provenance": [rates.TV_PROVENANCE] * len(cfg.grid),
        "vacuous": vacuous,
    })
    _write_csv(out_dir / "curves_w1.csv", {
        "t": cfg.grid, "estimate": mean, "ci_low": mean - half, "ci_high": mean + half,
        "bound_value": w1_bound, "bound_provenance": [rates.W1_PROVENANCE] * len(cfg.grid),
    })
    if not quiet:
        for i, t in enumerate(cfg.grid):
            tv_status = "vacuous" if vacuous[i] else ("ok" if tv_ok[i] else "VIOLATED")
            click.echo(
                f"t={_fmt(t)}: TV est {_fmt(tv[i])} vs bound {_fmt(tv_bound[i])} [{tv_status}]; "
                f"W1 est {_fmt(mean[i])} vs bound {_fmt(w1_bound[i])} "
                f"[{'ok' if w1_ok[i] else 'VIOLATED'}]"
            )
        informative = int((~vacuous).sum())
        click.echo(f"verify: TV bound informative at {informative} of {len(cfg.grid)} grid times")
        click.echo("verify: bounds dominate" if ok else "verify: bound violation detected")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
