"""The benchmark's workloads and the output check of each.

The checks read the artifacts of one run and never compare bytes with a
stored copy, so a legitimate change of the random-number contract (new
streams, new seeding) passes them.  What they require:

* every row of ``curves_tv.csv`` and ``curves_w1.csv`` is not violated:
  the lower confidence limit of the estimate is at most the bound;
* the constants of ``rate_report.json`` that no random draw feeds equal
  the stored values to a relative tolerance of 1e-6 (a different
  quadrature or root bracket moves them by far less).  On
  ``verify-weibull`` the age-tail constants come from a Monte Carlo
  sample and are only checked for being well formed;
* for ``simulate``, the mean final quantity and the mean number of
  events per replica each lie within 5 standard errors of their exact
  means, so a correct program fails one of them with a probability
  below 1e-6 per run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REL_TOL = 1e-6
Z_CHECK = 5.0

# Reference instance: Exp(1) waiting times, Uniform(0, 1) intakes, unit
# metabolic rate.  Every constant is in closed form.
REFERENCE_CONSTANTS = {
    "p": 1.0, "w": 0.5, "v_G": 1.0, "rho": 0.5, "q": 0.5,
    "case": None, "p1": None, "p2": None, "eps_age": None, "b": None, "c": None,
    "C_renewal": 1.0, "eta_C": 1.0, "eta_v": 1.0,
    "C1": 1.0, "v1": 1.0, "C2_prime": 1.0, "v2_prime": 0.5, "C2": 20.0, "v2": 0.25,
    "C3": 2.0, "v3": 0.5, "C4": 1.0, "v4": 0.25, "v_prime": 0.25,
    "alpha": 1.0 / 7.0, "beta": 5.0 / 7.0, "C1_w1": 24.0, "C2_w1": 20.0,
}

# perfbench/configs/verify-weibull.yaml, the constants no draw feeds.
WEIBULL_CONSTANTS = {
    "p": 1.0, "w": 0.18960548238828778, "v_G": "inf",
    "rho": 0.15172771173426247, "q": 0.8482722882657375,
    "case": "iii", "p1": 0.09350953781417137, "p2": 0.07207966850211824,
    "eps_age": 0.2215567313631895, "b": 0.443113462726379, "c": 1.1077836568159476,
    "C_renewal": 1.0, "eta_C": 1.0, "eta_v": 1.0,
    "C2_prime": 1.0, "v2_prime": 0.18012520826887338,
    "C2": 19.663954379501277, "v2": 0.09006260413443669,
    "C3": 2.730234433703698, "v3": 1.0, "C4": 1.0, "v4": 0.09006260413443669,
    "v_prime": 0.09006260413443669, "C2_w1": 19.663954379501277,
}

# Exact means at the reference horizon t = 20 from x0 = 2: the quantity
# relaxes to E[U] * lambda / theta = 0.5, and the intakes are a rate-1
# Poisson process.
SIMULATE_MEAN_X = 0.5 + 1.5 * math.exp(-20.0)
SIMULATE_MEAN_EVENTS = 20.0


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_constants(report: dict, expected: dict) -> list[str]:
    errors = []
    for key, want in expected.items():
        got = report.get(key)
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL)
        else:
            ok = got == want
        if not ok:
            errors.append(f"rate_report constant {key} = {got!r}, expected {want!r}")
    return errors


def _check_age_tail(report: dict) -> list[str]:
    """The Monte Carlo age-tail constants of an unbounded-hazard run."""
    values = [report.get(k) for k in ("C1", "v1", "alpha", "beta", "C1_w1")]
    c1, v1, alpha, beta, c1_w1 = values
    numbers = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if numbers and c1 >= 1.0 and v1 > 0.0 and 0.0 < alpha < beta < 1.0 and c1_w1 > 0.0:
        return []
    return [f"malformed age-tail constants C1={c1!r} v1={v1!r} alpha={alpha!r} beta={beta!r}"]


def check_verify(out: Path, replicas: int, constants: dict, age_tail: bool) -> tuple[list[str], int]:
    """Errors found in a ``verify`` run, and the replica runs it made."""
    errors = []
    grids = []
    for name in ("curves_tv.csv", "curves_w1.csv"):
        rows = _read_csv(out / name)
        grids.append([row["t"] for row in rows])
        for row in rows:
            if not float(row["ci_low"]) <= float(row["bound_value"]):
                errors.append(f"{name}: bound violated at t={row['t']}")
    if grids[0] != grids[1] or not grids[0]:
        errors.append("curves_tv.csv and curves_w1.csv disagree on the grid")
    report = json.loads((out / "rate_report.json").read_text())["constants"]
    errors += _check_constants(report, constants)
    if age_tail:
        errors += _check_age_tail(report)
    return errors, replicas * len(grids[0])


def check_simulate(out: Path, replicas: int) -> tuple[list[str], int]:
    """Errors found in a ``simulate`` run on the reference instance."""
    rows = _read_csv(out / "paths_summary.csv")
    errors = []
    if [int(r["replica_id"]) for r in rows] != list(range(replicas)):
        errors.append(f"paths_summary.csv does not hold replicas 0..{replicas - 1}")
    for column, exact in (("x", SIMULATE_MEAN_X), ("n_events", SIMULATE_MEAN_EVENTS)):
        values = [float(r[column]) for r in rows]
        n = len(values)
        mean = sum(values) / n
        se = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1) / n)
        if abs(mean - exact) > Z_CHECK * se:
            errors.append(
                f"mean {column} {mean:.6g} is not within {Z_CHECK} s.e. ({se:.3g}) of {exact:.6g}"
            )
    return errors, len(rows)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    config: str  # relative to the checkout root
    replicas: int
    check: Callable[[Path, int], tuple[list[str], int]]

    def cli_args(self, root: Path, seed: int, out: Path) -> list[str]:
        return [
            self.command, "--config", str(root / self.config), "--seed", str(seed),
            "--replicas", str(self.replicas), "--out", str(out),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-reference",
            "verify, reference config, 2500 replicas x 9 grid times: coupled kernel, jump coupling "
            "and seeding; bound assembly is under 1 ms",
            "verify", "configs/reference.yaml", 2500,
            lambda out, n: check_verify(out, n, REFERENCE_CONSTANTS, age_tail=False),
        ),
        Workload(
            "verify-weibull",
            "verify, Weibull(2,1) waits, gamma(2,0.1) rates, ages 0 vs 0.5, 300 replicas x 4 times: "
            "bound assembly (age-tail Monte Carlo, renewal solver) dominates",
            "verify", "perfbench/configs/verify-weibull.yaml", 300,
            lambda out, n: check_verify(out, n, WEIBULL_CONSTANTS, age_tail=True),
        ),
        Workload(
            "simulate-reference",
            "simulate, reference config, 20000 replicas: single-path kernel, seeding and one CSV row "
            "per replica; no bounds and no coupling",
            "simulate", "configs/reference.yaml", 20000,
            check_simulate,
        ),
    )
}
