"""Acceptance suite: analytic oracles at desk scale plus Monte Carlo
dominance checks of the theoretical convergence bounds.

Each criterion prints a single PASS/FAIL line (run pytest with -s to see
them for passing tests).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from contamsim import estimators, rates, runner
from contamsim.cli import main as cli_main
from contamsim.config import load_config
from contamsim.coupling import simulate_coupled, tv_jump_coupling
from contamsim.distributions import DistributionSpec, hazard_profile
from contamsim.pdmp import ProcessState
from oracles import (
    age_bound_sample,
    eta_quad,
    exp_case_bounds,
    forward_substitution,
    solve_renewal,
    survival_compare,
)

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"

UNIF01 = DistributionSpec.uniform(0.0, 1.0)
EXP1 = DistributionSpec.exponential(1.0)
DIRAC1 = DistributionSpec.dirac(1.0)
DIRAC0 = DistributionSpec.dirac(0.0)


def _age_coalescence_times(a0, a0_tilde, prof, n, rng) -> np.ndarray:
    """First common jumps of n coupled age pairs run to t = 25, infinite
    where it lies past that; the point-mass intake and rate laws draw
    nothing, so only the ages consume the stream."""
    rep = simulate_coupled(
        ProcessState(np.zeros(n), 1.0, a0), ProcessState(0.0, 1.0, a0_tilde),
        DIRAC0, prof, DIRAC1, 25.0, rng,
    )
    return rep.tau_A


def _report(num: int, desc: str, ok: bool):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------
# 1. Memoryless age coalescence
# ---------------------------------------------------------------------------


def test_criterion_01_constant_hazard_coalescence():
    t0 = time.monotonic()
    n = 100_000
    prof = hazard_profile(EXP1)
    rng = np.random.default_rng(101)
    taus = _age_coalescence_times(0.0, 0.7, prof, n, rng)
    mean_ok = abs(taus.mean() - 1.0) <= 3.0 * taus.std(ddof=1) / math.sqrt(n)
    s = np.sort(taus)
    emp = np.arange(1, n + 1) / n
    ks = float(np.max(np.abs(emp - (1.0 - np.exp(-s)))))
    ks_ok = ks <= 1.63 / math.sqrt(n)
    elapsed = time.monotonic() - t0
    _report(
        1,
        f"flat-hazard coalescence time is Exp(1): mean={taus.mean():.4f}, "
        f"KS={ks:.5f}, {elapsed:.1f}s",
        mean_ok and ks_ok and elapsed <= 10.0,
    )


# ---------------------------------------------------------------------------
# 2. Age-bound domination for a linear hazard
# ---------------------------------------------------------------------------


def test_criterion_02_age_bound_domination_linear_hazard():
    t0 = time.monotonic()
    n = 100_000
    prof = hazard_profile(DistributionSpec.weibull(2.0, math.sqrt(2.0)))  # zeta(t)=t
    eps, b, c = 0.5, 1.0, 2.0
    bound = rates.age_bound(prof, (eps, b, c))
    p1, p2 = bound.p1, bound.p2
    plug_ok = abs(p1 - 0.2212) < 5e-4 and abs(p2 - 0.0439) < 5e-4
    rng = np.random.default_rng(102)
    taus = _age_coalescence_times(0.0, 1.0, prof, n, rng)
    grid = np.linspace(0.5, 20.0, 20)
    dom = survival_compare(taus, age_bound_sample(bound, n, np.random.default_rng(103)), grid)
    elapsed = time.monotonic() - t0
    _report(
        2,
        f"linear-hazard coalescence dominated by its bound variable at 20 "
        f"grid points (p1={p1:.4f}, p2={p2:.4f}), {elapsed:.1f}s",
        plug_ok and dom and elapsed <= 60.0,
    )


# ---------------------------------------------------------------------------
# 3. Wasserstein contraction in the memoryless case
# ---------------------------------------------------------------------------


def test_criterion_03_wasserstein_contraction_memoryless():
    t0 = time.monotonic()
    n = 100_000
    rng = np.random.default_rng(104)
    checkpoints = (2.0, 4.0, 8.0)
    gaps = {}
    for t in checkpoints:
        # equal initial ages force age coalescence at time zero
        rep = simulate_coupled(
            ProcessState(np.full(n, 2.0), 1.0, 0.0), ProcessState(4.0, 1.0, 0.0),
            UNIF01, EXP1, DIRAC1, t, rng,
        )
        gaps[t] = np.abs(rep.y.x - rep.y_tilde.x)
    ok = True
    msgs = []
    for t in checkpoints:
        mean, half = estimators.mean_with_ci(gaps[t])
        ratio = mean / 2.0
        ok = ok and ratio <= math.exp(-t / 2.0) + 2.0 * half / 2.0
        msgs.append(f"t={t:g}: {ratio:.4f}<=e^-t/2={math.exp(-t/2):.4f}")
    elapsed = time.monotonic() - t0
    _report(
        3,
        "coupled-gap ratio within the contraction bound (" + "; ".join(msgs)
        + f"), {elapsed:.1f}s",
        ok and elapsed <= 30.0,
    )


# ---------------------------------------------------------------------------
# 4. Renewal solver against the deterministic-rate oracle
# ---------------------------------------------------------------------------


def test_criterion_04_renewal_solver_oracle():
    t0 = time.monotonic()
    kernel = rates.RenewalKernel(EXP1, DIRAC1, 1.0)
    sol = solve_renewal(kernel, w_shift=0.0, grid_step=1e-3, horizon=10.0)
    err = float(np.max(np.abs(sol.Z_tilted - np.exp(-sol.grid))))
    # the discrete system itself, solved point by point
    ref = forward_substitution(kernel, 0.0, 1e-3, 10.0)
    dev = float(np.max(np.abs(sol.Z_tilted - ref)) / np.max(np.abs(ref)))
    elapsed = time.monotonic() - t0
    _report(
        4,
        f"renewal solution matches exp(-t) (max err {err:.2e}) and the "
        f"forward substitution (relative {dev:.1e}), {elapsed:.1f}s",
        err <= 1e-3 and dev <= 1e-12 and elapsed <= 5.0,
    )


# ---------------------------------------------------------------------------
# 5. Laplace root of the discounted kernel
# ---------------------------------------------------------------------------


def test_criterion_05_laplace_root():
    t0 = time.monotonic()
    w = rates.find_w(rates.RenewalKernel(EXP1, DIRAC1, 1.0))
    elapsed = time.monotonic() - t0
    _report(
        5,
        f"bisected transform root w={w:.10f} vs analytic 1, {elapsed:.2f}s",
        abs(w - 1.0) <= 1e-8 and elapsed <= 1.0,
    )


# ---------------------------------------------------------------------------
# 6. Overlap deficit closed forms vs quadrature
# ---------------------------------------------------------------------------


def test_criterion_06_eta_closed_forms():
    t0 = time.monotonic()
    eps_grid = np.linspace(1e-3, 1.5, 1000)
    worst = 0.0
    for e in eps_grid:
        worst = max(worst, abs(eta_quad(e, UNIF01) - min(1.0, e)))
        worst = max(
            worst, abs(eta_quad(e, EXP1) - (1.0 - math.exp(-e)))
        )
    elapsed = time.monotonic() - t0
    _report(
        6,
        f"overlap deficit quadrature matches closed forms at 1000 points "
        f"(max err {worst:.2e}), {elapsed:.1f}s",
        worst <= 1e-6,
    )


# ---------------------------------------------------------------------------
# 7. Maximal jump coupling for the box intake
# ---------------------------------------------------------------------------


def test_criterion_07_tv_jump_coupling_box():
    t0 = time.monotonic()
    n = 100_000
    rng = np.random.default_rng(107)
    x, xt, ok = tv_jump_coupling(np.zeros(n), np.full(n, 0.3), UNIF01, rng)
    merged = int(ok.sum())
    intakes = np.concatenate([x, xt - 0.3])
    se = math.sqrt(0.7 * 0.3 / n)
    freq_ok = abs(merged / n - 0.7) <= 2.0 * se
    s = np.sort(intakes)
    emp = np.arange(1, len(s) + 1) / len(s)
    ks = float(np.max(np.abs(emp - np.clip(s, 0.0, 1.0))))
    # pooled sample of dependent pairs: KS threshold for n independent pairs
    ks_ok = ks <= 1.63 / math.sqrt(n)
    elapsed = time.monotonic() - t0
    _report(
        7,
        f"box-intake jump coupling merges at {merged / n:.4f} (target 0.7) "
        f"and keeps both marginals (KS {ks:.5f}), {elapsed:.1f}s",
        freq_ok and ks_ok,
    )


# ---------------------------------------------------------------------------
# 8 & 9. Reference-instance dominance and rate comparison
# ---------------------------------------------------------------------------

_REFERENCE_RUN: dict = {}


def _reference_run() -> dict:
    """Ensembles for every grid time of the reference configuration."""
    if _REFERENCE_RUN:
        return _REFERENCE_RUN
    cfg = load_config(str(REFERENCE_CONFIG))
    report = rates.convergence_bounds(cfg.intake, cfg.inter_arrival, cfg.metabolic, 6.0,
                                      holder=cfg.holder)
    tails = {}
    w1_est = {}
    tables = runner.coupled_rows(cfg, runner.VERIFY_STREAM, report, cfg.grid,
                                 columns=("tau", "l1_final"))
    for t, table in zip(cfg.grid, tables):
        tails[t] = estimators.tv_via_coupling(table["tau"], t)
        w1_est[t] = estimators.mean_with_ci(table["l1_final"])
    _REFERENCE_RUN.update(cfg=cfg, report=report, tails=tails, w1=w1_est)
    return _REFERENCE_RUN


def test_criterion_08_main_bound_dominance():
    t0 = time.monotonic()
    data = _reference_run()
    report = data["report"]
    tv_ok = True
    w1_ok = True
    for t, (_, ci_low, _) in data["tails"].items():
        tv_ok = tv_ok and ci_low <= report.tv(t)
        mean, half = data["w1"][t]
        w1_ok = w1_ok and mean - half <= report.w1(t)
    elapsed = time.monotonic() - t0
    _report(
        8,
        f"reference-instance coupling tail below the assembled distance "
        f"curves at {len(data['tails'])} grid times, {elapsed:.0f}s",
        tv_ok and w1_ok and elapsed <= 300.0,
    )


def test_criterion_09_exponential_case_rates():
    data = _reference_run()
    hd = rates.HolderData(K=1.0, h=1.0, M=1.0)
    _, _, meta = exp_case_bounds(1.0, DIRAC1, hd, x0_sum_mean=6.0, x0_max_mean=4.0, EU=0.5)
    r1_ok = abs(meta["rate_method1"] - 1.0 / 6.0) < 1e-12
    r2_ok = abs(meta["rate_method2"] - 1.0 / 4.0) < 1e-12
    better = meta["rate_method2"] > meta["rate_method1"]
    # empirical decay of the coupling tail beats the weaker bound rate
    ts, logs = [], []
    for t, (estimate, _, _) in data["tails"].items():
        if 5.0 <= t <= 20.0 and estimate > 0:
            ts.append(t)
            logs.append(math.log(estimate))
    slope = float(np.polyfit(ts, logs, 1)[0])
    slope_ok = slope <= -0.25 * (1.0 - 0.3)
    _report(
        9,
        f"split-at-intakes rate 1/4 beats deterministic-split rate 1/6; "
        f"empirical tail slope {slope:.3f} <= -0.175",
        r1_ok and r2_ok and better and slope_ok,
    )


# ---------------------------------------------------------------------------
# 10. Determinism of the verification pipeline
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    runner_cli = CliRunner()
    outputs = {}
    for tag, par in (("a", 1), ("b", 1), ("c", 8)):
        data = yaml.safe_load(REFERENCE_CONFIG.read_text())
        data["experiment"]["parallelism"] = par
        out = tmp_path / f"out_{tag}"
        data["outputs"] = {"directory": str(out)}
        cfg_path = tmp_path / f"cfg_{tag}.yaml"
        cfg_path.write_text(yaml.safe_dump(data))
        # reduced replica count keeps the three full pipeline runs quick;
        # per-block streams make each replica independent of the count
        result = runner_cli.invoke(
            cli_main,
            ["verify", "--config", str(cfg_path), "--replicas", "2000", "--quiet"],
        )
        assert result.exit_code == 0, result.output
        outputs[tag] = {
            name: (out / name).read_bytes()
            for name in ("curves_tv.csv", "curves_w1.csv", "rate_report.json")
        }
    same_seed = outputs["a"] == outputs["b"]
    par_free = outputs["a"] == outputs["c"]
    _report(
        10,
        "verification artifacts byte-identical across reruns and across "
        "1 vs 8 workers",
        same_seed and par_free,
    )
