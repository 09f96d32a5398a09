"""End-to-end tests of the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contamsim
from contamsim.cli import _fmt, _write_csv, main
from contamsim.config import RunConfig, load_config
from contamsim.distributions import Family
from contamsim.errors import ConfigError
from contamsim.rates import RateReport

BASE_CONFIG = {
    "model": {
        "intake": {"family": "uniform", "params": [0.0, 1.0]},
        "inter_arrival": {"family": "exponential", "params": [1.0]},
        "metabolic": {"family": "dirac", "params": [1.0]},
        "init": {"x": 2.0, "theta": 1.0, "age": 0.0},
        "init_tilde": {"x": 4.0, "theta": 1.0, "age": 0.0},
    },
    "experiment": {
        "seed": 11,
        "horizon": 6.0,
        "grid": [2.0, 6.0],
        "n_replicas": 120,
        "parallelism": 1,
    },
}


def _write_config(tmp_path, overrides=None, name="cfg.yaml"):
    data = json.loads(json.dumps(BASE_CONFIG))  # deep copy
    for section, values in (overrides or {}).items():
        data.setdefault(section, {}).update(values)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def test_config_parsing(tmp_path):
    cfg = load_config(str(_write_config(tmp_path)))
    assert cfg.seed == 11
    assert cfg.intake.family.value == "uniform"
    assert cfg.init.x.params == (2.0,)
    assert cfg.n_replicas == 120
    # CLI overrides fill a section that is present but empty
    data = dict(BASE_CONFIG, experiment=None)
    path = tmp_path / "empty_experiment.yaml"
    path.write_text(yaml.safe_dump(data))
    assert load_config(str(path), seed=3).seed == 3


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.yaml"))
    delete = object()
    cases = [  # (section, key, value or delete, expected message)
        ("experiment", "seed", delete, "seed"),  # the seed is mandatory
        ("model", "intake", {"family": "uniform"}, "model.intake"),  # no params
        ("model", "intake", {"family": "cauchy", "params": [0.0, 1.0]}, "cauchy"),
        ("experiment", "grid", [100.0], "grid"),  # beyond the horizon
        ("model", "holder", {"h": 1.0, "M": 1.0}, "model.holder.K"),
        ("experiment", "seed", "abc", "experiment.seed"),
        # the removed numerics keys are unknown now
        ("rates", "renewal_step", 0, "rates.renewal_step"),
        ("rates", "w_eps_frac", 1.0, "rates.w_eps_frac"),
        ("rates", "n_mc_tail", 0, "rates.n_mc_tail"),
        ("experiment", "horizon", -1, "experiment.horizon"),
        ("experiment", "grid", [-1, 2], "experiment.grid"),
        ("experiment", "n_replica", 7, "experiment.n_replica"),  # typo of n_replicas
        ("model", "intake", {"family": "uniform", "params": [0, 1], "scale": 2},
         "model.intake.scale"),
        # an integer key rejects a value it would have to truncate
        ("experiment", "seed", 2.7, "experiment.seed"),
        ("experiment", "n_replicas", 2.5, "experiment.n_replicas"),
        ("experiment", "parallelism", 1.5, "experiment.parallelism"),
        ("experiment", "n_replicas", 1000.5, "experiment.n_replicas"),
        ("experiment", "n_replicas", float("inf"), "experiment.n_replicas"),
        # the replica streams need a non-negative seed; no worker is no run
        ("experiment", "seed", -1, "experiment.seed"),
        ("experiment", "parallelism", 0, "experiment.parallelism"),
        # a closeness threshold outside (0, 1) is rejected, not clamped
        ("coupling", "epsilon_tv", 5.0, "coupling.epsilon_tv"),
        ("coupling", "epsilon_tv", -1.0, "coupling.epsilon_tv"),
        # the smoothness data must lie in the domain of the envelope formulas
        ("model", "holder", {"K": 1.0, "h": 0.0, "M": 1.0}, "model.holder.h"),
        ("model", "holder", {"K": 1.0, "h": -1.0, "M": 1.0}, "model.holder.h"),
        ("model", "holder", {"K": 1.0, "h": 2.0, "M": 1.0}, "model.holder.h"),
        ("model", "holder", {"K": 0.0, "h": 1.0, "M": 1.0}, "model.holder.K"),
        ("model", "holder", {"K": 1.0, "h": 1.0, "M": 0.0}, "model.holder.M"),
        ("model", "holder", {"K": 1.0, "h": 1.0, "C_tail": 0.0, "p_tail": 3.0},
         "model.holder.C_tail"),
        ("model", "holder", {"K": 1.0, "h": 1.0, "C_tail": 1.0, "p_tail": 2.0},
         "model.holder.p_tail"),
        # the envelope reads M or the whole tail pair; nothing else is accepted
        ("model", "holder", {"K": 1.0, "h": 1.0, "C_tail": 1.0},
         "model.holder.p_tail is required with C_tail"),
        ("model", "holder", {"K": 1.0, "h": 1.0, "p_tail": 3.0},
         "model.holder.C_tail is required with p_tail"),
        ("model", "holder", {"K": 1.0, "h": 1.0}, r"model.holder.M or the tail pair"),
    ]
    for section, key, value, message in cases:
        bad = json.loads(json.dumps(BASE_CONFIG))
        if value is delete:
            del bad[section][key]
        else:
            bad.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(bad)
    with pytest.raises(ConfigError, match="'experimnt'"):  # unknown section
        RunConfig.from_dict(dict(BASE_CONFIG, experimnt={}))
    # ... but takes an integral float
    cfg = RunConfig.from_dict(
        dict(BASE_CONFIG, experiment=dict(BASE_CONFIG["experiment"], n_replicas=1.0e3)))
    assert cfg.n_replicas == 1000 and isinstance(cfg.n_replicas, int)
    # the phase pair and the age triple are given whole or not at all
    for coupling, missing in (
        ({"alpha": 0.3}, "coupling.beta"),
        ({"beta": 0.7}, "coupling.alpha"),
        ({"b": 0.9}, "coupling.epsilon_age"),
        ({"epsilon_age": 0.6, "b": 0.9}, "coupling.c"),
        ({"epsilon_age": 0.6, "c": 2.0}, "coupling.b"),
    ):
        with pytest.raises(ConfigError, match=f"{missing} is required"):
            RunConfig.from_dict(dict(BASE_CONFIG, coupling=coupling))
    cfg = RunConfig.from_dict(dict(BASE_CONFIG, coupling={
        "alpha": 0.3, "beta": 0.7, "epsilon_age": 0.6, "b": 0.9, "c": 2.0}))
    assert (cfg.alpha, cfg.beta, cfg.age_params) == (0.3, 0.7, (0.6, 0.9, 2.0))


def test_cli_runs_load_no_scipy(tmp_path):
    # importing scipy costs about 0.6 s of every command's start-up; of the
    # laws, only the gamma family's incomplete-gamma functions need it
    root = Path(__file__).resolve().parents[1]
    src = str(Path(contamsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    gamma = _write_config(tmp_path, {"model": {
        "inter_arrival": {"family": "gamma", "params": [3.0, 1.0]}}})
    runs = [
        ["verify", "--config", str(root / "configs" / "reference.yaml"), "--replicas", "200"],
        ["verify", "--config", str(root / "perfbench" / "configs" / "verify-weibull.yaml"),
         "--replicas", "20"],
        ["rates", "--config", str(gamma)],
    ]
    runs = [args + ["--out", str(tmp_path / f"run{i}"), "--quiet"] for i, args in enumerate(runs)]
    # nor does any command at parallelism 1 import the process pool, and
    # each freezes the heap its imports built, so that exit skips it
    code = (
        "import gc, json, sys\n"
        "def loaded_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy')\n"
        "                  or m in ('multiprocessing', 'concurrent.futures.process'))\n"
        "import contamsim.cli\n"
        "loaded, frozen = [loaded_modules()], []\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        contamsim.cli.main(args, standalone_mode=False)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (args, exc.code)\n"
        "    loaded.append(loaded_modules())\n"
        "    frozen.append(gc.get_freeze_count())\n"
        "print(json.dumps([loaded, frozen]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                            capture_output=True, text=True, timeout=300, check=True)
    loaded, frozen = json.loads(result.stdout)
    after_import, after_reference, after_weibull, after_gamma = loaded
    assert after_import == after_reference == after_weibull == []
    assert "scipy.special" in after_gamma
    assert "multiprocessing" not in after_gamma
    assert "concurrent.futures.process" not in after_gamma
    assert frozen[0] > 0
    assert (tmp_path / "run2" / "rate_report.json").exists()


def test_cli_reports_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("model: {intake: 3}\n")
    result = CliRunner().invoke(main, ["rates", "--config", str(path)])
    assert result.exit_code == 2
    assert "experiment" in result.output


def test_rates_rejects_zero_holder_exponent(tmp_path):
    # h = 0 used to end in a ZeroDivisionError traceback
    cfg = _write_config(tmp_path, {"model": {"holder": {"K": 1.0, "h": 0.0, "M": 1.0}}})
    result = CliRunner().invoke(main, ["rates", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "model.holder.h" in result.output and "Traceback" not in result.output


def test_rates_rejects_short_blowup_age(tmp_path):
    # uniform(1.0, 1.4) waits: the hazard blows up at d = 1.4 <= 3a/2 = 1.5
    cfg = _write_config(tmp_path, {
        "model": {"inter_arrival": {"family": "uniform", "params": [1.0, 1.4]}},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(main, ["rates", "--config", str(cfg)])
    assert result.exit_code == 1, result.output
    assert "d > 3a/2" in result.output and "Traceback" not in result.output


def test_rates_rejects_unused_age_params(tmp_path):
    # exponential waits have a hazard bounded below, which builds no age
    # bound: the three keys were accepted and silently ignored
    cfg = _write_config(tmp_path, {
        "coupling": {"epsilon_age": 5.0, "b": 1.0, "c": 2.0},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(main, ["rates", "--config", str(cfg)])
    assert result.exit_code == 1, result.output
    assert "epsilon_age, b and c" in result.output and "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_rates_rejects_kernel_order_below_one(tmp_path):
    # p < 1 passed the loader and the renewal kernel rejected it: exit 1
    # with an assumption error instead of 2 with the key that is wrong
    cfg = _write_config(tmp_path, {
        "rates": {"p": 0.5},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(main, ["rates", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "rates.p" in result.output and "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("law, key, value", [
    ("init", "theta", 0),
    ("init", "theta", {"family": "uniform", "params": [-0.5, 1.0]}),
    ("init", "x", -1),
    ("init", "x", {"family": "uniform", "params": [-1.0, 1.0]}),
    ("init_tilde", "age", -0.5),
    ("init_tilde", "age", {"family": "uniform", "params": [-0.5, 0.5]}),
])
def test_cli_rejects_invalid_initial_law(tmp_path, law, key, value):
    # theta = 0 passed the loader, so rates exited 0 and simulate 1 with
    # "invalid process state"; x = -1 exited 1 without naming its key
    init = {**BASE_CONFIG["model"][law], key: value}
    cfg = str(_write_config(tmp_path, {
        "model": {**BASE_CONFIG["model"], law: init},
        "outputs": {"directory": str(tmp_path / "out")},
    }))
    for command in ("rates", "simulate"):
        result = CliRunner().invoke(main, [command, "--config", cfg, "--quiet"])
        assert result.exit_code == 2, result.output
        assert f"model.{law}.{key}" in result.output and "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_cli_rejects_negative_seed_and_replica(tmp_path):
    cfg = str(_write_config(tmp_path, {"outputs": {"directory": str(tmp_path / "out")}}))
    for args, message in (
        (["simulate", "--config", cfg, "--replicas", "3", "--seed", "-1"], "experiment.seed"),
        (["dump-paths", "--config", cfg, "--replica", "-2"], "--replica"),
    ):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "Traceback" not in result.output
        assert not isinstance(result.exception, ValueError)


def test_rates_command(tmp_path):
    cfg = _write_config(tmp_path, {"outputs": {"directory": str(tmp_path / "out")}})
    result = CliRunner().invoke(main, ["rates", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "rate_report.json").read_text())
    assert payload["schema_version"] == 3
    consts = payload["constants"]
    assert consts["rho"] == pytest.approx(0.5)
    assert consts["alpha"] == pytest.approx(1.0 / 7.0)
    assert payload["curves"]["tv"]["provenance"]


def test_rates_rejects_missing_exponential_moment(tmp_path):
    # E[exp(64 * DeltaT)] for DeltaT ~ uniform(0, 30) overflows a float
    cfg = _write_config(tmp_path, {
        "model": {"inter_arrival": {"family": "uniform", "params": [0.0, 30.0]}},
        "rates": {"v3": 64.0},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(main, ["rates", "--config", str(cfg)])
    assert result.exit_code == 1
    assert "exponential moment" in result.output


def test_simulate_and_dump_paths(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {"outputs": {"directory": str(out)}})
    runner = CliRunner()
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--quiet"])
    assert result.exit_code == 0, result.output
    lines = (out / "paths_summary.csv").read_text().splitlines()
    assert lines[0] == "replica_id,x,theta,age,n_events"
    assert len(lines) == 1 + 120
    result = runner.invoke(main, ["dump-paths", "--config", str(cfg), "--replica", "5"])
    assert result.exit_code == 0, result.output
    assert (out / "path_5.csv").read_text().startswith("t,intake,theta_after")


def test_couple_command(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {"outputs": {"directory": str(out)}})
    result = CliRunner().invoke(main, ["couple", "--config", str(cfg), "--quiet"])
    assert result.exit_code == 0, result.output
    lines = (out / "coupling_reports.csv").read_text().splitlines()
    assert lines[0].startswith("replica_id,tau_A,tau,")
    assert len(lines) == 1 + 120


def test_verify_command_and_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {"outputs": {"directory": str(out)}})
    result = CliRunner().invoke(main, ["verify", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    # the TV bound is 1 at t = 2 and t = 6: both points are vacuous, not ok
    assert "TV bound informative at 0 of 2 grid times" in result.output
    assert result.output.count("[vacuous]") == 2
    for name in ("curves_tv.csv", "curves_w1.csv", "rate_report.json"):
        assert (out / name).exists()
    header = (out / "curves_tv.csv").read_text().splitlines()[0]
    assert header == "t,estimate,ci_low,ci_high,bound_value,bound_provenance,vacuous"
    assert [line.split(",")[-1] for line in (out / "curves_tv.csv").read_text().splitlines()[1:]] \
        == ["1", "1"]


@pytest.mark.parametrize("curve", ["tv", "w1"])
def test_verify_fails_on_a_violated_bound(tmp_path, monkeypatch, curve):
    # a bound of 0 lies below every estimate that is not 0
    monkeypatch.setattr(RateReport, curve, lambda self, t: 0.0)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {"outputs": {"directory": str(out)}})
    result = CliRunner().invoke(main, ["verify", "--config", str(cfg)])
    assert result.exit_code == 1, result.output
    lines = [line for line in result.output.splitlines() if line.startswith("t=")]
    assert len(lines) == 2
    for line in lines:
        tv_part, w1_part = line.split("; ")
        assert tv_part.endswith("[VIOLATED]" if curve == "tv" else "[vacuous]"), line
        assert w1_part.endswith("[VIOLATED]" if curve == "w1" else "[ok]"), line
    assert "verify: bound violation detected" in result.output
    rows = list(csv.DictReader((out / "curves_tv.csv").read_text().splitlines()))
    assert [row["vacuous"] for row in rows] == (["0", "0"] if curve == "tv" else ["1", "1"])


def test_replica_override(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {"outputs": {"directory": str(out)}})
    result = CliRunner().invoke(
        main, ["simulate", "--config", str(cfg), "--replicas", "7", "--quiet"]
    )
    assert result.exit_code == 0, result.output
    assert len((out / "paths_summary.csv").read_text().splitlines()) == 1 + 7


def test_byte_identical_reruns_and_parallelism(tmp_path, monkeypatch):
    # 1100 replicas make three blocks, the last one partial: parallelism 1
    # runs them in one batch (with both grid times for verify),
    # parallelism 2 spreads them over two payloads, so the workers really
    # run, and a batch as wide as one block runs each block on its own
    from contamsim import runner as replica_runner

    payloads = []
    real_run = replica_runner._run

    def counting(cfg, worker, work, ids):
        payloads.append((tag, len(work)))
        return real_run(cfg, worker, work, ids)

    monkeypatch.setattr(replica_runner, "_run", counting)
    runner = CliRunner()
    artifacts = {
        "simulate": ("paths_summary.csv",),
        "couple": ("coupling_reports.csv",),
        "verify": ("curves_tv.csv", "curves_w1.csv"),
    }
    outputs = {}
    wide = replica_runner.GROUP_COLUMNS
    for tag, par, group in (("a", 1, wide), ("b", 1, wide), ("c", 2, wide),
                            ("d", 1, replica_runner.CHUNK)):
        monkeypatch.setattr(replica_runner, "GROUP_COLUMNS", group)
        out = tmp_path / f"out_{tag}"
        cfg = _write_config(
            tmp_path,
            {
                "outputs": {"directory": str(out)},
                "experiment": dict(BASE_CONFIG["experiment"], parallelism=par),
            },
            name=f"cfg_{tag}.yaml",
        )
        outputs[tag] = {}
        for command, names in artifacts.items():
            result = runner.invoke(
                main, [command, "--config", str(cfg), "--replicas", "1100", "--quiet"]
            )
            assert result.exit_code == 0, result.output
            outputs[tag].update({name: (out / name).read_bytes() for name in names})
    assert outputs["a"] == outputs["b"]  # same seed, same bytes
    assert outputs["a"] == outputs["c"]  # worker count has no effect
    assert outputs["a"] == outputs["d"]  # nor has the grouping of blocks
    for tag, counts in (("a", [1, 1, 1]), ("c", [2, 2, 2]), ("d", [3, 3, 3])):
        assert [n for run, n in payloads if run == tag] == counts
    # dump-paths replays replica 5 of simulate from the same stream
    result = runner.invoke(
        main, ["dump-paths", "--config", str(tmp_path / "cfg_a.yaml"), "--replica", "5"]
    )
    assert result.exit_code == 0, result.output
    events = (tmp_path / "out_a" / "path_5.csv").read_text().splitlines()[1:]
    summary = outputs["a"]["paths_summary.csv"].decode().splitlines()
    assert summary[0].split(",")[-1] == "n_events"
    assert len(events) == int(summary[1 + 5].split(",")[-1])


def _write_csv_by_value(path, table):
    """The CSV writer as it was: every value through _fmt on its own."""
    columns = [v.tolist() if isinstance(v, np.ndarray) else v for v in table.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table)
        writer.writerows([_fmt(v) for v in row] for row in zip(*columns))


def test_csv_columns_in_bulk_write_the_bytes_of_value_by_value(tmp_path):
    n = 2 * 4096 + 7  # eight full slices of 1024 rows and a part
    rng = np.random.default_rng(0)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    floats[:6] = [math.inf, -math.inf, math.nan, -0.0, 1e-300, 0.1 + 0.2]
    floats[4096:4099] = [5e-324, 1.7976931348623157e308, 0.0]
    table = {
        "f": floats,
        "i": rng.integers(-2**62, 2**62, n),
        "b": rng.random(n) < 0.5,
        "small": rng.integers(0, 5, n, dtype=np.int8),
        "listed": (floats[::-1] / 3.0).tolist(),
        "text": [("a,b" if k % 3 else 'say "hi"') if k % 2 else "plain" for k in range(n)],
    }
    _write_csv(tmp_path / "bulk.csv", table)
    _write_csv_by_value(tmp_path / "by_value.csv", table)
    bulk, by_value = ((tmp_path / name).read_bytes() for name in ("bulk.csv", "by_value.csv"))
    lines, expected = bulk.decode().splitlines(), by_value.decode().splitlines()
    # the first differing row, not a diff of 8 000 rows
    first = next((k for k, pair in enumerate(zip(lines, expected)) if pair[0] != pair[1]), None)
    assert first is None, (first, lines[first], expected[first])
    assert len(lines) == 1 + n and bulk == by_value
    assert lines[1].startswith("inf,") and '"a,b"' in lines[2]
    # an empty table is its header
    _write_csv(tmp_path / "empty.csv", {"t": np.empty(0), "k": np.empty(0, dtype=np.int64)})
    assert (tmp_path / "empty.csv").read_text() == "t,k\n"


def test_block_contract(tmp_path):
    # replicas run in blocks of 512, each from its own stream, so row k
    # does not depend on the replica count; 700 and 1100 end mid-block
    runner = CliRunner()
    texts = {}
    for n in (700, 1100):
        out = tmp_path / f"out_{n}"
        cfg = _write_config(tmp_path, {"outputs": {"directory": str(out)}}, name=f"cfg_{n}.yaml")
        for command in ("simulate", "couple"):
            result = runner.invoke(
                main, [command, "--config", str(cfg), "--replicas", str(n), "--quiet"]
            )
            assert result.exit_code == 0, result.output
        texts[n] = {name: (out / name).read_text().splitlines()
                    for name in ("paths_summary.csv", "coupling_reports.csv")}
    for name, lines in texts[700].items():
        assert len(lines) == 1 + 700 and len(texts[1100][name]) == 1 + 1100
        assert lines == texts[1100][name][: 1 + 700], name
    # dump-paths replays a row of the first block and one of the second
    summary = texts[1100]["paths_summary.csv"]
    for k in (5, 600):
        result = runner.invoke(
            main, ["dump-paths", "--config", str(tmp_path / "cfg_1100.yaml"), "--replica", str(k)]
        )
        assert result.exit_code == 0, result.output
        events = (tmp_path / "out_1100" / f"path_{k}.csv").read_text().splitlines()
        assert events[0] == "t,intake,theta_after"
        replica_id, x, _, age, n_events = summary[1 + k].split(",")
        assert int(replica_id) == k and len(events) - 1 == int(n_events)
        # the last event time and the final age add up to the horizon
        last = float(events[-1].split(",")[0]) if len(events) > 1 else 0.0
        assert last + float(age) == pytest.approx(6.0, abs=1e-9)
        assert f"final quantity {x} " in result.output


def test_seed_changes_results(tmp_path):
    runner = CliRunner()
    texts = []
    for seed in (1, 2):
        out = tmp_path / f"out_{seed}"
        cfg = _write_config(tmp_path, {"outputs": {"directory": str(out)}},
                            name=f"cfg_{seed}.yaml")
        result = runner.invoke(
            main, ["couple", "--config", str(cfg), "--seed", str(seed), "--quiet"]
        )
        assert result.exit_code == 0, result.output
        texts.append((out / "coupling_reports.csv").read_text())
    assert texts[0] != texts[1]


def test_reference_config_parses():
    path = Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"
    cfg = load_config(str(path))
    assert cfg.horizon == 20.0
    assert cfg.init.x.params == (2.0,)
    assert cfg.holder is not None and cfg.holder.M == 1.0


_POSITIVE = st.floats(0.1, 10.0)
_SHAPE = st.floats(0.5, 10.0)  # the loader rejects waits of shape below 1
_OFFSET = st.floats(0.0, 5.0)


def _law(family, *params):
    return {"family": family, "params": list(params)}


# every family with bounded parameters; the uniform law is [lo, lo + width]
_LAW_RECORDS = st.one_of(
    st.builds(partial(_law, "exponential"), _POSITIVE),
    st.builds(partial(_law, "gamma"), _SHAPE, _POSITIVE),
    st.builds(lambda lo, width: _law("uniform", lo, lo + width), _OFFSET, _POSITIVE),
    st.builds(partial(_law, "weibull"), _SHAPE, _POSITIVE),
    st.builds(partial(_law, "dirac"), _OFFSET),
    st.builds(partial(_law, "shifted_exponential"), _OFFSET, _POSITIVE),
)
_INITS = st.fixed_dictionaries({"x": _OFFSET, "theta": _POSITIVE, "age": _OFFSET})
_CONFIGS = st.fixed_dictionaries(
    {
        "model": st.fixed_dictionaries(
            {
                "intake": _LAW_RECORDS,
                "inter_arrival": _LAW_RECORDS,
                "metabolic": _LAW_RECORDS,
                "init": _INITS,
                "init_tilde": _INITS,
            },
            optional={
                "holder": st.fixed_dictionaries(
                    {"K": _POSITIVE, "h": st.floats(0.1, 1.0), "M": _POSITIVE}
                ),
            },
        ),
        "coupling": st.builds(
            lambda *groups: {k: v for group in groups if group for k, v in group.items()},
            st.none() | st.fixed_dictionaries({"alpha": st.floats(0.0, 1.0),
                                               "beta": st.floats(0.0, 1.0)}),
            st.none() | st.fixed_dictionaries({"epsilon_age": _POSITIVE, "b": _POSITIVE,
                                               "c": _POSITIVE}),
        ),
        "rates": st.fixed_dictionaries({}, optional={"p": st.floats(0.5, 2.0), "v3": _POSITIVE}),
    }
)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=_CONFIGS)
def test_accepted_configs_complete_rates_or_fail_cleanly(data):
    # a config from_dict accepts either completes `rates` or exits 1 with
    # the message of a package error, never with a traceback
    data = dict(data, experiment={"seed": 1, "horizon": 6.0})
    try:
        cfg = RunConfig.from_dict(data)
    except ConfigError:
        assume(False)
    # a Weibull metabolic law of shape other than 1 has no closed-form
    # transform, and with waits other than exponential the renewal kernel
    # nests one quadrature in another, 3 to 70 s a call; left out for time
    assume(not (cfg.metabolic.family is Family.WEIBULL and cfg.metabolic.params[0] != 1.0
                and cfg.inter_arrival.family is not Family.EXPONENTIAL))
    with tempfile.TemporaryDirectory() as tmp:
        data["outputs"] = {"directory": tmp}
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        result = CliRunner().invoke(main, ["rates", "--config", str(path), "--quiet"])
        assert result.exit_code in (0, 1), (data, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            data, result.exception)
        if result.exit_code == 0:
            assert (Path(tmp) / "rate_report.json").exists()
        else:
            assert result.output.startswith("Error: "), (data, result.output)
        assert "Traceback" not in result.output
