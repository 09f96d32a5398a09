"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import contamsim
from contamsim.cli import main
from contamsim.config import RunConfig, load_config
from contamsim.errors import ConfigError

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


def test_cli_import_leaves_out_scipy_signal():
    # importing scipy.signal adds about 0.7 s to the start-up of every command
    src = str(Path(contamsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, contamsim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


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
    assert payload["schema_version"] == 2
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


def test_replica_override(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, {"outputs": {"directory": str(out)}})
    result = CliRunner().invoke(
        main, ["simulate", "--config", str(cfg), "--replicas", "7", "--quiet"]
    )
    assert result.exit_code == 0, result.output
    assert len((out / "paths_summary.csv").read_text().splitlines()) == 1 + 7


def test_byte_identical_reruns_and_parallelism(tmp_path):
    # 1100 replicas make three chunks, so parallelism 2 really uses workers
    runner = CliRunner()
    artifacts = {
        "simulate": ("paths_summary.csv",),
        "couple": ("coupling_reports.csv",),
        "verify": ("curves_tv.csv", "curves_w1.csv"),
    }
    outputs = {}
    for tag, par in (("a", 1), ("b", 1), ("c", 2)):
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
    # dump-paths replays replica 5 of simulate from the same stream
    result = runner.invoke(
        main, ["dump-paths", "--config", str(tmp_path / "cfg_a.yaml"), "--replica", "5"]
    )
    assert result.exit_code == 0, result.output
    events = (tmp_path / "out_a" / "path_5.csv").read_text().splitlines()[1:]
    summary = outputs["a"]["paths_summary.csv"].decode().splitlines()
    assert summary[0].split(",")[-1] == "n_events"
    assert len(events) == int(summary[1 + 5].split(",")[-1])


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
