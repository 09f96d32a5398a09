"""Run-configuration parsing (YAML).

The schema is documented in the README.  Distribution entries are
tagged records ``{family, params}``; initial-condition components may
be plain numbers (point masses) or tagged records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import yaml

from .distributions import DistributionSpec, Family, Role
from .errors import ConfigError
from .rates import HolderData

__all__ = ["InitLaw", "RunConfig", "load_config"]


def _parse_spec(node, where: str, role: Optional[Role] = None) -> DistributionSpec:
    if isinstance(node, (int, float)):
        return DistributionSpec(Family.DIRAC, (float(node),), role)
    if not isinstance(node, dict) or "family" not in node or "params" not in node:
        raise ConfigError(f"{where}: expected a number or {{family, params}} record")
    try:
        return DistributionSpec(Family(node["family"]), tuple(node["params"]), role)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class InitLaw:
    """Initial law of one process as independent component samplers."""

    x: DistributionSpec
    theta: DistributionSpec
    age: DistributionSpec

    def sample(self, rng):
        from .pdmp import ProcessState

        return ProcessState(self.x.sample(rng), self.theta.sample(rng), self.age.sample(rng))

    def x_mean(self) -> float:
        return self.x.mean()


@dataclass
class RunConfig:
    intake: DistributionSpec
    inter_arrival: DistributionSpec
    metabolic: DistributionSpec
    init: InitLaw
    init_tilde: InitLaw
    holder: Optional[HolderData]
    alpha: Optional[float]
    beta: Optional[float]
    epsilon_tv: Optional[float]
    epsilon_age: Optional[float]
    b: Optional[float]
    c: Optional[float]
    seed: int
    horizon: float
    grid: list
    n_replicas: int
    parallelism: int
    p: float
    v3: Optional[float]
    w_eps_frac: float
    renewal_step: float
    n_mc_tail: int
    out_dir: str

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        def need(section: str) -> dict:
            if section not in data or not isinstance(data[section], dict):
                raise ConfigError(f"missing or malformed section '{section}'")
            return data[section]

        model = need("model")
        exp = need("experiment")
        coup = data.get("coupling") or {}
        rt = data.get("rates") or {}
        out = data.get("outputs") or {}

        for key in ("intake", "inter_arrival", "metabolic", "init", "init_tilde"):
            if key not in model:
                raise ConfigError(f"model.{key} is required")
        if "seed" not in exp:
            raise ConfigError("experiment.seed is mandatory")

        def init_law(node, where) -> InitLaw:
            if not isinstance(node, dict):
                raise ConfigError(f"{where}: expected {{x, theta, age}}")
            return InitLaw(
                x=_parse_spec(node.get("x", 0.0), f"{where}.x"),
                theta=_parse_spec(node.get("theta"), f"{where}.theta"),
                age=_parse_spec(node.get("age", 0.0), f"{where}.age"),
            )

        holder = None
        if model.get("holder"):
            hd = model["holder"]
            holder = HolderData(
                K=float(hd["K"]),
                h=float(hd["h"]),
                M=float(hd["M"]) if hd.get("M") is not None else None,
                C_tail=float(hd["C_tail"]) if hd.get("C_tail") is not None else None,
                p_tail=float(hd["p_tail"]) if hd.get("p_tail") is not None else None,
            )

        horizon = float(exp.get("horizon", 10.0))
        grid = [float(t) for t in exp.get("grid", [])] or [horizon]
        if max(grid) > horizon:
            raise ConfigError("experiment.grid must lie within the horizon")
        n_replicas = int(exp.get("n_replicas", 1))
        if n_replicas < 1:
            raise ConfigError("experiment.n_replicas must be >= 1")

        def opt(v):
            return None if v is None else float(v)

        return RunConfig(
            intake=_parse_spec(model["intake"], "model.intake", Role.INTAKE),
            inter_arrival=_parse_spec(
                model["inter_arrival"], "model.inter_arrival", Role.INTER_ARRIVAL
            ),
            metabolic=_parse_spec(model["metabolic"], "model.metabolic", Role.METABOLIC),
            init=init_law(model["init"], "model.init"),
            init_tilde=init_law(model["init_tilde"], "model.init_tilde"),
            holder=holder,
            alpha=opt(coup.get("alpha")),
            beta=opt(coup.get("beta")),
            epsilon_tv=opt(coup.get("epsilon_tv")),
            epsilon_age=opt(coup.get("epsilon_age")),
            b=opt(coup.get("b")),
            c=opt(coup.get("c")),
            seed=int(exp["seed"]),
            horizon=horizon,
            grid=grid,
            n_replicas=n_replicas,
            parallelism=int(exp.get("parallelism", 1)),
            p=float(rt.get("p", 1.0)),
            v3=opt(rt.get("v3")),
            w_eps_frac=float(rt.get("w_eps_frac", 0.05)),
            renewal_step=float(rt.get("renewal_step", 1e-3)),
            n_mc_tail=int(rt.get("n_mc_tail", 10**6)),
            out_dir=str(out.get("directory", "out")),
        )


def load_config(
    path: str,
    seed: Optional[int] = None,
    replicas: Optional[int] = None,
    out: Optional[str] = None,
) -> RunConfig:
    """Parse the YAML file at ``path``; non-None arguments override
    experiment.seed, experiment.n_replicas and outputs.directory."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping: {path}")
    if seed is not None:
        data.setdefault("experiment", {})["seed"] = int(seed)
    if replicas is not None:
        data.setdefault("experiment", {})["n_replicas"] = int(replicas)
    if out is not None:
        data.setdefault("outputs", {})["directory"] = str(out)
    return RunConfig.from_dict(data)
