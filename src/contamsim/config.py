"""Run-configuration parsing (YAML).

The schema is documented in the README.  Distribution entries are
tagged records ``{family, params}``; initial-condition components may
be plain numbers (point masses) or tagged records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .distributions import DistributionSpec, Family, hazard_profile
from .errors import AssumptionError, ConfigError, DistributionError
from .pdmp import ProcessState
from .rates import HolderData

__all__ = ["InitLaw", "RunConfig", "load_config"]


_REQUIRED = object()


def _number(value, where: str, cast=float):
    """``value`` as a float, or with ``cast=int`` as an int; an integer
    key takes an integral float such as 1.0e6 but rejects 2.5."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if math.isnan(number):  # also a YAML boolean, such as yes or off
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if cast is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value) if isinstance(value, int) else int(number)


class _Record:
    """A config mapping whose keys are consumed as they are read, so the
    keys never read are exactly the unknown ones (typos)."""

    def __init__(self, node, where: str):
        if not isinstance(node, dict):
            raise ConfigError(f"{where}: expected a mapping")
        self._left = dict(node)
        self.where = where

    def get(self, key: str, default=_REQUIRED):
        value = self._left.pop(key, None)
        if value is not None:
            return value
        if default is _REQUIRED:
            raise ConfigError(f"{self.where}.{key} is required")
        return default

    def num(self, key: str, default=_REQUIRED, cast=float):
        value = self.get(key, default)
        return None if value is None else _number(value, f"{self.where}.{key}", cast)

    def group(self, *keys: str) -> Optional[tuple]:
        """The numbers at ``keys``, or None when none is set; a partial
        set is rejected, naming the first missing key."""
        values = tuple(self.num(key, None) for key in keys)
        if all(v is None for v in values):
            return None
        given = ", ".join(f"{self.where}.{k}" for k, v in zip(keys, values) if v is not None)
        for key, value in zip(keys, values):
            if value is None:
                raise ConfigError(f"{self.where}.{key} is required with {given}")
        return values

    def done(self):
        for key in self._left:
            name = f"{self.where}.{key}" if self.where else str(key)
            raise ConfigError(f"unknown config key '{name}'")


def _parse_spec(node, where: str, check=None) -> DistributionSpec:
    """The law at ``where``, which must live on [0, inf) and pass ``check``."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        family, params = Family.DIRAC, (node,)
    elif not isinstance(node, dict) or "family" not in node or "params" not in node:
        raise ConfigError(f"{where}: expected a number or {{family, params}} record")
    else:
        rec = _Record(node, where)
        family, params = rec.get("family"), rec.get("params")
        rec.done()
        if not isinstance(params, list) or any(isinstance(v, bool) for v in params):
            raise ConfigError(f"{where}.params: expected a list of numbers, got {params!r}")
    try:
        spec = DistributionSpec(Family(family), tuple(params))
        if spec.support()[0] < 0.0:
            raise DistributionError("the law needs support in [0, inf)")
        if check is not None:
            check(spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return spec


def _positive_rate(spec: DistributionSpec):
    if spec.family is Family.DIRAC and spec.params[0] <= 0.0:
        raise DistributionError("metabolic rate must be strictly positive")


@dataclass(frozen=True)
class InitLaw:
    """Initial law of one process as independent component samplers."""

    x: DistributionSpec
    theta: DistributionSpec
    age: DistributionSpec

    def sample(self, rng, size: int | None = None):
        """One initial state, or with ``size`` a batch of that many, where a
        point-mass component is a read-only view of its one value."""
        return ProcessState(*(
            np.broadcast_to(law.params[0], size)
            if law.family is Family.DIRAC and size is not None else law.sample(rng, size)
            for law in (self.x, self.theta, self.age)))


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
    age_params: Optional[tuple[float, float, float]]  # (epsilon_age, b, c)
    seed: int
    horizon: float
    grid: list
    n_replicas: int
    parallelism: int
    p: float
    v3: Optional[float]
    out_dir: str

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        top = _Record(data, "")

        def section(name: str, required: bool = False) -> _Record:
            node = top.get(name, None if required else {})
            if not isinstance(node, dict):
                raise ConfigError(f"missing or malformed section '{name}'")
            return _Record(node, name)

        model, exp = section("model", True), section("experiment", True)
        coup, rt, out = section("coupling"), section("rates"), section("outputs")
        intake = _parse_spec(model.get("intake"), "model.intake")
        # the hazard profile rejects the laws that cannot time the intakes
        waits = _parse_spec(model.get("inter_arrival"), "model.inter_arrival", hazard_profile)
        d = hazard_profile(waits).d  # from an age at or past d no wait is left

        def below_d(spec: DistributionSpec):
            lo, hi = spec.support()
            if lo >= d or hi > d:
                raise DistributionError(f"the hazard of the waits is infinite from age {d:g} on")

        def init_law(key) -> InitLaw:
            node = model.get(key)
            if not isinstance(node, dict):
                raise ConfigError(f"model.{key}: expected {{x, theta, age}}")
            rec = _Record(node, f"model.{key}")
            law = InitLaw(
                x=_parse_spec(rec.get("x", 0.0), f"{rec.where}.x"),
                theta=_parse_spec(rec.get("theta"), f"{rec.where}.theta", _positive_rate),
                age=_parse_spec(rec.get("age", 0.0), f"{rec.where}.age", below_d),
            )
            rec.done()
            return law

        holder = None
        hd = model.get("holder", None)
        if hd:
            hd = _Record(hd, "model.holder")
            try:
                holder = HolderData(
                    K=hd.num("K"),
                    h=hd.num("h"),
                    M=hd.num("M", None),
                    C_tail=hd.num("C_tail", None),
                    p_tail=hd.num("p_tail", None),
                )
            except AssumptionError as exc:
                raise ConfigError(f"model.holder.{exc}") from exc
            hd.done()

        grid = exp.get("grid", [])
        if not isinstance(grid, list):
            raise ConfigError("experiment.grid: expected a list of times")
        alpha, beta = coup.group("alpha", "beta") or (None, None)
        cfg = RunConfig(
            intake=intake,
            inter_arrival=waits,
            metabolic=_parse_spec(model.get("metabolic"), "model.metabolic", _positive_rate),
            init=init_law("init"),
            init_tilde=init_law("init_tilde"),
            holder=holder,
            alpha=alpha,
            beta=beta,
            epsilon_tv=coup.num("epsilon_tv", None),
            age_params=coup.group("epsilon_age", "b", "c"),
            seed=exp.num("seed", cast=int),
            horizon=exp.num("horizon", 10.0),
            grid=[_number(t, "experiment.grid") for t in grid],
            n_replicas=exp.num("n_replicas", 1, cast=int),
            parallelism=exp.num("parallelism", 1, cast=int),
            p=rt.num("p", 1.0),
            v3=rt.num("v3", None),
            out_dir=str(out.get("directory", "out")),
        )
        for rec in (top, model, exp, coup, rt, out):
            rec.done()
        cfg.grid = cfg.grid or [cfg.horizon]
        for holds, message in (
            (0.0 < cfg.horizon < math.inf, "experiment.horizon must be positive and finite"),
            (min(cfg.grid) >= 0.0, "experiment.grid times must be >= 0"),
            (max(cfg.grid) <= cfg.horizon, "experiment.grid must lie within the horizon"),
            (cfg.seed >= 0, "experiment.seed must be >= 0"),
            (cfg.n_replicas >= 1, "experiment.n_replicas must be >= 1"),
            (cfg.parallelism >= 1, "experiment.parallelism must be >= 1"),
            (cfg.epsilon_tv is None or 0.0 < cfg.epsilon_tv < 1.0,
             "coupling.epsilon_tv must lie in (0, 1)"),
            (cfg.p >= 1.0, "rates.p, the order of the renewal kernel, must be >= 1"),
        ):
            if not holds:
                raise ConfigError(message)
        return cfg


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
    for section, key, value in (
        ("experiment", "seed", seed),
        ("experiment", "n_replicas", replicas),
        ("outputs", "directory", out),
    ):
        if value is not None:
            if data.get(section) is None:  # absent, or present but empty
                data[section] = {}
            if isinstance(data[section], dict):  # from_dict rejects the others
                data[section][key] = value
    return RunConfig.from_dict(data)
