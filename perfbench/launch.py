"""Run one contamsim command in this process and record how it went.

    python3 perfbench/launch.py --record REC.json [--trace] -- verify --config ...

Imports the package from the checkout's ``src``, runs the ``contamsim``
entry point (``contamsim.cli:main``) with the arguments after ``--`` and,
when the command ends, writes REC.json: when the configuration was first
built, when the command started and ended (``time.monotonic``, which is
one clock for all processes of the machine), its exit code and the
process's peak resident memory.

With ``--trace`` the functions below are wrapped where they are looked
up, every call is recorded as a span (see spans.py), the spans are kept
in memory and REC.json also gets them at exit.  The traced run forces
``experiment.parallelism`` to 1 so that every span is in this process.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, name as that module looks it up, span name, counter reader)
# A counter reader maps a call's result to {counter: increment}.
TRACED = [
    ("runner", "coupled_rows", "runner.coupled_rows", None),
    ("runner", "marginal_rows", "runner.marginal_rows", None),
    ("runner", "_coupled_chunk", "runner.chunk", None),
    ("runner", "_marginal_chunk", "runner.chunk", None),
    ("runner", "np.random.default_rng", "runner.rng_seed", None),
    ("runner", "run_three_phase", "coupling.run_three_phase",
     lambda rep: {"coupling.events": rep.n_events}),
    ("runner", "simulate_path", "pdmp.simulate_path",
     lambda res: {"pdmp.events": res[0].n_events()}),
    ("coupling", "tv_jump_coupling", "coupling.tv_jump_coupling",
     lambda res: {"coupling.tv_merged": int(res[2])}),
    ("coupling", "rates.eta", "rates.eta", None),
    ("pdmp", "hazard_profile", "distributions.hazard_profile", None),
    ("coupling", "hazard_profile", "distributions.hazard_profile", None),
    ("rates", "hazard_profile", "distributions.hazard_profile", None),
    ("rates", "convergence_bounds", "rates.convergence_bounds", None),
    ("rates", "find_w", "rates.find_w", None),
    ("rates", "solve_renewal", "rates.solve_renewal",
     lambda sol: {"rates.solve_renewal_points": len(sol.grid)}),
    ("rates", "age_bound_tail", "rates.age_bound_tail", None),
    ("rates", "RenewalKernel.psi", "rates.RenewalKernel.psi", None),
    ("distributions", "DistributionSpec.sample", "distributions.DistributionSpec.sample", None),
    ("distributions", "DistributionSpec.laplace", "distributions.DistributionSpec.laplace", None),
    ("config", "RunConfig.from_dict", "config.RunConfig.from_dict", None),
    ("estimators", "tv_via_coupling", "estimators.tv_via_coupling", None),
    ("estimators", "mean_with_ci", "estimators.mean_with_ci", None),
]


class _Proxy:
    """Stands in for a module inside one other module: the attributes set
    on it are seen only there, the rest is forwarded."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _patch(owner, path: str, replace) -> None:
    """Set ``owner.<path>`` to ``replace(current value)``.

    Through a module the path goes by a proxy, so that only ``owner``
    sees the change; through a class it patches the class itself.
    """
    head, _, rest = path.partition(".")
    current = getattr(owner, head)
    if not rest:
        static = inspect.isclass(owner) and isinstance(
            inspect.getattr_static(owner, head), staticmethod
        )
        new = replace(current)
        setattr(owner, head, staticmethod(new) if static else new)
    elif inspect.isclass(current):
        _patch(current, rest, replace)
    else:
        proxy = _Proxy(current)
        _patch(proxy, rest, replace)
        setattr(owner, head, proxy)


def _counting(reader):
    def on_return(rec, result):
        try:
            increments = reader(result)
        except (AttributeError, TypeError, IndexError):
            return
        for key, value in increments.items():
            rec.counters[key] += value

    return on_return


def _install_tracing(rec) -> list:
    """Wrap every name in TRACED; return those the package does not have."""
    missing = []
    for module, path, span, reader in TRACED:
        owner = importlib.import_module(f"contamsim.{module}")
        on_return = _counting(reader) if reader else None

        def traced(fn, span=span, on_return=on_return):
            return rec.wrap(span, fn, on_return)

        try:
            _patch(owner, path, traced)
        except AttributeError:
            missing.append(f"{module}.{path}")
    return missing


def main(argv: list) -> int:
    if "--" not in argv:
        print("usage: launch.py --record REC.json [--trace] -- CLI-ARGS...", file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    record_path = Path(opts[opts.index("--record") + 1])
    trace = "--trace" in opts

    sys.path.insert(0, str(SRC))
    import contamsim.cli
    from contamsim import config

    if not Path(contamsim.__file__).resolve().is_relative_to(SRC):
        print(f"contamsim was imported from {contamsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = {"t_config": None, "missing": []}

    def first_config(fn):
        def from_dict(data):
            if trace and isinstance(data, dict) and isinstance(data.get("experiment"), dict):
                data = {**data, "experiment": {**data["experiment"], "parallelism": 1}}
            cfg = fn(data)
            if record["t_config"] is None:
                record["t_config"] = time.monotonic()
            return cfg

        return from_dict

    _patch(config, "RunConfig.from_dict", first_config)
    entry = contamsim.cli.main
    rec = None
    if trace:
        from spans import Recorder

        rec = Recorder()
        record["missing"] = _install_tracing(rec)
        entry = rec.wrap("cli.main", entry)

    code = 1
    record["t_main_start"] = time.monotonic()
    try:
        entry(args=cli_args, prog_name="contamsim")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        record["t_main_end"] = time.monotonic()
        record["exit_code"] = code
        record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if rec is not None:
            record["trace"] = rec.dump()
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
