"""contamsim benchmark: one workload, every timed run in a fresh process.

    python3 perfbench/run.py --workload verify-reference --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The benchmark compiles ``src`` and
warms the import path once, then runs the ``contamsim`` command of the
workload again and again, each time in a new Python process (see
launch.py), until ``--seconds`` have passed and at least three runs are
done.  A fresh process per run is what a user pays for: the scipy import
on every run, and the module-level cache of the age-tail Monte Carlo
that a second in-process run would find full.  Every run's artifacts are
checked (see workloads.py).

``--trace 0`` reports the end-to-end metrics, each the median over the
runs.  ``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced runs (medians), the tracing overhead and
the time no layer span covers.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import LAYER_METRICS, LAYERS, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "replicas_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
MIN_RUNS = 3
# A run of the benchmark must end within 180 s; no command is started
# after this many seconds, and a command is killed at the hard limit.
START_LIMIT_S = 120.0
KILL_LIMIT_S = 170.0


def run_once(workload, seed: int, run_dir: Path, trace: bool, deadline: float) -> dict:
    """Run the workload's command once in a new process and check it."""
    shutil.rmtree(run_dir, ignore_errors=True)
    out = run_dir / "out"
    record_path = run_dir / "record.json"
    run_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "launch.py"), "--record", str(record_path)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", *workload.cli_args(ROOT, seed, out)]
    with open(run_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - t_spawn, 1.0), proc.kill)
        timer.start()
        code = proc.wait()
        t_exit = time.monotonic()
        timer.cancel()

    run = {"wall_s": t_exit - t_spawn, "errors": []}
    if code != 0:
        run["errors"].append(f"exit status {code}")
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = None
    if record is None or record["t_config"] is None:
        run["errors"].append("the command did not load its configuration")
    else:
        run["setup_s"] = record["t_config"] - t_spawn
        run["main_s"] = record["t_main_end"] - t_spawn
        run["peak_rss_mib"] = record["maxrss_kib"] / 1024.0
    if not run["errors"]:
        try:
            errors, replica_runs = workload.check(out, workload.replicas)
        except (OSError, KeyError, ValueError) as exc:
            errors, replica_runs = [f"unreadable artifacts: {exc!r}"], 0
        run["errors"] += errors
        run["replicas_per_s"] = replica_runs / (run["wall_s"] - run["setup_s"])
    if trace and record is not None and "trace" in record:
        spans = record["trace"]
        layers = layer_metrics(spans)
        root = spans["name_id"].index(spans["names"].index("cli.main"))
        root_s = (spans["end"][root] - spans["start"][root]) * 1e-9
        layers["trace.unattributed_s"] = run.get("main_s", 0.0) - root_s
        layers["cli.bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        run["layers"] = layers
        if record["missing"]:
            print(f"not traced, absent from the package: {', '.join(record['missing'])}", file=sys.stderr)
    if run["errors"]:
        tail = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"{workload.name}: run failed: {'; '.join(run['errors'])}\n{tail}", file=sys.stderr)
    return run


def build() -> None:
    """Compile the package and warm the import path, untimed."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    RUNS.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "launch.py"), "--record", str(RUNS / "warmup.json"), "--", "--help"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def median_of(runs: list, key: str) -> tuple[float, int]:
    values = [r[key] for r in runs if key in r]
    return statistics.median(values), len(values)


def summarize(plain: list, traced: list) -> dict:
    """The result object: end-to-end metrics, or per-layer ones with a trace."""
    runs = plain + traced
    failed = sum(1 for r in runs if r["errors"])
    good = [r for r in plain if not r["errors"]] or plain
    if traced:
        with_layers = [r for r in traced if "layers" in r]
        good_traced = [r for r in with_layers if not r["errors"]] or with_layers
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            values = [r["layers"][name] for r in good_traced if name in r["layers"]]
            if name == "trace.overhead_frac":
                traced_main, _ = median_of(good_traced, "main_s")
                plain_main, _ = median_of(good, "main_s")
                values = [traced_main / plain_main - 1.0]
            metrics[name] = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            value, n = median_of(good, name)
            metrics[name] = {"value": value, "unit": unit, "n": n}
    return {"attempted": len(runs), "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    for needed in (ROOT / "src" / "contamsim" / "cli.py", ROOT / workload.config):
        if not needed.is_file():
            print(f"cannot benchmark: {needed.relative_to(ROOT)} is missing", file=sys.stderr)
            return 2

    build()
    t0 = time.monotonic()
    deadline = t0 + KILL_LIMIT_S
    plain, traced = [], []
    while True:
        plain.append(run_once(workload, args.seed, RUNS / workload.name / "plain", False, deadline))
        if args.trace:
            traced.append(run_once(workload, args.seed, RUNS / workload.name / "traced", True, deadline))
        elapsed = time.monotonic() - t0
        enough = elapsed >= args.seconds and (args.trace or len(plain) >= MIN_RUNS)
        if enough or elapsed * (len(plain) + 1) / len(plain) > START_LIMIT_S:
            break
    try:
        result = summarize(plain, traced)
    except statistics.StatisticsError:
        print("cannot benchmark: no run of the command got far enough to be measured", file=sys.stderr)
        return 1
    runs = result["attempted"]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}; {runs} runs, each in a fresh process; failed_frac = {result['failed'] / runs:.4g}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (median of {m.pop('n')})")
    if args.trace:
        self_s = {layer: result["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS}
        busy = sum(self_s.values()) or 1.0
        print("self-time shares: " + ", ".join(
            f"{layer} {s / busy:.1%}" for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1])
        ))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
