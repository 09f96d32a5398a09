"""Run the benchmark on every workload over several seeds and summarize.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--workloads a,b] [--write]

For each workload this runs ``perfbench/run.py`` once per seed (every
run in its own process, as the benchmark is meant to be run) and, for
each end-to-end metric, reports the median of the per-run values and
their spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from BENCHMARK.json (``setup_s`` is exempt from
the spread test).  It then makes one traced run per workload.  With
``--write`` the summary, the per-layer metrics of the traced runs and
the machine go to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    args = ap.parse_args()

    summary = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = within = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [bench(workload, s, spec["run_seconds"], 0) for s in seeds]
        failed = sum(r["failed"] for r in results)
        entry = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "seeds": list(seeds),
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "end_to_end": {},
        }
        print(f"{workload}: {len(results)} runs, {entry['attempted']} commands, {failed} failed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady &= spread < metric["bound"] / 3 or name == "setup_s"
            within &= spread <= metric["bound"] or name == "setup_s"
            verdict = ("steady" if spread < metric["bound"] / 3 else "within bound"
                       if spread <= metric["bound"] else "exempt" if name == "setup_s" else "WIDE")
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            print(f"  {name:16s} median {med:12.6g} {metric['unit']:5s} spread {spread:7.2%} "
                  f"bound {metric['bound']:.0%} {verdict}")
        traced = bench(workload, args.first_seed, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(summary, indent=2) + "\n")
    print("every spread is below a third of its bound" if steady
          else "every spread is within its bound" if within else "some spreads exceed their bound")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
