#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--seconds 10] [--trace 0]
                                [--workload NAME ...]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  Runs are sequential, one process at a time.  With
``--out FILE`` it also writes the figures, every run's values and the
environment as JSON.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range FIRST-LAST")
    parser.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", default=None, help="write the figures to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or str(spec["run_seconds"])
    first, last = (int(x) for x in args.seeds.split("-"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    status = 0
    report = {"environment": environment(), "seeds": args.seeds, "seconds": seconds,
              "trace": args.trace, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(first, last + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", seconds, "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} queries failed")
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, vals in values.items():
            median = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(median)
            bound = bounds.get(name)
            print(f"{workload:20s} {name:28s} median {median:12.6g} {units[name]:12s} "
                  f"spread {spread:7.3f}" + (f"  bound {bound}" if bound is not None else ""))
            report["workloads"].setdefault(workload, {})[name] = {
                "median": median, "spread": spread, "unit": units[name], "values": vals,
            }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


def environment() -> dict:
    """Where the figures were measured."""
    code = ("import json, numpy, scipy, platform; print(json.dumps({'python': "
            "platform.python_version(), 'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    versions = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                         text=True, check=True).stdout)
    return {"nproc": os.cpu_count(), "machine": platform.machine(), **versions,
            "blas_threads": 1}


if __name__ == "__main__":
    sys.exit(main())
