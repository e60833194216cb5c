#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, with their summary.

    python3 tools/bench_ab.py --parent DIR --change DIR --workload W \\
        --seeds 31 32 33 --seconds 18 --out BENCH_N.json

Each DIR is the root of a checkout (a directory with ``perfbench/run.py``).
For each seed the tool runs ``perfbench/run.py --workload W --seed N
--seconds S --trace 0`` once in each checkout, one run at a time: the
parent first on even positions of the seed list, the change first on odd
ones.  A run's record holds its seed, side, which side ran first, the wall
time of the whole process, and ``correct``, ``attempted``, ``failed`` and
the metric values of its last output line.

The records are appended to the ``runs`` of ``--out``, after those the
file already holds, so one file can collect several workloads; its other
keys are kept.  ``summary`` is recomputed from all runs after every run:
per workload and end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles and the number of seeds on which the change is
better; each side's median and range of wall time; and the median number
of attempted queries.  Exits 1 if a run fails a query, is not correct or
does not finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def directions(benchmark: Path = ROOT / "BENCHMARK.json") -> dict[str, str]:
    """{metric: "lower" or "higher"} for the end-to-end metrics."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def record(workload: str, seed: int, side: str, first: str, wall_s: float,
           line: str) -> dict:
    """One run's record from the last line of its output."""
    out = json.loads(line)
    return {
        "workload": workload, "seed": seed, "side": side, "first": first,
        "wall_s": round(wall_s, 1), "correct": out["correct"],
        "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: round(m["value"], 6) for name, m in out["metrics"].items()},
        "trace": 0,
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 3), round(q3, 3)]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """The ``summary`` of BENCH files: per workload, per metric, the medians
    and quartiles of both sides and the change's wins over seed pairs."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        side = {s: [r for r in mine if r["side"] == s] for s in SIDES}
        pairs = [pair for seed in dict.fromkeys(r["seed"] for r in mine)
                 for pair in zip(*([r for r in side[s] if r["seed"] == seed] for s in SIDES))]
        rows = {}
        for name, direction in better.items():
            values = {s: [r["metrics"][name] for r in side[s]] for s in SIDES}
            if not all(values.values()):
                continue
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c["metrics"][name] - p["metrics"][name]) > 0 for p, c in pairs)
            rows[name] = {
                "parent_median": round(statistics.median(values["parent"]), 3),
                "parent_q1_q3": _quartiles(values["parent"]),
                "change_median": round(statistics.median(values["change"]), 3),
                "change_q1_q3": _quartiles(values["change"]),
                "change_wins": f"{wins}/{len(pairs)}",
            }
        walls = {s: [r["wall_s"] for r in side[s]] for s in SIDES}
        if all(walls.values()):
            rows["wall_s"] = {}
            for s in SIDES:
                rows["wall_s"][f"{s}_median"] = round(statistics.median(walls[s]), 1)
                rows["wall_s"][f"{s}_range"] = [min(walls[s]), max(walls[s])]
            rows["attempted_median"] = {
                s: statistics.median(r["attempted"] for r in side[s]) for s in SIDES
            }
        summary[workload] = rows
    return summary


def bad_runs(runs: list[dict]) -> list[dict]:
    """The runs that failed a query or were not correct."""
    return [r for r in runs if r["failed"] > 0 or not r["correct"]]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[float, str]:
    """Wall time and last output line of one ``perfbench/run.py`` process."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return wall, proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in checkouts.values():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {path}")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"summary": {}}
    runs = doc.setdefault("runs", [])
    better = directions()
    new = []
    for position, seed in enumerate(args.seeds):
        order = SIDES if position % 2 == 0 else SIDES[::-1]
        for side in order:
            try:
                wall, line = run_once(checkouts[side], args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            new.append(record(args.workload, seed, side, order[0], wall, line))
            runs.append(new[-1])
            doc["summary"] = summarize(runs, better)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            metrics = " ".join(f"{k}={v:g}" for k, v in new[-1]["metrics"].items())
            print(f"{args.workload} seed {seed} {side}: {wall:.1f} s, {metrics}",
                  file=sys.stderr)
    bad = bad_runs(new)
    for r in bad:
        print(f"{r['workload']} seed {r['seed']} {r['side']}: {r['failed']} failed, "
              f"correct {r['correct']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
