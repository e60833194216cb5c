#!/usr/bin/env python3
"""Benchmark of the geowb CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``geowb`` from ``src/``.
Queries are CLI invocations made in-process through
``click.testing.CliRunner`` on ``geowb.cli.main`` with ``--json``, in a
closed loop from one client; BLAS and OpenMP are pinned to one thread.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median time of fresh interpreters importing ``geowb.cli``;
* ``query_p50_ms`` and ``query_p90_ms``: query latency percentiles;
* ``queries_per_s``: completed queries over their summed time (the timed
  phase without the oracle's checks between queries);
* ``peak_rss_mb``: peak resident memory of this process.

Every time in these figures is scaled to a reference host speed by
``speedprobe.py``: a fixed kernel, independent of ``geowb``, is timed
around each query and each interpreter launch, and the interval is scaled
by the reference kernel time over the kernel's time around it.  So a slow
spell of a shared host does not move the figures, and a change of the
program does.

Untimed warm-up queries run first.  The timed phase runs whole rounds
(every round holds the workload's full mix, see ``workloads.py``) until the
queries have taken at least ``--seconds`` of scaled time and number at least
100, so that ten or more lie beyond the 90th percentile.  The percentiles
and the throughput are taken over all queries of the timed phase.

With ``--trace 1`` the run wraps the program's layers (``tracer.py``), runs
whole rounds traced for at least half of ``--seconds`` of query time, replays the same
queries untraced to get the tracing overhead and to check that the verdicts
are identical, times the scalar layer on operands captured from the traced
run (``scalarbench.py``), and reports the per-layer metrics.

Every verdict is checked by ``oracle.py``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GEOWB_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_QUERIES = 100
SETUP_LAUNCHES = 5
IMPORT_TIMEOUT_S = 60


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def measure_setup(probe, launches: int = SETUP_LAUNCHES) -> float:
    """Median scaled time for a fresh interpreter to import geowb.cli.

    One untimed launch first, so that bytecode compilation of a fresh
    checkout is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import geowb.cli"]
    times = []
    for i in range(launches + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=IMPORT_TIMEOUT_S,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        scale = probe.scale()
        if i:
            times.append(seconds * scale)
    return statistics.median(times)


class Client:
    """Writes query inputs and invokes the CLI in-process."""

    def __init__(self, workdir: Path):
        from click.testing import CliRunner

        import geowb.cli

        self.main = geowb.cli.main
        self.runner = CliRunner()
        self.workdir = workdir
        self.paths: dict[str, str] = {}

    def prepare(self, query) -> list[str]:
        names = {}
        for name, text in query.files:
            key = hashlib.sha1(text.encode()).hexdigest()[:20]
            path = self.paths.get(key)
            if path is None:
                path = str(self.workdir / f"{key}.json")
                Path(path).write_text(text)
                self.paths[key] = path
            names[name] = path
        return query.argv(names)

    def invoke(self, argv):
        result = self.runner.invoke(self.main, argv)
        return result.exit_code, result.stdout


class Outcome:
    """One timed query and the oracle's finding on its output.

    ``seconds`` is the query's wall time, ``scaled`` the same time scaled
    to the reference host speed (equal to ``seconds`` when no probe ran).
    """

    __slots__ = ("query", "seconds", "scaled", "verdict", "error")

    def __init__(self, query, seconds, scaled, verdict, error):
        self.query = query
        self.seconds = seconds
        self.scaled = scaled
        self.verdict = verdict
        self.error = error


def run_queries(client: Client, prepared, reference, call=None, probe=None) -> list[Outcome]:
    """Time each query, then probe the host speed and judge the output,
    both outside the timed interval."""
    import oracle

    out = []
    for query, argv in prepared:
        start = time.perf_counter()
        if call is None:
            code, stdout = client.invoke(argv)
        else:
            code, stdout = call(lambda: client.invoke(argv))
        seconds = time.perf_counter() - start
        scaled = seconds if probe is None else seconds * probe.scale()
        try:
            verdict, error = oracle.check(query, code, stdout, reference), None
        except (oracle.OracleError, KeyError, TypeError, ValueError) as exc:
            verdict, error = None, f"{type(exc).__name__}: {exc}"
        out.append(Outcome(query, seconds, scaled, verdict, error))
    return out


def run_rounds(client: Client, rounds, reference, seconds: float, call=None,
               probe=None) -> list[Outcome]:
    """Whole rounds until the queries have taken ``seconds`` of scaled time
    and number at least MIN_QUERIES.

    Counting scaled time makes the number of rounds, and so the mix that
    is measured, the same on a slow host as on a fast one.
    """
    out = []
    busy = 0.0
    index = 0
    while busy < seconds or len(out) < MIN_QUERIES:
        done = run_queries(client, rounds[index % len(rounds)], reference, call, probe)
        busy += sum(o.scaled for o in done)
        out += done
        index += 1
    return out


def warmup_queries(rounds):
    """The first query of every kind in the first round."""
    seen = set()
    out = []
    for query, argv in rounds[0]:
        if query.kind not in seen:
            seen.add(query.kind)
            out.append((query, argv))
    return out


def count_failures(outcomes) -> int:
    failed = [o for o in outcomes if o.error is not None]
    for o in failed:
        print(f"FAILED {o.query.stratum} {' '.join(o.query.args)}: {o.error}", file=sys.stderr)
    return len(failed)


def end_to_end(client, rounds, seconds, reference):
    from speedprobe import SpeedProbe

    probe = SpeedProbe()
    setup_s = measure_setup(probe)
    run_queries(client, warmup_queries(rounds), reference, probe=probe)
    outcomes = run_rounds(client, rounds, reference, seconds, probe=probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [o.scaled for o in outcomes]
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_p50_ms": (percentile(scaled, 0.5) * 1000, "ms"),
        "query_p90_ms": (percentile(scaled, 0.9) * 1000, "ms"),
        "queries_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return len(outcomes), count_failures(outcomes), metrics


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_frac", "fraction"), ("_reuse", "fraction"),
                         ("_ns", "ns"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count/query"


def per_layer(client, rounds, seconds, reference, seed):
    from scalarbench import scalar_metrics
    from tracer import Tracer

    run_queries(client, warmup_queries(rounds), reference)
    tracer = Tracer(seed)
    tracer.install()
    try:
        traced = run_rounds(client, rounds, reference, seconds / 2, tracer.query)
    finally:
        tracer.uninstall()
    replay = run_queries(client, [(o.query, client.prepare(o.query)) for o in traced], reference)
    for t, u in zip(traced, replay):
        if t.error is None and u.error is None and t.verdict != u.verdict:
            u.error = f"traced verdict {t.verdict} != untraced {u.verdict}"
    values = tracer.layer_metrics()
    values.update(scalar_metrics(tracer.operands, seed))
    values["trace.overhead_frac"] = (
        sum(o.seconds for o in traced) / sum(o.seconds for o in replay) - 1.0
    )
    metrics = {name: (value, _layer_unit(name)) for name, value in sorted(values.items())}
    return len(traced), count_failures(traced) + count_failures(replay), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geowb" / "cli.py").is_file():
        print(f"error: no geowb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(workdir)
        rounds = [
            [(q, client.prepare(q)) for q in workloads.make_round(args.workload, args.seed, i)]
            for i in range(workloads.DISTINCT_ROUNDS[args.workload])
        ]
        reference = oracle.load_reference()
        if args.trace:
            attempted, failed, metrics = per_layer(client, rounds, args.seconds, reference,
                                                   args.seed)
        else:
            attempted, failed, metrics = end_to_end(client, rounds, args.seconds, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
