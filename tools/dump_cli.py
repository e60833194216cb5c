#!/usr/bin/env python3
"""Digest of the geowb CLI's output on the benchmark's queries.

    python3 tools/dump_cli.py [--workload NAME] [--seeds 1 2] [--stdout] > dump.txt

Runs every distinct round of the given seeds (1 and 2 by default) of each
workload of ``perfbench/workloads.py`` (or of the one named), each query
once with ``--json`` and once without, in process through
``click.testing.CliRunner``, and prints one line per invocation:

    <query digest> <kind>/<json|text> <exit code> <sha1 of stdout>

or, with ``--stdout``, the stdout itself as a JSON string literal in place
of its sha1.  After them come the refusal lines: one per invocation of a
fixed table of inputs that the commands must refuse or decide at a
tolerance (``REFUSALS``), each

    refusal <label> <exit code> <sha1 of stdout> <sha1 of stderr>

or, with ``--stdout``, a JSON list of the stdout and the stderr in place
of the two sha1s.  Run it from the root of each of two checkouts (it imports
``geowb`` from the checkout's ``src/``) and diff the two dumps: a change
that keeps every verdict, evidence line and exit code gives identical
dumps.  Sampled float output can only agree within a tolerance; compare
two ``--stdout`` dumps of it with ``tools/compare_dumps.py``.  Input files
are written under one temporary directory and named by relative paths,
so an output that echoes a path is the same in both checkouts.
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
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _rank3_document(*dphi) -> dict:
    """d phi^i = the sum of the monomials (holo, anti) listed at position i."""
    return {"n": 3, "dphi": [
        {"n": 3, "terms": [{"holo": h, "anti": a, "re": "1", "im": "0"} for h, a in monos]}
        for monos in dphi
    ]}


# input files of the refusal table: two structures the calculus cannot serve
# (d phi^3 = phibar^{12} has a (0,2) part; d phi = (phi^{23}, phi^{12}, 0)
# has d d phi^1 = phi^{123}) and the float metric diag(1, 1, 1e-13), positive
# definite within 1e-15 and not within 1e-12
REFUSAL_FILES = {
    "not-integrable.json": _rank3_document([], [], [([], [1, 2])]),
    "d-squared-nonzero.json": _rank3_document([([2, 3], [])], [([1, 2], [])], []),
    "metric.json": {"n": 3, "backend": "float", "H": [
        [{"re": (1e-13 if j == 2 else 1.0) if j == k else 0.0, "im": 0.0} for k in range(3)]
        for j in range(3)
    ]},
}

# (label, argv) of each refusal invocation
REFUSALS = [
    (f"{structure}/{args[0]}", [args[0], f"{structure}.json", *args[1:]])
    for structure in ("not-integrable", "d-squared-nonzero")
    for args in (["validate"], ["bc-dims"], ["ddbar-lemma", "--p", "1", "--q", "1"],
                 ["classify-metric"])
] + [
    ("nakamura-v-11/obstruct", ["obstruct", "--search", "--structure", "nakamura-v-11",
                                "--p", "2"]),
] + [
    (f"metric/epsilon-{epsilon}", ["--epsilon", epsilon, "classify-metric", "s1-pi2",
                                   "--metric", "metric.json"])
    for epsilon in ("1e-15", "1e-12")
]


def dump(workloads, names, seeds, out, stdout=False) -> int:
    """Print the digest lines of every invocation, with the whole stdout
    when ``stdout`` is set; returns their count."""
    from click.testing import CliRunner

    import geowb.cli

    runner = CliRunner()
    count = 0
    for name in names:
        for seed in seeds:
            for index in range(workloads.DISTINCT_ROUNDS[name]):
                for query in workloads.make_round(name, seed, index):
                    paths = {}
                    for file_name, text in query.files:
                        path = hashlib.sha1(text.encode()).hexdigest()[:20] + ".json"
                        Path(path).write_text(text)
                        paths[file_name] = path
                    argv = query.argv(paths)
                    for mode, args in (("json", argv), ("text", argv[1:])):
                        result = runner.invoke(geowb.cli.main, args)
                        if stdout:
                            shown = json.dumps(result.stdout)
                        else:
                            shown = hashlib.sha1(result.stdout.encode()).hexdigest()
                        print(f"{query.digest()} {query.kind}/{mode} "
                              f"{result.exit_code} {shown}", file=out)
                        count += 1
    return count


def dump_refusals(out, stdout=False) -> list[int]:
    """Write the refusal table's input files into the working directory,
    print one refusal line per invocation and return their exit codes."""
    from click.testing import CliRunner

    import geowb.cli

    for name, doc in REFUSAL_FILES.items():
        Path(name).write_text(json.dumps(doc))
    runner = CliRunner()
    codes = []
    for label, args in REFUSALS:
        result = runner.invoke(geowb.cli.main, args)
        if stdout:
            shown = json.dumps([result.stdout, result.stderr])
        else:
            shown = " ".join(hashlib.sha1(text.encode()).hexdigest()
                             for text in (result.stdout, result.stderr))
        print(f"refusal {label} {result.exit_code} {shown}", file=out)
        codes.append(result.exit_code)
    return codes


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--stdout", action="store_true",
                        help="print each stdout, as a JSON string, not its sha1")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            count = dump(workloads, names, args.seeds, sys.stdout, args.stdout)
            count += len(dump_refusals(sys.stdout, args.stdout))
        finally:
            os.chdir(home)
    print(f"{count} invocations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
