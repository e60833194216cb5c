#!/usr/bin/env python3
"""Record the reference verdict table for the default seeds.

    python3 perfbench/make_reference.py [--seeds 1-10] [--workload NAME ...]

Runs every query of every distinct round of each workload for each seed,
checks it against the oracle's invariants, and stores the key of its
verdict under the digest of its inputs in ``reference.json`` (merged with
what is there).  Rerun it only when a workload's inputs change; a change
of the program must leave the table as it is.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range FIRST-LAST")
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    import oracle
    import workloads

    table = oracle.load_reference()
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client = run.Client(workdir)
        for name in args.workload or workloads.WORKLOADS:
            for seed in range(first, last + 1):
                for index in range(workloads.DISTINCT_ROUNDS[name]):
                    for query in workloads.make_round(name, seed, index):
                        digest = query.digest()
                        if digest in table:
                            continue
                        code, stdout = client.invoke(client.prepare(query))
                        try:
                            table[digest] = oracle.verdict_key(oracle.verdict(query, code, stdout))
                        except (oracle.OracleError, KeyError, TypeError, ValueError) as exc:
                            print(f"{name} seed {seed}: {query.stratum} {query.args}: {exc}",
                                  file=sys.stderr)
                            return 1
                print(f"{name} seed {seed}: {len(table)} entries", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(oracle.REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
