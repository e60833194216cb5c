#!/usr/bin/env python3
"""Start-up time of ``import geowb.cli`` in two checkouts, A/B.

    python3 tools/setup_ab.py PARENT CHANGE

Each argument is the root of a checkout (a directory with ``src/geowb``).
Launches a fresh interpreter that runs ``import geowb.cli`` from each
checkout in turn, alternating which side goes first, and scales each
launch by ``perfbench/speedprobe.py`` the way ``perfbench/run.py``
``measure_setup`` scales its ``setup_s``.  One untimed launch per side
comes first, so that bytecode compilation is not counted (unless
``PYTHONDONTWRITEBYTECODE`` is set).  For each side it prints the median
and quartiles of the scaled times, the number of modules the import
loads, and whether numpy is among them.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from speedprobe import SpeedProbe  # noqa: E402

LAUNCHES = 16  # timed launches per side
IMPORT = [sys.executable, "-c", "import geowb.cli"]
MODULES = [sys.executable, "-c",
           "import sys, geowb.cli; print(len(sys.modules), 'numpy' in sys.modules)"]


def launch(checkout: Path, cmd) -> str:
    """stdout of ``cmd`` run with the checkout's ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run(cmd, cwd=checkout, env=env, check=True, timeout=60,
                          capture_output=True, text=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT")
    args = parser.parse_args(argv)
    sides = [path.resolve() for path in args.checkouts]
    for path in sides:
        if not (path / "src" / "geowb" / "cli.py").is_file():
            parser.error(f"no geowb sources under {path / 'src'}")

    for path in sides:
        launch(path, IMPORT)
    probe = SpeedProbe()
    times: list[list[float]] = [[], []]
    for i in range(LAUNCHES):
        for k in (0, 1) if i % 2 == 0 else (1, 0):
            start = time.perf_counter()
            launch(sides[k], IMPORT)
            times[k].append((time.perf_counter() - start) * probe.scale())

    for path, scaled in zip(sides, times):
        q1, median, q3 = statistics.quantiles(scaled, n=4, method="inclusive")
        count, numpy = launch(path, MODULES).split()
        print(f"{str(path):40s} median {median:.3f} s  quartiles {q1:.3f}-{q3:.3f} s  "
              f"modules {count}  numpy {'loaded' if numpy == 'True' else 'not loaded'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
