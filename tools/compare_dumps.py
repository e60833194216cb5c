#!/usr/bin/env python3
"""Compare two ``tools/dump_cli.py --stdout`` dumps within a float tolerance.

    python3 tools/compare_dumps.py A B --rtol 1e-12 [--atol 1e-12]

Sampled float output (the values and witnesses of ``transverse``) cannot
be byte-identical across changes that reorder floating-point operations,
so this reads both dumps line by line and requires, for each pair of
lines: the same query digest, kind, mode and exit code, and the same
stdout.  A ``json``-mode stdout that parses as JSON is compared as parsed
JSON: keys, strings, ints, bools and nulls must be equal, list lengths
too, and floats x (from A) and y (from B) must satisfy
|x - y| <= atol + rtol * |y|.  A string that reads as a float (such as a
float-backend scalar part ``{"re": "0.25", "im": ..}``) is compared as
that float when the two strings differ.  Any other stdout, every
``text``-mode one among them, must be identical.

Prints each differing line pair and a summary; exits 0 when every line
agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def _as_float(value):
    """value as a float when it is one or a string that reads as one."""
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def agree(a, b, rtol: float, atol: float) -> bool:
    """Whether two parsed JSON values agree (see the module docstring)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(agree(a[k], b[k], rtol, atol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(agree(x, y, rtol, atol) for x, y in zip(a, b))
    if type(a) is type(b) and a == b:
        return True
    if isinstance(a, (float, str)) and isinstance(b, (float, str)):
        x, y = _as_float(a), _as_float(b)
        if x is None or y is None or type(a) is not type(b):
            return False
        if math.isinf(x) or math.isinf(y) or math.isnan(x) or math.isnan(y):
            return x == y
        return abs(x - y) <= atol + rtol * abs(y)
    return False


def parse_line(line: str):
    """(digest, kind/mode, exit code, stdout) of a ``--stdout`` dump line."""
    digest, kind_mode, code, shown = line.rstrip("\n").split(" ", 3)
    return digest, kind_mode, code, json.loads(shown)


def lines_agree(left: str, right: str, rtol: float, atol: float) -> bool:
    a, b = parse_line(left), parse_line(right)
    if a[:3] != b[:3]:
        return False
    if a[3] == b[3]:
        return True
    if not a[1].endswith("/json"):
        return False
    try:
        x, y = json.loads(a[3]), json.loads(b[3])
    except ValueError:
        return False
    return agree(x, y, rtol, atol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--rtol", type=float, required=True)
    parser.add_argument("--atol", type=float, default=0.0)
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        left, right = fa.readlines(), fb.readlines()
    bad = identical = 0
    for number, (x, y) in enumerate(zip(left, right), start=1):
        identical += x == y
        if not lines_agree(x, y, args.rtol, args.atol):
            bad += 1
            print(f"line {number}:\n< {x.rstrip()}\n> {y.rstrip()}")
    if len(left) != len(right):
        bad += 1
        print(f"line counts differ: {len(left)} vs {len(right)}")
    print(f"{len(left)} lines: {identical} identical, {bad} disagree "
          f"(rtol {args.rtol}, atol {args.atol})", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
