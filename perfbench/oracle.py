"""Verdict oracle.

Every query's output is checked two ways:

* against seed-independent invariants of the mathematics and against what
  the construction of the inputs guarantees (``Query.expect``);
* against a reference table of verdicts, keyed by the digest of the query's
  inputs, recorded for the default seeds (``make_reference.py``).  Queries
  whose inputs do not depend on the seed are in it for every seed.

A query fails when the CLI exits with anything but 0 or 1 (2 is an input
error, 3 an internal error), when its output is not the documented JSON,
or when any check disagrees.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

POSITIVE_KINDS = ("certified-positive", "not-falsified")
FLAGS = ("kahler", "skt", "astheno", "balanced", "gauduchon", "strongly_gauduchon")


class OracleError(Exception):
    """A query's output is wrong."""


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, str]:
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def verdict_key(verdict) -> str:
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def verdict(query, exit_code: int, stdout: str):
    """The query's verdict (JSON-able, canonical), after the invariant checks.

    Raises OracleError if the output is wrong.
    """
    if exit_code not in (0, 1):
        raise OracleError(f"exit code {exit_code}")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise OracleError(f"output is not JSON: {exc}") from exc
    return _CHECKS[query.kind](query, exit_code, payload)


def check(query, exit_code: int, stdout: str, reference: dict[str, str]):
    """verdict() plus the reference-table comparison."""
    v = verdict(query, exit_code, stdout)
    want = reference.get(query.digest())
    if want is not None and want != verdict_key(v):
        raise OracleError(f"verdict {v} differs from the reference table")
    return v


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _exit_matches(exit_code: int, holds: bool, what: str) -> None:
    _require(exit_code == (0 if holds else 1), f"exit code {exit_code} but {what} = {holds}")


def _bc_dims(query, exit_code, payload):
    _require(exit_code == 0, f"bc-dims exited {exit_code}")
    n = query.expected("rank")
    dims = {tuple(map(int, k.split(","))): v for k, v in payload["dimensions"].items()}
    _require(set(dims) == {(p, q) for p in range(n + 1) for q in range(n + 1)},
             "bidegrees missing from the table")
    for (p, q), v in dims.items():
        _require(v == dims[(q, p)], f"h^{{{p},{q}}} = {v} != h^{{{q},{p}}} = {dims[(q, p)]}")
    _require(dims[(0, 0)] == 1 and dims[(n, n)] == 1,
             f"h^{{0,0}} = {dims[(0, 0)]}, h^{{n,n}} = {dims[(n, n)]}")
    if query.expected("torus"):
        for (p, q), v in dims.items():
            _require(v == comb(n, p) * comb(n, q), f"torus h^{{{p},{q}}} = {v}")
    return [[p, q, v] for (p, q), v in sorted(dims.items())]


def _ddbar(query, exit_code, payload):
    holds = payload["holds"]
    _exit_matches(exit_code, holds, "holds")
    if query.expected("torus"):
        _require(holds, "the del-delbar lemma fails on a torus")
    return holds


def _classify(query, exit_code, payload):
    _require(exit_code == 0, f"classify-metric exited {exit_code}")
    flags = payload["flags"]
    _require(set(flags) == set(FLAGS), f"flags {sorted(flags)}")
    if flags["kahler"]:
        for implied in ("skt", "balanced", "gauduchon"):
            _require(flags[implied], f"kahler but not {implied}")
    if flags["balanced"]:
        _require(flags["strongly_gauduchon"], "balanced but not strongly_gauduchon")
    if flags["strongly_gauduchon"]:
        _require(flags["gauduchon"], "strongly_gauduchon but not gauduchon")
    if query.expected("torus"):
        _require(all(flags.values()), "a torus metric misses a flag")
    return [flags[f] for f in FLAGS]


def _transverse(query, exit_code, payload):
    kind = payload["kind"]
    positive = kind in POSITIVE_KINDS
    _exit_matches(exit_code, positive, "transverse")
    expected = query.expected("transverse")
    if expected is True:
        _require(positive, f"a transverse form was {kind}")
    elif expected is False:
        _require(kind == "falsified", f"a non-transverse form was {kind}")
    return kind


def _psymplectic(query, exit_code, payload):
    closed = payload["closed"]
    _exit_matches(exit_code, closed, "closed")
    _require(closed == query.expected("closed"),
             f"closed = {closed}, the closedness scalar says {query.expected('closed')}")
    if closed:
        _require(payload["solvable"], "closed but the ansatz system is inconsistent")
    return [closed, payload["solvable"]]


def _obstruct(query, exit_code, payload):
    found = payload["found"]
    _exit_matches(exit_code, bool(found), "found")
    p = int(query.args[query.args.index("--p") + 1])
    betas = []
    for cert in found:
        _require(cert["p"] == p and cert["mode"] == "d", f"certificate for p = {cert['p']}")
        beta = cert["beta"]["terms"]
        betas.append(sorted(f"{t['holo']}|{t['anti']}|{t['re']}|{t['im']}" for t in beta))
    return sorted(betas)


def _validate(query, exit_code, payload):
    _exit_matches(exit_code, payload["ok"], "ok")
    _require(payload["ok"], "a catalog structure failed d*d = 0")
    _require(payload["integrable"], "a catalog structure is not integrable")
    return [payload["ok"], payload["integrable"]]


_CHECKS = {
    "bc-dims": _bc_dims,
    "ddbar-lemma": _ddbar,
    "classify-metric": _classify,
    "transverse": _transverse,
    "psymplectic": _psymplectic,
    "obstruct": _obstruct,
    "validate": _validate,
}
