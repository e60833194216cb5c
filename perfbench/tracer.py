"""Outside-in tracer for geowb.

The tracer wraps the public functions of the program's layers from the
benchmark's side, without touching ``src/``: every wrapped call records a
span (id, parent id, name, layer, start, end), and a layer's self time is
a span's duration minus the part its child spans cover.  Names bound by
``from .module import name`` in consumer modules are rebound too, so a
call through ``existence.form_power`` is traced like one through
``metrics.form_power``.

Scalar ``GaussRational`` operators and ``forms.wedge_monomials`` are not
wrapped: they run millions of times per query, and a wrapper on each would
distort the run.  Their time counts as self time of the layer that calls
them.  The scalar layer is measured by ``scalarbench`` instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import random
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import NamedTuple

from geowb.scalars import GaussRational

LAYERS = ("linalg", "forms", "lie", "metrics", "existence", "positivity", "catalog")
CLASS_METHODS = {
    "lie": ("StructurePresentation",),
    "metrics": ("HermitianMetric",),
    "catalog": ("CatalogEntry",),
}
NOT_WRAPPED = {"forms.wedge_monomials"}

ROOT = "cli.query"
HOOK = "trace.hook"
OPERAND_POOL = 4096


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    layer: str
    start: int  # ns
    end: int  # ns


def self_times(spans) -> dict[int, int]:
    """Self time of every span: its duration minus its children's durations."""
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent:
            covered[s.parent] += s.end - s.start
    return {s.id: s.end - s.start - covered[s.id] for s in spans}


class Totals:
    """Span aggregates over all traced queries."""

    def __init__(self):
        self.queries = 0
        self.wall_ns = 0
        self.layer_self_ns: Counter = Counter()
        self.name_self_ns: Counter = Counter()
        self.name_incl_ns: Counter = Counter()
        self.name_calls: Counter = Counter()

    def add(self, spans) -> None:
        selfs = self_times(spans)
        for s in spans:
            self.layer_self_ns[s.layer] += selfs[s.id]
            self.name_self_ns[s.name] += selfs[s.id]
            self.name_incl_ns[s.name] += s.end - s.start
            self.name_calls[s.name] += 1
            if s.parent == 0:
                self.wall_ns += s.end - s.start
        self.queries += 1


class Tracer:
    def __init__(self, seed: int = 0):
        self.spans: list[Span] = []
        self.stack: list[tuple[int, str]] = []
        self.ids = itertools.count(1)
        self.totals = Totals()
        self.counters: Counter = Counter()
        self.falsify_samples: list[int] = []
        self.operands: list = []
        self._operand_seen = 0
        self._rng = random.Random(seed)
        self._dmono_seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # ---- spans ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        hook = _HOOKS.get(name)
        spans = self.spans
        stack = self.stack
        ids = self.ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    h0 = perf_counter_ns()
                    hook(self, args, result)
                    spans.append(Span(next(ids), sid, HOOK, "trace", h0, perf_counter_ns()))
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append(Span(sid, parent, name, layer, start, end))

        return wrapper

    def query(self, call):
        """Run ``call()`` as one traced query under a ``cli.query`` root span."""
        wrapped = self._wrap(call, ROOT, "cli")
        try:
            return wrapped()
        finally:
            self.totals.add(self.spans)
            self.spans.clear()
            self.counters["lie.d_monomial_distinct"] += len(self._dmono_seen)
            self._dmono_seen.clear()

    # ---- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every import of them."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"geowb.{layer}")
            for name, obj in list(vars(module).items()):
                full = f"{layer}.{name}"
                if (name.startswith("_") or full in NOT_WRAPPED
                        or not inspect.isfunction(obj) or obj.__module__ != module.__name__):
                    continue
                replacements[obj] = self._wrap(obj, full, layer)
            for cls_name in CLASS_METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_"):
                        continue
                    full = f"{layer}.{cls_name}.{name}"
                    if isinstance(attr, (classmethod, staticmethod)):
                        new = type(attr)(self._wrap(attr.__func__, full, layer))
                    elif inspect.isfunction(attr):
                        new = self._wrap(attr, full, layer)
                    else:
                        continue
                    self._patches.append((cls, name, attr))
                    setattr(cls, name, new)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "geowb" or mod_name.startswith("geowb.")):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patches.append((module, name, obj))
                    setattr(module, name, replacements[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ---- operand capture (for the scalar microbenchmark) ------------------

    def capture(self, values, k: int = 4) -> None:
        """Reservoir-sample up to ``k`` nonzero exact scalars from ``values``."""
        if not values:
            return
        for _ in range(k):
            x = values[self._rng.randrange(len(values))]
            if not isinstance(x, GaussRational) or not x:
                continue
            self._operand_seen += 1
            if len(self.operands) < OPERAND_POOL:
                self.operands.append(x)
            else:
                j = self._rng.randrange(self._operand_seen)
                if j < OPERAND_POOL:
                    self.operands[j] = x

    # ---- per-layer metrics ------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-query means of counts and times, plus run-wide ratios."""
        t = self.totals
        c = self.counters
        q = max(t.queries, 1)

        def per_query_s(ns):
            return ns / 1e9 / q

        def calls(*names):
            return sum(t.name_calls[n] for n in names) / q

        def layer_calls(layer):
            prefix = layer + "."
            return sum(v for n, v in t.name_calls.items() if n.startswith(prefix)) / q

        sp = "lie.StructurePresentation."
        sample_s = t.name_incl_ns["positivity.transversality_sample"] / 1e9
        return {
            "linalg.self_s": per_query_s(t.layer_self_ns["linalg"]),
            "linalg.elim_s": per_query_s(t.name_self_ns["linalg.rref"]),
            "linalg.elim_calls": calls("linalg.rref"),
            "linalg.matrix_entries": c["linalg.matrix_entries"] / q,
            "linalg.matvec_s": per_query_s(
                t.name_self_ns["linalg.matvec"] + t.name_self_ns["linalg.sum_product"]),
            "linalg.matvec_calls": c["linalg.matvec_calls"] / q,
            "linalg.zero_entry_frac": _ratio(c["linalg.matvec_zero_entries"],
                                             c["linalg.matvec_entries"]),
            "forms.wedge_calls": calls("forms.wedge"),
            "forms.wedge_term_pairs": c["forms.wedge_term_pairs"] / q,
            "forms.self_s": per_query_s(t.layer_self_ns["forms"]),
            "metrics.form_power_calls": calls("metrics.form_power"),
            "metrics.form_power_s": per_query_s(t.name_incl_ns["metrics.form_power"]),
            "metrics.self_s": per_query_s(t.layer_self_ns["metrics"]),
            "lie.d_calls": calls(sp + "d"),
            "lie.dolbeault_calls": calls(sp + "del_", sp + "delbar", sp + "del_delbar"),
            "lie.d_monomial_calls": calls(sp + "d_monomial"),
            "lie.d_monomial_reuse": 1.0 - _ratio(c["lie.d_monomial_distinct"],
                                                 t.name_calls[sp + "d_monomial"], 1.0),
            "lie.self_s": per_query_s(t.layer_self_ns["lie"]),
            "catalog.instantiate_calls": calls("catalog.CatalogEntry.instantiate"),
            "catalog.self_s": per_query_s(t.layer_self_ns["catalog"]),
            "existence.calls": layer_calls("existence"),
            "existence.self_s": per_query_s(t.layer_self_ns["existence"]),
            "cli.self_s": per_query_s(t.layer_self_ns["cli"]),
            "positivity.samples": c["positivity.samples"] / q,
            "positivity.samples_per_s": _ratio(c["positivity.samples"], sample_s),
            "positivity.samples_to_falsify": _ratio(sum(self.falsify_samples),
                                                    len(self.falsify_samples)),
            "positivity.quadric_starts": c["positivity.quadric_starts"] / q,
            "positivity.self_s": per_query_s(t.layer_self_ns["positivity"]),
            "trace.self_s": per_query_s(t.layer_self_ns["trace"]),
            "trace.query_s": per_query_s(t.wall_ns),
        }


def _ratio(num, den, empty: float = 0.0) -> float:
    return num / den if den else empty


# ---- hooks: counts measured where the work happens ------------------------


def _hook_rref(tr: Tracer, args, result) -> None:
    matrix = args[0]
    if matrix and matrix[0]:
        tr.counters["linalg.matrix_entries"] += len(matrix) * len(matrix[0])
        tr.capture(matrix[tr._rng.randrange(len(matrix))])


def _count_zero_entries(tr: Tracer, rows) -> None:
    tr.counters["linalg.matvec_calls"] += 1
    for row in rows:
        tr.counters["linalg.matvec_entries"] += len(row)
        tr.counters["linalg.matvec_zero_entries"] += sum(1 for x in row if not x)


def _hook_matvec(tr: Tracer, args, result) -> None:
    _count_zero_entries(tr, args[0])


def _hook_sum_product(tr: Tracer, args, result) -> None:
    # a row product inside matvec is counted by matvec's hook
    if len(tr.stack) < 2 or tr.stack[-2][1] != "linalg.matvec":
        _count_zero_entries(tr, [args[0]])


def _hook_wedge(tr: Tracer, args, result) -> None:
    f, g = args[0], args[1]
    tr.counters["forms.wedge_term_pairs"] += len(f.terms) * len(g.terms)
    tr.capture(list(f.terms.values()), 2)


def _hook_d_monomial(tr: Tracer, args, result) -> None:
    tr._dmono_seen.add((id(args[0]), args[1]))


def _hook_sample(tr: Tracer, args, result) -> None:
    verdict = result[0] if isinstance(result, tuple) else result
    tr.capture(list(args[0].terms.values()))
    if verdict.samples:
        tr.counters["positivity.samples"] += verdict.samples
        if verdict.kind == "falsified":
            tr.falsify_samples.append(verdict.samples)


def _hook_quadric_matrix(tr: Tracer, args, result) -> None:
    tr.capture(list(args[0].terms.values()))


def _hook_quadric(tr: Tracer, args, result) -> None:
    if result.samples:
        tr.counters["positivity.quadric_starts"] += result.samples


_HOOKS = {
    "linalg.rref": _hook_rref,
    "linalg.matvec": _hook_matvec,
    "linalg.sum_product": _hook_sum_product,
    "forms.wedge": _hook_wedge,
    "lie.StructurePresentation.d_monomial": _hook_d_monomial,
    "positivity.transversality_sample": _hook_sample,
    "positivity.quadric_matrix": _hook_quadric_matrix,
    "positivity.quadric_transversality": _hook_quadric,
}
