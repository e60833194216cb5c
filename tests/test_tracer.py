"""The benchmark's tracer on the program as it stands.

``perfbench/tracer.py`` wraps every public function of the program's layers
and reads the arguments of some of them in hooks, by position.  A public
function whose arguments a hook misreads turns a traced query into a
failed one, and the per-layer rows of the benchmark then measure failures.
These tests run the first queries of each kind in round 0 of its workload
with the tracer installed and require the same exit codes and stdout as
without it, and every binding restored afterwards.  They change nothing in
``perfbench/``.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import CLASS_METHODS, Tracer  # noqa: E402

# each query kind and the workload whose round 0 holds it
KINDS = {
    "bc-dims": "cohomology-scan",
    "ddbar-lemma": "cohomology-scan",
    "psymplectic": "fresh-classify",
    "obstruct": "fresh-classify",
    "classify-metric": "fresh-classify",
    "transverse": "transverse-sampling",
}
PER_KIND = 10


def bindings() -> dict:
    """Every function bound in a geowb module or a traced class, by owner and name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "geowb" or name.startswith("geowb.")):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj):
                    out[name, attr] = obj
    for layer, classes in CLASS_METHODS.items():
        module = sys.modules[f"geowb.{layer}"]
        for cls_name in classes:
            out.update(((layer, cls_name, attr), obj)
                       for attr, obj in vars(getattr(module, cls_name)).items())
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_traced_queries_print_what_untraced_ones_print(kind, tmp_path):
    client = run.Client(tmp_path)
    queries = [q for q in workloads.make_round(KINDS[kind], 1, 0) if q.kind == kind]
    argvs = [client.prepare(q) for q in queries[:PER_KIND]]
    assert argvs
    untraced = [client.invoke(argv) for argv in argvs]
    before = bindings()
    tracer = Tracer(1)
    tracer.install()
    try:
        assert bindings() != before
        traced = [tracer.query(lambda argv=argv: client.invoke(argv)) for argv in argvs]
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert [code for code, _ in traced] == [code for code, _ in untraced]
    assert traced == untraced
    assert tracer.totals.queries == len(argvs)
