"""Tests of the benchmark itself: inputs, oracle, tracer and a smoke run."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    first = workloads.make_round(name, 7, 1)
    again = workloads.make_round(name, 7, 1)
    other = workloads.make_round(name, 8, 1)
    assert first == again
    assert [q.digest() for q in first] != [q.digest() for q in other]
    assert [q.stratum for q in first] == [q.stratum for q in other]


def test_rounds_cycle():
    name = "fresh-classify"
    assert workloads.make_round(name, 3, 0) == workloads.make_round(
        name, 3, workloads.DISTINCT_ROUNDS[name])


def _payload(query, exit_code, payload):
    return oracle.verdict(query, exit_code, json.dumps(payload))


def test_oracle_rejects_injected_wrong_verdicts():
    closed = workloads.psymplectic_query(workloads.random.Random(1), "fps6", True, "f")
    good = {"closed": True, "solvable": True}
    assert _payload(closed, 0, good) == [True, True]
    with pytest.raises(oracle.OracleError):
        _payload(closed, 1, {"closed": False, "solvable": True})
    with pytest.raises(oracle.OracleError):
        _payload(closed, 1, good)  # exit code disagrees with the verdict

    bc = workloads.Query("bc-dims", ("x",), expect=(("rank", 1), ("torus", True)))
    dims = {"0,0": 1, "0,1": 1, "1,0": 1, "1,1": 1}
    assert _payload(bc, 0, {"dimensions": dims})
    with pytest.raises(oracle.OracleError):
        _payload(bc, 0, {"dimensions": {**dims, "0,1": 2}})  # breaks h^{p,q} = h^{q,p}

    form = workloads.Query("transverse", ("--form", "@f"), expect=(("transverse", False),))
    with pytest.raises(oracle.OracleError):
        _payload(form, 0, {"kind": "not-falsified"})

    metric = workloads.Query("classify-metric", ("x",))
    flags = dict.fromkeys(oracle.FLAGS, False)
    with pytest.raises(oracle.OracleError):
        _payload(metric, 0, {"flags": {**flags, "kahler": True}})


def test_oracle_checks_the_reference_table():
    query = workloads.Query("ddbar-lemma", ("x", "--p", "1", "--q", "1"))
    stdout = json.dumps({"holds": True})
    table = {query.digest(): oracle.verdict_key(True)}
    assert oracle.check(query, 0, stdout, table) is True
    table = {query.digest(): oracle.verdict_key(False)}
    with pytest.raises(oracle.OracleError):
        oracle.check(query, 0, stdout, table)
    with pytest.raises(oracle.OracleError):
        oracle.check(query, 3, "", {})


def test_self_times_on_a_span_tree():
    # root 0..100 with children a 10..40 (grandchild 20..25) and b 50..90
    spans = [
        Span(3, 2, "a1", "x", 20, 25),
        Span(2, 1, "a", "x", 10, 40),
        Span(4, 1, "b", "y", 50, 90),
        Span(1, 0, "root", "cli", 0, 100),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 30, 2: 25, 3: 5, 4: 40}
    assert sum(selfs.values()) == 100


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = set(Tracer().layer_metrics()) | {"trace.overhead_frac"}
    names |= {f"scalars.{op}_ns" for op in ("mul", "add", "div")}
    assert names == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert run._layer_unit(m["name"]) == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run(name, tmp_path):
    client = run.Client(tmp_path)
    queries = [(q, client.prepare(q)) for q in workloads.make_round(name, 1, 0)[:2]]
    outcomes = run.run_queries(client, queries, oracle.load_reference())
    assert run.count_failures(outcomes) == 0


def test_speed_probe_scales_by_the_kernel_times_around_an_interval(monkeypatch):
    times = iter([0.002] * 6 + [0.006, 0.009])
    monkeypatch.setattr(speedprobe, "kernel_seconds", lambda: next(times))
    probe = speedprobe.SpeedProbe(warmup=5)
    assert probe.scale() == pytest.approx(speedprobe.REFERENCE_S / 0.004)
    assert probe.scale() == pytest.approx(speedprobe.REFERENCE_S / 0.0075)


def test_query_times_are_scaled_by_the_probe(tmp_path):
    class Probe:
        def scale(self):
            return 2.0

    client = run.Client(tmp_path)
    queries = [(q, client.prepare(q)) for q in workloads.make_round("fresh-classify", 1, 0)[:1]]
    [outcome] = run.run_queries(client, queries, oracle.load_reference(), probe=Probe())
    assert outcome.error is None
    assert outcome.scaled == 2.0 * outcome.seconds


def test_tracer_spans_account_for_the_query_and_uninstall_cleanly(tmp_path):
    import geowb.existence
    import geowb.forms

    original = geowb.forms.wedge
    client = run.Client(tmp_path)
    query = workloads.make_round("fresh-classify", 1, 0)[0]
    argv = client.prepare(query)
    tracer = Tracer()
    tracer.install()
    try:
        assert geowb.existence.wedge is not original
        code, stdout = tracer.query(lambda: client.invoke(argv))
    finally:
        tracer.uninstall()
    assert geowb.existence.wedge is original and geowb.forms.wedge is original
    oracle.verdict(query, code, stdout)
    metrics = tracer.layer_metrics()
    layers = [k for k in metrics if k.endswith(".self_s")]
    assert sum(metrics[k] for k in layers) == pytest.approx(metrics["trace.query_s"])
    assert metrics["forms.wedge_calls"] > 0 and metrics["metrics.form_power_calls"] > 0
