"""``tools/bench_ab.py``'s records and summary, on canned run lines, and
``tools/dump_cli.py``'s refusal table."""

import importlib.util
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dump_cli pins thread counts and drops GEOWB_SEED on import
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


bench_ab = load_tool("bench_ab")


def run_line(qps, p50, failed=0):
    """The last output line of a ``perfbench/run.py --trace 0`` run."""
    metrics = {"setup_s": (0.2, "s"), "query_p50_ms": (p50, "ms"),
               "query_p90_ms": (3 * p50, "ms"), "queries_per_s": (qps, "1/s"),
               "peak_rss_mb": (41.0, "MB")}
    return json.dumps({
        "correct": failed == 0, "attempted": int(5 * qps), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# (seed, queries_per_s, query_p50_ms) of the parent and of the change
PARENT = [(31, 200.0, 3.0), (32, 210.0, 3.0), (33, 205.0, 3.1), (34, 220.0, 3.2)]
CHANGE = [(31, 260.0, 2.5), (32, 200.0, 3.1), (33, 270.0, 2.6), (34, 265.0, 2.7)]


def canned_runs(workload="fresh-classify"):
    runs = []
    for k, (parent, change) in enumerate(zip(PARENT, CHANGE)):
        first = "parent" if k % 2 == 0 else "change"
        sides = [("parent", parent), ("change", change)]
        for side, (seed, qps, p50) in sides if first == "parent" else sides[::-1]:
            runs.append(bench_ab.record(workload, seed, side, first, 30.0 + k + (side == "change"),
                                        run_line(qps, p50)))
    return runs


def test_record_reads_the_last_line():
    rec = bench_ab.record("cohomology-scan", 31, "change", "parent", 12.345,
                          run_line(443.01234567, 1.5))
    assert rec == {
        "workload": "cohomology-scan", "seed": 31, "side": "change", "first": "parent",
        "wall_s": 12.3, "correct": True, "attempted": 2215, "failed": 0,
        "metrics": {"setup_s": 0.2, "query_p50_ms": 1.5, "query_p90_ms": 4.5,
                    "queries_per_s": 443.012346, "peak_rss_mb": 41.0},
        "trace": 0,
    }


def test_summary_medians_quartiles_and_wins():
    summary = bench_ab.summarize(canned_runs(), bench_ab.directions())
    rows = summary["fresh-classify"]
    assert rows["queries_per_s"] == {
        "parent_median": 207.5, "parent_q1_q3": [203.75, 212.5],
        "change_median": 262.5, "change_q1_q3": [245.0, 266.25],
        "change_wins": "3/4",
    }
    # lower is better for latency; a tie is no win
    assert rows["query_p50_ms"]["change_wins"] == "3/4"
    assert rows["setup_s"]["change_wins"] == "0/4"
    assert rows["wall_s"] == {"parent_median": 31.5, "parent_range": [30.0, 33.0],
                              "change_median": 32.5, "change_range": [31.0, 34.0]}
    assert rows["attempted_median"] == {"parent": 1037.5, "change": 1312.5}


def test_workloads_are_summarised_apart():
    runs = canned_runs() + canned_runs("transverse-sampling")[:2]
    summary = bench_ab.summarize(runs, bench_ab.directions())
    assert list(summary) == ["fresh-classify", "transverse-sampling"]
    one = summary["transverse-sampling"]["queries_per_s"]
    assert one["parent_q1_q3"] == [200.0, 200.0]
    assert one["change_wins"] == "1/1"


@pytest.mark.parametrize("failed", [0, 2])
def test_failed_queries_are_bad_runs(failed):
    runs = canned_runs()
    runs.append(bench_ab.record("fresh-classify", 35, "change", "change", 30.0,
                                run_line(250.0, 2.7, failed)))
    assert bench_ab.bad_runs(runs) == ([runs[-1]] if failed else [])


def test_refusal_table_has_no_internal_error(tmp_path, monkeypatch):
    dump_cli = load_tool("dump_cli")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    codes = dump_cli.dump_refusals(out)
    lines = out.getvalue().splitlines()
    assert [line.split()[1] for line in lines] == [label for label, _ in dump_cli.REFUSALS]
    assert 3 not in codes, out.getvalue()
    # the same metric is positive definite within 1e-15 and refused within 1e-12
    assert codes[-2:] == [0, 2]
