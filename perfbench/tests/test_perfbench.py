"""The benchmark's own checks: deterministic inputs, a checker that rejects
bad reports, and the span recorder's self-time arithmetic.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import check
import spans
from conftest import BENCH
from workloads import WORKLOADS, make_rng, sparse_graph
from influx.cli import dumps_report, main


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(name):
    graph = WORKLOADS[name].graph
    first = graph(make_rng(7)).text()
    assert graph(make_rng(7)).text() == first
    assert graph(make_rng(8)).text() != first


def _report(tmp_path, capsys, graph, *argv):
    path = tmp_path / "graph.csv"
    path.write_text(graph.text())
    assert main([*argv, str(path)]) == 0
    return capsys.readouterr().out


def _flip(x: float, which: str) -> float:
    """`x` with its first or last significant digit changed."""
    text = repr(x)
    digits = [i for i, c in enumerate(text) if c.isdigit() and (c != "0" or which == "last")]
    i = digits[0] if which == "first" else digits[-1]
    return float(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])


def test_checker_accepts_correct_reports(tmp_path, capsys):
    g = sparse_graph(make_rng(3), 40)
    cases = [
        (check.compute_checker(g, "pwp", lam=1.0), ["compute", "--method", "pwp"]),
        (check.compute_checker(g, "pagerank", p=0.86), ["compute", "--method", "pagerank"]),
        (check.compare_checker(g), ["compare"]),
        (check.montecarlo_checker(g, lam=4.0, samples=2000, seed=5),
         ["montecarlo", "--lambda", "4", "-N", "2000", "--seed", "5"]),
    ]
    for checker, argv in cases:
        out = _report(tmp_path, capsys, g, *argv).encode()
        assert checker.problems(0, out, "") == []
        assert checker.problems(0, out, "") == []  # identical repeat


def test_checker_rejects_bad_reports(tmp_path, capsys):
    g = sparse_graph(make_rng(3), 40)
    out = _report(tmp_path, capsys, g, "compute", "--method", "pwp")
    report = json.loads(out)
    i = max(range(g.n), key=lambda v: report["d"][v])

    def with_d(value):
        bad = json.loads(out)
        bad["d"][i] = value
        return dumps_report(bad).encode()

    def fresh():
        return check.compute_checker(g, "pwp", lam=1.0)

    # a wrong leading digit is outside the tolerance
    assert fresh().problems(0, with_d(_flip(report["d"][i], "first")), "")
    # a wrong 12th digit is inside it, but differs from the first report's bytes
    last = with_d(_flip(report["d"][i], "last"))
    assert last != out.encode() and fresh().problems(0, last, "") == []
    checker = fresh()
    assert checker.problems(0, out.encode(), "") == []
    assert checker.problems(0, last, "")
    assert fresh().problems(1, out.encode(), "")
    assert fresh().problems(0, out.encode(), "Traceback (most recent call last):\n")
    assert fresh().problems(0, out.encode(), "x.py:1: RuntimeWarning: overflow\n")


def test_self_time_of_nested_calls(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    recorder = spans.Recorder("r")
    inner = recorder.wrap("graph.inner", lambda: None)
    outer = recorder.wrap("cli.outer", lambda: (inner(), inner()))
    outer()
    recorded = [asdict(s) for s in recorder.spans]
    assert [(s["name"], s["parent"], s["run"]) for s in recorded] == [
        ("cli.outer", None, "r"), ("graph.inner", 0, "r"), ("graph.inner", 0, "r")]
    assert spans.self_values(recorded, "start", "end") == [7.0, 2.0, 1.0]


def test_traced_run_counts_come_from_returned_values(tmp_path):
    g = sparse_graph(make_rng(4), 60)
    path = tmp_path / "graph.csv"
    path.write_text(g.text())
    out = tmp_path / "traced.json"
    subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), "--out", str(out), "--trace", "t", "--",
         "compare", str(path)],
        check=True, env={"PYTHONPATH": str(BENCH.parent / "src")}, cwd=tmp_path,
    )
    result = json.loads(out.read_text())
    report = json.loads(result["report"])
    metrics = spans.summarize(result["spans"], result["counts"])
    terms = report["methods"][0]["diagnostics"]["terms_used"]
    assert metrics["linalg.exp_plus.terms"] == terms
    assert metrics["linalg.matmuls"] == terms - 1 + 3  # the series, then D^4
    assert metrics["cli.kendall_tau.pairs"] == 6 * 60 * 59 // 2
    assert metrics["methods.pagerank.iterations"] == report["methods"][2]["diagnostics"]["iterations"]
    assert metrics["graph.edges"] == g.src.size
    assert metrics["cli.report_bytes"] == len(result["report"])
    main_span = result["spans"][0]
    assert main_span["name"] == "cli.main"
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(main_span["end"] - main_span["start"], abs=1e-9)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "latency_p50_s", "cpu_p50_s", "ops_per_s", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
