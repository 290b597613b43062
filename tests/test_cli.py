"""Command-line surface: reports, determinism, exit codes, generation."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import influx
from influx import errors
from influx.cli import dumps_report, kendall_tau, main
from influx import parse_edge_list

LINE3 = "1,2,1.0\n2,3,1.0\n"


@pytest.fixture
def line3(tmp_path):
    path = tmp_path / "line3.csv"
    path.write_text(LINE3)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- compute ----------------------------------------------------------------------

def test_compute_pwp_line3(line3, capsys):
    code, out, _ = run(capsys, "compute", "--method", "pwp", "--lambda", "1", line3)
    assert code == 0
    report = json.loads(out)
    assert [round(x, 3) for x in report["d"]] == [0.0, 0.582, 0.873]
    assert [round(x, 3) for x in report["f"]] == [0.873, 0.582, 0.0]
    assert report["method"]["name"] == "pwp"
    assert report["graph"] == {"n": 3, "edges": 2}
    assert "T" not in report


def test_compute_pwp_paper_scale(line3, capsys):
    code, out, _ = run(
        capsys, "compute", "--method", "pwp", "--paper-scale", line3
    )
    report = json.loads(out)
    assert report["paper_scale"] is True
    assert report["d"] == [0.0, 1.0, 1.5]
    assert report["f"] == [1.5, 1.0, 0.0]


def test_compute_micmac_zero_vectors(line3, capsys):
    code, out, _ = run(capsys, "compute", "--method", "micmac", "-k", "4", line3)
    assert code == 0
    report = json.loads(out)
    assert report["d"] == [0.0, 0.0, 0.0]
    assert report["f"] == [0.0, 0.0, 0.0]


def test_compute_pagerank_stationary(line3, capsys):
    code, out, _ = run(capsys, "compute", "--method", "pagerank", "-p", "0.86", line3)
    assert code == 0
    report = json.loads(out)
    assert report["d"] == pytest.approx([0.18, 0.34, 0.48], abs=0.02)
    assert report["f"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)
    assert report["dependence_row_sums"] == pytest.approx(
        [3 * x for x in report["d"]], abs=1e-9
    )
    top = report["ranking_by_dependence"][0]
    assert top[0] == 3


def test_compute_emit_matrix(line3, capsys):
    code, out, _ = run(
        capsys, "compute", "--method", "pwp", "--emit-matrix", line3
    )
    report = json.loads(out)
    t = np.array(report["T"])
    assert t.shape == (3, 3)
    assert t[1, 0] == pytest.approx(1 / math.expm1(1), abs=1e-12)


def test_compute_csv(line3, capsys):
    code, out, _ = run(capsys, "compute", "--method", "pwp", "--csv", line3)
    lines = out.strip().splitlines()
    assert lines[0] == "vertex,d,f"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 0.0


def test_compute_output_file(line3, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "compute", "--method", "pwp", "-o", str(dest), line3
    )
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["method"]["name"] == "pwp"


def test_reports_round_trip_byte_identical(line3, capsys):
    for method in ("pwp", "micmac", "pagerank"):
        code, out, _ = run(capsys, "compute", "--method", method, line3)
        assert dumps_report(json.loads(out)) == out


def test_reports_deterministic_across_runs(line3, capsys):
    runs = [
        run(capsys, "compute", "--method", "pagerank", line3)[1] for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]


# -- exit codes ----------------------------------------------------------------------

def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,1.0\nbogus line\n")
    code, _, err = run(capsys, "compute", "--method", "pwp", str(bad))
    assert code == 2
    assert "line 2" in err


def test_duplicate_edge_exit_2(tmp_path, capsys):
    bad = tmp_path / "dup.csv"
    bad.write_text("1,2,1.0\n1,2,2.0\n")
    code, _, err = run(capsys, "compute", "--method", "pwp", str(bad))
    assert code == 2
    assert "duplicate" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--method", "pwp", "/nonexistent/g.csv")
    assert code == 2


def test_no_convergence_exit_3(line3, capsys):
    code, _, err = run(
        capsys, "compute", "--method", "pagerank", "--max-iter", "1", line3
    )
    assert code == 3
    assert "iteration" in err


def test_usage_error_unknown_method(line3):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--method", "sorcery", line3])
    assert exc.value.code == 2


def test_bad_parameter_exit_2(line3, capsys):
    code, _, err = run(capsys, "compute", "--method", "pwp", "--lambda", "-1", line3)
    assert code == 2
    code, _, err = run(capsys, "compute", "--method", "pagerank", "-p", "1.5", line3)
    assert code == 2


def test_every_influence_error_names_its_exit_code():
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.InfluenceError)
    ]
    assert all(c.exit_code in {2, 3} for c in classes)
    parse = {errors.MalformedLine, errors.NonFiniteWeight, errors.DuplicateEdge,
             errors.IndexOutOfRange}
    assert {c for c in classes if c.exit_code == 2} == parse


def test_pagerank_empty_graph_exit_3(tmp_path, capsys):
    # DimensionMismatch is also a ValueError; it must keep its own code
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run(capsys, "compute", "--method", "pagerank", str(path))
    assert code == 3
    assert "empty" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--method", "pwp", "--lambda", "800"],
        ["compute", "--method", "pwp", "--lambda", "1e308"],
        ["compute", "--method", "pwp", "--lambda", "800", "--paper-scale"],
        ["compare", "--lambda", "800"],
        ["montecarlo", "--lambda", "800", "-N", "10"],
    ],
)
def test_overflowing_lambda_exit_3(line3, capsys, argv):
    code, out, err = run(capsys, *argv, line3)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "overflow" in err


BIG_PAIR = "1,2,1e200\n2,1,1e200\n"
K50_WEIGHT_20 = "".join(f"{i},{j},20\n" for i in range(1, 51) for j in range(1, 51) if i != j)


@pytest.mark.parametrize(
    "flags, edges",
    [
        (["micmac"], BIG_PAIR),
        (["pwp"], BIG_PAIR),
        (["pwp"], K50_WEIGHT_20),  # used to run all 10 000 series terms
        (["micmac", "-k", "1"], "1,2,1.7e308\n3,2,1.7e308\n"),  # finite T, infinite row sum
    ],
    ids=["micmac-1e200", "pwp-1e200", "pwp-K50", "micmac-row-sum"],
)
def test_kernel_overflow_exit_3(tmp_path, capsys, flags, edges):
    path = tmp_path / "big.csv"
    path.write_text(edges)
    code, out, err = run(capsys, "compute", "--method", *flags, str(path))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "overflows the float range" in err


@pytest.mark.parametrize(
    "argv, edges",
    [
        (["compute", "--method", "pwp", "--lambda", "800"], LINE3),
        (["compute", "--method", "micmac"], BIG_PAIR),
    ],
    ids=["lambda-800", "micmac-1e200"],
)
def test_overflow_stderr_is_one_line_in_a_real_process(tmp_path, argv, edges):
    # numpy warnings and tracebacks go to the process's stderr, which capsys
    # does not see
    path = tmp_path / "g.csv"
    path.write_text(edges)
    src = str(Path(influx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "influx.cli", *argv, str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


def test_compare_unknown_method_exit_2(line3, capsys):
    code, _, err = run(capsys, "compare", "--methods", "pwp,sorcery", line3)
    assert code == 2
    assert "sorcery" in err


# -- compare ---------------------------------------------------------------------------

def test_compare_line3_most_dependent(line3, capsys):
    code, out, _ = run(capsys, "compare", line3)
    assert code == 0
    report = json.loads(out)
    names = [b["method"]["name"] for b in report["methods"]]
    assert names == ["pwp", "micmac", "pagerank"]
    by_name = dict(zip(names, report["methods"]))
    assert by_name["pwp"]["ranking_by_dependence"][0][0] == 3
    assert by_name["pagerank"]["ranking_by_dependence"][0][0] == 3


def test_compare_cycle_all_tied(tmp_path, capsys):
    path = tmp_path / "c5.csv"
    path.write_text("".join(f"{i},{i % 5 + 1},1.0\n" for i in range(1, 6)))
    code, out, _ = run(capsys, "compare", str(path))
    report = json.loads(out)
    for block in report["methods"]:
        d = block["d"]
        assert max(d) - min(d) < 1e-9
    assert all(
        tau == 1.0 for tau in report["rank_agreement"]["dependence"].values()
    )


def test_compare_star_hub_on_top(tmp_path, capsys):
    path = tmp_path / "s4.csv"
    main(["generate", "star", "-n", "4", "-o", str(path)])
    code, out, _ = run(capsys, "compare", str(path))
    report = json.loads(out)
    by_name = {b["method"]["name"]: b for b in report["methods"]}
    hub = 5
    assert by_name["pwp"]["ranking_by_influence"][0][0] == hub
    assert by_name["pagerank"]["ranking_by_dependence"][0][0] == hub


def test_compare_subset_of_methods(line3, capsys):
    code, out, _ = run(capsys, "compare", "--methods", "pwp,micmac", line3)
    report = json.loads(out)
    assert len(report["methods"]) == 2
    assert list(report["rank_agreement"]["dependence"]) == ["pwp|micmac"]


# -- generate ----------------------------------------------------------------------------

def test_generate_line(capsys):
    code, out, _ = run(capsys, "generate", "line", "-n", "3")
    assert code == 0
    assert out == "1,2,1.0\n2,3,1.0\n"


def test_generate_star_eight_lines(capsys):
    code, out, _ = run(capsys, "generate", "star", "-n", "4")
    assert len(out.strip().splitlines()) == 8


def test_generate_jordan_five_lines(capsys):
    code, out, _ = run(capsys, "generate", "jordan", "-n", "3", "-a", "0.5")
    lines = out.strip().splitlines()
    assert len(lines) == 5
    g = parse_edge_list(out)
    assert g.out_degree(1) == 2


def test_generate_round_trips_through_parser(capsys):
    code, out, _ = run(capsys, "generate", "cycle", "-n", "4")
    g = parse_edge_list(out)
    assert g.n == 4 and g.edge_count == 4


def test_generate_invalid_size(capsys):
    code, _, err = run(capsys, "generate", "line", "-n", "0")
    assert code == 2


# -- montecarlo ---------------------------------------------------------------------------

def test_montecarlo_line3(line3, capsys):
    code, out, _ = run(
        capsys, "montecarlo", line3, "-N", "100000", "--seed", "0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["max_abs_error"] < 0.01
    assert report["samples"] == 100000
    assert report["mean_length"]["expected"] == pytest.approx(
        math.e / (math.e - 1), abs=1e-10
    )


def test_montecarlo_identity_graph_zero_error(tmp_path, capsys):
    path = tmp_path / "loops.csv"
    path.write_text("1,1,1.0\n2,2,1.0\n3,3,1.0\n")
    code, out, _ = run(capsys, "montecarlo", str(path), "-N", "50", "--seed", "1")
    report = json.loads(out)
    # every power of I is I, so there is no sampling noise at all; what is
    # left is the rounding of the series-computed reference
    assert report["max_abs_error"] < 1e-12


def test_montecarlo_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, out, _ = run(capsys, "montecarlo", str(path), "-N", "10")
    assert code == 0
    report = json.loads(out)
    assert report["graph"] == {"n": 0, "edges": 0}
    assert report["max_abs_error"] == 0.0


def test_montecarlo_zero_samples_usage_error(line3, capsys):
    code, _, err = run(capsys, "montecarlo", line3, "-N", "0")
    assert code == 2


def test_montecarlo_deterministic(line3, capsys):
    a = run(capsys, "montecarlo", line3, "-N", "2000", "--seed", "9")[1]
    b = run(capsys, "montecarlo", line3, "-N", "2000", "--seed", "9")[1]
    assert a == b


# -- kendall tau ----------------------------------------------------------------------------

def test_kendall_tau_perfect_and_reversed():
    assert kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0
    assert kendall_tau([1, 2, 3], [30, 20, 10]) == -1.0


def test_kendall_tau_constant_vectors():
    assert kendall_tau([1, 1, 1], [2, 2, 2]) == 1.0
    assert kendall_tau([1, 1, 1], [1, 2, 3]) == 0.0


def test_kendall_tau_partial_ties():
    value = kendall_tau([1, 1, 2], [1, 2, 3])
    assert value == pytest.approx(2 / math.sqrt(2 * 3), abs=1e-12)
