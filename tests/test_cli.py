"""Command-line surface: reports, determinism, exit codes, generation."""

import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import influx
from influx import errors
from influx.cli import canonical_float, dumps_report, kendall_tau, main
from influx import parse_edge_list
from influx.linalg import _sliced_ell

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


@pytest.mark.parametrize("method", ["pwp", "micmac"])
def test_compute_csv_forms_no_matrix(line3, capsys, monkeypatch, method):
    csv = run(capsys, "compute", "--method", method, "--csv", line3)

    def refuse(*args):
        raise AssertionError("T formed for a CSV")

    monkeypatch.setattr(influx.cli, "pwp_matrix", refuse)
    monkeypatch.setattr(influx.cli, "mat_pow", refuse)
    assert run(capsys, "compute", "--method", method, "--csv", "--emit-matrix", line3) == csv


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


# -- the report writer --------------------------------------------------------------

def ref_canonical(obj):
    """The report tree as the writer prints it: the earlier two-pass writer's
    first pass, kept as the reference."""
    if isinstance(obj, dict):
        return {k: ref_canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [ref_canonical(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return canonical_float(float(obj))
    return obj


def ref_dumps(report: dict) -> str:
    return json.dumps(ref_canonical(report), sort_keys=True, indent=2) + "\n"


def _outcome(write, report):
    """The text written, or the message of the ValueError raised."""
    try:
        return write(report)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize(
    "value",
    [
        -0.0, 5e-324, 1e-05, 123456789012.0, 1234567890123456.0, 1e16, 0.1 + 0.2,
        np.float64(2 / 3), np.float32(0.1), np.int64(-7), np.bool_(True), np.bool_(False),
        (1, 2.5, "x"), [], {}, [[], {}],
        np.array([0.5, -0.0, 1e17]), np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([1, 2, 3]), np.zeros((2, 0)), np.array([True, False]),
        [(1, 0.5), (2, 0.25)], [(1, 0.5), (True, 0.25)], [[1, 0.5]], [1.0, 2], [1.0, np.float64(2)],
        None, 'say "hi" \\ there', "caf\u00e9",
    ],
    ids=repr,
)
def test_writer_edge_cases_match_the_reference(value):
    report = {"value": value, "nested": {"z": [value], "a": (value,)}}
    assert dumps_report(report) == ref_dumps(report)


def test_writer_escapes_keys():
    report = {"caf\u00e9": 1, 'q"\\': 2.0, "": None, "a": {"\u00fc": [0.1]}}
    assert dumps_report(report) == ref_dumps(report)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: [0.5, x],
        lambda x: [[1, 0.5], (2, x)],
        lambda x: [(1, 0.5), (2, x)],
        lambda x: np.array([0.5, x]),
        lambda x: np.array([[0.5, 1.0], [x, 2.0]]),
        lambda x: {"b": np.float64(x)},
    ],
)
def test_writer_rejects_non_finite_values(bad, place):
    report = {"value": place(bad)}
    with pytest.raises(ValueError, match="reports cannot contain non-finite value") as err:
        dumps_report(report)
    assert _outcome(ref_dumps, report) == ("ValueError", str(err.value))


def test_writer_names_the_first_non_finite_value_in_insertion_order():
    report = {"b": [math.nan], "a": [math.inf]}
    assert _outcome(dumps_report, report) == _outcome(ref_dumps, report)
    assert "nan" in _outcome(dumps_report, report)[1]


def _report_values(floats):
    arrays_ = arrays(float, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                     elements=floats)
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=4), floats,
        floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_), arrays_,
        st.lists(floats, max_size=5),  # a vector
        st.lists(st.tuples(st.integers(1, 10**6), floats), max_size=5),  # a ranking
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=4), children, max_size=4),
        ),
        max_leaves=12,
    )


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.225073858507e-309, 1e-05]),
    st.floats(1e11, 1e17),
    st.floats(-1e17, -1e11),
)


@given(st.dictionaries(st.text(max_size=4), _report_values(_FINITE), max_size=5))
def test_writer_matches_the_reference(report):
    assert dumps_report(report) == ref_dumps(report)


@given(st.dictionaries(
    st.text(max_size=4), _report_values(st.one_of(_FINITE, st.floats())), max_size=5
))
def test_writer_fails_like_the_reference(report):
    assert _outcome(dumps_report, report) == _outcome(ref_dumps, report)


def test_import_leaves_numpy_random_unloaded():
    # only montecarlo samples; the other commands should not pay for the generator
    code = "import influx.cli, sys; print('numpy.random' in sys.modules)"
    src = str(Path(influx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_import_leaves_fractions_and_decimal_unloaded():
    # only the Bernoulli functions use exact rationals, and no command calls them
    code = ("import sys, numpy, argparse, json; before = set(sys.modules); import influx.cli; "
            "print(sorted({'fractions', 'decimal'} & (set(sys.modules) - before)))")
    src = str(Path(influx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["compare"], ["compare", "--csv"], ["montecarlo", "-N", "100"]], ids=" ".join)
def test_an_edge_list_with_a_byte_order_mark_reads_as_without(random12, tmp_path, capsys, argv):
    # spreadsheets save "CSV UTF-8" with the mark EF BB BF before the first line
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(random12).read_bytes())
    want = run(capsys, *argv, random12)
    assert want[0] == 0
    assert run(capsys, *argv, str(marked)) == want


@pytest.mark.parametrize("methods", ["pwp,micmac,pagerank", "pagerank"])
def test_compare_forms_no_dense_matrix(random12, capsys, monkeypatch, methods):
    # every engine runs on the graph's edge columns, and so does each
    # --emit-matrix: pwp's chain and micmac's mat_pow form a dense D from
    # the columns, so the CLI has no dense-matrix builder to call
    assert not hasattr(influx.cli, "to_matrix")
    calls = []
    for module, name in [(influx.graph, "web_normalize"), (influx.methods, "pagerank_repair")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(real) or real(*a))
    code, _, _ = run(capsys, "compare", "--methods", methods, random12)
    assert code == 0 and calls == []
    code, _, _ = run(capsys, "compute", "--method", "pwp", "--emit-matrix", random12)
    assert code == 0 and calls == []
    code, _, _ = run(capsys, "compute", "--method", "micmac", "--emit-matrix", random12)
    assert code == 0 and calls == []


def test_published_values_are_rounded_once(random12, capsys, monkeypatch):
    calls = []
    real = influx.cli._number
    monkeypatch.setattr(influx.cli, "_number", lambda x: calls.append(x) or real(x))
    code, out, _ = run(capsys, "compute", "--method", "pwp", random12)
    n = json.loads(out)["graph"]["n"]
    # d and f once each, then lambda, tol and tail_bound; not the rankings
    assert code == 0 and len(calls) == 2 * n + 3


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@example(1e12)
@example(-1e12)
@example(999999999999.9)  # rounds up to 1e12
@example(9.99999999999e15)
@example(9999999999999999.0)
@example(5e-324)
@example(1e-318)
@example(2.2250738585072014e-308)  # the smallest normal float
@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_from_bits).filter(math.isfinite),
))
def test_number_is_repr_of_canonical_float(x):
    assert influx.cli._number(x) == repr(canonical_float(x))


def _with_last_entry_nan(real):
    def patched(*args, **kwargs):
        t = real(*args, **kwargs).copy()
        t[-1, -1] = math.nan
        return t
    return patched


def _with_last_stationary_nan(real):
    def patched(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, stationary=np.append(result.stationary[:-1], math.nan))
    return patched


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "-o"])
@pytest.mark.parametrize("argv, engine, patch", [
    (["compute", "--method", "pwp", "--emit-matrix"], "pwp_matrix", _with_last_entry_nan),
    (["compare"], "pagerank", _with_last_stationary_nan),
    (["compare", "--csv"], "pagerank", _with_last_stationary_nan),
], ids=["pwp-matrix", "compare", "compare-csv"])
def test_a_failing_command_writes_nothing(random12, tmp_path, capsys, monkeypatch,
                                          argv, engine, patch, output):
    # the nan is the last number of the report, so a writer that formatted
    # as it wrote would have written all else first
    monkeypatch.setattr(influx.cli, engine, patch(getattr(influx.cli, engine)))
    dest = tmp_path / "report.json"
    code, out, err = run(capsys, *argv, *(["-o", str(dest)] if output else []), random12)
    assert (code, out) == (2, "")
    assert err == "error: reports cannot contain non-finite value nan\n"
    assert not dest.exists()


def test_an_output_file_is_removed_when_a_write_fails(tmp_path):
    def chunks():
        yield "{"
        raise OSError("No space left on device")

    dest = tmp_path / "report.json"
    with pytest.raises(OSError):
        influx.cli._emit(chunks(), str(dest))
    assert not dest.exists()


def test_an_output_file_is_removed_when_its_flush_fails(tmp_path, monkeypatch):
    # a buffered tail fails only as it is flushed, before the file closes
    class FullDisk(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    def full_open(path, mode, encoding):
        Path(path).touch()
        return FullDisk()

    monkeypatch.setattr(influx.cli, "open", full_open, raising=False)
    dest = tmp_path / "report.json"
    with pytest.raises(OSError, match="No space"):
        influx.cli._emit(iter(["{}\n"]), str(dest))
    assert not dest.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("emit_matrix", [False, True], ids=["flush", "write"])
def test_a_failed_output_write_keeps_a_symlink(tmp_path, edge_list, capsys, emit_matrix):
    # only a regular file is removed; the link, and what it names, stay.  A
    # small report fails as it is flushed, a matrix's 64 KiB chunks as written
    path = tmp_path / "g.csv"
    path.write_text(edge_list(200, 3) if emit_matrix else LINE3)
    link = tmp_path / "link"
    link.symlink_to("/dev/full")
    argv = ["compute", "--method", "pwp", *(["--emit-matrix"] if emit_matrix else [])]
    code, out, err = run(capsys, *argv, str(path), "-o", str(link))
    assert (code, out, err) == (2, "", "error: [Errno 28] No space left on device\n")
    assert link.is_symlink() and os.readlink(link) == "/dev/full"


def test_a_closed_stdout_exits_2(line3, capsys, monkeypatch):
    # Python makes sys.stdout None when the process starts with fd 1 closed
    monkeypatch.setattr(sys, "stdout", None)
    assert run(capsys, "compare", line3) == (2, "", "error: stdout is closed\n")


def _real_process(argv, **kwargs):
    """python -m influx.cli argv, in a process of its own, with buffered
    stdout and influx from this source tree."""
    src = str(Path(influx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "influx.cli", *argv], stderr=subprocess.PIPE,
                          text=True, env=env, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_to_stdout_exits_2_in_a_real_process(line3):
    # the small report sits in stdout's buffer until main flushes it; a
    # flush at interpreter exit would print "Exception ignored" and exit 120
    with open("/dev/full", "w") as full:
        proc = _real_process(["compute", "--method", "pwp", line3], stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("fds, err", [((1,), "error: stdout is closed\n"), ((1, 2), "")],
                         ids=["stdout", "stdout and stderr"])
def test_a_closed_stdout_exits_2_in_a_real_process(line3, fds, err):
    # Python makes sys.stdout None when fd 1 is closed, and sys.stderr too
    # when fd 2 is, so run must not flush it
    proc = _real_process(["compare", line3], preexec_fn=lambda: [os.close(fd) for fd in fds])
    assert (proc.returncode, proc.stderr) == (2, err)


@pytest.mark.parametrize("argv", [
    ["compare"], ["compare", "--csv"], ["compute", "--method", "pwp", "--emit-matrix"],
    ["compute", "--method", "pagerank", "--emit-matrix"], ["generate", "line", "-n", "3"],
], ids=" ".join)
def test_output_file_holds_what_stdout_does(random12, tmp_path, capsys, argv):
    graph = [] if argv[0] == "generate" else [random12]
    dest = tmp_path / "out"
    code, out, _ = run(capsys, *argv, *graph)
    assert code == 0 and run(capsys, *argv, "-o", str(dest), *graph) == (0, "", "")
    assert dest.read_bytes() == out.encode()


def test_reports_are_written_in_large_chunks(tmp_path, edge_list, monkeypatch):
    # stdout may be unbuffered, so each write can be a system call: every
    # write but the last holds at least 64 KiB; one flush follows the last,
    # so a failed write is raised inside main
    path = tmp_path / "g.csv"
    path.write_text(edge_list(200, 3))
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {
        "write": lambda self, s: writes.append(s), "flush": lambda self: writes.append(None),
    })())
    assert main(["compute", "--method", "pwp", "--emit-matrix", str(path)]) == 0
    assert writes.count(None) == 1 and writes.pop() is None
    text = "".join(writes)
    report = json.loads(text)
    assert dumps_report(report) == text
    assert len(writes) > 1 and all(len(w) >= 1 << 16 for w in writes[:-1])


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


@pytest.mark.parametrize("index", [10**20, -10**20])
def test_index_past_int64_exit_2_in_a_real_process(tmp_path, index):
    path = tmp_path / "huge.csv"
    path.write_text(f"1,{index},1.0\n")
    src = str(Path(influx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "influx.cli", "compute", "--method", "pwp", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: vertex index {index} outside [1, {2**63 - 1}]\n"


def test_out_of_memory_exit_3(line3, capsys, monkeypatch):
    def no_room(g):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(influx.cli, "to_operator", no_room)
    code, out, err = run(capsys, "compute", "--method", "pwp", line3)
    assert (code, out, err) == (3, "", "error: Unable to allocate 298. GiB for an array\n")


@pytest.mark.parametrize(
    "argv", [["compute", "--method", "pwp"], ["compute", "--method", "pagerank"], ["compare"], ["montecarlo"]]
)
def test_vast_n_exit_3(tmp_path, capsys, argv):
    # numpy refuses a 5e9 x 5e9 matrix before it allocates anything
    path = tmp_path / "vast.csv"
    path.write_text("1,5000000000,1.0\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: array is too big") and len(err.splitlines()) == 1


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute", "--method", "pwp", "--lambda", "-1"], "lam must be finite and > 0, got -1.0"),
        (["compute", "--method", "pwp", "--tol", "nan"], "tol must be finite and > 0, got nan"),
        (["compute", "--method", "micmac", "-k", "0"], "k must be >= 1, got 0"),
        (["compute", "--method", "pagerank", "-p", "1.5"],
         "p must lie strictly inside (0, 1), got 1.5"),
        (["compute", "--method", "pagerank", "--tol", "0"], "tol must be finite and > 0, got 0.0"),
        (["compute", "--method", "pagerank", "--max-iter", "0"], "max_iter must be >= 1, got 0"),
        # both bad: the first check compare reaches names lam
        (["compare", "--lambda", "0", "-k", "0"], "lam must be finite and > 0, got 0.0"),
    ],
)
def test_bad_parameter_stderr_is_exact(line3, capsys, argv, message):
    code, out, err = run(capsys, *argv, line3)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_every_influence_error_names_its_exit_code():
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.InfluenceError)
    ]
    assert all(c.exit_code in {2, 3} for c in classes)
    parse = {errors.MalformedLine, errors.NonFiniteWeight, errors.DuplicateEdge,
             errors.IndexOutOfRange}
    assert {c for c in classes if c.exit_code == 2} == parse


@pytest.mark.parametrize("argv", [["compare"], ["compare", "--csv"], ["compute", "--method", "pwp"],
                                  ["compute", "--method", "micmac"], ["compute", "--method", "pagerank"],
                                  ["compute", "--method", "pagerank", "--csv"],
                                  ["montecarlo", "-N", "10", "--emit-matrix"]], ids=" ".join)
def test_every_command_answers_an_empty_edge_list(tmp_path, capsys, argv):
    path = tmp_path / "empty.csv"
    path.write_text("# no edges\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, err) == (0, "")
    if "--csv" not in argv:
        report = json.loads(out)
        assert report["graph"] == {"n": 0, "edges": 0}
        for block in report.get("methods", [report]):
            if "d" in block:
                assert block["d"] == block["f"] == block["ranking_by_dependence"] == []


def test_dimension_mismatch_under_main_exits_3(line3, capsys, monkeypatch):
    # DimensionMismatch is also a ValueError, whose exit code is 2; it keeps its own
    def mismatch(*args, **kwargs):
        raise errors.DimensionMismatch("expected a square matrix, got shape (2, 3)")

    monkeypatch.setattr(influx.cli, "pagerank", mismatch)
    code, out, err = run(capsys, "compute", "--method", "pagerank", line3)
    assert (code, out, err) == (3, "", "error: expected a square matrix, got shape (2, 3)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--method", "pwp", "--lambda", "800"],
        ["compute", "--method", "pwp", "--lambda", "1e308"],
        ["compute", "--method", "pwp", "--lambda", "800", "--paper-scale"],
        ["compare", "--lambda", "800"],
        ["montecarlo", "--lambda", "800", "-N", "10"],
        ["montecarlo", "--lambda", "1e19", "-N", "5"],
    ],
)
def test_overflowing_lambda_exit_3(line3, capsys, argv):
    code, out, err = run(capsys, *argv, line3)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "overflow" in err


def test_montecarlo_past_the_sampler_fails_like_any_overflowing_lambda(line3, capsys):
    # e^lambda - 1 is formed before any length is drawn; numpy's sampler
    # would refuse 1e19 itself, with a message that names no option
    code, out, err = run(capsys, "montecarlo", "--lambda", "1e19", "-N", "5", line3)
    _, _, err_800 = run(capsys, "montecarlo", "--lambda", "800", "-N", "5", line3)
    assert code == 3 and out == ""
    assert err == err_800.replace("800.0", "1e+19")


TINY_GRAPH = "1,2,0.5\n2,3,0.25\n3,1,0.125\n1,3,0.5\n"


@pytest.mark.parametrize(
    "argv",
    [["compute", "--method", "pwp"], ["compare"], ["montecarlo", "-N", "1000"]],
    ids=["compute", "compare", "montecarlo"],
)
def test_tiny_lambda_runs(tmp_path, capsys, argv):
    # tol is not multiplied by e^lambda - 1, which underflows to 0 here
    path = tmp_path / "g.csv"
    path.write_text(TINY_GRAPH)
    code, out, err = run(capsys, *argv, "--lambda", "1e-320", str(path))
    assert code == 0 and err == ""
    report = json.loads(out)
    if argv[0] == "montecarlo":
        # every walk has length 1, and T is d to double precision
        assert report["mean_length"]["empirical"] == 1.0
        assert report["max_abs_error"] < 1e-300
    else:
        # T is d to double precision, so pwp's d and f are d's row and column sums
        block = report if argv[0] == "compute" else report["methods"][0]
        d = influx.to_matrix(parse_edge_list(TINY_GRAPH))
        assert block["d"] == [float(f"{x:.12g}") for x in d.sum(axis=1)]
        assert block["f"] == [float(f"{x:.12g}") for x in d.sum(axis=0)]


BIG_PAIR = "1,2,1e200\n2,1,1e200\n"
# sparse enough for the power chain's sliced-ELL step
BIG_CYCLE_400 = "".join(f"{i},{i % 400 + 1},1e200\n" for i in range(1, 401))
# finite d and f at lambda = 700 (about 1e152), past the float range times e^700 - 1
CYCLE2_WEIGHT_1_5 = "1,2,1.5\n2,1,1.5\n"
K50_WEIGHT_20 = "".join(f"{i},{j},20\n" for i in range(1, 51) for j in range(1, 51) if i != j)


@pytest.mark.parametrize(
    "flags, edges",
    [
        (["micmac"], BIG_PAIR),
        (["pwp"], BIG_PAIR),
        (["pwp"], K50_WEIGHT_20),  # used to run all 10 000 series terms
        (["micmac", "-k", "1"], "1,2,1.7e308\n3,2,1.7e308\n"),  # finite T, infinite row sum
        # finite d and f, times e^709 - 1
        (["pwp", "--lambda", "709", "--paper-scale"], "1,1,1.01\n"),
    ],
    ids=["micmac-1e200", "pwp-1e200", "pwp-K50", "micmac-row-sum", "pwp-paper-scale-709"],
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
        (["montecarlo", "-N", "10"], BIG_CYCLE_400),
        (["compute", "--method", "pwp", "--lambda", "700", "--paper-scale"], CYCLE2_WEIGHT_1_5),
        (["compare", "--lambda", "700", "--paper-scale"], CYCLE2_WEIGHT_1_5),
    ],
    ids=["lambda-800", "micmac-1e200", "montecarlo-sparse-1e200", "paper-scale-700",
         "compare-paper-scale-700"],
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
    for methods in ("pwp,pwp", "pwp,micmac,pwp"):  # a repeat is refused, not run twice
        code, out, err = run(capsys, "compare", "--methods", methods, line3)
        assert (code, out) == (2, "")
        assert err == f"error: --methods names pwp more than once, got {methods!r}\n"


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


@pytest.mark.parametrize("text", ["", "1,1,0.5\n"], ids=["n = 0", "n = 1"])
def test_compare_measures_no_agreement_below_two_vertices(tmp_path, capsys, text):
    # with no pair of vertices, Kendall tau's "both constant" 1.0 would be vacuous
    path = tmp_path / "g.csv"
    path.write_text(text)
    code, out, err = run(capsys, "compare", str(path))
    assert (code, err) == (0, "")
    agreement = json.loads(out)["rank_agreement"]
    assert [list(side.values()) for side in agreement.values()] == [[None] * 3] * 2
    assert out.count("null") == 6


def test_compare_two_vertices_measure_agreement(tmp_path, capsys):
    path = tmp_path / "g.csv"
    path.write_text("1,2,0.5\n")
    code, out, _ = run(capsys, "compare", str(path))
    agreement = json.loads(out)["rank_agreement"]
    assert all(type(tau) is float for side in agreement.values() for tau in side.values())


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


@pytest.mark.parametrize(
    "argv",
    [["compute", "--method", "pwp", "--emit-matrix"],
     ["montecarlo", "--lambda", "4", "-N", "1000", "--seed", "3", "--emit-matrix"]],
    ids=["compute", "montecarlo"],
)
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, poisson_matrix, argv):
    # about 5 nonzeros a row at n = 200: the power chain takes the sliced-ELL
    # step, whose batched products go through BLAS
    text = influx.format_edge_list(influx.from_matrix(poisson_matrix(200, 23)))
    assert _sliced_ell(influx.to_matrix(parse_edge_list(text))) is not None
    path = tmp_path / "g.csv"
    path.write_text(text)
    src = str(Path(influx.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "influx.cli", *argv, str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# -- montecarlo ---------------------------------------------------------------------------

def test_montecarlo_line3(line3, capsys):
    code, out, _ = run(
        capsys, "montecarlo", line3, "-N", "100000", "--seed", "0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["max_abs_error"] < 0.01
    assert 0 < report["mean_abs_z"] <= report["max_abs_z"] < 6
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


@pytest.fixture(scope="module")
def graph_20000(tmp_path_factory, edge_list):
    path = tmp_path_factory.mktemp("n20000") / "g.csv"
    path.write_text(edge_list(20_000, 7))
    return str(path)


def test_montecarlo_deterministic_at_n_20000(graph_20000, capsys):
    # four n x n arrays would take 12.8 GB here; the vector chains take a
    # few n-vectors
    argv = ["montecarlo", graph_20000, "--lambda", "4", "-N", "100000", "--seed", "9"]
    a, b = run(capsys, *argv), run(capsys, *argv)
    assert a == b and a[0] == 0 and a[2] == ""
    report = json.loads(a[1])
    assert report["graph"]["n"] == 20_000 and report["max_abs_z"] < 6


def test_montecarlo_max_abs_error_is_over_d_and_f(tmp_path, capsys):
    # the same field with and without --emit-matrix: the largest error of
    # the sampled row and column sums of T, not of its entries
    text = "1,2,0.5\n2,3,0.7\n3,1,0.9\n3,4,0.4\n4,2,0.3\n4,4,0.2\n"
    path = tmp_path / "g.csv"
    path.write_text(text)
    argv = ["montecarlo", str(path), "--lambda", "2", "-N", "5000", "--seed", "3"]
    plain = json.loads(run(capsys, *argv)[1])
    full = json.loads(run(capsys, *argv, "--emit-matrix")[1])
    estimate, exact = np.array(full.pop("estimate")), np.array(full.pop("exact"))
    assert plain == full
    error = estimate - exact
    sums = np.abs(np.concatenate([error.sum(axis=1), error.sum(axis=0)]))
    # each printed entry is rounded to 12 digits
    assert plain["max_abs_error"] == pytest.approx(sums.max(), rel=0, abs=1e-10)


def _montecarlo_report(text, *argv):
    """montecarlo's report on the edge list `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "g.csv", Path(tmp) / "r.json"
        path.write_text(text)
        assert main(["montecarlo", str(path), *argv, "-o", str(out)]) == 0
        return json.loads(out.read_text())


FAMILIES = [influx.Line(1), influx.Line(6), influx.Cycle(5), influx.Jordan(4, 0.5), influx.Jordan(3, 2.0),
            influx.Jordan(4, -1.0), influx.Star(7)]


@pytest.mark.parametrize("lam", ["0.5", "1"])
@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_montecarlo_z_scores_stay_small_on_every_family(spec, lam):
    # seeds 0-4, fixed.  The sample's standard error undershoots where
    # E[(D^K 1)^2] rests on lengths too rare to be drawn: Star(7), of
    # spectral radius sqrt(7), reads a largest |z| of 6.1 on two of six
    # seeds at lambda = 4
    text = influx.format_edge_list(influx.build(spec))
    for seed in range(5):
        report = _montecarlo_report(text, "--lambda", lam, "-N", "2000", "--seed", str(seed))
        assert report["max_abs_z"] < 6


@st.composite
def _scaled_graphs(draw):
    """Graphs of up to 9 vertices with signed weights and self-loops, scaled
    so that no absolute row or column sum of D exceeds 1."""
    n = draw(st.integers(1, 9))
    present = draw(arrays(bool, (n, n)))
    weights = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    weights = np.where(present, weights, 0.0)
    weights /= max(1.0, np.abs(weights).sum(axis=0).max(), np.abs(weights).sum(axis=1).max())
    source, target = np.nonzero(present)
    g = influx.DirectInfluenceGraph(n, zip(source + 1, target + 1, weights[present]))
    return influx.format_edge_list(g)


@given(_scaled_graphs(), st.sampled_from(["0.5", "4"]), st.integers(0, 4))
def test_montecarlo_z_scores_stay_small_on_signed_graphs(text, lam, seed):
    report = _montecarlo_report(text, "--lambda", lam, "-N", "2000", "--seed", str(seed))
    assert report["max_abs_z"] < 6


def test_montecarlo_infinite_z_score_exits_3(line3, capsys, monkeypatch):
    # an error of 1 over a subnormal standard error
    def tiny_error_bars(d, lam, tally, tol):
        n = d.n
        return np.ones((2, n)), np.zeros((2, n)), np.full((2, n), 5e-324)

    monkeypatch.setattr(influx.cli, "_sums", tiny_error_bars)
    code, out, err = run(capsys, "montecarlo", line3, "-N", "10")
    assert (code, out) == (3, "")
    assert err == "error: the sampling error of d or f or its z-score overflows the float range\n"


def test_montecarlo_estimate_is_monte_carlo_pwp(tmp_path, capsys, monkeypatch):
    # cmd_montecarlo draws its own tally of the lengths (it reports their
    # mean), so it must stay the same estimate as the library's
    # monte_carlo_pwp, bit for bit, also where the sampled lengths skip a power
    text = "1,2,0.5\n2,3,0.7\n3,1,0.9\n3,4,0.4\n4,2,0.3\n4,4,0.2\n"
    path = tmp_path / "g.csv"
    path.write_text(text)
    assert (np.diff(np.unique(influx.sample_lengths(4.0, 100_000, influx.make_rng(0)))) > 1).any()
    estimates = []
    real = influx.cli._matrices

    def recorded(*args):
        estimate, exact = real(*args)
        estimates.append(estimate)
        return estimate, exact

    monkeypatch.setattr(influx.cli, "_matrices", recorded)
    code, _, _ = run(capsys, "montecarlo", str(path), "--lambda", "4", "-N", "100000", "--emit-matrix")
    assert code == 0
    d = influx.to_matrix(parse_edge_list(text))
    assert np.array_equal(estimates[0], influx.monte_carlo_pwp(d, 4.0, 100_000, 0))


@pytest.mark.parametrize("lam", ["1e-300", "1e-8", "1e-4"])
def test_montecarlo_small_lambda_is_quick(line3, capsys, lam):
    # nearly every Poisson(lambda) draw is 0 here, so zeros must not be redrawn
    start = time.perf_counter()
    code, out, _ = run(capsys, "montecarlo", line3, "--lambda", lam, "-N", "100000")
    assert code == 0 and time.perf_counter() - start < 1.0
    report = json.loads(out)
    assert report["mean_length"]["expected"] == pytest.approx(1.0, abs=1e-4)
    assert report["mean_length"]["empirical"] == pytest.approx(1.0, abs=1e-3)


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


def _kendall_pairwise(x, y) -> float:
    """The O(n^2) definition over all pairs, kept as the reference."""
    x = list(map(float, x))
    y = list(map(float, y))
    s = dx = dy = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            a = (x[i] > x[j]) - (x[i] < x[j])
            b = (y[i] > y[j]) - (y[i] < y[j])
            s += a * b
            dx += a * a
            dy += b * b
    if dx == 0 or dy == 0:
        return 1.0 if dx == dy else 0.0
    return s / math.sqrt(dx * dy)


@st.composite
def _tied_pairs(draw):
    n = draw(st.integers(0, 60))
    x = draw(st.lists(st.integers(0, draw(st.integers(0, 6))), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(-3, draw(st.integers(-3, 6))), min_size=n, max_size=n))
    return x, y


@given(_tied_pairs())
def test_kendall_tau_equals_pairwise_definition(pair):
    x, y = pair
    assert kendall_tau(x, y) == _kendall_pairwise(x, y)


def test_kendall_tau_equals_pairwise_on_signed_zeros_and_infinities():
    x = [0.0, -0.0, math.inf, -math.inf, 1.0, 0.0]
    y = [-0.0, 0.0, 1.0, math.inf, math.inf, -math.inf]
    assert kendall_tau(x, y) == _kendall_pairwise(x, y)


@given(_tied_pairs())
def test_kendall_tau_matches_scipy(pair):
    stats = pytest.importorskip("scipy.stats")
    x, y = pair
    if len(set(x)) < 2 or len(set(y)) < 2:
        return  # scipy returns nan where the report convention gives 1.0 or 0.0
    assert kendall_tau(x, y) == pytest.approx(stats.kendalltau(x, y).statistic, abs=1e-14)


@pytest.mark.parametrize(
    "x, y",
    [([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0], [math.nan, math.nan]), ([math.nan], [math.nan])],
    ids=["one in x", "all of y", "both"],
)
def test_kendall_tau_refuses_nan_scores(x, y):
    with pytest.raises(ValueError, match="^scores must not be nan$"):
        kendall_tau(x, y)
    with pytest.raises(ValueError, match="^scores must not be nan$"):
        kendall_tau(y, x)


@pytest.mark.parametrize("x, shape", [([[1.0, 2.0], [3.0, 4.0]], "(2, 2)"), (2.0, "()")])
def test_kendall_tau_refuses_scores_that_are_not_1_d(x, shape):
    for pair in ((x, [1.0, 2.0]), ([1.0, 2.0], x), (x, x)):
        with pytest.raises(ValueError) as err:
            kendall_tau(*pair)
        assert str(err.value) == f"scores must be a 1-D array, got shape {shape}"


def test_kendall_tau_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        kendall_tau([1, 2, 3], [1, 2])


# -- vectors without the dense T --------------------------------------------------

@pytest.mark.parametrize(
    "method", [["pwp", "--lambda", "2.5"], ["micmac", "-k", "3"], ["pagerank"]]
)
def test_compute_emit_matrix_leaves_vectors_unchanged(tmp_path, capsys, method):
    rng = np.random.default_rng(21)
    path = tmp_path / "g.csv"
    path.write_text("".join(
        f"{i},{j},{rng.uniform(0.05, 0.6)!r}\n"
        for i in range(1, 13) for j in range(1, 13) if rng.random() < 0.3
    ))
    _, plain, _ = run(capsys, "compute", "--method", *method, str(path))
    _, full, _ = run(capsys, "compute", "--method", *method, "--emit-matrix", str(path))
    plain, full = json.loads(plain), json.loads(full)
    assert "T" not in plain and "T" in full
    del full["T"]
    assert plain == full


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--method", "pwp", "--lambda", "inf"],
        ["compute", "--method", "pwp", "--lambda", "nan"],
        ["compute", "--method", "pwp", "--tol", "inf"],
        ["compute", "--method", "pagerank", "--tol", "nan"],
        ["compare", "--lambda", "inf"],
        ["montecarlo", "--lambda", "inf", "-N", "10"],
        ["montecarlo", "--tol", "inf", "-N", "10"],
    ],
)
def test_non_finite_parameter_exit_2(line3, capsys, argv):
    code, out, err = run(capsys, *argv, line3)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_montecarlo_checks_tol_before_sampling(line3, capsys, monkeypatch):
    # a bad --tol exits 2 with the message it had after sampling, at once
    # however large -N is; with lambda past e^lambda - 1's range too, the
    # tol error comes first, as for compute
    messages = [run(capsys, "montecarlo", "--tol", tol, "-N", "10", line3) for tol in ("0", "nan")]

    def refuse(*args):
        raise AssertionError("sampled before checking --tol")

    monkeypatch.setattr(influx.cli, "_blocks", refuse)
    for tol, expected in zip(("0", "nan"), messages):
        assert run(capsys, "montecarlo", "--tol", tol, "-N", "30000000", line3) == expected
        assert expected[0] == 2 and f"tol must be finite and > 0, got {float(tol)!r}" in expected[2]
    code, _, err = run(capsys, "montecarlo", "--tol", "0", "--lambda", "800", line3)
    assert (code, err) == messages[0][::2]


# -- compute and compare share one report block per method -----------------------

@pytest.fixture
def random12(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "r12.csv"
    path.write_text("".join(
        f"{i},{j},{rng.uniform(0.05, 0.6)!r}\n"
        for i in range(1, 13) for j in range(1, 13) if i != j and rng.random() < 0.3
    ))
    return str(path)


@pytest.mark.parametrize("methods", ["pwp,micmac,pagerank", "pagerank,pwp", "micmac"])
def test_compare_csv_cells_are_the_published_values(random12, capsys, methods):
    _, table, _ = run(capsys, "compare", "--methods", methods, "--csv", random12)
    _, out, _ = run(capsys, "compare", "--methods", methods, random12)
    blocks = json.loads(out)["methods"]
    names = methods.split(",")
    lines = table.splitlines()
    assert table.endswith("\n")
    assert lines[0] == "vertex," + ",".join(f"d_{m},f_{m}" for m in names)
    assert len(lines) == 1 + 12
    for v, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(v + 1)
        expected = [x for b in blocks for x in (b["d"][v], b["f"][v])]
        assert [float(c) for c in cells[1:]] == expected
        assert cells[1:] == [repr(x) for x in expected]


@pytest.mark.parametrize("flags", [[], ["--paper-scale"], ["--lambda", "2.5", "-k", "3", "-p", "0.7"]])
@pytest.mark.parametrize("method", ["pwp", "micmac", "pagerank"])
def test_compute_block_is_compare_block(random12, capsys, method, flags):
    _, out, _ = run(capsys, "compute", "--method", method, *flags, random12)
    alone = json.loads(out)
    del alone["graph"]
    _, out, _ = run(capsys, "compare", *flags, random12)
    by_name = {b["method"]["name"]: b for b in json.loads(out)["methods"]}
    assert alone == by_name[method]
