"""The linear operator on a graph's edge columns, checked against the dense
kernels it replaces on the command line.

Every engine's vectors on the edge columns agree with those of the dense
matrix, on hypothesis graphs and on every family; the command line gives
the same bytes, or the same error and exit code, with the engines fed the
edge columns or the dense matrices; and at sizes where the dense D cannot
be formed, `compare` stays small and pwp agrees with scipy's action of the
matrix exponential.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import influx
from influx import (
    Cycle,
    DimensionMismatch,
    DirectInfluenceGraph,
    Jordan,
    Line,
    NumericOverflow,
    Operator,
    Star,
    build,
    closed_form_pwp,
    estimate_and_exact,
    make_rng,
    exp_plus_vectors,
    influence_dependence,
    mat_pow,
    mat_pow_vectors,
    micmac_vectors,
    pagerank,
    parse_edge_list,
    pwp_matrix_report,
    pwp_vectors,
    sample_lengths,
    to_matrix,
    to_operator,
    web_normalize,
    web_operator,
)
from influx.cli import main
from influx.linalg import _sliced_ell

FAMILIES = [Line(1), Line(6), Cycle(5), Jordan(4, 0.5), Jordan(3, 2.0), Star(7)]


@st.composite
def _graphs(draw):
    """Graphs of up to 9 vertices with signed weights and self-loops."""
    n = draw(st.integers(1, 9))
    present = draw(arrays(bool, (n, n)))
    weights = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0).filter(bool)))
    source, target = np.nonzero(present)
    return DirectInfluenceGraph(n, zip(source + 1, target + 1, weights[present]))


# -- the products --------------------------------------------------------------------

@given(_graphs(), st.integers(0, 2**32 - 1))
def test_products_and_norms_are_those_of_the_dense_matrix(g, seed):
    d, op = to_matrix(g), to_operator(g)
    x = np.random.default_rng(seed).uniform(-1, 1, g.n)
    assert np.allclose(op.matvec(x), d @ x, rtol=1e-14, atol=1e-15)
    assert np.allclose(op.rmatvec(x), x @ d, rtol=1e-14, atol=1e-15)
    for axis in (0, 1):
        assert op.abs_sum(axis) == pytest.approx(np.abs(d).sum(axis=axis).max(), rel=1e-14)
    totals, low = op.column_stats()
    assert np.allclose(totals, d.sum(axis=0), rtol=1e-14, atol=1e-15)
    assert np.array_equal(low, d.min(axis=0, initial=0.0))


def test_a_dense_matrix_wraps_as_its_blas_products():
    d = np.random.default_rng(3).uniform(-1, 1, (7, 7))
    x = np.random.default_rng(4).uniform(-1, 1, 7)
    op = Operator.dense(d)
    assert op.matvec(x).tobytes() == (d @ x).tobytes()
    assert op.rmatvec(x).tobytes() == (x @ d).tobytes()


def test_an_operator_with_no_entries_is_zero():
    op = Operator(3, [], [], [])
    assert op.matvec(np.ones(3)).dtype == float
    assert np.array_equal(op.matvec(np.ones(3)), np.zeros(3))
    assert op.abs_sum(0) == op.abs_sum(1) == 0.0
    assert np.array_equal(mat_pow_vectors(op, 2)[0], np.zeros(3))


@pytest.mark.parametrize(
    "args, error",
    [
        ((2, [0, 1], [0], [1.0, 1.0]), DimensionMismatch),
        ((2, [[0]], [[0]], [[1.0]]), DimensionMismatch),
        ((2, [2], [0], [1.0]), DimensionMismatch),
        ((2, [0], [-1], [1.0]), DimensionMismatch),
        ((2, [0], [1], [math.inf]), ValueError),
    ],
)
def test_operator_checks_its_columns(args, error):
    with pytest.raises(error):
        Operator(*args)


BIG = "1,2,1e200\n2,1,1e200\n"


@pytest.mark.parametrize("wrap", [to_matrix, to_operator], ids=["dense", "columns"])
def test_vector_overflow_raises_the_same_messages(wrap):
    # no RuntimeWarning either: the suite turns every one into an error
    d = wrap(parse_edge_list(BIG))
    with pytest.raises(NumericOverflow, match="^a row or column sum of matrix power 4 overflows"):
        mat_pow_vectors(d, 4)
    with pytest.raises(NumericOverflow, match="^exponential series term 2 overflows"):
        exp_plus_vectors(d)
    with pytest.raises(NumericOverflow, match="^exponential series term 1 overflows"):
        exp_plus_vectors(wrap(parse_edge_list("1,2,1.7e308\n3,2,1.7e308\n")))


# -- the engines on the edge columns against the dense kernels -----------------------

@given(_graphs(), st.floats(0.05, 3.0))
def test_pwp_vectors_on_columns_agree_with_dense(g, lam):
    tol = 1e-12
    fast = pwp_vectors(to_operator(g), lam=lam, tol=tol)
    dense = pwp_vectors(to_matrix(g), lam=lam, tol=tol)
    # each is within tol of the series in max norm, plus rounding
    assert np.allclose(fast.vectors.d, dense.vectors.d, rtol=1e-12, atol=2 * tol)
    assert np.allclose(fast.vectors.f, dense.vectors.f, rtol=1e-12, atol=2 * tol)


@given(_graphs(), st.integers(1, 6))
def test_micmac_vectors_on_columns_agree_with_dense(g, k):
    fast = micmac_vectors(to_operator(g), k)
    dense = micmac_vectors(to_matrix(g), k)
    assert np.allclose(fast.vectors.d, dense.vectors.d, rtol=1e-12, atol=1e-14)
    assert np.allclose(fast.vectors.f, dense.vectors.f, rtol=1e-12, atol=1e-14)


@given(_graphs(), st.floats(0.1, 0.95))
def test_pagerank_on_web_columns_agrees_with_dense(g, p):
    fast = pagerank(web_operator(g), p=p, tol=1e-13)
    dense = pagerank(web_normalize(g), p=p, tol=1e-13)
    assert fast.T is None and dense.T is not None
    assert np.allclose(fast.stationary, dense.stationary, rtol=1e-11, atol=1e-14)
    assert np.allclose(fast.vectors.d, dense.vectors.d, rtol=1e-11, atol=1e-14)
    assert np.array_equal(fast.vectors.f, np.ones(g.n))
    assert abs(fast.diagnostics - dense.diagnostics) <= 1


@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_every_family_agrees_on_columns(spec):
    g = build(spec)
    exact = influence_dependence(closed_form_pwp(spec, 1.5))
    pwp_result = pwp_vectors(to_operator(g), lam=1.5)
    assert np.allclose(pwp_result.vectors.d, exact.d, rtol=1e-12, atol=1e-12)
    assert np.allclose(pwp_result.vectors.f, exact.f, rtol=1e-12, atol=1e-12)
    power = influence_dependence(mat_pow(to_matrix(g), 3))
    micmac_result = micmac_vectors(to_operator(g), 3)
    assert np.allclose(micmac_result.vectors.d, power.d, rtol=1e-14, atol=0)
    assert np.allclose(micmac_result.vectors.f, power.f, rtol=1e-14, atol=0)
    fast, dense = pagerank(web_operator(g)), pagerank(web_normalize(g))
    assert np.allclose(fast.stationary, dense.stationary, rtol=1e-12, atol=0)


def test_pagerank_with_no_edges_is_uniform():
    result = pagerank(Operator(4, [], [], []))
    assert np.allclose(result.stationary, 0.25, rtol=1e-15, atol=0)
    assert result.T is None


# -- the matrix chain on the edge columns against the dense one ----------------------

@st.composite
def _chain_graphs(draw):
    """Graphs of up to 12 vertices with weights of 0.0, -0.0 and either
    sign, self-loops, and empty rows and columns: sparse ones, which the
    chain steps in sliced ELLPACK form, and ones missing at most n edges,
    which it steps by np.matmul from n = 4 on."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        cells = draw(st.lists(st.integers(0, n * n - 1), unique=True)) if n else []
    else:
        drop = draw(st.sets(st.integers(0, n * n - 1), max_size=n)) if n else set()
        cells = [c for c in range(n * n) if c not in drop]
    weights = draw(st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0)),
                            min_size=len(cells), max_size=len(cells)))
    return DirectInfluenceGraph(n, [(c // n + 1, c % n + 1, w) for c, w in zip(cells, weights)])


def _cells(n, weight=1.0):
    return DirectInfluenceGraph(n, [(i, j, weight) for i in range(1, n + 1) for j in range(1, n + 1)])


@given(_chain_graphs(), st.sampled_from([0.5, 4.0]), st.integers(0, 3))
@example(DirectInfluenceGraph(0), 4.0, 0)
@example(DirectInfluenceGraph(1), 4.0, 0)
@example(DirectInfluenceGraph(1, [(1, 1, -0.0)]), 4.0, 0)
@example(DirectInfluenceGraph(1, [(1, 1, -0.5)]), 4.0, 0)
@example(DirectInfluenceGraph(5, [(1, 2, 0.5), (2, 2, -0.0), (3, 1, -0.25), (5, 5, 0.0)]), 0.5, 1)
@example(_cells(12, -0.05), 4.0, 2)  # every entry: the np.matmul step
def test_matrix_chain_on_columns_is_bit_for_bit_the_dense_one(g, lam, seed):
    columns, dense = to_operator(g), to_matrix(g)
    assert (_sliced_ell(columns) is None) == (_sliced_ell(dense) is None)
    lengths = sample_lengths(lam, 300, make_rng(seed))
    for got, want in zip(estimate_and_exact(columns, lam, lengths), estimate_and_exact(dense, lam, lengths)):
        assert np.array_equal(got, want)
    (t, report), (want_t, want_report) = pwp_matrix_report(columns, lam), pwp_matrix_report(dense, lam)
    # the stop rule reads the norm, now a bincount of |w| by row
    assert np.array_equal(t, want_t) and report.terms_used == want_report.terms_used


# -- the command line on the edge columns against the dense path ---------------------

CASES = {
    "empty": "",
    "lone self-loop": "1,1,0.5\n",
    # an edge list cannot leave every vertex without out-edges in the web
    # matrix (each edge's source has one), so: every column of D empty, and
    # every vertex but one a dangling column of the web matrix
    "all columns of D empty": "1,2,0.0\n2,3,0.0\n3,1,0.0\n",
    "all but one dangling": "1,4,1\n2,4,1\n3,4,1\n",
    "weights of 1e300": "1,2,1e300\n2,1,1e300\n",
    "signed weights": "1,2,-0.5\n2,3,0.25\n3,1,-0.125\n1,3,0.5\n3,3,-0.2\n",
    **{repr(spec): influx.format_edge_list(build(spec)) for spec in FAMILIES},
}

ARGVS = [
    ["compare"],
    ["compare", "--csv"],
    ["compute", "--method", "pwp"],
    ["compute", "--method", "micmac"],
    ["compute", "--method", "pagerank"],
    ["compute", "--method", "pagerank", "--emit-matrix"],
    ["compute", "--method", "pwp", "--emit-matrix"],
    ["montecarlo", "--lambda", "4", "-N", "1000", "--seed", "3"],
    ["montecarlo", "--lambda", "4", "-N", "1000", "--seed", "3", "--emit-matrix"],
]


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
@pytest.mark.parametrize("case", CASES)
def test_command_line_on_columns_matches_the_dense_path(tmp_path, capsys, monkeypatch, case, argv):
    path = tmp_path / "g.csv"
    path.write_text(CASES[case])
    columns = _run(capsys, [*argv, str(path)])
    monkeypatch.setattr(influx.cli, "to_operator", to_matrix)
    monkeypatch.setattr(influx.cli, "web_operator", web_normalize)
    assert _run(capsys, [*argv, str(path)]) == columns


@pytest.mark.parametrize(
    "case, argv, expected",
    [
        ("empty", ["compare"], (3, "", "error: cannot rank an empty matrix\n")),
        ("weights of 1e300", ["compute", "--method", "pwp"],
         (3, "", "error: exponential series term 2 overflows the float range\n")),
    ],
)
def test_command_line_failures_on_columns(tmp_path, capsys, case, argv, expected):
    path = tmp_path / "g.csv"
    path.write_text(CASES[case])
    assert _run(capsys, [*argv, str(path)]) == expected


# -- sizes where the dense D cannot be formed ----------------------------------------

def _poisson_edges(n: int, seed: int, degree: float = 5.0):
    """1-based (source, target, weight) columns: about Poisson(degree)
    distinct, non-self targets per source, weights U(0, 0.4]."""
    rng = np.random.default_rng(seed)
    source = np.repeat(np.arange(1, n + 1), rng.poisson(degree, n))
    target = rng.integers(1, n + 1, source.size)
    keep = np.unique(source * (n + 1) + target, return_index=True)[1]
    source, target = source[keep], target[keep]
    source, target = source[source != target], target[source != target]
    return source, target, 0.4 * (1.0 - rng.random(source.size))


def test_compare_at_n_5000_allocates_no_dense_matrix(tmp_path):
    source, target, weight = _poisson_edges(5000, 11)
    path = tmp_path / "g.csv"
    path.write_text("".join(map("{},{},{!r}\n".format, source.tolist(), target.tolist(), weight.tolist())))
    tracemalloc.start()
    try:
        code = main(["compare", str(path), "-o", str(tmp_path / "report.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # D alone takes 5000^2 * 8 B = 200 MB
    assert peak < 20e6


def test_pwp_at_n_20000_matches_scipy_expm_multiply():
    sparse = pytest.importorskip("scipy.sparse")
    expm_multiply = pytest.importorskip("scipy.sparse.linalg").expm_multiply
    n, lam, tol = 20_000, 1.0, 1e-12
    source, target, weight = _poisson_edges(n, 12)
    g = DirectInfluenceGraph(n, zip(source.tolist(), target.tolist(), weight.tolist()))
    result = pwp_vectors(to_operator(g), lam=lam, tol=tol)
    d = sparse.csr_matrix((weight, (target - 1, source - 1)), shape=(n, n))
    ones = np.ones(n)
    # e_plus(lam D) 1 / e_plus(lam), and the same with D's transpose
    want_d = (expm_multiply(lam * d, ones) - 1.0) / math.expm1(lam)
    want_f = (expm_multiply(lam * d.T.tocsr(), ones) - 1.0) / math.expm1(lam)
    assert np.allclose(result.vectors.d, want_d, rtol=1e-10, atol=1e-12)
    assert np.allclose(result.vectors.f, want_f, rtol=1e-10, atol=1e-12)
