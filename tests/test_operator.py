"""The linear operator on a graph's edge columns, checked against the dense
kernels it replaces on the command line.

Every engine's vectors on the edge columns agree with those of the dense
matrix, on hypothesis graphs and on every family; the command line gives
the same bytes, or the same error and exit code, with the engines fed the
edge columns or the dense matrices' BLAS products; and at sizes where the
dense D cannot be formed, `compare` stays small and pwp agrees with scipy's
action of the matrix exponential.
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
    NotSubstochastic,
    NumericOverflow,
    Operator,
    Star,
    build,
    closed_form_pwp,
    estimate_and_exact,
    estimate_and_exact_vectors,
    make_rng,
    exp_plus_vectors,
    influence_dependence,
    mat_pow,
    micmac,
    pagerank,
    parse_edge_list,
    pwp_matrix_report,
    pwp,
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

@pytest.mark.parametrize("split", [False, True], ids=["edges", "split"])
@given(g=_graphs(), seed=st.integers(0, 2**32 - 1))
def test_products_and_norms_are_those_of_the_dense_matrix(split, g, seed):
    d, op = to_matrix(g), to_operator(g)
    if split:
        # each entry v held as two stored values of opposite sign, 2v and -v,
        # which add up to v exactly
        rows, cols = np.tile(g.target - 1, 2), np.tile(g.source - 1, 2)
        op = Operator(g.n, rows, cols, np.concatenate((2 * g.weight, -g.weight)))
    x = np.random.default_rng(seed).uniform(-1, 1, g.n)
    totals, low = op.column_stats()
    if not split:
        assert np.allclose(op.matvec(x), d @ x, rtol=1e-14, atol=1e-15)
        assert np.allclose(op.rmatvec(x), x @ d, rtol=1e-14, atol=1e-15)
        for axis in (0, 1):
            assert op.abs_sum(axis) == pytest.approx(np.abs(d).sum(axis=axis).max(), rel=1e-14)
        assert np.allclose(totals, d.sum(axis=0), rtol=1e-14, atol=1e-15)
    else:
        # the cancelling stored values round apart from the entries' sums:
        # a sum of up to 2n terms, and BLAS's of n, each rounds by at most
        # 2n eps times its terms' magnitudes, which are 3 |d|, and by half
        # the least subnormal a term where the terms are subnormal
        slack = 12 * g.n * np.finfo(float).eps
        tiny = 4 * g.n * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(op.matvec(x) - d @ x) <= slack * (np.abs(d) @ np.abs(x)) + tiny)
        assert np.all(np.abs(op.rmatvec(x) - x @ d) <= slack * (np.abs(x) @ np.abs(d)) + tiny)
        for axis in (0, 1):  # the stored values' absolute sums bound the entries'
            assert op.abs_sum(axis) >= np.abs(d).sum(axis=axis).max()
        assert np.all(np.abs(totals - d.sum(axis=0)) <= slack * np.abs(d).sum(axis=0) + tiny)
    assert np.array_equal(low, d.min(axis=0, initial=0.0))


def test_pagerank_checks_the_entries_a_repeated_pair_adds_up_to():
    # column 1 holds -0.5 and 1.0 at one pair, the entry 0.5, and 0.5 below it
    op = Operator(2, [0, 0, 1], [0, 0, 0], [-0.5, 1.0, 0.5])
    assert np.array_equal(op.column_stats()[1], [0.0, 0.0])
    dense = pagerank(Operator.dense([[0.5, 0.0], [0.5, 0.0]]))
    assert np.array_equal(pagerank(op).stationary, dense.stationary)
    with pytest.raises(NotSubstochastic, match="column 1"):
        pagerank(Operator(2, [0, 0, 1], [0, 0, 0], [-0.5, 0.25, 0.5]))


def test_entries_add_up_repeated_pairs_at_any_n():
    # a key such as row * n + col would pass int64 at this n
    n, far = 2**62, 2**61 + 3
    op = Operator(n, [far, 0, far, far], [far, far, far, 0], [1.0, 2.0, -1.0, 0.5])
    rows, cols, values = op._entries()  # row by row; the pair (far, far) adds up to 0
    assert (rows.tolist(), cols.tolist(), values.tolist()) == ([0, far], [far, 0], [2.0, 0.5])


def test_a_dense_matrix_wraps_as_its_blas_products():
    d = np.random.default_rng(3).uniform(-1, 1, (7, 7))
    x = np.random.default_rng(4).uniform(-1, 1, 7)
    op = Operator.dense(d)
    assert op.matvec(x).tobytes() == (d @ x).tobytes()
    assert op.rmatvec(x).tobytes() == (x @ d).tobytes()


@pytest.mark.parametrize("op", [Operator(2, [0], [1], [1.0]), Operator.dense(np.eye(2))], ids=["columns", "dense"])
@pytest.mark.parametrize("x", [np.ones(3), np.ones(1), np.ones((2, 1)), np.ones((1, 2)), np.float64(1.0)],
                         ids=["3", "1", "2x1", "1x2", "scalar"])
def test_products_refuse_a_vector_of_another_shape(op, x):
    # the columns' gather read past 2 entries or stopped short of them
    for product in (op.matvec, op.rmatvec):
        with pytest.raises(DimensionMismatch) as err:
            product(x)
        assert str(err.value) == f"expected a vector of shape (2,), got shape {x.shape}"


@pytest.mark.parametrize("op", [Operator(2, [0], [1], [1.0]), Operator.dense(np.eye(2))], ids=["columns", "dense"])
@pytest.mark.parametrize("x", [np.array([1j, 1]), np.array(["1", "1"]), np.array([1.0, None])],
                         ids=["complex", "str", "object"])
def test_products_refuse_a_vector_that_is_not_real(op, x):
    # the columns raised a bare TypeError on a complex x, the dense form
    # returned the complex product
    for product in (op.matvec, op.rmatvec):
        with pytest.raises(ValueError) as err:
            product(x)
        assert str(err.value) == f"expected a real vector, got dtype {x.dtype}"


@pytest.mark.parametrize("x", [np.array([True, False]), np.array([1, 0]), np.array([1, 0], dtype=np.uint8),
                               np.array([1.0, 0.0], dtype=np.float32)], ids=["bool", "int", "uint8", "float32"])
def test_products_take_any_real_vector(x):
    for op in (Operator(2, [0, 1], [1, 1], [2.0, 3.0]), Operator.dense([[0.0, 2.0], [0.0, 3.0]])):
        assert np.array_equal(op.matvec(x), [0.0, 0.0]) and np.array_equal(op.rmatvec(x), [0.0, 2.0])


def test_an_operator_with_no_entries_is_zero():
    op = Operator(3, [], [], [])
    assert op.matvec(np.ones(3)).dtype == float
    assert np.array_equal(op.matvec(np.ones(3)), np.zeros(3))
    assert op.abs_sum(0) == op.abs_sum(1) == 0.0
    assert np.array_equal(micmac(op, 2).vectors.d, np.zeros(3))


@pytest.mark.parametrize(
    "args, error",
    [
        ((2, [0, 1], [0], [1.0, 1.0]), DimensionMismatch),
        ((2, [[0]], [[0]], [[1.0]]), DimensionMismatch),
        ((2, [2], [0], [1.0]), DimensionMismatch),
        ((2, [0], [-1], [1.0]), DimensionMismatch),
        ((2, [2**70], [0], [1.0]), DimensionMismatch),  # past int64 is outside too
        ((2, [0], np.array([2**64 - 1], dtype=np.uint64), [1.0]), DimensionMismatch),
        ((2, [0], [1], [math.inf]), ValueError),
        ((-1, [], [], []), ValueError),
        ((2.5, [], [], []), ValueError),
    ],
)
def test_operator_checks_its_columns(args, error):
    with pytest.raises(error):
        Operator(*args)


@pytest.mark.parametrize(
    "args, match",
    [
        ((2, [1.9], [0], [1.0]), "rows must be integers"),
        ((2, ["1"], [0], [1.0]), "rows must be integers"),
        ((2, [True], [0], [1.0]), "rows must be integers"),
        ((2, np.array([1.9], dtype=object), [0], [1.0]), "rows must be integers"),
        ((2, [None], [0], [1.0]), "rows must be integers"),
        ((2, [0], [1.0], [1.0]), "cols must be integers"),
        ((2, [0], np.array([False]), [1.0]), "cols must be integers"),
        ((2, [True, 0], [0, 1], [1.0, 1.0]), "rows must be integers, got True"),  # numpy's common type is int64
        ((2, [0, 1], [1, np.True_], [1.0, 1.0]), "cols must be integers, got True"),
    ],
)
def test_operator_indices_must_be_integers(args, match):
    with pytest.raises(ValueError, match=match):
        Operator(*args)


@pytest.mark.parametrize(
    "rows, cols",
    [([], []), ([1], [0]), (np.array([1], dtype=np.int32), [np.int64(0)]),
     (np.array([1], dtype=np.uint16), [0]), ([np.int64(1), np.uint64(1)], [0, 0])],
)
def test_operator_integer_indices_pass(rows, cols):
    op = Operator(2, rows, cols, [1.0] * len(cols))
    assert op.rows.dtype == op.cols.dtype == np.int64
    # every entry is d[1, 0] = 1, and repeated ones add up
    assert np.array_equal(op.matvec(np.array([1.0, 2.0])), [0.0, float(len(cols))])


@pytest.mark.parametrize(
    "d, error",
    [(np.zeros((2, 3)), DimensionMismatch), (np.zeros(3), DimensionMismatch),
     ([[1.0, math.nan], [0.0, 1.0]], ValueError), ([[math.inf]], ValueError)],
    ids=["2 x 3", "1-D", "nan", "inf"],
)
def test_dense_operator_checks_its_matrix(d, error):
    with pytest.raises(error) as err:
        Operator.dense(d)
    assert err.type is error


BIG = "1,2,1e200\n2,1,1e200\n"


@pytest.mark.parametrize("wrap", [to_matrix, to_operator], ids=["dense", "columns"])
def test_vector_overflow_raises_the_same_messages(wrap):
    # no RuntimeWarning either: the suite turns every one into an error
    d = wrap(parse_edge_list(BIG))
    with pytest.raises(NumericOverflow, match="^weighted sum of matrix powers overflows"):
        micmac(Operator.dense(d) if wrap is to_matrix else d, 4)
    with pytest.raises(NumericOverflow, match="^exponential series term 2 overflows"):
        exp_plus_vectors(d)
    with pytest.raises(NumericOverflow, match="^exponential series term 1 overflows"):
        exp_plus_vectors(wrap(parse_edge_list("1,2,1.7e308\n3,2,1.7e308\n")))


def test_micmac_checks_every_step():
    # d 1 is inf at vertex 1, which no edge reads, so d^2 1 would be finite
    # again; the chain checks each power, so it refuses d 1
    op = Operator(3, [0, 0], [1, 2], [1.7e308, 1.7e308])
    with pytest.raises(NumericOverflow, match="^matrix power 1 overflows"):
        micmac(op, 2)


# -- the engines on the edge columns against the dense kernels -----------------------

@given(_graphs(), st.floats(0.05, 3.0))
def test_pwp_vectors_on_columns_agree_with_dense(g, lam):
    tol = 1e-12
    fast = pwp(to_operator(g), lam=lam, tol=tol)
    dense = pwp(Operator.dense(to_matrix(g)), lam=lam, tol=tol)
    # each is within tol of the series in max norm, plus rounding
    assert np.allclose(fast.vectors.d, dense.vectors.d, rtol=1e-12, atol=2 * tol)
    assert np.allclose(fast.vectors.f, dense.vectors.f, rtol=1e-12, atol=2 * tol)


@given(_graphs(), st.integers(1, 6))
def test_micmac_vectors_on_columns_agree_with_dense(g, k):
    fast = micmac(to_operator(g), k)
    dense = micmac(Operator.dense(to_matrix(g)), k)
    assert np.allclose(fast.vectors.d, dense.vectors.d, rtol=1e-12, atol=1e-14)
    assert np.allclose(fast.vectors.f, dense.vectors.f, rtol=1e-12, atol=1e-14)


@given(_graphs(), st.floats(0.1, 0.95))
def test_pagerank_on_web_columns_agrees_with_dense(g, p):
    fast = pagerank(web_operator(g), p=p, tol=1e-13)
    dense = pagerank(web_normalize(g), p=p, tol=1e-13)
    assert np.allclose(fast.stationary, dense.stationary, rtol=1e-11, atol=1e-14)
    assert np.allclose(fast.vectors.d, dense.vectors.d, rtol=1e-11, atol=1e-14)
    for result in (fast, dense):  # T holds the stationary vector in every column
        assert np.array_equal(result.vectors.f, np.ones(g.n))
        assert np.array_equal(result.vectors.d, g.n * result.stationary)
    assert abs(fast.diagnostics - dense.diagnostics) <= 1


@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_every_family_agrees_on_columns(spec):
    g = build(spec)
    exact = influence_dependence(closed_form_pwp(spec, 1.5))
    pwp_result = pwp(to_operator(g), lam=1.5)
    assert np.allclose(pwp_result.vectors.d, exact.d, rtol=1e-12, atol=1e-12)
    assert np.allclose(pwp_result.vectors.f, exact.f, rtol=1e-12, atol=1e-12)
    power = influence_dependence(mat_pow(to_matrix(g), 3))
    micmac_result = micmac(to_operator(g), 3)
    assert np.allclose(micmac_result.vectors.d, power.d, rtol=1e-14, atol=0)
    assert np.allclose(micmac_result.vectors.f, power.f, rtol=1e-14, atol=0)
    fast, dense = pagerank(web_operator(g)), pagerank(web_normalize(g))
    assert np.allclose(fast.stationary, dense.stationary, rtol=1e-12, atol=0)


def test_pagerank_with_no_edges_is_uniform():
    result = pagerank(Operator(4, [], [], []))
    assert np.allclose(result.stationary, 0.25, rtol=1e-15, atol=0)


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


@given(_graphs(), st.sampled_from([0.5, 4.0]), st.integers(0, 3))
@example(DirectInfluenceGraph(0), 4.0, 0)
def test_montecarlo_exact_vectors_are_pwp_on_an_operator(g, lam, seed):
    # the vector chains run on past the series to the longest sampled
    # length, adding nothing more to it
    op = to_operator(g)
    lengths = sample_lengths(lam, 300, make_rng(seed))
    _, (d, f), _ = estimate_and_exact_vectors(op, lam, lengths)
    want = pwp(op, lam).vectors
    assert d.tobytes() == want.d.tobytes() and f.tobytes() == want.f.tobytes()


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
    # the engines on a dense matrix's BLAS products, which form no T
    monkeypatch.setattr(influx.cli, "to_operator", lambda g: Operator.dense(to_matrix(g)))
    monkeypatch.setattr(influx.cli, "web_operator", lambda g: Operator.dense(web_normalize(g)))
    assert _run(capsys, [*argv, str(path)]) == columns


@pytest.mark.parametrize(
    "case, argv, expected",
    [
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
    result = pwp(to_operator(g), lam=lam, tol=tol)
    d = sparse.csr_matrix((weight, (target - 1, source - 1)), shape=(n, n))
    ones = np.ones(n)
    # e_plus(lam D) 1 / e_plus(lam), and the same with D's transpose
    want_d = (expm_multiply(lam * d, ones) - 1.0) / math.expm1(lam)
    want_f = (expm_multiply(lam * d.T.tocsr(), ones) - 1.0) / math.expm1(lam)
    assert np.allclose(result.vectors.d, want_d, rtol=1e-10, atol=1e-12)
    assert np.allclose(result.vectors.f, want_f, rtol=1e-10, atol=1e-12)
