"""The three engines, the vector extraction, and vertex ranking.

The damped stationary method is checked against an independent linear
solve of (I - M) d = 0 with the normalization row appended, and for the
3-vertex line against the exact rational fixed point worked out by hand:
d = (17500, 32550, 45493) / 95543 at p = 43/50.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from influx import (
    Cycle,
    DimensionMismatch,
    Jordan,
    Line,
    NoConvergence,
    NotSubstochastic,
    NumericOverflow,
    Operator,
    Star,
    build,
    closed_form_pwp,
    from_matrix,
    influence_dependence,
    mat_pow,
    micmac,
    pagerank,
    pagerank_repair,
    parse_edge_list,
    pwp,
    pwp_matrix,
    rank_vertices,
    to_matrix,
    to_operator,
    web_normalize,
)

L3 = to_matrix(parse_edge_list("1,2,1\n2,3,1"))


def _cycle(n):
    return to_matrix(parse_edge_list("\n".join(f"{i},{i % n + 1},1" for i in range(1, n + 1))))


def _line(n):
    return to_matrix(parse_edge_list("\n".join(f"{i},{i + 1},1" for i in range(1, n))))


def _stationary_by_solve(m):
    """Fixed point of x = Mx with sum 1, via a dense linear solve."""
    n = m.shape[0]
    a = np.eye(n) - m
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


# -- micmac -------------------------------------------------------------------

def test_micmac_line3_k4_vanishes():
    result = micmac(L3, 4)
    assert np.array_equal(mat_pow(L3, 4), np.zeros((3, 3)))
    assert np.array_equal(result.vectors.d, np.zeros(3))
    assert np.array_equal(result.vectors.f, np.zeros(3))


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_micmac_cycle_unit_vectors(n, k):
    result = micmac(_cycle(n), k)
    assert np.all(result.vectors.d == 1.0)
    assert np.all(result.vectors.f == 1.0)


COLUMNS_AND_DENSE = pytest.mark.parametrize(
    "wrap", [Operator.dense, lambda m: to_operator(from_matrix(m))], ids=["dense", "columns"])


@COLUMNS_AND_DENSE
def test_micmac_passes_an_overflowing_intermediate_power(wrap):
    # d^k has row sums r^k + k r^(k-1) c and r^k, and column sums the same
    # both ways round; d^j 1 leaves the float range near j = 100, d^5000 1
    # does not
    r, c, k = 0.99, 1e307, 5000
    big, small = r**k + k * r ** (k - 1) * c, r**k
    result = micmac(wrap(np.array([[r, c], [0.0, r]])), k)
    assert result.vectors.d == pytest.approx([big, small], rel=1e-12, abs=0)
    assert result.vectors.f == pytest.approx([small, big], rel=1e-12, abs=0)


@COLUMNS_AND_DENSE
def test_micmac_takes_no_sum_of_squares(wrap):
    # micmac's d^2 1 is 1e200, whose square the Monte Carlo sums would take
    # and overflow
    result = micmac(wrap(np.array([[1e100]])), 2)
    assert result.vectors.d.tolist() == result.vectors.f.tolist() == [1e100 * 1e100]


@pytest.mark.parametrize("a", [0.5, 2.0, -0.3])
def test_micmac_jordan_binomial_entries(a):
    n, k = 5, 4
    d = np.diag([a] * n) + np.diag([1.0] * (n - 1), -1)
    t = mat_pow(d, k)
    for j in range(1, n + 1):
        for s in range(0, n - j + 1):
            assert t[j + s - 1, j - 1] == pytest.approx(
                math.comb(k, s) * a ** (k - s), rel=1e-12
            )


def test_micmac_equals_mat_pow_on_signed_entries():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        d = rng.uniform(-1, 1, (n, n))
        k = int(rng.integers(1, 6))
        want = influence_dependence(mat_pow(d, k))
        # rounding: k products of n terms a side, on both routes, against
        # the sums of |d|^k, which bound every partial sum's size
        size = influence_dependence(mat_pow(np.abs(d), k))
        for form in (d, to_operator(from_matrix(d))):
            got = micmac(form, k).vectors
            assert np.all(np.abs(got.d - want.d) <= 4 * k * n * np.finfo(float).eps * size.d)
            assert np.all(np.abs(got.f - want.f) <= 4 * k * n * np.finfo(float).eps * size.f)


def test_micmac_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        micmac(L3, 0)


def test_micmac_rejects_nonpositive_k_on_an_operator():
    # the k products a side start from all ones, which k = 0 would return
    with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
        micmac(Operator.dense(L3), 0)


# -- pagerank repair -----------------------------------------------------------

def test_repair_fills_dangling_column():
    d = web_normalize(parse_edge_list("1,2,1\n2,3,1"))
    repaired = pagerank_repair(d)
    assert np.allclose(repaired[:, 2], 1.0 / 3.0, rtol=0, atol=0)
    assert np.array_equal(repaired[:, :2], d[:, :2])


def test_repair_leaves_stochastic_matrix_alone():
    d = _cycle(4)
    assert np.array_equal(pagerank_repair(d), d)


def test_repair_one_by_one_zero():
    assert np.array_equal(pagerank_repair(np.zeros((1, 1))), np.ones((1, 1)))


def test_repair_rejects_bad_column_sums():
    d = np.array([[0.0, 0.3], [0.4, 0.0]])
    with pytest.raises(NotSubstochastic) as err:
        pagerank_repair(d)
    assert err.value.column in (1, 2)


def test_repair_rejects_negative_entries():
    d = np.array([[0.0, 0.0], [-0.5, 0.0]])
    with pytest.raises(NotSubstochastic):
        pagerank_repair(d)


def _repair_loop(d):
    """The column-by-column form pagerank_repair replaced."""
    n = d.shape[0]
    repaired = d.copy()
    for j in range(n):
        col = d[:, j]
        if np.any(col < -1e-9):
            raise NotSubstochastic(j + 1, float(col.min()))
        total = float(col.sum())
        if abs(total) <= 1e-9:
            repaired[:, j] = 1.0 / n
        elif abs(total - 1.0) > 1e-9:
            raise NotSubstochastic(j + 1, total)
    return repaired


@st.composite
def _repair_inputs(draw):
    """Matrices of n = 0 to 20 whose columns are each empty, stochastic
    (k entries of 1/k), or drawn from a few values: in-tolerance and bad
    negatives, and entries that make bad sums."""
    n = draw(st.integers(0, 20))
    d = np.zeros((n, n))
    for j in range(n):
        kind = draw(st.sampled_from(["empty", "stochastic", "mixed"]))
        rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        if kind == "stochastic":
            d[rows, j] = 1.0 / len(rows)
        elif kind == "mixed":
            values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 0.3, -1e-10, -2e-9, -0.5, 1e-10])
            d[rows, j] = draw(st.lists(values, min_size=len(rows), max_size=len(rows)))
    return d


@given(_repair_inputs())
@example(np.array([[-0.5, 0.0], [0.5, 0.0]]))  # a negative entry in a column summing to 0
@example(np.array([[0.3, -0.5], [0.0, 0.0]]))  # a bad sum before a negative entry
def test_repair_equals_its_loop_form(d):
    try:
        want = _repair_loop(d)
    except NotSubstochastic as expected:
        with pytest.raises(NotSubstochastic) as err:
            pagerank_repair(d)
        assert err.value.column == expected.column
        # the sums are added in another order: equal to rounding
        assert err.value.total == pytest.approx(expected.total, rel=1e-14, abs=1e-300)
    else:
        assert pagerank_repair(d).tobytes() == want.tobytes()


@given(_repair_inputs(), st.floats(0.1, 0.95))
@example(np.array([[1e-10, 0.0], [0.0, 1.0]]), 0.86)  # entries in a column that counts as empty
def test_pagerank_on_an_operator_checks_and_repairs_like_the_dense_path(d, p):
    cols, rows = np.nonzero(d.T)  # column by column, as a graph holds its edges
    op = Operator(d.shape[0], rows, cols, d[rows, cols])
    try:
        dense = pagerank(d, p=p, tol=1e-13)
    except NotSubstochastic as expected:
        with pytest.raises(type(expected)) as err:
            pagerank(op, p=p, tol=1e-13)
        assert str(err.value) == str(expected)
        return
    fast = pagerank(op, p=p, tol=1e-13)
    assert np.allclose(fast.stationary, dense.stationary, rtol=1e-11, atol=1e-15)


# -- pagerank --------------------------------------------------------------------

def test_pagerank_line3_exact_fixed_point():
    result = pagerank(web_normalize(parse_edge_list("1,2,1\n2,3,1")), p=0.86)
    expected = np.array([17500.0, 32550.0, 45493.0]) / 95543.0
    assert np.allclose(result.stationary, expected, rtol=0, atol=1e-12)
    # rounded two-decimal anchors, hence the loose tolerance
    assert np.allclose(result.stationary, [0.17, 0.34, 0.47], rtol=0, atol=0.02)


def test_pagerank_matches_linear_solve():
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = int(rng.integers(1, 8))
        edges = [
            f"{s},{t},1"
            for s in range(1, n + 1)
            for t in range(1, n + 1)
            if rng.random() < 0.4
        ]
        g = parse_edge_list("\n".join(edges), n=n)
        d = web_normalize(g)
        p = float(rng.uniform(0.3, 0.95))
        result = pagerank(d, p=p, tol=1e-13)
        expected = _stationary_by_solve(p * pagerank_repair(d) + (1 - p) / n)
        assert np.allclose(result.stationary, expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_pagerank_cycle_is_uniform(n):
    result = pagerank(_cycle(n), p=0.86)
    assert np.allclose(result.stationary, 1.0 / n, rtol=0, atol=1e-12)
    assert np.allclose(result.vectors.d, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("wrap", [np.asarray, Operator.dense], ids=["dense", "operator"])
def test_pagerank_starts_from_the_uniform_vector(wrap):
    # on a cycle the uniform vector is already stationary, so one step ends it
    assert pagerank(wrap(_cycle(5)), p=0.86, tol=1e-12).diagnostics == 1
    # a tolerance no l1 change between distributions reaches stops after one
    # step, which is M times the uniform vector
    d = web_normalize(parse_edge_list("1,2,1\n2,3,1\n1,3,1", n=4))
    result = pagerank(wrap(d), p=0.86, tol=3.0)
    want = (0.86 * pagerank_repair(d) + 0.14 / 4) @ np.full(4, 0.25)
    assert result.diagnostics == 1
    assert np.allclose(result.stationary, want / want.sum(), rtol=0, atol=1e-15)


def test_pagerank_vectors_are_the_sums_of_stationary_columns():
    result = pagerank(web_normalize(parse_edge_list("1,2,1\n2,3,1")))
    assert np.allclose(result.vectors.f, 1.0, rtol=0, atol=1e-12)
    assert np.allclose(result.vectors.d, 3.0 * result.stationary, rtol=0, atol=1e-12)


def test_pagerank_eigenvector_residual():
    d = web_normalize(parse_edge_list("1,2,1\n2,3,1\n3,1,1\n1,4,1", n=4))
    result = pagerank(d, p=0.86, tol=1e-12)
    m = 0.86 * pagerank_repair(d) + 0.14 / 4
    assert np.abs(m @ result.stationary - result.stationary).sum() < 1e-11


def test_pagerank_no_convergence():
    d = web_normalize(parse_edge_list("1,2,1\n2,3,1"))
    with pytest.raises(NoConvergence):
        pagerank(d, p=0.86, tol=1e-12, max_iter=2)


@pytest.mark.parametrize("d", [np.zeros((0, 0)), Operator(0, [], [], [])], ids=["matrix", "operator"])
def test_pagerank_ranks_an_empty_matrix_after_no_iteration(d):
    result = pagerank(d)
    assert result.diagnostics == 0
    for v in (result.vectors.d, result.vectors.f, result.stationary):
        assert v.dtype == float and v.shape == (0,)


def test_pagerank_rejects_bad_p():
    with pytest.raises(ValueError):
        pagerank(_cycle(3), p=1.0)
    with pytest.raises(ValueError):
        pagerank(_cycle(3), p=0.0)


def test_pagerank_line_dependency_sequence():
    # hand-checked against the damped fixed points; head vertex fades as n grows
    anchors = [0.17, 0.12, 0.08, 0.059, 0.046]
    values = []
    for n, anchor in zip(range(3, 8), anchors):
        result = pagerank(web_normalize(parse_edge_list(
            "\n".join(f"{i},{i + 1},1" for i in range(1, n)))), p=0.86)
        d1 = float(result.stationary[0])
        values.append(d1)
        assert d1 == pytest.approx(anchor, abs=0.02)
    assert all(a > b for a, b in zip(values, values[1:]))


# -- vector extraction and ranking -------------------------------------------------

def test_influence_dependence_identity():
    v = influence_dependence(np.eye(4))
    assert np.array_equal(v.d, np.ones(4))
    assert np.array_equal(v.f, np.ones(4))


def test_influence_dependence_l2_pwp():
    result = pwp(to_matrix(parse_edge_list("1,2,1")), lam=1.0)
    x = 1.0 / math.expm1(1.0)
    assert np.allclose(result.vectors.f, [x, 0.0], rtol=0, atol=1e-14)
    assert np.allclose(result.vectors.d, [0.0, x], rtol=0, atol=1e-14)


def test_column_stochastic_matrix_has_unit_influence():
    rng = np.random.default_rng(10)
    t = rng.uniform(0, 1, (5, 5))
    t /= t.sum(axis=0, keepdims=True)
    assert np.allclose(influence_dependence(t).f, 1.0, rtol=0, atol=1e-12)


def test_influence_dependence_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        influence_dependence(np.zeros((2, 3)))


def test_influence_dependence_overflow_is_typed():
    # finite entries whose row and column sums pass the largest float
    with pytest.raises(NumericOverflow, match="^a row or column sum overflows"):
        influence_dependence(np.full((2, 2), 1.7e308))


def test_grand_sum_shared_by_both_vectors():
    rng = np.random.default_rng(12)
    for method in ("pwp", "micmac", "pagerank"):
        n = 5
        if method == "pagerank":
            d = rng.uniform(0, 1, (n, n))
            d /= d.sum(axis=0, keepdims=True)
            result = pagerank(d)
            t = np.tile(result.stationary[:, None], (1, n))
        elif method == "micmac":
            d = rng.uniform(-1, 1, (n, n))
            result, t = micmac(d, 3), mat_pow(d, 3)
        else:
            d = rng.uniform(-1, 1, (n, n))
            result, t = pwp(d), pwp_matrix(d)
        assert result.vectors.d.sum() == pytest.approx(result.vectors.f.sum(), abs=1e-10)
        assert result.vectors.d.sum() == pytest.approx(t.sum(), abs=1e-10)


def test_rank_vertices_dependency_example():
    ranked = rank_vertices([0.17, 0.34, 0.47])
    assert [v for v, _ in ranked] == [3, 2, 1]


def test_rank_vertices_tie_break_by_index():
    ranked = rank_vertices([1.0, 1.0, 1.0])
    assert [v for v, _ in ranked] == [1, 2, 3]


@given(st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]), st.floats(allow_nan=False)), max_size=40
))
def test_rank_vertices_is_the_sorted_order(scores):
    # descending score, then ascending index; -0.0 ties with 0.0
    want = sorted(((i, float(s)) for i, s in enumerate(scores, 1)), key=lambda pair: (-pair[1], pair[0]))
    got = rank_vertices(scores)
    assert got == want
    assert [math.copysign(1.0, s) for _, s in got] == [math.copysign(1.0, s) for _, s in want]
    assert all(type(v) is int and type(s) is float for v, s in got)


def test_rank_vertices_refuses_nan():
    # an infinite score ranks: see test_rank_vertices_is_the_sorted_order
    with pytest.raises(ValueError, match="^scores must not be nan$"):
        rank_vertices([1.0, math.nan, 2.0])


@pytest.mark.parametrize("scores, shape", [([[1.0, 2.0], [3.0, 4.0]], "(2, 2)"), (2.0, "()")])
def test_rank_vertices_refuses_scores_that_are_not_1_d(scores, shape):
    with pytest.raises(ValueError) as err:
        rank_vertices(scores)
    assert str(err.value) == f"scores must be a 1-D array, got shape {shape}"


def test_rank_vertices_scale_invariant():
    scores = np.array([0.2, 0.7, 0.1, 0.7])
    a = [v for v, _ in rank_vertices(scores)]
    b = [v for v, _ in rank_vertices(scores * math.expm1(1.0))]
    assert a == b == [2, 4, 1, 3]


def test_pwp_result_consistent_vectors():
    result = pwp(L3, lam=1.0)
    t = pwp_matrix(L3, 1.0)
    assert np.allclose(result.vectors.d, t.sum(axis=1), rtol=0, atol=1e-15)
    assert np.allclose(result.vectors.f, t.sum(axis=0), rtol=0, atol=1e-15)


# -- vectors without the dense T --------------------------------------------------

WEB = web_normalize(parse_edge_list("1,2,1\n2,3,1\n3,1,1\n1,3,1\n4,4,1"))

# each engine, and the kernel that forms its T from d and the engine's result
ENGINES = {
    "pwp": (lambda d: pwp(d, lam=1.5), lambda d, result: pwp_matrix(d, 1.5)),
    "micmac": (lambda d: micmac(d, 3), lambda d, result: mat_pow(d, 3)),
    "pagerank": (pagerank, lambda d, result: np.tile(result.stationary[:, None], (1, d.shape[0]))),
}


def _assert_identical(a, b):
    """Two engine results equal bit for bit: vectors, diagnostics and stationary."""
    assert a.vectors.d.tobytes() == b.vectors.d.tobytes()
    assert a.vectors.f.tobytes() == b.vectors.f.tobytes()
    assert a.diagnostics == b.diagnostics
    assert (a.stationary is None) == (b.stationary is None)
    if a.stationary is not None:
        assert a.stationary.tobytes() == b.stationary.tobytes()


@pytest.mark.parametrize("name", ENGINES)
def test_every_engine_takes_vectors_from_products_on_every_input(name):
    engine, kernel = ENGINES[name]
    result = engine(WEB)
    _assert_identical(result, engine(Operator.dense(WEB)))
    columns = engine(to_operator(from_matrix(WEB)))
    # against the kernel's T's row and column sums, which take no matrix-vector product
    want = influence_dependence(kernel(WEB, result))
    for got in (result, columns):
        assert np.allclose(got.vectors.d, want.d, rtol=0, atol=1e-12)
        assert np.allclose(got.vectors.f, want.f, rtol=0, atol=1e-12)


FAMILIES = [Line(1), Line(6), Cycle(5), Jordan(4, 0.5), Jordan(3, 2.0), Star(7)]


@pytest.mark.parametrize("name", ENGINES)
@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_every_engine_gives_a_matrix_and_its_operator_one_result(spec, name):
    engine, _ = ENGINES[name]
    d = (web_normalize if name == "pagerank" else to_matrix)(build(spec))
    _assert_identical(engine(d), engine(Operator.dense(d)))


@pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_pwp_vectors_match_closed_forms(spec, lam):
    result = pwp(Operator.dense(to_matrix(build(spec))), lam=lam)
    exact = influence_dependence(closed_form_pwp(spec, lam))
    assert np.allclose(result.vectors.d, exact.d, rtol=1e-12, atol=1e-12)
    assert np.allclose(result.vectors.f, exact.f, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_pwp_diagnostics_bound_the_vectors_it_returns(poisson_matrix, lam):
    d = poisson_matrix(200, 3)
    result = pwp(d, lam=lam)
    t = pwp_matrix(d, lam, 1e-18)
    for got, want in ((result.vectors.d, t.sum(axis=1)), (result.vectors.f, t.sum(axis=0))):
        # rounding: each side's sum of K nonnegative terms is off by about
        # K eps times its value, and so is the reference's
        allowance = 2 * result.diagnostics.terms_used * np.finfo(float).eps * want.max()
        assert np.abs(got - want).max() <= result.diagnostics.tail_bound + allowance


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_micmac_vectors_match_dense_power(spec, k):
    d = to_matrix(build(spec))
    result = micmac(Operator.dense(d), k)
    exact = influence_dependence(mat_pow(d, k))
    assert np.allclose(result.vectors.d, exact.d, rtol=1e-14, atol=0)
    assert np.allclose(result.vectors.f, exact.f, rtol=1e-14, atol=0)


@st.composite
def _sparse_matrices(draw):
    n = draw(st.integers(0, 8))
    weights = arrays(float, (n, n), elements=st.floats(-1.0, 1.0))
    present = arrays(bool, (n, n))
    return np.where(draw(present), draw(weights), 0.0)


@given(_sparse_matrices(), st.floats(0.05, 2.0))
def test_pwp_vectors_agree_with_dense_t(d, lam):
    result = pwp(d, lam=lam)
    want = influence_dependence(pwp_matrix(d, lam, 1e-18))
    # the vector series meet tol in max norm; the reference T is summed past it
    assert np.allclose(result.vectors.d, want.d, rtol=1e-10, atol=1e-11)
    assert np.allclose(result.vectors.f, want.f, rtol=1e-10, atol=1e-11)
    _assert_identical(result, pwp(Operator.dense(d), lam=lam))


def _micmac_by_steps(op: Operator, k: int):
    """d^k 1 and 1 d^k by k plain op.matvec and op.rmatvec products from the
    ones, with no scaling and no shared code with the chain."""
    rows = cols = np.ones(op.n)
    for _ in range(k):
        rows, cols = op.matvec(rows), op.rmatvec(cols)
    return rows, cols


def _with_corner(d: np.ndarray, corner: float) -> np.ndarray:
    """d with its last diagonal entry set to corner."""
    d[-1, -1] = corner
    return d


@given(_sparse_matrices(), st.integers(1, 300))
# d^300 1 holds 1e-300 beside the block's 7^300, more than 2^1022 below it
@example(_with_corner(np.pad(np.ones((7, 7)), (0, 1)), 0.1), 300)
# BLAS's d @ x leaves -0.0 in d^150 1, where products underflow
@example(_with_corner(np.full((5, 5), 6.25490811e-102), -0.03125), 150)
def test_micmac_vectors_agree_with_dense_t(d, k):
    result = micmac(d, k)
    if k <= 6:
        want = influence_dependence(mat_pow(d, k))
        assert np.allclose(result.vectors.d, want.d, rtol=1e-12, atol=1e-12)
        assert np.allclose(result.vectors.f, want.f, rtol=1e-12, atol=1e-12)
    _assert_identical(result, micmac(Operator.dense(d), k))
    # the chain scales a power only where the plain loop's next product
    # overflows, so micmac equals that loop bit for bit wherever none of
    # its vectors has an infinite entry, subnormal entries included; with
    # entries in [-1, 1] and n <= 8, |d^k 1| <= 8^300 < 2^1024, so no draw
    # is left out
    for op in (Operator.dense(d), to_operator(from_matrix(d))):
        rows, cols = _micmac_by_steps(op, k)
        result = micmac(op, k)
        assert result.vectors.d.tobytes() == rows.tobytes()
        assert result.vectors.f.tobytes() == cols.tobytes()
