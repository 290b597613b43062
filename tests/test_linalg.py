"""Dense kernels: product, powers, and the constant-free exponential series.

The block at the end checks the algebraic identities of the exponential
walk weighting on random matrices: transpose commutation, similarity
covariance, direct-sum splitting, preservation of column-stochasticity,
and the commuting-sum product identity.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import influx
from influx.cli import main
from influx import (
    DimensionMismatch,
    Line,
    NoConvergenceWithinBudget,
    NumericOverflow,
    Operator,
    build,
    exp_plus,
    exp_plus_vectors,
    influence_dependence,
    is_column_stochastic,
    mat_pow,
    micmac,
    pagerank,
    pagerank_repair,
    parse_edge_list,
    pwp_matrix,
    pwp,
    pwp_matrix_report,
    to_matrix,
    to_operator,
)
from influx.linalg import SPARSE_CUTOFF, _dense, _SlicedEll, _sliced_ell
from influx.stochastic import _draw_tally

L2 = to_matrix(parse_edge_list("1,2,1"))
L3 = to_matrix(parse_edge_list("1,2,1\n2,3,1"))
C3 = to_matrix(parse_edge_list("1,2,1\n2,3,1\n3,1,1"))


# -- mat_pow -------------------------------------------------------------------

def test_mat_pow_line3_k4_vanishes():
    assert np.array_equal(mat_pow(L3, 4), np.zeros((3, 3)))


def test_mat_pow_zero_is_identity():
    rng = np.random.default_rng(1)
    d = rng.uniform(-1, 1, (5, 5))
    assert np.array_equal(mat_pow(d, 0), np.eye(5))


def test_mat_pow_equals_repeated_product():
    rng = np.random.default_rng(2)
    d = rng.uniform(-1, 1, (4, 4))
    acc = np.eye(4)
    for k in range(6):
        assert np.allclose(mat_pow(d, k), acc, rtol=0, atol=1e-12)
        acc = acc @ d


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_mat_pow_cycle_is_shift_permutation(n, k):
    edges = "\n".join(f"{i},{i % n + 1},1" for i in range(1, n + 1))
    cn = to_matrix(parse_edge_list(edges))
    p = mat_pow(cn, k)
    expected = np.zeros((n, n))
    for j in range(n):
        expected[(j + k) % n, j] = 1.0  # vertex j+1 reaches vertex j+1+k (mod n)
    assert np.array_equal(p, expected)


def test_mat_pow_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        mat_pow(np.zeros((2, 3)), 2)


def _mat_pow_from_identity(d, k):
    """Repeated squaring that starts from the identity: the reference that
    mat_pow must equal bit for bit, signed zeros included."""
    result, base = np.eye(d.shape[0]), d
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def test_mat_pow_equals_identity_started_powers_bit_for_bit():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        d = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0], (n, n)) * rng.uniform(0.5, 1.5, (n, n))
        d[rng.random((n, n)) < 0.4] = -0.0
        k = int(rng.integers(0, 12))
        got, want = mat_pow(d, k), _mat_pow_from_identity(d, k)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_mat_pow_one_is_a_copy_with_positive_zeros():
    d = np.array([[-0.0, 1.0], [0.0, 0.0]])
    p = mat_pow(d, 1)
    assert np.array_equal(p, d) and not np.signbit(p).any()
    p[0, 1] = 5.0
    assert d[0, 1] == 1.0


# -- estimate_from_lengths and the number of dense products ------------------------

@pytest.fixture
def products(monkeypatch):
    """The dense products the power kernels take, one entry per product."""
    calls = []
    real = influx.linalg._product

    def counted(a, b, what):
        calls.append(what)
        return real(a, b, what)

    monkeypatch.setattr(influx.linalg, "_product", counted)
    return calls


@pytest.mark.parametrize("k, expected", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (15, 6)])
def test_mat_pow_takes_no_identity_product(products, k, expected):
    mat_pow(C3, k)
    assert len(products) == expected


def test_consecutive_lengths_take_one_product_each(products, matmuls):
    d = np.random.default_rng(10).uniform(0, 0.2, (6, 6))
    influx.estimate_from_lengths(d, np.arange(1, 16))
    # the power chain's step, np.matmul on this dense d, forms d^2 .. d^15
    assert len(products) + len(matmuls) == 14


@pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 8, 15, 16, 33, 1000])
def test_single_power_costs_no_more_than_mat_pow(products, k):
    alone = mat_pow(C3, k)
    cost = len(products)
    products.clear()
    assert np.array_equal(influx.estimate_from_lengths(C3, [k]), alone)
    assert len(products) <= cost


def test_far_power_is_reached_by_the_chain_step(products, steps):
    # a cycle's powers are shift permutations, so the answer is exact; past
    # the first power every one comes from the one before, by the step
    cycle = to_matrix(parse_edge_list("\n".join(f"{i},{i % 7 + 1},1" for i in range(1, 8))))
    got = influx.estimate_from_lengths(cycle, [1, 2000])
    assert np.array_equal(got, 0.5 * cycle + 0.5 * np.linalg.matrix_power(cycle, 2000 % 7))
    assert products == [] and len(steps) == 1999


def test_estimate_from_lengths_zero_length_is_identity():
    d = np.random.default_rng(11).uniform(-1, 1, (4, 4))
    got = influx.estimate_from_lengths(d, [0, 2, 2, 2])
    assert np.array_equal(got, 0.25 * np.eye(4) + 0.75 * mat_pow(d, 2))


@pytest.mark.parametrize("d", [np.array([[1e200]]), np.full((4, 4), 1e200)], ids=["sliced-ELL", "np.matmul"])
def test_sampled_power_overflow_is_typed(d):
    # the chain's running scale keeps d^2 in range; the sampled sum is not
    assert (_sliced_ell(d) is None) == (d.shape[0] == 4)
    with pytest.raises(NumericOverflow, match="weighted sum of matrix powers"):
        influx.estimate_from_lengths(d, [1, 2])


def test_weighted_sum_overflow_is_typed():
    with pytest.raises(NumericOverflow, match="weighted sum"):
        _dense(np.array([[1.7e308]]), sampled=[(1, 2.0)])
    # every power of this d is d, and the shares 1/5, 2/5, 2/5 add up to more
    # than 1 in floating point, so the sum passes the largest float
    d = np.array([[1.0, np.finfo(float).max], [0.0, 0.0]])
    with pytest.raises(NumericOverflow, match="weighted sum"):
        influx.estimate_from_lengths(d, [1, 2, 2, 3, 3])
    # past the series, the power chain's running scale carries 2^2000 into
    # the sampled sum, which the exact series at this lambda never reaches
    with pytest.raises(NumericOverflow, match="weighted sum of matrix powers"):
        influx.estimate_and_exact(np.array([[2.0]]), 0.001, [1, 2000])
    with pytest.raises(NumericOverflow, match="weighted sum of matrix powers"):
        influx.estimate_and_exact_vectors(Operator.dense([[2.0]]), 0.001, [1, 2000])


# -- exp_plus ------------------------------------------------------------------

def test_exp_plus_zero_matrix():
    s, report = exp_plus(np.zeros((3, 3)), lam=2.0)
    assert np.array_equal(s, np.zeros((3, 3)))
    assert report.tail_bound == 0.0


def test_exp_plus_scalar_is_e_minus_one():
    s, _ = exp_plus(np.array([[1.0]]), lam=1.0, tol=1e-14)
    assert s[0, 0] == pytest.approx(math.e - 1.0, abs=1e-14)


def test_exp_plus_line3_terminating_series():
    # nilpotent: series stops after the k=2 term, entries are D + D^2/2
    s, report = exp_plus(L3, lam=1.0)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    expected[2, 0] = 0.5
    assert np.array_equal(s, expected)
    assert report.tail_bound == 0.0


def test_exp_plus_never_includes_identity_term():
    s, _ = exp_plus(np.zeros((2, 2)), lam=1.0)
    assert s[0, 0] == 0.0


def test_exp_plus_matches_expm_minus_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        d = rng.uniform(-1, 1, (n, n))
        s, _ = exp_plus(d, lam=1.0, tol=1e-14)
        # independent route: eigendecomposition-free scaling-and-squaring
        # via numpy's matrix exponential of the embedded (n+1) block matrix
        # would drag in scipy; a direct long Taylor sum is plainer
        ref = np.zeros_like(d)
        term = np.eye(n)
        for k in range(1, 60):
            term = term @ d / k
            ref += term
        assert np.allclose(s, ref, rtol=0, atol=1e-12)


def test_exp_plus_tail_bound_is_honest():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = rng.uniform(-1, 1, (n, n))
        coarse, report = exp_plus(d, lam=1.0, tol=1e-6)
        fine, _ = exp_plus(d, lam=1.0, tol=1e-7)
        assert np.abs(coarse - fine).max() <= report.tail_bound + 1e-15


def test_exp_plus_vectors_tail_bound_is_honest():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = rng.uniform(-1, 1, (n, n))
        rows, cols, report = exp_plus_vectors(d, lam=1.0, tol=1e-6)
        fine_rows, fine_cols, _ = exp_plus_vectors(d, lam=1.0, tol=1e-7)
        assert np.abs(rows - fine_rows).max() <= report.tail_bound + 1e-15
        assert np.abs(cols - fine_cols).max() <= report.tail_bound + 1e-15


def test_exp_plus_vectors_are_sums_of_exp_plus():
    rng = np.random.default_rng(8)
    d = rng.uniform(-1, 1, (6, 6))
    rows, cols, report = exp_plus_vectors(d, lam=1.5, tol=1e-14)
    s, _ = exp_plus(d, lam=1.5, tol=1e-15)
    assert np.allclose(rows, s.sum(axis=1), rtol=0, atol=1e-12)
    assert np.allclose(cols, s.sum(axis=0), rtol=0, atol=1e-12)
    assert 0.0 < report.tail_bound < 1e-14


def test_vector_kernels_on_an_empty_matrix():
    rows, cols, report = exp_plus_vectors(np.zeros((0, 0)))
    assert rows.shape == cols.shape == (0,) and report.tail_bound == 0.0
    vectors = micmac(Operator.dense(np.zeros((0, 0))), 3).vectors
    assert vectors.d.shape == vectors.f.shape == (0,)


def test_exp_plus_diverging_budget():
    # the terms overflow long before the term cap
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflow):
            exp_plus(np.array([[20_000.0]]), lam=1.0, tol=1e-12)


def test_term_cap_raises_no_convergence(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(influx.linalg, "MAX_SERIES_TERMS", 2)
    with pytest.raises(NoConvergenceWithinBudget) as err:
        pwp_matrix_report([[0.5]], 1.0)
    assert type(err.value) is NoConvergenceWithinBudget
    # term 2 is 0.25 / 2 / (e - 1); the geometric tail after it has ratio 1/6
    assert err.value.terms == 2
    assert err.value.bound == pytest.approx(0.125 / math.expm1(1.0) * 1.2, rel=1e-12)
    assert err.value.bound > err.value.tol
    path = tmp_path / "g.csv"
    path.write_text("1,1,0.5\n")
    assert main(["compute", "--method", "pwp", str(path)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_exp_plus_rejects_bad_args():
    with pytest.raises(ValueError):
        exp_plus(np.eye(2), lam=0.0)
    with pytest.raises(ValueError):
        exp_plus(np.eye(2), lam=1.0, tol=0.0)
    with pytest.raises(ValueError):
        exp_plus(np.array([[np.inf]]), lam=1.0)


# -- the shared matrix check and overflow ----------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "kernel",
    [lambda d: mat_pow(d, 2), exp_plus, pagerank_repair, pagerank, influence_dependence],
    ids=["mat_pow", "exp_plus", "pagerank_repair", "pagerank", "influence_dependence"],
)
def test_non_finite_entry_rejected_at_entry(kernel, bad):
    # column stochastic but for one entry: pagerank used to iterate to its
    # cap on nan and call an inf column not substochastic
    d = np.full((3, 3), 1.0 / 3.0)
    d[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        kernel(d)


def test_a_complex_matrix_is_refused():
    # numpy would warn and go on with the real part
    with pytest.raises(ValueError, match="^expected a real matrix, got dtype complex128$"):
        pwp(np.array([[0.5j, 0.25]] * 2))


def test_mat_pow_overflow_is_typed():
    d = np.array([[0.0, 1e200], [1e200, 0.0]])
    with pytest.raises(NumericOverflow):
        mat_pow(d, 4)


def test_exp_plus_overflow_stops_at_first_bad_term():
    k50 = 20.0 * (np.ones((50, 50)) - np.eye(50))
    with pytest.raises(NumericOverflow) as err:
        exp_plus(k50, lam=1.0)
    assert err.value.terms < 1000
    assert isinstance(err.value, NoConvergenceWithinBudget)


def test_exp_plus_overflowing_sum_of_finite_terms():
    # d is idempotent, so term k is d / k! and stays finite; the sum is
    # (e - 1) * d, whose corner entry is past the float range
    d = np.array([[1.0, 1.1e308], [0.0, 0.0]])
    with pytest.raises(NumericOverflow, match="sum"):
        exp_plus(d, lam=1.0)


def test_vector_kernels_overflow_is_typed():
    big = np.array([[0.0, 1e200], [1e200, 0.0]])
    with pytest.raises(NumericOverflow, match="weighted sum of matrix powers"):
        micmac(Operator.dense(big), 4)
    with pytest.raises(NumericOverflow, match="term"):
        exp_plus_vectors(big)
    with pytest.raises(NumericOverflow, match="matrix power 1"):
        micmac(Operator.dense([[0.0, 0.0], [1.7e308, 1.7e308]]), 1)  # finite d, infinite row sum


@pytest.mark.parametrize(
    "call",
    [
        lambda lam: pwp(Operator.dense(L3), lam),
        lambda lam: influx.omega_lambda_sum(build(Line(2)), 2, 1, lam, 5),
        lambda lam: influx.closed_form_pwp(Line(3), lam),
    ],
    ids=["pwp_operator", "omega_lambda_sum", "closed_form_pwp"],
)
def test_e_plus_lambda_overflow_is_typed_everywhere(call):
    with pytest.raises(NumericOverflow, match="e\\^lambda - 1"):
        call(800.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: pwp(L3, lam=v),
        lambda v: pwp(L3, tol=v),
        lambda v: pagerank(L3, tol=v),
        lambda v: exp_plus(L3, lam=v),
        lambda v: exp_plus(L3, tol=v),
        lambda v: exp_plus_vectors(L3, lam=v),
        lambda v: pwp_matrix(L3, tol=v),
        lambda v: pwp(Operator.dense(L3), lam=v),
        lambda v: influx.pmf(v, 1),
        lambda v: influx.moments(v),
        lambda v: influx.sample_lengths(v, 3, influx.make_rng(0)),
        lambda v: influx.closed_form_pwp(Line(3), v),
        lambda v: influx.line_argmax_offset(v),
        lambda v: influx.omega_lambda_sum(build(Line(2)), 2, 1, v, 5),
        lambda v: influx.omega_lambda_tail_bound(build(Line(2)), v, 5),
    ],
)
def test_lambda_and_tol_must_be_finite_and_positive(call, bad):
    with pytest.raises(ValueError, match="finite and > 0"):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: pwp(L2, None),
        lambda: exp_plus_vectors(L2, None),
        lambda: influx.estimate_and_exact(L2, None, [1, 2]),
        lambda: exp_plus(L2, None),
        lambda: pwp_matrix(L2, None),
        lambda: pwp_matrix_report(L2, None),
        lambda: influx.estimate_and_exact_vectors(L2, None, [1, 2]),
    ],
    ids=["pwp", "exp_plus_vectors", "estimate_and_exact", "exp_plus", "pwp_matrix", "pwp_matrix_report",
         "estimate_and_exact_vectors"],
)
def test_lambda_none_is_refused_as_pmf_refuses_it(call):
    # no lam a caller passes means "no series": None is checked before any product
    with pytest.raises(TypeError) as want:
        influx.pmf(None, 1)
    with pytest.raises(type(want.value)) as got:
        call()
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [1.5, True, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: mat_pow(L3, k),
        lambda k: influx.micmac(L3, k),
        lambda k: influx.micmac(Operator.dense(L3), k),
        lambda k: influx.micmac(influx.to_operator(build(Line(3))), k),
        lambda k: influx.count_paths(build(Line(3)), 3, 1, k),
        lambda k: influx.enumerate_paths(build(Line(3)), 3, 1, k),
        lambda k: influx.omega_sum(build(Line(3)), 3, 1, k),
        lambda k: influx.rho_sum(build(Line(3)), 3, 1, k),
        lambda k: influx.omega_lambda_sum(build(Line(3)), 3, 1, 1.0, k),
        lambda k: influx.omega_lambda_tail_bound(build(Line(3)), 1.0, k),
    ],
    ids=[
        "mat_pow", "micmac", "micmac_operator", "micmac_edges",
        "count_paths", "enumerate_paths", "omega_sum", "rho_sum", "omega_lambda_sum",
        "omega_lambda_tail_bound",
    ],
)
def test_single_power_must_be_an_integer(call, bad):
    # a bool is an int to Python, but True is not a power
    with pytest.raises(ValueError, match="must be an integer" if bad != -1 else ">= "):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [lambda k: mat_pow(L3, k), lambda k: micmac(Operator.dense(L3), k).vectors.d, lambda k: micmac(L3, k).vectors.f],
    ids=["mat_pow", "micmac_operator", "micmac"],
)
def test_numpy_integer_powers_are_accepted(call):
    assert np.array_equal(call(np.int64(2)), call(2))


def _montecarlo_samples(v, tmp_path):
    # argparse hands -N over as an int; any other value can reach the check
    # only from a caller of cmd_montecarlo
    path = tmp_path / "line3.csv"
    path.write_text("1,2,1\n2,3,1\n")
    args = influx.cli.build_parser().parse_args(["montecarlo", str(path), "-o", str(tmp_path / "r.json")])
    args.samples = v
    return influx.cli.cmd_montecarlo(args)


# each integer parameter checked by linalg._at_least: (call, name, least)
INTEGER_PARAMETERS = {
    "vertex count": (lambda v, _: influx.DirectInfluenceGraph(v, ()), "vertex count", 0),
    # below the largest index, where the count it would raise is ignored
    "parse_edge_list n": (lambda v, _: parse_edge_list("1,2,1\n", v), "n", 0),
    "family n": (lambda v, _: Line(v), "n", 1),
    "sample_lengths": (lambda v, _: influx.sample_lengths(1.0, v, influx.make_rng(0)), "size", 0),
    "monte_carlo_pwp": (lambda v, _: influx.monte_carlo_pwp(L3, 1.0, v, 0), "samples", 1),
    "bernoulli_numbers": (lambda v, _: influx.bernoulli_numbers(v), "K", 0),
    "bernoulli_series": (lambda v, _: influx.bernoulli_series(1.0, v), "K", 0),
    # the uniform start is this matrix's stationary vector, so one iteration does
    "max_iter": (lambda v, _: pagerank(np.full((2, 2), 0.5), max_iter=v), "max_iter", 1),
    "montecarlo -N": (_montecarlo_samples, "-N", 1),
    "make_rng": (lambda v, _: influx.make_rng(v), "seed", 0),
}


# pmf's k follows the integer rule too, but a k below 1 is a DomainError
INTEGER_TYPE_ONLY = {**INTEGER_PARAMETERS, "pmf": (lambda v, _: influx.pmf(1.0, v), "k", 1)}


@pytest.mark.parametrize("bad", [2.5, True])
@pytest.mark.parametrize("entry", INTEGER_TYPE_ONLY)
def test_integer_parameters_refuse_floats_and_bools(entry, bad, tmp_path):
    call, name, _ = INTEGER_TYPE_ONLY[entry]
    with pytest.raises(ValueError) as exc:
        call(bad, tmp_path)
    assert str(exc.value) == f"{name} must be an integer, got {bad!r}"


@pytest.mark.parametrize("entry", INTEGER_PARAMETERS)
def test_integer_parameters_out_of_range(entry, tmp_path):
    # the message each check printed before it went through _at_least; the
    # seed's is new, where numpy's named no parameter
    call, name, least = INTEGER_PARAMETERS[entry]
    for bad in sorted({least - 1, -1}):
        with pytest.raises(ValueError) as exc:
            call(bad, tmp_path)
        assert str(exc.value) == f"{name} must be >= {least}, got {bad}"


@pytest.mark.parametrize("entry", INTEGER_PARAMETERS)
def test_integer_parameters_accept_numpy_integers(entry, tmp_path):
    call, _, least = INTEGER_PARAMETERS[entry]
    call(np.int64(max(least, 2)), tmp_path)


def test_seed_past_philox_key_is_refused_naming_the_seed():
    # Philox takes a 128-bit key; numpy's own refusal named no parameter
    for call in (influx.make_rng, lambda seed: influx.monte_carlo_pwp(L3, 1.0, 10, seed)):
        with pytest.raises(ValueError) as exc:
            call(2**128)
        assert str(exc.value) == f"seed must be <= {2**128 - 1}, got {2**128}"
    influx.make_rng(2**128 - 1)


@pytest.mark.parametrize("lam", [800.0, 1e308])
def test_pwp_matrix_overflowing_lambda_is_typed(lam):
    with pytest.raises(NumericOverflow):
        pwp_matrix(L3, lam=lam)


# -- pwp_matrix -----------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.25, 1.0, 2.5, 6.0])
def test_pwp_l2_single_entry(lam):
    t = pwp_matrix(L2, lam)
    expected = np.zeros((2, 2))
    expected[1, 0] = lam / math.expm1(lam)
    assert np.allclose(t, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("n", [2, 4, 7])
def test_pwp_line_closed_form(lam, n):
    edges = "\n".join(f"{i},{i + 1},1" for i in range(1, n))
    d = to_matrix(parse_edge_list(edges))
    t = pwp_matrix(d, lam)
    eplus = math.expm1(lam)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            s = i - j
            expected = lam**s / (eplus * math.factorial(s)) if s >= 1 else 0.0
            assert t[i - 1, j - 1] == pytest.approx(expected, abs=1e-13)


def test_pwp_zero_matrix():
    assert np.array_equal(pwp_matrix(np.zeros((3, 3)), 1.0), np.zeros((3, 3)))


def test_pwp_report_scales_tolerance():
    _, report = pwp_matrix_report(L3, lam=1.0, tol=1e-12)
    assert report.terms_used == 3
    assert report.tail_bound == 0.0


def test_pwp_tolerance_bounds_t_directly():
    # tol is not scaled by e^lambda - 1: the report's bound is in T's units
    d = np.random.default_rng(12).uniform(0, 0.3, (5, 5))
    for lam in (1.0, 4.0):
        t, report = pwp_matrix_report(d, lam, tol=1e-9)
        _, by_exp_plus = exp_plus(d, lam, tol=1e-9 * math.expm1(lam))
        assert report.terms_used == by_exp_plus.terms_used
        assert report.tail_bound == pytest.approx(by_exp_plus.tail_bound / math.expm1(lam), rel=1e-12)
        assert report.tail_bound < 1e-9


def test_pwp_matrix_keeps_a_running_scale():
    # d^k overflows from k = 155 on, but no term pmf(5, k) 100^k does
    t = pwp_matrix([[100.0]], 5.0)
    assert t[0, 0] == pytest.approx(math.expm1(500.0) / math.expm1(5.0), rel=1e-12, abs=0)


def test_pwp_tail_bounds_are_honest():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = rng.uniform(-1, 1, (n, n))
        for lam in (1.0, 4.0):
            coarse, report = pwp_matrix_report(d, lam, tol=1e-6)
            fine, _ = pwp_matrix_report(d, lam, tol=1e-9)
            assert np.abs(coarse - fine).max() <= report.tail_bound + 1e-15
            by_vector = pwp(Operator.dense(d), lam, tol=1e-6)
            fine_vectors = pwp(Operator.dense(d), lam, tol=1e-9).vectors
            bound = by_vector.diagnostics.tail_bound + 1e-15
            assert np.abs(by_vector.vectors.d - fine_vectors.d).max() <= bound
            assert np.abs(by_vector.vectors.f - fine_vectors.f).max() <= bound


@st.composite
def _sparse_matrices(draw):
    """Matrices the chain steps in sliced ELLPACK form: n from 8 to 40 and at
    most sqrt(n^3 / SPARSE_CUTOFF) nonzeros, anywhere (self-loops too), of
    either sign."""
    n = draw(st.integers(8, 40))
    cells = draw(st.lists(st.integers(0, n * n - 1), min_size=1, max_size=math.isqrt(int(n**3 / SPARSE_CUTOFF)),
                          unique=True))
    d = np.zeros(n * n)
    d[cells] = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(cells), max_size=len(cells)))
    return d.reshape(n, n)


@st.composite
def _contractions(draw):
    """Square matrices with row- and column-sum norms at most 1, so every
    power stays in range and lambda * norm <= lambda: dense ones of n <= 6,
    which the chain steps by np.matmul from n = 3 on unless many of their
    entries are zero, and sparse ones."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        d = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    else:
        d = draw(_sparse_matrices())
    return d / max(1.0, np.abs(d).sum(axis=0).max(), np.abs(d).sum(axis=1).max())


@given(_contractions(), st.sampled_from([1e-8, 1.0, 4.0, 30.0]))
def test_pwp_agrees_with_poisson_weighted_powers(d, lam):
    # the length law's definition, term by term: 150 terms leave less than
    # pmf(30, 150) ~ 1e-50 behind at lambda = 30
    want = sum(influx.pmf(lam, k) * np.linalg.matrix_power(d, k) for k in range(1, 150))
    t = pwp_matrix(d, lam)
    vectors = pwp(Operator.dense(d), lam).vectors
    assert np.abs(t - want).max() <= 1e-11
    assert np.abs(vectors.d - want.sum(axis=1)).max() <= 1e-11
    assert np.abs(vectors.f - want.sum(axis=0)).max() <= 1e-11


@given(_contractions(), st.sampled_from([1e-8, 1.0, 4.0, 30.0]))
def test_pwp_agrees_with_scipy_expm(d, lam):
    expm = pytest.importorskip("scipy.linalg").expm
    e = expm(lam * d)
    want = (e - np.eye(d.shape[0])) / math.expm1(lam)
    # expm - I cancels: its rounding, over e^lambda - 1, is the reference's error
    slack = 1e-13 * max(1.0, np.abs(e).max()) / math.expm1(lam)
    assert np.abs(pwp_matrix(d, lam) - want).max() <= 1e-11 + slack


def _longdouble_pwp(d, lam):
    """sum_k pmf(lam, k) d^k in extended precision, powers and weights alike,
    summed until the geometric tail is below 1e-22 of the sum's largest
    entry."""
    rows, cols = np.nonzero(d)
    values = d[rows, cols].astype(np.longdouble)[:, None]
    lam_x = np.longdouble(lam)
    norm = np.abs(d).sum(axis=1).max()
    weight = lam_x / np.expm1(lam_x)
    power = d.astype(np.longdouble)
    total, k = weight * power, 1
    while True:
        k += 1
        after = np.zeros_like(power)
        np.add.at(after, rows, values * power[cols])  # d @ power
        power, weight = after, weight * lam_x / k
        top = np.abs(weight * power).max()
        total += weight * power
        if top == 0 or (lam * norm / (k + 1) < 0.5 and top <= 1e-22 * np.abs(total).max()):
            return total


@settings(max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 120), st.integers(0, 2**16), st.integers(1, 12), st.sampled_from([1.0, 4.0, 30.0]))
def test_pwp_matrix_rounding_is_a_few_ulps_of_its_largest_entry(poisson_matrix, n, seed, degree, lam):
    if np.finfo(np.longdouble).eps == np.finfo(float).eps:
        pytest.skip("long double is double on this platform")
    d = poisson_matrix(n, seed, degree)
    assume(d.any())  # tol is scaled by max|T| below
    want = _longdouble_pwp(d, lam)
    top = float(np.abs(want).max())
    eps = np.finfo(float).eps
    # tol far below the rounding, so what is left is the plain sum's: the
    # terms share a sign, so at most about K eps top, and measured at up
    # to 7 eps top on these graphs
    t = pwp_matrix(d, lam, tol=eps / 16 * top)
    assert float(np.abs(t - want).max()) <= 16 * eps * top


# -- the sliced-ELL step ----------------------------------------------------------

def _entries(least):
    """Floats in [-4, 4] that are 0.0, -0.0 or at least `least` in size, so
    no product underflows."""
    return st.one_of(st.just(0.0), st.just(-0.0), st.floats(-4.0, 4.0).filter(lambda x: abs(x) >= least))


@st.composite
def _step_cases(draw):
    """(d, P): d with empty rows, self-loops and negative and -0.0 entries."""
    n = draw(st.integers(1, 12))
    return (draw(arrays(float, (n, n), elements=_entries(1e-100))),
            draw(arrays(float, (n, n), elements=_entries(1e-100))))


def _with_counts(*counts):
    """(d, P): row i of d has counts[i] nonzeros of both signs, at the end
    of the row, and P holds 1, 2, ... row by row."""
    n = len(counts)
    d = np.zeros((n, n))
    for i, c in enumerate(counts):
        d[i, n - c:] = (-1.5) ** np.arange(c)
    return d, np.arange(1.0, n * n + 1).reshape(n, n)


@given(_step_cases())
@example((np.zeros((1, 1)), np.ones((1, 1))))
@example((np.array([[-0.0]]), np.ones((1, 1))))
@example((np.zeros((3, 3)), np.ones((3, 3))))
@example((np.diag([0.0, 2.0, -3.0]), np.arange(9.0).reshape(3, 3)))
@example(_with_counts(2, 2, 2, 2))  # one block gathers 8 rows of a 4-row P: two chunks
@example(_with_counts(0, 3, 0, 1, 0))  # empty rows between and after the others
@example(_with_counts(5, 0, 0, 0, 0))  # a single full row
@example(_with_counts(*[7] * 300, 1))  # chunks cut at GATHER_ENTRIES, well below n rows
def test_sliced_ell_step_is_the_product(case):
    d, p = case
    sliced = _SlicedEll(d)
    out = np.full_like(p, np.nan)
    sliced.scratch[:] = np.nan
    sliced(sliced.enter(p), out)
    # each of the two sums rounds by less than n eps / 2 times |d| |P|
    slack = d.shape[0] * np.finfo(float).eps * (np.abs(d) @ np.abs(p))
    assert np.all(np.abs(sliced.leave(out) - d @ p) <= slack)


def test_sliced_ell_step_takes_matrices_with_few_nonzeros_a_row():
    assert _sliced_ell(np.zeros((1, 1))) is not None  # no blocks: every product is zero
    # at n = 8, at most sqrt(8^3 / SPARSE_CUTOFF) nonzeros
    most = math.isqrt(int(8**3 / SPARSE_CUTOFF))
    d = np.zeros(64)
    d[:most] = 1.0
    assert _sliced_ell(d.reshape(8, 8)) is not None
    d[most] = 1.0
    assert _sliced_ell(d.reshape(8, 8)) is None


@given(_sparse_matrices(), st.sampled_from([1e-8, 1.0, 4.0, 30.0]))
def test_sliced_ell_chain_agrees_with_the_matmul_chain_and_scipy(d, lam):
    d = d / max(1.0, np.abs(d).sum(axis=0).max(), np.abs(d).sum(axis=1).max())
    assert _sliced_ell(d) is not None
    n = d.shape[0]
    lengths = influx.sample_lengths(lam, 300, influx.make_rng(0))

    def run():
        return pwp_matrix_report(d, lam), exp_plus(d, lam), influx.estimate_and_exact(d, lam, lengths)

    (t, report), (e, _), (estimate, exact) = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(influx.linalg, "_sliced_ell", lambda d: None)
        (t_mm, _), (e_mm, _), (estimate_mm, exact_mm) = run()
    assert np.array_equal(exact, t)
    # rounding, and a truncation each below tol = 1e-12
    assert np.abs(t - t_mm).max() <= 3e-12
    assert np.abs(e - e_mm).max() <= 3e-12 * max(1.0, math.expm1(lam))
    values, counts = np.unique(lengths, return_counts=True)
    scale = sum(w * np.linalg.matrix_power(np.abs(d), int(k)) for k, w in zip(values, counts / len(lengths)))
    assert np.all(np.abs(estimate - estimate_mm) <= 4 * int(values[-1]) * n * np.finfo(float).eps * scale + 1e-300)
    # the tail bound is honest on this path too
    coarse, by_coarse = pwp_matrix_report(d, lam, tol=1e-6)
    assert np.abs(coarse - t).max() <= by_coarse.tail_bound + 1e-12
    expm = pytest.importorskip("scipy.linalg").expm
    want = expm(lam * d) - np.eye(n)
    slack = 1e-13 * max(1.0, np.abs(want).max() + 1.0)
    assert np.abs(e - want).max() <= 1e-11 * max(1.0, math.expm1(lam)) + slack
    assert np.abs(t - want / math.expm1(lam)).max() <= 1e-11 + slack / math.expm1(lam)


def test_sliced_ell_chain_overflow_is_typed(poisson_matrix):
    d = poisson_matrix(400, 17) * 1e200
    assert _sliced_ell(d) is not None
    with pytest.raises(NumericOverflow, match="term"):
        pwp_matrix(d, 1.0)
    with pytest.raises(NumericOverflow, match="weighted sum of matrix powers"):
        influx.estimate_from_lengths(d, [1, 2])


# -- how the chain spends products and memory --------------------------------------

@pytest.fixture
def matmuls(monkeypatch):
    """The dense products the power chain takes, one entry per product."""
    calls = []
    real = np.matmul

    def counted(a, b, **kwargs):
        if np.ndim(a) == np.ndim(b) == 2:
            calls.append((np.shape(a), np.shape(b)))
        return real(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    return calls


@pytest.fixture
def steps(monkeypatch):
    """The sliced-ELL products the power chain takes, one entry per product."""
    calls = []
    real = _SlicedEll.__call__

    def counted(self, q, out):
        calls.append(q.shape)
        return real(self, q, out)

    monkeypatch.setattr(_SlicedEll, "__call__", counted)
    return calls


# (n, nonzeros a row): about 12 at n = 40 steps by np.matmul, 5 at n = 400 by
# the sliced-ELL step
BOTH_STEPS = ((40, 12), (400, 5))


def test_pwp_matrix_takes_one_product_per_term(matmuls, steps, poisson_matrix):
    for n, degree in BOTH_STEPS:
        matmuls.clear()
        steps.clear()
        d = poisson_matrix(n, 14, degree)
        assert (_sliced_ell(d) is None) == (n == 40)
        _, report = pwp_matrix_report(d, 4.0)
        assert len(matmuls) + len(steps) == report.terms_used - 1


def test_montecarlo_forms_each_power_once(tmp_path, capsys, matmuls, products, steps, poisson_matrix):
    # the matrix chain runs for --emit-matrix's estimate and exact T; the
    # vector chains beside it take no dense product
    lam, samples, seed = 4.0, 20_000, 3
    for n, degree in BOTH_STEPS:
        text = influx.format_edge_list(influx.from_matrix(poisson_matrix(n, 15, degree)))
        path = tmp_path / "g.csv"
        path.write_text(text)
        d = to_matrix(parse_edge_list(text))
        assert (_sliced_ell(d) is None) == (n == 40)
        argv = ["montecarlo", str(path), "--lambda", "4", "-N", str(samples), "--seed", str(seed),
                "--emit-matrix"]
        matmuls.clear()
        products.clear()
        steps.clear()
        assert main(argv) == 0
        used = len(matmuls) + len(products) + len(steps)
        terms = pwp_matrix_report(d, lam)[1].terms_used
        longest = _draw_tally(lam, samples, influx.make_rng(seed)).sampled[-1][0]
        assert d.shape == (n, n) and terms != longest
        assert used == max(terms, longest) - 1
        assert used < (terms - 1) + (longest - 1)


@pytest.mark.parametrize("scale", [1.0, 0.02], ids=["series-longer", "sampled-longer"])
def test_montecarlo_takes_each_vector_product_once(tmp_path, capsys, monkeypatch, poisson_matrix, scale):
    # per side, the product d 1 (1 d), then one step a power up to the longer
    # of that side's series and the longest sampled length
    lam, samples, seed = 4.0, 20_000, 3
    text = influx.format_edge_list(influx.from_matrix(scale * poisson_matrix(400, 15)))
    path = tmp_path / "g.csv"
    path.write_text(text)
    products = {"matvec": 0, "rmatvec": 0}
    for name in products:
        real = getattr(Operator, name)

        def counted(self, *args, name=name, real=real):
            products[name] += 1
            return real(self, *args)

        monkeypatch.setattr(Operator, name, counted)
    reports = []
    real_chain = influx.linalg._chain

    def chain(*args, **kwargs):
        result = real_chain(*args, **kwargs)
        reports.append(result[-1])
        return result

    monkeypatch.setattr(influx.linalg, "_chain", chain)
    assert main(["montecarlo", str(path), "--lambda", "4", "-N", str(samples), "--seed", str(seed)]) == 0
    by_row, by_col = reports
    longest = _draw_tally(lam, samples, influx.make_rng(seed)).sampled[-1][0]
    assert (by_row.terms_used > longest) == (scale == 1.0)
    assert products == {"matvec": max(by_row.terms_used, longest), "rmatvec": max(by_col.terms_used, longest)}
    monkeypatch.undo()
    want = pwp(to_operator(parse_edge_list(text)), lam).diagnostics.terms_used
    assert max(by_row.terms_used, by_col.terms_used) == want


def _peak_buffers(call, n):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * n * n)
    finally:
        tracemalloc.stop()


def test_pwp_matrix_memory_does_not_grow_with_terms(poisson_matrix):
    for n, degree in ((200, 30), (400, 5)):  # the np.matmul and the sliced-ELL step
        d = poisson_matrix(n, 16, degree)
        assert (_sliced_ell(d) is None) == (n == 200)
        few, many = (pwp_matrix_report(d, lam)[1].terms_used for lam in (1.0, 30.0))
        assert many > 3 * few
        peaks = [_peak_buffers(lambda: pwp_matrix(d, lam), n) for lam in (1.0, 30.0)]
        # the chain's three n x n buffers, whatever the term count: the copy
        # of d it works in (row-permuted on the sliced-ELL step), the next
        # power, which also holds each term on its way into the sum, and the
        # sum; the sliced-ELL step's gathers take at most GATHER_ENTRIES more
        assert round(peaks[0]) == round(peaks[1]) <= 3


@pytest.mark.parametrize("n, degree", [(300, 150), (400, 5)], ids=["np.matmul", "sliced-ELL"])
def test_matrix_chain_forms_d_once(poisson_matrix, monkeypatch, n, degree):
    op = to_operator(influx.from_matrix(poisson_matrix(n, 16, degree)))
    assert (_sliced_ell(op) is None) == (degree == 150)
    want = pwp_matrix(op, 1.0)
    calls = []
    real = Operator._array
    monkeypatch.setattr(Operator, "_array", lambda self: calls.append(self) or real(self))
    assert np.array_equal(pwp_matrix(op, 1.0), want)
    assert calls == [op]


def _montecarlo_file(tmp_path, poisson_matrix, n):
    """An edge-list file of about 5 nonzeros a row, on the sliced-ELL step."""
    d = poisson_matrix(n, 17)
    assert _sliced_ell(d) is not None
    path = tmp_path / "g.csv"
    path.write_text(influx.format_edge_list(influx.from_matrix(d)))
    return str(path)


def test_montecarlo_holds_four_n_by_n_buffers(tmp_path, poisson_matrix):
    # the matrix chain of --emit-matrix, on the operator montecarlo passes it;
    # the writer's nested lists of the two matrices would dwarf it in main
    n = 600
    path = _montecarlo_file(tmp_path, poisson_matrix, n)
    d = to_operator(parse_edge_list(Path(path).read_text()))
    lengths = influx.sample_lengths(4.0, 2000, influx.make_rng(0))
    # the two powers, the sum and the sampled sum, and a gather of at most
    # GATHER_ENTRIES (0.18 n^2 here): no dense D, no row-ordered copy of it
    # and no n x n scratch
    assert _peak_buffers(lambda: influx.estimate_and_exact(d, 4.0, lengths), n) <= 4.5


def test_montecarlo_without_the_matrix_forms_no_n_by_n_array(tmp_path, monkeypatch, edge_list):
    # d and f come from the vector chains, so the matrix chain never starts
    n = 2000
    path = tmp_path / "g.csv"
    path.write_text(edge_list(n, 17))

    def refuse(op):
        raise AssertionError("montecarlo ran the matrix chain without --emit-matrix")

    monkeypatch.setattr(influx.linalg, "_stepper", refuse)
    # the parser's Python column lists, about 0.08 n^2 floats here, are read
    # outside the measurement, as are numpy.random's modules
    g = parse_edge_list(path.read_text())
    monkeypatch.setattr(influx.cli, "_load_graph", lambda _: g)
    influx.make_rng(0)
    argv = ["montecarlo", str(path), "--lambda", "4", "-N", "2000", "-o", str(tmp_path / "r.json")]
    codes = []
    # the edge columns, a few n-vectors, the lengths and the report
    assert _peak_buffers(lambda: codes.append(main(argv)), n) < 0.05
    assert codes == [0]


def test_montecarlo_forms_no_dense_d(tmp_path, monkeypatch, poisson_matrix):
    path = _montecarlo_file(tmp_path, poisson_matrix, 400)
    assert not hasattr(influx.cli, "to_matrix")
    calls = []
    for module, name in [(influx.graph, "to_matrix"), (influx.graph, "_matrix")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(real) or real(*a))
    for emit in ([], ["--emit-matrix"]):
        assert main(["montecarlo", path, "--lambda", "4", "-N", "2000", "-o", str(tmp_path / "r.json"), *emit]) == 0
    assert calls == []


# -- algebraic identities on random matrices -------------------------------------

def _random_square(rng, n_max=8):
    n = int(rng.integers(1, n_max + 1))
    return rng.uniform(-1, 1, (n, n))


def test_transpose_commutes():
    rng = np.random.default_rng(100)
    for _ in range(50):
        d = _random_square(rng)
        lhs = pwp_matrix(d.T, 1.0, 1e-14)
        rhs = pwp_matrix(d, 1.0, 1e-14).T
        assert np.abs(lhs - rhs).max() < 1e-10


def test_similarity_covariance():
    rng = np.random.default_rng(101)
    for _ in range(50):
        d = _random_square(rng)
        n = d.shape[0]
        while True:
            q = rng.uniform(-1, 1, (n, n))
            if np.linalg.cond(q) < 20:
                break
        lhs = pwp_matrix(q @ d @ np.linalg.inv(q), 1.0, 1e-14)
        rhs = q @ pwp_matrix(d, 1.0, 1e-14) @ np.linalg.inv(q)
        assert np.abs(lhs - rhs).max() < 1e-7


def test_direct_sum_splits():
    rng = np.random.default_rng(102)
    for _ in range(50):
        d1 = _random_square(rng)
        d2 = _random_square(rng)
        n1, n2 = d1.shape[0], d2.shape[0]
        block = np.zeros((n1 + n2, n1 + n2))
        block[:n1, :n1] = d1
        block[n1:, n1:] = d2
        lhs = pwp_matrix(block, 1.0, 1e-14)
        rhs = np.zeros_like(block)
        rhs[:n1, :n1] = pwp_matrix(d1, 1.0, 1e-14)
        rhs[n1:, n1:] = pwp_matrix(d2, 1.0, 1e-14)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_column_stochastic_preserved():
    rng = np.random.default_rng(103)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        d = rng.uniform(0, 1, (n, n))
        d /= d.sum(axis=0, keepdims=True)
        assert is_column_stochastic(pwp_matrix(d, 1.0, 1e-14), 1e-10)


def _commuting_pair(rng):
    d1 = _random_square(rng)
    n = d1.shape[0]
    nrm = max(1.0, float(np.abs(d1).sum(axis=1).max()))
    coeffs = rng.uniform(-0.5, 0.5, 4)
    d2 = coeffs[0] * np.eye(n)
    acc = np.eye(n)
    for m in range(1, 4):
        acc = acc @ d1
        d2 += coeffs[m] * acc / nrm**m
    return d1, d2


def test_commuting_sum_identity_polynomial():
    rng = np.random.default_rng(104)
    for _ in range(50):
        d1, d2 = _commuting_pair(rng)
        lhs = pwp_matrix(d1 + d2, 1.0, 1e-14)
        t1 = pwp_matrix(d1, 1.0, 1e-14)
        t2 = pwp_matrix(d2, 1.0, 1e-14)
        rhs = math.expm1(1.0) * t1 @ t2 + t1 + t2
        assert np.abs(lhs - rhs).max() < 1e-9


def test_commuting_sum_identity_scalar():
    rng = np.random.default_rng(105)
    for _ in range(20):
        d1 = _random_square(rng)
        d2 = float(rng.uniform(-0.8, 0.8)) * np.eye(d1.shape[0])
        lhs = pwp_matrix(d1 + d2, 1.0, 1e-14)
        t1 = pwp_matrix(d1, 1.0, 1e-14)
        t2 = pwp_matrix(d2, 1.0, 1e-14)
        rhs = math.expm1(1.0) * t1 @ t2 + t1 + t2
        assert np.abs(lhs - rhs).max() < 1e-9
