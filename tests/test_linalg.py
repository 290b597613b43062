"""Dense kernels: product, powers, and the constant-free exponential series.

The block at the end checks the algebraic identities of the exponential
walk weighting on random matrices: transpose commutation, similarity
covariance, direct-sum splitting, preservation of column-stochasticity,
and the commuting-sum product identity.
"""

import math

import numpy as np
import pytest

from influx import (
    DimensionMismatch,
    NoConvergenceWithinBudget,
    NumericOverflow,
    exp_plus,
    influence_dependence,
    is_column_stochastic,
    mat_mul,
    mat_pow,
    pagerank,
    pagerank_repair,
    parse_edge_list,
    pwp_matrix,
    pwp_matrix_report,
    to_matrix,
)

L2 = to_matrix(parse_edge_list("1,2,1"))
L3 = to_matrix(parse_edge_list("1,2,1\n2,3,1"))
C3 = to_matrix(parse_edge_list("1,2,1\n2,3,1\n3,1,1"))


# -- mat_mul / mat_pow --------------------------------------------------------

def test_mat_mul_identity():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (4, 4))
    assert np.array_equal(mat_mul(a, np.eye(4)), a)


def test_mat_mul_l2_squared_is_zero():
    assert np.array_equal(mat_mul(L2, L2), np.zeros((2, 2)))


def test_mat_mul_cycle_cubed_is_identity():
    assert np.array_equal(mat_mul(mat_mul(C3, C3), C3), np.eye(3))


def test_mat_mul_shape_check():
    with pytest.raises(DimensionMismatch):
        mat_mul(np.zeros((2, 3)), np.zeros((2, 3)))


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


def test_exp_plus_diverging_budget():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NoConvergenceWithinBudget):
            exp_plus(np.array([[20_000.0]]), lam=1.0, tol=1e-12)


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
