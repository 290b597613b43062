"""Length law, moments, tail bound, sampling, and the Bernoulli series."""

import decimal
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from influx import (
    DimensionMismatch,
    DomainError,
    NumericOverflow,
    Operator,
    bernoulli_numbers,
    bernoulli_series,
    build,
    chebyshev_bound,
    estimate_and_exact,
    estimate_and_exact_vectors,
    estimate_from_lengths,
    format_edge_list,
    Line,
    make_rng,
    moments,
    monte_carlo_pwp,
    parse_edge_list,
    pmf,
    mat_pow,
    pwp,
    pwp_matrix,
    sample_lengths,
    to_matrix,
    to_operator,
)
from influx.cli import main
from influx.linalg import _poisson_weight, _sliced_ell
import influx.stochastic
from influx.stochastic import _BLOCK, POISSON_LAM_MAX, _blocks, _tally


# -- pmf -------------------------------------------------------------------------

def test_pmf_first_value():
    assert pmf(1.0, 1) == pytest.approx(1.0 / math.expm1(1.0), abs=1e-16)


def test_pmf_where_e_lambda_overflows():
    # e^800 - 1 leaves the float range; the log-space form does not
    assert pmf(800.0, 3) == 0.0
    assert pmf(800.0, 170) == pytest.approx(
        math.exp(170 * math.log(800.0) - math.lgamma(171) - 800.0), rel=1e-12
    )
    assert math.fsum(pmf(800.0, k) for k in range(1, 2_000)) == pytest.approx(1.0, abs=1e-12)


def test_pmf_at_tiny_lambda():
    # lam^2 underflows, but lam / (e^lam - 1) * lam / 2! does not
    assert pmf(1e-200, 2) == 1e-200 / 2


def test_pmf_where_e_lambda_times_k_factorial_overflows():
    # (e^400 - 1) k! leaves the float range from k = 89 on, lam^k from k = 119
    with decimal.localcontext(decimal.Context(prec=60)):
        x = decimal.Decimal(400)
        for k in (89, 100, 118):
            expected = float(x**k / (math.factorial(k) * (x.exp() - 1)))
            assert pmf(400.0, k) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_pmf_direct_form_first(lam):
    for k in range(1, 80):
        assert pmf(lam, k) == lam**k / (math.expm1(lam) * math.factorial(k))


def test_pmf_no_mass_at_zero():
    with pytest.raises(DomainError):
        pmf(1.0, 0)
    with pytest.raises(DomainError):
        pmf(1.0, -3)


@pytest.mark.parametrize("lam", [0.3, 1.0, 4.5])
def test_pmf_is_rescaled_poisson(lam):
    ratio = math.exp(lam) / math.expm1(lam)
    for k in (1, 2, 5, 11):
        poisson = math.exp(-lam) * lam**k / math.factorial(k)
        assert pmf(lam, k) == pytest.approx(poisson * ratio, rel=1e-13)


def test_pmf_normalizes():
    total = math.fsum(pmf(1.0, k) for k in range(1, 61))
    assert abs(total - 1.0) <= 1e-15


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0, 20.0])
def test_pmf_partial_sums_meet_tail_rule(lam):
    # number of terms predicted by the geometric tail rule used everywhere
    K = 1
    while True:
        r = lam / (K + 1)
        if r < 1.0 and pmf(lam, K) * r / (1.0 - r) < 1e-13:
            break
        K += 1
    total = math.fsum(pmf(lam, k) for k in range(1, K + 1))
    assert total >= 1.0 - 1e-12


def test_pmf_log_space_consistent_with_direct():
    # k above 170 flips to log space; values must join up smoothly
    lam = 3.0
    direct = pmf(lam, 170)
    stepped = pmf(lam, 171)
    assert stepped < direct
    assert stepped == pytest.approx(direct * lam / 171.0, rel=1e-10)


def _log_weight_reference(lam, k, normalised):
    mpmath = pytest.importorskip("mpmath")
    # k log lam and log k! cancel: keep 40 digits past their size
    with mpmath.workdps(40 + max(0, int(math.log10(lam)))):
        lam, k = mpmath.mpf(lam), mpmath.mpf(k)
        log_w = k * mpmath.log(lam) - mpmath.loggamma(k + 1)
        return float(log_w - mpmath.log(mpmath.expm1(lam)) if normalised else log_w)


@pytest.mark.parametrize(
    "lam, k, normalised",
    [(lam, int(lam), True) for lam in (200.0, 1e6, 1e12, 1e16, 1e20)]
    + [(lam, int(lam + 3 * math.sqrt(lam)), True) for lam in (200.0, 700.0, 1e3, 1e6, 1e12)]
    + [(lam, int(lam / 2), True) for lam in (700.0, 1e3, 1e6, 1e12)]
    # x / lam overflows at the subnormal lam
    + [(1e300, 3, True), (1e-200, 3, True), (5e-324, 200, True)]
    + [(200.0, 250, False), (1e6, 10**6, False), (1e300, 2, False), (1e-200, 3, False)],
)
def test_pmf_log_space_matches_mpmath(lam, k, normalised):
    # the weight as (m, e), whose log is finite where pmf itself underflows
    m, e = _poisson_weight(lam, k, normalised)
    log_w = math.log(m) + e * math.log(2.0)
    reference = _log_weight_reference(lam, k, normalised)
    assert abs(log_w - reference) <= 1e-12 * max(1.0, abs(reference))


def test_pmf_at_k_past_the_float_range():
    assert pmf(1.0, 10**400) == 0.0
    # k is a float here, but the log of its weight is not
    assert pmf(1.0, 10**308) == 0.0
    assert _poisson_weight(1.0, 10**308, False) == (0.0, 0)
    # at the mode, about 1 / sqrt(2 pi lam)
    assert pmf(1e300, 10**300) == pytest.approx(1.0 / math.sqrt(2e300 * math.pi), rel=1e-12)


# -- moments -----------------------------------------------------------------------

def test_moments_closed_forms_at_one():
    m = moments(1.0)
    e = math.e
    assert m.mean == pytest.approx(e / (e - 1.0), abs=1e-15)
    assert m.second_moment == pytest.approx(2.0 * e / (e - 1.0), abs=1e-14)
    assert m.variance == pytest.approx(
        (e * e - 2.0 * e) / (e - 1.0) ** 2, abs=1e-14
    )


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
def test_variance_identity(lam):
    m = moments(lam)
    assert m.variance == pytest.approx(m.second_moment - m.mean**2, abs=1e-12)


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
def test_moments_match_series_summation(lam):
    mean = math.fsum(k * pmf(lam, k) for k in range(1, 400))
    second = math.fsum(k * k * pmf(lam, k) for k in range(1, 400))
    m = moments(lam)
    assert m.mean == pytest.approx(mean, abs=1e-10)
    assert m.second_moment == pytest.approx(second, abs=1e-10)


def test_large_lambda_mean_approaches_lambda():
    assert 0.999 < moments(20.0).mean / 20.0 < 1.001


def _decimal_variance(lam: float) -> float:
    """mean (e^lam - 1 - lam) / (e^lam - 1) in 1 000 digits, enough to resolve
    e^lam - 1 - lam ~ lam^2 / 2 next to 1 at lam = 1e-300."""
    with decimal.localcontext(decimal.Context(prec=1_000)):
        x = decimal.Decimal(lam)
        eplus = x.exp() - 1
        return float(x * (eplus + 1) / eplus * (eplus - x) / eplus)


@pytest.mark.parametrize("lam", [1e-300, 1e-8, 1e-5, 0.5, 1.0, 4.0, 30.0, 700.0])
def test_variance_matches_decimal(lam):
    # e^lam - 1 - lam cancels for small lam, and (e^lam - 1)^2 underflows at 1e-300
    assert moments(lam).variance == pytest.approx(_decimal_variance(lam), rel=1e-12, abs=0.0)


def test_huge_lambda_variance_is_lambda():
    m = moments(1e200)
    assert m.mean == 1e200
    assert math.isfinite(m.variance) and m.variance == pytest.approx(1e200, rel=1e-15)


@pytest.mark.parametrize("lam", [1e160, 1e200])
def test_huge_lambda_second_moment_overflow_is_typed(lam):
    # EX^2 ~ lam^2 leaves the float range; the mean, the variance and the
    # Chebyshev bound built on it do not
    m = moments(lam)
    with pytest.raises(NumericOverflow, match="second moment"):
        m.second_moment
    assert m.mean == lam
    assert chebyshev_bound(lam, lam) == pytest.approx(1.0 / lam, rel=1e-15)


# -- Chebyshev ------------------------------------------------------------------------

def test_chebyshev_at_one_sigma_is_one():
    for lam in (0.5, 1.0, 2.0):
        c = math.sqrt(moments(lam).variance)
        assert chebyshev_bound(lam, c) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
def test_chebyshev_rejects_a_non_positive_distance(c):
    with pytest.raises(ValueError, match="c must be > 0"):
        chebyshev_bound(1.0, c)


def test_chebyshev_value():
    assert chebyshev_bound(1.0, 3.0) == pytest.approx(moments(1.0).variance / 9.0, abs=1e-15)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
def test_chebyshev_dominates_exact_tail(lam, c):
    mean = moments(lam).mean
    tail = math.fsum(
        pmf(lam, k) for k in range(1, 300) if abs(k - mean) >= c
    )
    assert tail <= chebyshev_bound(lam, c) + 1e-15


@pytest.mark.parametrize("lam", [1e-8, 1e-5])
def test_chebyshev_stays_honest_at_small_lambda(lam):
    tail = math.fsum(pmf(lam, k) for k in range(2, 30))  # |k - mean| >= 0.5 for k >= 2
    assert 0.0 < tail <= chebyshev_bound(lam, 0.5)


# -- sampling --------------------------------------------------------------------------

def test_single_draws_support():
    rng = make_rng(123)
    assert all(sample_lengths(0.2, 1, rng)[0] >= 1 for _ in range(2000))


def test_sample_lengths_deterministic_for_seed():
    a = sample_lengths(1.0, 1000, make_rng(7))
    b = sample_lengths(1.0, 1000, make_rng(7))
    assert np.array_equal(a, b)
    c = sample_lengths(1.0, 1000, make_rng(8))
    assert not np.array_equal(a, c)


def test_sample_mean_matches_closed_form():
    n = 1_000_000
    ks = sample_lengths(1.0, n, make_rng(99))
    m = moments(1.0)
    assert abs(ks.mean() - m.mean) <= 3.0 * math.sqrt(m.variance / n)


def test_sample_pmf_at_one():
    n = 1_000_000
    ks = sample_lengths(1.0, n, make_rng(17))
    assert np.mean(ks == 1) == pytest.approx(1.0 / math.expm1(1.0), abs=0.002)


@pytest.mark.parametrize("lam", [1e-4, 0.3, 4.0, 30.0])
def test_sample_lengths_follow_the_length_law(lam):
    n = 200_000
    values, counts = np.unique(sample_lengths(lam, n, make_rng(5)), return_counts=True)
    assert values[0] >= 1
    for k, c in zip(values.tolist(), counts.tolist()):
        p = pmf(lam, k)
        assert abs(c - n * p) <= 5.0 * math.sqrt(n * p) + 1.0


def test_sample_lengths_at_tiny_lambda_draw_no_zeros():
    # nearly every Poisson(1e-300) draw is 0, so zeros must not be redrawn
    ks = sample_lengths(1e-300, 100_000, make_rng(0))
    assert ks.dtype.kind == "i" and np.array_equal(ks, np.ones(100_000, dtype=ks.dtype))


def _sample_lengths_by_expression(lam, size, rng):
    """The draws of sample_lengths as one expression, with a new array per
    operation: the reference for its in-place form."""
    first = -np.log1p(rng.random(size) * math.expm1(-lam))
    return 1 + rng.poisson(np.maximum(lam - first, 0.0))


def _state(rng) -> str:
    """rng's bit-generator state as text, its arrays as lists, so that two
    states compare."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@pytest.mark.parametrize("lam", [1e-300, 0.5, 4.0, 700.0, 1e6, 1e12])
def test_sample_lengths_in_place_are_the_expressions_draws(lam):
    # the sizes cross the block boundaries: none, one block short of full,
    # full, one over, and three and a part
    for size in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        for seed in (0, 1, 7, 2**40 + 3):
            oracle = make_rng(seed)
            want = _sample_lengths_by_expression(lam, size, oracle)
            rng = make_rng(seed)
            got = sample_lengths(lam, size, rng)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert _state(rng) == _state(oracle)
            if not size:
                continue
            rng = make_rng(seed)
            tally = _tally(_blocks(lam, size, rng))
            assert _state(rng) == _state(oracle)
            values, counts = np.unique(want, return_counts=True)
            assert tally.sampled == list(zip(values.tolist(), (counts / size).tolist()))
            assert (tally.size, tally.total) == (size, sum(want.tolist()))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_does_not_grow_with_samples(tmp_path):
    # the lengths are drawn a block at a time and only their counts kept:
    # holding 2 000 000 of them would take 16 MB at least
    path = tmp_path / "line3.csv"
    path.write_text(format_edge_list(build(Line(3))))
    d = to_matrix(build(Line(3)))
    runs = {
        "cli": lambda n: main(["montecarlo", str(path), "-N", str(n), "-o", str(tmp_path / "r.json")]),
        "library": lambda n: monte_carlo_pwp(d, 1.0, n, seed=0),
    }
    for route, run in runs.items():
        run(20_000)  # loads what the first run imports, outside the measurement
        small, large = (_traced_peak(lambda: run(n)) for n in (20_000, 2_000_000))
        assert large - small <= 2**20, route


# -- Monte Carlo estimator ----------------------------------------------------------------

def test_monte_carlo_line3():
    d = to_matrix(build(Line(3)))
    estimate = monte_carlo_pwp(d, 1.0, 100_000, seed=0)
    assert np.abs(estimate - pwp_matrix(d, 1.0)).max() < 0.01


def test_monte_carlo_identity_is_exact():
    estimate = monte_carlo_pwp(np.eye(3), 1.0, 50, seed=5)
    assert np.array_equal(estimate, np.eye(3))


def test_monte_carlo_single_draw():
    d = to_matrix(build(Line(4)))
    k1 = int(sample_lengths(1.0, 1, make_rng(11))[0])
    estimate = monte_carlo_pwp(d, 1.0, 1, seed=11)
    expected = np.linalg.matrix_power(d, k1)
    assert np.array_equal(estimate, expected)


def test_monte_carlo_rejects_zero_samples():
    with pytest.raises(ValueError):
        monte_carlo_pwp(np.eye(2), 1.0, 0, seed=0)


def test_monte_carlo_checks_d_before_sampling(monkeypatch):
    # a bad matrix is refused at once however many lengths were asked for,
    # as test_montecarlo_checks_tol_before_sampling pins for the command
    def refuse(*args):
        raise AssertionError("sampled before checking d")

    monkeypatch.setattr(influx.stochastic, "_blocks", refuse)
    with pytest.raises(DimensionMismatch):
        monte_carlo_pwp(np.ones((2, 3)), 1.0, 10**7, 0)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        monte_carlo_pwp(np.array([[np.nan]]), 1.0, 10**7, 0)


@pytest.mark.parametrize("edges", [
    "1,2,0.5\n2,3,0.25\n3,1,1.5\n",  # few nonzeros a row: the sliced-ELL step
    "".join(f"{i},{j},{0.1 * i + 0.01 * j}\n" for i in range(1, 5) for j in range(1, 5)),  # np.matmul
], ids=["sliced-ELL", "np.matmul"])
def test_monte_carlo_estimators_take_an_operator(edges):
    g = parse_edge_list(edges)
    matrix, operator = to_matrix(g), to_operator(g)
    assert (_sliced_ell(matrix) is None) == (g.n == 4)
    for lengths in ([1, 2, 2, 5], [0, 3, 3, 9]):
        assert np.array_equal(estimate_from_lengths(operator, lengths), estimate_from_lengths(matrix, lengths))
    assert np.array_equal(monte_carlo_pwp(operator, 4.0, 5000, 3), monte_carlo_pwp(matrix, 4.0, 5000, 3))


@st.composite
def _matrix_and_lengths(draw):
    n = draw(st.integers(1, 5))
    entries = draw(st.lists(st.floats(-1, 1), min_size=n * n, max_size=n * n))
    lengths = draw(st.lists(st.integers(0, 20), min_size=1, max_size=40))
    return np.array(entries).reshape(n, n) / n, lengths


_SPARSE = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, -0.75], [0.25, 0.0, 0.0]])  # the sliced-ELL step
_FULL = np.random.default_rng(5).uniform(-0.25, 0.25, (5, 5))  # the np.matmul step


@given(_matrix_and_lengths())
@example((_SPARSE, [3, 5, 5]))  # the shortest length above 1
@example((_FULL, [4, 4, 6]))
@example((_SPARSE, [0, 2, 2]))  # a length of 0
@example((_FULL, [0, 1]))
@example((_SPARSE, [1, 7, 20, 20]))  # gaps between the lengths
@example((_FULL, [2, 9, 17]))
def test_estimate_from_lengths_matches_matrix_power_average(case):
    # the oracle shares no code with the power chain
    d, lengths = case
    values, counts = np.unique(lengths, return_counts=True)
    weights = counts / len(lengths)
    want = sum(w * np.linalg.matrix_power(d, int(k)) for k, w in zip(values, weights))
    # rounding in a product of k factors is at most ~k n eps times |d|^k
    scale = sum(w * np.linalg.matrix_power(np.abs(d), int(k)) for k, w in zip(values, weights))
    rows, cols = np.nonzero(d)
    for form in (d, Operator(d.shape[0], rows, cols, d[rows, cols])):
        assert np.all(np.abs(estimate_from_lengths(form, lengths) - want) <= 1e-12 * scale)


def test_estimate_from_lengths_empty_matrix():
    assert estimate_from_lengths(np.zeros((0, 0)), [1, 3, 3]).shape == (0, 0)


@pytest.mark.parametrize("lengths", [[], [1.5], [1.7, 1.2], [True], [-1, 2], [True, 2], [2, False],
                                     [2**63], [1, 2**64], np.array([2**63], dtype=np.uint64)])
def test_estimate_from_lengths_rejects_empty_or_non_integer_lengths(lengths):
    with pytest.raises(ValueError):
        estimate_from_lengths(to_matrix(build(Line(4))), lengths)


@pytest.mark.parametrize("lengths, got", [
    ([0, 1], "0"), ([True], "True"), ([1.0], "1.0"), ([Fraction(3, 2)], "Fraction(3, 2)"),
    ([True, 2], "True"), ([2, np.True_], "True"),  # numpy's common type of these is int64
])
def test_sampled_length_errors_print_the_plain_value(lengths, got):
    # the value as Python prints it, as every other check does, not numpy's
    # repr np.int64(0), np.True_ or np.float64(1.0)
    for call in (estimate_and_exact, estimate_and_exact_vectors):
        with pytest.raises(ValueError) as info:
            call(np.eye(2), 1.0, lengths)
        assert str(info.value) == f"sampled lengths must be integers >= 1, got {got}"


def test_estimate_from_lengths_overflow_is_typed():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow):
            estimate_from_lengths(np.array([[0.0, 1e200], [1e200, 0.0]]), [1, 2, 3])


@given(_matrix_and_lengths())
def test_estimate_and_exact_is_both_kernels_in_one_pass(case):
    d, lengths = case
    lengths = [k + 1 for k in lengths]  # the length law has no mass at 0
    estimate, exact = estimate_and_exact(d, 1.5, lengths)
    assert np.array_equal(exact, pwp_matrix(d, 1.5))
    # where the shortest length is above 1, estimate_from_lengths forms its
    # first power by squaring, so the two round differently
    values, counts = np.unique(lengths, return_counts=True)
    if values[0] == 1:
        assert np.array_equal(estimate, estimate_from_lengths(d, lengths))
    scale = sum(w * np.linalg.matrix_power(np.abs(d), int(k)) for k, w in zip(values, counts / len(lengths)))
    assert np.all(np.abs(estimate - estimate_from_lengths(d, lengths)) <= 2e-12 * scale)


@pytest.mark.parametrize("lam, samples, seed", [(2.0, 5000, 3), (4.0, 100_000, 0)],
                         ids=["consecutive", "with-a-gap"])
def test_estimate_and_exact_from_length_1_is_bit_for_bit(poisson_matrix, lam, samples, seed):
    # np.matmul steps at n = 6, the sliced-ELL step at n = 400; both routes
    # start at d and reach every later power by the step, gaps included
    lengths = sample_lengths(lam, samples, make_rng(seed))
    values = np.unique(lengths)
    assert values[0] == 1 and (np.diff(values) > 1).any() == (lam == 4.0)
    for d in (np.random.default_rng(21).uniform(0, 0.3, (6, 6)), poisson_matrix(400, 21)):
        assert (_sliced_ell(d) is None) == (d.shape[0] == 6)
        estimate, exact = estimate_and_exact(d, lam, lengths)
        assert np.array_equal(estimate, estimate_from_lengths(d, lengths))
        assert np.array_equal(exact, pwp_matrix(d, lam))


def test_estimate_and_exact_reaches_lengths_past_the_series():
    d = np.random.default_rng(22).uniform(0, 0.3, (4, 4))
    estimate, _ = estimate_and_exact(d, 0.5, [1, 40, 40, 90])
    want = (d + 2 * np.linalg.matrix_power(d, 40) + np.linalg.matrix_power(d, 90)) / 4
    assert np.allclose(estimate, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("lengths", [[], [0, 1], [1.5], [True, 2]])
def test_estimate_and_exact_rejects_lengths_outside_the_law(lengths):
    with pytest.raises(ValueError):
        estimate_and_exact(np.eye(2), 1.0, lengths)
    with pytest.raises(ValueError):
        estimate_and_exact_vectors(np.eye(2), 1.0, lengths)


@given(_matrix_and_lengths())
def test_estimate_and_exact_vectors_are_the_sample_moments_of_the_powers(case):
    d, lengths = case
    lengths = [k + 1 for k in lengths]  # the length law has no mass at 0
    estimate, exact, sigma = estimate_and_exact_vectors(d, 1.5, lengths)
    assert estimate.shape == exact.shape == sigma.shape == (2, d.shape[0])
    vectors = pwp(Operator.dense(d), 1.5).vectors
    assert np.array_equal(exact[0], vectors.d) and np.array_equal(exact[1], vectors.f)
    # the reference: each sample's row and column sums, averaged, and their
    # population variance, against the scale |d|^k gives their rounding
    ones = np.ones(d.shape[0])
    samples = np.array([[mat_pow(d, k) @ ones, ones @ mat_pow(d, k)] for k in lengths])
    scale = np.array([[mat_pow(np.abs(d), k) @ ones, ones @ mat_pow(np.abs(d), k)] for k in lengths])
    mean, second = scale.mean(axis=0), (scale**2).mean(axis=0)
    assert np.all(np.abs(estimate - samples.mean(axis=0)) <= 1e-12 * mean + 1e-300)
    assert np.all(np.abs(sigma**2 * len(lengths) - samples.var(axis=0)) <= 1e-12 * second + 1e-300)
    t = estimate_and_exact(d, 1.5, lengths)[0]
    assert np.all(np.abs(estimate - [t.sum(axis=1), t.sum(axis=0)]) <= 1e-12 * mean + 1e-300)


@pytest.mark.parametrize("v, seed", [(1.0, 1), (0.1, 2), (3.0, 1)])
def test_estimate_and_exact_vectors_has_no_error_bar_where_every_sample_agrees(v, seed):
    # row 0's sum over walks of k steps along 0 <- 1 <- ... <- 7 is v up to
    # k = 7 and 0 beyond, where none of the 2000 lengths reach but the
    # series does; on these seeds, rounding in m2 - m1^2 alone would give
    # a standard error of 3e-11 to 9e-10 and a z-score of 500 to 670
    d = np.diag(np.ones(7), 1)
    d[0, 1] = v
    lengths = sample_lengths(0.5, 2000, make_rng(seed))
    assert lengths.max() < 8 and len(set(lengths.tolist())) > 3
    estimate, exact, sigma = estimate_and_exact_vectors(d, 0.5, lengths)
    assert estimate[0, 0] == pytest.approx(v, rel=1e-15) and exact[0, 0] < v * (1 - 1e-8)
    assert sigma[0, 0] == 0.0


def test_estimate_and_exact_vectors_squares_overflow_is_typed():
    # d 1 = 1e160 is sampled, and its square leaves the float range; the
    # exact series, at this lambda, does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow, match="squared"):
            estimate_and_exact_vectors(np.array([[1e160]]), 1e-200, [1])


def test_sample_lengths_reject_lambda_past_the_poisson_sampler():
    # numpy's own refusal ("lam value too large") names no parameter
    with pytest.raises(ValueError, match="lam must be <= "):
        sample_lengths(1e19, 5, make_rng(0))
    assert sample_lengths(POISSON_LAM_MAX, 2, make_rng(0)).min() >= 1


def test_monte_carlo_error_scales_with_samples():
    # averaging 20 seeds, mean max-entry error over 20 groups should drop
    # roughly like 1/sqrt(10) when samples grow tenfold
    d = to_matrix(build(Line(3)))
    exact = pwp_matrix(d, 1.0)

    def avg_err(samples, base_seed):
        acc = np.zeros_like(d)
        for s in range(20):
            acc += monte_carlo_pwp(d, 1.0, samples, base_seed + s)
        return np.abs(acc / 20 - exact).max()

    small = np.mean([avg_err(2_000, 10_000 + 100 * g) for g in range(20)])
    big = np.mean([avg_err(20_000, 50_000 + 100 * g) for g in range(20)])
    assert 0.15 <= big / small <= 0.45


def test_single_edge_influence_limits():
    d = to_matrix(build(Line(2)))
    assert pwp_matrix(d, 1e-6)[1, 0] >= 0.9999
    assert pwp_matrix(d, 50.0)[1, 0] <= 1e-18


def test_line_ratio_between_consecutive_offsets():
    lam = 1.7
    t = pwp_matrix(to_matrix(build(Line(6))), lam)
    for j in range(1, 5):
        for s in range(1, 6 - j):
            ratio = t[j + s, j - 1] / t[j + s - 1, j - 1]
            assert ratio == pytest.approx(lam / (s + 1), rel=1e-12)


# -- Bernoulli series -----------------------------------------------------------------------

def test_bernoulli_first_values():
    b = bernoulli_numbers(6)
    assert len(b) == 7  # B_0 .. B_6
    assert bernoulli_numbers(0) == [1]
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[5] == 0
    assert b[6] == Fraction(1, 42)


def test_bernoulli_series_sums_to_single_edge_influence():
    target = 1.0 / math.expm1(1.0)
    assert bernoulli_series(1.0, 20) == pytest.approx(target, abs=1e-12)
    d = to_matrix(build(Line(2)))
    assert bernoulli_series(1.0, 20) == pytest.approx(
        pwp_matrix(d, 1.0)[1, 0], abs=1e-12
    )


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_bernoulli_series_various_lambda(lam):
    # convergence slows near the 2*pi radius, so keep lam comfortably inside
    assert bernoulli_series(lam, 40) == pytest.approx(
        lam / math.expm1(lam), abs=1e-10
    )


def test_bernoulli_series_domain():
    with pytest.raises(DomainError):
        bernoulli_series(2.0 * math.pi, 10)
    with pytest.raises(DomainError):
        bernoulli_series(7.0, 10)
    with pytest.raises(DomainError):
        bernoulli_series(0.0, 10)
    with pytest.raises(DomainError):
        bernoulli_series(-1.0, 10)
