"""An exact oracle for the exponential series, its tail bound and its rounding.

Every float is a dyadic rational, so fractions.Fraction takes d, lam and an
engine's answer exactly.  The partial sum S_K = sum_{k<=K} lam^k/k! d^k is
then exact, in integers over one common denominator, and so is e^lam - 1's
partial sum P_K.  Both remainders are bounded in rationals by the geometric
rule on N = max(||d||_inf, ||d||_1), which bounds every entry of d^k, of
d^k 1 and of 1 d^k by N^k:

    sum_{k>K} x^k/k! <= x^(K+1)/(K+1)! / (1 - x/(K+2))   for x < K + 2.

So for a nonnegative d the exact answer of exp_plus, exp_plus_vectors,
pwp_matrix_report and pwp lies in an interval of rationals that shares no
code and no floating point with the engines.  Each answer must lie within
its own report's tail bound, plus the rounding of a sum of K_e nonnegative
terms, of that interval: C K_e eps max|T| for the engine's K_e terms.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from influx import exp_plus, exp_plus_vectors, pwp, pwp_matrix_report

EPS = Fraction(2) ** -52

# Each power d^k of a nonnegative d is off by about k n eps of itself after
# its k - 1 products of length n <= 6, and the sum of K_e terms by K_e eps
# of its largest entry: within (n + 1) K_e eps max|T| in all.
C = 7

# Terms summed past the engine's, so the exact remainder is negligible
# against every bound above.
EXTRA_TERMS = 40


def _geometric_tail(x: Fraction, K: int) -> Fraction:
    """An upper bound on sum_{k>K} x^k / k! for 0 <= x < K + 2."""
    assert x < K + 2
    return x ** (K + 1) / math.factorial(K + 1) / (1 - x / (K + 2))


def exact_series(d: np.ndarray, lam: float, K: int):
    """(S, rho, P, rho_e) in exact rationals: S = sum_{k=1..K} lam^k/k! d^k
    as a list of rows, rho a bound on each entry of the remainder past S and
    of its row and column sums, P = sum_{k=1..K} lam^k/k! and rho_e a bound
    on e^lam - 1 - P.  K is raised to 6 lam N where it is below, so that
    the geometric rule holds with a ratio of at most 1/6."""
    rows = [[Fraction(x) for x in row] for row in d.tolist()]
    norm = max((sum(map(abs, line)) for line in (*rows, *zip(*rows))), default=Fraction(0))
    K = max(K, math.ceil(6 * Fraction(lam) * norm))
    den = max((x.denominator for row in rows for x in row), default=1)  # a power of two
    m = [[int(x * den) for x in row] for row in rows]
    unit = Fraction(lam) / den  # term k is unit^k / k! m^k
    # over the common denominator unit.denominator^K K!, term k's weight is
    # the integer unit.numerator^k unit.denominator^(K-k) K!/k!
    top, bottom = unit.numerator, unit.denominator
    total = [[0] * len(m) for _ in m]
    power = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    fall = math.factorial(K)  # K!/k!
    for k in range(1, K + 1):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in power]
        fall //= k
        weight = top**k * bottom ** (K - k) * fall
        total = [[t + weight * p for t, p in zip(trow, prow)] for trow, prow in zip(total, power)]
    scale = bottom**K * math.factorial(K)
    s = [[Fraction(t, scale) for t in row] for row in total]
    lam = Fraction(lam)
    p = sum(lam**k / math.factorial(k) for k in range(1, K + 1))
    return s, _geometric_tail(lam * norm, K), p, _geometric_tail(lam, K)


def _off(got, lo, hi) -> Fraction:
    """The largest distance, exactly, of got's entries from the intervals
    [lo, hi], all three flattened alike."""
    return max((max(a - Fraction(x), Fraction(x) - b, Fraction(0))
                for x, a, b in zip(np.ravel(got).tolist(), lo, hi)), default=Fraction(0))


def _assert_within(what, got, lo, hi, report):
    allowed = Fraction(report.tail_bound) + C * report.terms_used * EPS * max(hi, default=0)
    off = _off(got, lo, hi)
    assert off <= allowed, f"{what}: off by {float(off):.3e}, allowed {float(allowed):.3e}"


@st.composite
def _nonnegative(draw):
    """Nonnegative n x n matrices, n <= 6, with ||d||_inf and ||d||_1 at
    most 1.5: each entry 0 or in [2^-20, 1.5 / n], so the exact powers'
    common denominator stays small."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(2.0**-20, 1.5 / n))
    return np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)


@settings(max_examples=60)  # about 2.3 s on a 2-vCPU host
@given(_nonnegative(), st.floats(2.0**-10, 30.0), st.sampled_from([1e-2, 1e-6, 1e-12]))
def test_series_lie_within_their_bound_of_the_exact_sum(d, lam, tol):
    x, x_report = exp_plus(d, lam, tol)
    rows, cols, v_report = exp_plus_vectors(d, lam, tol)
    t, t_report = pwp_matrix_report(d, lam, tol)
    result = pwp(d, lam, tol)
    terms = (x_report, v_report, t_report, result.diagnostics)
    s, rho, p, rho_e = exact_series(d, lam, max(r.terms_used for r in terms) + EXTRA_TERMS)
    flat = [v for row in s for v in row]
    row_sums, col_sums = [sum(row) for row in s], [sum(col) for col in zip(*s)]
    _assert_within("exp_plus", x, flat, [v + rho for v in flat], x_report)
    _assert_within("exp_plus_vectors rows", rows, row_sums, [v + rho for v in row_sums], v_report)
    _assert_within("exp_plus_vectors cols", cols, col_sums, [v + rho for v in col_sums], v_report)
    # T = S / (e^lam - 1), every entry >= 0, between its two extremes
    _assert_within("pwp_matrix_report", t, [v / (p + rho_e) for v in flat], [(v + rho) / p for v in flat],
                   t_report)
    for what, got, sums in (("pwp d", result.vectors.d, row_sums), ("pwp f", result.vectors.f, col_sums)):
        _assert_within(what, got, [v / (p + rho_e) for v in sums], [(v + rho) / p for v in sums],
                       result.diagnostics)
