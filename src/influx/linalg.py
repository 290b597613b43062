"""Dense real-matrix kernels: product, integer power, and the constant-free
exponential series that defines the exponential walk-weighting method.

e_plus(x) = e^x - 1 = sum_{k>=1} x^k / k!  is summed directly term by term
rather than as expm(x) - I, which would cancel catastrophically for small
arguments.  Truncation is controlled by a rigorous geometric tail bound.
The row and column sums of e_plus(x) and of integer powers, which are all
the rankings need, come from matrix-vector products without forming the
matrix (the action of the matrix function, Al-Mohy & Higham, SIAM J. Sci.
Comput. 33(2), 2011).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergenceWithinBudget, NumericOverflow

MAX_SERIES_TERMS = 10_000


@dataclass(frozen=True)
class SeriesReport:
    """Truncation accounting for one series evaluation.

    tail_bound is a rigorous upper bound, in max-absolute-entry norm, on
    everything the truncation discarded.
    """

    terms_used: int
    tail_bound: float


def _square(a) -> np.ndarray:
    """The package's one matrix check: 2-D, square and finite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _positive(name: str, value: float) -> None:
    """The package's one scalar parameter check: finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _at_least(name: str, value, least: int) -> None:
    """The package's one integer parameter check: an integer (numpy's too,
    but not a bool) that is >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _product(a, b, what: str) -> np.ndarray:
    """a @ b, raising NumericOverflow instead of returning inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = a @ b
    if not np.isfinite(c).all():
        raise NumericOverflow(what)
    return c


def mat_mul(a, b) -> np.ndarray:
    """Standard matrix product with an explicit shape check."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def mat_pow(d, k: int) -> np.ndarray:
    """k-th power of a square matrix by repeated squaring; d^0 is the identity.

    Raises NumericOverflow at the first product that leaves the float range.
    """
    d = _square(d)
    _at_least("power", k, 0)
    what = f"matrix power {k}"
    result = None
    base = d
    while k:
        if k & 1:
            # the first factor is copied, not multiplied by the identity;
            # + 0.0 turns -0.0 into +0.0 as that product did
            result = base + 0.0 if result is None else _product(result, base, what)
        k >>= 1
        if k:
            base = _product(base, base, what)
    return np.eye(d.shape[0]) if result is None else result


def mat_pow_sum(d, ks, weights) -> np.ndarray:
    """sum_i weights[i] * d^ks[i] for strictly ascending integer powers ks >= 0.

    One pass over ks: the first power comes from :func:`mat_pow`, and each
    later one is the previous power times d when the powers are consecutive,
    or times d^gap (formed once per distinct gap in a row) when they are not,
    so len(ks) consecutive powers cost len(ks) - 1 products after the first.
    Contributions are added in ascending power.  Raises NumericOverflow at
    the first product, or a sum, that leaves the float range.
    """
    d = _square(d)
    ks = np.asarray(ks)
    weights = np.asarray(weights, dtype=float)
    if ks.ndim != 1 or weights.shape != ks.shape:
        raise ValueError(f"need one weight per power, got shapes {ks.shape} and {weights.shape}")
    if ks.size and not np.issubdtype(ks.dtype, np.integer):
        raise ValueError(f"powers must be integers, got dtype {ks.dtype}")
    if ks.size and ks[0] < 0:
        raise ValueError(f"power must be >= 0, got {ks[0]}")
    if np.any(np.diff(ks) <= 0):
        raise ValueError("powers must be strictly ascending")
    total = None
    at, gap, step = 0, 1, d  # power = d^at once at > 0; step = d^gap
    with np.errstate(over="ignore", invalid="ignore"):
        for k, weight in zip(ks.tolist(), weights.tolist()):
            if at == 0:
                power = mat_pow(d, k)
            else:
                if k - at != gap:
                    gap = k - at
                    step = mat_pow(d, gap)
                power = _product(power, step, f"matrix power {k}")
            at = k
            if total is None:
                total = weight * power
            else:
                total += weight * power
    if total is None:
        return np.zeros(d.shape)
    if not np.isfinite(total).all():
        raise NumericOverflow("weighted sum of matrix powers")
    return total


def mat_pow_vectors(d, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of d^k by k matrix-vector products each.

    Raises NumericOverflow at the first product that leaves the float range.
    """
    d = _square(d)
    _at_least("power", k, 0)
    what = f"a row or column sum of matrix power {k}"
    rows = cols = np.ones(d.shape[0])
    for _ in range(k):
        rows = _product(d, rows, what)
        cols = _product(cols, d, what)
    return rows, cols


def _series(term, step, norm: float, tol: float) -> tuple[np.ndarray, SeriesReport]:
    """The package's one truncated series: term_1 = term and
    term_{k+1} = step(term_k) / (k+1), summed with Neumaier compensation.

    `norm` must bound each step along the series in the max-absolute-entry
    norm: |step(term_k)| <= norm * |term_k|.  After adding term K the loop
    stops once u_K / (1 - r) < tol, where u_K is the max-absolute-entry norm
    of term K and r = norm / (K+1) < 1; the terms beyond K are then bounded
    by the geometric series u_K * r / (1 - r).  Raises
    NoConvergenceWithinBudget if the bound is still above tol after
    MAX_SERIES_TERMS terms, and its subclass NumericOverflow at the first
    term or sum that overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # no other name holds term_1, so each term is freed once replaced
        total = np.zeros_like(term)
        comp = np.zeros_like(term)
        k = 1
        while True:
            u = float(np.abs(term).max(initial=0.0))
            if not math.isfinite(u):
                raise NumericOverflow(f"exponential series term {k}", k - 1, tol)
            t = total + term
            bigger = np.abs(total) >= np.abs(term)
            comp += np.where(bigger, (total - t) + term, (term - t) + total)
            total = t
            if u == 0.0:
                # term K is exactly zero, hence so is every later term
                report = SeriesReport(terms_used=k, tail_bound=0.0)
                break
            r = norm / (k + 1)
            if r < 1.0 and u / (1.0 - r) < tol:
                report = SeriesReport(terms_used=k, tail_bound=u * r / (1.0 - r))
                break
            if k >= MAX_SERIES_TERMS:
                bound = u / (1.0 - r) if r < 1.0 else math.inf
                raise NoConvergenceWithinBudget(k, bound, tol)
            term = step(term) / (k + 1)
            k += 1
        s = total + comp
    if not np.isfinite(s).all():
        raise NumericOverflow("exponential series sum", k, tol)
    return s, report


def _scaled(d, lam: float, tol: float) -> np.ndarray:
    """lam * d after checking d, lam and tol; entries may overflow to inf,
    which the series reports as NumericOverflow at its first term."""
    d = _square(d)
    _positive("lam", lam)
    _positive("tol", tol)
    with np.errstate(over="ignore"):
        return lam * d


def _abs_sums(ld: np.ndarray, axis: int) -> float:
    """Largest absolute row (axis=1) or column (axis=0) sum; 0 when empty."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(ld).sum(axis=axis).max(initial=0.0))


def exp_plus(d, lam: float = 1.0, tol: float = 1e-12) -> tuple[np.ndarray, SeriesReport]:
    """Sum of (lam*d)^k / k! over k >= 1, without the k = 0 identity term.

    Terms follow the recurrence M_{k+1} = M_k (lam d) / (k+1); the series
    stops once its geometric tail bound, with r = lam*||d||_inf / (K+1), is
    below tol in the max-absolute-entry norm.  Each term is a power of
    lam*d, so M_k (lam d) = (lam d) M_k and the row-sum norm bounds a step.
    Raises NoConvergenceWithinBudget if the bound is still above tol after
    MAX_SERIES_TERMS terms, and its subclass NumericOverflow at the first
    term or sum that overflows.
    """
    ld = _scaled(d, lam, tol)
    return _series(ld.copy(), lambda m: m @ ld, _abs_sums(ld, 1), tol)


def exp_plus_vectors(
    d, lam: float = 1.0, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, SeriesReport]:
    """Row and column sums of exp_plus(d, lam) by matrix-vector products.

    The row sums are sum_k (lam d)^k 1 / k!, whose step grows the max norm
    by at most lam*||d||_inf; the column sums are sum_k (lam d^T)^k 1 / k!,
    bounded by lam*||d||_1.  Each series stops once its own tail bound is
    below tol in max norm; the report gives the longer series' term count
    and the larger of the two bounds.  Raises like :func:`exp_plus`.
    """
    ld = _scaled(d, lam, tol)
    ones = np.ones(ld.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        first_rows, first_cols = ld @ ones, ones @ ld
    rows, by_row = _series(first_rows, lambda v: ld @ v, _abs_sums(ld, 1), tol)
    cols, by_col = _series(first_cols, lambda v: v @ ld, _abs_sums(ld, 0), tol)
    report = SeriesReport(
        terms_used=max(by_row.terms_used, by_col.terms_used),
        tail_bound=max(by_row.tail_bound, by_col.tail_bound),
    )
    return rows, cols, report


def _expm1(lam: float) -> float:
    """e^lam - 1, raising NumericOverflow where math.expm1 would raise
    OverflowError."""
    try:
        return math.expm1(lam)
    except OverflowError:
        raise NumericOverflow(f"e^lambda - 1 for lambda = {lam!r}") from None


def pwp_matrix_report(d, lam: float = 1.0, tol: float = 1e-12) -> tuple[np.ndarray, SeriesReport]:
    """Like :func:`pwp_matrix` but also returns the truncation report, which
    describes the series for e_plus(lam*d) before it is divided by
    e_plus(lam)."""
    _positive("lam", lam)
    _positive("tol", tol)
    scale = _expm1(lam)
    s, report = exp_plus(d, lam, tol * scale)
    return s / scale, report


def pwp_matrix(d, lam: float = 1.0, tol: float = 1e-12) -> np.ndarray:
    """Indirect-influence matrix e_plus(lam*d) / e_plus(lam), accurate to tol."""
    return pwp_matrix_report(d, lam, tol)[0]


def pwp_vectors_report(
    d, lam: float = 1.0, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, SeriesReport]:
    """Row and column sums of :func:`pwp_matrix` without forming it, each
    accurate to tol in max norm, with the report of
    :func:`exp_plus_vectors`."""
    _positive("lam", lam)
    _positive("tol", tol)
    scale = _expm1(lam)
    rows, cols, report = exp_plus_vectors(d, lam, tol * scale)
    return rows / scale, cols / scale, report
