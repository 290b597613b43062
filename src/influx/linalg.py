"""Dense real-matrix kernels: product, integer power, and the constant-free
exponential series that defines the exponential walk-weighting method.

e_plus(x) = e^x - 1 = sum_{k>=1} x^k / k!  is summed directly term by term
rather than as expm(x) - I, which would cancel catastrophically for small
arguments.  Truncation is controlled by a rigorous geometric tail bound.
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
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    what = f"matrix power {k}"
    result = np.eye(d.shape[0])
    base = d
    while k:
        if k & 1:
            result = _product(result, base, what)
        k >>= 1
        if k:
            base = _product(base, base, what)
    return result


def exp_plus(d, lam: float = 1.0, tol: float = 1e-12) -> tuple[np.ndarray, SeriesReport]:
    """Sum of (lam*d)^k / k! over k >= 1, without the k = 0 identity term.

    Terms follow the recurrence M_{k+1} = M_k (lam d) / (k+1) and accumulate
    with Neumaier compensation.  After adding term K the loop stops once
    u_K / (1 - r) < tol, where u_K is the max-absolute-entry norm of term K
    and r = lam*||d||_inf / (K+1) < 1; the terms beyond K are then bounded by
    the geometric series u_K * r / (1 - r).  Raises NoConvergenceWithinBudget
    if the bound is still above tol after MAX_SERIES_TERMS terms, and its
    subclass NumericOverflow at the first term or sum that overflows.
    """
    d = _square(d)
    if not (lam > 0):
        raise ValueError(f"lam must be > 0, got {lam}")
    if not (tol > 0):
        raise ValueError(f"tol must be > 0, got {tol}")
    if d.shape[0] == 0:
        return d.copy(), SeriesReport(terms_used=1, tail_bound=0.0)

    with np.errstate(over="ignore", invalid="ignore"):
        ld = lam * d
        norm = float(np.abs(ld).sum(axis=1).max())
        term = ld.copy()
        total = np.zeros_like(ld)
        comp = np.zeros_like(ld)
        k = 1
        while True:
            u = float(np.abs(term).max())
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
            term = term @ ld / (k + 1)
            k += 1
        s = total + comp
    if not np.isfinite(s).all():
        raise NumericOverflow("exponential series sum", k, tol)
    return s, report


def pwp_matrix_report(d, lam: float = 1.0, tol: float = 1e-12) -> tuple[np.ndarray, SeriesReport]:
    """Like :func:`pwp_matrix` but also returns the truncation report."""
    try:
        scale = math.expm1(lam)
    except OverflowError:
        raise NumericOverflow(f"e^lambda - 1 for lambda = {lam!r}") from None
    s, report = exp_plus(d, lam, tol * scale)
    return s / scale, report


def pwp_matrix(d, lam: float = 1.0, tol: float = 1e-12) -> np.ndarray:
    """Indirect-influence matrix e_plus(lam*d) / e_plus(lam), accurate to tol."""
    return pwp_matrix_report(d, lam, tol)[0]
