"""The three indirect-influence engines and the shared vector extraction.

Every method produces a square matrix T of indirect influences.  Row sums of
T give the dependence vector d (how much each vertex is acted on), column
sums give the influence vector f (how much each vertex acts), and vertices
are ranked by those scores.  Each engine takes a dense matrix, and then
forms T and sums it, or an Operator, and then takes d and f from
matrix-vector products and leaves T None.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotSubstochastic
from .linalg import (
    Operator,
    SeriesReport,
    _at_least,
    _finite,
    _operator,
    _positive,
    _square,
    _vectors,
    mat_pow,
    pwp_matrix_report,
)

SUBSTOCHASTIC_TOL = 1e-9


def _damping(p: float) -> None:
    """The damping factor's check: strictly inside (0, 1)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")


@dataclass(frozen=True)
class InfluenceVectors:
    """Dependence (row-sum) and influence (column-sum) vectors of a matrix T."""

    d: np.ndarray
    f: np.ndarray


@dataclass(frozen=True)
class IndirectInfluenceResult:
    """A computed indirect-influence matrix with its vectors and diagnostics.

    For the damped stationary method, `stationary` holds the probability
    vector with sum 1 (the per-vertex ranking weight); `vectors.d` holds the
    row sums of T, which equal n times the stationary vector.  T is None
    exactly when the engine was given an Operator, and only the vectors
    were computed.
    """

    T: np.ndarray | None
    vectors: InfluenceVectors
    diagnostics: SeriesReport | int | None = None
    stationary: np.ndarray | None = field(default=None)


def influence_dependence(t) -> InfluenceVectors:
    """Row sums -> dependence d, column sums -> influence f."""
    t = _square(t)
    with np.errstate(over="ignore"):
        d, f = t.sum(axis=1), t.sum(axis=0)
    return InfluenceVectors(d=d, f=_finite("a row or column sum", d, f))


def micmac(d, k: int = 4) -> IndirectInfluenceResult:
    """Fixed-power method: T = d^k for a small natural number k.

    On an :class:`Operator`, d and f come from k matrix-vector products
    each and T is None.
    """
    _at_least("k", k, 1)
    if not isinstance(d, Operator):
        t = mat_pow(d, k)
        return IndirectInfluenceResult(T=t, vectors=influence_dependence(t))
    rows = cols = np.ones(d.n)
    for _ in range(k):
        # at each step: the edge columns' next product drops an inf that no stored entry reads
        rows, cols = d.matvec(rows), d.rmatvec(cols)
        _finite(f"a row or column sum of matrix power {k}", rows, cols)
    return IndirectInfluenceResult(T=None, vectors=InfluenceVectors(rows, cols))


def pwp(d, lam: float = 1.0, tol: float = 1e-12) -> IndirectInfluenceResult:
    """Exponential walk-weighting method: T = e_plus(lam*d) / e_plus(lam).

    On an :class:`Operator`, d and f come from matrix-vector series, each
    accurate to tol in max norm, T is None, and the diagnostics describe
    the two vector series (see :func:`influx.linalg.exp_plus_vectors`).
    """
    if isinstance(d, Operator):
        sums, _, _, report = _vectors(d, lam, tol, normalised=True)
        t, vectors = None, InfluenceVectors(*sums)
    else:
        t, report = pwp_matrix_report(d, lam, tol)
        vectors = influence_dependence(t)
    return IndirectInfluenceResult(T=t, vectors=vectors, diagnostics=report)


def _empty_columns(op: Operator) -> np.ndarray:
    """Which columns of op sum to 0 (within 1e-9), after checking that op
    is entrywise nonnegative with each column summing to 0 or 1."""
    totals, low = op.column_stats()
    negative = low < -SUBSTOCHASTIC_TOL
    empty = np.abs(totals) <= SUBSTOCHASTIC_TOL
    bad = negative | (~empty & (np.abs(totals - 1.0) > SUBSTOCHASTIC_TOL))
    if bad.any():
        j = int(bad.argmax())  # the first bad column, reported by its negative entry if any
        raise NotSubstochastic(j + 1, float(low[j] if negative[j] else totals[j]))
    return empty


def pagerank_repair(d) -> np.ndarray:
    """Replace every all-zero column by the uniform column 1/n.

    The input must be entrywise nonnegative with each column summing to 0 or
    1 (within 1e-9); the result is column stochastic.  Column indices in
    error messages are 1-based.
    """
    op = Operator.dense(d)
    repaired = op._array().copy()
    repaired[:, _empty_columns(op)] = 1.0 / max(1, op.n)  # max: an empty d has no columns
    return repaired


def pagerank(
    d,
    p: float = 0.86,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> IndirectInfluenceResult:
    """Damped stationary-distribution method.

    The stationary vector of M = p * repaired(d) + (1 - p) * E_n, with E_n
    the uniform matrix, by the power iteration x <- M x from the uniform
    vector until the successive l1 change drops below tol.
    Each step takes one product by d, folding in the mass on d's all-zero
    columns (Langville & Meyer, Google's PageRank and Beyond, 2006), so M
    is never formed: x <- p (d x + (sum of x on those columns) / n) + (1 - p) / n.
    T has the stationary vector in every column, so the influence vector is
    all ones and the row sums equal n times the stationary probabilities.
    d is a matrix, and then T is formed, or an :class:`Operator`, such as
    :func:`influx.graph.web_operator`'s, and then T is None.

    Raises NoConvergence after max_iter iterations, and NotSubstochastic if
    a column of d sums to neither 0 nor 1.
    """
    _damping(p)
    _positive("tol", tol)
    _at_least("max_iter", max_iter, 1)
    op = _operator(d)
    empty = _empty_columns(op)
    n = op.n
    if n == 0:
        raise DimensionMismatch("cannot rank an empty matrix")
    x = np.full(n, 1.0 / n)
    live = ~empty  # the entries of an all-zero column within 1e-9 count as zeros
    iterations = 0
    err = np.inf
    for iterations in range(1, max_iter + 1):
        x_new = op.matvec(x * live)
        x_new += x[empty].sum() / n
        x_new *= p
        x_new += (1.0 - p) / n
        err = float(np.abs(x_new - x).sum())
        x = x_new
        if err < tol:
            break
    else:
        raise NoConvergence(max_iter, err, tol)
    stationary = x / x.sum()
    t = None if isinstance(d, Operator) else np.tile(stationary[:, None], (1, n))
    vectors = InfluenceVectors(d=n * stationary, f=np.ones(n))
    return IndirectInfluenceResult(T=t, vectors=vectors, diagnostics=iterations, stationary=stationary)


def rank_vertices(v) -> list[tuple[int, float]]:
    """Vertices ordered by descending score; ties break by ascending index.
    A nan score is a ValueError; an infinite one ranks."""
    v = np.asarray(v, dtype=float)
    if np.isnan(v).any():
        raise ValueError("scores must not be nan")
    order = np.lexsort((-v,))  # stable, so tied vertices keep ascending index
    return list(zip((order + 1).tolist(), v[order].tolist()))
