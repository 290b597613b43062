"""The three indirect-influence engines and the shared vector extraction.

Every method defines a square matrix T of indirect influences.  Row sums of
T give the dependence vector d (how much each vertex is acted on), column
sums give the influence vector f (how much each vertex acts), and vertices
are ranked by those scores.  Each engine takes a dense matrix or an
Operator, and takes d and f from matrix-vector products on either, without
forming T, so a matrix and Operator.dense of it give the same result bit
for bit.  T itself comes from the matrix kernels: pwp_matrix_report for
pwp, mat_pow for micmac.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NotSubstochastic
from .linalg import (
    Operator,
    SeriesReport,
    _at_least,
    _finite,
    _operator,
    _positive,
    _square,
    _vectors,
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
    """An engine's vectors and diagnostics.

    For the damped stationary method, `stationary` holds the probability
    vector with sum 1 (the per-vertex ranking weight); `vectors.d` holds the
    row sums of T, which equal n times the stationary vector.
    """

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

    d is a matrix or an :class:`Operator`; d and f are the vector chains'
    one sampled power k (see :func:`influx.linalg._chain`): k products a
    side, so the cost is linear in k, equal to the plain products bit for
    bit where none overflows, and finite where only one between does.
    """
    _at_least("k", k, 1)
    _, sums, _, _ = _vectors(d, sampled=[(k, 1.0)])
    return IndirectInfluenceResult(vectors=InfluenceVectors(*sums))


def pwp(d, lam: float = 1.0, tol: float = 1e-12) -> IndirectInfluenceResult:
    """Exponential walk-weighting method: T = e_plus(lam*d) / e_plus(lam).

    d is a matrix or an :class:`Operator`; d and f come from matrix-vector
    series, each truncated to within tol in max norm, and the diagnostics
    describe the two vector series (see
    :func:`influx.linalg.exp_plus_vectors`).
    """
    sums, _, _, report = _vectors(d, lam, tol, normalised=True)
    return IndirectInfluenceResult(vectors=InfluenceVectors(*sums), diagnostics=report)


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
    d is a matrix or an :class:`Operator`, such as
    :func:`influx.graph.web_operator`'s.

    An empty d (n = 0) gives empty vectors after 0 iterations.  Raises
    NoConvergence after max_iter iterations, and NotSubstochastic if a
    column of d sums to neither 0 nor 1.
    """
    _damping(p)
    _positive("tol", tol)
    _at_least("max_iter", max_iter, 1)
    op = _operator(d)
    empty = _empty_columns(op)
    n = op.n
    if n == 0:
        x = np.zeros(0)
        return IndirectInfluenceResult(vectors=InfluenceVectors(d=x, f=x), diagnostics=0, stationary=x)
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
    vectors = InfluenceVectors(d=n * stationary, f=np.ones(n))
    return IndirectInfluenceResult(vectors=vectors, diagnostics=iterations, stationary=stationary)


def _scores(v) -> np.ndarray:
    """v as a float array of scores, refused unless it is 1-D without a nan."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"scores must be a 1-D array, got shape {v.shape}")
    if np.isnan(v).any():
        raise ValueError("scores must not be nan")
    return v


def _ranking_order(v: np.ndarray) -> np.ndarray:
    """The 0-based indices of the scores v by descending score; ties break
    by ascending index."""
    return np.lexsort((-v,))  # stable, so tied vertices keep ascending index


def rank_vertices(v) -> list[tuple[int, float]]:
    """Vertices ordered by descending score; ties break by ascending index.
    Scores that are not 1-D, or a nan score, are a ValueError; an infinite
    score ranks."""
    v = _scores(v)
    order = _ranking_order(v)
    return list(zip((order + 1).tolist(), v[order].tolist()))
