"""The three indirect-influence engines and the shared vector extraction.

Every method produces a square matrix T of indirect influences.  Row sums of
T give the dependence vector d (how much each vertex is acted on), column
sums give the influence vector f (how much each vertex acts), and vertices
are ranked by those scores.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotSubstochastic, NumericOverflow
from .linalg import SeriesReport, _square, mat_pow, pwp_matrix_report

SUBSTOCHASTIC_TOL = 1e-9


@dataclass(frozen=True)
class PWPConfig:
    lam: float = 1.0
    tol: float = 1e-12

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not (self.tol > 0):
            raise ValueError(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class MicmacConfig:
    k: int = 4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class PageRankConfig:
    p: float = 0.86
    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie strictly inside (0, 1), got {self.p}")
        if not (self.tol > 0):
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


MethodConfig = PWPConfig | MicmacConfig | PageRankConfig


@dataclass(frozen=True)
class InfluenceVectors:
    """Dependence (row-sum) and influence (column-sum) vectors of a matrix T."""

    d: np.ndarray
    f: np.ndarray


@dataclass(frozen=True)
class IndirectInfluenceResult:
    """A computed indirect-influence matrix with its vectors and provenance.

    For the damped stationary method, `stationary` holds the probability
    vector with sum 1 (the per-vertex ranking weight); `vectors.d` holds the
    row sums of T, which equal n times the stationary vector.
    """

    T: np.ndarray
    vectors: InfluenceVectors
    config: MethodConfig
    diagnostics: SeriesReport | int | None = None
    stationary: np.ndarray | None = field(default=None)


def influence_dependence(t) -> InfluenceVectors:
    """Row sums -> dependence d, column sums -> influence f."""
    t = _square(t)
    with np.errstate(over="ignore"):
        d, f = t.sum(axis=1), t.sum(axis=0)
    if not (np.isfinite(d).all() and np.isfinite(f).all()):
        raise NumericOverflow("a row or column sum")
    return InfluenceVectors(d=d, f=f)


def micmac(d, k: int = 4) -> IndirectInfluenceResult:
    """Fixed-power method: T = d^k for a small natural number k."""
    config = MicmacConfig(k=k)
    t = mat_pow(d, k)
    return IndirectInfluenceResult(T=t, vectors=influence_dependence(t), config=config)


def pwp(d, lam: float = 1.0, tol: float = 1e-12) -> IndirectInfluenceResult:
    """Exponential walk-weighting method: T = e_plus(lam*d) / e_plus(lam)."""
    config = PWPConfig(lam=lam, tol=tol)
    t, report = pwp_matrix_report(d, lam, tol)
    return IndirectInfluenceResult(
        T=t, vectors=influence_dependence(t), config=config, diagnostics=report
    )


def pagerank_repair(d) -> np.ndarray:
    """Replace every all-zero column by the uniform column 1/n.

    The input must be entrywise nonnegative with each column summing to 0 or
    1 (within 1e-9); the result is column stochastic.  Column indices in
    error messages are 1-based.
    """
    d = _square(d)
    n = d.shape[0]
    repaired = d.copy()
    for j in range(n):
        col = d[:, j]
        if np.any(col < -SUBSTOCHASTIC_TOL):
            raise NotSubstochastic(j + 1, float(col.min()))
        total = float(col.sum())
        if abs(total) <= SUBSTOCHASTIC_TOL:
            repaired[:, j] = 1.0 / n
        elif abs(total - 1.0) > SUBSTOCHASTIC_TOL:
            raise NotSubstochastic(j + 1, total)
    return repaired


def pagerank(
    d,
    p: float = 0.86,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    start=None,
) -> IndirectInfluenceResult:
    """Damped stationary-distribution method.

    Forms M = p * repaired(d) + (1 - p) * E_n with E_n the uniform matrix,
    then power-iterates x <- M x from the uniform vector (or `start`) until
    the successive l1 change drops below tol.  T has the stationary vector
    in every column, so the influence vector is all ones and the row sums
    equal n times the stationary probabilities.

    Raises NoConvergence after max_iter iterations, NotSubstochastic if a
    column of d sums to neither 0 nor 1.
    """
    config = PageRankConfig(p=p, tol=tol, max_iter=max_iter)
    dbar = pagerank_repair(d)
    n = dbar.shape[0]
    if n == 0:
        raise DimensionMismatch("cannot rank an empty matrix")
    m = p * dbar + (1.0 - p) / n
    if start is None:
        x = np.full(n, 1.0 / n)
    else:
        x = np.asarray(start, dtype=float)
        if x.shape != (n,):
            raise DimensionMismatch(f"start vector must have shape ({n},)")
        if np.any(x < 0) or x.sum() <= 0:
            raise ValueError("start vector must be a nonnegative distribution")
        x = x / x.sum()
    iterations = 0
    err = np.inf
    for iterations in range(1, max_iter + 1):
        x_new = m @ x
        err = float(np.abs(x_new - x).sum())
        x = x_new
        if err < tol:
            break
    else:
        raise NoConvergence(max_iter, err, tol)
    stationary = x / x.sum()
    t = np.tile(stationary[:, None], (1, n))
    return IndirectInfluenceResult(
        T=t,
        vectors=influence_dependence(t),
        config=config,
        diagnostics=iterations,
        stationary=stationary,
    )


def rank_vertices(v) -> list[tuple[int, float]]:
    """Vertices ordered by descending score; ties break by ascending index."""
    v = np.asarray(v, dtype=float)
    return sorted(
        ((i, float(s)) for i, s in enumerate(v, 1)),
        key=lambda pair: (-pair[1], pair[0]),
    )
