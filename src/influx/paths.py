"""Brute-force walk valuations; the checking side for all three methods.

A path of length k is a sequence of k edges with matching endpoints;
vertices and edges may repeat.  P_k(i, j) is the set of all such paths from
j to i, mirroring the (row, column) order of matrix entries.

Literal enumeration visits every path and is capped by a budget (default
10**7 paths, overridable via the INFLUX_BUDGET environment variable or a
`budget` argument).  Past the cap, omega_sum and omega_lambda_sum switch to
a memoized sum over the same walk set (adjacency-list recursion, no dense
kernels), and rho_sum falls back to powers of the damped matrix, which it
provably equals.  Pass literal=True to force enumeration and get
BudgetExceeded instead of a fallback.
"""

import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, IndexOutOfRange
from .graph import DirectInfluenceGraph, Edge, to_matrix
from .linalg import mat_pow
from .methods import pagerank_repair
from .stochastic import _log_expm1

DEFAULT_BUDGET = 10_000_000
_AUTO_LITERAL_CAP = 100_000


def _budget(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("INFLUX_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class Path:
    """A walk through the graph, stored as its edge sequence."""

    edges: tuple[Edge, ...]

    def __post_init__(self):
        if len(self.edges) < 1:
            raise ValueError("a path has at least one edge")
        for a, b in zip(self.edges, self.edges[1:]):
            if a.target != b.source:
                raise ValueError(f"edges {a} and {b} do not chain")

    @property
    def source(self) -> int:
        return self.edges[0].source

    @property
    def target(self) -> int:
        return self.edges[-1].target

    @property
    def length(self) -> int:
        return len(self.edges)

    def weight_product(self) -> float:
        w = 1.0
        for e in self.edges:
            w *= e.weight
        return w


def _check_walk(g: DirectInfluenceGraph, i: int, j: int, k: int):
    for v in (i, j):
        if not 1 <= v <= g.n:
            raise IndexOutOfRange(v, g.n)
    if k < 1:
        raise ValueError(f"path length must be >= 1, got {k}")


def _refuse_over_budget(total: int, cap: int):
    if total > cap:
        warnings.warn(f"refusing to enumerate {total} paths (budget {cap})")
        raise BudgetExceeded(total, cap)


def _adjacency(g: DirectInfluenceGraph) -> list[list[Edge]]:
    adj: list[list[Edge]] = [[] for _ in range(g.n + 1)]
    for e in g.edges:
        adj[e.source].append(e)
    for lst in adj:
        lst.sort(key=lambda e: e.target)
    return adj


def _walk_table(g: DirectInfluenceGraph, i: int, k: int, factor) -> list[list]:
    """table[m][v] = sum over length-m walks from v to i of the product of
    factor(edge) along the walk; exact ints when factor returns ints."""
    adj = _adjacency(g)
    row = [0] * (g.n + 1)
    row[i] = 1
    table = [row]
    for _ in range(k):
        prev = table[-1]
        cur = [0] * (g.n + 1)
        for v in range(1, g.n + 1):
            cur[v] = sum(factor(e) * prev[e.target] for e in adj[v])
        table.append(cur)
    return table


def _one(e: Edge) -> int:
    return 1


def _weight(e: Edge) -> float:
    return e.weight


def count_paths(g: DirectInfluenceGraph, i: int, j: int, k: int) -> int:
    """Exact number of length-k paths from j to i."""
    _check_walk(g, i, j, k)
    return _walk_table(g, i, k, _one)[k][j]


def enumerate_paths(
    g: DirectInfluenceGraph, i: int, j: int, k: int, budget: int | None = None
) -> list[Path]:
    """All length-k paths from j to i, in depth-first lexicographic edge order.

    Refuses with BudgetExceeded (after a warning) when the exact path count
    is larger than the budget.
    """
    _check_walk(g, i, j, k)
    cap = _budget(budget)
    counts = _walk_table(g, i, k, _one)
    total = counts[k][j]
    _refuse_over_budget(total, cap)
    adj = _adjacency(g)
    out: list[Path] = []
    acc: list[Edge] = []

    def walk(v: int, remaining: int):
        if remaining == 0:
            out.append(Path(tuple(acc)))
            return
        for e in adj[v]:
            if counts[remaining - 1][e.target]:
                acc.append(e)
                walk(e.target, remaining - 1)
                acc.pop()

    if total:
        walk(j, k)
    return out


def _literal_omega(adj, v: int, target: int, remaining: int) -> float:
    if remaining == 0:
        return 1.0 if v == target else 0.0
    total = 0.0
    for e in adj[v]:
        total += e.weight * _literal_omega(adj, e.target, target, remaining - 1)
    return total


def omega_sum(
    g: DirectInfluenceGraph,
    i: int,
    j: int,
    k: int,
    budget: int | None = None,
    literal: bool | None = None,
) -> float:
    """Sum over all length-k paths from j to i of the edge-weight product.

    Equals the (i, j) entry of the k-th matrix power, but is computed on the
    graph itself: literally edge by edge when the path count is small, and by
    memoized recursion over the identical walk set otherwise.
    """
    _check_walk(g, i, j, k)
    if literal is not False:
        total = count_paths(g, i, j, k)
        cap = _budget(budget)
        if literal:
            _refuse_over_budget(total, cap)
        if literal or total <= min(cap, _AUTO_LITERAL_CAP):
            return _literal_omega(_adjacency(g), j, i, k)
    return float(_walk_table(g, i, k, _weight)[k][j])


def damped_matrix(g: DirectInfluenceGraph, p: float) -> np.ndarray:
    """p * repaired(D) + (1 - p) * E_n for the graph's direct matrix D."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    dbar = pagerank_repair(to_matrix(g))
    n = g.n
    return p * dbar + (1.0 - p) / n


def rho_sum(
    g: DirectInfluenceGraph,
    i: int,
    j: int,
    k: int,
    p: float = 0.86,
    budget: int | None = None,
    literal: bool | None = None,
) -> float:
    """Sum of damped-entry products over all length-k vertex sequences j -> i.

    The damped matrix has no zero entries, so the walks live in the complete
    graph on [n] and there are n**(k-1) of them.  Literal enumeration is used
    up to the budget; beyond it the value is read off the k-th power of the
    damped matrix, which equals the same sum.
    """
    _check_walk(g, i, j, k)
    m = damped_matrix(g, p)
    n = g.n
    total = n ** (k - 1)
    cap = _budget(budget)
    if literal is None:
        literal = total <= min(cap, _AUTO_LITERAL_CAP)
    if not literal:
        return float(mat_pow(m, k)[i - 1, j - 1])
    _refuse_over_budget(total, cap)
    acc = 0.0
    for mid in itertools.product(range(n), repeat=k - 1):
        seq = (j - 1, *mid, i - 1)
        w = 1.0
        for a, b in zip(seq, seq[1:]):
            w *= m[b, a]
        acc += w
    return acc


def omega_lambda_sum(
    g: DirectInfluenceGraph,
    i: int,
    j: int,
    lam: float,
    K: int,
    budget: int | None = None,
    literal: bool = False,
) -> float:
    """Truncated exponential walk weighting: sum over k <= K of
    omega_sum(g, i, j, k) * lam^k / (e_plus(lam) * k!).

    With literal=True every omega_sum term is enumerated path by path
    (budget applies); the default evaluates the same sums by recursion.
    Use :func:`omega_lambda_tail_bound` for the discarded k > K mass.
    """
    _check_walk(g, i, j, K)
    if not (lam > 0):
        raise ValueError(f"lam must be > 0, got {lam}")
    scale = math.expm1(lam)
    if literal:
        sums = [omega_sum(g, i, j, k, budget=budget, literal=True) for k in range(1, K + 1)]
    else:
        table = _walk_table(g, i, K, _weight)
        sums = [table[k][j] for k in range(1, K + 1)]
    coef = 1.0
    terms = []
    for k in range(1, K + 1):
        coef *= lam / k
        terms.append(sums[k - 1] * coef / scale)
    return math.fsum(terms)


def omega_lambda_tail_bound(g: DirectInfluenceGraph, lam: float, K: int) -> float:
    """Geometric bound on the k > K tail of omega_lambda_sum, any (i, j).

    Uses |omega_sum(k)| <= ||D||_inf^k, the same rule that truncates the
    dense exponential series.
    """
    if K < 1:
        raise ValueError(f"truncation length must be >= 1, got {K}")
    d = to_matrix(g)
    norm = float(np.abs(d).sum(axis=1).max()) if d.size else 0.0
    x = lam * norm
    if x == 0.0:
        return 0.0
    r = x / (K + 1)
    if r >= 1.0:
        return math.inf
    log_u = K * math.log(x) - math.lgamma(K + 1) - _log_expm1(lam)
    return math.exp(log_u) * r / (1.0 - r)
