"""Brute-force walk valuations; the checking side for all three methods.

A path of length k is a sequence of k edges with matching endpoints;
vertices and edges may repeat.  P_k(i, j) is the set of all such paths from
j to i, mirroring the (row, column) order of matrix entries.

omega_sum and omega_lambda_sum are memoized sums over the walk set
(adjacency-list recursion, no dense kernels), and rho_sum is read off a
power of the damped matrix, which it provably equals.  enumerate_paths is
the path-by-path route: the paths are counted first and enumeration refuses
with BudgetExceeded when there are more than `budget` (default 10**7); it
then follows only edges from which i is still reachable in the steps left,
so it visits only the paths it counted.  A sum that leaves the float range
raises NumericOverflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, IndexOutOfRange
from .graph import DirectInfluenceGraph, Edge, to_matrix, to_operator
from .linalg import _at_least, _expm1, _finite, _log_poisson, _positive, mat_pow
from .methods import _damping, pagerank_repair

DEFAULT_BUDGET = 10_000_000


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
        return _finite(f"weight product of a path of length {self.length}", w)


def _check_walk(g: DirectInfluenceGraph, i: int, j: int, k: int):
    for name, v in (("i", i), ("j", j)):
        _at_least(name, v, -math.inf)
        if not 1 <= v <= g.n:
            raise IndexOutOfRange(v, g.n)
    _at_least("path length", k, 1)


def _adjacency(g: DirectInfluenceGraph) -> list[list[Edge]]:
    adj: list[list[Edge]] = [[] for _ in range(g.n + 1)]
    for e in g.edges:  # sorted by (source, target), so each list is sorted by target
        adj[e.source].append(e)
    return adj


def _walk_table(adj: list[list[Edge]], i: int, k: int, factor) -> list[list]:
    """table[m][v] = sum over length-m walks from v to i of the product of
    factor(edge) along the walk; exact ints when factor returns ints."""
    row = [0] * len(adj)
    row[i] = 1
    table = [row]
    for _ in range(k):
        prev = table[-1]
        cur = [0] * len(adj)
        for v in range(1, len(adj)):
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
    return _walk_table(_adjacency(g), i, k, _one)[k][j]


def enumerate_paths(
    g: DirectInfluenceGraph, i: int, j: int, k: int, budget: int = DEFAULT_BUDGET
) -> list[Path]:
    """All length-k paths from j to i, in depth-first lexicographic edge order.

    Refuses with BudgetExceeded, before any path is visited, when the exact
    path count is larger than the budget.  A walk follows an edge only if i
    is reachable from its target in the steps left.
    """
    _check_walk(g, i, j, k)
    _at_least("budget", budget, 0)
    adj = _adjacency(g)
    counts = _walk_table(adj, i, k, _one)
    if counts[k][j] > budget:
        raise BudgetExceeded(counts[k][j], budget)
    # a stack of edge iterators, one per step taken, in place of recursion,
    # so a walk of any length runs
    paths: list[Path] = []
    acc: list[Edge] = []
    stack = [iter(adj[j])]
    while stack:
        left = k - len(stack)  # steps after the next edge
        e = next((e for e in stack[-1] if counts[left][e.target]), None)
        if e is None:
            stack.pop()
            del acc[-1:]  # the edge into the exhausted step, if any
        elif left:
            acc.append(e)
            stack.append(iter(adj[e.target]))
        else:
            paths.append(Path((*acc, e)))
    return paths


def omega_sum(g: DirectInfluenceGraph, i: int, j: int, k: int) -> float:
    """Sum over all length-k paths from j to i of the edge-weight product.

    Equals the (i, j) entry of the k-th matrix power, but is computed on the
    graph itself, by memoized recursion over the walk set.
    """
    _check_walk(g, i, j, k)
    value = float(_walk_table(_adjacency(g), i, k, _weight)[k][j])
    return _finite(f"walk sum of length {k}", value)


def damped_matrix(g: DirectInfluenceGraph, p: float) -> np.ndarray:
    """p * repaired(D) + (1 - p) * E_n for the graph's direct matrix D."""
    _damping(p)
    dbar = pagerank_repair(to_matrix(g))
    n = g.n
    return p * dbar + (1.0 - p) / n


def rho_sum(g: DirectInfluenceGraph, i: int, j: int, k: int, p: float = 0.86) -> float:
    """Sum of damped-entry products over all length-k vertex sequences j -> i.

    The damped matrix has no zero entries, so the walks live in the complete
    graph on [n] and there are n**(k-1) of them.  The value is read off the
    k-th power of the damped matrix, which equals the same sum.
    """
    _check_walk(g, i, j, k)
    return float(mat_pow(damped_matrix(g, p), k)[i - 1, j - 1])


def omega_lambda_sum(g: DirectInfluenceGraph, i: int, j: int, lam: float, K: int) -> float:
    """Truncated exponential walk weighting: sum over k <= K of
    omega_sum(g, i, j, k) * lam^k / (e_plus(lam) * k!), every omega_sum
    read off one memoized walk table.  Use :func:`omega_lambda_tail_bound`
    for the discarded k > K mass.
    """
    _check_walk(g, i, j, K)
    _positive("lam", lam)
    scale = _expm1(lam)
    table = _walk_table(_adjacency(g), i, K, _weight)
    coef = lam / scale  # first, so a subnormal lam's lam / k! stays normal
    terms = []
    for k in range(1, K + 1):
        # each weight is at most 1, so a finite sum gives a finite term
        terms.append(_finite(f"walk sum of length {k}", table[k][j]) * coef)
        coef *= lam / (k + 1)
    return math.fsum(terms)


def omega_lambda_tail_bound(g: DirectInfluenceGraph, lam: float, K: int) -> float:
    """Geometric bound on the k > K tail of omega_lambda_sum, any (i, j).

    Uses |omega_sum(k)| <= ||D||_inf^k, the same rule and the same norm,
    taken on the edge columns, that truncate the dense exponential series.
    """
    _positive("lam", lam)
    _at_least("truncation length", K, 1)
    x = lam * to_operator(g).abs_sum(1)
    if x == 0.0:
        return 0.0
    r = x / (K + 1)
    if r >= 1.0:
        return math.inf
    # x^K / (K! (e^lam - 1)) = e^-x x^K / K! * e^(x - lam) / (1 - e^-lam)
    log_u = _log_poisson(float(K), x) + (x - lam) - math.log(-math.expm1(-lam))
    return math.exp(log_u) * r / (1.0 - r)
