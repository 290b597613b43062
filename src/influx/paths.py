"""Brute-force walk valuations; the checking side for all three methods.

A path of length k is a sequence of k edges with matching endpoints;
vertices and edges may repeat.  P_k(i, j) is the set of all such paths from
j to i, mirroring the (row, column) order of matrix entries.

By default omega_sum and omega_lambda_sum are memoized sums over the walk
set (adjacency-list recursion, no dense kernels), and rho_sum is read off a
power of the damped matrix, which it provably equals.  enumerate_paths, and
the valuations given literal=True, go path by path instead.  The paths are
counted first and enumeration refuses with BudgetExceeded when there are
more than `budget` (default 10**7); it then follows only edges from which i
is still reachable in the steps left, so it visits only the paths it
counted.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, IndexOutOfRange
from .graph import DirectInfluenceGraph, Edge, to_matrix
from .linalg import _at_least, _expm1, _log_expm1, _positive, mat_pow
from .methods import pagerank_repair

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
        return w


def _check_walk(g: DirectInfluenceGraph, i: int, j: int, k: int):
    for v in (i, j):
        if not 1 <= v <= g.n:
            raise IndexOutOfRange(v, g.n)
    _at_least("path length", k, 1)


def _refuse_over_budget(total: int, cap: int):
    if total > cap:
        warnings.warn(f"refusing to enumerate {total} paths (budget {cap})")
        raise BudgetExceeded(total, cap)


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


def _paths(g: DirectInfluenceGraph, i: int, j: int, lengths, budget: int) -> list:
    """For each k in lengths, a generator of the length-k paths from j to i
    in depth-first lexicographic edge order.

    One table of walk counts to i serves every k.  Each count is checked
    against the budget before any path is visited, and a walk follows an
    edge only if i is reachable from its target in the steps left.
    """
    adj = _adjacency(g)
    counts = _walk_table(adj, i, max(lengths), _one)
    for k in lengths:
        _refuse_over_budget(counts[k][j], budget)

    def walk(k: int):
        # a stack of edge iterators, one per step taken, in place of
        # recursion, so a walk of any length runs
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
                yield Path((*acc, e))

    return [walk(k) for k in lengths]


def _literal_sums(g: DirectInfluenceGraph, i: int, j: int, lengths, budget: int) -> list[float]:
    """omega_sum for each k in lengths, summed path by path."""
    walks = _paths(g, i, j, lengths, budget)
    return [math.fsum(p.weight_product() for p in paths) for paths in walks]


def enumerate_paths(
    g: DirectInfluenceGraph, i: int, j: int, k: int, budget: int = DEFAULT_BUDGET
) -> list[Path]:
    """All length-k paths from j to i, in depth-first lexicographic edge order.

    Refuses with BudgetExceeded (after a warning) when the exact path count
    is larger than the budget.
    """
    _check_walk(g, i, j, k)
    return list(_paths(g, i, j, [k], budget)[0])


def omega_sum(
    g: DirectInfluenceGraph,
    i: int,
    j: int,
    k: int,
    budget: int = DEFAULT_BUDGET,
    literal: bool = False,
) -> float:
    """Sum over all length-k paths from j to i of the edge-weight product.

    Equals the (i, j) entry of the k-th matrix power, but is computed on the
    graph itself: by memoized recursion over the walk set, or with
    literal=True path by path (budget applies).
    """
    _check_walk(g, i, j, k)
    if literal:
        return _literal_sums(g, i, j, [k], budget)[0]
    return float(_walk_table(_adjacency(g), i, k, _weight)[k][j])


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
    budget: int = DEFAULT_BUDGET,
    literal: bool = False,
) -> float:
    """Sum of damped-entry products over all length-k vertex sequences j -> i.

    The damped matrix has no zero entries, so the walks live in the complete
    graph on [n] and there are n**(k-1) of them.  The value is read off the
    k-th power of the damped matrix, which equals the same sum; with
    literal=True the sequences are enumerated instead (budget applies).
    """
    _check_walk(g, i, j, k)
    m = damped_matrix(g, p)
    if not literal:
        return float(mat_pow(m, k)[i - 1, j - 1])
    n = g.n
    _refuse_over_budget(n ** (k - 1), budget)
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
    budget: int = DEFAULT_BUDGET,
    literal: bool = False,
) -> float:
    """Truncated exponential walk weighting: sum over k <= K of
    omega_sum(g, i, j, k) * lam^k / (e_plus(lam) * k!).

    With literal=True every omega_sum term is enumerated path by path
    (budget applies to each); the default evaluates the same sums by
    recursion.  Use :func:`omega_lambda_tail_bound` for the discarded k > K
    mass.
    """
    _check_walk(g, i, j, K)
    _positive("lam", lam)
    scale = _expm1(lam)
    if literal:
        sums = _literal_sums(g, i, j, range(1, K + 1), budget)
    else:
        table = _walk_table(_adjacency(g), i, K, _weight)
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
    _positive("lam", lam)
    _at_least("truncation length", K, 1)
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
