"""Seeded synthetic inputs for the benchmark workloads.

Every input is drawn from a Philox 4x64 generator keyed by the workload
seed, so one seed always yields the same edge-list bytes.  The program under
test only ever sees the written files.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import check


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class EdgeList:
    """A directed graph as 1-based (src, dst, weight) columns."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    def text(self) -> str:
        return "".join(
            f"{s},{t},{w!r}\n"
            for s, t, w in zip(self.src.tolist(), self.dst.tolist(), self.w.tolist())
        )

    def dense(self) -> np.ndarray:
        """D with the weight of edge j -> i at row i, column j."""
        d = np.zeros((self.n, self.n))
        d[self.dst - 1, self.src - 1] = self.w
        return d


def _targets(rng, n: int, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct, non-self targets for each source: row v has degrees[v-1] of them."""
    src, dst = [], []
    for v, k in enumerate(degrees.tolist(), 1):
        if k == 0:
            continue
        t = rng.choice(n - 1, size=k, replace=False) + 1
        t[t >= v] += 1  # skip the self-loop
        t.sort()
        src.append(np.full(k, v))
        dst.append(t)
    return np.concatenate(src), np.concatenate(dst)


def sparse_graph(rng, n: int, mean_degree: float = 5.0, max_weight: float = 0.4) -> EdgeList:
    """Poisson(mean_degree) out-degrees, uniform targets, weights U(0, max_weight]."""
    degrees = np.minimum(rng.poisson(mean_degree, n), n - 1)
    degrees[-1] = max(degrees[-1], 1)  # vertex n must appear so the parsed n is exact
    src, dst = _targets(rng, n, degrees)
    w = max_weight * (1.0 - rng.random(src.size))
    return EdgeList(n, src, dst, w)


@dataclass(frozen=True)
class Workload:
    """One kind of CLI invocation on one kind of generated graph."""

    name: str
    why: str
    graph: Callable[[np.random.Generator], EdgeList]
    argv: Callable[[str, int], list[str]]  # (edge-list path, seed) -> CLI arguments
    checker: Callable[[EdgeList, int], check.Checker]  # (graph, seed) -> checker


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-mid",
            "all three engines plus six O(n^2) Kendall taus on n=600: the only user of "
            "rank agreement, so trading one engine against another shows",
            lambda rng: sparse_graph(rng, 600),
            lambda path, seed: ["compare", path],
            lambda g, seed: check.compare_checker(g),
        ),
        Workload(
            "montecarlo-long",
            "montecarlo lambda=4, N=1e5 on n=600: the only user of stochastic; linalg "
            "runs as one mat_pow per distinct sampled length",
            lambda rng: sparse_graph(rng, 600),
            lambda path, seed: ["montecarlo", "--lambda", "4", "-N", "100000", "--seed", str(seed), path],
            lambda g, seed: check.montecarlo_checker(g, lam=4.0, samples=100_000, seed=seed),
        ),
    )
}
