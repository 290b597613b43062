"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples; no per-example deadline, because a loaded machine
would turn one slow example into a spurious failure; and a modest example
count that keeps the whole suite to seconds.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("influx", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("influx")


@pytest.fixture
def poisson_matrix():
    """poisson_matrix(n, seed, degree=5): an n x n matrix whose entries are
    nonzero with probability degree / n, so about `degree` nonzeros a row,
    with weights drawn from U(0, 0.4)."""

    def make(n, seed, degree=5):
        rng = np.random.default_rng(seed)
        return np.where(rng.random((n, n)) < degree / n, rng.uniform(0, 0.4, (n, n)), 0.0)

    return make


@pytest.fixture(scope="session")
def edge_list():
    """edge_list(n, seed): the text of an n-vertex edge list of about 5 edges
    a vertex, weights from U(0, 0.4], vertex n among the sources; made from
    the edges alone, so no n x n array is formed at any n."""

    def make(n, seed):
        rng = np.random.default_rng(seed)
        pairs = np.unique(np.append(rng.integers(0, n * n, 5 * n), (n - 1) * n))  # source * n + target
        weights = 0.4 * (1.0 - rng.random(pairs.size))
        return "".join(f"{s},{t},{w!r}\n" for s, t, w in zip(
            (pairs // n + 1).tolist(), (pairs % n + 1).tolist(), weights.tolist()))

    return make
