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
