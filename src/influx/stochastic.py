"""The walk-length law behind the exponential weighting, its moments, a
seeded Monte Carlo estimator of the influence matrix, and the Bernoulli
series for the single-edge influence.

The length law is the zero-truncated Poisson distribution
p(k) = lam^k / (e_plus(lam) * k!) for k >= 1.  Drawing a length K from p and
averaging D^K over many draws converges to the exponential walk-weighting
matrix, which is exactly what monte_carlo_pwp does.

Randomness comes from the Philox 4x64 counter-based generator (10 rounds,
as implemented by numpy) keyed by the caller's seed, so every estimate is
reproducible from (seed, sample count) alone and substreams can be split
off by key without overlap.
"""

# annotations stay unevaluated, so importing this module does not load numpy.random
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NumericOverflow
from .linalg import _dense, _positive, _poisson_weight, mat_pow_sum

TWO_PI = 2.0 * math.pi

# numpy's Generator.poisson refuses a mean above this (its POISSON_LAM_MAX)
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox 4x64 generator; the package's one source of randomness."""
    return np.random.Generator(np.random.Philox(key=seed))


def pmf(lam: float, k: int) -> float:
    """Probability of walk length k: lam^k / (e_plus(lam) * k!).

    The distribution has no mass at 0, so k = 0 is a DomainError.  Large k,
    and any lam or k whose direct form over- or underflows, is evaluated in
    log space; these are the weights the pwp series sums.
    """
    _positive("lam", lam)
    if k < 1:
        raise DomainError(f"length distribution has no mass at k = {k}")
    return math.ldexp(*_poisson_weight(lam, k, normalised=True))


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float

    @property
    def second_moment(self) -> float:
        """variance + mean^2; NumericOverflow above lam ~ 1.3e154."""
        second = self.mean * self.mean + self.variance
        if not math.isfinite(second):
            raise NumericOverflow("second moment of the length law")
        return second


def _expm1_minus_x_over_x2(lam: float) -> float:
    """(e^lam - 1 - lam) / lam^2 = sum_{k>=2} lam^(k-2) / k! for 0 < lam < 1,
    summed until a term no longer changes the sum."""
    total, term, k = 0.0, 0.5, 2
    while total + term != total:
        total += term
        k += 1
        term *= lam / k
    return total


def moments(lam: float) -> MomentSummary:
    """Closed-form mean, second moment, and variance of the length law.

    mean      = lam e^lam / (e^lam - 1)
    EX^2      = (lam^2 + lam) e^lam / (e^lam - 1)
    variance  = mean (e^lam - 1 - lam) / (e^lam - 1)

    The mean is scaled by e^-lam so it does not overflow.
    The variance's factor is summed as a series below lam = 1, where
    e^lam - 1 - lam cancels, and evaluated as
    (1 - (1 + lam) e^-lam) / (1 - e^-lam) from there on.
    """
    _positive("lam", lam)
    em = -math.expm1(-lam)  # 1 - e^{-lam}
    mean = lam / em
    if lam < 1.0:
        share = lam * _expm1_minus_x_over_x2(lam) * (lam / math.expm1(lam))
    else:
        share = (1.0 - (1.0 + lam) * math.exp(-lam)) / em
    return MomentSummary(mean=mean, variance=mean * share)


def chebyshev_bound(lam: float, c: float) -> float:
    """Chebyshev bound min(1, VX / c^2) on P(|X - EX| >= c)."""
    if not (c > 0):
        raise ValueError(f"c must be > 0, got {c}")
    return min(1.0, moments(lam).variance / (c * c))


def sample_length(lam: float, rng: np.random.Generator) -> int:
    """One draw from the length law (see :func:`sample_lengths`)."""
    return int(sample_lengths(lam, 1, rng)[0])


def sample_lengths(lam: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws from the length law; all entries are >= 1.

    Exact at every lam, with no redrawing: the first arrival T of a unit-rate
    Poisson process, given that it lands in (0, lam], is
    -log1p(U (e^-lam - 1)) for U uniform on [0, 1), and the number of
    further arrivals in (T, lam] is Poisson(lam - T), so
    K = 1 + Poisson(lam - T) is zero-truncated Poisson(lam).  Computed in
    place, in one float and one integer array of `size`.
    """
    _positive("lam", lam)
    if lam > POISSON_LAM_MAX:
        raise ValueError(f"lam must be <= {POISSON_LAM_MAX!r} to sample lengths, got {lam!r}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    rest = rng.random(size)  # then lam - T, in place
    np.add(lam, np.log1p(np.multiply(rest, math.expm1(-lam), out=rest), out=rest), out=rest)
    # rounding may put the first arrival a hair past lam
    lengths = rng.poisson(np.maximum(rest, 0.0, out=rest))
    lengths += 1
    return lengths


def _frequencies(lengths) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sampled lengths, ascending, and the share of each."""
    lengths = np.asarray(lengths)
    if lengths.size == 0:
        raise ValueError("need at least one sampled length")
    values, counts = np.unique(lengths, return_counts=True)
    return values, counts / lengths.size


def estimate_from_lengths(d, lengths) -> np.ndarray:
    """Average of d^k over the given integer walk lengths; each distinct power
    is formed once, from the previous one (:func:`mat_pow_sum`)."""
    return mat_pow_sum(d, *_frequencies(lengths))


def estimate_and_exact(d, lam: float, lengths, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """:func:`estimate_from_lengths` and the exact pwp matrix
    (:func:`influx.linalg.pwp_matrix`) from one pass over the powers of d:
    each D^k is formed once, for both its probability pmf(lam, k) and its
    sampled frequency.  The pass runs to the longer of the series and the
    longest sampled length.  The estimate equals estimate_from_lengths' bit
    for bit when the lengths run consecutively from 1, and to rounding
    otherwise.
    """
    values, shares = _frequencies(lengths)
    if not np.issubdtype(values.dtype, np.integer) or values[0] < 1:
        raise ValueError(f"sampled lengths must be integers >= 1, got {values[0]!r}")
    exact, estimate, _ = _dense(d, lam, tol, normalised=True, sampled=zip(values.tolist(), shares.tolist()))
    return estimate, exact


def monte_carlo_pwp(d, lam: float, samples: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of the exponential walk-weighting matrix.

    Draws `samples` lengths from the length law with a Philox generator
    keyed by `seed` and averages the corresponding matrix powers.
    Deterministic for a fixed (seed, samples) pair.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    lengths = sample_lengths(lam, samples, make_rng(seed))
    return estimate_from_lengths(d, lengths)


def bernoulli_numbers(K: int) -> list[Fraction]:
    """B_0 .. B_K as exact rationals (convention B_1 = -1/2).

    Recurrence: sum_{j=0}^{k} C(k+1, j) B_j = 0 with B_0 = 1.
    """
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    numbers = [Fraction(1)]
    for m in range(1, K + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * numbers[j]
        numbers.append(-acc / (m + 1))
    return numbers


def bernoulli_series(lam: float, K: int) -> float:
    """Partial sum sum_{k<=K} B_k lam^k / k! of the series for lam/(e^lam - 1).

    Converges only for 0 < lam < 2*pi; anything outside is a DomainError.
    """
    if not (0.0 < lam < TWO_PI):
        raise DomainError(f"series converges only for 0 < lam < 2*pi, got {lam}")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    numbers = bernoulli_numbers(K)
    # each term is formed as one exact rational before rounding: B_k alone
    # overflows a float long before B_k lam^k / k! does
    lam_exact = Fraction(lam)
    terms = []
    coef = Fraction(1)  # lam^k / k!
    for k, b in enumerate(numbers):
        if k:
            coef = coef * lam_exact / k
        terms.append(float(b * coef))
    return math.fsum(terms)
