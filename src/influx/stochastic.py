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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .linalg import mat_pow

TWO_PI = 2.0 * math.pi


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox 4x64 generator; the package's one source of randomness."""
    return np.random.Generator(np.random.Philox(key=seed))


def _log_expm1(lam: float) -> float:
    if lam > 30.0:
        return lam + math.log1p(-math.exp(-lam))
    return math.log(math.expm1(lam))


def pmf(lam: float, k: int) -> float:
    """Probability of walk length k: lam^k / (e_plus(lam) * k!).

    The distribution has no mass at 0, so k = 0 is a DomainError.  Large k
    is evaluated in log space.
    """
    if not (lam > 0):
        raise ValueError(f"lam must be > 0, got {lam}")
    if k < 1:
        raise DomainError(f"length distribution has no mass at k = {k}")
    if k <= 170:
        num = lam**k
        den = math.expm1(lam) * math.factorial(k)
        if math.isfinite(num) and math.isfinite(den):
            return num / den
    return math.exp(k * math.log(lam) - math.lgamma(k + 1) - _log_expm1(lam))


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    second_moment: float
    variance: float


def moments(lam: float) -> MomentSummary:
    """Closed-form mean, second moment, and variance of the length law.

    mean      = lam e^lam / (e^lam - 1)
    EX^2      = (lam^2 + lam) e^lam / (e^lam - 1)
    variance  = (lam e^{2 lam} - (lam^2 + lam) e^lam) / (e^lam - 1)^2

    evaluated in the overflow-free form obtained by scaling numerator and
    denominator with e^{-2 lam}.
    """
    if not (lam > 0):
        raise ValueError(f"lam must be > 0, got {lam}")
    em = -math.expm1(-lam)  # 1 - e^{-lam}
    mean = lam / em
    second = (lam * lam + lam) / em
    variance = (lam - (lam * lam + lam) * math.exp(-lam)) / (em * em)
    return MomentSummary(mean=mean, second_moment=second, variance=variance)


def chebyshev_bound(lam: float, c: float) -> float:
    """Chebyshev bound min(1, VX / c^2) on P(|X - EX| >= c)."""
    if not (c > 0):
        raise ValueError(f"c must be > 0, got {c}")
    return min(1.0, moments(lam).variance / (c * c))


def sample_length(lam: float, rng: np.random.Generator) -> int:
    """One draw from the length law: Poisson(lam) rejection-resampled on 0."""
    if not (lam > 0):
        raise ValueError(f"lam must be > 0, got {lam}")
    while True:
        k = int(rng.poisson(lam))
        if k >= 1:
            return k


def sample_lengths(lam: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws from the length law; all entries are >= 1."""
    if not (lam > 0):
        raise ValueError(f"lam must be > 0, got {lam}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    ks = rng.poisson(lam, size)
    zero = ks == 0
    while np.any(zero):
        ks[zero] = rng.poisson(lam, int(zero.sum()))
        zero = ks == 0
    return ks


def estimate_from_lengths(d, lengths) -> np.ndarray:
    """Average of d^k over the given walk lengths; each power computed once."""
    lengths = np.asarray(lengths)
    if lengths.size == 0:
        raise ValueError("need at least one sampled length")
    values, counts = np.unique(lengths, return_counts=True)
    total = None
    for k, count in zip(values, counts):
        contribution = (count / lengths.size) * mat_pow(d, int(k))
        total = contribution if total is None else total + contribution
    return total


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
