"""The walk-length law behind the exponential weighting, its moments, a
seeded Monte Carlo estimator of the influence matrix, and the Bernoulli
series for the single-edge influence.

The length law is the zero-truncated Poisson distribution
p(k) = lam^k / (e_plus(lam) * k!) for k >= 1.  Drawing a length K from p and
averaging D^K over many draws converges to the exponential walk-weighting
matrix, which is exactly what monte_carlo_pwp does; averaging D^K 1 and
1 D^K gives its row and column sums, with a standard error for each
(estimate_and_exact_vectors).  These averages need only how many of the N
draws hit each length, so monte_carlo_pwp and the montecarlo command draw
the lengths in blocks of _BLOCK and keep just those counts and the
lengths' exact sum: their memory does not grow with N.

Randomness comes from the Philox 4x64 counter-based generator (10 rounds,
as implemented by numpy) keyed by the caller's seed, so every estimate is
reproducible from (seed, sample count) alone and substreams can be split
off by key without overlap.
"""

# annotations stay unevaluated, so importing this module loads neither
# numpy.random nor fractions, which only the Bernoulli functions use
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import _at_least, _dense, _finite, _integers, _operator, _positive, _poisson_weight, _vectors

TWO_PI = 2.0 * math.pi

# numpy's Generator.poisson refuses a mean above this (its POISSON_LAM_MAX)
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)

# the walk lengths are drawn this many at a time, so a Monte Carlo run
# holds the counts of the distinct lengths and not the lengths themselves
_BLOCK = 8192


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox 4x64 generator; the package's one source of randomness."""
    _at_least("seed", seed, 0)
    return np.random.Generator(np.random.Philox(key=seed))


def pmf(lam: float, k: int) -> float:
    """Probability of walk length k: lam^k / (e_plus(lam) * k!).

    The distribution has no mass at 0, so k = 0 is a DomainError.  Large k,
    and any lam or k whose direct form over- or underflows, is evaluated in
    log space; these are the weights the pwp series sums.
    """
    _positive("lam", lam)
    _at_least("k", k, -math.inf)  # only the integer rule: k < 1 is a DomainError
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
        return _finite("second moment of the length law", self.mean * self.mean + self.variance)


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


def sample_lengths(lam: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws from the length law; all entries are >= 1.

    Exact at every lam, with no redrawing: the first arrival T of a unit-rate
    Poisson process, given that it lands in (0, lam], is
    -log1p(U (e^-lam - 1)) for U uniform on [0, 1), and the number of
    further arrivals in (T, lam] is Poisson(lam - T), so
    K = 1 + Poisson(lam - T) is zero-truncated Poisson(lam).  rng supplies
    the `size` uniforms, then the `size` Poisson draws.  The lengths are
    drawn in blocks of at most _BLOCK (see :func:`_blocks`) into one integer
    array of `size`, beside which only a block's arrays are held.
    """
    blocks = _blocks(lam, size, rng)
    lengths = np.empty(size, dtype=np.int64)
    for start, block in zip(range(0, size, _BLOCK), blocks):
        lengths[start:start + _BLOCK] = block
    return lengths


def _blocks(lam: float, size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """sample_lengths' draws, in order, as blocks of at most _BLOCK lengths.

    A copy of rng, made from its state, supplies the `size` uniforms a block
    at a time; rng first skips them, drawing into the block's buffer, then
    supplies the Poisson draws.  So each length, and rng's state once the
    blocks are drawn, is what one draw of all `size` uniforms and then all
    `size` Poisson draws would give, bit for bit.  lam and size are checked,
    and the uniforms skipped, before this returns.
    """
    _positive("lam", lam)
    if lam > POISSON_LAM_MAX:
        raise ValueError(f"lam must be <= {POISSON_LAM_MAX!r} to sample lengths, got {lam!r}")
    _at_least("size", size, 0)
    uniforms = np.random.Generator(type(rng.bit_generator)())
    uniforms.bit_generator.state = rng.bit_generator.state
    rest = np.empty(min(size, _BLOCK))
    for start in range(0, size, _BLOCK):
        rng.random(out=rest[:size - start])
    return (_lengths(lam, uniforms.random(out=rest[:size - start]), rng)
            for start in range(0, size, _BLOCK))


def _lengths(lam: float, rest: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """1 + Poisson(lam - T) for each uniform U in `rest`, which becomes
    lam - T in place (see :func:`sample_lengths`)."""
    np.add(lam, np.log1p(np.multiply(rest, math.expm1(-lam), out=rest), out=rest), out=rest)
    # rounding may put the first arrival a hair past lam
    lengths = rng.poisson(np.maximum(rest, 0.0, out=rest))
    lengths += 1
    return lengths


@dataclass(frozen=True)
class _Tally:
    """How many of `size` walk lengths hit each value: `sampled` holds the
    distinct lengths ascending, each with its share, the (k, v) pairs of a
    sampled sum over the powers of d, and `total` the lengths' exact sum."""

    sampled: list[tuple[int, float]]
    size: int
    total: int


def _tally(blocks, least: int = 1) -> _Tally:
    """The tally of the integer lengths >= least in `blocks`, arrays or
    sequences, in memory bounded by a block and the distinct lengths."""
    counts, rule = {}, f"integers >= {least}"
    for block in blocks:
        try:
            values, hits = np.unique(_integers("sampled lengths", block, rule), return_counts=True)
        except OverflowError:
            raise ValueError(f"sampled lengths must be {rule}, got one past int64") from None
        if values.size and values[0] < least:
            raise ValueError(f"sampled lengths must be {rule}, got {values.tolist()[0]!r}")
        for k, c in zip(values.tolist(), hits.tolist()):
            counts[k] = counts.get(k, 0) + c
    if not counts:
        raise ValueError("need at least one sampled length")
    ks = sorted(counts)
    size = sum(counts.values())
    shares = (np.array([counts[k] for k in ks]) / size).tolist()
    return _Tally(list(zip(ks, shares)), size, sum(k * c for k, c in counts.items()))


def estimate_from_lengths(d, lengths) -> np.ndarray:
    """Average of d^k over the given integer walk lengths k >= 0; d is a
    matrix or an :class:`influx.linalg.Operator`.  The shortest power comes
    by repeated squaring, and each later one up to the longest from the one
    before, by the power chain's step (see :func:`influx.linalg._chain`)."""
    return _dense(d, sampled=_tally((lengths,), least=0).sampled)[1]


def estimate_and_exact(d, lam: float, lengths, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """:func:`estimate_from_lengths` and the exact pwp matrix
    (:func:`influx.linalg.pwp_matrix`) from one pass over the powers of d:
    each D^k is formed once, for both its probability pmf(lam, k) and its
    sampled frequency.  The pass runs to the longer of the series and the
    longest sampled length.  The estimate equals estimate_from_lengths' bit
    for bit whenever the shortest length is 1, gaps between the lengths
    included.
    """
    return _matrices(d, lam, _tally((lengths,)), tol)


def _matrices(d, lam: float, tally: _Tally, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`estimate_and_exact` from a tally of the lengths."""
    exact, estimate, _ = _dense(d, lam, tol, normalised=True, sampled=tally.sampled)
    return estimate, exact


def estimate_and_exact_vectors(
    d, lam: float, lengths, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row sums d = T 1 and column sums f = 1 T of
    :func:`estimate_and_exact`'s estimate and exact T, and each estimated
    sum's standard error, without forming a matrix; d is a matrix or an
    :class:`influx.linalg.Operator`.  Each is a (2, n) array, d's row first.

    One pass over the vectors v_k = d^k 1 (1 d^k for f) sums the exact
    series of :func:`influx.methods.pwp` on an Operator, bit for bit, the
    sampled mean m1 = sum_k (c_k / N) v_k, where c_k of the N lengths are k,
    and the sampled second moment m2 = sum_k (c_k / N) v_k^2.  The standard
    error of m1 is sqrt((m2 - m1^2) / N), and 0 where m2 - m1^2 is within
    its rounding error, 2 (L + 1) eps m2 for L distinct lengths: where every
    sampled v_k is the same, say 1, it would otherwise read about
    sqrt(eps / N), and a length too rare to be sampled would give a z-score
    of up to 1e5.  Raises like :func:`estimate_and_exact`, and NumericOverflow
    where m2 leaves the float range.
    """
    return _sums(d, lam, _tally((lengths,)), tol)


def _sums(d, lam: float, tally: _Tally, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`estimate_and_exact_vectors` from a tally of the lengths."""
    exact, estimate, second, _ = _vectors(d, lam, tol, normalised=True, sampled=tally.sampled)
    estimate, second = np.array(estimate), np.array(second)
    with np.errstate(over="ignore"):
        variance = second - estimate * estimate  # -inf where m1^2 overflows
    variance[variance <= 2 * (len(tally.sampled) + 1) * np.finfo(float).eps * second] = 0.0
    return estimate, np.array(exact), np.sqrt(variance / tally.size)


def monte_carlo_pwp(d, lam: float, samples: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of the exponential walk-weighting matrix; d is a
    matrix or an :class:`influx.linalg.Operator`, checked before any draw.

    Draws `samples` lengths from the length law with a Philox generator
    keyed by `seed`, as sample_lengths does, and averages the corresponding
    matrix powers; only the count of each distinct length is kept.
    Deterministic for a fixed (seed, samples) pair.
    """
    _at_least("samples", samples, 1)
    return _dense(_operator(d), sampled=_tally(_blocks(lam, samples, make_rng(seed))).sampled)[1]


def bernoulli_numbers(K: int) -> list[Fraction]:
    """B_0 .. B_K as exact rationals (convention B_1 = -1/2).

    Recurrence: sum_{j=0}^{k} C(k+1, j) B_j = 0 with B_0 = 1.
    """
    from fractions import Fraction

    _at_least("K", K, 0)
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
    from fractions import Fraction

    if not (0.0 < lam < TWO_PI):
        raise DomainError(f"series converges only for 0 < lam < 2*pi, got {lam}")
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
