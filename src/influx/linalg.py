"""Real-matrix kernels: product, integer power, and the constant-free
exponential series that defines the exponential walk-weighting method.

e_plus(x) = e^x - 1 = sum_{k>=1} x^k / k!  is summed directly term by term
rather than as expm(x) - I, which would cancel catastrophically for small
arguments; the walk-weighting matrix e_plus(lam d) / e_plus(lam) is summed
as sum_k pmf(lam, k) d^k, with the walk-length law's probabilities as
weights.  One loop over the powers, the chain, serves both, and the Monte
Carlo sums over sampled powers too, with a series or without one; a
series' truncation is controlled by a rigorous geometric tail bound.
The chain over the powers of a matrix d takes one of two steps: the dense
product P d by np.matmul, or, when d has few nonzeros a row (see
SPARSE_CUTOFF), the sparse product d P with d in sliced ELLPACK form, its
rows sorted and grouped by nonzero count (SELL-C-sigma: Kreutzer et al.,
SIAM J. Sci. Comput. 36(5), 2014), with the powers' rows held in that row
order; each group's product is one gather and one batched BLAS product.
A chain holds at most four n x n arrays, the two powers, the series sum
and the sampled sum, and d itself on the np.matmul step only: the
sliced-ELL chain starts from a row-ordered copy of d and lets d go.
The row and column sums of e_plus(x), which are all the rankings need,
come from matrix-vector products without forming the matrix (the action
of the matrix function, Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2),
2011), by an Operator: a dense d, or the columns of its nonzeros, whose
products take O(nnz).  The same vector chains carry sums over given
powers: micmac's d^k 1 as the one power k of weight 1, and the Monte
Carlo sums, with the sums of squares that give their standard errors.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergenceWithinBudget, NumericOverflow

MAX_SERIES_TERMS = 10_000

# The power chain steps in d's sliced ELLPACK form when d has on average at
# most sqrt(n / SPARSE_CUTOFF) nonzeros a row, i.e. nnz^2 * SPARSE_CUTOFF
# <= n^3, by np.matmul otherwise.  The measured crossover grows with n, from
# about 28 nonzeros a row at n = 400 to about 63 at n = 2000, so no fixed
# share of n^2 fits it.  Median of one product with an n x n power, Xeon,
# one BLAS thread, uniform random cells (np.matmul vs sliced-ELL, ms):
#   n =  400, nnz   9562 sliced: 3.29 vs 3.03;  nnz  13522 matmul: 3.62 vs 3.93
#   n =  600, nnz  17566 sliced: 8.85 vs 7.78;  nnz  24842 matmul: 11.4 vs 12.7
#   n = 1000, nnz  37796 sliced: 46.3 vs 36.5;  nnz  53452 matmul: 46.9 vs 50.2
#   n = 2000, nnz 106904 sliced:  333 vs  275;  nnz 151186 matmul:  290 vs  353
#   n =  600, nnz  20785, at the cutoff (sliced): 10.79 vs 10.78
#   n =  600, nnz   2969 (the benchmark graphs):  10.8 vs 1.61
#   n =  600, nnz 360000 (every entry):           11.1 vs  299
# Below n = 400, where one product takes under 1 ms either way, the rule
# can pick the slower step (n = 100, nnz 1000: 0.047 vs 0.196 ms).
SPARSE_CUTOFF = 0.5

# The entries of the powers one chunk of a sliced-ELL step gathers, 512 KiB,
# so the batched product reads them from cache: at n = 2000 and 15 nonzeros
# a row this takes a product from 130 ms (chunks of n rows) to 77 ms.
GATHER_ENTRIES = 2**16


@dataclass(frozen=True)
class SeriesReport:
    """Truncation accounting for one series evaluation.

    tail_bound is a rigorous upper bound, in max-absolute-entry norm, on
    everything the truncation discarded.
    """

    terms_used: int
    tail_bound: float


def _square(a) -> np.ndarray:
    """The package's one matrix check: 2-D, square and finite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _positive(name: str, value: float) -> None:
    """The package's one scalar parameter check: finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _at_least(name: str, value, least: int) -> None:
    """The package's one integer parameter check: an integer (numpy's too,
    but not a bool) that is >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _integers(name: str, values, rule: str = "integers") -> np.ndarray:
    """values as an int64 array by the rule of :func:`_at_least`, entry by
    entry, where an empty list passes too; ValueError "{name} must be
    {rule}, got v" names the first entry v that breaks it, and an int past
    int64 raises OverflowError.  Only an integer array skips the entries:
    numpy's common type of a list would hide a bool among integers."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if values.dtype.kind == "u" and values.size and values.max() > np.iinfo(np.int64).max:
            raise OverflowError(f"{name} past int64")
        return values.astype(np.int64, copy=False)
    a = np.asarray(values, dtype=object)  # the entries as given
    bad = {t for t in set(map(type, a.flat)) if t is bool or not issubclass(t, (int, np.integer))}
    if bad:
        v = next(v for v in a.flat if type(v) in bad)
        raise ValueError(f"{name} must be {rule}, got {v.item() if isinstance(v, np.generic) else v!r}")
    return a.astype(np.int64)


def _finite(what: str, *values, terms: int = 0, tol: float = math.nan):
    """The package's one overflow rule: NumericOverflow(what, terms, tol)
    where an entry of a value, a number or an array, is nan or infinite;
    else the last value.  A value of None passes."""
    for value in values:
        # a float by math.isfinite: the chain checks one each step
        if value is not None and not (math.isfinite(value) if isinstance(value, float)
                                      else np.isfinite(value).all()):
            raise NumericOverflow(what, terms, tol)
    return values[-1]


def _product(a, b, what: str) -> np.ndarray:
    """a @ b, raising NumericOverflow instead of returning inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(what, a @ b)


class Operator:
    """A square matrix d as the products d x and x d that the vector series
    take, and the absolute row and column sums that bound them.

    Operator(n, rows, cols, values) holds d as the columns of its nonzeros,
    d[rows[e], cols[e]] = values[e] (a repeated pair's values add up), and
    takes each product as one np.bincount, in O(nnz) time and O(n) memory;
    Operator.dense(d) holds a dense d, whose products are BLAS's d @ x and
    x @ d.  Only this class reads which of the two forms it holds.
    """

    def __init__(self, n: int, rows, cols, values):
        _at_least("n", n, 0)
        try:
            rows, cols = _integers("rows", rows), _integers("cols", cols)
        except OverflowError:
            raise DimensionMismatch(f"an entry lies outside a {n} x {n} matrix") from None
        values = np.asarray(values, dtype=float)
        if not rows.shape == cols.shape == values.shape or rows.ndim != 1:
            raise DimensionMismatch(
                f"need one row and one column per value, got shapes "
                f"{rows.shape}, {cols.shape} and {values.shape}")
        if ((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)).any():
            raise DimensionMismatch(f"an entry lies outside a {n} x {n} matrix")
        if not np.isfinite(values).all():
            raise ValueError("matrix entries must be finite")
        self.n, self.rows, self.cols, self.values, self.d = n, rows, cols, values, None

    @classmethod
    def dense(cls, d) -> "Operator":
        """The square, finite matrix d as an Operator on BLAS's products."""
        op = cls.__new__(cls)
        op.d = _square(d)
        op.n = op.d.shape[0]
        return op

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """d x, with no warning where an entry leaves the float range; x
        must be real, of shape (n,)."""
        x = self._vector(x)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.d is not None:
                return self.d @ x
            return _bincount(self.rows, self.values * x[self.cols], self.n)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """x d, the product by d's transpose, like :meth:`matvec`."""
        x = self._vector(x)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.d is not None:
                return x @ self.d
            return _bincount(self.cols, self.values * x[self.rows], self.n)

    def _vector(self, x) -> np.ndarray:
        """x as an array, refused unless its shape is (n,) and its entries
        are real: bool, integer or float."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"expected a vector of shape ({self.n},), got shape {x.shape}")
        if x.dtype.kind not in "biuf":
            raise ValueError(f"expected a real vector, got dtype {x.dtype}")
        return x

    def abs_sum(self, axis: int) -> float:
        """Largest absolute row (axis=1) or column (axis=0) sum; 0 when empty,
        and an upper bound where values at a repeated pair differ in sign."""
        if self.d is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                return float(np.abs(self.d).sum(axis=axis).max(initial=0.0))
        by = self.rows if axis == 1 else self.cols
        return float(_bincount(by, np.abs(self.values), self.n).max(initial=0.0))

    def column_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Each column's sum, and its least entry where that is below 0, else 0."""
        if self.d is not None:
            return self.d.sum(axis=0), self.d.min(axis=0, initial=0.0)
        _, cols, values = self._entries()  # a repeated pair's values added up
        low = np.zeros(self.n)
        np.minimum.at(low, cols, values)
        return _bincount(self.cols, self.values, self.n), low

    def _count(self) -> int:
        """The number of nonzero stored values, found with no index arrays."""
        return np.count_nonzero(self.values if self.d is None else self.d)

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """d's nonzero entries as (rows, cols, values), row by row, repeated pairs added up."""
        if self.d is not None:
            rows, cols = np.nonzero(self.d)
            return rows, cols, self.d[rows, cols]
        by = np.lexsort((self.cols, self.rows))  # row by row, each pair's values side by side
        rows, cols = self.rows[by], self.cols[by]
        starts = np.flatnonzero(np.diff(rows, prepend=-1) | np.diff(cols, prepend=-1))
        values = np.add.reduceat(self.values[by], starts)
        keep = values != 0
        return rows[starts[keep]], cols[starts[keep]], values[keep]

    def _array(self) -> np.ndarray:
        """d as an n x n array: the one held, not to be written to, or a new one."""
        if self.d is not None:
            return self.d
        d = np.zeros((self.n, self.n))
        np.add.at(d, (self.rows, self.cols), self.values)
        return d


def _bincount(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The sums of weights by index in [0, n), as floats also where there
    are no weights (np.bincount then gives integers)."""
    return np.bincount(index, weights, minlength=n).astype(float, copy=False)


def _operator(d) -> Operator:
    """d itself if it is an Operator, else the matrix d wrapped as one."""
    return d if isinstance(d, Operator) else Operator.dense(d)


class _SlicedEll:
    """The products d P of a power chain over d in sliced ELLPACK form; d is
    a matrix or an :class:`Operator`, whose zero entries are dropped.

    The rows of d are sorted by nonzero count, descending, into `order`, so
    the m rows with c nonzeros form one contiguous block, held as their
    nonzeros' columns, row by row, and their (m, 1, c) values.  Each block
    is cut into chunks that gather at most n rows of P into `scratch`, and
    at most GATHER_ENTRIES entries unless one row's c rows hold more.  The
    products run in the basis of that row order: with Pi the permutation,
    (Pi d Pi^T)(Pi P) = Pi (d P), so a chain holds the rows of each power
    in `order`, from Pi d on (:meth:`enter`), and puts them back once at
    the end (:meth:`leave`).  Permuting rows changes no entry's value, so
    max norms, running scales and tail bounds are those of the unpermuted
    chain.
    """

    def __init__(self, d):
        op = _operator(d)
        n = op.n
        rows, cols, values = op._entries()
        counts = np.bincount(rows, minlength=n)
        self.order = np.argsort(-counts, kind="stable")
        self.rank = np.argsort(self.order)  # the inverse permutation
        by = np.lexsort((cols, self.rank[rows]))  # row by row in the blocks' order, columns ascending
        columns = self.rank[cols[by]]
        values = values[by]
        sizes = np.bincount(counts).tolist()  # rows with each nonzero count
        self.blocks = []  # (first row, end row, columns, values) of each chunk
        a = e = 0  # the first row and the first nonzero of the rows with c nonzeros
        for c in range(len(sizes) - 1, 0, -1):
            end = a + sizes[c]
            chunk = max(1, min(n, GATHER_ENTRIES // n) // c)  # rows
            for i in range(a, end, chunk):
                j = min(i + chunk, end)
                nonzeros = slice(e + (i - a) * c, e + (j - a) * c)
                self.blocks.append((i, j, columns[nonzeros], values[nonzeros].reshape(j - i, 1, c)))
            a, e = end, e + (end - a) * c
        self.filled = a  # rows with a nonzero
        self.scratch = np.empty(max((columns.size for _, _, columns, _ in self.blocks), default=0) * n)

    def enter(self, a: np.ndarray) -> np.ndarray:
        """A copy of a with its rows in the blocks' order, and -0.0 as +0.0
        as mat_pow gives it."""
        a = a[self.order]
        a += 0.0
        return a

    def leave(self, a: np.ndarray) -> np.ndarray:
        """A copy of a row-ordered a with its rows back in d's order."""
        return a[self.rank]

    def __call__(self, q: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = d q in the blocks' row order; returns out.

        Per chunk, one gather of the rows of q its nonzeros name into
        scratch (mode="clip" gathers straight into it, where the default
        copies through a buffer), then one batched (1, c) x (c, n) product
        per row into out.
        """
        for a, b, columns, values in self.blocks:
            rows = self.scratch[:columns.size * q.shape[1]].reshape(columns.size, -1)
            np.take(q, columns, axis=0, mode="clip", out=rows)
            np.matmul(values, rows.reshape(b - a, -1, q.shape[1]), out=out[a:b, None])
        out[self.filled:] = 0.0
        return out


def _sliced_ell(d) -> _SlicedEll | None:
    """d, a matrix or an :class:`Operator`, in sliced ELLPACK form when it
    has at most sqrt(n / SPARSE_CUTOFF) nonzeros a row on average, else
    None: the chain then steps by np.matmul."""
    op = _operator(d)
    return None if op._count() ** 2 * SPARSE_CUTOFF > op.n**3 else _SlicedEll(op)


def _stepper(op: Operator):
    """A chain over the powers of op's matrix d as (start, step, leave):
    start(k) is a new d^k in the chain's row order, step(q, out) returns the
    power after q, written into out, and leave(a) is a copy of such an a,
    or a itself, in d's basis.  d is formed from op once a start(k), and
    once in all on the np.matmul step, which holds it."""
    sliced = _sliced_ell(op)
    if sliced is not None:
        return (lambda k: sliced.enter(op._array() if k == 1 else mat_pow(op._array(), k)),
                sliced, sliced.leave)
    d = op._array()
    return lambda k: mat_pow(d, k), lambda q, out: np.matmul(q, d, out=out), lambda a: a


def mat_pow(d, k: int) -> np.ndarray:
    """k-th power of a square matrix by repeated squaring; d^0 is the identity.

    Raises NumericOverflow at the first product that leaves the float range.
    """
    d = _square(d)
    _at_least("power", k, 0)
    what = f"matrix power {k}"
    result = None
    base = d
    while k:
        if k & 1:
            # the first factor is copied, not multiplied by the identity;
            # + 0.0 turns -0.0 into +0.0 as that product did
            result = base + 0.0 if result is None else _product(result, base, what)
        k >>= 1
        if k:
            base = _product(base, base, what)
    return np.eye(d.shape[0]) if result is None else result


def _stirlerr(x: float) -> float:
    """log(x!) - log(sqrt(2 pi x) (x/e)^x) for an integer x >= 1: by lgamma
    up to 15, else the first five terms of its Stirling series."""
    if x <= 15.0:
        return math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - 0.5 * math.log(2.0 * math.pi)
    xx = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / xx) / xx) / xx) / xx) / x


def _bd0(x: float, lam: float, shift: float) -> float:
    """x log(x / lam) + lam - x - shift, for shift 0 or lam: by its series in
    v = (x - lam) / (x + lam) where the terms would cancel, else with lam
    added only if shift is 0, so that lam - shift does not cancel either."""
    v = (0.5 * x - 0.5 * lam) / (0.5 * x + 0.5 * lam)  # halves, so the sum cannot overflow
    if abs(v) >= 0.1:
        ratio = x / lam
        normal = sys.float_info.min <= ratio < math.inf
        log_ratio = math.log(ratio) if normal else math.log(x) - math.log(lam)
        return x * log_ratio - x + (lam - shift)
    total, term, j, last = (x - lam) * v, 2.0 * (x * v), 1, None
    while total != last:
        term *= v * v
        total, last, j = total + term / (2 * j + 1), total, j + 1
    return total - shift


def _log_poisson(x: float, lam: float, shift: float = 0.0) -> float:
    """log(e^-lam lam^x / x!) + shift for an integer x >= 1 and shift 0 or
    lam, in Loader's saddle-point form -stirlerr(x) - bd0(x, lam)
    - log(2 pi x) / 2, whose terms do not cancel (C. Loader, Fast and
    Accurate Computation of Binomial Probabilities, 2000)."""
    return -_stirlerr(x) - _bd0(x, lam, shift) - 0.5 * (math.log(2.0 * math.pi) + math.log(x))


def _poisson_weight(lam: float, k: int, normalised: bool) -> tuple[float, int]:
    """lam^k / k!, divided by e^lam - 1 when normalised (the length law's
    probability of k), as (m, e) with weight m * 2^e.

    The direct form where it is a normal float; else, when normalised, the
    same with lam / (e^lam - 1) taken first; where both over- or underflow,
    from the log by :func:`_log_poisson`.  The pair is (0.0, 0) where that
    log leaves the float range, as it does for a k past it.
    """
    if k <= 170:
        tiny = sys.float_info.min
        try:
            num = lam**k
            den = math.expm1(lam) * math.factorial(k) if normalised else math.factorial(k)
            w = num / den if num >= tiny and den >= tiny else 0.0
        except OverflowError:
            w = 0.0
        if normalised and not tiny <= w <= sys.float_info.max:
            try:
                num = lam / math.expm1(lam) * lam ** (k - 1)
                w = num / math.factorial(k) if num >= tiny else 0.0
            except OverflowError:
                pass  # the log-space form below stays finite
        if tiny <= w <= sys.float_info.max:
            return math.frexp(w)
    try:
        x = float(k)
    except OverflowError:
        return 0.0, 0
    # lam^k / k! is e^lam times the Poisson weight e^-lam lam^k / k!
    log_w = _log_poisson(x, lam, 0.0 if normalised else lam)
    if normalised:
        log_w -= math.log(-math.expm1(-lam))
    log2_w = log_w / math.log(2.0)
    if not math.isfinite(log2_w):
        return 0.0, 0
    e = math.floor(log2_w)
    return 2.0 ** (log2_w - e), e  # past 2^53, log2_w is an integer and the mantissa 1


def _ldexp(m: float, e: int) -> float:
    """m * 2^e, inf where that leaves the float range."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf


def _chain(first, k: int, step, norm: float, lam: float | None, tol: float, normalised: bool, sampled=(),
           squares: bool = False):
    """The package's one loop over the powers, with or without a series:
    sum_{k>=1} w_k P_k with P_k = first, P_{k+1} = step(P_k) and
    w_k = lam^k / k! (divided by e^lam - 1 when normalised), and along the
    same pass sum_k v P_k over the ascending (k, v) pairs in `sampled`, and
    with `squares` sum_k v P_k^2, entry by entry, too.  `first` is P_k: k is
    1 with a series; with lam None there is none, and the pass adds only
    the sampled terms, micmac's d^k as the one pair (k, 1.0).  Returns
    (series sum or None, sampled sum or None, squares sum or None, report).

    `norm` must bound each step in the max-absolute-entry norm:
    |step(P)| <= norm * |P|.  After adding term K, with u_K the max norm of
    w_K P_K and r = lam * norm / (K+1), the series stops once r < 1 and
    u_K / (1 - r) < tol; the terms beyond K are then bounded by the
    geometric series u_K * r / (1 - r).  The pass goes on, adding no more
    series terms, until it has reached the last sampled power.

    Each power is held as 2^s * q.  With a series, q is rescaled by a power
    of two into [1, 2) whenever its largest entry leaves [1, 2^64].  A term
    w_k 2^s q is then at least its coefficient w_k 2^s, so neither a power
    nor a coefficient leaves the float range where the term does not; the
    rescaling is exact, so in range the terms are those of w_k P_k bit for
    bit.  With no series, q is P_k, and the sums are the plain products'
    bit for bit, until a step overflows: that step is taken again from q
    scaled into [1, 2), and q is scaled back toward s = 0 while its largest
    entry is below 1.  Terms are added in plain floating point: each entry
    of the sum of K terms is off by at most about K eps times the sum of
    its terms' magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2), so by K eps |T| for a nonnegative d,
    but by up to eps e^{lam ||d||} where terms cancel.  The pass works in
    `first`, which it overwrites and lets go of before it returns, and in
    one array allocated before it starts, and one more for each sum it
    returns: step(q, out) returns the next power, in out for a matrix, and
    out also holds each term on its way into the sums.

    Raises NoConvergenceWithinBudget if the bound is still above tol after
    MAX_SERIES_TERMS terms, and its subclass NumericOverflow at the first
    term, power or sum that overflows: a power is named as a series term
    where there is a series, else as a matrix power.
    """
    sampled = list(sampled)
    series = lam is not None
    q = first  # P_k = 2^s q
    spare, total = np.empty_like(q), np.zeros_like(q) if series else None
    # with no series from -0.0, the identity of +: one term sums to itself
    estimate = np.full_like(q, 0.0 if series else -0.0) if sampled else None
    second = np.zeros_like(q) if sampled and squares else None
    what = "exponential series term" if series else "matrix power"
    # with no series to sum, its report is complete from the start
    s, at, report = 0, 0, None if series else SeriesReport(terms_used=0, tail_bound=0.0)
    last = 0.0  # the largest |entry| of the q that step took to this one
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            qmax = max(float(q.max(initial=0.0)), -float(q.min(initial=0.0)))
            if not (series or math.isfinite(qmax)) and last >= 2.0:
                # the step overflowed: take it again from the power before, in [1, 2)
                shift = math.frexp(last)[1] - 1
                last, s = math.ldexp(last, -shift), s + shift
                q = step(np.ldexp(spare, -shift, out=spare), q)
                continue
            _finite(f"{what} {k}", qmax, terms=k - 1 if series else 0, tol=tol)
            if qmax and (not 1.0 <= qmax <= 2.0**64 if series else s > 0 and qmax < 1.0):
                # to [1, 2), with no series no further than s = 0
                shift = max(math.frexp(qmax)[1] - 1, -math.inf if series else -s)
                np.ldexp(q, -shift, out=q)
                qmax = math.ldexp(qmax, -shift)
                s += shift
            if report is None:
                m, e = _poisson_weight(lam, k, normalised)
                c = _ldexp(m, e + s)
                u = _finite(f"exponential series term {k}", c * qmax if qmax else 0.0, terms=k - 1, tol=tol)
                total += np.multiply(q, c, out=spare)
                r = lam * norm / (k + 1)
                if u == 0.0:
                    # term K is zero in floating point: d^K is zero, and so
                    # is every later power, or the term has underflowed
                    report = SeriesReport(terms_used=k, tail_bound=0.0)
                elif r < 1.0 and u / (1.0 - r) < tol:
                    report = SeriesReport(terms_used=k, tail_bound=u * r / (1.0 - r))
                elif k >= MAX_SERIES_TERMS:
                    bound = u / (1.0 - r) if r < 1.0 else math.inf
                    raise NoConvergenceWithinBudget(k, bound, tol)
            if at < len(sampled) and sampled[at][0] == k:
                share = sampled[at][1]
                estimate += np.multiply(q, _ldexp(share, s), out=spare)
                if second is not None:
                    second += np.multiply(np.square(q, out=spare), _ldexp(share, 2 * s), out=spare)
                at += 1
            if report is not None and at == len(sampled):
                break
            q, spare, last, k = step(q, spare), q, qmax, k + 1
    del first, q, spare  # so the sums' checks and copies take the powers' place
    _finite("exponential series sum", total, terms=report.terms_used, tol=tol)
    _finite("weighted sum of matrix powers", estimate)
    _finite("weighted sum of squared matrix powers", second)
    return total, estimate, second, report


def _expm1(lam: float) -> float:
    """e^lam - 1, raising NumericOverflow where math.expm1 would raise
    OverflowError."""
    try:
        return math.expm1(lam)
    except OverflowError:
        raise NumericOverflow(f"e^lambda - 1 for lambda = {lam!r}") from None


def _checked(lam: float, tol: float, normalised: bool) -> None:
    """Check lam, tol, and e^lam - 1 when normalised."""
    _positive("lam", lam)
    _positive("tol", tol)
    if normalised:
        _expm1(lam)


def _dense(d, lam: float | None = None, tol: float = math.nan, normalised: bool = True, sampled=()):
    """The series over the powers of d, a matrix or an Operator, and the
    sampled sum, or with lam None that sum alone; see :func:`_chain`."""
    if lam is not None:
        _checked(lam, tol, normalised)
    op = _operator(d)
    start, step, leave = _stepper(op)
    norm = op.abs_sum(1)  # bounds d P_k, and P_k d = d P_k as powers of d commute
    k = 1 if lam is not None else sampled[0][0]
    sums = _chain(start(k), k, step, norm, lam, tol, normalised, sampled)
    return *(None if a is None else leave(a) for a in sums[:2]), sums[3]


def _vectors(d, lam: float | None = None, tol: float = math.nan, normalised: bool = True, sampled=()):
    """The series over d^k 1 and 1 d^k (see :func:`exp_plus_vectors`), none
    with lam None, and their sums over `sampled`, with a series their sums
    of squares too (see :func:`_chain`), as (series sums, sampled sums,
    sums of squares, report), each a (row sums, column sums) pair or Nones."""
    if lam is not None:
        _checked(lam, tol, normalised)
    op = _operator(d)
    ones = np.ones(op.n)
    sides = [
        _chain(product(ones), 1, lambda v, out, product=product: product(v), op.abs_sum(axis),
               lam, tol, normalised, sampled, squares=lam is not None)
        for product, axis in ((op.matvec, 1), (op.rmatvec, 0))
    ]
    totals, estimates, seconds, (by_row, by_col) = zip(*sides)
    report = SeriesReport(
        terms_used=max(by_row.terms_used, by_col.terms_used),
        tail_bound=max(by_row.tail_bound, by_col.tail_bound),
    )
    return totals, estimates, seconds, report


def exp_plus(d, lam: float = 1.0, tol: float = 1e-12) -> tuple[np.ndarray, SeriesReport]:
    """Sum of (lam*d)^k / k! over k >= 1, without the k = 0 identity term.

    Summed as lam^k / k! times d^k; the series stops once its geometric
    tail bound, with r = lam*||d||_inf / (K+1), is below tol in the
    max-absolute-entry norm.  The bound covers truncation only: where terms
    of both signs cancel, rounding grows like eps e^{lam ||d||}
    (exp_plus([[-1.0]], 40.0) gives 4.88, not about -1).  Raises
    NoConvergenceWithinBudget if the bound is still above tol after
    MAX_SERIES_TERMS terms, and its subclass NumericOverflow at the first
    term or sum that overflows.
    """
    total, _, report = _dense(d, lam, tol, normalised=False)
    return total, report


def exp_plus_vectors(
    d, lam: float = 1.0, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, SeriesReport]:
    """Row and column sums of exp_plus(d, lam) by matrix-vector products;
    d is a matrix or an :class:`Operator`.

    The row sums are sum_k (lam d)^k 1 / k!, whose step grows the max norm
    by at most lam*||d||_inf; the column sums are sum_k (lam d^T)^k 1 / k!,
    bounded by lam*||d||_1.  Each series stops once its own tail bound is
    below tol in max norm; the report gives the longer series' term count
    and the larger of the two bounds.  Raises like :func:`exp_plus`.
    """
    (rows, cols), _, _, report = _vectors(d, lam, tol, normalised=False)
    return rows, cols, report


def pwp_matrix_report(d, lam: float = 1.0, tol: float = 1e-12) -> tuple[np.ndarray, SeriesReport]:
    """Like :func:`pwp_matrix` but also returns the truncation report.

    T is summed as sum_k pmf(lam, k) d^k, so tol and the report's tail
    bound are in the units of T, and cover truncation only, as for
    :func:`exp_plus`.  Raises NumericOverflow where e^lam - 1 leaves the
    float range, and otherwise like :func:`exp_plus`.
    """
    t, _, report = _dense(d, lam, tol, normalised=True)
    return t, report


def pwp_matrix(d, lam: float = 1.0, tol: float = 1e-12) -> np.ndarray:
    """Indirect-influence matrix e_plus(lam*d) / e_plus(lam), truncated to
    within tol (rounding aside; see :func:`exp_plus`)."""
    return pwp_matrix_report(d, lam, tol)[0]

