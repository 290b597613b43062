"""Real-matrix kernels: product, integer power, and the constant-free
exponential series that defines the exponential walk-weighting method.

e_plus(x) = e^x - 1 = sum_{k>=1} x^k / k!  is summed directly term by term
rather than as expm(x) - I, which would cancel catastrophically for small
arguments; the walk-weighting matrix e_plus(lam d) / e_plus(lam) is summed
as sum_k pmf(lam, k) d^k, with the walk-length law's probabilities as
weights.  One power chain serves both, and truncation is controlled by a
rigorous geometric tail bound.
The chain over the powers of a matrix d takes one of two steps: the dense
product P d by np.matmul, or, when d has few nonzeros a row (see
SPARSE_CUTOFF), the sparse product d P with d in sliced ELLPACK form, its
rows sorted and grouped by nonzero count (SELL-C-sigma: Kreutzer et al.,
SIAM J. Sci. Comput. 36(5), 2014), with the powers' rows held in that row
order; each group's product is one gather and one batched BLAS product.
A chain holds four n x n arrays, the two powers, the sum and the sampled
sum, and d itself on the np.matmul step only: the sliced form and its
first power come from an Operator's columns, with no dense d.
The row and column sums of e_plus(x) and of integer powers, which are all
the rankings need, come from matrix-vector products without forming the
matrix (the action of the matrix function, Al-Mohy & Higham, SIAM J. Sci.
Comput. 33(2), 2011), by an Operator: a dense d, or the columns of its
nonzeros, whose products take O(nnz).
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


def _product(a, b, what: str) -> np.ndarray:
    """a @ b, raising NumericOverflow instead of returning inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = a @ b
    if not np.isfinite(c).all():
        raise NumericOverflow(what)
    return c


class Operator:
    """A square matrix d as the products d x and x d that the vector series
    take, and the absolute row and column sums that bound them.

    Operator(n, rows, cols, values) holds d as the columns of its nonzeros,
    d[rows[e], cols[e]] = values[e] (entries at a repeated pair add up),
    and takes each product as one np.bincount over them, in O(nnz) time
    and O(n) memory.  A dense matrix passed to a vector kernel is wrapped
    as Operator.dense(d), whose products are BLAS's d @ x and x @ d.
    """

    def __init__(self, n: int, rows, cols, values):
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
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
        """d as an Operator; d must be square and finite already."""
        op = cls.__new__(cls)
        op.n, op.d = d.shape[0], d
        return op

    def matvec(self, x: np.ndarray, what: str | None = None) -> np.ndarray:
        """d x; with `what`, raising NumericOverflow(what) where an entry
        leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.d is not None:
                y = self.d @ x
            else:
                y = _bincount(self.rows, self.values * x[self.cols], self.n)
        return _finite(y, what)

    def rmatvec(self, x: np.ndarray, what: str | None = None) -> np.ndarray:
        """x d, the product by d's transpose; raises like :meth:`matvec`."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.d is not None:
                y = x @ self.d
            else:
                y = _bincount(self.cols, self.values * x[self.rows], self.n)
        return _finite(y, what)

    def abs_sum(self, axis: int) -> float:
        """Largest absolute row (axis=1) or column (axis=0) sum; 0 when empty."""
        if self.d is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                return float(np.abs(self.d).sum(axis=axis).max(initial=0.0))
        by = self.rows if axis == 1 else self.cols
        return float(_bincount(by, np.abs(self.values), self.n).max(initial=0.0))

    def column_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Each column's sum, and its least entry where that is below 0, else 0."""
        if self.d is not None:
            return self.d.sum(axis=0), self.d.min(axis=0, initial=0.0)
        low = np.zeros(self.n)
        np.minimum.at(low, self.cols, self.values)
        return _bincount(self.cols, self.values, self.n), low


def _bincount(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The sums of weights by index in [0, n), as floats also where there
    are no weights (np.bincount then gives integers)."""
    return np.bincount(index, weights, minlength=n).astype(float, copy=False)


def _finite(y: np.ndarray, what: str | None) -> np.ndarray:
    """y, or NumericOverflow(what) when `what` is given and y is not finite."""
    if what is not None and not np.isfinite(y).all():
        raise NumericOverflow(what)
    return y


def _operator(d) -> Operator:
    """d itself if it is an Operator, else the checked matrix d wrapped as one."""
    return d if isinstance(d, Operator) else Operator.dense(_square(d))


class _SlicedEll:
    """The products d P of a power chain over d in sliced ELLPACK form; d is
    a matrix or an :class:`Operator`, whose zero entries are dropped.

    The rows of d are sorted by nonzero count, descending, into `order`, so
    the m rows with c nonzeros form one contiguous block, held as their
    nonzeros' columns, row by row, and their (m, 1, c) values.  Each block
    is cut into chunks that gather at most n rows of P into `scratch`, and
    at most GATHER_ENTRIES entries unless one row's c rows hold more.  The
    products run in the basis of that row order: with Pi the permutation,
    (Pi d Pi^T)(Pi P) = Pi (d P), so a chain starts from Pi d
    (:meth:`first`) or holds the rows of each power in `order`
    (:meth:`enter`), and puts them back once at the end (:meth:`leave`).
    Permuting rows changes no entry's value, so max norms, running scales
    and tail bounds are those of the unpermuted chain.
    """

    def __init__(self, d):
        op = _operator(d)
        n = self.n = op.n
        if op.d is None:
            keep = op.values != 0
            rows, cols, values = op.rows[keep], op.cols[keep], op.values[keep]
        else:
            rows, cols = np.nonzero(op.d)
            values = op.d[rows, cols]
        counts = np.bincount(rows, minlength=n)
        self.order = np.argsort(-counts, kind="stable")
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[self.order] = np.arange(n)
        rows = self.rank[rows]
        by = np.lexsort((cols, rows))  # row by row in the blocks' order, columns ascending
        self.entries = (rows[by], cols[by]), values[by]  # of Pi d
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

    def first(self) -> np.ndarray:
        """d with its rows in the blocks' order, formed from its nonzeros."""
        a = np.zeros((self.n, self.n))
        np.add.at(a, *self.entries)
        return a

    def enter(self, a: np.ndarray) -> np.ndarray:
        """A copy of a with its rows in the blocks' order."""
        return a[self.order]

    def leave(self, a: np.ndarray) -> np.ndarray:
        """A copy of a row-ordered a with its rows back in d's order."""
        return a[self.rank]

    def __call__(self, q: np.ndarray, out: np.ndarray) -> None:
        """out = d q in the blocks' row order.

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


def _sliced_ell(d) -> _SlicedEll | None:
    """d, a matrix or an :class:`Operator`, in sliced ELLPACK form when it
    has at most sqrt(n / SPARSE_CUTOFF) nonzeros a row on average, else
    None: the chain then steps by np.matmul."""
    op = _operator(d)
    if np.count_nonzero(op.values if op.d is None else op.d) ** 2 * SPARSE_CUTOFF > op.n**3:
        return None
    return _SlicedEll(op)


def _stepper(op: Operator):
    """A chain over the powers of op's matrix d as (first, enter, step, leave):
    first() is d and enter(a) a copy of a in the chain's row order,
    step(q, out) writes the power after q into out, and leave(a) is a
    copy of such an a, or a itself, in d's basis.  The np.matmul step
    forms d once where op holds it as columns."""
    sliced = _sliced_ell(op)
    if sliced is not None:
        return sliced.first, sliced.enter, sliced, sliced.leave
    d = op.d
    if d is None:
        d = np.zeros((op.n, op.n))
        np.add.at(d, (op.rows, op.cols), op.values)
    return d.copy, np.copy, lambda q, out: np.matmul(q, d, out=out), lambda a: a


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


def mat_pow_sum(d, ks, weights) -> np.ndarray:
    """sum_i weights[i] * d^ks[i] for strictly ascending integer powers ks >= 0.

    One pass over ks: the first power comes from :func:`mat_pow`, and each
    later one is the previous power times d when the powers are consecutive,
    or times d^gap (formed once per distinct gap in a row) when they are not,
    so len(ks) consecutive powers cost len(ks) - 1 products after the first.
    Consecutive powers take the power chain's step (see :func:`_stepper`),
    in its row order, so they are those of the chain bit for bit.
    Contributions are added in ascending power.  Raises NumericOverflow at
    the first product, or a sum, that leaves the float range.
    """
    d = _square(d)
    ks = np.asarray(ks)
    weights = np.asarray(weights, dtype=float)
    if ks.ndim != 1 or weights.shape != ks.shape:
        raise ValueError(f"need one weight per power, got shapes {ks.shape} and {weights.shape}")
    if ks.size and not np.issubdtype(ks.dtype, np.integer):
        raise ValueError(f"powers must be integers, got dtype {ks.dtype}")
    if ks.size and ks[0] < 0:
        raise ValueError(f"power must be >= 0, got {ks[0]}")
    if np.any(np.diff(ks) <= 0):
        raise ValueError("powers must be strictly ascending")
    _, enter, step, leave = _stepper(Operator.dense(d))
    total = spare = None
    at, gap, jump = 0, 0, None  # power = d^at once at > 0; jump = d^gap
    with np.errstate(over="ignore", invalid="ignore"):
        for k, weight in zip(ks.tolist(), weights.tolist()):
            if at == 0:
                power = enter(mat_pow(d, k))
            elif k - at == 1:
                if spare is None:
                    spare = np.empty_like(power)
                step(power, spare)
                power, spare = spare, power
                if not np.isfinite(power).all():
                    raise NumericOverflow(f"matrix power {k}")
            else:
                if k - at != gap:
                    gap = k - at
                    jump = mat_pow(d, gap)
                power = _product(power, jump, f"matrix power {k}")
            at = k
            if total is None:
                total = weight * power
            else:
                total += weight * power
    if total is None:
        return np.zeros(d.shape)
    if not np.isfinite(total).all():
        raise NumericOverflow("weighted sum of matrix powers")
    return leave(total)


def mat_pow_vectors(d, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of d^k by k matrix-vector products each; d is a
    matrix or an :class:`Operator`.

    Raises NumericOverflow at the first product that leaves the float range.
    """
    op = _operator(d)
    _at_least("power", k, 0)
    what = f"a row or column sum of matrix power {k}"
    rows = cols = np.ones(op.n)
    for _ in range(k):
        rows = op.matvec(rows, what)
        cols = op.rmatvec(cols, what)
    return rows, cols


def _log_expm1(lam: float) -> float:
    """log(e^lam - 1), finite for every finite lam > 0."""
    if lam > 30.0:
        return lam + math.log1p(-math.exp(-lam))
    return math.log(math.expm1(lam))


def _poisson_weight(lam: float, k: int, normalised: bool) -> tuple[float, int]:
    """lam^k / k!, divided by e^lam - 1 when normalised (the length law's
    probability of k), as (m, e) with weight m * 2^e.

    The direct form where it is a normal float; log space where it over- or
    underflows, so the pair is finite and nonzero at every lam and k.
    """
    if k <= 170:
        try:
            num = lam**k
            den = math.expm1(lam) * math.factorial(k) if normalised else math.factorial(k)
        except OverflowError:
            pass  # the log-space form below stays finite
        else:
            tiny = sys.float_info.min
            w = num / den if num >= tiny and den >= tiny else 0.0
            if tiny <= w <= sys.float_info.max:
                return math.frexp(w)
    log_w = k * math.log(lam) - math.lgamma(k + 1) - (_log_expm1(lam) if normalised else 0.0)
    e = math.floor(log_w / math.log(2.0))
    return math.exp(log_w - e * math.log(2.0)), e


def _ldexp(m: float, e: int) -> float:
    """m * 2^e, inf where that leaves the float range."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf


def _add(total: np.ndarray, q: np.ndarray, c: float, spare: np.ndarray) -> None:
    """total += c * q through spare, in blocks of GATHER_ENTRIES that stay in
    cache; elementwise, so bit for bit the sum of the whole arrays."""
    total, q, spare = total.reshape(-1), q.reshape(-1), spare.reshape(-1)
    for i in range(0, q.size, GATHER_ENTRIES):
        block = slice(i, i + GATHER_ENTRIES)
        total[block] += np.multiply(q[block], c, out=spare[block])


def _chain(first, step, norm: float, lam: float, tol: float, normalised: bool, sampled=()):
    """The package's one power series: sum_{k>=1} w_k P_k with P_1 = first,
    P_{k+1} = step(P_k) and w_k = lam^k / k! (divided by e^lam - 1 when
    normalised), and along the same pass sum_k v P_k over the ascending
    (k >= 1, v) pairs in `sampled`.  Returns (series sum, sampled sum or
    None, report).

    `norm` must bound each step in the max-absolute-entry norm:
    |step(P)| <= norm * |P|.  After adding term K, with u_K the max norm of
    w_K P_K and r = lam * norm / (K+1), the series stops once r < 1 and
    u_K / (1 - r) < tol; the terms beyond K are then bounded by the
    geometric series u_K * r / (1 - r).  The pass goes on, adding no more
    series terms, until it has reached the last sampled power.

    Each power is held as 2^s * q, and q is rescaled by a power of two
    into [1, 2) whenever its largest entry leaves [1, 2^64].  A term
    w_k 2^s q is then at least its coefficient w_k 2^s, so neither a power
    nor a coefficient leaves the float range where the term does not; the
    rescaling is exact, so in range the terms are those of w_k P_k bit for
    bit.  Terms are added in plain floating point: each entry of the sum
    of K terms is off by at most about K eps times the sum of its terms'
    magnitudes (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, section 4.2), so by K eps |T| for a nonnegative d, but by up to
    eps e^{lam ||d||} where terms cancel.  The pass works in `first`, which
    it overwrites and lets go of before it returns, and in two arrays
    allocated before it starts (three with `sampled`): step(q, out) writes
    the next power into out, which also holds each term on its way into
    the sums until then.

    Raises NoConvergenceWithinBudget if the bound is still above tol after
    MAX_SERIES_TERMS terms, and its subclass NumericOverflow at the first
    term or sum that overflows.
    """
    sampled = list(sampled)
    q = first  # P_1 = 2^s q
    q += 0.0  # turns -0.0 into +0.0 as mat_pow does
    spare, total = np.empty_like(q), np.zeros_like(q)
    estimate = np.zeros_like(q) if sampled else None
    s, k, at, report = 0, 1, 0, None
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            qmax = max(float(q.max(initial=0.0)), -float(q.min(initial=0.0)))
            if not math.isfinite(qmax):
                raise NumericOverflow(f"exponential series term {k}", k - 1, tol)
            if qmax and not 1.0 <= qmax <= 2.0**64:
                shift = math.frexp(qmax)[1] - 1  # to [1, 2)
                np.ldexp(q, -shift, out=q)
                qmax = math.ldexp(qmax, -shift)
                s += shift
            if report is None:
                m, e = _poisson_weight(lam, k, normalised)
                c = _ldexp(m, e + s)
                u = c * qmax if qmax else 0.0
                if not math.isfinite(u):
                    raise NumericOverflow(f"exponential series term {k}", k - 1, tol)
                _add(total, q, c, spare)
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
                _add(estimate, q, _ldexp(sampled[at][1], s), spare)
                at += 1
            if report is not None and at == len(sampled):
                break
            step(q, spare)
            q, spare = spare, q
            k += 1
    del first, q, spare  # so the sums' checks and copies take the powers' place
    if not np.isfinite(total).all():
        raise NumericOverflow("exponential series sum", report.terms_used, tol)
    if estimate is not None and not np.isfinite(estimate).all():
        raise NumericOverflow("weighted sum of matrix powers")
    return total, estimate, report


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


def _dense(d, lam: float, tol: float, normalised: bool, sampled=()):
    """The series over the powers of d, a matrix or an Operator; see :func:`_chain`."""
    _checked(lam, tol, normalised)
    op = _operator(d)
    first, _, step, leave = _stepper(op)
    # the row-sum norm bounds d P_k, and P_k d = d P_k as powers of d commute
    total, estimate, report = _chain(first(), step, op.abs_sum(1), lam, tol, normalised, sampled)
    return leave(total), None if estimate is None else leave(estimate), report


def _vectors(d, lam: float, tol: float, normalised: bool):
    """The series over d^k 1 and 1 d^k; see :func:`exp_plus_vectors`."""
    _checked(lam, tol, normalised)
    op = _operator(d)
    ones = np.ones(op.n)
    rows, _, by_row = _chain(op.matvec(ones), lambda v, out: np.copyto(out, op.matvec(v)),
                             op.abs_sum(1), lam, tol, normalised)
    cols, _, by_col = _chain(op.rmatvec(ones), lambda v, out: np.copyto(out, op.rmatvec(v)),
                             op.abs_sum(0), lam, tol, normalised)
    report = SeriesReport(
        terms_used=max(by_row.terms_used, by_col.terms_used),
        tail_bound=max(by_row.tail_bound, by_col.tail_bound),
    )
    return rows, cols, report


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
    return _vectors(d, lam, tol, normalised=False)


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


def pwp_vectors_report(
    d, lam: float = 1.0, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, SeriesReport]:
    """Row and column sums of :func:`pwp_matrix` without forming it, each
    accurate to tol in max norm, with a report like that of
    :func:`exp_plus_vectors`; d is a matrix or an :class:`Operator`."""
    return _vectors(d, lam, tol, normalised=True)
