"""Named graph families with exact influence matrices for cross-checking.

Four families: the directed line L_n, the directed cycle C_n, the Jordan
block J_n(a) (self-loop weight a plus a unit sub-diagonal), and the star
S_n with n leaves.  The star's hub is stored as vertex n + 1; in the usual
presentation of this family the hub is called vertex 0.

closed_form_pwp evaluates the exponential walk weighting without touching
the dense series code, so the two routes check each other.  All closed
forms exclude the empty walk of length 0, matching the defining series
sum_{k>=1} x^k / k!.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteWeight
from .graph import DirectInfluenceGraph, Edge
from .linalg import _at_least, _expm1, _finite, _positive
from .stochastic import pmf


@dataclass(frozen=True)
class _Family:
    """A family member of size n >= 1; subclasses compare unequal to each other."""

    n: int

    def __post_init__(self):
        _at_least("n", self.n, 1)


class Line(_Family):
    """The directed line 1 -> 2 -> ... -> n."""


class Cycle(_Family):
    """The directed line closed by n -> 1."""


@dataclass(frozen=True)
class Jordan(_Family):
    """The line plus a self-loop of weight a on every vertex."""

    a: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(float(self.a)):
            raise NonFiniteWeight(float(self.a))  # as build would


class Star(_Family):
    """Hub-and-spoke graph with `n` leaves; the hub is vertex n + 1."""

    @property
    def center(self) -> int:
        return self.n + 1


FamilySpec = Line | Cycle | Jordan | Star


def build(spec: FamilySpec) -> DirectInfluenceGraph:
    """Construct the family's edge set.

    Line:   i -> i+1 for i < n, weight 1.
    Cycle:  the line plus n -> 1, weight 1.
    Jordan: j -> j weight a for every j, plus j -> j+1 weight 1 for j < n.
    Star:   hub -> leaf and leaf -> hub for every leaf, weight 1.
    """
    if isinstance(spec, Line):
        edges = [Edge(i, i + 1, 1.0) for i in range(1, spec.n)]
        return DirectInfluenceGraph(spec.n, tuple(edges))
    if isinstance(spec, Cycle):
        edges = [Edge(i, i + 1, 1.0) for i in range(1, spec.n)]
        edges.append(Edge(spec.n, 1, 1.0))
        return DirectInfluenceGraph(spec.n, tuple(edges))
    if isinstance(spec, Jordan):
        edges = [Edge(j, j, float(spec.a)) for j in range(1, spec.n + 1)]
        edges += [Edge(j, j + 1, 1.0) for j in range(1, spec.n)]
        return DirectInfluenceGraph(spec.n, tuple(edges))
    if isinstance(spec, Star):
        hub = spec.center
        edges = []
        for leaf in range(1, spec.n + 1):
            edges.append(Edge(hub, leaf, 1.0))
            edges.append(Edge(leaf, hub, 1.0))
        return DirectInfluenceGraph(spec.n + 1, tuple(edges))
    raise TypeError(f"unknown family spec {spec!r}")


def _residue_mass(lam: float, s: int, n: int) -> float:
    """P(K = s mod n) under the length law: the sum of pmf(lam, nk + s) over
    k >= 0, stopped past the mode once a term no longer changes the sum."""
    total, m = 0.0, s
    p = pmf(lam, m)
    while p > 0.0 and (m <= lam or total + p != total):
        total += p
        m += n
        p = pmf(lam, m)
    return total


def closed_form_pwp(spec: FamilySpec, lam: float = 1.0) -> np.ndarray:
    """Exact influence matrix of the family under exponential walk weighting.

    Line:   T[j+s, j] = lam^s / (e_plus(lam) s!) = pmf(lam, s)  for 1 <= s <= n-j.
    Cycle:  T[j+s mod n, j] = sum_k pmf(lam, nk+s)               for s in 1..n.
    Jordan: T[j+s, j] = e^{a lam} lam^s / ((e^lam - 1) s!)  for s >= 1,
            T[j, j]   = (e^{a lam} - 1) / (e^lam - 1).
    Star:   hub-hub       (cosh(lam sqrt n) - 1) / e_plus(lam),
            hub<->leaf    sinh(lam sqrt n) / (sqrt n  e_plus(lam)),
            leaf-leaf     (cosh(lam sqrt n) - 1) / (n e_plus(lam)).

    Line and cycle entries are probabilities of the length law
    (:func:`influx.stochastic.pmf`, which moves to log space where the direct
    form would overflow).  The Jordan and star exponentials are divided by
    e_plus(lam) as lam / e_plus(lam) and in log space, so they stay finite
    wherever the quotient is, and normal at a subnormal lam.
    Raises NumericOverflow when e_plus(lam) or an entry of the matrix leaves
    the float range.
    """
    _positive("lam", lam)
    eplus = _expm1(lam)
    try:
        t = _closed_form(spec, lam, eplus)
    except OverflowError:
        t = math.inf
    return _finite(f"closed form of {spec!r} at lambda = {lam!r}", t)


def _closed_form(spec: FamilySpec, lam: float, eplus: float) -> np.ndarray:
    if isinstance(spec, (Line, Cycle)):
        n = spec.n
        j = np.arange(n)
        t = np.zeros((n, n))
        if isinstance(spec, Line):
            for s in range(1, n):
                t[j[s:], j[:-s]] = pmf(lam, s)
        else:
            for s in range(1, n + 1):
                t[(j + s) % n, j] = _residue_mass(lam, s, n)
        return t
    # lam / e_plus(lam) lies in (3e-306, 1] for every lam the gate lets
    # through, so dividing by it first keeps a subnormal lam's factors normal
    ratio = lam / eplus
    if isinstance(spec, Jordan):
        n = spec.n
        j = np.arange(n)
        x = spec.a * lam
        t = np.zeros((n, n))
        if x > 1.0:  # e^x - 1 = e^x (1 - e^-x) keeps the diagonal finite for large x
            t[j, j] = math.exp(x - math.log(eplus)) * -math.expm1(-x)
        else:
            t[j, j] = ratio * _expm1_over(x) * spec.a
        # e^x lam / e_plus(lam) times lam^(s-1) / s!, as a running product
        # m 2^e: e^x = (e^(x/2))^2 is a product of normal floats for |x| < 1416,
        # past which every entry leaves the float range
        m, e = math.frexp(math.exp(x / 2.0))
        m, shift = math.frexp(m * m * ratio)
        e = 2 * e + shift
        for s in range(1, n):
            t[j[s:], j[:-s]] = math.ldexp(m, e)
            m, shift = math.frexp(m * (lam / (s + 1)))
            e += shift
        return t
    if isinstance(spec, Star):
        m = spec.n
        hub = m  # 0-based index of the hub
        x = lam * math.sqrt(m)
        # cosh x - 1 = e^x (1 - e^-x)^2 / 2 and sinh x = e^x (1 - e^-2x) / 2,
        # over e_plus(lam) = lam / ratio with lam = x / sqrt(m); the factors
        # are multiplied as logs, so only an entry past the float range overflows
        log_growth = x + math.log(ratio)  # log(e^x lam / e_plus(lam))
        cosh_minus_one = math.exp(log_growth + 2.0 * math.log(_expm1_over(-x))) * x * math.sqrt(m)
        cosh_minus_one /= 2.0
        hub_leaf = math.exp(log_growth + math.log(_expm1_over(-2.0 * x)))
        t = np.full((m + 1, m + 1), cosh_minus_one / m)
        t[hub, :] = hub_leaf
        t[:, hub] = hub_leaf
        t[hub, hub] = cosh_minus_one
        return t
    raise TypeError(f"unknown family spec {spec!r}")


def _expm1_over(y: float) -> float:
    """(e^y - 1) / y, and its limit 1 at y = 0."""
    return math.expm1(y) / y if y else 1.0


def line_argmax_offset(lam: float) -> int:
    """Offset s at which the line's T[j+s, j] peaks: floor(lam) if lam >= 1, else 1."""
    _positive("lam", lam)
    return math.floor(lam) if lam >= 1.0 else 1
