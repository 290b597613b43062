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

from .errors import NumericOverflow
from .graph import DirectInfluenceGraph, Edge
from .linalg import _expm1, _positive
from .stochastic import pmf


@dataclass(frozen=True)
class _Family:
    """A family member of size n >= 1; subclasses compare unequal to each other."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


class Line(_Family):
    """The directed line 1 -> 2 -> ... -> n."""


class Cycle(_Family):
    """The directed line closed by n -> 1."""


@dataclass(frozen=True)
class Jordan(_Family):
    """The line plus a self-loop of weight a on every vertex."""

    a: float = 1.0


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
    e_plus(lam) in log space, so they stay finite wherever the quotient is.
    Raises NumericOverflow when e_plus(lam) or an entry of the matrix leaves
    the float range.
    """
    _positive("lam", lam)
    eplus = _expm1(lam)
    try:
        t = _closed_form(spec, lam, eplus)
    except OverflowError:
        t = None
    if t is None or not np.isfinite(t).all():
        raise NumericOverflow(f"closed form of {spec!r} at lambda = {lam!r}")
    return t


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
    if isinstance(spec, Jordan):
        n = spec.n
        x = spec.a * lam
        growth = math.exp(x - math.log(eplus))  # e^x / e_plus(lam), e^x unformed
        # e^x - 1 = e^x (1 - e^-x) keeps the diagonal finite for large x > 0
        diag = growth * -math.expm1(-x) if x > 0 else math.expm1(x) / eplus
        t = np.zeros((n, n))
        for j in range(1, n + 1):
            t[j - 1, j - 1] = diag
            for s in range(1, n - j + 1):
                t[j + s - 1, j - 1] = growth * lam**s / math.factorial(s)
        return t
    if isinstance(spec, Star):
        m = spec.n
        hub = m  # 0-based index of the hub
        x = lam * math.sqrt(m)
        # cosh x - 1 = e^x (1 - e^-x)^2 / 2 and sinh x = e^x (1 - e^-2x) / 2
        half_growth = math.exp(x - math.log(eplus)) / 2.0
        cosh_minus_one = half_growth * math.expm1(-x) ** 2
        hub_leaf = half_growth * -math.expm1(-2.0 * x) / math.sqrt(m)
        t = np.full((m + 1, m + 1), cosh_minus_one / m)
        t[hub, :] = hub_leaf
        t[:, hub] = hub_leaf
        t[hub, hub] = cosh_minus_one
        return t
    raise TypeError(f"unknown family spec {spec!r}")


def line_argmax_offset(lam: float) -> int:
    """Offset s at which the line's T[j+s, j] peaks: floor(lam) if lam >= 1, else 1."""
    _positive("lam", lam)
    return math.floor(lam) if lam >= 1.0 else 1
