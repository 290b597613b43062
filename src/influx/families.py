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

from .graph import DirectInfluenceGraph, Edge


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


def _mod_factorial_series(lam: float, s: int, n: int) -> float:
    """sum_{k>=0} lam^(nk+s) / (nk+s)!, truncated when terms underflow."""
    m = s
    term = lam**s / math.factorial(s)
    total = 0.0
    while term > 1e-22 and m <= 1_000:
        total += term
        for _ in range(n):
            m += 1
            term *= lam / m
    return total


def closed_form_pwp(spec: FamilySpec, lam: float = 1.0) -> np.ndarray:
    """Exact influence matrix of the family under exponential walk weighting.

    Line:   T[j+s, j] = lam^s / (e_plus(lam) s!)            for 1 <= s <= n-j.
    Cycle:  T[j+s mod n, j] = sum_k lam^{nk+s}/(nk+s)! / e_plus(lam), s in 1..n.
    Jordan: T[j+s, j] = e^{a lam} lam^s / ((e^lam - 1) s!)  for s >= 1,
            T[j, j]   = (e^{a lam} - 1) / (e^lam - 1).
    Star:   hub-hub       (cosh(lam sqrt n) - 1) / e_plus(lam),
            hub<->leaf    sinh(lam sqrt n) / (sqrt n  e_plus(lam)),
            leaf-leaf     (cosh(lam sqrt n) - 1) / (n e_plus(lam)).
    """
    if not (lam > 0):
        raise ValueError(f"lam must be > 0, got {lam}")
    eplus = math.expm1(lam)
    if isinstance(spec, Line):
        n = spec.n
        t = np.zeros((n, n))
        for j in range(1, n):
            for s in range(1, n - j + 1):
                t[j + s - 1, j - 1] = lam**s / (eplus * math.factorial(s))
        return t
    if isinstance(spec, Cycle):
        n = spec.n
        column = [_mod_factorial_series(lam, s, n) / eplus for s in range(1, n + 1)]
        t = np.zeros((n, n))
        for j in range(n):
            for s in range(1, n + 1):
                t[(j + s) % n, j] = column[s - 1]
        return t
    if isinstance(spec, Jordan):
        n = spec.n
        ealam = math.exp(spec.a * lam)
        t = np.zeros((n, n))
        for j in range(1, n + 1):
            t[j - 1, j - 1] = math.expm1(spec.a * lam) / eplus
            for s in range(1, n - j + 1):
                t[j + s - 1, j - 1] = ealam * lam**s / (eplus * math.factorial(s))
        return t
    if isinstance(spec, Star):
        m = spec.n
        hub = m  # 0-based index of the hub
        x = lam * math.sqrt(m)
        cosh_minus_one = (math.expm1(x) + math.expm1(-x)) / 2.0
        hub_leaf = math.sinh(x) / (math.sqrt(m) * eplus)
        t = np.full((m + 1, m + 1), cosh_minus_one / (m * eplus))
        t[hub, :] = hub_leaf
        t[:, hub] = hub_leaf
        t[hub, hub] = cosh_minus_one / eplus
        return t
    raise TypeError(f"unknown family spec {spec!r}")


def line_argmax_offset(lam: float) -> int:
    """Offset s at which the line's T[j+s, j] peaks: floor(lam) if lam >= 1, else 1."""
    if not (lam > 0):
        raise ValueError(f"lam must be > 0, got {lam}")
    return math.floor(lam) if lam >= 1.0 else 1
