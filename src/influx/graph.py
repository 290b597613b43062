"""Weighted directed graphs of direct influences and their matrix encoding.

Vertices are numbered 1..n in every file format and report.  The matrix
encoding, formed from a graph's edge columns only where needed, puts the
weight of the edge j -> i at row i, column j, so column j collects everything
vertex j acts on directly and row i collects everything acting directly on
vertex i.  All types are immutable and all operations are pure functions.
"""

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    MalformedLine,
    NonFiniteWeight,
)
from .linalg import _square


class Edge(NamedTuple):
    source: int
    target: int
    weight: float


@dataclass(frozen=True, init=False, eq=False)
class DirectInfluenceGraph:
    """Directed graph without multiple edges; self-loops are allowed.

    Held as read-only `source`, `target` (1-based int64) and `weight` columns
    sorted by (source, target), so equal edge sets give equal graphs."""

    n: int
    source: np.ndarray
    target: np.ndarray
    weight: np.ndarray

    def __init__(self, n: int, edges: Iterable = ()):
        vars(self).update(vars(_graph(n, *(tuple(zip(*edges)) or ((), (), ())))))

    def __eq__(self, other):
        return type(other) is type(self) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge, self.source.tolist(), self.target.tolist(), self.weight.tolist()))

    @property
    def edge_count(self) -> int:
        return self.source.size

    def out_degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise IndexOutOfRange(v, self.n)
        return int(np.searchsorted(self.source, v, "right") - np.searchsorted(self.source, v))

    def reverse(self) -> "DirectInfluenceGraph":
        """The graph with every edge direction flipped."""
        return _graph(self.n, self.target, self.source, self.weight)


def _graph(n: int, source, target, weight, line_nos=None) -> DirectInfluenceGraph:
    """These columns as a graph, through the package's one edge check."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    try:
        ends = np.asarray((source, target), dtype=np.int64)
    except OverflowError:
        raise IndexOutOfRange(max((*source, *target), key=abs), 2**63 - 1) from None
    weight = np.asarray(weight, dtype=float)
    outside = ((ends < 1) | (ends > n)).T  # edge by edge, as the input lists them
    if outside.any():
        raise IndexOutOfRange(int(ends.T[outside][0]), n)
    if not np.isfinite(weight).all():
        i = np.argmin(np.isfinite(weight))
        raise NonFiniteWeight(float(weight[i]), line_no=None if line_nos is None else line_nos[i])
    order = np.lexsort(ends[::-1])  # stable, so each pair's occurrences keep input order
    later = order[1:][(np.diff(ends[:, order]) == 0).all(axis=0)]  # second and later ones
    if later.size:
        raise DuplicateEdge(*ends[:, later.min()].tolist())
    ends, weight = ends[:, order], weight[order]
    ends.flags.writeable = weight.flags.writeable = False
    g = object.__new__(DirectInfluenceGraph)
    vars(g).update(n=n, source=ends[0], target=ends[1], weight=weight)  # past the frozen setattr
    return g


def parse_edge_list(text, n: int | None = None) -> DirectInfluenceGraph:
    """Parse "source,target,weight" lines into a graph.

    `text` may be a string or any iterable of lines.  Lines that are blank
    or start with '#' are skipped.  The vertex count is the largest index
    seen, or `n` if that is larger.  Duplicate (source, target) pairs are a
    hard error rather than last-wins, so data bugs surface immediately.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    rows = []
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            source, target, weight = line.split(",")
            rows.append((int(source), int(target), float(weight), line_no))
        except ValueError:
            raise MalformedLine(line_no, raw.rstrip("\n")) from None
    source, target, weight, line_nos = tuple(zip(*rows)) or ((), (), (), ())
    n = max(max(source, default=0), max(target, default=0), n or 0)
    return _graph(n, source, target, weight, line_nos)


def to_matrix(g: DirectInfluenceGraph) -> np.ndarray:
    """Dense direct-influence matrix: entry (i, j) is the weight of edge j -> i."""
    d = np.zeros((g.n, g.n))
    d[g.target - 1, g.source - 1] = g.weight  # no two edges share a (source, target) pair
    return d


def from_matrix(d: np.ndarray) -> DirectInfluenceGraph:
    """Inverse of :func:`to_matrix`; nonzero entries become edges."""
    d = _square(d)
    source, target = np.nonzero(d.T)
    return _graph(d.shape[0], source + 1, target + 1, d[target, source])


def web_normalize(g: DirectInfluenceGraph) -> np.ndarray:
    """Structure-only matrix with entry (i, j) = 1/out(j) for each edge j -> i.

    Edge weights are ignored.  Columns of vertices with no outgoing edges are
    all-zero; every other column sums to 1.
    """
    d = np.zeros((g.n, g.n))
    d[g.target - 1, g.source - 1] = 1.0 / np.bincount(g.source)[g.source]
    return d


def is_column_stochastic(d: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff all entries are >= -tol and every column sums to 1 within tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    d = np.asarray(d, dtype=float)
    if d.size == 0:
        return True
    if np.any(d < -tol):
        return False
    return bool(np.all(np.abs(d.sum(axis=0) - 1.0) <= tol))


def format_edge_list(g: DirectInfluenceGraph) -> str:
    """Canonical edge-list text: one "source,target,weight" line per edge."""
    return "".join(f"{e.source},{e.target},{e.weight!r}\n" for e in g.edges)


def format_matrix_text(d: np.ndarray) -> str:
    """Matrix file format: first line n, then n comma-separated rows."""
    d = _square(d)
    lines = [str(d.shape[0])]
    for row in d:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def read_matrix_text(text: str) -> np.ndarray:
    """Parse the matrix file format written by :func:`format_matrix_text`."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MalformedLine(1, "")
    try:
        n = int(lines[0])
    except ValueError:
        raise MalformedLine(1, lines[0]) from None
    if len(lines) != n + 1:
        raise MalformedLine(len(lines), f"expected {n} rows, found {len(lines) - 1}")
    d = np.zeros((n, n))
    for i, line in enumerate(lines[1:], 1):
        parts = line.split(",")
        if len(parts) != n:
            raise MalformedLine(i + 1, line)
        try:
            d[i - 1] = [float(p) for p in parts]
        except ValueError:
            raise MalformedLine(i + 1, line) from None
        if not np.all(np.isfinite(d[i - 1])):
            raise NonFiniteWeight(line, line_no=i + 1)
    return d
