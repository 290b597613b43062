"""Weighted directed graphs of direct influences and their matrix encoding.

Vertices are numbered 1..n in every file format and report.  The matrix
encoding puts the weight of the edge j -> i at row i, column j, so column j
collects everything vertex j acts on directly and row i collects everything
acting directly on vertex i.  It is taken on the graph's edge columns as an
Operator (to_operator, web_operator), and formed densely (to_matrix,
web_normalize) only where a whole matrix is needed.  All types are
immutable and all operations are pure functions.
"""

import math
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    MalformedLine,
    NonFiniteWeight,
)
from .linalg import Operator, _at_least, _integers, _square


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
        edges = tuple(edges)
        for edge in edges:
            try:
                if isinstance(edge, (Mapping, Set)):
                    raise TypeError  # a dict unpacks as its keys, a set in no set order
                source, target, weight = edge
            except (TypeError, ValueError):
                raise ValueError(
                    f"an edge must be a (source, target, weight) triple, got {edge!r}") from None
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
        _at_least("v", v, -math.inf)
        if not 1 <= v <= self.n:
            raise IndexOutOfRange(v, self.n)
        return int(np.searchsorted(self.source, v, "right") - np.searchsorted(self.source, v))

    def reverse(self) -> "DirectInfluenceGraph":
        """The graph with every edge direction flipped."""
        return _graph(self.n, self.target, self.source, self.weight)


def _graph(n: int, source, target, weight) -> DirectInfluenceGraph:
    """These columns as a graph, through the package's one edge check."""
    _at_least("vertex count", n, 0)
    try:
        ends = np.stack((_integers("source", source), _integers("target", target)))
    except OverflowError:
        raise IndexOutOfRange(max((*source, *target), key=abs), 2**63 - 1) from None
    weight = np.asarray(weight, dtype=float)
    outside = ((ends < 1) | (ends > n)).T  # edge by edge, as the input lists them
    if outside.any():
        raise IndexOutOfRange(int(ends.T[outside][0]), n)
    if not np.isfinite(weight).all():
        raise NonFiniteWeight(float(weight[~np.isfinite(weight)][0]))
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
    or start with '#' are skipped.  Every other line must be ASCII with no
    '_', or it is a MalformedLine: Python's int and float would read "1_0"
    as 10 and any Unicode digit as a digit.  The vertex count is the
    largest index seen, or `n`, an integer >= 0, if that is larger.
    Duplicate (source, target) pairs are a hard error rather than
    last-wins, so data bugs surface immediately.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    source, target, weight = [], [], []
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not raw.isascii() or "_" in line:
                raise ValueError
            s, t, w = line.split(",")
            source.append(int(s))
            target.append(int(t))
            weight.append(float(w))
        except ValueError:
            raise MalformedLine(line_no, raw.rstrip("\n")) from None
        if not math.isfinite(weight[-1]):
            raise NonFiniteWeight(weight[-1], line_no=line_no)
    if n is not None:
        _at_least("n", n, 0)
    n = max(max(source, default=0), max(target, default=0), n or 0)
    return _graph(n, source, target, weight)


def _check_size(n: int) -> None:
    """Refuse an n whose n x n float matrix is past numpy's size limit, as
    numpy does, allocating nothing (a zero-stride view): the ValueError is
    raised as the MemoryError a failed allocation is.  An n past that limit
    also makes each n-vector at least 8 GiB."""
    try:
        np.ndarray((n, n), buffer=bytearray(8), strides=(0, 0))
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


def _edge_operator(g: DirectInfluenceGraph, values: np.ndarray) -> Operator:
    """The matrix with `values` at (target, source), one per edge."""
    _check_size(g.n)
    return Operator(g.n, g.target - 1, g.source - 1, values)


def _matrix(g: DirectInfluenceGraph, values: np.ndarray) -> np.ndarray:
    _check_size(g.n)
    d = np.zeros((g.n, g.n))
    d[g.target - 1, g.source - 1] = values  # no two edges share a (source, target) pair
    return d


def to_operator(g: DirectInfluenceGraph) -> Operator:
    """The direct-influence matrix as an Operator on the edge columns, in
    O(edges) memory: entry (i, j) is the weight of edge j -> i."""
    return _edge_operator(g, g.weight)


def to_matrix(g: DirectInfluenceGraph) -> np.ndarray:
    """Dense direct-influence matrix: entry (i, j) is the weight of edge j -> i."""
    return _matrix(g, g.weight)


def from_matrix(d: np.ndarray) -> DirectInfluenceGraph:
    """Inverse of :func:`to_matrix`; nonzero entries become edges."""
    d = _square(d)
    source, target = np.nonzero(d.T)
    return _graph(d.shape[0], source + 1, target + 1, d[target, source])


def web_operator(g: DirectInfluenceGraph) -> Operator:
    """The structure-only matrix of :func:`web_normalize` as an Operator on
    the edge columns, in O(edges) memory."""
    return _edge_operator(g, 1.0 / np.bincount(g.source)[g.source])


def web_normalize(g: DirectInfluenceGraph) -> np.ndarray:
    """Structure-only matrix with entry (i, j) = 1/out(j) for each edge j -> i.

    Edge weights are ignored.  Columns of vertices with no outgoing edges are
    all-zero; every other column sums to 1.
    """
    return web_operator(g)._array()


def is_column_stochastic(d: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff all entries are >= -tol and every column sums to 1 within tol,
    for a square, finite d."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be >= 0 and finite, got {tol!r}")
    d = _square(d)
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
    """Parse the matrix format of :func:`format_matrix_text`; errors name the text's own lines."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)]
    lines = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
    line_no, head = lines[0] if lines else (1, "")
    try:
        n = int(head)
    except ValueError:
        n = -1
    if n < 0:
        raise MalformedLine(line_no, head, "a matrix row count n >= 0")
    if len(lines) != n + 1:
        raise MalformedLine(lines[-1][0], str(len(lines) - 1), f"{n} matrix rows")
    d = np.zeros((n, n))
    row = f"a matrix row of {n} comma-separated numbers"
    for i, (line_no, line) in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != n:
            raise MalformedLine(line_no, line, row)
        try:
            d[i] = [float(p) for p in parts]
        except ValueError:
            raise MalformedLine(line_no, line, row) from None
        if not np.all(np.isfinite(d[i])):
            raise NonFiniteWeight(float(d[i][~np.isfinite(d[i])][0]), line_no=line_no)
    return d
