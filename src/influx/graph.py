"""Weighted directed graphs of direct influences and their matrix encoding.

Vertices are numbered 1..n in the edge list and every report.  The matrix
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


# The characters of a data line: tab, and printable ASCII but "_".  int and
# float would read "1_0" as 10, any Unicode digit as a digit and a form feed
# as a space.
_DATA = bytes([9, *range(32, 95), *range(96, 127)])


def _only(text: str, allowed: bytes) -> bool:
    """Whether every character of text is one of `allowed`."""
    return text.isascii() and not text.encode().translate(None, allowed)


def _newlines(text: str) -> str:
    r"""text with each "\r\n" and "\r" line end as "\n"."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines(text) -> list[str]:
    r"""A string's lines, broken only at "\n", "\r\n" and "\r", or an
    iterable's items with one such line end taken off each; an item that is
    not a str, such as each int of a bytes, is a ValueError."""
    if isinstance(text, str):
        return _newlines(text).split("\n")
    lines = list(text)
    for line in lines:
        if not isinstance(line, str):
            raise ValueError(f"an edge list line must be a str, got {type(line).__name__} {line!r}")
    return [line.removesuffix("\n").removesuffix("\r") for line in lines]


def _skipped(line: str) -> bool:
    """Whether a line is blank or a comment."""
    line = line.strip()
    return not line or line[0] == "#"


def _read_columns(text: str):
    """(largest index, source, target, weight) as arrays, a column at a
    time, when every line of text is blank, a comment or a data line that
    parses with a finite weight; None otherwise."""
    body = text.strip("\n")
    if "#" in body or "\n\n" in body:
        body = "\n".join(line for line in body.split("\n") if not _skipped(line))
    if not _only(body, _DATA + b"\n"):
        return None
    edges = body.count("\n") + 1
    # each weight keeps its line end, so a line of other than three fields
    # puts a line end into a source or target cell
    cells = body.replace("\n", "\n,").split(",")
    if len(cells) != 3 * edges:
        return None
    source, target, weight = cells[0::3], cells[1::3], cells[2::3]
    del cells
    if "\n" in "".join(source) or "\n" in "".join(target):
        return None
    try:
        source = np.fromiter(map(int, source), np.int64, edges)
        target = np.fromiter(map(int, target), np.int64, edges)
        weight = np.fromiter(map(float, weight), float, edges)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(weight).all():
        return None
    return int(max(source.max(), target.max())), source, target, weight


def _read_lines(lines):
    """(largest index, source, target, weight) as lists, line by line, so
    the first bad line raises with its own number."""
    source, target, weight = [], [], []
    for line_no, raw in enumerate(lines, 1):
        if _skipped(raw):
            continue
        try:
            if not _only(raw, _DATA):
                raise ValueError
            s, t, w = raw.split(",")  # int and float take the spaces and tabs around a field
            source.append(int(s))
            target.append(int(t))
            weight.append(float(w))
        except ValueError:
            raise MalformedLine(line_no, raw) from None
        if not math.isfinite(weight[-1]):
            raise NonFiniteWeight(weight[-1], line_no=line_no)
    return max(max(source, default=0), max(target, default=0)), source, target, weight


def parse_edge_list(text, n: int | None = None) -> DirectInfluenceGraph:
    r"""Parse "source,target,weight" lines into a graph.

    `text` may be a string, whose lines end at "\n", "\r\n" or "\r" only,
    or any iterable of lines.  Lines that are blank or start with '#' are
    skipped.  Every other line must hold only tab and printable ASCII but
    '_', or it is a MalformedLine: Python's int and float would read "1_0"
    as 10, any Unicode digit as a digit and a form feed as a space.  The
    vertex count is the largest index seen, or `n`, an integer >= 0, if
    that is larger.  Duplicate (source, target) pairs are a hard error
    rather than last-wins, so data bugs surface immediately.

    A string is read a column at a time; any text that way does not read
    is read again line by line, so an error names its line.
    """
    columns = _read_columns(_newlines(text)) if isinstance(text, str) else None
    largest, source, target, weight = columns or _read_lines(_lines(text))
    if n is not None:
        _at_least("n", n, 0)
    return _graph(max(largest, n or 0), source, target, weight)


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

