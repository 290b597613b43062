"""Weighted directed graphs of direct influences and their matrix encoding.

Vertices are numbered 1..n in every file format and report.  The matrix
encoding puts the weight of the edge j -> i at row i, column j, so column j
collects everything vertex j acts on directly and row i collects everything
acting directly on vertex i.  All types are immutable and all operations are
pure functions.
"""

import math
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


@dataclass(frozen=True)
class DirectInfluenceGraph:
    """Directed graph without multiple edges; self-loops are allowed.

    Edges are stored sorted by (source, target), so two graphs built from
    the same edge set compare equal regardless of input order.
    """

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        normalized = []
        seen = set()
        for e in self.edges:
            edge = Edge(int(e[0]), int(e[1]), float(e[2]))
            for v in (edge.source, edge.target):
                if not 1 <= v <= self.n:
                    raise IndexOutOfRange(v, self.n)
            if not math.isfinite(edge.weight):
                raise NonFiniteWeight(edge.weight)
            key = (edge.source, edge.target)
            if key in seen:
                raise DuplicateEdge(*key)
            seen.add(key)
            normalized.append(edge)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise IndexOutOfRange(v, self.n)
        return sum(1 for e in self.edges if e.source == v)

    def reverse(self) -> "DirectInfluenceGraph":
        """The graph with every edge direction flipped."""
        return DirectInfluenceGraph(
            self.n, tuple(Edge(e.target, e.source, e.weight) for e in self.edges)
        )


def parse_edge_list(text, n: int | None = None) -> DirectInfluenceGraph:
    """Parse "source,target,weight" lines into a graph.

    `text` may be a string or any iterable of lines.  Lines that are blank
    or start with '#' are skipped.  The vertex count is the largest index
    seen, or `n` if that is larger.  Duplicate (source, target) pairs are a
    hard error rather than last-wins, so data bugs surface immediately.
    """
    if isinstance(text, str):
        lines: Iterable[str] = text.splitlines()
    else:
        lines = text
    edges = []
    max_seen = 0
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            source, target, weight = line.split(",")
            source, target, weight = int(source), int(target), float(weight)
        except ValueError:
            raise MalformedLine(line_no, raw.rstrip("\n")) from None
        if not math.isfinite(weight):
            raise NonFiniteWeight(weight, line_no=line_no)
        if source < 1 or target < 1:
            raise IndexOutOfRange(min(source, target), max(max_seen, n or 0))
        edges.append(Edge(source, target, weight))
        max_seen = max(max_seen, source, target)
    return DirectInfluenceGraph(max(max_seen, n or 0), tuple(edges))


def _columns(g: DirectInfluenceGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g's edges as arrays of 0-based sources, 0-based targets and weights."""
    source, target, weight = zip(*g.edges) if g.edges else ((), (), ())
    return (np.array(source, dtype=np.intp) - 1, np.array(target, dtype=np.intp) - 1,
            np.array(weight, dtype=float))


def to_matrix(g: DirectInfluenceGraph) -> np.ndarray:
    """Dense direct-influence matrix: entry (i, j) is the weight of edge j -> i."""
    source, target, weight = _columns(g)
    d = np.zeros((g.n, g.n))
    d[target, source] = weight  # no two edges share a (source, target) pair
    return d


def from_matrix(d: np.ndarray) -> DirectInfluenceGraph:
    """Inverse of :func:`to_matrix`; nonzero entries become edges."""
    d = _square(d)
    target, source = np.nonzero(d)
    edges = zip((source + 1).tolist(), (target + 1).tolist(), d[target, source].tolist())
    return DirectInfluenceGraph(d.shape[0], tuple(edges))


def web_normalize(g: DirectInfluenceGraph) -> np.ndarray:
    """Structure-only matrix with entry (i, j) = 1/out(j) for each edge j -> i.

    Edge weights are ignored.  Columns of vertices with no outgoing edges are
    all-zero; every other column sums to 1.
    """
    source, target, _ = _columns(g)
    d = np.zeros((g.n, g.n))
    d[target, source] = 1.0 / np.bincount(source, minlength=g.n)[source]
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
