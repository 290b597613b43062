"""Exceptions raised by the influx library.

Each class carries the command-line exit code it maps to: 2 for input that
does not parse, 3 for everything numeric.
"""

import math


class InfluenceError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 3


class MalformedLine(InfluenceError):
    """An edge-list line that does not read as "source,target,weight"."""

    exit_code = 2

    def __init__(self, line_no: int, text: str):
        super().__init__(f"line {line_no}: expected 'source,target,weight', got {text!r}")
        self.line_no = line_no
        self.text = text


class NonFiniteWeight(InfluenceError):
    """An edge weight that parses as a real number but is nan or infinite."""

    exit_code = 2

    def __init__(self, value, line_no=None):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}weight {value!r} is not finite")
        self.value = value
        self.line_no = line_no


class DuplicateEdge(InfluenceError):
    """Two edges share the same (source, target) pair."""

    exit_code = 2

    def __init__(self, source: int, target: int):
        super().__init__(f"duplicate edge {source}->{target}")
        self.source = source
        self.target = target


class IndexOutOfRange(InfluenceError):
    """A vertex index outside [1, n]."""

    exit_code = 2

    def __init__(self, index: int, n: int):
        super().__init__(f"vertex index {index} outside [1, {n}]")
        self.index = index
        self.n = n


class DimensionMismatch(InfluenceError, ValueError):
    """Matrix shapes incompatible with the requested operation."""


class NoConvergenceWithinBudget(InfluenceError):
    """The truncated series did not meet its tolerance within the term cap."""

    def __init__(self, terms: int, bound: float, tol: float):
        super().__init__(
            f"series tail bound {bound:.3e} still above tol {tol:.3e} after {terms} terms"
        )
        self.terms = terms
        self.bound = bound
        self.tol = tol


class NumericOverflow(NoConvergenceWithinBudget):
    """A finite input whose result leaves the float range.

    Raised by influx.linalg._finite, the one check every result goes
    through, where an entry is inf or nan, and where e^lam - 1 overflows.  A
    series whose terms overflow can never meet its tolerance, hence the base
    class; `terms` counts the series terms summed before the overflow.
    """

    def __init__(self, what: str, terms: int = 0, tol: float = math.nan):
        InfluenceError.__init__(self, f"{what} overflows the float range")
        self.terms = terms
        self.bound = math.inf
        self.tol = tol


class NoConvergence(InfluenceError):
    """Power iteration ran out of iterations before meeting its tolerance."""

    def __init__(self, iterations: int, residual: float, tol: float):
        super().__init__(
            f"power iteration residual {residual:.3e} above tol {tol:.3e} "
            f"after {iterations} iterations"
        )
        self.iterations = iterations
        self.residual = residual
        self.tol = tol


class NotSubstochastic(InfluenceError):
    """A column of the input matrix sums to something other than 0 or 1."""

    def __init__(self, column: int, total: float):
        super().__init__(f"column {column} sums to {total!r}; expected 0 or 1")
        self.column = column
        self.total = total


class BudgetExceeded(InfluenceError):
    """enumerate_paths would list more paths than its budget allows."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(f"estimated {estimate} paths exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


class DomainError(InfluenceError):
    """An argument outside the mathematical domain of the function."""
