"""influx: indirect-influence matrices and rankings on weighted digraphs.

Three engines over the same direct-influence matrix D (entry (i, j) holds
the weight of edge j -> i), each taking T's row and column sums from
matrix-vector products on a dense D or an Operator such as a graph's edge
columns (to_operator, web_operator), pwp's and micmac's on one loop over
the powers of D; T itself comes from the matrix kernels (mat_pow, pwp_matrix):

* micmac    -- T = D^k for a small fixed k
* pagerank  -- T = limit of powers of the damped, repaired column-stochastic
               matrix p*repaired(D) + (1-p)*E_n
* pwp       -- T = e_plus(lam*D) / e_plus(lam), a truncated-Poisson weighting
               over walks of every length >= 1

plus brute-force walk valuations (paths), a sampled estimator and the
length-law statistics (stochastic), and the classic example families with
their exact matrices (families).
"""

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    DuplicateEdge,
    IndexOutOfRange,
    InfluenceError,
    MalformedLine,
    NoConvergence,
    NoConvergenceWithinBudget,
    NonFiniteWeight,
    NotSubstochastic,
    NumericOverflow,
)
from .families import Cycle, FamilySpec, Jordan, Line, Star, build, closed_form_pwp, line_argmax_offset
from .graph import (
    DirectInfluenceGraph,
    Edge,
    format_edge_list,
    from_matrix,
    is_column_stochastic,
    parse_edge_list,
    to_matrix,
    to_operator,
    web_normalize,
    web_operator,
)
from .linalg import (
    Operator,
    SeriesReport,
    exp_plus,
    exp_plus_vectors,
    mat_pow,
    pwp_matrix,
    pwp_matrix_report,
)
from .methods import (
    IndirectInfluenceResult,
    InfluenceVectors,
    influence_dependence,
    micmac,
    pagerank,
    pagerank_repair,
    pwp,
    rank_vertices,
)
from .paths import (
    Path,
    count_paths,
    damped_matrix,
    enumerate_paths,
    omega_lambda_sum,
    omega_lambda_tail_bound,
    omega_sum,
    rho_sum,
)
from .stochastic import (
    MomentSummary,
    bernoulli_numbers,
    bernoulli_series,
    chebyshev_bound,
    estimate_and_exact,
    estimate_and_exact_vectors,
    estimate_from_lengths,
    make_rng,
    moments,
    monte_carlo_pwp,
    pmf,
    sample_lengths,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Cycle",
    "DimensionMismatch",
    "DirectInfluenceGraph",
    "DomainError",
    "DuplicateEdge",
    "Edge",
    "FamilySpec",
    "IndexOutOfRange",
    "IndirectInfluenceResult",
    "InfluenceError",
    "InfluenceVectors",
    "Jordan",
    "Line",
    "MalformedLine",
    "MomentSummary",
    "NoConvergence",
    "NoConvergenceWithinBudget",
    "NonFiniteWeight",
    "NotSubstochastic",
    "NumericOverflow",
    "Operator",
    "Path",
    "SeriesReport",
    "Star",
    "bernoulli_numbers",
    "bernoulli_series",
    "build",
    "chebyshev_bound",
    "closed_form_pwp",
    "count_paths",
    "damped_matrix",
    "enumerate_paths",
    "estimate_and_exact",
    "estimate_and_exact_vectors",
    "estimate_from_lengths",
    "exp_plus",
    "exp_plus_vectors",
    "format_edge_list",
    "from_matrix",
    "influence_dependence",
    "is_column_stochastic",
    "line_argmax_offset",
    "make_rng",
    "mat_pow",
    "micmac",
    "moments",
    "monte_carlo_pwp",
    "omega_lambda_sum",
    "omega_lambda_tail_bound",
    "omega_sum",
    "pagerank",
    "pagerank_repair",
    "parse_edge_list",
    "pmf",
    "pwp",
    "pwp_matrix",
    "pwp_matrix_report",
    "rank_vertices",
    "rho_sum",
    "sample_lengths",
    "to_matrix",
    "to_operator",
    "web_normalize",
    "web_operator",
]
