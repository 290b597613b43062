"""influx: indirect-influence matrices and rankings on weighted digraphs.

Three engines over the same direct-influence matrix D (entry (i, j) holds
the weight of edge j -> i):

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
    format_matrix_text,
    from_matrix,
    is_column_stochastic,
    parse_edge_list,
    read_matrix_text,
    to_matrix,
    web_normalize,
)
from .linalg import (
    SeriesReport,
    exp_plus,
    exp_plus_vectors,
    mat_pow,
    mat_pow_sum,
    mat_pow_vectors,
    pwp_matrix,
    pwp_matrix_report,
    pwp_vectors_report,
)
from .methods import (
    IndirectInfluenceResult,
    InfluenceVectors,
    MethodConfig,
    MicmacConfig,
    PageRankConfig,
    PWPConfig,
    influence_dependence,
    micmac,
    micmac_vectors,
    pagerank,
    pagerank_repair,
    pwp,
    pwp_vectors,
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
    estimate_from_lengths,
    make_rng,
    moments,
    monte_carlo_pwp,
    pmf,
    sample_length,
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
    "MethodConfig",
    "MicmacConfig",
    "MomentSummary",
    "NoConvergence",
    "NoConvergenceWithinBudget",
    "NonFiniteWeight",
    "NotSubstochastic",
    "NumericOverflow",
    "PWPConfig",
    "PageRankConfig",
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
    "estimate_from_lengths",
    "exp_plus",
    "exp_plus_vectors",
    "format_edge_list",
    "format_matrix_text",
    "from_matrix",
    "influence_dependence",
    "is_column_stochastic",
    "line_argmax_offset",
    "make_rng",
    "mat_pow",
    "mat_pow_sum",
    "mat_pow_vectors",
    "micmac",
    "micmac_vectors",
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
    "pwp_vectors",
    "pwp_vectors_report",
    "rank_vertices",
    "read_matrix_text",
    "rho_sum",
    "sample_length",
    "sample_lengths",
    "to_matrix",
    "web_normalize",
]
