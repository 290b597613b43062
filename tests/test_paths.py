"""Walk enumeration and the three valuations, checked against the kernels.

Each valuation has one route: a memoized recursion (for rho, a
damped-matrix power).  The tests pin it to path-by-path sums over
enumerate_paths on small cases and to the dense kernels everywhere.
"""

import math

import numpy as np
import pytest

import influx
from influx import (
    BudgetExceeded,
    DirectInfluenceGraph,
    IndexOutOfRange,
    NumericOverflow,
    Edge,
    Path,
    build,
    Cycle,
    Jordan,
    Line,
    Star,
    count_paths,
    damped_matrix,
    enumerate_paths,
    mat_pow,
    omega_lambda_sum,
    omega_lambda_tail_bound,
    omega_sum,
    parse_edge_list,
    pmf,
    pwp_matrix,
    rho_sum,
    to_matrix,
    web_normalize,
    from_matrix,
)

L3 = parse_edge_list("1,2,1\n2,3,1")


def _random_graph(rng, n_max=5, weights=(-1.0, 0.5, 1.0, 2.0)):
    n = int(rng.integers(1, n_max + 1))
    edges = []
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            if rng.random() < 0.35:
                edges.append(Edge(s, t, float(rng.choice(weights))))
    return DirectInfluenceGraph(n, tuple(edges))


def _path_sum(g, i, j, k, budget=influx.paths.DEFAULT_BUDGET):
    """omega_sum path by path: the weight products of enumerate_paths, summed."""
    return math.fsum(p.weight_product() for p in enumerate_paths(g, i, j, k, budget))


# -- Path type -----------------------------------------------------------------

def test_path_checks_chaining():
    ok = Path((Edge(1, 2, 1.0), Edge(2, 3, 1.0)))
    assert ok.source == 1 and ok.target == 3 and ok.length == 2
    with pytest.raises(ValueError):
        Path((Edge(1, 2, 1.0), Edge(3, 1, 1.0)))
    with pytest.raises(ValueError):
        Path(())


def test_path_weight_product():
    p = Path((Edge(1, 2, 0.5), Edge(2, 2, -2.0)))
    assert p.weight_product() == -1.0


# -- enumeration -----------------------------------------------------------------

def test_line3_single_path():
    paths = enumerate_paths(L3, 3, 1, 2)
    assert len(paths) == 1
    assert paths[0].edges == (Edge(1, 2, 1.0), Edge(2, 3, 1.0))


def test_cycle3_unique_closed_walk():
    g = build(Cycle(3))
    for j in (1, 2, 3):
        paths = enumerate_paths(g, j, j, 3)
        assert len(paths) == 1
        assert paths[0].source == paths[0].target == j


def test_long_walk_runs_without_recursion():
    # one frame per step would pass Python's recursion limit here
    g = build(Cycle(3))
    paths = enumerate_paths(g, 1, 1, 3000)
    assert len(paths) == 1 and paths[0].length == 3000
    assert _path_sum(g, 1, 1, 3000) == omega_sum(g, 1, 1, 3000)


@pytest.mark.parametrize("k,s", [(3, 1), (4, 2), (5, 0), (6, 3)])
def test_jordan_path_counts_are_binomial(k, s):
    g = build(Jordan(6, 0.5))
    j = 2
    assert count_paths(g, j + s, j, k) == math.comb(k, s)
    assert len(enumerate_paths(g, j + s, j, k)) == math.comb(k, s)


def test_enumeration_is_depth_first_lexicographic():
    g = build(Star(2))  # hub is vertex 3
    paths = enumerate_paths(g, 3, 3, 2)
    assert [p.edges[0].target for p in paths] == [1, 2]


def test_no_duplicates_in_enumeration():
    rng = np.random.default_rng(20)
    for _ in range(10):
        g = _random_graph(rng)
        for k in (1, 2, 4):
            paths = enumerate_paths(g, 1, 1, k) if g.n else []
            assert len({p.edges for p in paths}) == len(paths)


def test_enumeration_is_lexicographic_on_random_graphs():
    # one edge per (source, target), so a walk from j is its target sequence
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = _random_graph(rng)
        for i in range(1, g.n + 1):
            for k in (1, 2, 3, 5):
                targets = [tuple(e.target for e in p.edges) for p in enumerate_paths(g, i, 1, k)]
                assert targets == sorted(set(targets))
                assert len(targets) == count_paths(g, i, 1, k)


def test_budget_refusal():
    g = build(Star(4))
    hub = 5
    with pytest.raises(BudgetExceeded) as err:
        enumerate_paths(g, hub, hub, 12, budget=100)
    assert err.value.estimate > 100


@pytest.mark.parametrize(
    "budget, message",
    [(None, "budget must be an integer, got None"), (1.5, "budget must be an integer, got 1.5"),
     (True, "budget must be an integer, got True"), (-1, "budget must be >= 0, got -1")],
    ids=str,
)
def test_budget_takes_the_integer_rule(budget, message):
    g = build(Line(3))
    with pytest.raises(ValueError) as err:
        enumerate_paths(g, 3, 1, 2, budget=budget)
    assert str(err.value) == message
    [path] = enumerate_paths(g, 3, 1, 2, budget=np.int64(10))
    assert (path.source, path.target) == (1, 3)


# each vertex index on Line(3), as a call on that index and the name its
# check gives it
VERTEX_INDICES = {
    "count_paths i": (lambda g, v: count_paths(g, v, 1, 2), "i"),
    "count_paths j": (lambda g, v: count_paths(g, 3, v, 2), "j"),
    "enumerate_paths i": (lambda g, v: enumerate_paths(g, v, 1, 2), "i"),
    "enumerate_paths j": (lambda g, v: enumerate_paths(g, 3, v, 2), "j"),
    "omega_sum i": (lambda g, v: omega_sum(g, v, 1, 2), "i"),
    "omega_sum j": (lambda g, v: omega_sum(g, 3, v, 2), "j"),
    "rho_sum i": (lambda g, v: rho_sum(g, v, 1, 2), "i"),
    "rho_sum j": (lambda g, v: rho_sum(g, 3, v, 2), "j"),
    "omega_lambda_sum i": (lambda g, v: omega_lambda_sum(g, v, 1, 1.0, 3), "i"),
    "omega_lambda_sum j": (lambda g, v: omega_lambda_sum(g, 3, v, 1.0, 3), "j"),
    "out_degree": (lambda g, v: g.out_degree(v), "v"),
}


@pytest.mark.parametrize("bad", [1.5, True, np.float64(3.0)], ids=repr)
@pytest.mark.parametrize("entry", VERTEX_INDICES)
def test_vertex_indices_follow_the_integer_rule(entry, bad):
    # True would be vertex 1, and np.float64(3.0) vertex 3, to a looser rule
    call, name = VERTEX_INDICES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(build(Line(3)), bad)


@pytest.mark.parametrize("bad", [0, 4])
@pytest.mark.parametrize("entry", VERTEX_INDICES)
def test_vertex_indices_outside_the_graph(entry, bad):
    call, _ = VERTEX_INDICES[entry]
    with pytest.raises(IndexOutOfRange):
        call(build(Line(3)), bad)


# edge lists whose walk sums leave the float range: 1e200 * 1e200 is inf,
# and inf - inf is nan
SELF_LOOP = "1,1,1e200\n1,2,1.0\n"
OVERFLOWS = {
    "omega_sum inf": (SELF_LOOP, lambda g: omega_sum(g, 1, 1, 2), "walk sum of length 2"),
    "omega_lambda_sum inf": (SELF_LOOP, lambda g: omega_lambda_sum(g, 1, 1, 1.0, 3), "walk sum of length 2"),
    "weight_product inf": (
        SELF_LOOP, lambda g: enumerate_paths(g, 1, 1, 2)[0].weight_product(),
        "weight product of a path of length 2",
    ),
    "omega_sum nan": (
        "1,1,1e200\n1,2,1e200\n2,2,-1e200\n", lambda g: omega_sum(g, 2, 1, 2), "walk sum of length 2"
    ),
    # the sums of length 2 and 3 are inf and -inf, which fsum cannot add
    "omega_lambda_sum inf and -inf": (
        "1,3,1e200\n3,2,1e200\n1,4,1e200\n4,5,-1e200\n5,2,1e200\n",
        lambda g: omega_lambda_sum(g, 2, 1, 1.0, 3),
        "walk sum of length 2",
    ),
}


@pytest.mark.parametrize("entry", OVERFLOWS)
def test_walk_sums_past_the_float_range_are_typed(entry):
    text, call, what = OVERFLOWS[entry]
    with pytest.raises(NumericOverflow, match=f"^{what} overflows the float range$"):
        call(parse_edge_list(text))


def test_rejects_zero_length():
    with pytest.raises(ValueError):
        enumerate_paths(L3, 1, 1, 0)
    with pytest.raises(ValueError):
        omega_sum(L3, 1, 1, 0)


# -- omega ------------------------------------------------------------------------

def test_omega_line3():
    assert omega_sum(L3, 3, 1, 2) == 1.0
    assert omega_sum(L3, 3, 1, 2) == mat_pow(to_matrix(L3), 2)[2, 0]


def test_omega_unreachable_is_zero():
    assert omega_sum(L3, 1, 3, 4) == 0.0


def test_omega_jordan_weighted_count():
    g = build(Jordan(3, 2.0))
    # three placements of the advance step, loops contribute 2*2
    assert omega_sum(g, 2, 1, 3) == 12.0


def test_omega_literal_and_recursive_agree_exactly():
    rng = np.random.default_rng(21)
    for _ in range(25):
        g = _random_graph(rng)
        i = int(rng.integers(1, g.n + 1))
        j = int(rng.integers(1, g.n + 1))
        for k in (1, 3, 5):
            lit = _path_sum(g, i, j, k)
            rec = omega_sum(g, i, j, k)
            assert lit == rec  # dyadic weights: both routes are exact


def test_omega_matches_matrix_power():
    rng = np.random.default_rng(22)
    for _ in range(25):
        g = _random_graph(rng)
        d = to_matrix(g)
        for k in range(1, 7):
            dk = mat_pow(d, k)
            for i in range(1, g.n + 1):
                for j in range(1, g.n + 1):
                    assert omega_sum(g, i, j, k) == pytest.approx(
                        dk[i - 1, j - 1], abs=1e-12
                    )


def test_omega_literal_budget():
    g = build(Star(4))
    with pytest.raises(BudgetExceeded):
        _path_sum(g, 5, 5, 20, 1000)
    # the recursion handles the same query, which no budget limits
    value = omega_sum(g, 5, 5, 20)
    assert value == pytest.approx(mat_pow(to_matrix(g), 20)[4, 4], rel=1e-12)


@pytest.mark.parametrize(
    "route",
    [lambda g, k: omega_sum(g, 7, 1, k) == 0.0, lambda g, k: enumerate_paths(g, 7, 1, k) == []],
    ids=["default", "literal"],
)
def test_zero_path_query_visits_no_walk(monkeypatch, route):
    # 5**k walks of length k leave vertex 1 of this complete digraph, but
    # none reaches vertex 7, whose one edge points out
    g = parse_edge_list(
        "".join(f"{s},{t},0.5\n" for s in range(1, 7) for t in range(1, 7) if s != t)
        + "7,1,0.5\n"
    )
    k = 12
    # the walk table reads each list once a step, the walk only from 1
    limit = g.n * (k + 1)
    scans = 0

    class Row(list):
        def __iter__(self):
            nonlocal scans
            scans += 1
            assert scans <= limit, "a walk that cannot reach i was followed"
            return super().__iter__()

    adjacency = influx.paths._adjacency
    monkeypatch.setattr(influx.paths, "_adjacency", lambda g: [Row(r) for r in adjacency(g)])
    assert count_paths(g, 7, 1, k) == 0
    scans = 0
    assert route(g, k)


# -- rho -----------------------------------------------------------------------------

def test_rho_k1_is_damped_entry():
    m = damped_matrix(L3, 0.86)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert rho_sum(L3, i, j, 1, 0.86) == m[i - 1, j - 1]


def test_rho_single_vertex_chain():
    g = parse_edge_list("1,1,1.0")
    for k in (1, 2, 7):
        assert rho_sum(g, 1, 1, k, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_rho_matches_damped_power_line3():
    m = damped_matrix(L3, 0.86)
    for k in (1, 2, 3, 4):
        mk = mat_pow(m, k)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert rho_sum(L3, i, j, k, 0.86) == pytest.approx(
                    mk[i - 1, j - 1], abs=1e-12
                )


def test_rho_literal_and_fallback_agree():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = from_matrix(web_normalize(_random_graph(rng, n_max=4)))
        if g.n == 0:
            continue
        i = int(rng.integers(1, g.n + 1))
        j = int(rng.integers(1, g.n + 1))
        for k in (1, 2, 4):
            lit = _path_sum(from_matrix(damped_matrix(g, 0.7)), i, j, k)
            fb = rho_sum(g, i, j, k, 0.7)
            assert lit == pytest.approx(fb, abs=1e-13)


def test_rho_literal_budget():
    g = build(Cycle(4))
    damped = from_matrix(damped_matrix(g, 0.86))
    with pytest.raises(BudgetExceeded):
        _path_sum(damped, 1, 1, 9, 100)
    # the damped matrix has no zero entry, so there are exactly n**(k-1) walks
    k = 5
    walks = 4 ** (k - 1)
    with pytest.raises(BudgetExceeded, match=f"estimated {walks} paths exceeds budget {walks - 1}$"):
        _path_sum(damped, 1, 1, k, walks - 1)
    value = _path_sum(damped, 1, 1, k, walks)
    assert type(value) is float
    assert value == pytest.approx(rho_sum(g, 1, 1, k, 0.86), abs=1e-13)


@pytest.mark.parametrize("p", [0.0, 1.0, 2.5, -0.5])
def test_damped_matrix_p_must_lie_inside_unit_interval(p):
    with pytest.raises(ValueError) as exc:
        damped_matrix(L3, p)
    assert str(exc.value) == f"p must lie strictly inside (0, 1), got {p}"


def test_rho_converges_to_stationary_column():
    # long powers of the damped matrix approach the rank-one limit, whose
    # every column is the stationary vector
    result = influx.pagerank(web_normalize(L3), p=0.86, tol=1e-14)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert rho_sum(L3, i, j, 40, 0.86) == pytest.approx(
                result.stationary[i - 1], abs=1e-6
            )


# -- omega_lambda ----------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
def test_omega_lambda_single_edge_closed_form(lam):
    g = build(Line(2))
    for K in (1, 4, 30):
        assert omega_lambda_sum(g, 2, 1, lam, K) == pytest.approx(
            lam / math.expm1(lam), abs=1e-15
        )


@pytest.mark.parametrize("lam", [1e-320, 1e-310])
def test_omega_lambda_at_subnormal_lambda_is_the_series(lam):
    # lam^k / k! is subnormal here, so it must not be formed before the
    # division by e^lam - 1
    g = parse_edge_list("1,2,0.3\n2,1,0.7\n1,1,0.3")
    t = pwp_matrix(to_matrix(g), lam)
    for i in (1, 2):
        for j in (1, 2):
            assert omega_lambda_sum(g, i, j, lam, 5) == pytest.approx(t[i - 1, j - 1], abs=1e-15)


def test_omega_lambda_nilpotent_truncation_exact():
    g = build(Line(5))
    t = pwp_matrix(to_matrix(g), 1.0)
    for i in range(1, 6):
        for j in range(1, 6):
            assert omega_lambda_sum(g, i, j, 1.0, 4) == pytest.approx(
                t[i - 1, j - 1], abs=1e-15
            )


def test_omega_lambda_cycle_diagonal():
    g = build(Cycle(3))
    t = pwp_matrix(to_matrix(g), 1.0)
    value = omega_lambda_sum(g, 1, 1, 1.0, 12)
    assert value == pytest.approx(t[0, 0], abs=1e-9)
    # independent arithmetic for the same truncation
    direct = sum(1.0 / math.factorial(m) for m in (3, 6, 9, 12)) / math.expm1(1.0)
    assert value == pytest.approx(direct, abs=1e-15)


def test_omega_lambda_literal_route_agrees():
    g = build(Star(2))
    lit = math.fsum(pmf(1.0, k) * _path_sum(g, 3, 3, k) for k in range(1, 9))
    rec = omega_lambda_sum(g, 3, 3, 1.0, 8)
    assert lit == pytest.approx(rec, abs=1e-15)


def test_omega_lambda_tail_bound_shrinks():
    g = build(Cycle(4))
    bounds = [omega_lambda_tail_bound(g, 1.0, K) for K in (5, 10, 20, 30)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] < 1e-30


def test_omega_lambda_tail_bound_with_no_edges_or_no_geometric_tail():
    assert omega_lambda_tail_bound(DirectInfluenceGraph(3), 1.0, 3) == 0.0
    # lambda ||D||_inf = 10 >= K + 1: the terms past K need not shrink
    assert omega_lambda_tail_bound(build(Line(3)), 10.0, 3) == math.inf


@pytest.mark.parametrize(
    "lam, K",
    [(1.0, 5), (3.0, 20), (800.0, 900), (1e12, 10**12 + 10**6), (1e15, 10**15 + 10**8)],
)
def test_omega_lambda_tail_bound_matches_mpmath(lam, K):
    # K log x and log K! cancel at large K: keep 40 digits past their size
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + int(math.log10(K))):
        x, k = mpmath.mpf(lam), mpmath.mpf(K)  # ||D||_inf = 1, so x = lam
        u = mpmath.exp(k * mpmath.log(x) - mpmath.loggamma(k + 1) - mpmath.log(mpmath.expm1(x)))
        r = x / (k + 1)
        expected = float(u * r / (1 - r))
    # 1 - r, about 1e-7 at the largest K, costs the float r its last digits
    assert omega_lambda_tail_bound(build(Line(2)), lam, K) == pytest.approx(expected, rel=1e-8)


def test_omega_lambda_tail_bound_forms_no_dense_d(monkeypatch):
    g = parse_edge_list("1,2,0.3\n2,1,0.7\n1,1,0.3\n3,1,-0.5")
    expected = [omega_lambda_tail_bound(g, 1.0, K) for K in (1, 5, 30)]

    def refuse(*args):
        raise AssertionError("the tail bound formed a dense D")

    monkeypatch.setattr(influx.paths, "to_matrix", refuse)
    monkeypatch.setattr(influx.graph, "_matrix", refuse)
    assert [omega_lambda_tail_bound(g, 1.0, K) for K in (1, 5, 30)] == expected
    # ||D||_inf = 1.5, the absolute sum of row 1 (0.7 + 0.3 + 0.5), so at K = 1
    # u = 1.5 / (e - 1) and r = 0.75
    assert expected[0] == pytest.approx(1.5 / math.expm1(1.0) * 0.75 / 0.25, rel=1e-14)


def test_omega_lambda_tail_bound_is_honest():
    g = build(Cycle(4))
    t = pwp_matrix(to_matrix(g), 1.0, 1e-16)
    for K in (6, 10, 16):
        bound = omega_lambda_tail_bound(g, 1.0, K)
        for i in (1, 2):
            err = abs(omega_lambda_sum(g, i, 1, 1.0, K) - t[i - 1, 0])
            assert err <= bound + 1e-15
