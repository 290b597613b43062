"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import ast
import dataclasses
import inspect
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import influx
from influx import (
    Cycle,
    Jordan,
    Line,
    Star,
    build,
    bernoulli_numbers,
    closed_form_pwp,
    from_matrix,
    is_column_stochastic,
    line_argmax_offset,
    make_rng,
    mat_pow,
    micmac,
    moments,
    monte_carlo_pwp,
    omega_lambda_sum,
    omega_sum,
    pagerank,
    pagerank_repair,
    pmf,
    pwp,
    pwp_matrix,
    rank_vertices,
    rho_sum,
    sample_lengths,
    to_matrix,
    web_normalize,
    chebyshev_bound,
    DirectInfluenceGraph,
    Edge,
)

EPLUS1 = math.expm1(1.0)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    print(f"criterion {num:2d} PASS: {description}")


def _line(n):
    return to_matrix(build(Line(n)))


def _cycle(n):
    return to_matrix(build(Cycle(n)))


def test_criterion_1_micmac_line3_vanishes():
    with criterion(1, "micmac on the 3-line with k=4 is exactly zero, under 1 ms"):
        micmac(_line(3), 4)  # warm-up: kernel and allocator caches
        start = time.perf_counter()
        result = micmac(_line(3), 4)
        elapsed = time.perf_counter() - start
        assert np.array_equal(mat_pow(_line(3), 4), np.zeros((3, 3)))
        assert np.array_equal(result.vectors.d, np.zeros(3))
        assert np.array_equal(result.vectors.f, np.zeros(3))
        assert elapsed < 1e-3


def test_criterion_2_pwp_line_vectors():
    with criterion(2, "pwp line vectors equal (1.5, 1, 0) and (5/3, 3/2, 1, 0) patterns within 1e-10"):
        r3 = pwp(_line(3), lam=1.0)
        assert np.allclose(EPLUS1 * r3.vectors.f, [1.5, 1.0, 0.0], rtol=0, atol=1e-10)
        assert np.allclose(EPLUS1 * r3.vectors.d, [0.0, 1.0, 1.5], rtol=0, atol=1e-10)
        r4 = pwp(_line(4), lam=1.0)
        assert np.allclose(
            EPLUS1 * r4.vectors.f, [5 / 3, 3 / 2, 1.0, 0.0], rtol=0, atol=1e-10
        )


def test_criterion_3_pwp_line_closed_form_and_argmax():
    with criterion(3, "pwp on lines matches lam^s/(e_plus s!) within 1e-12; peak at floor(lam)"):
        for lam in (0.5, 1.0, 2.5):
            for n in range(2, 11):
                t = pwp_matrix(_line(n), lam)
                eplus = math.expm1(lam)
                for j in range(1, n + 1):
                    for i in range(1, n + 1):
                        s = i - j
                        expected = (
                            lam**s / (eplus * math.factorial(s)) if s >= 1 else 0.0
                        )
                        assert abs(t[i - 1, j - 1] - expected) < 1e-12
            expected_offset = math.floor(lam) if lam >= 1.0 else 1
            assert line_argmax_offset(lam) == expected_offset
            t = pwp_matrix(_line(10), lam)
            for j in range(1, 11):
                if 10 - j > lam + 1:
                    s_star = int(np.argmax(t[:, j - 1])) + 1 - j
                    assert s_star == expected_offset


def test_criterion_4_pagerank_line_dependencies():
    with criterion(4, "pagerank line dependencies match two-decimal anchors, under 10 ms"):
        d3 = web_normalize(build(Line(3)))
        pagerank(d3, p=0.86, tol=1e-12)  # warm-up
        start = time.perf_counter()
        result = pagerank(d3, p=0.86, tol=1e-12)
        elapsed = time.perf_counter() - start
        assert np.allclose(result.stationary, [0.17, 0.34, 0.47], rtol=0, atol=0.02)
        assert elapsed < 1e-2
        anchors = [0.17, 0.12, 0.08, 0.059, 0.046]
        heads = []
        for n, anchor in zip(range(3, 8), anchors):
            r = pagerank(web_normalize(build(Line(n))), p=0.86, tol=1e-12)
            head = float(r.stationary[0])
            assert abs(head - anchor) <= 0.02
            heads.append(head)
        assert all(a > b for a, b in zip(heads, heads[1:]))


def test_criterion_5_cycles_under_all_methods():
    with criterion(5, "cycles: stochastic pwp with decaying columns, uniform pagerank, unit micmac"):
        for n in range(1, 9):
            t = pwp_matrix(_cycle(n), 1.0)
            assert is_column_stochastic(t, 1e-10)
            if n >= 2:
                entries = [t[s % n, 0] for s in range(1, n + 1)]
                assert all(a > b for a, b in zip(entries, entries[1:]))
            r = pagerank(_cycle(n), p=0.86, tol=1e-12)
            assert np.allclose(r.stationary, 1.0 / n, rtol=0, atol=1e-10)
            m = micmac(_cycle(n), 4)
            assert np.all(m.vectors.d == 1.0) and np.all(m.vectors.f == 1.0)


def test_criterion_6_exponential_identities_random_suite():
    with criterion(6, "transpose/similarity/direct-sum/commuting-sum identities on 200 random matrices"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            d = rng.uniform(-1.0, 1.0, (n, n))

            lhs = pwp_matrix(d.T, 1.0, 1e-14)
            rhs = pwp_matrix(d, 1.0, 1e-14).T
            assert np.abs(lhs - rhs).max() < 1e-10

            while True:
                q = rng.uniform(-1.0, 1.0, (n, n))
                if n == 1 or np.linalg.cond(q) < 20.0:
                    break
            qinv = np.linalg.inv(q)
            lhs = pwp_matrix(q @ d @ qinv, 1.0, 1e-14)
            rhs = q @ pwp_matrix(d, 1.0, 1e-14) @ qinv
            assert np.abs(lhs - rhs).max() < 1e-7

            n2 = int(rng.integers(1, 9))
            d2 = rng.uniform(-1.0, 1.0, (n2, n2))
            block = np.zeros((n + n2, n + n2))
            block[:n, :n] = d
            block[n:, n:] = d2
            lhs = pwp_matrix(block, 1.0, 1e-14)
            rhs = np.zeros_like(block)
            rhs[:n, :n] = pwp_matrix(d, 1.0, 1e-14)
            rhs[n:, n:] = pwp_matrix(d2, 1.0, 1e-14)
            assert np.abs(lhs - rhs).max() < 1e-12

            nrm = max(1.0, float(np.abs(d).sum(axis=1).max()))
            coeffs = rng.uniform(-0.5, 0.5, 4)
            poly = coeffs[0] * np.eye(n)
            acc = np.eye(n)
            for m in range(1, 4):
                acc = acc @ d
                poly += coeffs[m] * acc / nrm**m
            lhs = pwp_matrix(d + poly, 1.0, 1e-14)
            t1 = pwp_matrix(d, 1.0, 1e-14)
            t2 = pwp_matrix(poly, 1.0, 1e-14)
            rhs = EPLUS1 * t1 @ t2 + t1 + t2
            assert np.abs(lhs - rhs).max() < 1e-9


def _oracle_graphs():
    specs = (
        [Line(n) for n in range(1, 6)]
        + [Cycle(n) for n in range(1, 6)]
        + [Jordan(n, a) for n in range(1, 6) for a in (0.5, -0.3, 1.0)]
        + [Star(n) for n in range(1, 5)]  # star with n leaves has n+1 vertices
    )
    graphs = [build(s) for s in specs]
    rng = np.random.default_rng(777)
    weights = (-1.0, 0.5, 1.0, 2.0)
    while len(graphs) < len(specs) + 50:
        n = int(rng.integers(1, 6))
        slots = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1)]
        rng.shuffle(slots)
        m = int(rng.integers(0, min(len(slots), 8) + 1))
        edges = tuple(
            Edge(s, t, float(rng.choice(weights))) for s, t in slots[:m]
        )
        graphs.append(DirectInfluenceGraph(n, edges))
    return graphs


def test_criterion_7_walk_oracles_match_kernels():
    with criterion(7, "walk-sum oracles equal matrix kernels on families and 50 random graphs, under 60 s"):
        start = time.perf_counter()
        for g in _oracle_graphs():
            d = to_matrix(g)
            for k in range(1, 7):
                dk = mat_pow(d, k)
                for i in range(1, g.n + 1):
                    for j in range(1, g.n + 1):
                        assert abs(omega_sum(g, i, j, k) - dk[i - 1, j - 1]) < 1e-12
            t = pwp_matrix(d, 1.0, 1e-14)
            for i in range(1, g.n + 1):
                for j in range(1, g.n + 1):
                    assert (
                        abs(omega_lambda_sum(g, i, j, 1.0, 30) - t[i - 1, j - 1])
                        < 1e-9
                    )
            web = from_matrix(web_normalize(g))
            m = 0.86 * pagerank_repair(to_matrix(web)) + 0.14 / g.n
            for k in range(1, 6):
                mk = mat_pow(m, k)
                for i in range(1, g.n + 1):
                    for j in range(1, g.n + 1):
                        assert (
                            abs(rho_sum(web, i, j, k, 0.86) - mk[i - 1, j - 1])
                            < 1e-12
                        )
        assert time.perf_counter() - start < 60.0


def test_criterion_8_moment_and_tail_bounds():
    with criterion(8, "closed-form moments match series sums; Chebyshev dominates exact tails"):
        for lam in (0.1, 1.0, 5.0):
            m = moments(lam)
            mean = math.fsum(k * pmf(lam, k) for k in range(1, 400))
            second = math.fsum(k * k * pmf(lam, k) for k in range(1, 400))
            assert abs(m.mean - mean) < 1e-10
            assert abs(m.second_moment - second) < 1e-10
            assert abs(m.variance - (second - mean * mean)) < 1e-10
        for lam in (0.5, 1.0, 2.0):
            for c in (1.0, 2.0, 3.0):
                mean = moments(lam).mean
                tail = math.fsum(
                    pmf(lam, k) for k in range(1, 300) if abs(k - mean) >= c
                )
                assert tail <= chebyshev_bound(lam, c) + 1e-15


def test_criterion_9_monte_carlo():
    with criterion(9, "seeded sampling: matrix error below 0.01, mean within 3 sigma, under 5 s"):
        start = time.perf_counter()
        n_samples = 100_000
        for d in (_line(3), _cycle(4)):
            estimate = monte_carlo_pwp(d, 1.0, n_samples, seed=0)
            assert np.abs(estimate - pwp_matrix(d, 1.0)).max() < 0.01
        lengths = sample_lengths(1.0, n_samples, make_rng(0))
        m = moments(1.0)
        assert abs(lengths.mean() - m.mean) <= 3.0 * math.sqrt(m.variance / n_samples)
        assert time.perf_counter() - start < 5.0


def test_criterion_10_bernoulli_identity():
    with criterion(10, "Bernoulli partial sum equals 1/(e-1) and the single-edge influence within 1e-12"):
        numbers = bernoulli_numbers(20)
        total = math.fsum(float(b) / math.factorial(k) for k, b in enumerate(numbers))
        assert abs(total - 1.0 / (math.e - 1.0)) < 1e-12
        t = pwp_matrix(_line(2), 1.0)
        assert abs(total - t[1, 0]) < 1e-12


def test_criterion_11_jordan_closed_forms():
    with criterion(11, "Jordan blocks match their closed forms and the walk oracle within 1e-10"):
        lam = 1.0
        eplus = math.expm1(lam)
        for n in range(1, 7):
            for a in (0.5, -0.3, 1.0):
                g = build(Jordan(n, a))
                t = pwp_matrix(to_matrix(g), lam, 1e-14)
                for j in range(1, n + 1):
                    diag = math.expm1(a * lam) / eplus
                    assert abs(t[j - 1, j - 1] - diag) < 1e-10
                    assert (
                        abs(omega_lambda_sum(g, j, j, lam, 40) - diag) < 1e-10
                    )
                    for s in range(1, n - j + 1):
                        closed = (
                            math.exp(a * lam) * lam**s / (eplus * math.factorial(s))
                        )
                        assert abs(t[j + s - 1, j - 1] - closed) < 1e-10
                        assert (
                            abs(omega_lambda_sum(g, j + s, j, lam, 40) - closed)
                            < 1e-10
                        )


def test_criterion_12_star_closed_forms_and_rankings():
    with criterion(12, "stars match closed forms and oracle within 1e-9; hub tops every ranking"):
        for n in range(1, 7):
            spec = Star(n)
            g = build(spec)
            exact = closed_form_pwp(spec, 1.0)
            t = pwp_matrix(to_matrix(g), 1.0, 1e-14)
            assert np.abs(exact - t).max() < 1e-9
            hub = spec.center
            for i, j in ((hub, hub), (hub, 1), (1, hub), (1, 1)):
                assert (
                    abs(omega_lambda_sum(g, i, j, 1.0, 45) - exact[i - 1, j - 1])
                    < 1e-9
                )
            if n >= 2:  # the one-leaf star is symmetric: both vertices tie
                result = pwp(to_matrix(g), lam=1.0)
                assert rank_vertices(result.vectors.f)[0][0] == hub
                assert rank_vertices(result.vectors.d)[0][0] == hub
                pr = pagerank(web_normalize(g), p=0.86)
                assert rank_vertices(pr.stationary)[0][0] == hub


def test_public_surface_is_all():
    # a name added to or removed from the package shows in this one list
    public = {name for name, value in vars(influx).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(influx.__all__) == sorted(public)
    assert all(getattr(influx, name) is not None for name in influx.__all__)
    retired = ("pwp_vectors", "micmac_vectors", "mat_pow_sum", "pwp_vectors_report", "mat_pow_vectors",
               "sample_length", "PWPConfig", "MicmacConfig", "PageRankConfig", "MethodConfig",
               "_literal_sums", "_refuse_over_budget", "_paths")
    for module in (influx, influx.linalg, influx.methods, influx.paths, influx.stochastic):
        assert not [name for name in retired if hasattr(module, name)]
    assert "start" not in inspect.signature(influx.pagerank).parameters
    for valuation in (influx.omega_sum, influx.rho_sum, influx.omega_lambda_sum):
        assert not {"literal", "budget"} & set(inspect.signature(valuation).parameters)
    assert inspect.signature(influx.enumerate_paths).parameters["budget"].default == influx.paths.DEFAULT_BUDGET
    fields = {f.name for f in dataclasses.fields(influx.IndirectInfluenceResult)}
    assert fields == {"vectors", "diagnostics", "stationary"}  # no config, no T


class _Uses(ast.NodeVisitor):
    """Where modules name `name` in their code, as (module, enclosing
    functions...), and which modules import it."""

    def __init__(self, name: str):
        self.name, self.where, self.uses, self.imports = name, [], [], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Name(self, node):
        if node.id == self.name:
            self.uses.append(tuple(self.where))

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.uses.append(tuple(self.where))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if self.name in {alias.name for alias in node.names}:
            self.imports.append(self.where[0])


def test_one_overflow_rule():
    # NumericOverflow is raised by linalg's _finite, and by _expm1, where
    # math.expm1 raises instead of returning a value to check
    uses = _Uses("NumericOverflow")
    for path in sorted(Path(influx.__file__).parent.glob("*.py")):
        uses.where = [path.stem]
        uses.visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(uses.uses) == [("linalg", "_expm1"), ("linalg", "_finite")]
    assert sorted(uses.imports) == ["__init__", "linalg"]
