"""Output checks against references that never call into influx.

Each checker is built once per input during set-up and then judges every
report the program prints for that input.  A report fails when the process
exits nonzero, stderr shows a traceback or a RuntimeWarning, a value is
wrong, or its bytes differ from the first report seen for the same input.
"""

import hashlib
import json
import math

import numpy as np
import scipy.linalg
import scipy.stats

# Relative to max |reference|: loose enough for a matrix-free engine whose
# 12th significant digit moves, tight enough to catch any real error.
REL_TOL = 1e-9


def _vector_problem(name: str, got, ref: np.ndarray) -> str | None:
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape:
        return f"{name}: shape {got.shape}, expected {ref.shape}"
    scale = float(np.abs(ref).max()) or 1.0
    err = float(np.abs(got - ref).max())
    if not err <= REL_TOL * scale:
        return f"{name}: max deviation {err:.3e} exceeds {REL_TOL:g} x {scale:.3e}"
    return None


def pwp_vectors(d: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    t = (scipy.linalg.expm(lam * d) - np.eye(d.shape[0])) / math.expm1(lam)
    return t.sum(axis=1), t.sum(axis=0)


def micmac_vectors(d: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    t = np.linalg.matrix_power(d, k)
    return t.sum(axis=1), t.sum(axis=0)


def pagerank_vector(n: int, src, dst, p: float) -> np.ndarray:
    """Stationary vector of p*A + (1-p)/n with A[i, j] = 1/out(j) and the
    dangling columns replaced by 1/n, by power iteration on the edge arrays.
    """
    out = np.bincount(src - 1, minlength=n).astype(float)
    dangling = out == 0
    share = 1.0 / out[src - 1]
    x = np.full(n, 1.0 / n)
    for _ in range(10_000):
        nxt = p * (np.bincount(dst - 1, share * x[src - 1], minlength=n) + x[dangling].sum() / n)
        nxt += (1.0 - p) / n
        done = np.abs(nxt - x).sum() < 1e-15
        x = nxt
        if done:
            break
    return x / x.sum()


def kendall_b(x, y) -> float:
    """Tau-b with the report's conventions for constant vectors."""
    cx = len(set(x)) <= 1
    cy = len(set(y)) <= 1
    if cx or cy:
        return 1.0 if cx and cy else 0.0
    return float(scipy.stats.kendalltau(x, y).statistic)


def _method_problems(block: dict, refs: dict) -> list[str]:
    name = block["method"]["name"]
    problems = []
    for key, ref in refs[name].items():
        problem = _vector_problem(f"{name}.{key}", block.get(key), ref)
        if problem:
            problems.append(problem)
    return problems


def _graph_problems(report: dict, graph) -> list[str]:
    want = {"n": graph.n, "edges": int(graph.src.size)}
    return [] if report.get("graph") == want else [f"graph {report.get('graph')} != {want}"]


class Checker:
    """Judges reports for one input; remembers the first report's digest."""

    def __init__(self, judge):
        self._judge = judge
        self.digest: str | None = None

    def problems(self, code: int, stdout: bytes, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        for marker in ("Traceback", "RuntimeWarning"):
            if marker in stderr:
                return [f"{marker} on stderr"]
        digest = hashlib.sha256(stdout).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return ["report bytes differ from the first report for this input"]
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        try:
            return self._judge(report)
        except (KeyError, TypeError, IndexError) as exc:
            return [f"report lacks a field: {exc!r}"]


def compute_checker(graph, method: str, **params) -> Checker:
    """`influx compute --method <method>` on `graph`."""
    refs = _references(graph, [method], **params)

    def judge(report):
        return _graph_problems(report, graph) + _method_problems(report, refs)

    return Checker(judge)


def compare_checker(graph) -> Checker:
    """`influx compare` with its default methods on `graph`, including the
    pairwise rank agreement."""
    methods = ("pwp", "micmac", "pagerank")
    refs = _references(graph, methods)

    def judge(report):
        blocks = report["methods"]
        problems = _graph_problems(report, graph)
        if [b["method"]["name"] for b in blocks] != list(methods):
            return problems + ["methods out of order"]
        for block in blocks:
            problems += _method_problems(block, refs)
        for vec, kind in (("d", "dependence"), ("f", "influence")):
            for a in range(len(blocks)):
                for b in range(a + 1, len(blocks)):
                    key = f"{methods[a]}|{methods[b]}"
                    want = kendall_b(blocks[a][vec], blocks[b][vec])
                    got = report["rank_agreement"][kind][key]
                    if not abs(got - want) <= 1e-11:
                        problems.append(f"rank_agreement.{kind}.{key}: {got} != {want}")
        return problems

    return Checker(judge)


def montecarlo_checker(graph, lam: float, samples: int, seed: int) -> Checker:
    """`influx montecarlo`: the exact mean length, the sampled mean within
    5 standard errors of it, and a finite estimate error."""
    em = -math.expm1(-lam)
    mean = lam / em
    variance = (lam - (lam * lam + lam) * math.exp(-lam)) / (em * em)
    slack = 5.0 * math.sqrt(variance / samples)

    def judge(report):
        problems = _graph_problems(report, graph)
        echo = {"lambda": lam, "samples": samples, "seed": seed}
        if {k: report[k] for k in echo} != echo:
            problems.append(f"echoed parameters differ from {echo}")
        got = report["mean_length"]
        if not abs(got["expected"] - mean) <= 1e-11 * mean:
            problems.append(f"mean_length.expected {got['expected']} != {mean}")
        if not abs(got["empirical"] - mean) <= slack:
            problems.append(f"mean_length.empirical {got['empirical']} not within {slack:.3g}")
        if not math.isfinite(report["max_abs_error"]):
            problems.append("max_abs_error is not finite")
        return problems

    return Checker(judge)


def _references(graph, methods, lam: float = 1.0, k: int = 4, p: float = 0.86) -> dict:
    refs = {}
    if "pwp" in methods or "micmac" in methods:
        d = graph.dense()
    if "pwp" in methods:
        dep, inf = pwp_vectors(d, lam)
        refs["pwp"] = {"d": dep, "f": inf}
    if "micmac" in methods:
        dep, inf = micmac_vectors(d, k)
        refs["micmac"] = {"d": dep, "f": inf}
    if "pagerank" in methods:
        x = pagerank_vector(graph.n, graph.src, graph.dst, p)
        refs["pagerank"] = {
            "d": x,
            "f": np.ones(graph.n),
            "dependence_row_sums": graph.n * x,
        }
    return refs
