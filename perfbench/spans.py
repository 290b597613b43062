"""Spans recorded from outside the program, around influx's public functions.

`install` replaces each public function of the layer modules, at every
binding under `influx.*` (modules import each other's functions by name),
with a wrapper that records one span per call: name, start, end, parent
span, run id, and the process's peak RSS at entry and exit.  Spans stay in
memory until the caller writes them out once.  The counts beside them are
derived from arguments, returned values and shapes only.
"""

import functools
import importlib
import inspect
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

# The layers are the modules.  `paths` and `families` are verification
# machinery that no CLI command reaches on the benchmark's inputs.
LAYERS = ("cli", "graph", "linalg", "methods", "stochastic")

# The functions reported by name: every public one that a workload calls.
FUNCTIONS = {
    "cli": ("main", "build_parser", "cmd_compute", "cmd_compare", "cmd_montecarlo",
            "dumps_report", "canonical_float", "kendall_tau"),
    "graph": ("parse_edge_list", "to_matrix", "web_normalize"),
    "linalg": ("exp_plus", "mat_pow", "pwp_matrix_report", "pwp_matrix"),
    "methods": ("pwp", "micmac", "pagerank", "pagerank_repair", "influence_dependence",
                "rank_vertices"),
    "stochastic": ("make_rng", "sample_lengths", "estimate_from_lengths", "moments"),
}

# Counts summed over calls: name -> (unit, better).
COUNTS = {
    "linalg.exp_plus.terms": ("count", "lower"),
    "linalg.matmuls": ("count", "lower"),
    "linalg.flops_computed": ("flop", "lower"),
    "cli.kendall_tau.pairs": ("count", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "graph.edges": ("count", "higher"),
    "methods.pagerank.iterations": ("count", "lower"),
    "stochastic.samples": ("count", "higher"),
    "stochastic.distinct_lengths": ("count", "lower"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matmul_counts(n: int, matmuls: int) -> dict:
    # computed, not observed: 2 n^3 flops per dense n x n product
    return {"linalg.matmuls": matmuls, "linalg.flops_computed": 2 * n**3 * matmuls}


def _exp_plus(args, kwargs, result):
    matrix, report = result
    # the series forms each term after the first by one product
    return {"linalg.exp_plus.terms": report.terms_used,
            **_matmul_counts(matrix.shape[0], report.terms_used - 1)}


def _mat_pow(args, kwargs, result):
    k = int(_arg(args, kwargs, 1, "k"))
    # binary powering: one product per set bit, one squaring per further bit
    return _matmul_counts(result.shape[0], k.bit_count() + k.bit_length() - 1 if k else 0)


def _distinct_lengths(args, kwargs, result):
    return {"stochastic.distinct_lengths": int(np.unique(_arg(args, kwargs, 1, "lengths")).size)}


COUNTERS = {
    "linalg.exp_plus": _exp_plus,
    "linalg.mat_pow": _mat_pow,
    "cli.kendall_tau": lambda a, kw, r: {
        "cli.kendall_tau.pairs": len(_arg(a, kw, 0, "x")) * (len(_arg(a, kw, 0, "x")) - 1) // 2},
    "cli.dumps_report": lambda a, kw, r: {"cli.report_bytes": len(r.encode("utf-8"))},
    "graph.parse_edge_list": lambda a, kw, r: {"graph.edges": r.edge_count},
    "methods.pagerank": lambda a, kw, r: {"methods.pagerank.iterations": int(r.diagnostics)},
    "stochastic.sample_lengths": lambda a, kw, r: {"stochastic.samples": int(r.size)},
    "stochastic.estimate_from_lengths": _distinct_lengths,
}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    run: str
    rss_start_kb: int
    rss_end_kb: int = 0


class Recorder:
    """Collects spans and counts for one run of one process."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, 0.0, parent, self.run, _peak_rss_kb())
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_end_kb = _peak_rss_kb()
                self._open.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Route every public function of each layer through `recorder`."""
    for layer in LAYERS:
        importlib.import_module(f"influx.{layer}")
    modules = [m for name, m in sys.modules.items() if name == "influx" or name.startswith("influx.")]
    for layer in LAYERS:
        module = sys.modules[f"influx.{layer}"]
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            key = f"{layer}.{name}"
            wrapper = recorder.wrap(key, fn, COUNTERS.get(key))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)


def self_values(spans: list[dict], start: str, end: str) -> list[float]:
    """Each span's `end - start` minus what its direct children cover.

    Children of one span run one after another inside it (the call tree is
    single-threaded), so what they cover is the sum of their extents.
    """
    own = [s[end] - s[start] for s in spans]
    result = list(own)
    for s, extent in zip(spans, own):
        if s["parent"] is not None:
            result[s["parent"]] -= extent
    return result


def metric_names() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    names = {}
    for layer in LAYERS:
        names[f"{layer}.self_s"] = ("s", "lower")
        names[f"{layer}.rss_growth_mb"] = ("MB", "lower")
        for fn in FUNCTIONS[layer]:
            names[f"{layer}.{fn}.calls"] = ("count", "lower")
            names[f"{layer}.{fn}.self_s"] = ("s", "lower")
    names.update(COUNTS)
    names["graph.parse_edge_list.edges_per_s"] = ("1/s", "higher")
    names["cli.import_s"] = ("s", "lower")
    names["trace.overhead_ratio"] = ("ratio", "lower")
    return names


def summarize(spans: list[dict], counts: dict) -> dict[str, float]:
    """Per-layer and per-function metrics of one traced run (all but the
    import time and the tracing overhead, which need untraced runs)."""
    out = {name: 0 for name in metric_names()}
    del out["cli.import_s"], out["trace.overhead_ratio"]
    self_s = self_values(spans, "start", "end")
    growth = self_values(spans, "rss_start_kb", "rss_end_kb")
    for span, seconds, kb in zip(spans, self_s, growth):
        layer = span["name"].split(".", 1)[0]
        out[f"{layer}.self_s"] += seconds
        out[f"{layer}.rss_growth_mb"] += kb / 1024
        if f"{span['name']}.calls" in out:
            out[f"{span['name']}.calls"] += 1
            out[f"{span['name']}.self_s"] += seconds
    out.update({k: v for k, v in counts.items() if k in COUNTS})
    parse_s = out["graph.parse_edge_list.self_s"]
    out["graph.parse_edge_list.edges_per_s"] = out["graph.edges"] / parse_s if parse_s else 0.0
    return out
