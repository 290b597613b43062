"""Command-line surface: compute, compare, generate, montecarlo.

Reports are JSON by default (CSV via --csv) and are byte-for-byte
reproducible: floats are canonicalized to 12 significant digits and keys
are emitted sorted, so parsing a report and re-serializing it gives the
identical text.

Exit codes: 0 success, 2 usage or parse failure, 3 numeric failure
(no convergence, overflow, bad column sums); each InfluenceError names its
own code in `exit_code`.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import families
from .errors import InfluenceError
from .graph import (
    DirectInfluenceGraph,
    format_edge_list,
    parse_edge_list,
    to_matrix,
    web_normalize,
)
from .linalg import SeriesReport, pwp_matrix
from .methods import (
    IndirectInfluenceResult,
    MicmacConfig,
    PageRankConfig,
    PWPConfig,
    micmac,
    pagerank,
    pwp,
    rank_vertices,
)
from .stochastic import make_rng, moments, estimate_from_lengths, sample_lengths

def canonical_float(x: float) -> float:
    """Round to 12 significant digits so repr() is short and stable."""
    if not math.isfinite(x):
        raise ValueError(f"reports cannot contain non-finite value {x!r}")
    return float(f"{x:.12g}")


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return canonical_float(float(obj))
    return obj


def dumps_report(report: dict) -> str:
    """Serialize a report deterministically; loads/dumps round-trips bytes."""
    return json.dumps(_canonical(report), sort_keys=True, indent=2) + "\n"


def kendall_tau(x, y) -> float:
    """Kendall tau-b between two score vectors.

    Both-constant vectors agree perfectly (1.0); exactly one constant
    vector counts as no agreement (0.0).
    """
    x = list(map(float, x))
    y = list(map(float, y))
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    s = dx = dy = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            a = (x[i] > x[j]) - (x[i] < x[j])
            b = (y[i] > y[j]) - (y[i] < y[j])
            s += a * b
            dx += a * a
            dy += b * b
    if dx == 0 or dy == 0:
        return 1.0 if dx == dy else 0.0
    return s / math.sqrt(dx * dy)


def _published(scores) -> list[float]:
    """Scores exactly as the report prints them, so ties are ties."""
    return [canonical_float(float(x)) for x in scores]


def _ranking(scores) -> list[list]:
    return [[v, s] for v, s in rank_vertices(scores)]


def _method_block(
    result: IndirectInfluenceResult, paper_scale: bool, emit_matrix: bool
) -> dict:
    cfg = result.config
    if isinstance(cfg, PWPConfig):
        method = {"name": "pwp", "lambda": cfg.lam, "tol": cfg.tol}
    elif isinstance(cfg, MicmacConfig):
        method = {"name": "micmac", "k": cfg.k}
    elif isinstance(cfg, PageRankConfig):
        method = {"name": "pagerank", "p": cfg.p, "tol": cfg.tol, "max_iter": cfg.max_iter}
    else:
        raise TypeError(f"unknown config {cfg!r}")

    d = result.vectors.d
    f = result.vectors.f
    block = {"method": method, "paper_scale": False}
    if isinstance(cfg, PageRankConfig):
        # the stationary probabilities are the headline numbers; the raw
        # row sums of T are n times larger
        block["d"] = _published(result.stationary)
        block["f"] = _published(f)
        block["dependence_row_sums"] = _published(d)
        block["diagnostics"] = {"iterations": int(result.diagnostics)}
    elif isinstance(cfg, PWPConfig):
        if paper_scale:
            scale = math.expm1(cfg.lam)
            d = d * scale
            f = f * scale
            block["paper_scale"] = True
        block["d"] = _published(d)
        block["f"] = _published(f)
        report = result.diagnostics
        assert isinstance(report, SeriesReport)
        block["diagnostics"] = {
            "terms_used": report.terms_used,
            "tail_bound": report.tail_bound,
        }
    else:
        block["d"] = _published(d)
        block["f"] = _published(f)
        block["diagnostics"] = {}
    block["ranking_by_dependence"] = _ranking(block["d"])
    block["ranking_by_influence"] = _ranking(block["f"])
    if emit_matrix:
        block["T"] = result.T
    return block


def _run_method(g: DirectInfluenceGraph, name: str, args) -> IndirectInfluenceResult:
    if name == "pwp":
        return pwp(to_matrix(g), lam=args.lam, tol=args.tol)
    if name == "micmac":
        return micmac(to_matrix(g), k=args.k)
    if name == "pagerank":
        # ranking works on link structure: entry (i, j) becomes 1/out(j)
        return pagerank(web_normalize(g), p=args.p, tol=args.tol, max_iter=args.max_iter)
    raise ValueError(f"unknown method {name!r}")


def _graph_summary(g: DirectInfluenceGraph) -> dict:
    return {"n": g.n, "edges": g.edge_count}


def _load_graph(path: str) -> DirectInfluenceGraph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv_cell(x: float) -> str:
    return repr(canonical_float(float(x)))


def _csv_table(block: dict, n: int) -> str:
    lines = ["vertex,d,f"]
    for v in range(n):
        lines.append(f"{v + 1},{_csv_cell(block['d'][v])},{_csv_cell(block['f'][v])}")
    return "\n".join(lines) + "\n"


def cmd_compute(args) -> int:
    g = _load_graph(args.graph)
    result = _run_method(g, args.method, args)
    block = _method_block(result, args.paper_scale, args.emit_matrix)
    if args.csv:
        _emit(_csv_table(block, g.n), args.output)
        return 0
    report = {"graph": _graph_summary(g), **block}
    _emit(dumps_report(report), args.output)
    return 0


def cmd_compare(args) -> int:
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in names if m not in {"pwp", "micmac", "pagerank"}]
    if not names or unknown:
        raise ValueError(f"--methods must name pwp, micmac, or pagerank, got {args.methods!r}")
    g = _load_graph(args.graph)
    blocks = []
    for name in names:
        result = _run_method(g, name, args)
        blocks.append(_method_block(result, args.paper_scale, False))
    agreement = {"dependence": {}, "influence": {}}
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            key = f"{names[a]}|{names[b]}"
            agreement["dependence"][key] = kendall_tau(blocks[a]["d"], blocks[b]["d"])
            agreement["influence"][key] = kendall_tau(blocks[a]["f"], blocks[b]["f"])
    if args.csv:
        lines = ["vertex," + ",".join(f"d_{n},f_{n}" for n in names)]
        for v in range(g.n):
            cells = [str(v + 1)]
            for block in blocks:
                cells.append(_csv_cell(block["d"][v]))
                cells.append(_csv_cell(block["f"][v]))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    report = {
        "graph": _graph_summary(g),
        "methods": blocks,
        "rank_agreement": agreement,
    }
    _emit(dumps_report(report), args.output)
    return 0


def cmd_generate(args) -> int:
    if args.family == "line":
        spec = families.Line(args.n)
    elif args.family == "cycle":
        spec = families.Cycle(args.n)
    elif args.family == "jordan":
        spec = families.Jordan(args.n, args.a)
    else:
        spec = families.Star(args.n)
    g = families.build(spec)
    _emit(format_edge_list(g), args.output)
    return 0


def cmd_montecarlo(args) -> int:
    if args.samples < 1:
        raise ValueError(f"-N must be >= 1, got {args.samples}")
    g = _load_graph(args.graph)
    d = to_matrix(g)
    lengths = sample_lengths(args.lam, args.samples, make_rng(args.seed))
    estimate = estimate_from_lengths(d, lengths)
    exact = pwp_matrix(d, args.lam, args.tol)
    report = {
        "graph": _graph_summary(g),
        "lambda": args.lam,
        "samples": args.samples,
        "seed": args.seed,
        "max_abs_error": float(np.abs(estimate - exact).max(initial=0.0)),
        "mean_length": {
            "empirical": float(lengths.mean()),
            "expected": moments(args.lam).mean,
        },
    }
    if args.emit_matrix:
        report["estimate"] = estimate
        report["exact"] = exact
    _emit(dumps_report(report), args.output)
    return 0


def _add_method_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=1.0,
        help="walk-length scale for pwp (default 1)",
    )
    parser.add_argument("-k", type=int, default=4, help="power for micmac (default 4)")
    parser.add_argument(
        "-p", type=float, default=0.86, help="damping for pagerank (default 0.86)"
    )
    parser.add_argument("--tol", type=float, default=1e-12, help="tolerance (default 1e-12)")
    parser.add_argument(
        "--max-iter",
        dest="max_iter",
        type=int,
        default=10_000,
        help="iteration cap for pagerank (default 10000)",
    )
    parser.add_argument(
        "--paper-scale",
        dest="paper_scale",
        action="store_true",
        help="scale pwp d and f by e^lambda - 1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="influx",
        description="Indirect-influence matrices and rankings on weighted directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="run one method on an edge-list file")
    compute.add_argument("graph", help="edge-list file: source,target,weight per line")
    compute.add_argument(
        "--method", required=True, choices=["pwp", "micmac", "pagerank"]
    )
    _add_method_flags(compute)
    compute.add_argument("--emit-matrix", dest="emit_matrix", action="store_true")
    compute.add_argument("--csv", action="store_true", help="emit a vertex,d,f table")
    compute.add_argument("-o", dest="output", help="write to file instead of stdout")
    compute.set_defaults(func=cmd_compute)

    compare = sub.add_parser("compare", help="run several methods side by side")
    compare.add_argument("graph")
    compare.add_argument(
        "--methods",
        default="pwp,micmac,pagerank",
        help="comma-separated subset of pwp,micmac,pagerank (default all)",
    )
    _add_method_flags(compare)
    compare.add_argument("--csv", action="store_true")
    compare.add_argument("-o", dest="output")
    compare.set_defaults(func=cmd_compare)

    generate = sub.add_parser("generate", help="emit a named example family")
    generate.add_argument("family", choices=["line", "cycle", "jordan", "star"])
    generate.add_argument("-n", type=int, required=True, help="size parameter")
    generate.add_argument(
        "-a", type=float, default=1.0, help="jordan self-loop weight (default 1)"
    )
    generate.add_argument("-o", dest="output")
    generate.set_defaults(func=cmd_generate)

    montecarlo = sub.add_parser(
        "montecarlo", help="sampled estimate of the pwp matrix vs the exact one"
    )
    montecarlo.add_argument("graph")
    montecarlo.add_argument(
        "--lambda", dest="lam", type=float, default=1.0, help="walk-length scale"
    )
    montecarlo.add_argument("-N", dest="samples", type=int, default=100_000)
    montecarlo.add_argument("--seed", type=int, default=0)
    montecarlo.add_argument("--tol", type=float, default=1e-12)
    montecarlo.add_argument("--emit-matrix", dest="emit_matrix", action="store_true")
    montecarlo.add_argument("-o", dest="output")
    montecarlo.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfluenceError, ValueError, OSError) as exc:
        # an InfluenceError carries its own code; bad values and files are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
