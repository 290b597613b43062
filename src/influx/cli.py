"""Command-line surface: compute, compare, generate, montecarlo.

Reports are JSON by default (CSV via --csv) and are byte-for-byte
reproducible: floats are canonicalized to 12 significant digits and keys
are emitted sorted, so parsing a report and re-serializing it gives the
identical text.  The report is written in one pass, each float formatted
as it is printed, with the layout of json.dumps(..., indent=2).

Exit codes: 0 success, 2 usage or parse failure, 3 numeric failure
(no convergence, overflow, bad column sums) or running out of memory; each
InfluenceError names its own code in `exit_code`.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import families
from .errors import InfluenceError, NumericOverflow
from .graph import (
    DirectInfluenceGraph,
    format_edge_list,
    parse_edge_list,
    to_matrix,
    to_operator,
    web_operator,
)
from .linalg import _expm1, mat_pow, pwp_matrix
from .methods import micmac_vectors, pagerank, pwp_vectors, rank_vertices
from .stochastic import estimate_and_exact, make_rng, moments, sample_lengths

def canonical_float(x: float) -> float:
    """Round to 12 significant digits so repr() is short and stable."""
    if not math.isfinite(x):
        raise ValueError(f"reports cannot contain non-finite value {x!r}")
    return float(f"{x:.12g}")


class _Rounded(list):
    """A list whose floats have been through canonical_float already, so
    the writer prints them as they are."""


def _number(x: float) -> str:
    return repr(canonical_float(x))


def _items(seq, inner: str):
    """The texts of a list's items; flat floats and rankings in one step."""
    number = repr if type(seq) is _Rounded else _number
    if all(type(x) is float for x in seq):
        return map(number, seq)
    if all(type(p) is tuple and len(p) == 2 and type(p[0]) is int and type(p[1]) is float
           for p in seq):
        # a ranking: (vertex, score) pairs
        pair = inner + "  "
        return (f"[{pair}{v},{pair}{number(s)}{inner}]" for v, s in seq)
    return (_write(x, inner) for x in seq)


def _write(obj, newline: str) -> str:
    """obj as json.dumps(..., sort_keys=True, indent=2) writes it after
    `newline`, with numpy values as Python ones and every float through
    canonical_float."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # values in insertion order, so the first non-finite one is the one named
        texts = {k: _write(v, inner) for k, v in obj.items()}
        items = (f"{json.dumps(k)}: {texts[k]}" for k in sorted(texts))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_items(obj, inner)) + newline + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        return repr(canonical_float(float(obj)))
    return json.dumps(obj)


def dumps_report(report: dict) -> str:
    """Serialize a report deterministically; loads/dumps round-trips bytes.

    One pass writes the text of json.dumps(..., sort_keys=True, indent=2),
    formatting each float as it goes.  Keys must be strings.
    """
    return _write(report, "\n") + "\n"


def _tied_pairs(differs: np.ndarray) -> int:
    """Pairs within runs of equal values, given where neighbours differ."""
    runs = np.diff(np.flatnonzero(np.concatenate(([True], differs, [True]))))
    return int((runs * (runs - 1) // 2).sum())


def _inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks 0 <= r < r.size.

    Bottom-up merge: at width w, each element of the right half of a block
    of 2w counts the elements of the left half above it, found by one
    searchsorted over the left halves sorted on (block, rank).
    """
    n = r.size
    position = np.arange(n)
    count = 0
    width = 1
    while width < n:
        block = position // (2 * width)
        right = (position // width) % 2 == 1
        left = np.sort(block[~right] * n + r[~right])
        at_most = np.searchsorted(left, block[right] * n + r[right], side="right")
        block_end = np.searchsorted(left, (block[right] + 1) * n, side="left")
        count += int((block_end - at_most).sum())
        width *= 2
    return count


def kendall_tau(x, y) -> float:
    """Kendall tau-b between two score vectors.

    Both-constant vectors agree perfectly (1.0); exactly one constant
    vector counts as no agreement (0.0).  O(n log n) by Knight's method
    (JASA 61, 1966): sort by (x, y), count ties, and count the discordant
    pairs as inversions of y.  The pair counts are exact integers, so the
    result equals the pairwise definition bit for bit.
    """
    x = np.fromiter(map(float, x), dtype=float)
    y = np.fromiter(map(float, y), dtype=float)
    if x.size != y.size:
        raise ValueError("vectors must have equal length")
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    x_differs = x[1:] != x[:-1]
    y_sorted = np.sort(y)
    pairs = x.size * (x.size - 1) // 2
    dx = pairs - _tied_pairs(x_differs)
    dy = pairs - _tied_pairs(y_sorted[1:] != y_sorted[:-1])
    if dx == 0 or dy == 0:
        return 1.0 if dx == dy else 0.0
    joint = _tied_pairs(x_differs | (y[1:] != y[:-1]))
    discordant = _inversions(np.searchsorted(y_sorted, y))
    # concordant + discordant = pairs tied in neither vector
    s = dx + dy - pairs + joint - 2 * discordant
    return s / math.sqrt(dx * dy)


# One entry per engine: (graph, args, emit_matrix) -> report block with the
# engine's "method" parameters, "paper_scale", raw "d" and "f", "diagnostics"
# and any fields of its own.  d, f and diagnostics come from the vector
# kernels on the graph's edge columns, so neither depends on emit_matrix;
# T is formed only when it is printed.

def _pwp_block(g: DirectInfluenceGraph, args, emit_matrix: bool) -> dict:
    op = to_operator(g)
    result = pwp_vectors(op, lam=args.lam, tol=args.tol)
    report = result.diagnostics
    scale = math.expm1(args.lam) if args.paper_scale else 1.0
    with np.errstate(over="ignore"):
        d_scaled, f_scaled = result.vectors.d * scale, result.vectors.f * scale
    if not (np.isfinite(d_scaled).all() and np.isfinite(f_scaled).all()):
        raise NumericOverflow("paper-scaled d or f")
    block = {
        "method": {"name": "pwp", "lambda": args.lam, "tol": args.tol},
        "paper_scale": args.paper_scale,
        "d": d_scaled,
        "f": f_scaled,
        "diagnostics": {"terms_used": report.terms_used, "tail_bound": report.tail_bound},
    }
    if emit_matrix:
        block["T"] = pwp_matrix(op, args.lam, args.tol)
    return block


def _micmac_block(g: DirectInfluenceGraph, args, emit_matrix: bool) -> dict:
    result = micmac_vectors(to_operator(g), k=args.k)
    block = {
        "method": {"name": "micmac", "k": args.k},
        "paper_scale": False,
        "d": result.vectors.d,
        "f": result.vectors.f,
        "diagnostics": {},
    }
    if emit_matrix:
        block["T"] = mat_pow(to_matrix(g), args.k)
    return block


def _pagerank_block(g: DirectInfluenceGraph, args, emit_matrix: bool) -> dict:
    # ranking works on link structure: entry (i, j) becomes 1/out(j)
    result = pagerank(web_operator(g), p=args.p, tol=args.tol, max_iter=args.max_iter)
    block = {
        "method": {"name": "pagerank", "p": args.p, "tol": args.tol, "max_iter": args.max_iter},
        "paper_scale": False,
        # the stationary probabilities are the headline numbers; the raw
        # row sums of T are n times larger
        "d": result.stationary,
        "f": result.vectors.f,
        "dependence_row_sums": result.vectors.d,
        "diagnostics": {"iterations": result.diagnostics},
    }
    if emit_matrix:
        block["T"] = np.tile(result.stationary[:, None], (1, g.n))
    return block


_METHODS = {"pwp": _pwp_block, "micmac": _micmac_block, "pagerank": _pagerank_block}


def _method_blocks(names, g: DirectInfluenceGraph, args, emit_matrix: bool) -> list[dict]:
    """Each named engine's block with d and f as published and both rankings."""
    blocks = []
    for name in names:
        block = _METHODS[name](g, args, emit_matrix)
        # rank the scores exactly as the report prints them, so ties are ties;
        # each is rounded here once, and the writer prints it as it is
        block["d"] = _Rounded(map(canonical_float, block["d"].tolist()))
        block["f"] = _Rounded(map(canonical_float, block["f"].tolist()))
        block["ranking_by_dependence"] = _Rounded(rank_vertices(block["d"]))
        block["ranking_by_influence"] = _Rounded(rank_vertices(block["f"]))
        blocks.append(block)
    return blocks


def _graph_summary(g: DirectInfluenceGraph) -> dict:
    return {"n": g.n, "edges": g.edge_count}


def _load_graph(path: str) -> DirectInfluenceGraph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv(header: str, blocks: list[dict], n: int) -> str:
    """One row per vertex: its published d and f from each block in turn."""
    lines = [header]
    for v in range(n):
        cells = [str(v + 1)]
        for block in blocks:
            cells += [repr(block["d"][v]), repr(block["f"][v])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_compute(args) -> int:
    g = _load_graph(args.graph)
    [block] = _method_blocks([args.method], g, args, args.emit_matrix)
    if args.csv:
        _emit(_csv("vertex,d,f", [block], g.n), args.output)
    else:
        _emit(dumps_report({"graph": _graph_summary(g), **block}), args.output)
    return 0


def cmd_compare(args) -> int:
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not names or not set(names) <= _METHODS.keys():
        *others, last = _METHODS
        raise ValueError(
            f"--methods must name {', '.join(others)}, or {last}, got {args.methods!r}"
        )
    g = _load_graph(args.graph)
    blocks = _method_blocks(names, g, args, False)
    if args.csv:
        header = "vertex," + ",".join(f"d_{name},f_{name}" for name in names)
        _emit(_csv(header, blocks, g.n), args.output)
        return 0
    agreement = {"dependence": {}, "influence": {}}
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            key = f"{names[a]}|{names[b]}"
            agreement["dependence"][key] = kendall_tau(blocks[a]["d"], blocks[b]["d"])
            agreement["influence"][key] = kendall_tau(blocks[a]["f"], blocks[b]["f"])
    report = {"graph": _graph_summary(g), "methods": blocks, "rank_agreement": agreement}
    _emit(dumps_report(report), args.output)
    return 0


_FAMILIES = {
    "line": lambda args: families.Line(args.n),
    "cycle": lambda args: families.Cycle(args.n),
    "jordan": lambda args: families.Jordan(args.n, args.a),
    "star": lambda args: families.Star(args.n),
}


def cmd_generate(args) -> int:
    g = families.build(_FAMILIES[args.family](args))
    _emit(format_edge_list(g), args.output)
    return 0


def cmd_montecarlo(args) -> int:
    if args.samples < 1:
        raise ValueError(f"-N must be >= 1, got {args.samples}")
    g = _load_graph(args.graph)
    d = to_operator(g)
    # e^lambda - 1 first: past its range lambda is a numeric failure (exit 3),
    # whatever the sampler would make of it
    _expm1(args.lam)
    lengths = sample_lengths(args.lam, args.samples, make_rng(args.seed))
    estimate, exact = estimate_and_exact(d, args.lam, lengths, args.tol)
    error = np.subtract(estimate, exact)
    report = {
        "graph": _graph_summary(g),
        "lambda": args.lam,
        "samples": args.samples,
        "seed": args.seed,
        "max_abs_error": float(np.abs(error, out=error).max(initial=0.0)),
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
        "--method", required=True, choices=list(_METHODS)
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
        default=",".join(_METHODS),
        help=f"comma-separated subset of {','.join(_METHODS)} (default all)",
    )
    _add_method_flags(compare)
    compare.add_argument("--csv", action="store_true")
    compare.add_argument("-o", dest="output")
    compare.set_defaults(func=cmd_compare)

    generate = sub.add_parser("generate", help="emit a named example family")
    generate.add_argument("family", choices=list(_FAMILIES))
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
    except MemoryError as exc:
        # numpy names the allocation that failed, such as a dense D for a vast n
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
