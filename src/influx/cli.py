"""Command-line surface: compute, compare, generate, montecarlo.

Reports are JSON by default (CSV via --csv) and are byte-for-byte
reproducible: floats are canonicalized to 12 significant digits and keys
are emitted sorted, so parsing a report and re-serializing it gives the
identical text, with the layout of json.dumps(..., indent=2).  Each number
is formatted once, d and f before the rankings that reuse their texts.
Every number and vector is formatted, and every matrix checked finite,
before the first byte is written; the text then goes to stdout or the -o
file in chunks of at least 64 KiB, a matrix a row at a time, so the whole
text is never held.  A failing command writes nothing and leaves no -o file.

Exit codes: 0 success, 2 usage or parse failure or a failed write, 3 numeric
failure (no convergence, overflow, bad column sums) or running out of
memory; each InfluenceError names its own code in `exit_code`.  The
`influx` command is `run`, which ends the process once `main` has flushed
the report, without the interpreter's teardown.
"""

import argparse
import json
import math
import os
import stat
import sys
from contextlib import suppress
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import families
from .errors import InfluenceError
from .graph import (
    DirectInfluenceGraph,
    format_edge_list,
    parse_edge_list,
    to_operator,
    web_operator,
)
from .linalg import _at_least, _checked, _finite, mat_pow, pwp_matrix
from .methods import _ranking_order, _scores, micmac, pagerank, pwp
from .stochastic import _MOST_SAMPLES, _draw_tally, _matrices, _sums, make_rng, moments

def canonical_float(x: float) -> float:
    """Round to 12 significant digits so repr() is short and stable."""
    if not math.isfinite(x):
        raise _non_finite(x)
    return float(f"{x:.12g}")


def _non_finite(x) -> ValueError:
    return ValueError(f"reports cannot contain non-finite value {x!r}")


def _number(x: float) -> str:
    """repr(canonical_float(x)), formatting x once where the two agree.

    %.12g writes 1e12 <= |x| < 1e16 with an exponent where repr writes it
    out, and a subnormal's shortest repr may have fewer digits than its
    %.12g text, so those take repr of the rounded value."""
    s = f"{x:.12g}"
    if "e" in s:
        exponent = int(s[s.index("e") + 1:])
        return repr(float(s)) if 12 <= exponent < 16 or exponent <= -308 else s
    if "." in s:
        return s
    if "n" in s:  # nan, inf or -inf
        raise _non_finite(x)
    return s + ".0"


class _Vector(list):
    """The texts of a JSON array's items, written as they are, one a line."""


class _Ranking(NamedTuple):
    """Vertices by descending published score, each with its score's text."""

    order: np.ndarray  # 0-based vertices
    texts: _Vector  # the scores' texts, by vertex


def _prepare(obj):
    """obj with every scalar and vector formatted, in insertion order, so
    the first non-finite value is the one named and no byte is written
    before it is found.  A 2-D float array is only checked here; the
    writer formats it a row at a time."""
    if type(obj) in (_Vector, _Ranking):
        return obj
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.dtype.kind == "f":
            bad = ~np.isfinite(obj)
            if bad.any():
                raise _non_finite(float(obj[bad][0]))
            return obj
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _prepare(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if all(type(x) is float for x in obj):
            return _Vector(map(_number, obj))
        items = [_prepare(x) for x in obj]
        return _Vector(items) if all(type(x) is str for x in items) else items
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _number(float(obj))
    return json.dumps(obj)


def _array(texts: list, newline: str) -> str:
    """A JSON array of these item texts, one a line, closed after `newline`."""
    if not texts:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _pieces(node, newline: str):
    """The text of a prepared node after `newline`, as json.dumps(...,
    sort_keys=True, indent=2) lays it out: each vector, ranking and matrix
    row is one piece."""
    inner = newline + "  "
    if type(node) is str:
        yield node
    elif type(node) is _Vector:
        yield _array(node, newline)
    elif type(node) is _Ranking:
        pair = inner + "  "
        texts = node.texts
        yield _array([f"[{pair}{v + 1},{pair}{texts[v]}{inner}]" for v in node.order.tolist()],
                     newline)
    elif isinstance(node, np.ndarray):
        for i, row in enumerate(node):
            yield ("," if i else "[") + inner + _array(list(map(_number, row.tolist())), inner)
        yield newline + "]" if len(node) else "[]"
    elif not node:
        yield "{}" if type(node) is dict else "[]"
    else:
        keyed = type(node) is dict
        for i, key in enumerate(sorted(node) if keyed else range(len(node))):
            yield ("," if i else "{" if keyed else "[") + inner + (
                json.dumps(key) + ": " if keyed else "")
            yield from _pieces(node[key], inner)
        yield newline + ("}" if keyed else "]")


def _chunks(pieces, size: int = 1 << 16):
    """The pieces joined into chunks of at least `size` characters, the last
    excepted, so an unbuffered stream is not written a few bytes at a time."""
    buffer, length = [], 0
    for piece in pieces:
        buffer.append(piece)
        length += len(piece)
        if length >= size:
            yield "".join(buffer)
            buffer, length = [], 0
    if buffer:
        yield "".join(buffer)


def _report(report: dict):
    """The report's text as chunks; every failure is raised before the first."""
    return _chunks(chain(_pieces(_prepare(report), "\n"), ["\n"]))


def dumps_report(report: dict) -> str:
    """Serialize a report deterministically; loads/dumps round-trips bytes.

    The text is that of json.dumps(..., sort_keys=True, indent=2), with
    numpy values as Python ones and every float as repr(canonical_float(x)).
    Keys must be strings.
    """
    return "".join(_report(report))


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
    vector counts as no agreement (0.0).  Scores that are not 1-D, or a nan
    score, are a ValueError; an infinite one ranks.  O(n log n) by Knight's method
    (JASA 61, 1966): sort by (x, y), count ties, and count the discordant
    pairs as inversions of y.  The pair counts are exact integers, so the
    result equals the pairwise definition bit for bit.
    """
    x, y = _scores(x), _scores(y)
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
# and any fields of its own.  d, f and diagnostics come from the engine on
# the graph's edge columns, so neither depends on emit_matrix; T is formed
# only when it is printed.

def _pwp_block(g: DirectInfluenceGraph, args, emit_matrix: bool) -> dict:
    op = to_operator(g)
    result = pwp(op, lam=args.lam, tol=args.tol)
    report = result.diagnostics
    scale = math.expm1(args.lam) if args.paper_scale else 1.0
    with np.errstate(over="ignore"):
        d_scaled, f_scaled = result.vectors.d * scale, result.vectors.f * scale
    _finite("paper-scaled d or f", d_scaled, f_scaled)
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
    op = to_operator(g)
    result = micmac(op, k=args.k)
    block = {
        "method": {"name": "micmac", "k": args.k},
        "paper_scale": False,
        "d": result.vectors.d,
        "f": result.vectors.f,
        "diagnostics": {},
    }
    if emit_matrix:
        block["T"] = mat_pow(op._array(), args.k)
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
        block["T"] = np.broadcast_to(result.stationary[:, None], (g.n, g.n))
    return block


_METHODS = {"pwp": _pwp_block, "micmac": _micmac_block, "pagerank": _pagerank_block}


def _published(x: np.ndarray) -> _Vector:
    """x's entries as the report prints them, each formatted once; their
    `values` are what the texts read as, canonical_float of each entry."""
    texts = _Vector(map(_number, x.tolist()))
    texts.values = np.fromiter(map(float, texts), float, len(texts))
    return texts


def _method_blocks(names, g: DirectInfluenceGraph, args, emit_matrix: bool) -> list[dict]:
    """Each named engine's block with d and f as published and both rankings."""
    blocks = []
    for name in names:
        block = _METHODS[name](g, args, emit_matrix)
        d, f = block["d"], block["f"] = _published(block["d"]), _published(block["f"])
        # rank the scores exactly as the report prints them, so ties are ties
        block["ranking_by_dependence"] = _Ranking(_ranking_order(d.values), d)
        block["ranking_by_influence"] = _Ranking(_ranking_order(f.values), f)
        blocks.append(block)
    return blocks


def _graph_summary(g: DirectInfluenceGraph) -> dict:
    return {"n": g.n, "edges": g.edge_count}


def _load_graph(path: str) -> DirectInfluenceGraph:
    # utf-8-sig: a byte-order mark, as spreadsheets save "CSV UTF-8", is not text
    return parse_edge_list(Path(path).read_text(encoding="utf-8-sig"))


def _emit(chunks, output: str | None):
    """Write the chunks to stdout, or to the file `output`, and flush them,
    so a failed write is raised here.  A regular file is left only once
    every chunk is written; a symlink or a device that `output` names is
    never removed."""
    if not output:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
        return
    with open(output, "w", encoding="utf-8") as file:
        try:
            file.writelines(chunks)
            file.flush()
        except BaseException:
            if stat.S_ISREG(os.lstat(output).st_mode):
                os.unlink(output)
            raise


def _csv(header: str, blocks: list[dict], n: int):
    """One row per vertex: its published d and f from each block in turn."""
    columns = [block[key] for block in blocks for key in ("d", "f")]
    rows = zip(map(str, range(1, n + 1)), *columns)
    return _chunks(chain([header + "\n"], (",".join(row) + "\n" for row in rows)))


def cmd_compute(args) -> int:
    g = _load_graph(args.graph)
    # the CSV holds d and f only, so it forms no T
    [block] = _method_blocks([args.method], g, args, args.emit_matrix and not args.csv)
    if args.csv:
        _emit(_csv("vertex,d,f", [block], g.n), args.output)
    else:
        _emit(_report({"graph": _graph_summary(g), **block}), args.output)
    return 0


def cmd_compare(args) -> int:
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not names or not set(names) <= _METHODS.keys():
        *others, last = _METHODS
        raise ValueError(
            f"--methods must name {', '.join(others)}, or {last}, got {args.methods!r}"
        )
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ValueError(f"--methods names {repeated[0]} more than once, got {args.methods!r}")
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
            for side, vector in (("dependence", "d"), ("influence", "f")):
                x, y = blocks[a][vector].values, blocks[b][vector].values
                # below two vertices there is no pair to agree or disagree on
                agreement[side][key] = kendall_tau(x, y) if g.n >= 2 else None
    report = {"graph": _graph_summary(g), "methods": blocks, "rank_agreement": agreement}
    _emit(_report(report), args.output)
    return 0


_FAMILIES = {
    "line": lambda args: families.Line(args.n),
    "cycle": lambda args: families.Cycle(args.n),
    "jordan": lambda args: families.Jordan(args.n, args.a),
    "star": lambda args: families.Star(args.n),
}


def cmd_generate(args) -> int:
    g = families.build(_FAMILIES[args.family](args))
    _emit([format_edge_list(g)], args.output)
    return 0


def cmd_montecarlo(args) -> int:
    _at_least("-N", args.samples, 1, _MOST_SAMPLES)
    _at_least("--seed", args.seed, 0, 2**128 - 1)
    g = _load_graph(args.graph)
    d = to_operator(g)
    # lambda, tol and e^lambda - 1 before sampling; past its range lambda is
    # a numeric failure (exit 3), whatever the sampler makes of it
    _checked(args.lam, args.tol, True)
    # how many of the N lengths take each value, drawn as counts
    tally = _draw_tally(args.lam, args.samples, make_rng(args.seed))
    # the errors of the sampled d and f, and their z-scores where the
    # standard error is above 0; T is formed only when it is printed
    estimate, exact, sigma = _sums(d, args.lam, tally, args.tol)
    with np.errstate(over="ignore", invalid="ignore"):
        error = np.abs(estimate - exact)
        z = error[sigma > 0] / sigma[sigma > 0]
        errors = {
            "max_abs_error": error.max(initial=0.0),
            "max_abs_z": z.max(initial=0.0),
            "mean_abs_z": z.mean() if z.size else 0.0,
        }
    _finite("the sampling error of d or f or its z-score", *errors.values())
    report = {
        "graph": _graph_summary(g),
        "lambda": args.lam,
        "samples": args.samples,
        "seed": args.seed,
        **errors,
        "mean_length": {
            "empirical": tally.total / tally.size,
            "expected": moments(args.lam).mean,
        },
    }
    if args.emit_matrix:
        report["estimate"], report["exact"] = _matrices(d, args.lam, tally, args.tol)
    _emit(_report(report), args.output)
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
    compute.add_argument("--emit-matrix", dest="emit_matrix", action="store_true",
                         help="add T to the JSON report (no effect with --csv)")
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
        "montecarlo",
        help="sampled estimates of pwp's d and f vs the exact ones, with z-scores",
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
        _complain(f"error: {exc}")
        return getattr(exc, "exit_code", 2)
    except MemoryError as exc:
        # numpy names the allocation that failed, such as a dense D for a vast n
        _complain(f"error: {str(exc) or 'out of memory'}")
        return 3


def _complain(line: str) -> None:
    """Write the line to stderr; where stderr is closed (None, which print
    would take for stdout) or refuses the write, the exit code alone tells
    what failed."""
    if sys.stderr is not None:
        with suppress(OSError):
            print(line, file=sys.stderr, flush=True)


def run():
    """The `influx` command: main() on sys.argv, then os._exit, which skips
    the interpreter's teardown (about 20 ms); main has flushed the report."""
    code = main()
    if sys.stderr is not None:
        with suppress(OSError):  # an error line stderr refused is still buffered
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
