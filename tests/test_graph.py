"""Graph construction, edge-list parsing, and the matrix encoding."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from influx import graph
from influx import (
    DimensionMismatch,
    DirectInfluenceGraph,
    DuplicateEdge,
    Edge,
    IndexOutOfRange,
    InfluenceError,
    MalformedLine,
    NonFiniteWeight,
    format_edge_list,
    format_matrix_text,
    from_matrix,
    is_column_stochastic,
    parse_edge_list,
    read_matrix_text,
    to_matrix,
    web_normalize,
)


# -- parsing ----------------------------------------------------------------

def test_parse_single_edge():
    g = parse_edge_list("1,2,1.0")
    assert g.n == 2
    assert g.edges == (Edge(1, 2, 1.0),)


def test_parse_empty_with_explicit_n():
    g = parse_edge_list("", n=3)
    assert g.n == 3
    assert g.edges == ()


def test_parse_comments_and_blanks():
    text = "# heading\n\n1,2,0.5\n   \n# trailing\n2,3,-1.5\n"
    g = parse_edge_list(text)
    assert g.edges == (Edge(1, 2, 0.5), Edge(2, 3, -1.5))


def test_parse_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge) as err:
        parse_edge_list("1,2,0.5\n1,2,0.7")
    assert (err.value.source, err.value.target) == (1, 2)


def test_parse_duplicate_even_with_same_weight():
    with pytest.raises(DuplicateEdge):
        parse_edge_list("1,2,0.5\n1,2,0.5")


def test_parse_malformed_line_numbers():
    with pytest.raises(MalformedLine) as err:
        parse_edge_list("1,2,1.0\nnot an edge\n")
    assert err.value.line_no == 2

    with pytest.raises(MalformedLine) as err:
        parse_edge_list("1,2\n")
    assert err.value.line_no == 1

    with pytest.raises(MalformedLine):
        parse_edge_list("1.5,2,1.0")  # non-integer vertex

    with pytest.raises(MalformedLine):
        parse_edge_list("1,2,abc")


def test_parse_non_finite_weight():
    with pytest.raises(NonFiniteWeight) as err:
        parse_edge_list("1,2,inf")
    assert err.value.line_no == 1
    with pytest.raises(NonFiniteWeight):
        parse_edge_list("1,2,nan")
    # checked as its line is read: before the later bad line, and before
    # the vertex 0 that the whole-graph check would find
    with pytest.raises(NonFiniteWeight) as err:
        parse_edge_list("1,2,1\n0,3,nan\nnot an edge\n")
    assert err.value.line_no == 2


def test_parse_holds_three_columns_not_a_tuple_an_edge(edge_list):
    # 99 988 edges; a 4-tuple of Python objects an edge, transposed by zip,
    # peaked at about 370 B an edge, three column lists at about 256
    text = edge_list(20_000, 17)
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 99_988
    assert peak / g.edge_count < 300


def _parsed(text):
    """The graph's n and edges, or the error's type, message and line."""
    try:
        g = parse_edge_list(text)
    except InfluenceError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return g.n, g.edges


_NEAR_MISS_CELLS = ["1", "2", "3", "12", " 2", "3\t", "\t1 ", "+1", "-1", "0", "01", "1_0",
                    "0.5", "-0.0", " .5 ", "1e3", "0_5", "inf", "-inf", "nan", "1.5", "",
                    "x", "\u0663", "\u00a0", "\x0c1", "2\x0b", "1\x1c", "1\x85"]


@st.composite
def _near_miss_edge_lists(draw):
    """Edge-list text one token from right: cells that int and float read
    only in part, blank and comment lines, and every line end."""
    lines = draw(st.lists(st.one_of(
        st.lists(st.sampled_from(_NEAR_MISS_CELLS), min_size=3, max_size=3).map(",".join),
        st.lists(st.sampled_from(["1", "2", "0.5"]), min_size=1, max_size=4).map(",".join),
        st.sampled_from(["", "  ", "\t", "# c_\u00fc,1", "  # x", "\x0c", "1,2,0.5", "2,1,0.25"]),
    ), max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@example("1,2,0.5,1")  # four fields on one line
@example("1,2\n3,4,5,6")  # two fields and four: six cells for two lines
@example("1,2,3,4,5,6")
@given(_near_miss_edge_lists())
def test_column_read_agrees_with_the_line_loop(text):
    # the column read takes only text that the line loop reads the same
    with mock.patch.object(graph, "_read_columns", lambda text: None):
        expected = _parsed(text)
    assert _parsed(text) == expected
    if graph._read_columns(graph._newlines(text)) is not None:
        # no line is at fault, though the edges may be
        assert len(expected) == 2 or expected[0] in (DuplicateEdge, IndexOutOfRange)


@pytest.mark.parametrize("text", [
    "1,2,0.5\n2,3,0.25\n",
    "1,2,0.5\r\n2,3,0.25",
    "# source,target,weight\n\n 1 ,\t2, 0.5 \n\n# the end_\u00fc\n2,3,-1e-3\n\n",
])
def test_well_formed_text_is_read_a_column_at_a_time(text):
    assert graph._read_columns(graph._newlines(text)) is not None


def test_parse_index_out_of_range():
    with pytest.raises(IndexOutOfRange) as err:
        parse_edge_list("0,2,1.0")
    assert str(err.value) == "vertex index 0 outside [1, 2]"  # the file's n
    with pytest.raises(IndexOutOfRange):
        parse_edge_list("1,-3,1.0")


def test_parse_supplied_n_grows_to_fit():
    g = parse_edge_list("1,5,2.0", n=3)
    assert g.n == 5


def test_parse_whitespace_tolerated():
    g = parse_edge_list(" 1 , 2 , 0.25 ")
    assert g.edges == (Edge(1, 2, 0.25),)


@pytest.mark.parametrize(
    "line",
    ["1,2,0_5", "1_0,2,0.5", "1,2_0,0.5", "\u0661,2,0.5", "\uff12,1,0.5", "1,2,0.\u0665",
     "1,2,0.5\u00a0", "1,\u20032,0.5"],
    ids=["weight 0_5", "source 1_0", "target 2_0", "arabic-indic 1", "fullwidth 2",
         "arabic-indic weight digit", "no-break space", "em space"],
)
def test_parse_refuses_underscores_and_non_ascii_on_a_data_line(line):
    # Python's int and float read "1_0" as 10 and take any Unicode digit
    with pytest.raises(MalformedLine) as err:
        parse_edge_list(f"# \u00fcber: comments may hold any text\n1,3,0.5\n\n{line}\n")
    assert (err.value.line_no, err.value.text) == (4, line)


@pytest.mark.parametrize("text, line_no, line", [
    ("1,2,0.5\x0c\n2,3,0.5\nbad\n", 1, "1,2,0.5\x0c"),
    ("1,\x1c2,0.5", 1, "1,\x1c2,0.5"),
    ("1,2,0.5\r\n2,3,0.5\rbad\n", 3, "bad"),
    ("# a\x0bcomment\n\x0c\n1,2,0.5\x85\n", 3, "1,2,0.5\x85"),
    ("1,2,0.5\n2,3,0.5\u2028\nbad\n", 2, "2,3,0.5\u2028"),
    ("1,2,\x000.5\n", 1, "1,2,\x000.5"),
    ("\t1,\t2,\t0.5\t\n1,3\x1e,0.5\n", 2, "1,3\x1e,0.5"),
], ids=["form feed", "file separator", "CR and CRLF", "next line", "line separator", "NUL",
        "record separator after tabs"])
def test_lines_are_the_file_lines(text, line_no, line):
    # only "\n", "\r\n" and "\r" end a line; any other control character
    # but tab makes its data line malformed, at the line's own number
    with pytest.raises(MalformedLine) as err:
        parse_edge_list(text)
    assert (err.value.line_no, err.value.text) == (line_no, line)


def test_an_iterable_of_lines_loses_one_line_end_a_line():
    assert parse_edge_list(["1,2,0.5\r\n", "# c\r", "2,3,0.25\n", "3,1,1"]).edge_count == 3
    with pytest.raises(MalformedLine) as err:
        parse_edge_list(["1,2,0.5\n", "2,3\n,0.5\n"])
    assert (err.value.line_no, err.value.text) == (2, "2,3\n,0.5")


@pytest.mark.parametrize("text, message", [
    ("2\r\n1,2\r3,4\nx\n", "line 4: expected 2 matrix rows, got '3'"),
    ("2\n1,\x0c2\n3,4\n", "line 2: expected a matrix row of 2 comma-separated numbers, got '1,\\x0c2'"),
    ("1\n1_0\n", "line 2: expected a matrix row of 1 comma-separated numbers, got '1_0'"),
    ("\x0b2\n1,2\n3,4\n", "line 1: expected a matrix row count n >= 0, got '\\x0b2'"),
], ids=["CR and CRLF", "form feed", "underscore", "vertical tab in n"])
def test_matrix_text_lines_follow_the_edge_list_rule(text, message):
    with pytest.raises(MalformedLine) as err:
        read_matrix_text(text)
    assert str(err.value) == message


def test_graph_rejects_bad_edges_directly():
    with pytest.raises(IndexOutOfRange):
        DirectInfluenceGraph(2, (Edge(1, 3, 1.0),))
    with pytest.raises(NonFiniteWeight):
        DirectInfluenceGraph(2, (Edge(1, 2, float("nan")),))
    with pytest.raises(DuplicateEdge):
        DirectInfluenceGraph(2, (Edge(1, 2, 1.0), Edge(1, 2, 2.0)))


@pytest.mark.parametrize(
    "edges, named",
    [([(1, 2)], "(1, 2)"), ([(1, 2, 1.0, 5)], "(1, 2, 1.0, 5)"),
     ([(1, 2, 1.0, 5), (2, 3, 1.0)], "(1, 2, 1.0, 5)"),  # zip would drop the extra column
     ([(2, 3, 1.0), (1, 2)], "(1, 2)"), ([7], "7")],
)
def test_graph_refuses_an_edge_that_is_not_a_triple(edges, named):
    with pytest.raises(ValueError) as err:
        DirectInfluenceGraph(3, edges)
    assert str(err.value) == f"an edge must be a (source, target, weight) triple, got {named}"


@pytest.mark.parametrize("edge", [{1: "a", 2: "b", 3: "c"}, {1, 2, 3}, frozenset({1, 2, 3})],
                         ids=["dict", "set", "frozenset"])
def test_graph_refuses_a_dict_or_set_edge(edge):
    # each unpacks into three items: a dict's keys, a set's in no set order
    with pytest.raises(ValueError) as err:
        DirectInfluenceGraph(3, [edge])
    assert str(err.value) == f"an edge must be a (source, target, weight) triple, got {edge!r}"


def test_duplicate_named_by_its_earliest_second_occurrence():
    # sorted by (source, target), 1->2 would come first
    with pytest.raises(DuplicateEdge) as err:
        parse_edge_list("1,2,1\n3,4,1\n3,4,2\n1,2,2")
    assert (err.value.source, err.value.target) == (3, 4)


def test_columns_are_sorted_and_read_only():
    g = parse_edge_list("2,1,0.5\n1,3,2.0\n1,2,-1.0")
    assert g.source.tolist() == [1, 1, 2] and g.target.tolist() == [2, 3, 1]
    assert g.weight.tolist() == [-1.0, 2.0, 0.5]
    assert (g.source.dtype, g.target.dtype, g.weight.dtype) == (np.int64, np.int64, float)
    for column in (g.source, g.target, g.weight):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 3
    with pytest.raises(AttributeError):
        g.n = 5
    assert g.out_degree(1) == 2 and g.out_degree(3) == 0
    for v in (0, 4):
        with pytest.raises(IndexOutOfRange):
            g.out_degree(v)


def test_self_loops_allowed():
    g = parse_edge_list("1,1,0.5")
    assert g.edges == (Edge(1, 1, 0.5),)
    assert to_matrix(g)[0, 0] == 0.5


# -- matrix encoding ---------------------------------------------------------

def test_to_matrix_single_edge():
    # one edge 1 -> 2 lands at row 2, column 1
    g = parse_edge_list("1,2,1.0")
    d = to_matrix(g)
    expected = np.zeros((2, 2))
    expected[1, 0] = 1.0
    assert np.array_equal(d, expected)


def test_to_matrix_no_edges_is_zero():
    g = parse_edge_list("", n=4)
    assert np.array_equal(to_matrix(g), np.zeros((4, 4)))


def test_to_matrix_cycle3():
    g = parse_edge_list("1,2,1\n2,3,1\n3,1,1")
    d = to_matrix(g)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    assert np.array_equal(d, expected)


def test_from_matrix_round_trip():
    g = parse_edge_list("1,2,0.5\n2,3,-2.0\n3,3,1.25")
    assert from_matrix(to_matrix(g)) == g


def test_line_order_does_not_matter():
    a = parse_edge_list("1,2,1.0\n2,3,2.0")
    b = parse_edge_list("2,3,2.0\n1,2,1.0")
    assert a == b
    assert np.array_equal(to_matrix(a), to_matrix(b))


def test_transpose_equals_reversed_graph():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        edges = []
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                if rng.random() < 0.4:
                    edges.append(Edge(s, t, float(rng.uniform(-2, 2))))
        g = DirectInfluenceGraph(n, tuple(edges))
        assert np.array_equal(to_matrix(g).T, to_matrix(g.reverse()))


# -- the array forms against the per-edge loops they replaced -------------------

def _to_matrix_loop(g):
    d = np.zeros((g.n, g.n))
    for e in g.edges:
        d[e.target - 1, e.source - 1] = e.weight
    return d


def _web_normalize_loop(g):
    out = [0] * (g.n + 1)
    for e in g.edges:
        out[e.source] += 1
    d = np.zeros((g.n, g.n))
    for e in g.edges:
        d[e.target - 1, e.source - 1] = 1.0 / out[e.source]
    return d


def _from_matrix_loop(d):
    n = d.shape[0]
    return DirectInfluenceGraph(
        n, tuple(Edge(j + 1, i + 1, float(d[i, j])) for i in range(n) for j in range(n) if d[i, j] != 0.0)
    )


@st.composite
def _graphs(draw):
    """Graphs with self-loops, -0.0 and negative weights, isolated vertices
    and vertices of many out-edges; n = 0 included."""
    n = draw(st.integers(0, 9))
    pairs = draw(st.lists(st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1))),
                          unique=True, max_size=n * n))
    weights = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
    return DirectInfluenceGraph(n, tuple(Edge(s, t, draw(weights)) for s, t in pairs))


@given(_graphs())
def test_matrix_encodings_equal_their_loop_forms_bit_for_bit(g):
    d = to_matrix(g)
    assert d.tobytes() == _to_matrix_loop(g).tobytes()
    assert web_normalize(g).tobytes() == _web_normalize_loop(g).tobytes()
    assert from_matrix(d) == _from_matrix_loop(d)


# -- the one edge check against the per-edge loops it replaced -------------------

def _checked_loop(n, edges):
    """The constructor's per-edge check before the graph held columns: its
    sorted edges, or the first defect in input order."""
    normalized, seen = [], set()
    for e in edges:
        edge = Edge(int(e[0]), int(e[1]), float(e[2]))
        for v in (edge.source, edge.target):
            if not 1 <= v <= n:
                raise IndexOutOfRange(v, n)
        if not math.isfinite(edge.weight):
            raise NonFiniteWeight(edge.weight)
        key = (edge.source, edge.target)
        if key in seen:
            raise DuplicateEdge(*key)
        seen.add(key)
        normalized.append(edge)
    return tuple(sorted(normalized))


def _parse_loop(text, n=None):
    """parse_edge_list's own line-by-line checks, then the constructor's."""
    edges, max_seen = [], 0
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            source, target, weight = line.split(",")
            source, target, weight = int(source), int(target), float(weight)
        except ValueError:
            raise MalformedLine(line_no, raw.rstrip("\n")) from None
        if not math.isfinite(weight):
            raise NonFiniteWeight(weight, line_no=line_no)
        if source < 1 or target < 1:
            raise IndexOutOfRange(min(source, target), max(max_seen, n or 0))
        edges.append(Edge(source, target, weight))
        max_seen = max(max_seen, source, target)
    return _checked_loop(max(max_seen, n or 0), edges)


@st.composite
def _edge_lists(draw):
    """(n, edges): a shuffled edge list with up to three injected defects,
    each a repeated pair, an index <= 0 or > n, or an inf or nan weight."""
    n = draw(st.integers(0, 6))
    pairs = draw(st.lists(st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1))),
                          unique=True, max_size=n * n))
    weights = st.one_of(st.just(-0.0), st.floats(-2, 2))
    edges = [[s, t, draw(weights)] for s, t in pairs]
    for defect in draw(st.lists(st.sampled_from(["repeat", "low", "high", "weight"]), max_size=3)):
        if not edges:
            break
        edge = edges[draw(st.integers(0, len(edges) - 1))]
        if defect == "repeat":
            edges.append([edge[0], edge[1], draw(weights)])
        elif defect == "weight":
            edge[2] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        else:
            end = draw(st.integers(0, 1))
            edge[end] = draw(st.integers(-2, 0)) if defect == "low" else n + draw(st.integers(1, 3))
    return n, [tuple(e) for e in draw(st.permutations(edges))]


def _defects(n, edges) -> int:
    """Indices outside [1, n], non-finite weights and repeats of a pair."""
    return (sum(not 1 <= v <= n for s, t, _ in edges for v in (s, t))
            + sum(not math.isfinite(w) for *_, w in edges)
            + len(edges) - len({(s, t) for s, t, _ in edges}))


def _agree(build, reference, single_defect: bool, n: int):
    """build() and reference() give the same edges, or fail with the same
    exit code, and with a single defect the same class and message.  The
    [1, n] of an IndexOutOfRange is checked against the graph's n alone: the
    parse loop named the largest index read so far."""
    try:
        edges = reference()
    except InfluenceError as expected:
        with pytest.raises(InfluenceError) as err:
            build()
        assert err.value.exit_code == expected.exit_code
        if single_defect:
            assert type(err.value) is type(expected)
            if isinstance(expected, IndexOutOfRange):
                assert (err.value.index, err.value.n) == (expected.index, n)
            else:
                assert str(err.value) == str(expected)
        return None
    g = build()
    assert g.edges == edges
    return g


@given(_edge_lists())
def test_one_edge_check_agrees_with_the_per_edge_loops(case):
    n, edges = case
    text = "".join(f"{s},{t},{w!r}\n" for s, t, w in edges)
    parsed_n = max([n] + [v for s, t, _ in edges for v in (s, t)])
    built = _agree(lambda: DirectInfluenceGraph(n, edges), lambda: _checked_loop(n, edges),
                   _defects(n, edges) == 1, n)
    parsed = _agree(lambda: parse_edge_list(text, n), lambda: _parse_loop(text, n),
                    _defects(parsed_n, edges) == 1, parsed_n)
    if built is not None:
        # another input order, and -0.0 weights read as 0.0
        other = DirectInfluenceGraph(n, [(s, t, w + 0.0) for s, t, w in reversed(edges)])
        assert built == parsed == other
        assert hash(built) == hash(parsed) == hash(other)


# -- web normalization --------------------------------------------------------

def test_web_normalize_line3():
    g = parse_edge_list("1,2,9.0\n2,3,4.0")  # weights must be ignored
    d = web_normalize(g)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    assert np.array_equal(d, expected)
    assert np.all(d[:, 2] == 0.0)


def test_web_normalize_star_two_leaves():
    # hub stored as vertex 3; its two out-edges get weight 1/2 each
    g = parse_edge_list("3,1,1\n3,2,1\n1,3,1\n2,3,1")
    d = web_normalize(g)
    assert d[0, 2] == 0.5 and d[1, 2] == 0.5
    assert d[2, 0] == 1.0 and d[2, 1] == 1.0


def test_web_normalize_single_vertex():
    g = parse_edge_list("", n=1)
    assert np.array_equal(web_normalize(g), np.zeros((1, 1)))


def test_web_normalize_columns_sum_zero_or_one():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        edges = [
            Edge(s, t, float(rng.uniform(-1, 1)))
            for s in range(1, n + 1)
            for t in range(1, n + 1)
            if rng.random() < 0.35
        ]
        d = web_normalize(DirectInfluenceGraph(n, tuple(edges)))
        sums = d.sum(axis=0)
        assert np.all((np.abs(sums) <= 1e-12) | (np.abs(sums - 1.0) <= 1e-12))


# -- column-stochastic predicate ----------------------------------------------

def test_cycle_adjacency_is_column_stochastic():
    g = parse_edge_list("1,2,1\n2,3,1\n3,1,1")
    assert is_column_stochastic(to_matrix(g), 1e-12)


def test_line_adjacency_is_not_column_stochastic():
    g = parse_edge_list("1,2,1\n2,3,1")
    assert not is_column_stochastic(to_matrix(g), 1e-12)


def test_identity_is_column_stochastic():
    assert is_column_stochastic(np.eye(4), 0.0)


def test_empty_matrix_is_column_stochastic_and_tol_is_checked():
    assert is_column_stochastic(np.zeros((0, 0)))
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            is_column_stochastic(np.eye(2), tol)


@pytest.mark.parametrize(
    "d, error",
    [
        (np.full((2, 3), 0.5), DimensionMismatch),  # each column sums to 1
        (np.ones(1), DimensionMismatch),
        (np.ones((1, 1, 1)), DimensionMismatch),
        # a nan entry raised no error, and the answer was False
        (np.array([[math.nan]]), ValueError),
    ],
)
def test_column_stochastic_takes_only_a_square_finite_matrix(d, error):
    with pytest.raises(error):
        is_column_stochastic(d)


def test_negative_entries_rejected():
    d = np.array([[0.0, 1.5], [1.0, -0.5]])
    assert not is_column_stochastic(d, 1e-12)


# -- file formats --------------------------------------------------------------

def test_edge_list_format_round_trip():
    g = parse_edge_list("1,2,0.1\n3,1,-2.5\n2,2,1.0")
    assert parse_edge_list(format_edge_list(g)) == g


def test_matrix_text_round_trip():
    rng = np.random.default_rng(3)
    d = rng.uniform(-3, 3, (4, 4))
    text = format_matrix_text(d)
    assert text.splitlines()[0] == "4"
    assert np.array_equal(read_matrix_text(text), d)


@pytest.mark.parametrize("fn", [from_matrix, format_matrix_text])
def test_matrix_functions_reject_non_square(fn):
    with pytest.raises(ValueError):
        fn(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        fn(np.zeros(3))


def test_matrix_text_bad_input():
    with pytest.raises(MalformedLine):
        read_matrix_text("2\n1.0,2.0\n")  # missing a row
    with pytest.raises(MalformedLine):
        read_matrix_text("2\n1.0,2.0\n3.0\n")  # short row


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n1,2\n3\n", "line 3: expected a matrix row of 2 comma-separated numbers, got '3'"),
        ("2\n1,x\n3,4\n", "line 2: expected a matrix row of 2 comma-separated numbers, got '1,x'"),
        ("-1\n", "line 1: expected a matrix row count n >= 0, got '-1'"),
        ("two\n", "line 1: expected a matrix row count n >= 0, got 'two'"),
        ("# nothing\n", "line 1: expected a matrix row count n >= 0, got ''"),
        ("2\n1,2\n", "line 2: expected 2 matrix rows, got '1'"),
        ("1\n1\n2\n", "line 3: expected 1 matrix rows, got '2'"),
        ("# c\n\n2\n1,2\n3\n", "line 5: expected a matrix row of 2 comma-separated numbers, got '3'"),
        ("# c\n\n2\n1,2\n", "line 4: expected 2 matrix rows, got '1'"),
        ("# c\n-1\n", "line 2: expected a matrix row count n >= 0, got '-1'"),
    ],
    ids=["short row", "bad number", "negative n", "n not a number", "no lines", "too few rows",
         "too many rows", "short row after comments", "too few rows after comments",
         "negative n after a comment"],
)
def test_matrix_text_errors_name_the_matrix_format(text, message):
    with pytest.raises(MalformedLine) as err:
        read_matrix_text(text)
    assert str(err.value) == message


def test_matrix_text_names_the_non_finite_weight():
    # the edge-list parser's message for the same fault, not the whole row
    with pytest.raises(NonFiniteWeight, match="^line 2: weight nan is not finite$"):
        read_matrix_text("2\n1,nan\n0,0\n")
    with pytest.raises(NonFiniteWeight, match="^line 3: weight -inf is not finite$"):
        read_matrix_text("2\n0,0\n-inf,nan\n")


def test_edge_list_errors_keep_their_message():
    with pytest.raises(MalformedLine, match="^line 1: expected 'source,target,weight', got '1,2'$"):
        parse_edge_list("1,2\n")


@pytest.mark.parametrize(
    "edges, match",
    [
        ([(2.9, 1, 1.0)], "source must be integers"),
        ([(True, 2, 1.0)], "source must be integers"),
        (np.array([[1.0, 2.0, 1.0]]), "source must be integers"),
        ([(1, 2.0, 1.0)], "target must be integers"),
        ([(1, "2", 1.0)], "target must be integers"),
        ([(Fraction(5, 2), 1, 1.0)], "source must be integers"),
        ([(None, 1, 1.0)], "source must be integers"),
        ([(True, 1, 1.0), (2, 3, 1.0)], "source must be integers, got True"),  # numpy's common type is int64
        ([(1, 2, 1.0), (2, np.False_, 1.0)], "target must be integers, got False"),
    ],
)
def test_vertex_indices_must_be_integers(edges, match):
    with pytest.raises(ValueError, match=match):
        DirectInfluenceGraph(3, edges)


@pytest.mark.parametrize(
    "edges",
    [[], [(np.int64(1), np.uint8(2), 1.0)], [(np.int32(3), 1, 0.5), (1, 3, 0.25)],
     [(np.int64(1), 2, 1.0), (np.uint64(3), 1, 1.0)]],  # numpy reads this source column as float64
)
def test_integer_vertex_indices_pass(edges):
    g = DirectInfluenceGraph(3, edges)
    assert g.source.dtype == g.target.dtype == np.int64
    assert g.edges == tuple(sorted((int(s), int(t), w) for s, t, w in edges))


@pytest.mark.parametrize("index", [2**63, -(2**63) - 1])  # numpy reads them as uint64 and object
def test_vertex_index_past_int64_is_out_of_range(index):
    with pytest.raises(IndexOutOfRange):
        DirectInfluenceGraph(2, [(index, 1, 1.0)])
