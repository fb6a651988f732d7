import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import all_graphs, bip_graphs, graphs
from turanmatch import (
    BipartiteGraph,
    CapacityError,
    DuplicateEdgeError,
    Edge,
    Graph,
    LabelRangeError,
    MalformedLineError,
    ParameterRangeError,
    ParseError,
    SelfLoopError,
    complete_graph,
    empty_graph,
    extremal_graph,
    join,
    parse_bipartite,
    parse_graph,
    serialize_bipartite,
    serialize_graph,
)


def test_complete_graph_edge_counts():
    assert complete_graph(0).m == 0 and complete_graph(0).n == 0
    assert complete_graph(1).m == 0 and complete_graph(1).n == 1
    assert complete_graph(5).m == 10


def test_complete_graph_capacity():
    complete_graph(64)
    with pytest.raises(CapacityError):
        complete_graph(65)


def test_join_small_cases():
    assert join(empty_graph(1), empty_graph(1)) == complete_graph(2)
    assert join(complete_graph(2), empty_graph(3)).m == 7
    assert join(complete_graph(2), empty_graph(5)).m == 11


def test_join_offsets_second_graph_labels():
    g = join(Graph.from_edges(2, [(1, 2)]), Graph.from_edges(2, [(1, 2)]))
    assert g.has_edge(3, 4)
    assert g.has_edge(1, 3) and g.has_edge(2, 4)


def test_join_capacity():
    with pytest.raises(CapacityError):
        join(empty_graph(40), empty_graph(30))


def test_extremal_graph_examples():
    g = extremal_graph(7, 2, 3)
    assert g.m == 11
    assert extremal_graph(7, 2, 5).m == 10
    assert not extremal_graph(7, 2, 5).adj[5] and not extremal_graph(7, 2, 5).adj[6]


def test_extremal_graph_at_top_ell_is_clique_plus_isolated():
    for k in range(4):
        n = 2 * k + 4
        g = extremal_graph(n, k, 2 * k + 1)
        kplus = complete_graph(2 * k + 1)
        assert all(g.adj[a] == kplus.adj[a] for a in range(2 * k + 1))
        assert all(g.adj[a] == 0 for a in range(2 * k + 1, n))


def test_extremal_graph_edge_count_grid():
    for k in range(6):
        for ell in range(k + 1, 2 * k + 2):
            for n in range(ell, 21):
                g = extremal_graph(n, k, ell)
                assert g.m == ell * (ell - 1) // 2 + (n - ell) * (2 * k + 1 - ell)


def test_extremal_graph_bottom_ell_equals_join():
    # the family's second description: K_c joined to K_(ell-c) ∪ E_(n-ell), c = 2k+1-ell
    for k in range(4):
        for ell in range(k + 1, 2 * k + 2):
            c = 2 * k + 1 - ell
            clique = (1 << (ell - c)) - 1
            for n in range(ell, 11):
                rest = Graph(n - c, [clique ^ 1 << a for a in range(ell - c)] + [0] * (n - ell))
                assert extremal_graph(n, k, ell) == join(complete_graph(c), rest)


def test_extremal_graph_capacity():
    extremal_graph(64, 1, 2)
    with pytest.raises(CapacityError, match="^at most 64 vertices supported, got 65$"):
        extremal_graph(65, 1, 2)


def test_extremal_graph_range_errors():
    with pytest.raises(ParameterRangeError):
        extremal_graph(7, 2, 2)
    with pytest.raises(ParameterRangeError):
        extremal_graph(7, 2, 6)
    with pytest.raises(ParameterRangeError):
        extremal_graph(4, 2, 5)


def test_graph_rejects_asymmetry_and_loops():
    # package code stores the rows it builds unchecked (``Graph._trusted``),
    # so every public entry point keeps the checks
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])
    with pytest.raises(ValueError):
        Graph(1, [0b1])
    for rows in ([0b100, 0b000], [0b10]):  # a vertex beyond n, a row missing
        with pytest.raises(ValueError):
            Graph(2, rows)
    for edges in ([(1, 1)], [(1, 4)], [(0, 2)]):
        with pytest.raises(ValueError):
            Graph.from_edges(3, edges)
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [0b100, 0b00])
    with pytest.raises(ValueError):
        BipartiteGraph.from_edges(2, 2, [(1, 3)])
    for text, error in (("2 1\n1 1", SelfLoopError), ("3 1\n1 4", LabelRangeError),
                        ("3 1\n0 2", LabelRangeError), ("3 1\n2 1", MalformedLineError)):
        with pytest.raises(error):
            parse_graph(text)
    for text in ("2 2 1\n3 1", "2 2 1\n1 3", "2 2 1\n0 1"):
        with pytest.raises(LabelRangeError):
            parse_bipartite(text)


def test_from_edges_rejects_a_repeated_edge():
    # an edge list is checked like a file's, not merged: a Graph edge listed
    # twice, in either order, is a duplicate, and so is a repeated biadjacency
    for edges in ([(1, 2), (1, 2)], [(1, 2), (2, 3), (2, 1)]):
        with pytest.raises(DuplicateEdgeError):
            Graph.from_edges(3, edges)
    with pytest.raises(DuplicateEdgeError):
        BipartiteGraph.from_edges(2, 2, [(1, 1), (2, 1), (1, 1)])
    assert Graph.from_edges(3, [(2, 1), (2, 3)]).m == 2
    assert BipartiteGraph.from_edges(2, 2, [(1, 2), (2, 1)]).m == 2


def test_only_omitted_rows_mean_no_edges():
    # an empty row list is a list of 0 rows, not "no rows given"
    assert Graph(3) == empty_graph(3) and Graph(0, []) == Graph(0)
    assert BipartiteGraph(2, 3).m == 0 and BipartiteGraph(0, 3, []) == BipartiteGraph(0, 3)
    with pytest.raises(ValueError, match="expected 3 adjacency rows, got 0"):
        Graph(3, [])
    for rows in ([], [0b1], [0, 0, 0]):
        with pytest.raises(ValueError, match=f"expected 2 biadjacency rows, got {len(rows)}"):
            BipartiteGraph(2, 3, rows)


def test_graph_queries_check_their_labels():
    g = Graph.from_edges(3, [(1, 2)])
    for u, v in ((0, 1), (1, 4), (4, 1)):
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            g.has_edge(u, v)
    for u in (0, 4):
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            g.degree(u)
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        g.add_edge(2, 2)
    bg = BipartiteGraph.from_edges(2, 3, [(1, 3)])
    for u, v in ((0, 1), (3, 1), (1, 0), (1, 4)):
        with pytest.raises(ValueError, match=r"outside X=1\.\.2, Y=1\.\.3"):
            bg.has_edge(u, v)


def test_parse_rejects_a_number_past_the_digit_limit():
    # int() refuses a decimal string longer than the interpreter's limit
    # (4,300 digits by default), so such a header is a malformed line
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer-string digit limit")
    huge = "1" * (limit + 1)
    with pytest.raises(MalformedLineError, match="line 1"):
        parse_graph(f"{huge} 0")
    with pytest.raises(MalformedLineError, match="line 1"):
        parse_bipartite(f"1 {huge} 0")


def test_edge_type_orders_endpoints():
    assert Edge(1, 2) == (1, 2)
    with pytest.raises(ValueError):
        Edge(2, 2)
    with pytest.raises(ValueError):
        Edge(0, 3)


@given(graphs(min_n=0, max_n=64))
@example(empty_graph(0))
@example(complete_graph(64))
def test_edges_are_checked_edges_in_order(g):
    # edges() makes each Edge without Edge.__new__'s check; each must equal
    # the checked Edge(u, v), listed by (u, v)
    expected = [Edge(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1) if g.has_edge(u, v)]
    got = g.edges()
    assert got == expected
    assert all(type(e) is Edge for e in got)


def test_add_edge_returns_new_graph():
    g = empty_graph(3)
    h = g.add_edge(1, 3)
    assert g.m == 0 and h.m == 1 and h.has_edge(1, 3)
    with pytest.raises(ValueError):
        h.add_edge(3, 1)


def test_parse_examples():
    g = parse_graph("3 2\n1 2\n2 3")
    assert g.edges() == [Edge(1, 2), Edge(2, 3)]
    with pytest.raises(SelfLoopError):
        parse_graph("2 1\n1 1")
    with pytest.raises(DuplicateEdgeError):
        parse_graph("3 2\n1 2\n1 2")


def test_parse_distinct_errors():
    with pytest.raises(MalformedLineError):
        parse_graph("")
    with pytest.raises(MalformedLineError):
        parse_graph("3 2\n1 2")
    with pytest.raises(MalformedLineError):
        parse_graph("3 1\n1  2")
    with pytest.raises(MalformedLineError):
        parse_graph("3 1\n2 1")
    with pytest.raises(MalformedLineError):
        parse_graph("3 1\n1 a")
    with pytest.raises(LabelRangeError):
        parse_graph("3 1\n1 4")
    with pytest.raises(LabelRangeError):
        parse_graph("3 1\n0 2")


def test_parse_rejects_text_outside_the_format():
    for text in (
        "4 3\n+1 2\n2 3\n3 4\n",
        "4 3\n01 2\n2 3\n3 4\n",
        "12 3\n1 2\n2 3\n1_0 11\n",
        "4 3\n1 \t2\n2 3\n3 4\n",
        "4 3\r\n1 2\r\n2 3\r\n3 4\r\n",
        "\uff13 0\n",  # full-width digit
        "-1 0\n",
        "3 2\n2 3\n1 2\n",  # edges out of order
        "1 0\n" + "9" * 5000,
    ):
        with pytest.raises(MalformedLineError):
            parse_graph(text)
    with pytest.raises(MalformedLineError):
        parse_bipartite("2 3 2\n2 1\n1 3\n")
    with pytest.raises(MalformedLineError):
        parse_bipartite("02 3 0\n")


@st.composite
def edge_list_texts(draw, serialized):
    """Texts drawn from ``serialized`` with a few random edits, or short
    arbitrary text."""
    alphabet = "0123456789 \n\r\t+-_\uff11"
    if draw(st.booleans()):
        return draw(st.text(alphabet=alphabet, max_size=24))
    text = draw(serialized)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace", "swap-lines")))
        if op == "swap-lines":
            lines = text.split("\n")
            a, b = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
        else:
            c = "" if op == "delete" else draw(st.sampled_from(alphabet))
            text = text[:i] + c + text[i + (op != "insert"):]
    return text


@given(edge_list_texts(graphs(max_n=6).map(serialize_graph)))
def test_parse_accepts_only_canonical_text(text):
    try:
        g = parse_graph(text)
    except ParseError:
        return
    except CapacityError:  # a well-formed header beyond the 64-vertex cap
        return
    # The only latitude the format allows is leaving out the final LF.
    assert serialize_graph(g) == (text if text.endswith("\n") else text + "\n")


@given(edge_list_texts(bip_graphs().map(serialize_bipartite)))
def test_parse_bipartite_accepts_only_canonical_text(text):
    try:
        bg = parse_bipartite(text)
    except (ParseError, CapacityError):  # off the format, or a header beyond the cap
        return
    assert serialize_bipartite(bg) == (text if text.endswith("\n") else text + "\n")


def test_serialize_format():
    g = Graph.from_edges(3, [(2, 3), (1, 2)])
    assert serialize_graph(g) == "3 2\n1 2\n2 3\n"
    assert serialize_graph(empty_graph(2)) == "2 0\n"


def test_roundtrip_exhaustive_small():
    for g in all_graphs(4):
        assert parse_graph(serialize_graph(g)) == g


@given(graphs(max_n=8))
def test_roundtrip_random(g):
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


def test_bipartite_parse_and_serialize():
    bg = parse_bipartite("2 3 2\n1 3\n2 1")
    assert bg.edges() == [(1, 3), (2, 1)]
    assert serialize_bipartite(bg) == "2 3 2\n1 3\n2 1\n"
    with pytest.raises(LabelRangeError):
        parse_bipartite("2 3 1\n3 1")
    with pytest.raises(LabelRangeError):
        parse_bipartite("2 3 1\n1 4")
    with pytest.raises(DuplicateEdgeError):
        parse_bipartite("2 3 2\n1 1\n1 1")
    with pytest.raises(MalformedLineError):
        parse_bipartite("2 3\n")


@given(bip_graphs())
def test_bipartite_roundtrip(bg):
    assert parse_bipartite(serialize_bipartite(bg)) == bg


@given(bip_graphs())
def test_bipartite_embedding(bg):
    g = bg.as_graph()
    assert g.n == bg.nx + bg.ny
    assert g.m == bg.m
    for x, y in bg.edges():
        assert g.has_edge(x, bg.nx + y)


def test_bipartite_capacity():
    with pytest.raises(CapacityError):
        BipartiteGraph(65, 1, [0] * 65)
