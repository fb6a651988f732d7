import pytest
from hypothesis import given

from helpers import all_graphs, graph_from_mask, graphs, graphs_with_pair
from turanmatch import (
    CapacityError,
    Edge,
    Graph,
    complete_graph,
    compress,
    count_cliques,
    count_star,
    empty_graph,
    extremal_graph,
    is_shifted,
    matching_number,
    shift_edge,
    shift_graph,
    shifted_graphs,
)


def test_shift_edge_moves_when_target_absent():
    g = Graph.from_edges(3, [(2, 3)])
    assert shift_edge(g, 1, 2, (2, 3)) == Edge(1, 3)


def test_shift_edge_fixed_when_i_on_edge():
    g = Graph.from_edges(2, [(1, 2)])
    assert shift_edge(g, 1, 2, (1, 2)) == Edge(1, 2)


def test_shift_edge_fixed_when_target_present():
    g = Graph.from_edges(3, [(1, 3), (2, 3)])
    assert shift_edge(g, 1, 2, (2, 3)) == Edge(2, 3)


def test_shift_edge_argument_errors():
    g = Graph.from_edges(3, [(2, 3)])
    with pytest.raises(ValueError):
        shift_edge(g, 2, 1, (2, 3))
    with pytest.raises(ValueError):
        shift_edge(g, 1, 2, (1, 3))


def test_shift_graph_examples():
    assert shift_graph(complete_graph(5), 2, 4) == complete_graph(5)
    assert shift_graph(Graph.from_edges(3, [(2, 3)]), 1, 2) == Graph.from_edges(3, [(1, 3)])
    g = Graph.from_edges(3, [(1, 3), (2, 3)])
    assert shift_graph(g, 1, 2) == g


def test_shift_graph_rejects_bad_pair():
    with pytest.raises(ValueError):
        shift_graph(complete_graph(3), 3, 3)
    with pytest.raises(ValueError):
        shift_graph(complete_graph(3), 1, 4)


def test_shift_graph_agrees_with_per_edge_images():
    for g in all_graphs(4):
        for i in range(1, 4):
            for j in range(i + 1, 5):
                image = {shift_edge(g, i, j, e) for e in g.edges()}
                assert set(shift_graph(g, i, j).edges()) == image


@given(graphs_with_pair(max_n=7))
def test_shift_graph_invariants(gij):
    g, i, j = gij
    h = shift_graph(g, i, j)
    assert h.m == g.m
    assert matching_number(h) <= matching_number(g)
    for s in (2, 3):
        assert count_cliques(h, s) >= count_cliques(g, s)
    for s in (1, 2):
        for t in (1, 2):
            assert count_star(h, s, t) >= count_star(g, s, t)


@given(graphs_with_pair(max_n=7))
def test_shift_only_touches_i_and_j(gij):
    g, i, j = gij
    h = shift_graph(g, i, j)
    for e in set(g.edges()) ^ set(h.edges()):
        assert i in e or j in e


def _weight(g):
    return sum(e.u + e.v for e in g.edges())


@given(graphs_with_pair(max_n=7))
def test_changing_shift_strictly_drops_weight(gij):
    g, i, j = gij
    h = shift_graph(g, i, j)
    if h != g:
        assert _weight(h) < _weight(g)


def test_compress_examples():
    assert compress(empty_graph(5)) == empty_graph(5)
    assert compress(Graph.from_edges(3, [(2, 3)])) == Graph.from_edges(3, [(1, 2)])


def test_compress_perfect_matching_postconditions():
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    h = compress(g)
    assert h.m == 2
    assert matching_number(h) <= 2
    assert is_shifted(h)
    assert compress(g) == h  # deterministic sweeps


@given(graphs(max_n=7))
def test_compress_fixpoint_and_invariants(g):
    h = compress(g)
    assert is_shifted(h)
    assert compress(h) == h
    assert h.m == g.m
    assert matching_number(h) <= matching_number(g)
    for s in (2, 3):
        assert count_cliques(h, s) >= count_cliques(g, s)


def test_is_shifted_examples():
    assert is_shifted(complete_graph(6))
    assert not is_shifted(Graph.from_edges(3, [(2, 3)]))
    for k in range(4):
        for ell in range(k + 1, 2 * k + 2):
            for n in range(max(ell, 2 * k + 1), 12):
                assert is_shifted(extremal_graph(n, k, ell))


def test_shifted_graphs_matches_predicate_filter():
    for n in range(7):
        direct = {g for g in shifted_graphs(n)}
        filtered = {g for g in all_graphs(n) if is_shifted(g)}
        assert direct == filtered
        assert len(direct) == len(list(shifted_graphs(n)))


def test_shifted_graphs_checks_its_argument_at_the_call():
    with pytest.raises(CapacityError):
        shifted_graphs(65)
    with pytest.raises(ValueError):
        shifted_graphs(-1)
    assert list(shifted_graphs(0)) == [Graph(0)]


def test_shifted_graphs_are_compress_fixpoints():
    for g in shifted_graphs(5):
        assert compress(g) == g


@given(graphs_with_pair(max_n=8))
def test_built_graphs_pass_the_public_checks(gij):
    # shift_graph, compress and shifted_graphs store their rows unchecked
    g, i, j = gij
    for h in (shift_graph(g, i, j), compress(g), *shifted_graphs(min(g.n, 6))):
        assert Graph(h.n, h.adj) == h and Graph(h.n, h.adj).m == h.m
