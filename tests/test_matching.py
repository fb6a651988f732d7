from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_graphs, bip_from_mask, bip_graphs, graphs, ref_grow, ref_nu
from turanmatch import (
    BipartiteGraph,
    CapacityError,
    Graph,
    bip_max_matching,
    bondy_chvatal_holds,
    complete_graph,
    empty_graph,
    extremal_graph,
    koenig_cover,
    matching_number,
)
from turanmatch.matching import _missable, _nu


def _complete_bip(nx, ny):
    return BipartiteGraph.from_edges(nx, ny, [(x, y) for x in range(1, nx + 1) for y in range(1, ny + 1)])


def test_matching_number_examples():
    assert matching_number(complete_graph(5)) == 2
    assert matching_number(extremal_graph(7, 2, 3)) == 2
    for k in range(1, 8):
        g = Graph.from_edges(2 * k, [(2 * i + 1, 2 * i + 2) for i in range(k)])
        assert matching_number(g) == k
    assert matching_number(empty_graph(0)) == 0


def test_matching_number_capacity():
    # no cap of its own: nu runs to the 64-vertex graph cap, which Graph enforces
    assert matching_number(empty_graph(64)) == 0
    assert matching_number(complete_graph(64)) == 32
    with pytest.raises(CapacityError):
        empty_graph(65)
    with pytest.raises(CapacityError):
        Graph.from_edges(65, [(1, 65)])


def test_nu_matches_reference_on_every_small_graph():
    for n in range(7):
        for g in all_graphs(n):
            assert _nu(g.adj) == ref_nu(g.adj), g.edges()


@given(graphs(max_n=16))
def test_nu_matches_reference_random(g):
    assert _nu(g.adj) == ref_nu(g.adj)


def _relabelled(n, edges, rng):
    """The graph on n vertices with 0-based ``edges`` under a random labelling."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u] + 1, perm[v] + 1) for u, v in edges])


def _families_64():
    """(name, 0-based edges on 64 vertices, matching number)."""
    triangles = [e for i in range(0, 63, 3) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))]
    # fifteen 5-cycles s-a-b-t-c-s, each sharing its t with the next one's s
    beads = [e for s in range(0, 60, 4)
             for e in ((s, s + 1), (s + 1, s + 2), (s + 2, s + 4), (s + 4, s + 3), (s + 3, s))]
    return [
        ("five-cycle chain + triangle", beads + [(61, 62), (62, 63), (61, 63)], 31),
        ("bridged triangles + isolated vertex", triangles + [(i, i + 1) for i in range(2, 62, 3)], 31),
        ("disjoint triangles + isolated vertex", triangles, 21),
        ("K_63 + pendant vertex", [(u, v) for u in range(63) for v in range(u + 1, 63)] + [(0, 63)], 32),
    ]


def test_nu_at_64_vertices_known_families():
    rng = Random(64)
    for name, edges, nu in _families_64():
        for _ in range(4):  # labellings scatter the odd cycles the search must contract
            assert matching_number(_relabelled(64, edges, rng)) == nu, name
    for k in (0, 1, 5, 16, 31):
        for ell in range(k + 1, 2 * k + 2):
            g = extremal_graph(64, k, ell)
            assert matching_number(g) == k, (k, ell)
            assert matching_number(_relabelled(64, [(e.u - 1, e.v - 1) for e in g.edges()], rng)) == k


def test_nu_ignores_labels_on_sparse_64_vertex_graphs():
    # at mean degree 3-4 the greedy start leaves long augmenting paths through
    # nested odd cycles, and the labels decide which cycles the search meets first
    rng = Random(3)
    for _ in range(300):
        p = rng.choice((3, 4)) / 63
        edges = [(u, v) for u in range(64) for v in range(u + 1, 64) if rng.random() < p]
        assert len({matching_number(_relabelled(64, edges, rng)) for _ in range(3)}) == 1, edges


def test_nu_matches_networkx():
    networkx = pytest.importorskip("networkx")
    rng = Random(7)
    for _ in range(300):
        n = rng.randint(1, 64)
        p = rng.choice((0.02, 0.05, 0.1, 0.3, 0.6))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        ref = networkx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        expected = len(networkx.max_weight_matching(ref, maxcardinality=True))
        assert matching_number(_relabelled(n, edges, rng)) == expected, (n, edges)


def _host_edges(s0, parts):
    """(n, 0-based edges) of K_s0 joined to the disjoint cliques K_a, a in parts."""
    n = s0 + sum(parts)
    edges = [(u, v) for u in range(s0) for v in range(u + 1, n)]
    start = s0
    for a in parts:
        edges += [(u, v) for u in range(start, start + a) for v in range(u + 1, start + a)]
        start += a
    return n, edges


def test_nu_on_gallai_edmonds_hosts():
    # K_s0 joined to q odd cliques: a root in a clique without a free partner
    # grows a Hungarian tree of contracted cliques, which later roots skip,
    # and the matching number is (n - max(q - s0, n % 2)) / 2 by Tutte-Berge
    networkx = pytest.importorskip("networkx")
    rng = Random(19)
    for _ in range(60):
        n = rng.randint(1, 64)
        s0 = rng.randint(0, n // 3)
        parts = []
        while sum(parts) < n - s0:
            cap = min(n - s0 - sum(parts), rng.choice((1, 3, 7, 15, 63)))
            parts.append(rng.randrange(1, cap + 1, 2))
        n, edges = _host_edges(s0, parts)
        ref = networkx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        expected = len(networkx.max_weight_matching(ref, maxcardinality=True))
        assert expected == (n - max(len(parts) - s0, n % 2)) // 2, (s0, parts)
        assert matching_number(_relabelled(n, edges, rng)) == expected, (s0, parts)


@given(graphs(min_n=0, max_n=8), st.data())
def test_missable_vertices_keep_the_matching_number_when_removed(g, data):
    nu = _nu(g.adj)
    maybe = data.draw(st.integers(0, (1 << g.n) - 1))
    missed = ref_grow(g.adj, nu)
    full = (1 << g.n) - 1
    assert _missable(g.adj, full, nu, full) == missed
    assert _missable(g.adj, full, nu, maybe) == missed & maybe


def test_missable_on_gallai_edmonds_hosts():
    # K_s0 joined to q odd cliques, relabelled: with q > s0 every maximum
    # matching covers K_s0, and each clique vertex is missed by one, so the
    # missable vertices are exactly those outside K_s0 (the D set)
    rng = Random(23)
    for _ in range(300):
        parts = []
        while not parts or rng.random() < 0.5:
            parts.append(rng.choice((1, 1, 3, 5)))
        s0 = rng.randint(0, 3)
        n, edges = _host_edges(s0, parts)
        if n > 8:
            continue
        label = rng.sample(range(n), n)
        adj = [0] * n
        for u, v in edges:
            adj[label[u]] |= 1 << label[v]
            adj[label[v]] |= 1 << label[u]
        nu = _nu(adj)
        missable = _missable(adj, (1 << n) - 1, nu, (1 << n) - 1)
        assert missable == ref_grow(adj, nu), (s0, parts)
        if len(parts) > s0:
            assert missable == sum(1 << label[x] for x in range(s0, n)), (s0, parts)


def _nu_of(n, edges):
    rows = Graph.from_edges(n, [(u + 1, v + 1) for u, v in edges]).adj
    return _nu(rows), ref_nu(rows)


def test_nu_path_beside_a_failed_tree():
    # greedy matches 0-1, 3-4, 5-6 and leaves 2, 7, 8 exposed.  Root 2's tree
    # 2 - 0 = 1 fails and dies; root 7's only augmenting path
    # 7 - 3 = 4 - 5 = 6 - 8 runs beside the dead inner vertex 0
    edges = [(0, 1), (0, 2), (7, 3), (3, 4), (4, 5), (5, 6), (6, 8),
             (0, 3), (0, 4), (0, 5), (0, 6)]
    assert _nu_of(9, edges) == (4, 4)


def test_nu_blossom_inside_a_failed_tree():
    # greedy matches 0-1, 2-3, 5-6, 7-8 and leaves 4, 9, 10 exposed.  Root
    # 4's tree 4 - 0 = 1 contracts the triangle 1 2 3, fails and dies whole;
    # root 9's path 9 - 5 = 6 - 7 = 8 - 10 runs beside the dead vertex 0
    edges = [(4, 0), (0, 1), (1, 2), (1, 3), (2, 3),
             (9, 5), (5, 6), (6, 7), (7, 8), (8, 10),
             (0, 5), (0, 6), (0, 7), (0, 8)]
    assert _nu_of(11, edges) == (5, 5)


def test_nu_path_through_a_successful_tree():
    # greedy matches 0-1, 2-9, 3-5 and leaves 4, 6, 7, 8 exposed.  Root 4's
    # search augments along 4 - 1 = 0 - 2 = 9 - 8 with 3 and 5 in its tree;
    # that tree stays alive, and root 6 finishes on 6 - 5 = 3 - 7
    edges = [(0, 1), (0, 2), (1, 4), (1, 8), (2, 9), (3, 5), (3, 7), (5, 6), (5, 9), (8, 9)]
    assert _nu_of(10, edges) == (5, 5)


def test_extremal_graph_matching_number_grid():
    for k in range(4):
        for ell in range(k + 1, 2 * k + 2):
            for n in range(2 * k + 1, 12):
                assert matching_number(extremal_graph(n, k, ell)) == k


def test_bip_matching_examples():
    assert len(bip_max_matching(_complete_bip(3, 3))) == 3
    path = BipartiteGraph.from_edges(2, 1, [(1, 1), (2, 1)])
    assert len(bip_max_matching(path)) == 1
    for k in range(1, 4):
        for n in range(k, 6):
            assert len(bip_max_matching(_complete_bip(k, n))) == k


def test_bip_matching_is_lex_least():
    assert bip_max_matching(_complete_bip(2, 2)) == [(1, 1), (2, 2)]
    bg = BipartiteGraph.from_edges(2, 2, [(1, 1), (1, 2), (2, 1)])
    # (1,1) would block vertex 2; the lex-least maximum matching starts (1,2)
    assert bip_max_matching(bg) == [(1, 2), (2, 1)]


def test_koenig_cover_examples():
    assert koenig_cover(BipartiteGraph(3, 3, [0, 0, 0])) == ((), ())
    path = BipartiteGraph.from_edges(2, 1, [(1, 1), (2, 1)])
    assert koenig_cover(path) == ((), (1,))
    assert koenig_cover(_complete_bip(3, 3)) == ((1, 2, 3), ())


def _cover_is_valid(bg, xs, ys):
    xset, yset = set(xs), set(ys)
    return all(x in xset or y in yset for x, y in bg.edges())


def test_koenig_duality_exhaustive_3x3():
    for mask in range(1 << 9):
        bg = bip_from_mask(3, 3, mask)
        matching = bip_max_matching(bg)
        xs, ys = koenig_cover(bg)
        assert len(xs) + len(ys) == len(matching)
        assert _cover_is_valid(bg, xs, ys)


@given(bip_graphs())
def test_koenig_duality_random(bg):
    matching = bip_max_matching(bg)
    xs, ys = koenig_cover(bg)
    assert len(xs) + len(ys) == len(matching)
    assert _cover_is_valid(bg, xs, ys)
    seen = set()
    for x, y in matching:
        assert x not in seen and ("y", y) not in seen
        seen.add(x)
        seen.add(("y", y))
        assert bg.has_edge(x, y)


@given(bip_graphs())
def test_bipartite_consistency_with_general_matching(bg):
    assert matching_number(bg.as_graph()) == len(bip_max_matching(bg))


@given(graphs(max_n=7))
def test_matching_monotone_under_edge_addition(g):
    nu = matching_number(g)
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            if not g.has_edge(u, v):
                nu2 = matching_number(g.add_edge(u, v))
                assert nu <= nu2 <= nu + 1


def test_bondy_chvatal_examples():
    # triangle minus an edge: antecedent fails, implication holds
    g = Graph.from_edges(3, [(1, 3), (2, 3)])
    assert bondy_chvatal_holds(g, 1, 2, 1)
    # low-degree pair: antecedent false regardless of k
    assert bondy_chvatal_holds(empty_graph(4), 1, 2, 0)
    with pytest.raises(ValueError):
        bondy_chvatal_holds(complete_graph(3), 1, 2, 1)
    for u, v in ((2, 2), (0, 1), (1, 4)):  # a loop, or a label outside 1..n
        with pytest.raises(ValueError, match="invalid for n=3"):
            bondy_chvatal_holds(empty_graph(3), u, v, 0)


def test_bondy_chvatal_exhaustive_small():
    for g in all_graphs(4):
        for u in range(1, 5):
            for v in range(u + 1, 5):
                if not g.has_edge(u, v):
                    k = matching_number(g.add_edge(u, v)) - 1
                    assert bondy_chvatal_holds(g, u, v, k)
