import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import (
    all_graphs,
    bip_from_mask,
    bip_graphs,
    graph_from_mask,
    graphs,
    naive_count_bip,
    naive_count_cliques,
    naive_count_star,
)
from turanmatch import (
    BipartiteGraph,
    complete_graph,
    count_bip,
    count_cliques,
    count_star,
    empty_graph,
    extremal_clique_count,
    extremal_graph,
    extremal_star_count,
)
from turanmatch.counting import (
    _bip_sum,
    _clique_any,
    _clique_gain,
    _clique_gain_any,
    _clique_sum,
    _clique_top_sum,
)


def _complete_bip(nx, ny):
    return BipartiteGraph.from_edges(nx, ny, [(x, y) for x in range(1, nx + 1) for y in range(1, ny + 1)])


def test_count_cliques_examples():
    assert count_cliques(complete_graph(5), 3) == 10
    assert count_cliques(extremal_graph(7, 2, 3), 2) == 11
    assert count_cliques(complete_graph(4), 5) == 0
    assert count_cliques(empty_graph(6), 2) == 0


@given(graphs())
def test_count_cliques_base_sizes(g):
    assert count_cliques(g, 1) == g.n
    assert count_cliques(g, 2) == g.m


def test_count_star_examples():
    for s, t in ((1, 1), (1, 2), (2, 2)):
        assert count_star(empty_graph(5), s, t) == 0
    assert count_star(complete_graph(4), 2, 2) == 6
    assert count_star(complete_graph(5), 1, 2) == 30
    assert count_star(extremal_graph(7, 2, 3), 1, 2) == 35


def test_count_star_rejects_zero_sides():
    with pytest.raises(ValueError):
        count_star(complete_graph(3), 0, 1)
    with pytest.raises(ValueError):
        count_star(complete_graph(3), 1, 0)


def test_count_kernels_check_their_sizes():
    # no clique has a negative size; each side of a star or biclique needs a vertex
    from turanmatch import star_pairs

    assert count_cliques(complete_graph(3), -1) == 0
    bg = BipartiteGraph(2, 2, [0b11, 0b11])
    for s, t in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="need s >= 1 and t >= 1"):
            next(star_pairs(complete_graph(3), s, t))
        with pytest.raises(ValueError, match="need s >= 1 and t >= 1"):
            count_bip(bg, s, t)


@given(graphs(max_n=6))
def test_count_star_t1_overcounts_cliques(g):
    # a single outside vertex makes the pattern an (s+1)-clique with a marked
    # vertex, hence the factor s+1
    for s in (1, 2, 3):
        assert count_star(g, s, 1) == (s + 1) * count_cliques(g, s + 1)


def test_star_pairs_enumerates_what_count_star_counts():
    from itertools import combinations

    from turanmatch import star_pairs

    k4 = complete_graph(4)
    pairs = set(star_pairs(k4, 2, 2))
    assert len(pairs) == count_star(k4, 2, 2) == 6
    for g in all_graphs(4):
        for s in (1, 2):
            for t in (1, 2):
                seen = list(star_pairs(g, s, t))
                assert len(seen) == len(set(seen)) == count_star(g, s, t)
                for c1, c2 in seen:
                    assert set(c1).isdisjoint(c2)
                    assert all(g.has_edge(u, v) for u, v in combinations(c1, 2))
                    assert all(g.has_edge(u, v) for u in c1 for v in c2)


def test_count_bip_examples():
    k23 = _complete_bip(2, 3)
    assert count_bip(k23, 1, 1) == k23.m == 6
    assert count_bip(k23, 1, 2) == 9
    assert count_bip(k23, 2, 2) == 3


@given(bip_graphs())
def test_count_bip_edges_and_symmetry(bg):
    assert count_bip(bg, 1, 1) == bg.m
    for s in (1, 2):
        for t in (1, 2, 3):
            assert count_bip(bg, s, t) == count_bip(bg, t, s)


@given(bip_graphs(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_bip_sum_ignores_the_order_of_the_x_rows(bg, s, t, data):
    # the König check scores one count per sorted row tuple on this law
    rows = list(bg.biadj)
    permuted = data.draw(st.permutations(rows))
    assert _bip_sum(permuted, bg.ny, s, t) == _bip_sum(rows, bg.ny, s, t)


def test_counters_match_naive_exhaustively_small():
    for g in all_graphs(4):
        for s in (1, 2, 3):
            assert count_cliques(g, s) == naive_count_cliques(g, s)
            for t in (1, 2, 3):
                assert count_star(g, s, t) == naive_count_star(g, s, t)


def test_counters_match_naive_random_n8():
    rng = random.Random(7)
    slots = 8 * 7 // 2
    for _ in range(60):
        g = graph_from_mask(8, rng.getrandbits(slots))
        for s in (1, 2, 3):
            assert count_cliques(g, s) == naive_count_cliques(g, s)
            for t in (1, 2, 3):
                assert count_star(g, s, t) == naive_count_star(g, s, t)


def test_count_bip_matches_naive_random():
    rng = random.Random(11)
    for _ in range(60):
        nx, ny = rng.randint(1, 4), rng.randint(1, 5)
        bg = bip_from_mask(nx, ny, rng.getrandbits(nx * ny))
        for s in (1, 2, 3):
            for t in (1, 2, 3):
                assert count_bip(bg, s, t) == naive_count_bip(bg, s, t)


def test_counts_on_construction_match_closed_forms():
    for k in range(4):
        for ell in range(k + 1, 2 * k + 2):
            for n in range(2 * k + 1, 11):
                g = extremal_graph(n, k, ell)
                for s in (1, 2, 3):
                    assert count_cliques(g, s) == extremal_clique_count(n, k, ell, s)
                    for t in (1, 2, 3):
                        assert count_star(g, s, t) == extremal_star_count(n, k, ell, s, t)


@given(graphs(min_n=2, max_n=9), st.data())
def test_clique_gain_equals_recount_difference(g, data):
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.adj[u] >> v & 1]
    assume(non_edges)
    u, v = data.draw(st.sampled_from(non_edges))
    s = data.draw(st.integers(0, 5))
    t = data.draw(st.integers(0, 4))
    h = g.add_edge(u + 1, v + 1)
    diff = _clique_top_sum(h.adj, s, t) - _clique_top_sum(g.adj, s, t)
    assert _clique_gain(g.adj, g.adj[u], g.adj[v], s, t) == diff
    assert _clique_gain(g.adj, g.adj[v], g.adj[u], s, t) == diff


@given(graphs(min_n=2, max_n=7), st.data())
def test_clique_gain_any_is_whether_the_gain_is_nonzero(g, data):
    # the least-completion rule keeps a free edge when some copy uses it:
    # the existence test must agree with the full gain's sign
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.adj[u] >> v & 1]
    assume(non_edges)
    u, v = data.draw(st.sampled_from(non_edges))
    s = data.draw(st.integers(1, 5))
    t = data.draw(st.integers(0, 3))
    for ru, rv in ((g.adj[u], g.adj[v]), (g.adj[v], g.adj[u])):
        assert _clique_gain_any(g.adj, ru, rv, s, t) == (_clique_gain(g.adj, ru, rv, s, t) > 0)


@given(graphs(min_n=1, max_n=7), st.integers(0, 127), st.integers(0, 127),
       st.integers(-1, 4), st.integers(-1, 3))
@example(complete_graph(3), 0b011, 0b100, 2, 1)  # the one K = {1, 2} has 3 in common
@example(complete_graph(3), 0b011, 0b100, 2, 2)  # and only 3
def test_clique_any_is_whether_the_sum_is_nonzero(g, cand, common, s, t):
    full = (1 << g.n) - 1
    cand &= full
    common &= full
    assert _clique_any(g.adj, cand, common, s, t) == (_clique_sum(g.adj, cand, common, s, t) > 0)


@given(graphs(min_n=1, max_n=9), st.data())
def test_back_row_increments_sum_to_the_last_vertex_copies(g, data):
    # the vertex scan's step: the copies through the last vertex v are the
    # copies on v alone plus, edge by edge of v's back-row, the copies through
    # that edge, all read off G - v
    s = data.draw(st.integers(1, 5))
    t = data.draw(st.integers(0, 4))
    v = g.n - 1
    rows = [row & ~(1 << v) for row in g.adj[:v]]
    total = _clique_sum(rows, 0, 0, s - 1, t)
    rest = 0
    for w in range(v):
        if g.adj[v] >> w & 1:
            total += _clique_gain(rows, rows[w], rest, s, t)
            rest |= 1 << w
    assert total == _clique_top_sum(g.adj, s, t) - _clique_top_sum(rows, s, t)


@given(graphs(min_n=1, max_n=7), st.data())
def test_widest_back_row_has_the_most_copies(g, data):
    # the premise of the exhaustive scan's last-vertex bound: copies never
    # fall when an edge is added, so over the back-rows inside ``allowed`` the
    # chain along the widest one reaches the maximum of the whole table
    s = data.draw(st.integers(1, 5))
    t = data.draw(st.integers(0, 4))
    allowed = data.draw(st.integers(0, (1 << g.n) - 1))
    rows = g.adj
    table = {0: _clique_sum(rows, 0, 0, s - 1, t)}
    for back in range(1, allowed + 1):
        if back & ~allowed:
            continue
        low = back & -back
        gain = _clique_gain(rows, rows[low.bit_length() - 1], back ^ low, s, t)
        assert gain >= 0
        table[back] = table[back ^ low] + gain
    top = table[0]
    rest = 0
    for w in range(g.n):
        if allowed >> w & 1:
            top += _clique_gain(rows, rows[w], rest, s, t)
            rest |= 1 << w
    assert top == max(table.values())


@given(graphs(min_n=1, max_n=7), st.integers(0, 127), st.integers(0, 127),
       st.integers(0, 4), st.integers(0, 3))
@example(complete_graph(3), 0b011, 0b100, 2, 1)  # K = {1, 2} lies outside common
@example(complete_graph(4), 0b0111, 0b1000, 1, 0)  # plain counts close by popcount: 3 vertices
@example(complete_graph(4), 0b0111, 0b1000, 2, 0)  # and 3 edges, common unread
def test_clique_sum_reads_common_apart_from_cand(g, cand, common, s, t):
    # the kernel's contract with ``cand`` and ``common`` unrelated: bicliques
    # read it with cand = X and common = Y, two disjoint sets
    full = (1 << g.n) - 1
    cand &= full
    common &= full
    rows = g.adj
    expected = 0
    for clique in combinations([v for v in range(g.n) if cand >> v & 1], s):
        if any(not rows[u] >> v & 1 for u, v in combinations(clique, 2)):
            continue
        reach = common
        for v in clique:
            reach &= rows[v]
        expected += comb(reach.bit_count(), t)
    assert _clique_sum(rows, cand, common, s, t) == expected
