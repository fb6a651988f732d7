"""The edge-shifting operation, full compression, and the shifted-graph predicate.

A shift with target pair (i, j), i < j, rewrites an edge {j, x} into {i, x}
whenever i is not on the edge and {i, x} is absent from the host.  Shifted
graphs are the fixpoints of every such rewrite; equivalently their edge sets
are downward closed under lowering either endpoint's label.
"""

from __future__ import annotations

from typing import Iterator

from .graph import Edge, Graph, _check_vertex_count


def _check_pair(g: Graph, i: int, j: int) -> None:
    if not (1 <= i < j <= g.n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={g.n}")


def shift_edge(g: Graph, i: int, j: int, e: tuple[int, int]) -> Edge:
    """Image of a single edge of g under the (i, j) shift."""
    _check_pair(g, i, j)
    u, v = e
    edge = Edge(u, v) if u < v else Edge(v, u)
    if not g.has_edge(edge.u, edge.v):
        raise ValueError(f"({edge.u}, {edge.v}) is not an edge of the graph")
    if j not in edge or i in edge:
        return edge
    x = edge.u if edge.v == j else edge.v
    if g.has_edge(i, x):
        return edge
    return Edge(i, x) if i < x else Edge(x, i)


def _shift_adj(adj: list[int], i: int, j: int) -> list[int]:
    """Shift on raw 0-based adjacency rows; i < j.  Returns new rows."""
    moved = adj[j] & ~adj[i] & ~(1 << i)
    if not moved:
        return list(adj)
    rows = list(adj)
    rows[j] &= ~moved
    rows[i] |= moved
    bi, bj = 1 << i, 1 << j
    m = moved
    while m:
        b = m & -m
        m ^= b
        x = b.bit_length() - 1
        rows[x] = (rows[x] & ~bj) | bi
    return rows


def shift_graph(g: Graph, i: int, j: int) -> Graph:
    """Apply the (i, j) shift to every edge against the original edge set.

    Edge count is always preserved; only edges incident to i or j can move.
    """
    _check_pair(g, i, j)
    return Graph._trusted(g.n, _shift_adj(list(g.adj), i - 1, j - 1))


def is_shifted(g: Graph) -> bool:
    """True iff no (i, j) shift changes g.

    Checked via the hereditary form: for every edge {x, y} and every
    x' < x with x' != y, {x', y} is also an edge.
    """
    for a, row in enumerate(g.adj):
        if not row:
            continue
        below = (1 << (row.bit_length() - 1)) - 1
        required = below & ~(1 << a)
        if row & required != required:
            return False
    return True


def compress(g: Graph) -> Graph:
    """Shift g to a fixpoint: sweep all pairs (i, j) in lexicographic order
    and repeat full sweeps until one makes no change.

    The result is shifted, has the same edge count, never larger matching
    number, and never fewer cliques of any size.  Different sweep orders may
    reach different fixpoints; lexicographic sweeps make this one
    deterministic.
    """
    adj = list(g.adj)
    changed = True
    while changed:
        changed = False
        for i in range(g.n - 1):
            for j in range(i + 1, g.n):
                moved = adj[j] & ~adj[i] & ~(1 << i)
                if moved:
                    adj = _shift_adj(adj, i, j)
                    changed = True
    return Graph._trusted(g.n, adj)


def shifted_graphs(n: int) -> Iterator[Graph]:
    """Yield every shifted graph on labels 1..n.

    Generates the label-downward-closed edge sets directly: in a shifted
    graph the below-neighbors of each vertex v form a prefix 1..h(v), and a
    full column (h(v) = v-1) is only possible when the previous column is
    full.  This enumerates exactly the fixpoints of compress without
    filtering all 2^C(n,2) graphs.  n is checked at the call, before the
    first graph is asked for.
    """
    _check_vertex_count(n)
    if not n:
        return iter([Graph(0)])
    adj = [0] * n

    def rec(c: int, prev_h: int, prev_full: bool) -> Iterator[Graph]:
        if c == n:
            yield Graph._trusted(n, adj)
            return
        options = list(range(min(prev_h, c) + 1))
        if prev_full:
            options.append(c)
        bc = 1 << c
        for h in options:
            low = (1 << h) - 1
            adj[c] = low
            for a in range(h):
                adj[a] |= bc
            yield from rec(c + 1, h, h == c)
            for a in range(h):
                adj[a] &= ~bc
            adj[c] = 0

    return rec(1, 0, True)
