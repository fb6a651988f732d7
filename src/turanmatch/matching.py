"""Exact matching numbers, bipartite maximum matching, and minimum vertex covers.

General graphs get their matching number from Edmonds' blossom algorithm,
polynomial up to the 64-vertex graph cap: after a greedy start, each exposed
vertex first tries the augmenting paths of length 3 by bit operations, and
a blossom search that fails takes its whole tree out of every later search.
Whether a matching of a given size exists is a small branch-and-bound on a
vertex set; one such probe per vertex finds the vertices of a set that some
maximum matching misses (``_missable``), which the oracle's vertex-row walks
find once for each parent less one vertex, read by masks on the parent's own
rows, to hand every child its own, and the degree closure once for each
parent less a pair, to decide that pair in every child at once.
Bipartite graphs use augmenting paths; the minimum cover is built from a
given maximum matching by the standard alternating-reachability
construction, so its size always equals the matching size.
"""

from __future__ import annotations

from .graph import BipartiteGraph, Graph


def _nu(adj) -> int:
    """Maximum matching size of the graph with 0-based rows ``adj``: a greedy
    matching, then one pass over the exposed roots in index order.  A root
    first tries the length-3 paths root - x = y - z by bit operations; only
    if none exists does it grow Edmonds' blossom search, an alternating tree
    whose odd cycles are contracted to one ``base``.  A tree that finds no
    augmenting path (a Hungarian tree) meets no later one (Edmonds 1965), so
    all its vertices leave ``alive`` and no later search enters them; a root
    without an alive neighbour is such a tree.  Each root leaves ``free`` or
    ``alive``, and the pass ends when fewer than two exposed alive vertices
    remain, since every augmenting path joins two.  The exposed vertices stay
    independent, so no path is shorter than 3."""
    n = len(adj)
    mate = [-1] * n
    free = (1 << n) - 1
    size = 0
    for v in range(n):
        nb = adj[v] & free
        if nb and free >> v & 1:
            w = (nb & -nb).bit_length() - 1
            mate[v], mate[w] = w, v
            free ^= 1 << v | 1 << w
            size += 1
    alive = (1 << n) - 1
    while (ends := free & alive) & ends - 1:  # two left for a path to join
        root = (ends & -ends).bit_length() - 1
        ends ^= 1 << root
        near = adj[root] & alive
        if not near:
            alive ^= 1 << root  # a Hungarian tree of one vertex
            continue
        while near:  # root - x = y - z with z exposed
            x = (near & -near).bit_length() - 1
            near &= near - 1
            y = mate[x]
            z = adj[y] & ends
            if z:
                z = (z & -z).bit_length() - 1
                mate[root], mate[x], mate[y], mate[z] = x, root, z, y
                free ^= 1 << root | 1 << z
                size += 1
                break
        if mate[root] >= 0:
            continue
        base = list(range(n))
        parent = [-1] * n
        outer = tree = 1 << root
        queue = [root]
        for v in queue:
            nb = adj[v] & alive
            while nb:
                w = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if base[v] == base[w] or mate[v] == w:
                    continue
                if outer >> w & 1:  # odd cycle: contract it at the nearest common base c
                    a = base[v]
                    seen = 1 << a
                    while a != root:
                        a = base[parent[mate[a]]]
                        seen |= 1 << a
                    c = base[w]
                    while not seen >> c & 1:
                        c = base[parent[mate[c]]]
                    blossom = 0
                    for x, child in ((v, w), (w, v)):
                        while base[x] != c:
                            blossom |= 1 << base[x] | 1 << base[mate[x]]
                            parent[x], child = child, mate[x]
                            x = parent[child]
                    for i in range(n):
                        if blossom >> base[i] & 1:
                            base[i] = c
                            if not outer >> i & 1:
                                outer |= 1 << i
                                queue.append(i)
                elif parent[w] < 0:
                    parent[w] = v
                    if mate[w] >= 0:
                        tree |= 1 << w | 1 << mate[w]
                        outer |= 1 << mate[w]
                        queue.append(mate[w])
                        continue
                    size += 1  # w is exposed: flip the augmenting path to the root
                    free ^= 1 << root | 1 << w
                    while w >= 0:
                        u = parent[w]
                        mate[w], mate[u], w = u, w, mate[u]
                    break
            if mate[root] >= 0:
                break
        else:
            alive &= ~tree  # a Hungarian tree: no later augmenting path meets it
    return size


def _exists_matching(adj, free: int, r: int) -> bool:
    """True iff ``free`` spans a matching of size r."""
    if r <= 0:
        return True
    while free:
        b = free & -free
        if adj[b.bit_length() - 1] & free:
            break
        free ^= b
    else:
        return False
    if free.bit_count() < 2 * r:
        return False
    b = free & -free
    v = b.bit_length() - 1
    fb = free ^ b
    nb = adj[v] & fb
    while nb:
        c = nb & -nb
        nb ^= c
        if _exists_matching(adj, fb ^ c, r - 1):
            return True
    return _exists_matching(adj, fb, r)


def _missable(adj, free: int, r: int, maybe: int) -> int:
    """The vertices b of ``maybe`` (inside ``free``) for which ``free`` less
    b still spans a matching of size r, one ``_exists_matching`` probe each.
    With r the matching number of the graph ``adj`` induces on ``free``,
    these are its vertices that some maximum matching misses (the D set of
    Gallai 1964 and Edmonds 1965), and a new vertex raises that matching
    number exactly when it is joined to one of them."""
    found = 0
    while maybe:
        b = maybe & -maybe
        maybe ^= b
        if _exists_matching(adj, free ^ b, r):
            found |= b
    return found


def matching_number(g: Graph) -> int:
    """Exact maximum matching size of g."""
    return _nu(g.adj)


# ---------------------------------------------------------------------------
# Bipartite matching and covers
# ---------------------------------------------------------------------------

def _bip_augment(rows, x: int, match_y) -> bool:
    """One Kuhn's augmenting-path search from the X-vertex x, whose row is
    ``rows[x]``, against the matching ``match_y`` (match_y[y] is the X-index
    matched to y, or -1).  Depth first, lowest Y-vertex first, each Y-vertex
    tried once; on success the path is flipped in place, so x is matched and
    the matching grows by one.  If the matching was maximum without x, it is
    maximum with x either way."""
    visited = 0
    path = []  # the (x, y) steps above the current X-vertex, y being x's try
    while True:
        avail = rows[x] & ~visited
        if avail:
            b = avail & -avail
            visited |= b
            y = b.bit_length() - 1
            mate = match_y[y]
            if mate < 0:
                match_y[y] = x
                for x, y in path:
                    match_y[y] = x
                return True
            path.append((x, y))
            x = mate
        elif path:
            x = path.pop()[0]  # back up: the X-vertex before tries its next Y-vertex
        else:
            return False


def _bip_nu(rows, nx: int, ny: int):
    """Kuhn's augmenting paths, one search per X-vertex in index order.
    Returns (size, match_y) where match_y[y] is the matched X-index or -1."""
    match_y = [-1] * ny
    size = 0
    for x in range(nx):
        size += _bip_augment(rows, x, match_y)
    return size, match_y


def bip_max_matching(bg: BipartiteGraph) -> list[tuple[int, int]]:
    """A maximum matching as sorted (x, y) label pairs.

    Among all maximum matchings, returns the lexicographically least edge
    sequence under (x, y) order, so output is reproducible.
    """
    # The rows of passed X-vertices are zeroed and used Y bits cleared.  A
    # passed vertex left unmatched is unmatched in every maximum matching
    # that extends ``chosen``, so zeroing its row changes no later test.
    rows = list(bg.biadj)
    nx, ny = bg.nx, bg.ny
    size, _ = _bip_nu(rows, nx, ny)
    chosen: list[tuple[int, int]] = []
    for x in range(nx):
        if len(chosen) == size:
            break
        avail, rows[x] = rows[x], 0
        while avail:
            b = avail & -avail
            avail ^= b
            rest = [row & ~b for row in rows]
            if _bip_nu(rest, nx, ny)[0] == size - len(chosen) - 1:
                chosen.append((x + 1, b.bit_length()))
                rows = rest
                break
    return chosen


def _cover_masks(rows, nx: int, match_y) -> tuple[int, int]:
    """Minimum vertex cover as (X mask, Y mask), built from the maximum
    matching ``match_y`` (as returned by ``_bip_nu``).

    Alternating reachability from the unmatched X-vertices: cover =
    (X \\ reachable) + (Y & reachable).  Its size equals the matching size
    and every edge touches it.
    """
    reach_x = (1 << nx) - 1  # starts as the unmatched X-vertices
    for x in match_y:
        if x >= 0:
            reach_x &= ~(1 << x)
    reach_y = 0
    queue = [x for x in range(nx) if reach_x >> x & 1]
    while queue:
        x = queue.pop()
        new_y = rows[x] & ~reach_y
        reach_y |= new_y
        while new_y:
            b = new_y & -new_y
            new_y ^= b
            x2 = match_y[b.bit_length() - 1]
            if x2 >= 0 and not reach_x >> x2 & 1:
                reach_x |= 1 << x2
                queue.append(x2)
    return ((1 << nx) - 1) & ~reach_x, reach_y


def koenig_cover(bg: BipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimum vertex cover as (x_labels, y_labels), both sorted; see
    ``_cover_masks``."""
    _, match_y = _bip_nu(bg.biadj, bg.nx, bg.ny)
    xs, ys = _cover_masks(bg.biadj, bg.nx, match_y)
    return (tuple(x + 1 for x in range(bg.nx) if xs >> x & 1),
            tuple(y + 1 for y in range(bg.ny) if ys >> y & 1))


def bondy_chvatal_holds(g: Graph, u: int, v: int, k: int) -> bool:
    """Check one instance of the degree closure law for matchings.

    With {u, v} a non-edge: if the graph plus uv has matching number k+1 and
    d(u) + d(v) >= 2k+1 (degrees in g), then g itself must already have
    matching number k+1.  Returns True when that implication holds.
    """
    if u == v or not (1 <= u <= g.n and 1 <= v <= g.n):
        raise ValueError(f"labels ({u}, {v}) invalid for n={g.n}")
    if g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) must be a non-edge")
    nu_plus = matching_number(g.add_edge(u, v))
    if nu_plus != k + 1:
        return True
    if g.degree(u) + g.degree(v) < 2 * k + 1:
        return True
    return matching_number(g) == k + 1
