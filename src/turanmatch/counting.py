"""Exact subgraph-copy counters for cliques, clique-star patterns, and bipartite bicliques.

Every pattern is counted by one kernel, ``_clique_sum``: over the s-cliques K
of a candidate set, the sum of C(|common & N(K)|, t).  Cliques and clique-stars
read it on the host itself.  A biclique K_{s,t} reads it on the host with X
made complete: an s-"clique" of X is then any s-subset of X, and its common
neighborhood is taken in Y.  Plain clique counts (t = 0) close their two
cheapest levels by popcount instead of a call per vertex, and an edge's gain
(``_clique_gain``), the exhaustive scans' unit of counting, makes no call
for a term that is 0 or two binomials.  Where only whether a count is
nonzero matters, one existence kernel, ``_clique_any``, walks the same
cliques and returns at the first that counts; ``_clique_gain_any`` reads
an edge's gain through it, term by term.

All counts are of subgraph copies, not induced copies: the independent side of
a pattern may carry extra host edges.  Counts are plain Python integers, so
they never overflow.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator, NamedTuple

from .graph import BipartiteGraph, Graph


class StarCliquePair(NamedTuple):
    """One copy of the star pattern: clique side c1, fully-joined side c2.

    Valid in a host when c1 induces a clique, c1 and c2 are disjoint, and
    every c1-c2 pair is an edge; c2 may carry extra host edges.
    """

    c1: tuple[int, ...]
    c2: tuple[int, ...]


def _clique_sum(adj, cand: int, common: int, s: int, t: int) -> int:
    """Sum of C(|common & N(K)|, t) over the s-cliques K inside ``cand``,
    where N(K) is K's common neighborhood.

    Cliques grow by ascending vertex index, each step intersecting the
    candidate and common masks with the new vertex's adjacency row.  With
    t = 0 every term is 1 and ``common`` is unread, so the two cheapest
    levels close by popcount without a call: s = 1 counts the vertices of
    ``cand``, and s = 2 its edges, each vertex's row met with the candidates
    above it.
    """
    if s <= 0 or t <= 0:  # s, t >= 1 pass with this one test
        if s < 0 or t < 0:
            return 0
        if s == 0:
            return comb(common.bit_count(), t)
        if s == 1:
            return cand.bit_count()
        if s == 2:
            total = 0
            while cand:
                b = cand & -cand
                cand ^= b
                total += (cand & adj[b.bit_length() - 1]).bit_count()
            return total
    total = 0
    while cand:
        if cand.bit_count() < s:
            break
        b = cand & -cand
        cand ^= b
        row = adj[b.bit_length() - 1]
        if s == 1:
            total += comb((common & row).bit_count(), t)
        else:
            total += _clique_sum(adj, cand & row, common & row, s - 1, t)
    return total


def _clique_any(adj, cand: int, common: int, s: int, t: int) -> bool:
    """Whether ``_clique_sum(adj, cand, common, s, t)`` is nonzero: some
    s-clique K inside ``cand`` with |common & N(K)| >= t.

    Cliques grow as in ``_clique_sum``, and the search returns at the first
    such K.  ``common`` only shrinks as K grows, so a branch whose common
    set is already below t returns at once.
    """
    if s < 0 or t < 0 or common.bit_count() < t:
        return False
    if s == 0:
        return True
    while cand:
        if cand.bit_count() < s:
            return False
        b = cand & -cand
        cand ^= b
        row = adj[b.bit_length() - 1]
        if s == 1:
            if (common & row).bit_count() >= t:
                return True
        elif _clique_any(adj, cand & row, common & row, s - 1, t):
            return True
    return False


def _clique_top_sum(adj, s: int, t: int) -> int:
    """Sum of C(|common neighborhood|, t) over all s-cliques.

    Cliques are grown by ascending vertex index with adjacency-mask
    intersections; the t-side is closed in O(1) per clique via a binomial of
    the common neighborhood's popcount.
    """
    full = (1 << len(adj)) - 1
    return _clique_sum(adj, full, full, s, t)


def _clique_gain(adj, ru: int, rv: int, s: int, t: int) -> int:
    """Increase of the sum of C(|common neighborhood|, t) over s-cliques
    when an absent edge uv is added, u and v having the rows ``ru`` and
    ``rv`` and every other vertex its row in ``adj``.

    The new (C1, C2) copies are exactly those that use uv.  Either uv lies
    inside C1 = K + {u, v}, with K an (s-2)-clique in N(u) & N(v) and C2 a
    t-subset of N(K) & N(u) & N(v); or it crosses, C1 = K + {a} and C2 =
    {b} + D for (a, b) in {(u, v), (v, u)}, with K an (s-1)-clique in
    N(u) & N(v) and D a (t-1)-subset of N(K) & N(a).  Neighborhoods are read
    before the edge is added, so b is not in N(a); only the rows of K are
    read from ``adj``, so v need not have a row there.  Below s = 2 no K
    fits inside C1 with uv, so that term is 0 with no call, and at s = 1 K
    is empty, so the crossing terms close as C(|N(u)|, t-1) + C(|N(v)|, t-1).
    """
    both = ru & rv
    gain = _clique_sum(adj, both, both, s - 2, t) if s >= 2 else 0
    if t >= 1:
        if s == 1:  # K is empty: D is any (t-1)-subset of N(a)
            gain += comb(ru.bit_count(), t - 1) + comb(rv.bit_count(), t - 1)
        else:
            gain += _clique_sum(adj, both, ru, s - 1, t - 1)
            gain += _clique_sum(adj, both, rv, s - 1, t - 1)
    return gain


def _clique_gain_any(adj, ru: int, rv: int, s: int, t: int) -> bool:
    """Whether ``_clique_gain(adj, ru, rv, s, t)`` is nonzero: some copy
    uses the absent edge uv.  Its three terms are tested in turn, each by
    ``_clique_any``, which stops at the first copy; at s = 1 the crossing
    terms are C(|N(u)|, t-1) + C(|N(v)|, t-1), nonzero when either
    neighborhood has at least t - 1 vertices."""
    both = ru & rv
    if s >= 2 and _clique_any(adj, both, both, s - 2, t):
        return True
    if t < 1:
        return False
    if s == 1:
        return max(ru.bit_count(), rv.bit_count()) >= t - 1
    return _clique_any(adj, both, ru, s - 1, t - 1) or _clique_any(adj, both, rv, s - 1, t - 1)


def count_cliques(g: Graph, s: int) -> int:
    """Number of s-subsets of vertices inducing a clique (0 when s > n)."""
    if s < 0:
        return 0
    return _clique_top_sum(g.adj, s, 0)


def star_pairs(g: Graph, s: int, t: int) -> Iterator[StarCliquePair]:
    """Yield every StarCliquePair of g with |c1| = s, |c2| = t (sorted labels).

    Materializes what count_star only tallies; the yield count always equals
    count_star(g, s, t).
    """
    if s < 1 or t < 1:
        raise ValueError(f"need s >= 1 and t >= 1, got s={s}, t={t}")
    adj = g.adj

    def labels(mask: int) -> list[int]:
        out = []
        while mask:
            b = mask & -mask
            mask ^= b
            out.append(b.bit_length())
        return out

    def rec(cand: int, common: int, chosen: tuple[int, ...]) -> Iterator[StarCliquePair]:
        if len(chosen) == s:
            for c2 in combinations(labels(common), t):
                yield StarCliquePair(chosen, c2)
            return
        m = cand
        while m:
            b = m & -m
            m ^= b
            nc = common & adj[b.bit_length() - 1]
            yield from rec(nc & m, nc, chosen + (b.bit_length(),))

    full = (1 << g.n) - 1
    yield from rec(full, full, ())


def count_star(g: Graph, s: int, t: int) -> int:
    """Number of ordered pairs (C1, C2): C1 an s-clique, C2 a disjoint t-set
    completely joined to C1.

    For t >= 2 this equals the number of subgraph copies of the pattern
    "s-clique fully joined to a t-independent-set", because the two sides are
    distinguishable by degree.  For t = 1 each (s+1)-clique is counted s+1
    times (once per choice of the single outside vertex).
    """
    if s < 1 or t < 1:
        raise ValueError(f"need s >= 1 and t >= 1, got s={s}, t={t}")
    return _clique_top_sum(g.adj, s, t)


def _bip_sum(rows, ny: int, s: int, t: int) -> int:
    """Complete-bipartite (s, t) copies in the X-rows ``rows`` over ny
    Y-vertices.

    X is made complete and Y shifted above it, so the s-"cliques" of X are
    its s-subsets and ``_clique_sum`` reads their common neighborhoods in Y.
    For s != t both orientations are summed (an s-set in either part paired
    with a t-set in the other); for s = t a single term avoids double
    counting the same unlabeled copy.
    """
    nx = len(rows)
    xs = (1 << nx) - 1
    ys = ((1 << ny) - 1) << nx
    adj = [row << nx | xs ^ 1 << x for x, row in enumerate(rows)]
    total = _clique_sum(adj, xs, ys, s, t)
    return total if s == t else total + _clique_sum(adj, xs, ys, t, s)


def count_bip(bg: BipartiteGraph, s: int, t: int) -> int:
    """Number of complete-bipartite (s, t) copies (see ``_bip_sum``)."""
    if s < 1 or t < 1:
        raise ValueError(f"need s >= 1 and t >= 1, got s={s}, t={t}")
    return _bip_sum(bg.biadj, bg.ny, s, t)
