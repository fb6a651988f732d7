"""Shared test utilities: mask-indexed graph enumeration, naive counters and
reference exhaustive scans.

The naive counters enumerate vertex subsets directly with itertools and touch
only Graph.has_edge / BipartiteGraph.has_edge, so they are an independent
code path from the bitmask kernels they are used to check.

``ref_nu`` is the matching number from the oracle's feasibility test, a
branch and bound that shares no code with the blossom routine it checks.

``ref_random_instances`` draws random-mode shift instances as an edge mask
over the slots, one draw per slot, so the oracle's row-by-row draw can be
checked against it seed by seed.

The reference scans are the straightforward exhaustive maxima the oracle's
scans must reproduce: they recount the pattern at every leaf and score every
biadjacency mask, with the same smallest-mask tie-break.  The reference law
checks walk every mask the same way and test each instance in full: the König
check without prefix pruning, the degree closure with the matching test
before the degree test.
"""

from itertools import combinations
from random import Random

from hypothesis import strategies as st

from turanmatch import BipartiteGraph, Graph
from turanmatch.counting import _bip_sum, _clique_top_sum
from turanmatch.errors import CapacityError
from turanmatch.extremal import bip_split_count, bip_split_count_sym
from turanmatch.matching import _bip_nu, _cover_masks, _exists_matching, _nu
from turanmatch.oracle import (
    MAX_ORACLE_BIP_SLOTS,
    MAX_ORACLE_VERTICES,
    Check,
    _edge_slots,
    _edge_text,
    _rows_from_mask,
)


def edge_slots(n):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def graph_from_mask(n, mask):
    slots = edge_slots(n)
    return Graph.from_edges(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])


def all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_mask(n, mask)


def bip_from_mask(nx, ny, mask):
    edges = []
    for x in range(nx):
        for y in range(ny):
            if mask >> (x * ny + y) & 1:
                edges.append((x + 1, y + 1))
    return BipartiteGraph.from_edges(nx, ny, edges)


def naive_count_cliques(g, s):
    return sum(
        1
        for sub in combinations(range(1, g.n + 1), s)
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2))
    )


def naive_count_star(g, s, t):
    total = 0
    for c1 in combinations(range(1, g.n + 1), s):
        if not all(g.has_edge(u, v) for u, v in combinations(c1, 2)):
            continue
        rest = [v for v in range(1, g.n + 1) if v not in c1]
        for c2 in combinations(rest, t):
            if all(g.has_edge(u, v) for u in c1 for v in c2):
                total += 1
    return total


def naive_count_bip(bg, s, t):
    def oriented(a, b):
        total = 0
        for xs in combinations(range(1, bg.nx + 1), a):
            for ys in combinations(range(1, bg.ny + 1), b):
                if all(bg.has_edge(x, y) for x in xs for y in ys):
                    total += 1
        return total

    if s == t:
        return oriented(s, s)
    return oriented(s, t) + oriented(t, s)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask)


@st.composite
def graphs_with_pair(draw, min_n=2, max_n=7):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    i = draw(st.integers(1, g.n - 1))
    j = draw(st.integers(i + 1, g.n))
    return g, i, j


@st.composite
def bip_graphs(draw, max_nx=4, max_ny=5):
    nx = draw(st.integers(1, max_nx))
    ny = draw(st.integers(1, max_ny))
    mask = draw(st.integers(0, (1 << (nx * ny)) - 1))
    return bip_from_mask(nx, ny, mask)


def ref_nu(adj):
    """Matching number of 0-based rows ``adj``: the largest r for which the
    oracle's branch-and-bound feasibility test finds a matching of size r."""
    full = (1 << len(adj)) - 1
    r = 0
    while _exists_matching(adj, full, r + 1):
        r += 1
    return r


def ref_grow(adj, nu):
    """The vertices b whose removal leaves a matching of size nu, by blossom."""
    grow = 0
    for b in range(len(adj)):
        rest = [row & ~(1 << b) for row in adj]
        rest[b] = 0
        if _nu(rest) == nu:
            grow |= 1 << b
    return grow


def ref_random_instances(n, samples, seed, edge_prob):
    """The (rows, i, j) instances of a random-mode shift check: per sample an
    edge mask built slot by slot in ``_edge_slots`` order, one ``random()``
    draw per slot, then i and j drawn from the same generator."""
    rng = Random(seed)
    slots = _edge_slots(n)
    instances = []
    for _ in range(samples):
        mask = 0
        for idx in range(len(slots)):
            if rng.random() < edge_prob:
                mask |= 1 << idx
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        instances.append((_rows_from_mask(n, mask, slots), i, j))
    return instances


def toggle_shift(adj, i, j):
    """A broken "shift" that flips the edge ij, so every law can fail."""
    rows = list(adj)
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    return rows


def ref_scan_free_max(n, k, s, t=None):
    """(value, mask) of the best graph on n vertices with matching number
    <= k: pruned edge-slot DFS, full pattern recount at every leaf."""
    tt = 0 if t is None else t
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    adj = [0] * n
    full = (1 << n) - 1
    best = [-1, 0]

    def rec(idx, mask, nu):
        if idx == len(slots):
            value = _clique_top_sum(adj, s, tt)
            if value > best[0] or (value == best[0] and mask < best[1]):
                best[:] = [value, mask]
            return
        rec(idx + 1, mask, nu)
        u, v = slots[idx]
        inc = _exists_matching(adj, full ^ (1 << u) ^ (1 << v), nu)
        if not (nu == k and inc):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            rec(idx + 1, mask | (1 << idx), nu + (1 if inc else 0))
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)

    rec(0, 0, 0)
    return tuple(best)


def ref_scan_bip_max(nx, ny, k, s, t):
    """(value, mask) of the best biadjacency mask with matching number <= k,
    scoring every one of the 2^(nx*ny) masks."""
    best_value, best_mask = -1, 0
    row_bits = (1 << ny) - 1
    for mask in range(1 << (nx * ny)):
        rows = [(mask >> (x * ny)) & row_bits for x in range(nx)]
        if _bip_nu(rows, nx, ny)[0] > k:
            continue
        value = _bip_sum(rows, ny, s, t)
        if value > best_value or (value == best_value and mask < best_mask):
            best_value, best_mask = value, mask
    return best_value, best_mask


def ref_verify_bondy_chvatal(n):
    """Degree-closure law on every (graph, non-edge) pair on 1..n, every
    slot of every mask visited and the matching test run on each pair."""
    if n > MAX_ORACLE_VERTICES:
        raise CapacityError(f"capped at n <= {MAX_ORACLE_VERTICES}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    slots = _edge_slots(n)
    full = (1 << n) - 1
    cases = 0
    violations = []
    for mask in range(1 << len(slots)):
        rows = _rows_from_mask(n, mask, slots)
        nu = _nu(rows)
        for idx, (u, v) in enumerate(slots):
            if mask >> idx & 1:
                continue
            cases += 1
            grew = _exists_matching(rows, full ^ (1 << u) ^ (1 << v), nu)
            if grew and rows[u].bit_count() + rows[v].bit_count() >= 2 * nu + 1:
                violations.append(
                    f"G={_edge_text(rows)} uv=({u + 1},{v + 1}) k={nu}: "
                    f"degrees reach 2k+1 yet adding uv raises the matching number"
                )
    return [Check("degree-closure", cases, tuple(violations))]


def ref_verify_koenig_gstar(nx, ny, k, pairs=((1, 1), (1, 2), (2, 2))):
    """The König and saturated-host checks on every one of the 2^(nx*ny)
    biadjacency masks, one full matching per mask."""
    if nx * ny > MAX_ORACLE_BIP_SLOTS:
        raise CapacityError(f"capped at nx*ny <= {MAX_ORACLE_BIP_SLOTS}")
    if nx < 0 or ny < 0 or k < 0:
        raise ValueError(f"need nx, ny, k >= 0, got nx={nx}, ny={ny}, k={k}")
    full_y = (1 << ny) - 1
    cases = 0
    dual_bad = []
    contain_bad = []
    mono_bad = []
    formula_bad = []

    def where(rows):
        return f"G(X={nx},Y={ny})={BipartiteGraph(nx, ny, rows).edges()}"

    for mask in range(1 << (nx * ny)):
        rows = [(mask >> (x * ny)) & full_y for x in range(nx)]
        size, match_y = _bip_nu(rows, nx, ny)
        if size != k:
            continue
        cases += 1
        xs, ys = _cover_masks(rows, nx, match_y)
        if xs.bit_count() + ys.bit_count() != k:
            cover = tuple(tuple(a + 1 for a in range(m) if side >> a & 1)
                          for m, side in ((nx, xs), (ny, ys)))
            dual_bad.append(f"{where(rows)}: cover {cover} vs matching {k}")
            continue
        star_rows = [full_y if xs >> x & 1 else ys for x in range(nx)]
        if any(rows[x] & ~star_rows[x] for x in range(nx)):
            contain_bad.append(f"{where(rows)}: not contained in its saturated host")
            continue
        x_count = xs.bit_count()
        for s, t in pairs:
            c_g = _bip_sum(rows, ny, s, t)
            c_star = _bip_sum(star_rows, ny, s, t)
            if c_g > c_star:
                mono_bad.append(f"{where(rows)} (s,t)=({s},{t}): {c_g} > {c_star}")
            expected = (
                bip_split_count(nx, k, x_count, s, s, ny)
                if s == t
                else bip_split_count_sym(nx, k, x_count, s, t, ny)
            )
            if c_star != expected:
                formula_bad.append(
                    f"{where(rows)} (s,t)=({s},{t}): host count {c_star} != formula {expected}"
                )
    return [
        Check("koenig-duality", cases, tuple(dual_bad)),
        Check("gstar-contains", cases, tuple(contain_bad)),
        Check("gstar-monotone", cases, tuple(mono_bad)),
        Check("gstar-formula", cases, tuple(formula_bad)),
    ]

