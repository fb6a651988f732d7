"""Brute-force ground truth: exhaustive search over small labeled graphs.

Maxima are independent of the closed-form evaluators: they come from
enumerating all labeled graphs (bitmasks over the C(n,2) edge slots) with
matching number at most k.  ``max_over_free`` finds the largest s-clique or
clique-star count on n vertices, by one pruned DFS over vertex rows whose
rules are written out in the ``_scan_free_max`` docstring;
``max_over_free_bip`` finds the largest biclique count over bipartite
graphs with the given parts; ``iter_free_graphs`` yields every graph
with matching number at most k.  The law checks (``verify_shift_lemmas``,
``verify_shifted_structure``, ``verify_bondy_chvatal``,
``verify_koenig_gstar``) test the structural laws instance by instance and
report every counterexample in full; each docstring gives its walk, and a
walk skips only what cannot change the verdict.  Witness ties break on the
smallest edge mask under the canonical lexicographic slot order, whatever
order the graphs are visited in (for a bipartite graph, the smallest
biadjacency mask).  Each scan runs once, in this process.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations, combinations_with_replacement
from math import comb

from .counting import _bip_sum, _clique_gain, _clique_gain_any, _clique_top_sum
from .errors import CapacityError, ParameterRangeError
from .extremal import ExtremalParams, bip_split_count, bip_split_count_sym
from .graph import BipartiteGraph, Graph, _check_vertex_count, extremal_graph
from .matching import _bip_augment, _bip_nu, _cover_masks, _exists_matching, _missable, _nu
from .shifting import _shift_adj, shifted_graphs

MAX_ORACLE_VERTICES = 7
MAX_SCAN_VERTICES = 8  # max_over_free's own cap
MAX_ORACLE_BIP_SLOTS = 20


@dataclass(frozen=True)
class Witness:
    """An extremal graph found by exhaustive search, for auditability."""

    graph: Graph | BipartiteGraph
    value: int
    params: ExtremalParams


@dataclass(frozen=True)
class Check:
    """Outcome of one verified law: case count plus full counterexamples."""

    name: str
    cases: int
    violations: tuple[str, ...] = ()
    seed: int | None = None

    @property
    def status(self) -> str:
        """"fail" with violations, "empty" when no case was examined (nothing
        was verified), otherwise "pass"."""
        if self.violations:
            return "fail"
        return "pass" if self.cases else "empty"


def _edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs of n vertices, in the lexicographic slot order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def _rows_from_mask(n: int, mask: int, slots) -> list[int]:
    rows = [0] * n
    while mask:
        b = mask & -mask
        mask ^= b
        u, v = slots[b.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _edge_text(rows) -> str:
    return "{" + " ".join(f"({u},{v})" for u, v in Graph(len(rows), rows).edges()) + "}"


# ---------------------------------------------------------------------------
# Exhaustive maxima over matching-bounded graphs
# ---------------------------------------------------------------------------

def iter_free_graphs(n: int, k: int):
    """An iterator over every labeled graph on 1..n with matching number <= k.

    Graphs come in vertex-row order (``_last_parents``): parent by parent,
    each with the last vertex's allowed back-rows ascending, which is
    neither slot order nor mask order.  The arguments are checked at the
    call, before the first graph is asked for.
    """
    if n > MAX_ORACLE_VERTICES:
        raise CapacityError(f"exhaustive enumeration capped at n <= {MAX_ORACLE_VERTICES}")
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    if not n:
        return iter([Graph(0)])
    return (Graph._trusted(n, _child(adj, back))
            for adj, nu, grow, _ in _last_parents(n, k)
            for back in range(1 << n - 1) if nu < k or not back & grow)


def _child(adj: list[int], back: int) -> list[int]:
    """The rows of ``adj`` with v = len(adj) joined to its back-row ``back``."""
    bit = 1 << len(adj)
    rows = [row | bit if back >> u & 1 else row for u, row in enumerate(adj)]
    rows.append(back)
    return rows


def _grow_table(adj: list[int], nu: int, grow: int, search: int) -> list[tuple[int, int]]:
    """The matching table of the parent rows ``adj`` (matching number nu,
    ``grow`` the vertices some maximum matching misses, the D set of Gallai
    1964 and Edmonds 1965): one pair (c, D(adj less c) & side) for each
    vertex c of ``search``, by one ``_missable`` call on the parent's rows
    with c taken out of the vertex set.  For c in ``grow`` the parent less c
    keeps nu, and its D set lies inside ``grow`` (a vertex outside it is
    covered by every maximum matching of the parent, so also of the parent
    less c), so ``side`` is ``grow``; for c outside, the parent less c has
    matching number nu - 1, and ``side`` is the vertices outside ``grow``,
    all that ``_handed_grow`` reads there."""
    full = (1 << len(adj)) - 1
    table = []
    while search:
        c = search & -search
        search ^= c
        kept = c & grow  # the parent less c keeps nu
        side = grow if kept else full ^ grow
        table.append((c, _missable(adj, full ^ c, nu if kept else nu - 1, side ^ c)))
    return table


def _handed_grow(table: list[tuple[int, int]], grow: int, v: int, back: int) -> int:
    """The ``grow`` mask of the child that joins v to the back-row ``back``
    below a parent whose mask is ``grow`` and whose ``_grow_table`` is
    ``table``, so that a later vertex raises the child's matching number
    exactly when its back-row meets the mask.  The child less c is the
    parent less c joined to back less c, and a new vertex raises a matching
    number exactly when it joins the D set.  So, with ``reach`` the c whose
    D set ``back`` meets, a child whose back-row meets ``grow`` (nu one
    above its parent's) keeps the c of ``grow`` in ``reach``, and never v
    (the child less v is the parent); any other child keeps ``grow`` and v,
    and gains each c outside ``grow`` in ``reach``."""
    reach = 0
    for c, missed in table:
        if back & missed:
            reach |= c
    return reach & grow if back & grow else grow | 1 << v | reach & ~grow


def _last_parents(n: int, k: int):
    """(adj, nu, grow, mask) for each graph on n - 1 vertices with matching
    number nu <= k, walked by vertex rows: vertex v is one DFS level taking
    each back-row in turn.  ``grow`` is the mask ``_handed_grow`` hands down
    from the parent's one ``_grow_table`` (0 for the empty root), so a
    back-row raises nu exactly when it meets ``grow``.  ``mask`` is adj's
    edge mask in the slot order of n vertices."""
    canon = _BACK_MASKS[n]

    def rec(adj: list[int], nu: int, grow: int, mask: int):
        v = len(adj)
        if v == n - 1:
            yield adj, nu, grow, mask
            return
        below = (1 << v) - 1
        allowed = below & ~grow if nu == k else below  # the back-rows keeping nu <= k
        cuts = _grow_table(adj, nu, grow, allowed)
        for back in range(1 << v):
            if nu < k or not back & grow:
                yield from rec(_child(adj, back), nu + 1 if back & grow else nu,
                               _handed_grow(cuts, grow, v, back), mask | canon[v][back])

    if n:
        yield from rec([], 0, 0, 0)


def _back_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """canon[v][B]: the edge mask, in the lexicographic slot order of n
    vertices, of the edges from v back to the vertex set B below it."""
    canon = [(0,)] * n
    for v in range(1, n):
        bits = [1 << u * (2 * n - u - 1) // 2 + v - u - 1 for u in range(v)]  # slot (u, v)
        table = [0] * (1 << v)
        for back in range(1, 1 << v):
            low = back & -back
            table[back] = table[back ^ low] | bits[low.bit_length() - 1]
        canon[v] = tuple(table)
    return tuple(canon)


_BACK_MASKS = tuple(map(_back_masks, range(MAX_SCAN_VERTICES + 1)))  # made once per n, at import
_EDGE_SLOTS = tuple(map(_edge_slots, range(MAX_SCAN_VERTICES + 1)))  # likewise


def _steps(backs) -> list[tuple[int, int, int]]:
    """(j, backs[j], w) for each i >= 1, where ``backs`` lists every subset
    of one vertex set in ascending order: j = i & (i - 1) indexes backs[i]
    less its lowest vertex w."""
    return [(i & (i - 1), backs[i & (i - 1)], (backs[i] & -backs[i]).bit_length() - 1)
            for i in range(1, len(backs))]


def _chain(rows, steps, first, joined, s, t) -> list[int]:
    """Pattern counts along ``steps`` (``_steps`` over ``backs``) of a vertex
    v whose row is ``joined`` plus its back-row: entry 0 is ``first``, and
    entry i adds to entry j the copies through the edge vw, read off
    ``rows``, that takes backs[j] to backs[i]."""
    counts = [first]
    append = counts.append
    gain = _clique_gain  # bound once, looked up per back-row
    for j, rest, w in steps:
        append(counts[j] + gain(rows, rows[w], rest | joined, s, t))
    return counts


def _completion_rows(adj, n, reach) -> list[int]:
    """The rows of the widest completion of the parent rows ``adj`` on n
    vertices, v = len(adj) taking no back-row yet: each later vertex is
    joined to the vertices of ``reach`` but itself, at -1 to all others;
    with ``reach`` inside v and the vertices below it, to those only, so
    the later vertices are independent: the widest completion of a graph
    at matching number k whose ``reach`` is the vertices every maximum
    matching covers (``_scan_free_max``)."""
    v = len(adj)
    full = (1 << n) - 1
    later = full ^ ((2 << v) - 1)
    rows = [row | later if reach >> u & 1 else row for u, row in enumerate(adj)]
    rows.append(later if reach >> v & 1 else 0)
    rows += [reach & ~(1 << z) & full for z in range(v + 1, n)]
    return rows


def _completion(adj, n, reach, s, t, memo) -> tuple[list[int], int]:
    """The rows of the widest completion of the parent rows ``adj`` to
    ``reach`` (``_completion_rows``), v = len(adj) taking no back-row yet,
    and their pattern count, kept in ``memo``, the parent's dict by
    ``reach``, so each completion a parent reads is counted once."""
    if reach not in memo:
        rows = _completion_rows(adj, n, reach)
        memo[reach] = rows, _clique_top_sum(rows, s, t)
    return memo[reach]


def _path_gain(adj, back, s, t, joined) -> int:
    """The copies through a vertex v gained as v, its other neighbours
    ``joined``, takes the back-row ``back`` one edge at a time: the path of
    ``_chain`` to ``back``, one edge gain per vertex of it.  The other rows
    are read off ``adj``, the rows of a completion (``_completion_rows``),
    whose row v is ``joined``."""
    total = 0
    while back:
        low = back & -back
        back ^= low
        total += _clique_gain(adj, adj[low.bit_length() - 1], back | joined, s, t)
    return total


def _least_free_edges(rows, v, s, t) -> int:
    """The edge mask, in the slot order of len(rows) vertices, of the free
    edges of ``rows`` (those at v or a later vertex) that some copy uses:
    each one whose ``_clique_gain`` is nonzero, tested by
    ``_clique_gain_any``, which stops at the first copy.  Copies never
    fall when edges are added, so a subgraph over the free edges keeps the
    count of ``rows`` exactly when it keeps every edge some copy uses, and
    these edges with the others of ``rows`` form the least such subgraph,
    inside every other and so the one with the smallest mask."""
    canon = _BACK_MASKS[len(rows)]
    kept = 0
    for z in range(v, len(rows)):
        back = rows[z] & ((1 << z) - 1)
        while back:
            low = back & -back
            back ^= low
            if _clique_gain_any(rows, rows[low.bit_length() - 1] ^ 1 << z, rows[z] ^ low, s, t):
                kept |= canon[z][low]
    return kept


def _scan_free_max(n, k, s, t):
    """Best (value, mask) over free graphs on n vertices; the scan's rules.

    Each vertex v is one DFS level that picks v's back-row B, the
    neighbours of v below it.  The allowed back-rows and their ``_steps``
    come from one dict per scan, filled when each allowed set is first met:
    building all 2^(n-1) sets up front costs more than a small scan's walk.
    A graph's mask is the OR of the import-time ``_BACK_MASKS`` entries
    along its path, its edge mask in the lexicographic slot order, so the
    smallest-mask witness is the edge-slot order's whatever the visit
    order.  Children go widest back-row first, so a near-best graph sets
    the best early.

    The matching bound.  nu <= k is hereditary for induced subgraphs, so it
    prunes at every vertex: a back-row raises the matching number exactly
    when it meets the parent's ``grow``, the vertices some maximum matching
    misses, so at nu = k only subsets of the other vertices are visited.
    Each child's ``grow`` is handed down by ``_handed_grow`` from the
    parent's ``_grow_table`` over its allowed back-rows, made at its first
    child walked.  A subtree where no graph can exceed k is not walked
    (the last rule below), so it makes no table and reads no mask.

    The completion bound.  Copies never fall when edges are added, and
    every leaf below keeps the child's mask bits, so a child is skipped
    before its rows are built when the count of its widest completion is
    below the best, or equal to it with a mask no smaller than the best's.
    Each such count starts from ``_completion``: the parent's rows, v
    taking no back-row yet, with each later vertex joined to a set
    ``reach``, counted once per parent and ``reach`` in the parent's
    ``memo``; v's back-row then adds its edge gains.
    - Each parent walked, one where some completion can exceed k,
      tabulates those counts for all its children, one ``_chain`` over its
      allowed back-rows.  Below a graph at nu = k, ``grow`` only gains
      vertices, so each later vertex may join only the vertices outside
      ``grow`` and never another later vertex.  At nu = k, which above the
      last vertex needs k < n // 2 and so the searches, every child keeps
      nu = k, and the table's ``reach`` is the parent's allowed set;
      elsewhere it is every vertex (-1), each later vertex joined to all
      others.
    - A child that survives its entry with nu = k is bounded again by its
      own widest completion, whose ``reach`` is the child's vertices
      outside its own ``grow``: a subgraph of the completion its entry
      counted, so it takes the smaller count, the parent's count at that
      ``reach`` plus one path of edge gains (``_path_gain``).  A child
      whose ``grow`` gained only v reaches the parent's allowed set, the
      count its table started from.
    - A subtree where no graph can exceed k is resolved without a walk:
      the subtree below a parent where no completion can exceed k
      (k >= nu + n - v or k >= n // 2), and the one below any parent of the
      last vertex, whose allowed back-rows all keep nu <= k.  Each subset
      of the free edges (those at v or a later vertex) of its widest
      completion, v joined to ``allowed`` and each later vertex to all
      others, is then a graph of the subtree.  Copies never fall when edges
      are added, so that completion's count is the subtree's best, and a
      subgraph keeps it exactly when it keeps every free edge some copy
      uses: the completion less each free edge whose gain is 0
      (``_least_free_edges``) lies inside every best of the subtree, so it
      has the smallest mask, whatever order the edges are cleared in.  The
      count is the parent's entry ``top``, exact there.  Above the last
      vertex such a parent has nu < k (nu <= v // 2 < n // 2), so ``top``
      is the root's (K_n) or an entry of a table at ``reach`` -1.  At the
      last vertex v = n - 1, a parent with nu < k has every back-row
      allowed, and its entry, at ``reach`` -1 (its own parent has nu < k)
      or the root's, joins v to all others; a parent at nu = k took its own
      bound, which joins v to its vertices outside ``grow``, its allowed
      set.  A subtree whose count is below the best, or equal to it with
      the parent's mask no smaller than the best's, returns before its
      gains.
    """
    if not n:
        return 0, 0
    canon = _BACK_MASKS[n]
    subsets = {}  # allowed back-row set -> (its subsets ascending, their _steps), filled when met
    best_value = -1
    best_mask = 0

    def rec(adj: list[int], nu: int, grow: int, mask: int, top: int) -> None:
        nonlocal best_value, best_mask
        v = len(adj)
        below = (1 << v) - 1
        allowed = below & ~grow if nu == k else below  # the back-rows keeping nu <= k
        if v == n - 1 or k >= min(nu + n - v, n // 2):  # no graph below exceeds k
            if top < best_value or (top == best_value and mask >= best_mask):
                return
            free = ((1 << n) - 1) ^ below  # v and the later vertices, joined to allowed and each other
            rows = [row | free if allowed >> u & 1 else row for u, row in enumerate(adj)]
            rows += [(allowed | free) ^ 1 << z for z in range(v, n)]  # the widest completion
            low = mask | _least_free_edges(rows, v, s, t)
            if top > best_value or low < best_mask:
                best_value, best_mask = top, low
            return

        if allowed not in subsets:
            backs = [0]
            while backs[-1] != allowed:
                backs.append((backs[-1] - allowed) & allowed)
            subsets[allowed] = backs, _steps(backs)
        backs, steps = subsets[allowed]
        memo = {}  # this parent's completions by reach, with their counts (_completion)
        rows, entry = _completion(adj, n, allowed if nu == k else -1, s, t, memo)
        tops = _chain(rows, steps, entry, rows[v], s, t)
        cuts = None  # the parent's _grow_table, made at its first child walked
        for back, ctop in zip(reversed(backs), reversed(tops)):
            cmask = mask | canon[v][back]
            if ctop < best_value or (ctop == best_value and cmask >= best_mask):
                continue
            if cuts is None:
                cuts = _grow_table(adj, nu, grow, allowed)
            cnu = nu + 1 if back & grow else nu
            cgrow = _handed_grow(cuts, grow, v, back)
            if cnu == k:  # the child's own widest completion bounds it
                rows, entry = _completion(adj, n, ((2 << v) - 1) & ~cgrow, s, t, memo)
                ctop = min(ctop, entry + _path_gain(rows, back, s, t, rows[v]))
                if ctop < best_value or (ctop == best_value and cmask >= best_mask):
                    continue
            rec(_child(adj, back), cnu, cgrow, cmask, ctop)

    rec([], 0, 0, 0, _completion([], n, -1, s, t, {})[1])  # the root's entry: K_n
    return best_value, best_mask


def max_over_free(n: int, k: int, s: int, t: int | None = None) -> Witness:
    """Exact maximum of a pattern count over all n-vertex graphs with
    matching number <= k, plus a witness graph.

    ``t is None`` counts s-cliques; otherwise (s-clique joined to t-set)
    pairs.  The witness is the graph with the smallest edge mask among the
    maxima.
    """
    if n > MAX_SCAN_VERTICES:
        raise CapacityError(f"exhaustive search capped at n <= {MAX_SCAN_VERTICES}")
    if n < 0 or k < 0 or s < 1 or (t is not None and t < 1):
        raise ValueError(f"bad arguments n={n}, k={k}, s={s}, t={t}")
    value, mask = _scan_free_max(n, k, s, 0 if t is None else t)
    graph = Graph._trusted(n, _rows_from_mask(n, mask, _EDGE_SLOTS[n]))
    return Witness(graph, value, ExtremalParams(n=n, k=k, s=s, t=t))


def max_over_free_bip(nx: int, ny: int, k: int, s: int, t: int) -> Witness:
    """Exact maximum of the (s, t)-biclique count over bipartite graphs with
    parts of sizes nx, ny and matching number <= k, plus a witness.

    One ascending tuple is scored per orbit of row permutations, whose
    matching number and biclique count do not change under them.  Read as
    rows nx-1 down to 0, most significant in the mask first, a tuple is its
    orbit's smallest mask, and the tuples arrive in mask order, so the first
    strict maximum is the smallest-mask witness.
    """
    if nx * ny > MAX_ORACLE_BIP_SLOTS:
        raise CapacityError(f"exhaustive bipartite search capped at nx*ny <= {MAX_ORACLE_BIP_SLOTS}")
    if nx < 0 or ny < 0 or k < 0 or s < 1 or t < 1:
        raise ValueError(f"bad arguments nx={nx}, ny={ny}, k={k}, s={s}, t={t}")
    best_value = -1
    bounded = k < min(nx, ny)  # otherwise no graph exceeds the bound
    for rows in combinations_with_replacement(range(1 << ny), nx):
        if bounded and _bip_nu(rows, nx, ny)[0] > k:
            continue
        value = _bip_sum(rows, ny, s, t)
        if value > best_value:
            best_value, best_rows = value, rows
    return Witness(BipartiteGraph(nx, ny, best_rows[::-1]), best_value,
                   ExtremalParams(n=nx, k=k, s=s, t=t))


# ---------------------------------------------------------------------------
# Law verification with counterexample reports
# ---------------------------------------------------------------------------

def verify_shift_lemmas(
    n: int,
    samples: int | None = None,
    edge_prob: float = 0.5,
    seed: int = 0,
    max_s: int = 3,
    max_t: int = 3,
    include: tuple[str, ...] = ("edges", "matching", "cliques", "stars"),
) -> list[Check]:
    """Check the shift laws on every sampled (graph, i < j) instance.

    Exhaustive mode (samples is None) covers all labeled graphs on 1..n and
    all pairs; random mode draws ``samples`` (graph, pair) instances with the
    given edge probability from a seeded Mersenne Twister generator: one
    ``random()`` per vertex pair in the order (1,2), (1,3), ..., (n-1,n),
    set straight into the rows, then i and j.

    Laws: edge-count conservation; matching number never grows; clique counts
    (sizes 2..max_s) and star-pair counts (sides up to max_s, max_t) never
    shrink.  Each graph's quantities are measured once, before its shifts.
    """
    # law -> (check name, its (label, quantity, violated(before, after)) rows in report order)
    laws = {
        "edges": ("edge-conservation",
                  [("edges", lambda a: sum(r.bit_count() for r in a) // 2, operator.ne)]),
        "matching": ("matching-monotone", [("matching", _nu, operator.lt)]),
        "cliques": ("clique-monotone",
                    [(f"{s}-cliques", partial(_clique_top_sum, s=s, t=0), operator.gt)
                     for s in range(2, max_s + 1)]),
        "stars": ("star-monotone",
                  [(f"star({s},{t})", partial(_clique_top_sum, s=s, t=t), operator.gt)
                   for s in range(1, max_s + 1) for t in range(1, max_t + 1)]),
    }
    unknown = [name for name in include if name not in laws]
    if unknown:
        raise ValueError(f"unknown shift laws {unknown}, expected some of {list(laws)}")
    rng_seed = None
    if samples is None:
        if n > 6:
            raise CapacityError("exhaustive shift verification capped at n <= 6")
        if n < 0:
            raise ValueError(f"need n >= 0, got n={n}")
        slots = _EDGE_SLOTS[n]

        def instances():  # (graph, its pairs)
            for mask in range(1 << len(slots)):
                yield _rows_from_mask(n, mask, slots), slots
    else:
        if n < 2:
            raise ValueError("random mode needs n >= 2")
        if samples < 1:
            raise ValueError(f"need samples >= 1, got {samples}")
        _check_vertex_count(n)
        if not 0.0 <= edge_prob <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {edge_prob}")
        rng_seed = seed
        rng = random.Random(seed)

        def instances():
            draw = rng.random
            for _ in range(samples):
                rows = [0] * n
                for u in range(n):
                    for v in range(u + 1, n):
                        if draw() < edge_prob:
                            rows[u] |= 1 << v
                            rows[v] |= 1 << u
                i = rng.randrange(n - 1)
                j = rng.randrange(i + 1, n)
                yield rows, ((i, j),)

    bad: dict[str, list[str]] = {name: [] for name in include}
    rules = [(name, *rule) for name in bad for rule in laws[name][1]]
    cases = 0
    for rows, pairs in instances():
        before = [quantity(rows) for _, _, quantity, _ in rules]
        for i, j in pairs:
            cases += 1
            image = _shift_adj(rows, i, j)
            for (law, label, quantity, violated), q0 in zip(rules, before):
                q1 = quantity(image)
                if violated(q0, q1):
                    where = f"G={_edge_text(rows)} i={i + 1} j={j + 1}"
                    bad[law].append(f"{where}: {label} {q0} -> {q1}")
    return [Check(laws[name][0], cases, tuple(bad[name]), rng_seed) for name in include]


def verify_shifted_structure(n: int, k: int) -> list[Check]:
    """Every shifted graph on 1..n with matching number exactly k must be a
    subgraph of the canonical extremal graph for some ell in [k+1, 2k+1]."""
    if n > MAX_ORACLE_VERTICES:
        raise CapacityError(f"capped at n <= {MAX_ORACLE_VERTICES}")
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    if n < 2 * k + 1:
        raise ParameterRangeError(
            f"only the n >= 2k+1 regime is verified, got n={n}, k={k}"
        )
    hosts = [extremal_graph(n, k, ell).adj for ell in range(k + 1, 2 * k + 2)]
    cases = 0
    violations = []
    for g in shifted_graphs(n):
        if _nu(g.adj) != k:
            continue
        cases += 1
        if not any(all(row & ~h[a] == 0 for a, row in enumerate(g.adj)) for h in hosts):
            violations.append(f"G={_edge_text(g.adj)} fits no host, k={k}")
    return [Check("shifted-subgraph-cover", cases, tuple(violations))]


def verify_bondy_chvatal(n: int) -> list[Check]:
    """Degree-closure law on every (graph, non-edge) pair on 1..n.

    For each instance let k+1 be the matching number after adding the edge;
    if both endpoint degrees sum to at least 2k+1 the matching number must
    not have grown.  Each graph's non-edge slots are its cases.  The graphs
    are the children of ``_last_parents``: a parent with matching number nu
    and D set ``grow`` (the vertices some maximum matching misses), and the
    last vertex v joined to a back-row B.  A new vertex raises a matching
    number exactly when it is joined to the D set (Gallai 1964, Edmonds
    1965), so the child's k is nu, plus one where B meets ``grow``.  Per
    parent and pair, two integers holding bit B for each back-row B decide
    every child at once: ``_closure_tests`` sets the B whose child meets the
    degree test, ``_closure_hits`` the B whose child less the pair still
    spans a matching of size k, by two rules on the parent's own rows:

    - the child less u and v is the parent less u, which keeps nu exactly
      when u is in ``grow``;
    - for w < v, the child less u and w is Q, the parent less u and w, with
      v joined to B less u and w: its matching number is nu(Q), plus one
      where B meets D(Q).

    Their common bits are the violations; only a violation's child is built,
    for its text.  Violations are reported in ascending edge mask, then
    slot, order.
    """
    if n > MAX_ORACLE_VERTICES:
        raise CapacityError(f"capped at n <= {MAX_ORACLE_VERTICES}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    slot_of = {pair: i for i, pair in enumerate(_EDGE_SLOTS[n])}
    canon = _BACK_MASKS[n]
    cases = 0
    found = []  # (mask, slot, text), sorted at the end
    v = n - 1  # the last vertex
    tables = _closure_tables(max(v, 0))  # n = 0 has no parents
    for adj, nu, grow, mask in _last_parents(n, n):
        non_edges = comb(v, 2) - sum(row.bit_count() for row in adj) // 2
        cases += (non_edges << v) + (v << v >> 1)  # plus v - |B| to the last vertex, over all B
        for u, w, backs in _closure_tests(adj, nu, grow, tables):
            backs &= _closure_hits(adj, nu, grow, u, w, tables)
            while backs:
                low = backs & -backs
                backs ^= low
                back = low.bit_length() - 1
                k = nu + (1 if back & grow else 0)
                found.append((mask | canon[v][back], slot_of[u, w],
                              f"G={_edge_text(_child(adj, back))} uv=({u + 1},{w + 1}) k={k}: "
                              f"degrees reach 2k+1 yet adding uv raises the matching number"))

    found.sort()
    return [Check("degree-closure", cases, tuple(text for _, _, text in found))]


def _closure_hits(adj, nu, grow, u, w, tables) -> int:
    """Bit B set for each back-row B of v = len(adj) whose child below the
    parent rows ``adj`` (matching number nu, D set ``grow``) less u and w
    spans a matching as large as the child's: nu + 1 for the B of ``meet``,
    meeting ``grow``, and nu for those of ``miss``, by the two rules of
    ``verify_bondy_chvatal``.  ``tables`` is ``_closure_tables(v)``.

    The probe for D(Q) skips the vertices that cannot lie in the part it
    reads.  If Q keeps nu, a maximum matching of Q, or of Q less a vertex
    of D(Q), is one of the parent, so u, w and D(Q) lie in ``grow``.  If Q
    spans nu - 1 only, just the part outside ``grow`` meets a B of
    ``miss``."""
    every, _, _, meets = tables
    v = len(adj)
    meet = meets[grow]
    miss = every ^ meet
    if w == v:
        return miss if grow >> u & 1 else 0
    full = (1 << v) - 1
    rest = full ^ 1 << u ^ 1 << w  # Q
    if grow >> u & grow >> w & 1 and _exists_matching(adj, rest, nu):
        return miss | meet & meets[_missable(adj, rest, nu, rest & grow)]
    if not _exists_matching(adj, rest, nu - 1):
        return 0
    return miss & meets[_missable(adj, rest, nu - 1, rest & ~grow)]


def _closure_tables(v: int):
    """Sets of back-rows B of vertex v, as integers holding bit B for each B:
    (every B, ``contains[u]`` the B holding u, ``at_least[x]`` the B of size
    at least x for x <= v, ``meets[g]`` the B meeting the vertex set g)."""
    every = (1 << (1 << v)) - 1
    contains = [sum(1 << b for b in range(1 << v) if b >> u & 1) for u in range(v)]
    at_least = [sum(1 << b for b in range(1 << v) if b.bit_count() >= x) for x in range(v + 1)]
    meets = [0] * (1 << v)
    for g in range(1, 1 << v):
        low = g & -g
        meets[g] = meets[g ^ low] | contains[low.bit_length() - 1]
    return every, contains, at_least, meets


def _closure_tests(adj, nu, grow, tables) -> list[tuple[int, int, int]]:
    """The degree closure's matching tests below the parent rows ``adj``
    (matching number nu, ``grow`` as ``_last_parents`` yields it), as
    (u, w, backs) with u < w <= v = len(adj): bit B of ``backs`` is set iff
    u and w are non-adjacent in the child on back-row B and their degrees
    there sum to at least 2k + 1, k being the child's matching number, nu
    plus one where B meets ``grow``.  A pair below v gains a degree from
    each of its ends in B; a pair (u, v) needs u outside B and gains |B|.
    ``tables`` is ``_closure_tables(v)``."""
    every, contains, at_least, meets = tables
    v = len(adj)
    meet = meets[grow]
    miss = every ^ meet
    least = 2 * nu + 1  # the degree sum a pair needs where B misses grow, 2 more where it meets
    deg = [row.bit_count() for row in adj]
    tests = []
    for u, w in combinations(range(v), 2):
        gap = least - deg[u] - deg[w]  # how many of u, w a B missing grow must hold
        if gap > 2 or adj[u] >> w & 1:
            continue
        # a B meeting grow must hold gap + 2 of u and w, so above 0 only the B
        # missing it pass; held is the B holding the count asked (gap's
        # parity): every B for at most 0, either end for 1, both for 2
        held = (every if gap < -1 else contains[u] | contains[w] if gap & 1
                else contains[u] & contains[w])
        backs = miss & held if gap > 0 else miss | meet & held
        if backs:
            tests.append((u, w, backs))
    for u in range(v):
        gap = least - deg[u]  # the size a B missing grow must reach
        if gap > v:
            continue
        backs = (miss & at_least[max(gap, 0)]
                 | meet & (at_least[max(gap + 2, 0)] if gap + 2 <= v else 0)) & ~contains[u]
        if backs:
            tests.append((u, v, backs))
    return tests


def verify_koenig_gstar(
    nx: int,
    ny: int,
    k: int,
    pairs: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 2)),
) -> list[Check]:
    """For every bipartite graph with matching number exactly k: the minimum
    cover has size k (``koenig-duality``) and covers every edge, so the graph
    lies in the host saturating the cover's sides (``gstar-contains``, the
    one coverage test); that host's biclique counts dominate the graph's and
    match the closed-form split count at x = |X-side of the cover|.

    Rows are filled from row nx-1 (the most significant in the mask) down to
    row 0, each row ascending, so graphs arrive in ascending mask order.  A
    maximum matching is carried down the fill.  Each fill node first finds
    ``reach``, the Y-vertices from which its X-vertex x would augment, by
    one fixpoint over that matching: the exposed Y-vertices, then each
    Y-vertex whose mate's row meets ``reach``, the Y side of the graph's D
    set (Gallai 1964, Edmonds 1965).  An augmenting path from x enters
    through x's row at one of them, so a row augments exactly when it meets
    ``reach``.  A row missing it keeps the node's matching, uncopied and
    maximum; a row meeting it makes one augmenting search on a copy.  A
    partial graph whose matching number, undecided rows empty, already
    exceeds k is dropped with every completion: each completion contains
    it, so none is a case; nothing is dropped when k >= min(nx, ny), where
    an augmenting row reaches size + 1 <= min(nx, ny) <= k.  Every surviving
    graph gets the full check, its cover read off the carried matching: the
    alternating-reachability cover is the same for every maximum matching.
    Each saturated host is scored, with its closed form, once per cover, and
    each case's counts once per sorted row tuple: permuting X-rows changes
    no biclique count, as ``max_over_free_bip`` also relies on.
    """
    if nx * ny > MAX_ORACLE_BIP_SLOTS:
        raise CapacityError(f"capped at nx*ny <= {MAX_ORACLE_BIP_SLOTS}")
    if nx < 0 or ny < 0 or k < 0:
        raise ValueError(f"need nx, ny, k >= 0, got nx={nx}, ny={ny}, k={k}")
    full_y = (1 << ny) - 1
    cases = 0
    bad: dict[str, list[str]] = {name: [] for name in (
        "koenig-duality", "gstar-contains", "gstar-monotone", "gstar-formula")}
    rows = [0] * nx

    def where(rows) -> str:
        return f"G(X={nx},Y={ny})={BipartiteGraph(nx, ny, rows).edges()}"

    def fill(x: int, size: int, match_y):  # rows above x set, below it zero; yields cases
        # the y from which x would augment: exposed, or matched to a row meeting them
        reach, last = sum(1 << y for y, mate in enumerate(match_y) if mate < 0), -1
        while reach != last:
            last = reach
            for y, mate in enumerate(match_y):
                if mate >= 0 and rows[mate] & reach:
                    reach |= 1 << y
        grows = size < k
        for row in range(full_y + 1):
            rows[x] = row
            if not row & reach:
                matched, grown = match_y, size
            elif grows:
                matched = match_y[:]
                _bip_augment(rows, x, matched)
                grown = size + 1
            else:
                continue
            if x:
                yield from fill(x - 1, grown, matched)
            elif grown == k:
                yield matched
        rows[x] = 0

    hosts: dict[tuple[int, int], list[tuple[int, int]]] = {}  # cover -> (count, formula) per pair
    counts: dict[tuple[int, ...], list[int]] = {}  # sorted rows -> the case's counts per pair
    # each case's maximum matching; with no X-rows the one graph is empty, a case at k = 0
    leaves = fill(nx - 1, 0, [-1] * ny) if nx else [[-1] * ny] * (k == 0)
    for match_y in leaves:
        cases += 1
        xs, ys = _cover_masks(rows, nx, match_y)
        if xs.bit_count() + ys.bit_count() != k:
            cover = tuple(tuple(a + 1 for a in range(m) if side >> a & 1)
                          for m, side in ((nx, xs), (ny, ys)))
            bad["koenig-duality"].append(f"{where(rows)}: cover {cover} vs matching {k}")
            continue
        star_rows = [full_y if xs >> x & 1 else ys for x in range(nx)]
        if any(rows[x] & ~star_rows[x] for x in range(nx)):
            bad["gstar-contains"].append(f"{where(rows)}: not contained in its saturated host")
            continue
        host = hosts.get((xs, ys))
        if host is None:
            x = xs.bit_count()
            host = hosts[xs, ys] = [
                (_bip_sum(star_rows, ny, s, t), bip_split_count(nx, k, x, s, s, ny) if s == t
                 else bip_split_count_sym(nx, k, x, s, t, ny)) for s, t in pairs]
        orbit = tuple(sorted(rows))
        here = counts.get(orbit)
        if here is None:
            here = counts[orbit] = [_bip_sum(rows, ny, s, t) for s, t in pairs]
        for (s, t), (c_star, expected), c_g in zip(pairs, host, here):
            if c_g > c_star:
                bad["gstar-monotone"].append(f"{where(rows)} (s,t)=({s},{t}): {c_g} > {c_star}")
            if c_star != expected:
                bad["gstar-formula"].append(
                    f"{where(rows)} (s,t)=({s},{t}): host count {c_star} != formula {expected}"
                )
    return [Check(name, cases, tuple(found)) for name, found in bad.items()]
