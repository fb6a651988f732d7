"""Independent answer checks.

Nothing here imports turanmatch.  Pattern counts are enumerated with
itertools, matching numbers come from networkx's blossom algorithm, the
shift rule and the edge-list parser are the benchmark's own, and the closed
forms are transcribed from the paper's statements.  Imported only after the
timed run has read its peak memory.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb
from pathlib import Path

import networkx as nx

TOTALS = json.loads((Path(__file__).resolve().parent / "totals.json").read_text())


# ---------------------------------------------------------------------------
# Closed forms (matching number at most k)
# ---------------------------------------------------------------------------

def binom(n: int, r: int) -> int:
    return comb(n, r) if 0 <= r <= n else 0


def ex_edges(n, k):
    return max(binom(2 * k + 1, 2), binom(k, 2) + k * (n - k))


def ex_clique(n, k, s):
    return max(binom(2 * k + 1, s), binom(k, s) + (n - k) * binom(k, s - 1))


def ex_star(n, k, s, t):
    return max(binom(2 * k + 1, s + t) * binom(s + t, t),
               binom(k, s) * binom(n - s, t) + (n - k) * binom(k, s + t - 1) * binom(s + t - 1, t))


def ex_bip(n, k, s, t):
    if s == t:
        return binom(k, s) * binom(n, s)
    return binom(k, s) * binom(n, t) + binom(k, t) * binom(n, s)


# ---------------------------------------------------------------------------
# Counting by enumeration
# ---------------------------------------------------------------------------

def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def cliques(adj, s: int):
    """Every s-clique once, as a sorted tuple."""
    for v in adj:
        higher = sorted(w for w in adj[v] if w > v)
        for rest in combinations(higher, s - 1):
            if all(b in adj[a] for a, b in combinations(rest, 2)):
                yield (v,) + rest


def count_pattern(adj, s: int, t: int | None) -> int:
    """s-cliques (t None) or pairs (s-clique, t-set joined to all of it)."""
    if t is None:
        return sum(1 for _ in cliques(adj, s))
    total = 0
    for c in cliques(adj, s):
        common = set.intersection(*(adj[v] for v in c))
        total += sum(1 for _ in combinations(sorted(common), t))
    return total


def count_bicliques(nx_: int, ny: int, edges, s: int, t: int) -> int:
    """Copies of K_{s,t} across parts X = 1..nx_ and Y = 1..ny."""
    present = set(edges)

    def oriented(a, b):
        return sum(
            1
            for xs in combinations(range(1, nx_ + 1), a)
            for ys in combinations(range(1, ny + 1), b)
            if all((x, y) in present for x in xs for y in ys)
        )

    return oriented(s, t) if s == t else oriented(s, t) + oriented(t, s)


def nu(n: int, edges) -> int:
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return len(nx.max_weight_matching(g, maxcardinality=True))


# ---------------------------------------------------------------------------
# Edge-list text: the documented format, strictly
# ---------------------------------------------------------------------------

def parse(text: str) -> tuple[int, list[tuple[int, int]]]:
    if not text.endswith("\n"):
        raise ValueError("output does not end with LF")
    lines = text[:-1].split("\n")

    def ints(line):
        parts = line.split(" ")
        if len(parts) != 2 or not all(p.isdigit() and p.isascii() and (p == "0" or p[0] != "0") for p in parts):
            raise ValueError(f"malformed line {line!r}")
        return int(parts[0]), int(parts[1])

    n, m = ints(lines[0])
    edges = [ints(line) for line in lines[1:]]
    if len(edges) != m or edges != sorted(set(edges)) or any(not 1 <= u < v <= n for u, v in edges):
        raise ValueError("edge lines do not match the header or are not sorted and distinct")
    return n, edges


def shift(edges, i: int, j: int) -> list[tuple[int, int]]:
    """The (i, j) shift applied against the original edge set."""
    present = set(edges)
    out = []
    for u, v in edges:
        if j in (u, v) and i not in (u, v):
            x = u if v == j else v
            moved = (min(i, x), max(i, x))
            if moved not in present:
                out.append(moved)
                continue
        out.append((u, v))
    return sorted(out)


def downward_closed(edges) -> bool:
    present = set(edges)
    for a, b in present:
        for lower, other in ((a, b), (b, a)):
            for w in range(1, lower):
                if w != other and (min(w, other), max(w, other)) not in present:
                    return False
    return True


# ---------------------------------------------------------------------------
# Per-request checks: each returns an error message or None
# ---------------------------------------------------------------------------

def _scan(spec, out):
    _, n, k, s, t = spec
    value, witness = out
    complete = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if nu(n, witness) > k:
        return "witness has matching number above k"
    if count_pattern(adjacency(n, witness), s, t) != value:
        return "witness count differs from the value"
    if k >= n // 2:
        if list(witness) != complete:
            return "witness is not the complete graph"
        if value != count_pattern(adjacency(n, complete), s, t):
            return "value differs from the complete host's count"
    if n >= 2 * k + 1 and value != (ex_clique(n, k, s) if t is None else ex_star(n, k, s, t)):
        return "value differs from the closed form"
    return None


def _bip_scan(spec, out):
    _, nx_, ny, k, s, t = spec
    value, witness = out
    if nu(nx_ + ny, [(x, nx_ + y) for x, y in witness]) > k:
        return "witness has matching number above k"
    if count_bicliques(nx_, ny, witness, s, t) != value:
        return "witness count differs from the value"
    if k >= min(nx_, ny):
        complete = [(x, y) for x in range(1, nx_ + 1) for y in range(1, ny + 1)]
        if list(witness) != complete:
            return "witness is not the complete bipartite graph"
    if nx_ == ny and k <= nx_ and value != ex_bip(nx_, k, s, t):
        return "value differs from the closed form"
    return None


def _laws(names, expected_cases):
    def check(spec, out):
        if tuple(name for name, _, _ in out) != names:
            return f"checks {[name for name, _, _ in out]}, expected {list(names)}"
        for name, cases, violations in out:
            if violations:
                return f"{name}: {len(violations)} violations, first {violations[0]}"
            if cases != expected_cases(spec):
                return f"{name}: {cases} cases, expected {expected_cases(spec)}"
        return None

    return check


def _pairs_degree_closure(spec):
    slots = comb(spec[1], 2)
    return slots * 2 ** (slots - 1)  # (graph, non-edge) pairs


def _cli(spec, out):
    rc, stdout, stderr = out
    if rc != 0 or stderr:
        return f"exit {rc}, stderr {stderr!r}"
    kind = spec[0]
    if kind == "count":
        _, n, edges, s, t = spec
        expected = f"{count_pattern(adjacency(n, edges), s, t)}\n"
    elif kind == "nu":
        expected = f"{nu(spec[1], spec[2])}\n"
    elif kind == "shift":
        _, n, edges, i, j = spec
        after = shift(edges, i, j)
        expected = f"{n} {len(after)}\n" + "".join(f"{u} {v}\n" for u, v in after)
    elif kind == "shift_full":
        _, n, edges = spec
        n_out, after = parse(stdout)
        if n_out != n or len(after) != len(edges) or not downward_closed(after):
            return "--full output is not a downward-closed graph with the same edge count"
        for s in (3, 4):
            if count_pattern(adjacency(n, after), s, None) < count_pattern(adjacency(n, edges), s, None):
                return f"--full output has fewer {s}-cliques"
        return None
    elif kind == "cover":
        return _cover(spec, stdout)
    elif kind == "extremal":
        _, family, n, k, s, t = spec
        formula = {"edges": lambda: ex_edges(n, k), "clique": lambda: ex_clique(n, k, s),
                   "star": lambda: ex_star(n, k, s, t), "bip": lambda: ex_bip(n, k, s, t)}
        expected = f"{formula[family]()}\n"
    else:  # cli_scan
        expected = "param,value\n" + "".join(f"{p},{v}\n" for p, v in _construction_counts(spec))
    return None if stdout == expected else f"output {stdout!r}, expected {expected!r}"


def _cover(spec, stdout):
    _, nx_, ny, edges = spec
    lines = stdout.split("\n")
    if lines[0] != "vertex" or lines[-1] != "":
        return "cover output is not a 'vertex' column"
    xs = {int(v) for v in lines[1:-1] if not v.startswith("Y:")}
    ys = {int(v[2:]) for v in lines[1:-1] if v.startswith("Y:")}
    if len(xs) + len(ys) != nu(nx_ + ny, edges):
        return "cover size differs from the maximum matching size"
    if any(u not in xs and v - nx_ not in ys for u, v in edges):
        return "cover misses an edge"
    return None


def _construction_counts(spec):
    """The scan families' counts, counted in the constructions themselves."""
    _, family, n, k, s, t = spec
    if family == "bip-f":
        # Cover with x vertices in X (joined to all of Y) and k - x in Y.
        for x in range(k + 1):
            edges = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a <= x or b <= k - x]
            present = set(edges)
            yield x, sum(
                1
                for xs in combinations(range(1, n + 1), s)
                for ys in combinations(range(1, n + 1), t)
                if all((a, b) in present for a in xs for b in ys)
            )
        return
    for ell in range(k + 1, 2 * k + 2):
        # Clique on 1..ell, plus 1..(2k+1-ell) joined to everything.
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if v <= ell or u <= 2 * k + 1 - ell]
        yield ell, count_pattern(adjacency(n, edges), s, t)


def _bad_file(spec, out):
    rc, stdout, _ = out
    return None if rc == 2 and not stdout else f"exit {rc} with output {stdout!r}"


CHECKS = {
    "bad_file": _bad_file,
    "scan": _scan,
    "bip_scan": _bip_scan,
    "shift_laws": _laws(("edge-conservation", "matching-monotone"), lambda spec: spec[2]),
    "degree_closure": _laws(("degree-closure",), _pairs_degree_closure),
    "koenig": _laws(("koenig-duality", "gstar-contains", "gstar-monotone", "gstar-formula"),
                    lambda spec: TOTALS["bipartite_graphs_by_matching_number"][str(spec[1])][spec[2]]),
}


def check(spec: tuple, out) -> str | None:
    """None when ``out`` is a correct output for the request ``spec``."""
    return CHECKS.get(spec[0], _cli)(spec, out)
