"""Bitmask graph types, constructors for the extremal families, and the edge-list file format.

Vertices carry 1-based labels 1..n at every public interface.  Internally a
graph is a tuple of per-vertex neighbor masks indexed 0..n-1, where bit b of
``adj[a]`` means labels a+1 and b+1 are adjacent.  Graphs are immutable after
construction; every mutating-looking operation returns a fresh value.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from typing import Iterable

from .errors import (
    CapacityError,
    DuplicateEdgeError,
    LabelRangeError,
    MalformedLineError,
    ParameterRangeError,
    SelfLoopError,
)

MAX_VERTICES = 64  # adjacency rows must fit in one machine word


class Edge(namedtuple("Edge", ["u", "v"])):
    """Unordered edge stored with u < v (1-based labels)."""

    __slots__ = ()

    def __new__(cls, u: int, v: int):
        if not 1 <= u < v:
            raise ValueError(f"edge endpoints must satisfy 1 <= u < v, got ({u}, {v})")
        return super().__new__(cls, u, v)


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"at most {MAX_VERTICES} vertices supported, got {n}")


class Graph:
    """Immutable undirected graph on labels 1..n with bitmask adjacency."""

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, adj: Iterable[int] | None = None):
        _check_vertex_count(n)
        rows = (0,) * n if adj is None else tuple(adj)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        deg_total = 0
        for a, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"adjacency row {a + 1} references vertices beyond {n}")
            if row >> a & 1:
                raise ValueError(f"self-loop at vertex {a + 1}")
            deg_total += row.bit_count()
            mask = row
            while mask:
                b = mask & -mask
                mask ^= b
                if not rows[b.bit_length() - 1] >> a & 1:
                    raise ValueError(f"asymmetric adjacency between {a + 1} and {b.bit_length()}")
        self.n = n
        self.adj = rows
        self.m = deg_total // 2

    @classmethod
    def _trusted(cls, n: int, rows: Iterable[int]) -> "Graph":
        """The graph on ``rows`` that package code built symmetric,
        loop-free and inside 1..n, stored without ``__init__``'s checks,
        which public input keeps."""
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        g.m = sum(map(int.bit_count, g.adj)) // 2
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) outside labels 1..{n}")
            if rows[u - 1] >> (v - 1) & 1:  # (v, u) after (u, v) is a repeat too
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
        return cls(n, rows)

    def has_edge(self, u: int, v: int) -> bool:
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"labels ({u}, {v}) outside 1..{self.n}")
        return bool(self.adj[u - 1] >> (v - 1) & 1)

    def degree(self, u: int) -> int:
        if not 1 <= u <= self.n:
            raise ValueError(f"label {u} outside 1..{self.n}")
        return self.adj[u - 1].bit_count()

    def edges(self) -> list[Edge]:
        """All edges sorted by (u, v).  Each row's bits above its own
        vertex give 1 <= u < v, so each ``Edge`` is made without
        ``Edge.__new__``'s check, as ``_trusted`` skips ``__init__``."""
        out = []
        new = tuple.__new__
        for a in range(self.n):
            mask = self.adj[a] >> (a + 1) << (a + 1)
            while mask:
                b = mask & -mask
                mask ^= b
                out.append(new(Edge, (a + 1, b.bit_length())))
        return out

    def add_edge(self, u: int, v: int) -> "Graph":
        """New graph with edge {u, v} added; rejects existing edges and loops."""
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        rows = list(self.adj)
        rows[u - 1] |= 1 << (v - 1)
        rows[v - 1] |= 1 << (u - 1)
        return Graph(self.n, rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class BipartiteGraph:
    """Immutable bipartite graph with parts X = 1..nx and Y = 1..ny.

    Only cross edges are representable: ``biadj[x]`` is the bitmask over Y of
    the neighbors of X-vertex x+1.
    """

    __slots__ = ("nx", "ny", "biadj", "m")

    def __init__(self, nx: int, ny: int, biadj: Iterable[int] | None = None):
        _check_vertex_count(nx)
        _check_vertex_count(ny)
        rows = (0,) * nx if biadj is None else tuple(biadj)
        if len(rows) != nx:
            raise ValueError(f"expected {nx} biadjacency rows, got {len(rows)}")
        full = (1 << ny) - 1
        for a, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {a + 1} references Y-labels beyond {ny}")
        self.nx = nx
        self.ny = ny
        self.biadj = rows
        self.m = sum(row.bit_count() for row in rows)

    @classmethod
    def from_edges(cls, nx: int, ny: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        _check_vertex_count(nx)
        _check_vertex_count(ny)
        rows = [0] * nx
        for u, v in edges:
            if not (1 <= u <= nx and 1 <= v <= ny):
                raise ValueError(f"edge ({u}, {v}) outside X=1..{nx}, Y=1..{ny}")
            if rows[u - 1] >> (v - 1) & 1:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            rows[u - 1] |= 1 << (v - 1)
        return cls(nx, ny, rows)

    def has_edge(self, u: int, v: int) -> bool:
        if not (1 <= u <= self.nx and 1 <= v <= self.ny):
            raise ValueError(f"labels ({u}, {v}) outside X=1..{self.nx}, Y=1..{self.ny}")
        return bool(self.biadj[u - 1] >> (v - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for a in range(self.nx):
            mask = self.biadj[a]
            while mask:
                b = mask & -mask
                mask ^= b
                out.append((a + 1, b.bit_length()))
        return out

    def as_graph(self) -> Graph:
        """Embed as a general graph: X keeps its labels, Y-label j becomes
        nx + j, so the edges are (x, nx + y) for each edge (x, y)."""
        return Graph.from_edges(self.nx + self.ny, ((x, self.nx + y) for x, y in self.edges()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and (self.nx, self.ny) == (other.nx, other.ny)
            and self.biadj == other.biadj
        )

    def __hash__(self) -> int:
        return hash((self.nx, self.ny, self.biadj))

    def __repr__(self) -> str:
        return f"BipartiteGraph(nx={self.nx}, ny={self.ny}, m={self.m})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    """K_n: every pair a < b of 1..n, C(n, 2) edges."""
    return Graph.from_edges(n, ((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)))


def empty_graph(n: int) -> Graph:
    """E_n: n isolated vertices."""
    return Graph(n, [0] * n)


def join(g1: Graph, g2: Graph) -> Graph:
    """g1's edges, g2's edges with labels offset by g1.n, and every cross
    pair (a, b) with a in 1..g1.n and b in g1.n+1..g1.n+g2.n."""
    n, off = g1.n + g2.n, g1.n
    shifted = ((off + u, off + v) for u, v in g2.edges())
    cross = ((a, b) for a in range(1, off + 1) for b in range(off + 1, n + 1))
    return Graph.from_edges(n, chain(g1.edges(), shifted, cross))


def extremal_graph(n: int, k: int, ell: int) -> Graph:
    """The canonical extremal family for matching number at most k.

    Clique on labels 1..ell plus all edges between 1..(2k+1-ell) and the
    remaining n-ell vertices: the pairs a < b of 1..n with b <= ell or
    a <= 2k+1-ell.  Requires k+1 <= ell <= 2k+1 and ell <= n.  Has exactly
    C(ell, 2) + (n-ell)(2k+1-ell) edges; its matching number is k whenever
    n >= 2k.  The pairs are a lazy generator, so ``from_edges`` rejects an
    n beyond the cap before one is made.
    """
    if not k + 1 <= ell <= 2 * k + 1:
        raise ParameterRangeError(f"need k+1 <= ell <= 2k+1, got k={k}, ell={ell}")
    if ell > n:
        raise ParameterRangeError(f"need ell <= n, got ell={ell}, n={n}")
    c = 2 * k + 1 - ell
    pairs = ((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1))
    return Graph.from_edges(n, ((a, b) for a, b in pairs if b <= ell or a <= c))


# ---------------------------------------------------------------------------
# Edge-list file format
# ---------------------------------------------------------------------------
#
# General graphs:    first line "n m", then exactly m lines "u v" with
#                    1 <= u < v <= n.  Bipartite graphs: first line "nx ny m",
#                    then m lines "u v" with u in 1..nx, v in 1..ny.  Edge
#                    lines in increasing (u, v) order, LF line endings (the
#                    last may be omitted), no comments, ASCII decimal numbers
#                    without sign or leading zeros, single spaces.  So every
#                    file that parses is the serializer's output for its graph.


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _is_decimal(token: str) -> bool:
    """True iff token is 0 or an ASCII digit string without a leading zero."""
    return token.isascii() and token.isdigit() and (token == "0" or token[0] != "0")


def _parse_ints(line: str, count: int, lineno: int) -> list[int]:
    parts = line.split(" ")
    if len(parts) == count and all(_is_decimal(p) for p in parts):
        try:
            return [int(p) for p in parts]
        except ValueError:  # beyond the interpreter's integer-string digit limit
            pass
    raise MalformedLineError(f"line {lineno}: expected {count} space-separated integers")


def parse_graph(text: str) -> Graph:
    """Parse the general edge-list format.

    Raises a distinct error per defect: malformed line, self-loop, duplicate
    edge, or label out of range.
    """
    lines = _split_lines(text)
    if not lines:
        raise MalformedLineError("line 1: missing header")
    n, m = _parse_ints(lines[0], 2, 1)
    _check_vertex_count(n)
    if len(lines) - 1 != m:
        raise MalformedLineError(f"expected {m} edge lines, found {len(lines) - 1}")
    rows = [0] * n
    last = (0, 0)
    for i, line in enumerate(lines[1:], start=2):
        u, v = _parse_ints(line, 2, i)
        if u == v:
            raise SelfLoopError(f"line {i}: self-loop at vertex {u}")
        if u > v:
            raise MalformedLineError(f"line {i}: endpoints must satisfy u < v")
        if u < 1 or v > n:
            raise LabelRangeError(f"line {i}: labels ({u}, {v}) outside 1..{n}")
        if rows[u - 1] >> (v - 1) & 1:
            raise DuplicateEdgeError(f"line {i}: duplicate edge ({u}, {v})")
        if (u, v) < last:
            raise MalformedLineError(f"line {i}: edges must be listed in increasing (u, v) order")
        last = (u, v)
        rows[u - 1] |= 1 << (v - 1)
        rows[v - 1] |= 1 << (u - 1)
    return Graph(n, rows)


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: header plus edges sorted by (u, v)."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{e.u} {e.v}" for e in g.edges())
    return "\n".join(out) + "\n"


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the bipartite edge-list format ("nx ny m" header)."""
    lines = _split_lines(text)
    if not lines:
        raise MalformedLineError("line 1: missing header")
    nx, ny, m = _parse_ints(lines[0], 3, 1)
    _check_vertex_count(nx)
    _check_vertex_count(ny)
    if len(lines) - 1 != m:
        raise MalformedLineError(f"expected {m} edge lines, found {len(lines) - 1}")
    rows = [0] * nx
    last = (0, 0)
    for i, line in enumerate(lines[1:], start=2):
        u, v = _parse_ints(line, 2, i)
        if not (1 <= u <= nx):
            raise LabelRangeError(f"line {i}: X-label {u} outside 1..{nx}")
        if not (1 <= v <= ny):
            raise LabelRangeError(f"line {i}: Y-label {v} outside 1..{ny}")
        if rows[u - 1] >> (v - 1) & 1:
            raise DuplicateEdgeError(f"line {i}: duplicate edge ({u}, {v})")
        if (u, v) < last:
            raise MalformedLineError(f"line {i}: edges must be listed in increasing (u, v) order")
        last = (u, v)
        rows[u - 1] |= 1 << (v - 1)
    return BipartiteGraph(nx, ny, rows)


def serialize_bipartite(bg: BipartiteGraph) -> str:
    out = [f"{bg.nx} {bg.ny} {bg.m}"]
    out.extend(f"{u} {v}" for u, v in bg.edges())
    return "\n".join(out) + "\n"
