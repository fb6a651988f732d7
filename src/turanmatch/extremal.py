"""Closed-form extremal counts for graphs with bounded matching number.

Every evaluator returns an exact Python integer and uses the boundary
convention binom(n, r) = 0 for r < 0 or r > n, so the formulas hold verbatim
at their extreme parameters.  Evaluators reject arguments outside their
stated hypotheses instead of extrapolating; the brute-force oracle covers the
remaining regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ParameterRangeError


def binom(n: int, r: int) -> int:
    """C(n, r) with the zero convention outside 0 <= r <= n."""
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters of an oracle witness; unused members stay None."""

    n: int
    k: int
    s: int | None = None
    t: int | None = None


def _require(cond: bool, msg: str, *values) -> None:
    """Raise ``ParameterRangeError(msg.format(*values))`` unless ``cond``:
    a check that passes formats nothing."""
    if not cond:
        raise ParameterRangeError(msg.format(*values))


def ex_edges(n: int, k: int) -> int:
    """Maximum edge count of an n-vertex graph with matching number <= k:
    ex_clique(n, k, 2) = max(C(2k+1, 2), C(k, 2) + k(n-k))."""
    return ex_clique(n, k, 2)


def ex_clique(n: int, k: int, s: int) -> int:
    """Maximum number of s-cliques of an n-vertex graph with matching number <= k:
    max(C(2k+1, s), C(k, s) + (n-k) C(k, s-1)), the counts in the end hosts
    K_{2k+1} u E_{n-2k-1} (ell = 2k+1) and K_k v E_{n-k} (ell = k+1) of
    extremal_graph.  Zero when s > 2k+1."""
    _require(s >= 2, "need s >= 2, got s={}", s)
    return max(extremal_clique_count(n, k, ell, s) for ell in (k + 1, 2 * k + 1))


def ex_star(n: int, k: int, s: int, t: int) -> int:
    """Maximum number of (s-clique joined to t-set) copies with matching number
    <= k: max(C(2k+1, s+t) C(s+t, t), C(k, s) C(n-s, t) + (n-k) C(k, s+t-1)
    C(s+t-1, t)), the counts in K_{2k+1} u E_{n-2k-1} (ell = 2k+1) and
    K_k v E_{n-k} (ell = k+1)."""
    _require(s >= 1, "need s >= 1, got s={}", s)
    _require(t >= 2, "need t >= 2, got t={}; for t = 1 the pattern is an "
                     "(s+1)-clique, use ex_clique(n, k, s + 1)", t)
    return max(extremal_star_count(n, k, ell, s, t) for ell in (k + 1, 2 * k + 1))


def ex_bip(n: int, k: int, s: int, t: int) -> int:
    """Maximum number of (s, t)-biclique copies in a bipartite host with parts
    of size n and matching number <= k: C(k, s) C(n, t) + C(k, t) C(n, s), one
    term if s == t, the count in the host whose cover lies on one side (x = k)."""
    _require(s >= 1 and t >= 1, "need s, t >= 1, got s={}, t={}", s, t)
    _require(k >= 0, "need k >= 0, got k={}", k)
    _require(n >= k, "need n >= k, got n={}, k={}", n, k)
    return (bip_split_count if s == t else bip_split_count_sym)(n, k, k, s, t)


# ---------------------------------------------------------------------------
# Counts inside the canonical constructions
# ---------------------------------------------------------------------------

def _require_family(n: int, k: int, ell: int) -> None:
    _require(k >= 0, "need k >= 0, got k={}", k)
    _require(k + 1 <= ell <= 2 * k + 1, "need k+1 <= ell <= 2k+1, got k={}, ell={}", k, ell)
    _require(n >= 2 * k + 1, "need n >= 2k+1, got n={}, k={}", n, k)


def extremal_clique_count(n: int, k: int, ell: int, s: int) -> int:
    """s-clique count of extremal_graph(n, k, ell), in closed form:
    C(ell, s) + (n - ell) * C(2k+1-ell, s-1)."""
    _require_family(n, k, ell)
    _require(s >= 1, "need s >= 1, got s={}", s)
    return binom(ell, s) + (n - ell) * binom(2 * k + 1 - ell, s - 1)


def extremal_star_terms(n: int, k: int, ell: int, s: int, t: int) -> tuple[int, int, int]:
    """The three addends of the star count in extremal_graph(n, k, ell).

    Split by where the clique side sits: fully among the 2k+1-ell universal
    vertices; touching the independent outside part; or touching the
    clique-only part.
    """
    _require_family(n, k, ell)
    _require(s >= 1 and t >= 1, "need s, t >= 1, got s={}, t={}", s, t)
    u0 = 2 * k + 1 - ell
    t1 = binom(u0, s) * binom(n - s, t)
    t2 = (n - ell) * binom(u0, s - 1) * binom(u0 - s + 1, t)
    t3 = (binom(ell, s) - binom(u0, s)) * binom(ell - s, t)
    return t1, t2, t3


def extremal_star_count(n: int, k: int, ell: int, s: int, t: int) -> int:
    """Star-pattern count of extremal_graph(n, k, ell), in closed form."""
    return sum(extremal_star_terms(n, k, ell, s, t))


def bip_split_count(n: int, k: int, x: int, s: int, t: int, ny: int | None = None) -> int:
    """Oriented (s, t)-biclique count in the cover-saturated bipartite host
    with parts of sizes n and ny (default n) whose size-k cover has x
    vertices on the n side:
    C(x, s) C(ny, t) + C(n, s) C(k-x, t) - C(x, s) C(k-x, t)."""
    ny = n if ny is None else ny
    _require(0 <= x <= k <= min(n, ny),
             "need 0 <= x <= k <= min(n, ny), got x={}, k={}, n={}, ny={}", x, k, n, ny)
    _require(s >= 1 and t >= 1, "need s, t >= 1, got s={}, t={}", s, t)
    cxs = binom(x, s)
    ckt = binom(k - x, t)
    return cxs * binom(ny, t) + binom(n, s) * ckt - cxs * ckt


def bip_split_count_sym(n: int, k: int, x: int, s: int, t: int, ny: int | None = None) -> int:
    """Both orientations of bip_split_count summed."""
    return bip_split_count(n, k, x, s, t, ny) + bip_split_count(n, k, x, t, s, ny)


class EndpointMax(NamedTuple):
    argmax: int
    value: int
    is_convex: bool


def endpoint_max(f: Callable[[int], int], lo: int, hi: int) -> EndpointMax:
    """Exhaustive maximum of f over the integers [lo, hi], plus a discrete
    convexity verdict (f(x-1) + f(x+1) >= 2 f(x) at every interior point).

    The reported argmax prefers lo, then hi, then the smallest interior
    maximizer: the convexity conclusion used by the extremal formulas is that
    the maximum sits at an endpoint, and this makes that checkable.
    """
    if lo > hi:
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    values = [f(x) for x in range(lo, hi + 1)]
    top = max(values)
    convex = all(
        values[i - 1] + values[i + 1] >= 2 * values[i] for i in range(1, len(values) - 1)
    )
    if values[0] == top:
        arg = lo
    elif values[-1] == top:
        arg = hi
    else:
        arg = lo + values.index(top)
    return EndpointMax(arg, top, convex)
