"""The benchmark's three workloads.

Each workload is a fixed list of requests drawn from the seed: the timed run
repeats the list in whole rounds, and the traced run replays the same list
through the public functions of each module with a span around every call.
The program receives only the generated inputs.  Which outputs are correct is
decided in check.py, which shares no code with the program.
"""

from __future__ import annotations

import io
import random
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import count
from math import comb
from pathlib import Path
from types import FunctionType
from time import perf_counter
from typing import Callable

import turanmatch as tm
from turanmatch import cli, counting, extremal, matching, shifting

from spans import REQUEST_PREFIX, Tracer


@dataclass
class Request:
    label: str
    graphs: int  # this request's share of the workload's fixed graph total
    run: Callable[[], object]  # the timed call
    replay: Callable[[Tracer], object]  # the traced decomposition of the same call
    spec: tuple  # what check.py verifies the output against
    expect_rc: int | None = None  # CLI requests: the exit code a correct program gives
    collect: Callable[[object], object] = lambda raw: raw  # untimed: raw result -> output


def _edges(g) -> tuple:
    return tuple(tuple(e) for e in g.edges())


def _checks(checks) -> tuple:
    return tuple((c.name, c.cases, c.violations) for c in checks)


def _rows(n: int, mask: int, slots) -> list[int]:
    rows = [0] * n
    for idx, (u, v) in enumerate(slots):
        if mask >> idx & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


# ---------------------------------------------------------------------------
# Exhaustive maxima (oracle-dense, and the pruned scans of matching-laws)
# ---------------------------------------------------------------------------

def _scan(n: int, k: int, s: int, t: int | None) -> Request:
    def run():
        w = tm.max_over_free(n, k, s, t)
        return w.value, _edges(w.graph)

    def replay(tr: Tracer):
        kernel, args = (tm.count_cliques, (s,)) if t is None else (tm.count_star, (s, t))
        it_id = tr.name_id("oracle.iter_free_graphs")
        count_id = tr.name_id("counting." + kernel.__name__)
        best, best_g, leaves = -1, None, 0
        tr.open(tr.name_id(REQUEST_PREFIX + "max_over_free"))
        try:
            it = tm.iter_free_graphs(n, k)
            while True:
                t0 = perf_counter()
                g = next(it, None)
                tr.add(it_id, t0, perf_counter())
                if g is None:
                    break
                t0 = perf_counter()
                value = kernel(g, *args)
                tr.add(count_id, t0, perf_counter())
                leaves += 1
                if value > best:
                    best, best_g = value, g
        finally:
            tr.close()
        tr.counts["oracle.leaves"] += leaves
        return best, _edges(best_g)

    label = f"max_over_free(n={n}, k={k}, s={s}, t={t})"
    return Request(label, 1 << comb(n, 2), run, replay, ("scan", n, k, s, t))


def _bip_scan(nx: int, ny: int, k: int, s: int, t: int) -> Request:
    def run():
        w = tm.max_over_free_bip(nx, ny, k, s, t)
        return w.value, _edges(w.graph)

    def replay(tr: Tracer):
        cover_id = tr.name_id("matching.koenig_cover")
        count_id = tr.name_id("counting.count_bip")
        row_bits = (1 << ny) - 1
        best, best_g = -1, None
        tr.open(tr.name_id(REQUEST_PREFIX + "max_over_free_bip"))
        try:
            for mask in range(1 << (nx * ny)):
                bg = tm.BipartiteGraph(nx, ny, [(mask >> (x * ny)) & row_bits for x in range(nx)])
                t0 = perf_counter()
                xs, ys = tm.koenig_cover(bg)
                tr.add(cover_id, t0, perf_counter())
                if len(xs) + len(ys) > k:
                    continue
                t0 = perf_counter()
                value = tm.count_bip(bg, s, t)
                tr.add(count_id, t0, perf_counter())
                if value > best:
                    best, best_g = value, bg
        finally:
            tr.close()
        return best, _edges(best_g)

    label = f"max_over_free_bip(nx={nx}, ny={ny}, k={k}, s={s}, t={t})"
    return Request(label, 1 << (nx * ny), run, replay, ("bip_scan", nx, ny, k, s, t))


def oracle_dense(rng: random.Random, work: Path) -> list[Request]:
    """Maxima where k is at least the largest possible matching number, so
    the matching bound prunes nothing and every graph reaches the count
    kernel.  The seed picks each k (cost does not depend on it) and the order.
    """
    reqs = [_scan(6, rng.choice((3, 4, 5)), s, None) for s in range(2, 7)]
    reqs += [_scan(6, rng.choice((3, 4, 5)), s, t)
             for s, t in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2))]
    reqs += [_bip_scan(4, 4, rng.choice((4, 5)), s, t) for s, t in ((1, 1), (2, 2), (2, 3))]
    reqs += [_bip_scan(3, 4, rng.choice((3, 4)), s, t) for s, t in ((1, 1), (1, 2), (2, 2), (2, 3))]
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# Law checks whose work is matching numbers
# ---------------------------------------------------------------------------

def _shift_laws(n: int, samples: int, prob: float, seed: int) -> Request:
    def run():
        return _checks(tm.verify_shift_lemmas(
            n, samples=samples, edge_prob=prob, seed=seed, include=("edges", "matching")))

    def replay(tr: Tracer):
        # Draws the instances exactly as verify_shift_lemmas does in random mode.
        shift_id = tr.name_id("shifting.shift_graph")
        nu_id = tr.name_id("matching.matching_number")
        rng = random.Random(seed)
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edge_bad, nu_bad = [], []
        tr.open(tr.name_id(REQUEST_PREFIX + "verify_shift_lemmas"))
        try:
            for _ in range(samples):
                mask = 0
                for idx in range(len(slots)):
                    if rng.random() < prob:
                        mask |= 1 << idx
                i = rng.randrange(n - 1)
                j = rng.randrange(i + 1, n)
                g = tm.Graph(n, _rows(n, mask, slots))
                t0 = perf_counter()
                h = tm.shift_graph(g, i + 1, j + 1)
                t1 = perf_counter()
                nu0 = tm.matching_number(g)
                t2 = perf_counter()
                nu1 = tm.matching_number(h)
                t3 = perf_counter()
                tr.add(shift_id, t0, t1)
                tr.add(nu_id, t1, t2)
                tr.add(nu_id, t2, t3)
                if g.m != h.m:
                    edge_bad.append(f"mask={mask} i={i + 1} j={j + 1}")
                if nu1 > nu0:
                    nu_bad.append(f"mask={mask} i={i + 1} j={j + 1}")
        finally:
            tr.close()
        return (("edge-conservation", samples, tuple(edge_bad)),
                ("matching-monotone", samples, tuple(nu_bad)))

    label = f"verify_shift_lemmas(n={n}, samples={samples}, prob={prob}, seed={seed})"
    return Request(label, samples, run, replay, ("shift_laws", n, samples))


def _degree_closure(n: int) -> Request:
    def run():
        return _checks(tm.verify_bondy_chvatal(n))

    def replay(tr: Tracer):
        nu_id = tr.name_id("matching.matching_number")
        law_id = tr.name_id("matching.bondy_chvatal_holds")
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        cases, bad = 0, []
        tr.open(tr.name_id(REQUEST_PREFIX + "verify_bondy_chvatal"))
        try:
            for mask in range(1 << len(slots)):
                g = tm.Graph(n, _rows(n, mask, slots))
                t0 = perf_counter()
                nu = tm.matching_number(g)
                tr.add(nu_id, t0, perf_counter())
                for idx, (u, v) in enumerate(slots):
                    if mask >> idx & 1:
                        continue
                    cases += 1
                    t0 = perf_counter()
                    holds = tm.bondy_chvatal_holds(g, u + 1, v + 1, nu)
                    tr.add(law_id, t0, perf_counter())
                    if not holds:
                        bad.append(f"mask={mask} uv=({u + 1},{v + 1})")
        finally:
            tr.close()
        return (("degree-closure", cases, tuple(bad)),)

    label = f"verify_bondy_chvatal(n={n})"
    return Request(label, 1 << comb(n, 2), run, replay, ("degree_closure", n))


KOENIG_PAIRS = ((1, 1), (1, 2), (2, 2))  # verify_koenig_gstar's default pairs


def _koenig(parts: int, k: int) -> Request:
    nx = ny = parts

    def run():
        return _checks(tm.verify_koenig_gstar(nx, ny, k))

    def replay(tr: Tracer):
        cover_id = tr.name_id("matching.koenig_cover")
        count_id = tr.name_id("counting.count_bip")
        split_id = tr.name_id("extremal.bip_split_count")
        sym_id = tr.name_id("extremal.bip_split_count_sym")
        full_y = (1 << ny) - 1
        cases = 0
        bad: dict[str, list[str]] = {"dual": [], "contain": [], "mono": [], "formula": []}
        tr.open(tr.name_id(REQUEST_PREFIX + "verify_koenig_gstar"))
        try:
            for mask in range(1 << (nx * ny)):
                rows = [(mask >> (x * ny)) & full_y for x in range(nx)]
                bg = tm.BipartiteGraph(nx, ny, rows)
                t0 = perf_counter()
                xs, ys = tm.koenig_cover(bg)
                tr.add(cover_id, t0, perf_counter())
                if len(xs) + len(ys) != k:
                    continue
                cases += 1
                xs_mask = sum(1 << (x - 1) for x in xs)
                ys_mask = sum(1 << (y - 1) for y in ys)
                if any(rows[x] & ~ys_mask for x in range(nx) if not xs_mask >> x & 1):
                    bad["dual"].append(f"mask={mask}")
                    continue
                star_rows = [full_y if xs_mask >> x & 1 else ys_mask for x in range(nx)]
                if any(rows[x] & ~star_rows[x] for x in range(nx)):
                    bad["contain"].append(f"mask={mask}")
                    continue
                gstar = tm.BipartiteGraph(nx, ny, star_rows)
                for s, t in KOENIG_PAIRS:
                    t0 = perf_counter()
                    c_g = tm.count_bip(bg, s, t)
                    t1 = perf_counter()
                    c_star = tm.count_bip(gstar, s, t)
                    t2 = perf_counter()
                    if s == t:
                        expected = tm.bip_split_count(nx, k, len(xs), s, s)
                    else:
                        expected = tm.bip_split_count_sym(nx, k, len(xs), s, t)
                    t3 = perf_counter()
                    tr.add(count_id, t0, t1)
                    tr.add(count_id, t1, t2)
                    tr.add(split_id if s == t else sym_id, t2, t3)
                    if c_g > c_star:
                        bad["mono"].append(f"mask={mask} (s,t)=({s},{t})")
                    if c_star != expected:
                        bad["formula"].append(f"mask={mask} (s,t)=({s},{t})")
        finally:
            tr.close()
        names = (("koenig-duality", "dual"), ("gstar-contains", "contain"),
                 ("gstar-monotone", "mono"), ("gstar-formula", "formula"))
        return tuple((name, cases, tuple(bad[key])) for name, key in names)

    label = f"verify_koenig_gstar(nx={nx}, ny={ny}, k={k})"
    return Request(label, 1 << (nx * ny), run, replay, ("koenig", parts, k))


def matching_laws(rng: random.Random, work: Path) -> list[Request]:
    """Law checks and pruned maxima whose work is matching numbers.  The seed
    seeds each random shift check and picks the order; the other requests
    are exhaustive and have no random input."""
    reqs = [_shift_laws(n, 100, 0.5, rng.randrange(1 << 32)) for n in (12, 13, 14)]
    reqs += [_degree_closure(n) for n in (5, 6)]
    reqs += [_koenig(4, k) for k in (1, 2)]
    reqs += [_scan(7, k, s, t) for k, s, t in
             ((2, 2, None), (2, 3, None), (2, 1, 2), (2, 2, 2), (1, 2, None), (1, 1, 2))]
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# CLI requests on edge-list files
# ---------------------------------------------------------------------------

# Files outside the documented format ("decimal labels, single spaces, LF
# line endings"): each must exit 2.  They do not depend on the seed.
BAD_FILES = {
    "plus-sign": b"4 3\n+1 2\n2 3\n3 4\n",
    "leading-zero": b"4 3\n01 2\n2 3\n3 4\n",
    "underscore": b"12 3\n1 2\n2 3\n1_0 11\n",
    "tab": b"4 3\n1 \t2\n2 3\n3 4\n",
    "crlf": b"4 3\r\n1 2\r\n2 3\r\n3 4\r\n",
}


def _gnm(rng: random.Random, n: int, m: int) -> tuple:
    """G(n, m): m distinct edges drawn uniformly, sorted."""
    slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return tuple(sorted(rng.sample(slots, m)))


def _write_graph(path: Path, n: int, edges) -> None:
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    path.write_bytes(text.encode("ascii"))


def _cli(argv: list[str], spec: tuple, graphs: int, expect_rc: int = 0,
         out_path: Path | None = None) -> Request:
    """A CLI request; with ``out_path`` its standard output goes to that file,
    as a shell redirection would, and is read back outside the timed call."""

    def call(tr: Tracer | None):
        out, err = io.StringIO(), io.StringIO()
        with (open(out_path, "w", encoding="ascii") if out_path else nullcontext(out)) as sink:
            with redirect_stdout(sink), redirect_stderr(err):
                if tr is None:
                    rc = cli.dispatch(argv)
                else:
                    tr.open(tr.name_id("cli.dispatch"))
                    try:
                        rc = cli.dispatch(argv)
                    finally:
                        tr.close()
        return rc, out.getvalue(), err.getvalue()

    def collect(raw):
        if out_path is None:
            return raw
        return raw[0], out_path.read_text(encoding="ascii"), raw[2]

    return Request("turanmatch " + " ".join(argv), graphs, lambda: call(None), call, spec,
                   expect_rc=expect_rc, collect=collect)


def cli_files(rng: random.Random, work: Path) -> list[Request]:
    """CLI commands in process on files written by the benchmark's own writer.
    Random graphs are G(n, m) with a fixed m per size, so a request's cost
    does not swing with the seed."""
    reqs = []
    serial = count()

    def graph_file(n: int, m: int) -> tuple[str, tuple]:
        edges = _gnm(rng, n, m)
        path = work / f"g{next(serial)}-{n}-{m}.txt"
        _write_graph(path, n, edges)
        return str(path), edges

    for n, m, s, t in ((16, 40, 3, None), (32, 96, 4, None), (64, 192, 3, None),
                       (64, 400, 3, None), (24, 60, 1, 2), (32, 96, 2, 2), (64, 192, 2, 3)):
        path, edges = graph_file(n, m)
        pattern = f"clique:{s}" if t is None else f"star:{s},{t}"
        reqs.append(_cli(["count", "--input", path, "--pattern", pattern],
                         ("count", n, edges, s, t), 1))
    # matching_number memoizes over vertex subsets, so its cost swings with
    # the component structure; these sizes keep the swing within ~1 ms.
    for n, m in ((12, 30), (16, 24), (24, 12), (28, 14)):
        path, edges = graph_file(n, m)
        reqs.append(_cli(["nu", "--input", path], ("nu", n, edges), 1))
    for n, m in ((16, 40), (32, 96), (64, 192)):
        path, edges = graph_file(n, m)
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        reqs.append(_cli(["shift", "--input", path, "--i", str(i), "--j", str(j)],
                         ("shift", n, edges, i, j), 1, out_path=Path(path + ".shift")))
        path, edges = graph_file(n, m)
        reqs.append(_cli(["shift", "--input", path, "--full"],
                         ("shift_full", n, edges), 1, out_path=Path(path + ".full")))
    for nx, ny, m in ((8, 8, 20), (12, 12, 36), (16, 16, 48)):
        cross = [(x, nx + y) for x in range(1, nx + 1) for y in range(1, ny + 1)]
        edges = tuple(sorted(rng.sample(cross, m)))
        path = work / f"g{next(serial)}-cover-{nx}-{ny}.txt"
        _write_graph(path, nx + ny, edges)
        reqs.append(_cli(["cover", "--input", str(path), "--bipartite", f"{nx},{ny}"],
                         ("cover", nx, ny, edges), 1))

    def query(cmd: list[str], spec: tuple) -> None:
        n, k, s, t = spec[2:]
        argv = cmd + ["--n", str(n), "--k", str(k)]
        argv += [] if s is None else ["--s", str(s)]
        argv += [] if t is None else ["--t", str(t)]
        reqs.append(_cli(argv, spec, 0))

    k = rng.randint(1, 8)
    query(["extremal", "edges"], ("extremal", "edges", rng.randint(2 * k + 1, 60), k, None, None))
    k = rng.randint(1, 6)
    query(["extremal", "clique"],
          ("extremal", "clique", rng.randint(2 * k + 1, 60), k, rng.randint(2, 5), None))
    k = rng.randint(1, 5)
    query(["extremal", "star"], ("extremal", "star", rng.randint(2 * k + 1, 60), k,
                                 rng.randint(1, 3), rng.randint(2, 3)))
    k = rng.randint(1, 8)
    query(["extremal", "bip"], ("extremal", "bip", rng.randint(k, 40), k,
                                rng.randint(1, 3), rng.randint(1, 3)))
    k = rng.randint(1, 3)
    query(["scan", "--family", "H-clique"],
          ("cli_scan", "H-clique", rng.randint(2 * k + 1, 12), k, rng.randint(2, 4), None))
    k = rng.randint(1, 3)
    query(["scan", "--family", "H-star"], ("cli_scan", "H-star", rng.randint(2 * k + 1, 12), k,
                                           rng.randint(1, 2), rng.randint(1, 3)))
    k = rng.randint(1, 4)
    query(["scan", "--family", "bip-f"], ("cli_scan", "bip-f", rng.randint(k, 8), k,
                                          rng.randint(1, 3), rng.randint(1, 3)))

    for name, data in BAD_FILES.items():
        path = work / f"bad-{name}.txt"
        path.write_bytes(data)
        reqs.append(_cli(["count", "--input", str(path), "--pattern", "clique:2"],
                         ("bad_file", name), 1, expect_rc=2))
    rng.shuffle(reqs)
    return reqs


@contextmanager
def traced_cli(tr: Tracer):
    """Route the CLI's calls into the other modules through span wrappers for
    the duration of a traced run; the program's files are not changed."""
    names = {
        "parse_graph": tr.wrap("graph.parse_graph", cli.parse_graph, "graph.bytes_read"),
        "parse_bipartite": tr.wrap("graph.parse_bipartite", cli.parse_bipartite, "graph.bytes_read"),
        "serialize_graph": tr.wrap("graph.serialize_graph", cli.serialize_graph, "graph.bytes_written"),
    }
    for mod in (counting, extremal, matching, shifting):
        layer = mod.__name__.rsplit(".", 1)[1]
        proxy = type(mod)(mod.__name__)
        for attr, value in vars(mod).items():
            if (isinstance(value, FunctionType) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                value = tr.wrap(f"{layer}.{attr}", value)
            setattr(proxy, attr, value)
        names[layer] = proxy
    saved = {name: getattr(cli, name) for name in names}
    for name, value in names.items():
        setattr(cli, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)


WORKLOADS = {"oracle-dense": oracle_dense, "matching-laws": matching_laws, "cli-files": cli_files}


def build(workload: str, seed: int, work: Path) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work)
