"""Command-line entry point.

Subcommands: shift, nu, cover, count, extremal, scan, verify.  Output is a
single decimal, an edge-list graph, or CSV (comma delimiter, LF endings,
header row).  Exit codes: 0 success or verification pass, 1 verification
failure or a check that examined no case, 2 usage, I/O, or parse error
(one-line diagnostic on stderr).

All randomness flows from --seed (default 0) through Python's Mersenne
Twister (random.Random), so runs replay exactly across machines.  A command
rejects with exit 2 a flag it would ignore.
"""

from __future__ import annotations

import argparse
import sys

from . import counting, extremal, matching, oracle, shifting
from .errors import ParameterRangeError, ParseError
from .graph import (
    BipartiteGraph,
    _is_decimal,
    parse_bipartite,
    parse_graph,
    serialize_graph,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostics, exit 2
        self.exit(2, f"error: {message}\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii", newline="") as fh:  # keep CR, so CRLF is rejected
        return fh.read()


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _decimals(text: str, count: int, usage: str) -> list[int]:
    """The ``count`` comma-separated numbers of ``text``, each written as the
    file format writes one (no sign, no leading zero); else ValueError(usage)."""
    parts = text.split(",")
    if len(parts) != count or not all(_is_decimal(p) for p in parts):
        raise ValueError(usage)
    return [int(p) for p in parts]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_shift(args) -> int:
    g = parse_graph(_read(args.input))
    if args.full:
        if args.i is not None or args.j is not None:
            return _fail("--full excludes --i/--j")
        result = shifting.compress(g)
    else:
        if args.i is None or args.j is None:
            return _fail("need --i and --j, or --full")
        result = shifting.shift_graph(g, args.i, args.j)
    sys.stdout.write(serialize_graph(result))
    return 0


def _cmd_nu(args) -> int:
    g = parse_graph(_read(args.input))
    print(matching.matching_number(g))
    return 0


def _cmd_cover(args) -> int:
    nx, ny = _decimals(args.bipartite, 2, "--bipartite expects nx,ny")
    g = parse_graph(_read(args.input))
    if g.n != nx + ny:
        return _fail(f"file has {g.n} vertices, parts declare {nx}+{ny}")
    rows = [0] * nx
    for e in g.edges():
        if e.u <= nx < e.v:
            rows[e.u - 1] |= 1 << (e.v - nx - 1)
        else:
            return _fail(f"edge ({e.u}, {e.v}) is not across the declared parts")
    xs, ys = matching.koenig_cover(BipartiteGraph(nx, ny, rows))
    out = ["vertex"]
    out.extend(str(x) for x in xs)
    out.extend(f"Y:{y}" for y in ys)
    sys.stdout.write("\n".join(out) + "\n")
    return 0


# kind -> (number of parameters, file reader, counter)
_COUNT = {
    "clique": (1, parse_graph, counting.count_cliques),
    "star": (2, parse_graph, counting.count_star),
    "bip": (2, parse_bipartite, counting.count_bip),
}


def _cmd_count(args) -> int:
    kind, _, rest = args.pattern.partition(":")
    arity, reader, counter = _COUNT.get(kind, (0, None, None))
    params = _decimals(rest, arity, "--pattern expects clique:S, star:S,T or bip:S,T")
    print(counter(reader(_read(args.input)), *params))
    return 0


def _flag_error(command: str, used: tuple[str, ...], args, flags=("s", "t")) -> str | None:
    """Diagnostic for the ``flags`` that ``command`` uses but were not given,
    or were given but ``command`` would ignore."""
    given = [f for f in flags if getattr(args, f) is not None]
    missing = [f"--{f}" for f in used if f not in given]
    if missing:
        return f"{command} requires " + " ".join(missing)
    unused = [f"--{f}" for f in given if f not in used]
    return f"{command} does not take " + " ".join(unused) if unused else None


# family -> (flags it uses, closed form)
_EXTREMAL = {
    "clique": (("s",), lambda a: extremal.ex_clique(a.n, a.k, a.s)),
    "star": (("s", "t"), lambda a: extremal.ex_star(a.n, a.k, a.s, a.t)),
    "bip": (("s", "t"), lambda a: extremal.ex_bip(a.n, a.k, a.s, a.t)),
    "edges": ((), lambda a: extremal.ex_edges(a.n, a.k)),
}


def _cmd_extremal(args) -> int:
    used, formula = _EXTREMAL[args.family]
    error = _flag_error(f"extremal {args.family}", used, args)
    if error:
        return _fail(error)
    print(formula(args))
    return 0


# family -> (flags it uses, swept parameter range, construction count)
_SCAN = {
    "H-clique": (("s",), lambda a: range(a.k + 1, 2 * a.k + 2),
                 lambda a, ell: extremal.extremal_clique_count(a.n, a.k, ell, a.s)),
    "H-star": (("s", "t"), lambda a: range(a.k + 1, 2 * a.k + 2),
               lambda a, ell: extremal.extremal_star_count(a.n, a.k, ell, a.s, a.t)),
    "bip-f": (("s", "t"), lambda a: range(a.k + 1),
              lambda a, x: extremal.bip_split_count(a.n, a.k, x, a.s, a.t)),
}


def _cmd_scan(args) -> int:
    used, params, count = _SCAN[args.family]
    error = _flag_error(f"scan --family {args.family}", used, args)
    if error:
        return _fail(error)
    if args.k < 0:
        return _fail(f"scan needs --k >= 0, got {args.k}")
    rows = ["param,value"] + [f"{p},{count(args, p)}" for p in params(args)]
    sys.stdout.write("\n".join(rows) + "\n")
    return 0


def _shift_laws(include: tuple[str, ...]):
    return lambda a: oracle.verify_shift_lemmas(
        a.n, samples=a.samples, edge_prob=0.5 if a.prob is None else a.prob,
        seed=0 if a.seed is None else a.seed, include=include)


def _agreement(name: str, formula, scan):
    """Runner comparing a closed form with the oracle's maximum.  The formula
    goes first, so a parameter outside its range fails before the scan."""
    def run(a):
        expected = formula(a)
        witness = scan(a)
        if witness.value == expected:
            return [oracle.Check(name, 1, ())]
        detail = f"oracle={witness.value} formula={expected} witness={_witness_text(witness.graph)}"
        return [oracle.Check(name, 1, (detail,))]
    return run


def _degree_closure(a):
    # d(u) + d(v) >= 2k+1 needs a non-edge uv of degree sum >= 3, and on 4
    # vertices any such pair already spans a matching of size 2
    if a.n <= 4:
        raise ParameterRangeError(
            f"verify lemma31 needs --n >= 5, got {a.n}: on fewer vertices "
            f"no non-edge meets d(u)+d(v) >= 2k+1, so nothing would be checked")
    return oracle.verify_bondy_chvatal(a.n)


# check -> (required flags, the one optional flag it honours, runner)
_VERIFY = {
    "lemma21": (("n",), "samples", _shift_laws(("edges", "matching"))),
    "lemma22": (("n",), "samples", _shift_laws(("edges", "cliques", "stars"))),
    "lemma31": (("n",), None, _degree_closure),
    "lemma32": (("n", "k"), None, lambda a: oracle.verify_shifted_structure(a.n, a.k)),
    "koenig": (("n", "k"), None, lambda a: oracle.verify_koenig_gstar(a.n, a.n, a.k)),
    "thm11": (("n", "k"), None, _agreement(
        "max-edges-vs-formula", lambda a: extremal.ex_edges(a.n, a.k),
        lambda a: oracle.max_over_free(a.n, a.k, 2))),
    "thm12": (("n", "k", "s"), None, _agreement(
        "max-cliques-vs-formula", lambda a: extremal.ex_clique(a.n, a.k, a.s),
        lambda a: oracle.max_over_free(a.n, a.k, a.s))),
    "thm13": (("n", "k", "s", "t"), None, _agreement(
        "max-stars-vs-formula", lambda a: extremal.ex_star(a.n, a.k, a.s, a.t),
        lambda a: oracle.max_over_free(a.n, a.k, a.s, a.t))),
    "thm14": (("n", "k", "s", "t"), None, _agreement(
        "max-bicliques-vs-formula", lambda a: extremal.ex_bip(a.n, a.k, a.s, a.t),
        lambda a: oracle.max_over_free_bip(a.n, a.n, a.k, a.s, a.t))),
}


def _cmd_verify(args) -> int:
    required, optional, runner = _VERIFY[args.check]
    error = _flag_error(f"verify {args.check}", required, args, ("n", "k", "s", "t"))
    if error:
        return _fail(error)
    if args.samples is not None and optional != "samples":
        return _fail(f"verify {args.check} does not take --samples")
    if args.samples is None and (args.prob is not None or args.seed is not None):
        return _fail("--prob and --seed need --samples")
    checks = runner(args)

    if args.csv:
        lines = ["check,cases,violations,seed,status"]
        for ch in checks:
            seed = "" if ch.seed is None else str(ch.seed)
            lines.append(f"{ch.name},{ch.cases},{len(ch.violations)},{seed},{ch.status}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        for ch in checks:
            seed = "" if ch.seed is None else f" seed={ch.seed}"
            print(f"{ch.status.upper()} {ch.name} cases={ch.cases} violations={len(ch.violations)}{seed}")
            for v in ch.violations:
                print(f"  {v}")
    return 0 if all(ch.status == "pass" for ch in checks) else 1


def _witness_text(graph) -> str:
    if isinstance(graph, BipartiteGraph):
        return f"X={graph.nx},Y={graph.ny},E={graph.edges()}"
    return f"n={graph.n},E={[tuple(e) for e in graph.edges()]}"


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="turanmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("shift", help="apply one shift or compress to a fixpoint")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--i", type=int, help="shift target (smaller label)")
    p.add_argument("--j", type=int, help="shift source (larger label)")
    p.add_argument("--full", action="store_true", help="compress to a shifted fixpoint")
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("nu", help="exact matching number")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("cover", help="minimum vertex cover of a bipartite graph")
    p.add_argument("--input", required=True, help="edge-list file with X then Y labels")
    p.add_argument("--bipartite", required=True, metavar="NX,NY",
                   help="part sizes; X = 1..nx, Y = nx+1..nx+ny")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("count", help="exact pattern count")
    p.add_argument("--input", required=True)
    p.add_argument("--pattern", required=True, help="clique:S | star:S,T | bip:S,T")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("extremal", help="closed-form extremal value")
    p.add_argument("family", choices=list(_EXTREMAL))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("scan", help="CSV sweep of a construction-count family")
    p.add_argument("--family", choices=list(_SCAN), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="brute-force verification of a structural law")
    p.add_argument("check", choices=list(_VERIFY))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--seed", type=int, help="random-mode seed (default 0)")
    p.add_argument("--samples", type=int, help="random instances instead of exhaustion")
    p.add_argument("--prob", type=float, help="edge probability for random mode (default 0.5)")
    p.add_argument("--csv", action="store_true", help="machine-readable one-line-per-check output")
    p.set_defaults(func=_cmd_verify)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(f"parse: {exc}")
    except OSError as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
