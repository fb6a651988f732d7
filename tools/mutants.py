"""Mutation check for the oracle's comparisons, tie-breaks, grow rule,
least-completion rule, degree-closure rules, scan cap, König fill and
scoring and random draw, the matching number's blossom pass, the count
kernel's closed levels, the edge rules of the graph constructors and the
edge lists' repeat check.

Each mutant names one exact snippet of a source file, its replacement, and
the pytest selection that should fail once the snippet is replaced.  For
each mutant the script copies ``src``, ``tests`` and ``pyproject.toml`` to a
temporary directory, applies the replacement there (never in the checkout)
and runs the selection.  A mutant whose selection passes has survived: no
test tells it from the real code.  A selection still running after
``TIMEOUT`` seconds is stopped and reported as ``timeout``, which counts as
killed: a mutant that sends the code into an endless loop is told from the
real code by never finishing (``nu-kills-the-tree-shifted`` loops on most
graphs, so its selection starts with a hand-built graph it miscounts).

Usage, from any directory:

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

Exits 0 when every mutant is killed or timed out, 1 when one survives, its
snippet is not found exactly once in its file or its selection does not
run, 2 on an unknown name.  Standard library only.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = "src/turanmatch/oracle.py"
MATCHING = "src/turanmatch/matching.py"
COUNTING = "src/turanmatch/counting.py"
GRAPH = "src/turanmatch/graph.py"
TESTS = "tests/test_oracle.py"
MATCHING_TESTS = "tests/test_matching.py"
TIMEOUT = 60  # seconds per selection

# (name, file, snippet, replacement, pytest selection)
MUTANTS = [
    ("grown-child-searches-every-vertex", ORACLE,
     "side = grow if kept else full ^ grow",
     "side = full if kept else full ^ grow",
     [f"{TESTS}::test_grow_table_probes_one_side_of_grow_per_cut"]),
    ("kept-child-drops-v", ORACLE,
     "else grow | 1 << v | reach & ~grow",
     "else grow | reach & ~grow",
     [f"{TESTS}::test_handed_grow_is_each_childs_grow_afresh",
      f"{TESTS}::test_last_parents_yield_each_free_parent_once_with_its_grow_and_mask"]),
    ("own-entry-reaches-the-parents-allowed-set", ORACLE,
     "_completion(adj, n, ((2 << v) - 1) & ~cgrow, s, t, memo)",
     "_completion(adj, n, allowed, s, t, memo)",
     [f"{TESTS}::test_pruned_seven_vertex_scans_match_reference",
      f"{TESTS}::test_max_over_free_matches_leaf_recount_reference"]),
    ("table-check-drops-ties", ORACLE,
     "cmask = mask | canon[v][back]\n"
     "            if ctop < best_value or",
     "cmask = mask | canon[v][back]\n"
     "            if ctop <= best_value or",
     [f"{TESTS}::test_max_over_free_matches_leaf_recount_reference"]),
    ("own-bound-drops-ties", ORACLE,
     "ctop = min(ctop, entry + _path_gain(rows, back, s, t, rows[v]))\n"
     "                if ctop < best_value or",
     "ctop = min(ctop, entry + _path_gain(rows, back, s, t, rows[v]))\n"
     "                if ctop <= best_value or",
     [f"{TESTS}::test_max_over_free_matches_leaf_recount_reference",
      f"{TESTS}::test_pruned_seven_vertex_scans_match_reference"]),
    ("own-bound-skips-the-last-parents", ORACLE,
     "if cnu == k:  # the child's own widest completion bounds it",
     "if cnu == k and v < n - 2:  # the child's own widest completion bounds it",
     [f"{TESTS}::test_max_over_free_matches_leaf_recount_reference",
      f"{TESTS}::test_pruned_seven_vertex_scans_match_reference",
      f"{TESTS}::test_least_completion_reports_the_count_of_the_rows_it_reads"]),
    ("missable-probes-one-size-short", MATCHING,
     "if _exists_matching(adj, free ^ b, r):",
     "if _exists_matching(adj, free ^ b, r - 1):",
     [f"{MATCHING_TESTS}::test_missable_vertices_keep_the_matching_number_when_removed"]),
    ("last-vertex-prune-drops-ties", ORACLE,
     "if top < best_value or (top == best_value and mask >= best_mask):",
     "if top <= best_value or (top == best_value and mask >= best_mask):",
     [f"{TESTS}::test_max_over_free_matches_leaf_recount_reference"]),
    ("least-completion-clears-used-edges", ORACLE,
     "if _clique_gain(rows, rows[low.bit_length() - 1] ^ 1 << v, rows[v] ^ low, s, t):",
     "if _clique_gain(rows, rows[low.bit_length() - 1] ^ 1 << v, rows[v] ^ low, s + 1, t):",
     [f"{TESTS}::test_least_free_edges_lie_inside_every_subgraph_keeping_the_count",
      f"{TESTS}::test_max_over_free_matches_leaf_recount_reference"]),
    ("least-completion-drops-the-twin-orbit", ORACLE,
     "twins = ((1 << n) - 1) ^ ((1 << v) - 1)",
     "pass",
     [f"{TESTS}::test_least_free_edges_lie_inside_every_subgraph_keeping_the_count",
      f"{TESTS}::test_max_over_free_matches_leaf_recount_reference"]),
    ("least-completion-misreads-the-twin-edge", ORACLE,
     "_clique_gain(rows, rows[v] ^ 2 << v, rows[v + 1] ^ 1 << v, s, t)",
     "_clique_gain(rows, rows[v] ^ 2 << v, rows[v + 1] ^ 1 << v, s + 1, t)",
     [f"{TESTS}::test_least_free_edges_lie_inside_every_subgraph_keeping_the_count",
      f"{TESTS}::test_max_over_free_matches_leaf_recount_reference"]),
    ("least-completion-frees-from-past-v", ORACLE,
     "for z in range(v, n):\n        kept |=",
     "for z in range(v + 1, n):\n        kept |=",
     [f"{TESTS}::test_least_free_edges_lie_inside_every_subgraph_keeping_the_count",
      f"{TESTS}::test_max_over_free_matches_leaf_recount_reference"]),
    ("clique-level-one-miscounts", COUNTING,
     "return cand.bit_count()",
     "return cand.bit_count() + 1",
     ["tests/test_counting.py::test_clique_sum_reads_common_apart_from_cand"]),
    ("clique-level-two-reads-common", COUNTING,
     "total += (cand & adj[b.bit_length() - 1]).bit_count()",
     "total += (cand & common & adj[b.bit_length() - 1]).bit_count()",
     ["tests/test_counting.py::test_clique_sum_reads_common_apart_from_cand"]),
    ("closure-skips-pairs-two-short", ORACLE,
     "if gap > 2 or adj[u] >> w & 1:",
     "if gap > 1 or adj[u] >> w & 1:",
     [f"{TESTS}::test_closure_tests_keep_a_pair_two_degrees_short",
      f"{TESTS}::test_closure_tests_are_the_degree_tests_of_each_back_row"]),
    ("closure-pair-with-v-ignores-grow", ORACLE,
     "return miss if grow >> u & 1 else 0",
     "return miss",
     [f"{TESTS}::test_closure_hits_are_each_childs_search"]),
    ("closure-drops-the-grown-children", ORACLE,
     "return miss | meet & meets[_missable(adj, rest, nu, rest & grow)]",
     "return miss",
     [f"{TESTS}::test_closure_hits_are_each_childs_search"]),
    ("closure-second-probe-keeps-nu", ORACLE,
     "_missable(adj, rest, nu - 1, rest & ~grow)",
     "_missable(adj, rest, nu, rest & ~grow)",
     [f"{TESTS}::test_closure_hits_are_each_childs_search"]),
    ("scan-keeps-the-shared-cap", ORACLE,
     "if n > MAX_SCAN_VERTICES:",
     "if n > MAX_ORACLE_VERTICES:",
     [f"{TESTS}::test_eight_vertex_scans_agree_with_the_closed_forms"]),
    ("handed-grow-keeps-empty-cuts", ORACLE,
     "if back & missed:",
     "if back & missed or not missed:",
     [f"{TESTS}::test_handed_grow_is_each_childs_grow_afresh"]),
    ("cut-outside-grow-probes-nu", ORACLE,
     "nu if kept else nu - 1",
     "nu",
     [f"{TESTS}::test_handed_grow_is_each_childs_grow_afresh"]),
    ("koenig-reach-seeds-no-exposed-vertex", ORACLE,
     "reach, last = sum(1 << y for y, mate in enumerate(match_y) if mate < 0), -1",
     "reach, last = 0, -1",
     [f"{TESTS}::test_verify_koenig_gstar_matches_full_mask_reference"]),
    ("koenig-reach-stops-after-one-pass", ORACLE,
     "while reach != last:",
     "if reach != last:",
     [f"{TESTS}::test_verify_koenig_gstar_matches_full_mask_reference"]),
    ("koenig-augments-at-k", ORACLE,
     "grows = size < k",
     "grows = size <= k",
     [f"{TESTS}::test_koenig_check_carries_its_matching_down_the_rows",
      f"{TESTS}::test_verify_koenig_gstar_prunes_row_prefixes"]),
    ("koenig-formula-reads-the-y-side", ORACLE,
     "x = xs.bit_count()",
     "x = ys.bit_count()",
     [f"{TESTS}::test_verify_koenig_gstar_small",
      f"{TESTS}::test_verify_koenig_gstar_4x4"]),
    ("nu-kills-a-successful-tree", MATCHING,
     "            if mate[root] >= 0:\n"
     "                break\n"
     "        else:\n"
     "            alive &= ~tree",
     "            if mate[root] >= 0:\n"
     "                break\n"
     "        alive &= ~tree",
     [f"{MATCHING_TESTS}::test_nu_path_through_a_successful_tree",
      f"{MATCHING_TESTS}::test_nu_matches_reference_on_every_small_graph"]),
    ("nu-probe-keeps-the-root-an-end", MATCHING,
     "ends ^= 1 << root",
     "ends |= 1 << root",
     [f"{MATCHING_TESTS}::test_nu_matches_reference_on_every_small_graph"]),
    ("nu-kills-the-trees-neighbours", MATCHING,
     "alive &= ~tree  # a Hungarian tree",
     "for u in range(n):\n"
     "                if tree >> u & 1:\n"
     "                    alive &= ~adj[u]\n"
     "            alive &= ~tree  # a Hungarian tree",
     [f"{MATCHING_TESTS}::test_nu_path_beside_a_failed_tree",
      f"{MATCHING_TESTS}::test_nu_matches_reference_on_every_small_graph"]),
    ("nu-kills-the-tree-shifted", MATCHING,
     "alive &= ~tree  # a Hungarian tree",
     "alive &= ~(tree << 1)  # a Hungarian tree",
     [f"{MATCHING_TESTS}::test_nu_path_beside_a_failed_tree",
      f"{MATCHING_TESTS}::test_nu_matches_reference_on_every_small_graph"]),
    ("nu-pass-stops-at-two-ends", MATCHING,
     "while (ends := free & alive) & ends - 1:",
     "while (ends := free & alive).bit_count() > 2:",
     [f"{MATCHING_TESTS}::test_nu_matches_reference_on_every_small_graph"]),
    ("random-draw-in-column-order", ORACLE,
     "                for u in range(n):\n"
     "                    for v in range(u + 1, n):",
     "                for v in range(n):\n"
     "                    for u in range(v):",
     [f"{TESTS}::test_verify_shift_lemmas_random_draw_is_pinned"]),
    ("random-draw-fixes-j", ORACLE,
     "j = rng.randrange(i + 1, n)",
     "j = n - 1",
     [f"{TESTS}::test_verify_shift_lemmas_random_draw_is_pinned"]),
    ("extremal-clique-drops-its-last-vertex", GRAPH,
     "b <= ell or a <= c",
     "b < ell or a <= c",
     ["tests/test_graph.py::test_extremal_graph_edge_count_grid"]),
    ("join-misses-a-cross-pair", GRAPH,
     "range(off + 1, n + 1)",
     "range(off + 2, n + 1)",
     ["tests/test_graph.py::test_join_small_cases",
      "tests/test_graph.py::test_join_offsets_second_graph_labels"]),
    ("edge-list-merges-a-reversed-repeat", GRAPH,
     "if rows[u - 1] >> (v - 1) & 1:  # (v, u) after (u, v) is a repeat too",
     "if u < v and rows[u - 1] >> (v - 1) & 1:",
     ["tests/test_graph.py::test_from_edges_rejects_a_repeated_edge"]),
]


def run(path: str, snippet: str, replacement: str, selection: list[str]) -> str:
    """'killed' (a selected test failed), 'timeout' (the selection ran past
    ``TIMEOUT``), 'survived' (all passed), 'missing' (the snippet is not in
    ``path`` exactly once) or 'error' (pytest could not run the selection,
    say a test name that no longer exists)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / path
        text = target.read_text()
        if text.count(snippet) != 1:
            return "missing"
        target.write_text(text.replace(snippet, replacement))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection],
                cwd=work, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
        return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(names: list[str]) -> int:
    known = {m[0] for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants {unknown}, expected some of {sorted(known)}", file=sys.stderr)
        return 2
    bad = 0
    for name, path, snippet, replacement, selection in MUTANTS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        outcome = run(path, snippet, replacement, selection)
        print(f"{outcome:8} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
        bad += outcome not in ("killed", "timeout")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
