import sys
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import (
    all_graphs,
    bip_from_mask,
    graph_from_mask,
    graphs,
    ref_random_instances,
    ref_scan_bip_max,
    ref_grow,
    ref_scan_free_max,
    ref_verify_bondy_chvatal,
    ref_verify_koenig_gstar,
    toggle_shift,
)
from turanmatch import (
    CapacityError,
    Graph,
    ParameterRangeError,
    bip_split_count,
    complete_graph,
    count_bip,
    count_cliques,
    count_star,
    ex_bip,
    ex_clique,
    ex_star,
    extremal_graph,
    iter_free_graphs,
    matching_number,
    max_over_free,
    max_over_free_bip,
    oracle,
    verify_bondy_chvatal,
    verify_koenig_gstar,
    verify_shift_lemmas,
    verify_shifted_structure,
)
from turanmatch.counting import _bip_sum, _clique_gain, _clique_sum, _clique_top_sum
from turanmatch.matching import _cover_masks, _exists_matching, _nu
from turanmatch.oracle import _edge_text


def test_iter_free_graphs_matches_filtered_enumeration():
    for n in (3, 4, 5):
        for k in (0, 1, 2):
            direct = set(iter_free_graphs(n, k))
            filtered = {g for g in all_graphs(n) if matching_number(g) <= k}
            assert direct == filtered


def test_max_over_free_spot_values():
    w = max_over_free(5, 2, 2)
    assert w.value == 10 and w.graph == complete_graph(5)
    assert max_over_free(5, 1, 2).value == 4
    assert max_over_free(7, 1, 2).value == 6
    assert max_over_free(5, 2, 1, 2).value == 30


def test_witnesses_are_valid():
    for n, k, s, t in ((5, 1, 2, None), (5, 2, 3, None), (5, 1, 1, 2)):
        w = max_over_free(n, k, s, t)
        assert matching_number(w.graph) <= k
        assert Graph(n, w.graph.adj) == w.graph  # the unchecked witness rows pass the checks
        recount = count_cliques(w.graph, s) if t is None else count_star(w.graph, s, t)
        assert recount == w.value


def test_max_over_free_on_no_vertices():
    for k, s, t in ((0, 1, None), (2, 2, None), (0, 1, 3)):
        w = max_over_free(0, k, s, t)
        assert (w.value, w.graph, w.params.t) == (0, Graph(0), t)


def test_max_over_free_capacity_and_arguments():
    with pytest.raises(CapacityError):
        max_over_free(9, 1, 2)
    with pytest.raises(ValueError):
        max_over_free(5, 1, 0)
    with pytest.raises(ValueError):
        max_over_free(5, -1, 2)


def test_max_over_free_bip_spot_values():
    assert max_over_free_bip(3, 3, 3, 1, 1).value == 9
    assert max_over_free_bip(3, 3, 1, 1, 1).value == ex_bip(3, 1, 1, 1) == 3
    w = max_over_free_bip(4, 4, 2, 1, 1)
    assert w.value == 8
    assert len(w.graph.edges()) == 8 and count_bip(w.graph, 1, 1) == 8


def test_max_over_free_bip_capacity_and_jobs():
    with pytest.raises(CapacityError):
        max_over_free_bip(5, 5, 2, 1, 1)


def test_scans_and_law_checks_reject_their_bad_arguments():
    for args in ((-1, 2, 1, 1, 1), (2, -1, 1, 1, 1), (2, 2, -1, 1, 1),
                 (2, 2, 1, 0, 1), (2, 2, 1, 1, 0)):
        with pytest.raises(ValueError, match="bad arguments"):
            max_over_free_bip(*args)
    with pytest.raises(ValueError, match="need n >= 0"):
        verify_shift_lemmas(-1)
    with pytest.raises(ValueError, match="need k >= 0"):
        verify_shifted_structure(5, -1)
    with pytest.raises(CapacityError):
        verify_bondy_chvatal(oracle.MAX_ORACLE_VERTICES + 1)
    with pytest.raises(ValueError, match="need n >= 0"):
        verify_bondy_chvatal(-1)
    with pytest.raises(CapacityError):
        verify_koenig_gstar(3, 7, 1)
    for args in ((-1, 2, 1), (2, -1, 1), (2, 2, -1)):
        with pytest.raises(ValueError, match="need nx, ny, k >= 0"):
            verify_koenig_gstar(*args)


def test_verify_shift_lemmas_exhaustive():
    assert [ch.status for ch in verify_shift_lemmas(4)] == ["pass"] * 4
    assert [ch.status for ch in verify_shift_lemmas(1)] == ["empty"] * 4  # no pair to shift
    names = [ch.name for ch in verify_shift_lemmas(3)]
    assert names == ["edge-conservation", "matching-monotone", "clique-monotone", "star-monotone"]


def test_verify_shift_lemmas_random_embeds_seed():
    checks = verify_shift_lemmas(8, samples=200, seed=123)
    assert all(ch.status == "pass" for ch in checks)
    assert all(ch.seed == 123 for ch in checks)
    assert all(ch.cases == 200 for ch in checks)


def test_verify_shift_lemmas_violation_text(monkeypatch):
    monkeypatch.setattr("turanmatch.oracle._shift_adj", toggle_shift)
    checks = verify_shift_lemmas(4, max_s=2, max_t=1)
    assert [(ch.name, ch.cases, len(ch.violations)) for ch in checks] == [
        ("edge-conservation", 384, 384),
        ("matching-monotone", 384, 60),
        ("clique-monotone", 384, 192),
        ("star-monotone", 384, 276),
    ]
    full = "G={(1,2) (1,3) (1,4) (2,3) (2,4) (3,4)} i=3 j=4"
    assert [(ch.violations[0], ch.violations[-1]) for ch in checks] == [
        ("G={} i=1 j=2: edges 0 -> 1", f"{full}: edges 6 -> 5"),
        ("G={} i=1 j=2: matching 0 -> 1", "G={(2,3) (2,4) (3,4)} i=1 j=4: matching 1 -> 2"),
        ("G={(1,2)} i=1 j=2: 2-cliques 1 -> 0", f"{full}: 2-cliques 6 -> 5"),
        ("G={(1,2)} i=1 j=2: star(1,1) 2 -> 0", f"{full}: star(2,1) 12 -> 6"),
    ]


def test_verify_shift_lemmas_random_draw_is_pinned(monkeypatch):
    # random mode names the instances of the slot-by-slot mask draw, so a seed
    # keeps its graphs; the broken shift makes every instance report
    monkeypatch.setattr("turanmatch.oracle._shift_adj", toggle_shift)
    grown = 0
    for n in (8, 14, 64):
        for seed in (1, 29):
            for prob in (0.1, 0.5):
                edges, matching = [], []
                for rows, i, j in ref_random_instances(n, 25, seed, prob):
                    image = toggle_shift(rows, i, j)
                    where = f"G={_edge_text(rows)} i={i + 1} j={j + 1}"
                    m0, m1 = (sum(r.bit_count() for r in a) // 2 for a in (rows, image))
                    edges.append(f"{where}: edges {m0} -> {m1}")
                    nu0, nu1 = _nu(rows), _nu(image)
                    if nu1 > nu0:
                        matching.append(f"{where}: matching {nu0} -> {nu1}")
                checks = verify_shift_lemmas(n, samples=25, edge_prob=prob, seed=seed,
                                             include=("edges", "matching"))
                assert [list(ch.violations) for ch in checks] == [edges, matching], (n, seed, prob)
                grown += len(matching)
    assert grown  # the matching law is reached, not only the edge count


def test_verify_shift_lemmas_validation():
    with pytest.MonkeyPatch.context() as mp:  # caps hold before the edge slots are listed
        mp.setattr("turanmatch.oracle._EDGE_SLOTS", None)
        with pytest.raises(CapacityError):
            verify_shift_lemmas(7)
        with pytest.raises(CapacityError):  # random mode is capped where Graph is
            verify_shift_lemmas(65, samples=1)
    with pytest.raises(ValueError):
        verify_shift_lemmas(1, samples=10)
    with pytest.raises(ValueError):
        verify_shift_lemmas(5, samples=10, edge_prob=1.5)
    for samples in (0, -5):
        with pytest.raises(ValueError):
            verify_shift_lemmas(8, samples=samples)
    with pytest.MonkeyPatch.context() as mp:  # an unknown law fails before any graph is built
        mp.setattr("turanmatch.oracle._rows_from_mask", None)
        with pytest.raises(ValueError, match="edge"):
            verify_shift_lemmas(4, include=("edge",))


def test_verify_shifted_structure_small():
    for n, k in ((5, 1), (5, 2), (6, 1)):
        (check,) = verify_shifted_structure(n, k)
        assert check.status == "pass"
        assert check.cases > 0


def test_verify_shifted_structure_walks_every_shifted_graph_at_nu_k():
    # the shifted graphs with matching number k on 1..n, n >= 2k+1, are
    # C(n, k) in number, whatever hosts they are checked against
    for n in range(8):
        for k in range((n - 1) // 2 + 1):
            (check,) = verify_shifted_structure(n, k)
            assert check.cases == comb(n, k), (n, k)


def _without_the_widest_host(n, k, ell):  # K_2k ∪ E in place of K_(2k+1) ∪ E
    return extremal_graph(n, k, min(ell, 2 * k))


def test_verify_shifted_structure_violation_text(monkeypatch):
    # with its widest host narrowed, the triangle fits none at k = 1
    monkeypatch.setattr("turanmatch.oracle.extremal_graph", _without_the_widest_host)
    (check,) = verify_shifted_structure(5, 1)
    assert (check.cases, check.violations) == (5, ("G={(1,2) (1,3) (2,3)} fits no host, k=1",))
    (check,) = verify_shifted_structure(7, 3)
    assert (check.cases, len(check.violations)) == (35, 10)
    assert check.violations[0] == (
        "G={(1,2) (1,3) (1,4) (1,5) (1,6) (1,7) (2,3) (2,4) (2,5) (2,6) (2,7) (3,4) (3,5) (3,6) (4,5)} "
        "fits no host, k=3"
    )


def test_verify_shifted_structure_rejects_unverified_regime():
    with pytest.raises(ParameterRangeError):
        verify_shifted_structure(4, 2)
    with pytest.raises(CapacityError):
        verify_shifted_structure(8, 2)


def test_verify_bondy_chvatal_small():
    for n in range(7):
        (check,) = verify_bondy_chvatal(n)
        assert check.status == ("pass" if n > 1 else "empty"), n  # n < 2 has no non-edge
        m = n * (n - 1) // 2
        assert check.cases == m * 2**m // 2  # every non-edge of every graph


def _every_back_row(adj, nu, grow, u, w, tables):
    """A ``_closure_hits`` fake: every child's matching number grows."""
    return tables[0]


def test_verify_bondy_chvatal_violation_text(monkeypatch):
    # no graph on 4 vertices has a non-edge meeting the degree condition, so
    # the smallest order where the text can appear is 5
    monkeypatch.setattr("turanmatch.oracle._closure_hits", _every_back_row)
    (check,) = verify_bondy_chvatal(5)
    assert (check.cases, len(check.violations)) == (5120, 580)
    assert check.violations[0] == (
        "G={(1,2) (1,3) (1,4)} uv=(1,5) k=1: "
        "degrees reach 2k+1 yet adding uv raises the matching number"
    )


def test_degree_condition_is_first_met_at_five_vertices(monkeypatch):
    # with every added edge counted as raising the matching number, each
    # non-edge meeting d(u)+d(v) >= 2k+1 is reported
    monkeypatch.setattr("turanmatch.oracle._closure_hits", _every_back_row)
    for n in range(5):
        assert verify_bondy_chvatal(n)[0].violations == (), n
    assert len(verify_bondy_chvatal(5)[0].violations) == 580


def _inject(monkeypatch, name, fake):
    """Replace ``name`` in the oracle and in the reference checks alike."""
    for module in ("turanmatch.oracle", "helpers"):
        monkeypatch.setattr(f"{module}.{name}", fake)


def test_verify_bondy_chvatal_matches_reference(monkeypatch):
    for n in range(7):
        assert verify_bondy_chvatal(n) == ref_verify_bondy_chvatal(n), n
    monkeypatch.setattr("turanmatch.oracle._closure_hits", _every_back_row)
    monkeypatch.setattr("helpers._exists_matching", lambda *a: True)
    for n in range(7):
        assert verify_bondy_chvatal(n) == ref_verify_bondy_chvatal(n), n


def test_clique_agreement_full_grid_small_hosts():
    for n in range(1, 7):
        for k in range((n - 1) // 2 + 1):
            for s in (2, 3, 4):
                assert max_over_free(n, k, s).value == ex_clique(n, k, s), (n, k, s)


def test_clique_agreement_seven_vertices():
    for k in range(4):
        for s in (2, 3, 4):  # k=3: no matching pruning, the completion bound only
            assert max_over_free(7, k, s).value == ex_clique(7, k, s), (k, s)


def test_eight_vertex_scans_agree_with_the_closed_forms():
    # the scan cap: each maximum is its closed form, and its witness
    # recounts to it with matching number at most k (about 2 s; (8, 3, 2)
    # takes half of it)
    for k in (1, 2, 3):
        for s, t in ((2, None), (3, None), (4, None), (1, 2), (2, 2), (1, 3), (2, 3)):
            w = max_over_free(8, k, s, t)
            if t is None:
                expected, recount = ex_clique(8, k, s), count_cliques(w.graph, s)
            else:
                expected, recount = ex_star(8, k, s, t), count_star(w.graph, s, t)
            assert w.value == expected == recount, (k, s, t)
            assert w.graph.n == 8 and matching_number(w.graph) <= k, (k, s, t)


def test_star_agreement_grid():
    for n in (5, 6):
        for k in (1, 2):
            if n < 2 * k + 1:
                continue
            for s, t in ((1, 2), (2, 2)):
                assert max_over_free(n, k, s, t).value == ex_star(n, k, s, t), (n, k, s, t)


def test_bip_agreement_grid_tiny_hosts():
    for n in (1, 2):
        for k in range(n + 1):
            for s, t in ((1, 1), (1, 2), (2, 2)):
                assert max_over_free_bip(n, n, k, s, t).value == ex_bip(n, k, s, t), (n, k, s, t)
    for n in (3, 4):
        for s, t in ((1, 1), (1, 2), (2, 2)):
            assert max_over_free_bip(n, n, 0, s, t).value == ex_bip(n, 0, s, t) == 0


def test_verify_koenig_gstar_4x4():
    checks = verify_koenig_gstar(4, 4, 2, pairs=((1, 2),))
    assert all(ch.status == "pass" for ch in checks)


def test_verify_koenig_gstar_small():
    for checks in (verify_koenig_gstar(3, 3, 1), verify_koenig_gstar(2, 3, 2),
                   verify_koenig_gstar(3, 2, 2)):
        assert all(ch.status == "pass" for ch in checks)
        assert [ch.name for ch in checks] == [
            "koenig-duality",
            "gstar-contains",
            "gstar-monotone",
            "gstar-formula",
        ]
        assert checks[0].cases > 0


def test_verify_koenig_gstar_violation_text(monkeypatch):
    monkeypatch.setattr("turanmatch.oracle.bip_split_count", lambda *a: bip_split_count(*a) + 1)
    checks = verify_koenig_gstar(3, 3, 2)
    assert [(ch.name, ch.cases, len(ch.violations)) for ch in checks] == [
        ("koenig-duality", 231, 0),
        ("gstar-contains", 231, 0),
        ("gstar-monotone", 231, 0),
        ("gstar-formula", 231, 462),
    ]
    assert checks[3].violations[0] == (
        "G(X=3,Y=3)=[(1, 2), (2, 1)] (s,t)=(1,1): host count 6 != formula 7"
    )


def _padded_cover(rows, nx, match_y):  # a valid cover plus Y-vertex 1: too large
    xs, ys = _cover_masks(rows, nx, match_y)
    return xs, ys | 1


def test_verify_koenig_gstar_reports_a_wrong_cover(monkeypatch):
    monkeypatch.setattr("turanmatch.oracle._cover_masks", _padded_cover)
    checks = verify_koenig_gstar(2, 3, 2)
    assert [(ch.cases, len(ch.violations)) for ch in checks] == [(46, 46), (46, 0), (46, 0), (46, 0)]
    assert checks[0].violations[0] == (
        "G(X=2,Y=3)=[(1, 2), (2, 1)]: cover ((1, 2), (1,)) vs matching 2"
    )


def test_verify_koenig_gstar_matches_full_mask_reference():
    # one pair keeps the grid fast; the fault tests below run the default pairs
    for nx in range(5):
        for ny in range(5):
            for k in range(min(nx, ny) + 2):
                args = (nx, ny, k, ((1, 2),))
                assert verify_koenig_gstar(*args) == ref_verify_koenig_gstar(*args), args


@pytest.mark.parametrize("fault", ["formula", "cover"])
def test_verify_koenig_gstar_reports_like_the_reference(monkeypatch, fault):
    if fault == "formula":
        _inject(monkeypatch, "bip_split_count", lambda *a: bip_split_count(*a) + 1)
    else:
        _inject(monkeypatch, "_cover_masks", _padded_cover)
    sizes = [(nx, ny, k) for nx in range(4) for ny in range(4) for k in range(min(nx, ny) + 2)]
    for args in sizes + [(4, 4, 1), (4, 4, 2)]:
        checks = verify_koenig_gstar(*args)
        assert checks == ref_verify_koenig_gstar(*args), args
        assert any(ch.violations for ch in checks) == (checks[0].cases > 0), args


def _turned_cover(rows, nx, match_y):  # the right size, its Y-side turned by one vertex
    xs, ys = _cover_masks(rows, nx, match_y)
    ny = len(match_y)
    return xs, (ys << 1 | ys >> ny - 1) & ((1 << ny) - 1) if ys else 0


def test_verify_koenig_gstar_reports_an_uncovered_edge_like_the_reference(monkeypatch):
    # a cover of size k that misses an edge passes koenig-duality, which
    # tests the size only, and gstar-contains, the one coverage test, reports it
    _inject(monkeypatch, "_cover_masks", _turned_cover)
    sizes = [(nx, ny, k) for nx in range(4) for ny in range(4) for k in range(min(nx, ny) + 2)]
    reported = 0
    for args in sizes + [(4, 4, 1), (4, 4, 2)]:
        checks = verify_koenig_gstar(*args)
        assert checks == ref_verify_koenig_gstar(*args), args
        assert not checks[0].violations, args
        reported += len(checks[1].violations)
    assert reported > 0


def _edge_shortfall(rows, ny, s, t):  # the count less the edge count: no X-row order matters
    return _bip_sum(rows, ny, s, t) - sum(row.bit_count() for row in rows)


def test_verify_koenig_gstar_reports_a_monotone_fault_like_the_reference(monkeypatch):
    # each case's counts are scored once per sorted row tuple, which any
    # count blind to the X-row order allows; less its edge count, a host
    # can fall below a sparser graph it contains, so gstar-monotone reports
    _inject(monkeypatch, "_bip_sum", _edge_shortfall)
    sizes = [(nx, ny, k) for nx in range(4) for ny in range(4) for k in range(min(nx, ny) + 2)]
    reported = 0
    for args in sizes + [(4, 4, 1), (4, 4, 2)]:
        checks = verify_koenig_gstar(*args)
        assert checks == ref_verify_koenig_gstar(*args), args
        reported += len(checks[2].violations)
    assert reported > 0


def test_verify_koenig_gstar_cases_cover_every_graph():
    for nx, ny in ((4, 4), (3, 4), (2, 3)):
        cases = [verify_koenig_gstar(nx, ny, k, pairs=())[0].cases for k in range(min(nx, ny) + 1)]
        assert sum(cases) == 2 ** (nx * ny), (nx, ny)
        if (nx, ny) == (4, 4):
            assert cases == [1, 104, 2912, 24696, 37823]


def test_verify_koenig_gstar_prunes_row_prefixes(counted):
    augments = counted("_bip_augment")
    assert verify_koenig_gstar(4, 4, 1)[0].cases == 104
    assert augments[0] < 2_500  # 60 with pruning; 72,609 filling every row prefix


def test_max_over_free_matches_leaf_recount_reference():
    for n in range(1, 7):
        patterns = [(s, None) for s in range(1, n + 1)]
        patterns += [(s, t) for s in range(1, n) for t in range(1, n - s + 1)]
        for k in range(4):
            for s, t in patterns:
                value, mask = ref_scan_free_max(n, k, s, t)
                expected = (value, graph_from_mask(n, mask).edges())
                w = max_over_free(n, k, s, t)
                assert (w.value, w.graph.edges()) == expected, (n, k, s, t)


def test_pruned_seven_vertex_scans_match_reference():
    for k, s, t in ((2, 2, None), (2, 3, None), (2, 1, 2), (2, 2, 2), (1, 2, None), (1, 1, 2)):
        value, mask = ref_scan_free_max(7, k, s, t)
        expected = (value, graph_from_mask(7, mask).edges())
        w = max_over_free(7, k, s, t)
        assert (w.value, w.graph.edges()) == expected, (k, s, t)


@pytest.fixture
def counted(monkeypatch):
    """``counted(name, weigh=None)`` wraps ``turanmatch.oracle.<name>`` and
    returns a list holding its call count, or the sum of ``weigh(*args)``
    over its calls.  Each count must be positive by the end of the test: a
    count of a function the code no longer calls reads 0 and passes any
    upper bound."""
    totals = {}

    def wrap(name, weigh=None):
        calls = [0]
        inner = getattr(oracle, name)

        def counting(*args):
            step = 1 if weigh is None else weigh(*args)
            calls[0] += step
            totals[name] += step
            return inner(*args)

        totals[name] = 0
        monkeypatch.setattr(oracle, name, counting)
        return calls

    yield wrap
    assert all(totals.values()), f"counted nothing: {totals}"


def _probes(counted):
    """The ``_missable`` probes, one per vertex tested: the grow probes of
    both row walks and the degree closure's D(Q) probes."""
    return counted("_missable", lambda adj, free, r, maybe: maybe.bit_count())


def test_vertex_scan_tests_matchings_once_per_parent_vertex(counted):
    probes = _probes(counted)
    max_over_free(7, 2, 2)
    assert probes[0] < 60_000  # 122,293 tests for the edge-slot scan, one per added edge


def test_last_vertex_bound_skips_most_leaf_tables(counted):
    # counts the least-completion rule's per-edge tests, one per edge of K_6
    calls = counted("_clique_gain_any")
    assert max_over_free(6, 5, 2).value == 15
    assert calls[0] < 12_000  # 15; 32,767 edge gains when every parent builds its 2^5 table


def test_last_vertex_bound_comes_before_the_matching_tests(counted):
    probes = _probes(counted)
    assert max_over_free(7, 2, 2, 2).value == 30
    assert probes[0] < 20_000  # 51,918 when every last-level parent builds its grow mask


def test_completion_bound_prunes_above_the_last_vertex(counted):
    # counts the least-completion rule's per-edge tests, one per edge of K_7
    calls = counted("_clique_gain_any")
    assert max_over_free(7, 3, 3).value == 35
    assert calls[0] < 1_000  # 21; 234,982 edge gains when only the last vertex is bounded


def test_loose_bound_skipped_when_it_cannot_prune(counted):
    calls = counted("_clique_gain")
    assert max_over_free(7, 1, 2).value == 6
    assert calls[0] < 1_000  # 259; 1,597 with every last vertex bounded before its matching tests


def test_child_table_cuts_the_last_level_chains(counted):
    calls = counted("_clique_gain")
    assert max_over_free(7, 2, 2).value == 11
    assert calls[0] <= 25_000  # 11,166; 60,880 with a chain of 6 gains per last-level parent


def test_own_bound_cuts_the_last_level_children(counted):
    # the child's own widest completion bounds it at every level, so the
    # children of the parents above the last vertex are cut before they
    # are built
    calls = counted("_child")
    assert max_over_free(7, 2, 2).value == 11
    assert calls[0] <= 320  # 297; 1,403 with the own bound skipped there


def test_scan_tabulates_each_allowed_back_row_set_once(counted):
    calls = counted("_steps")
    assert max_over_free(6, 5, 2).value == 15
    assert calls[0] <= 6  # one per vertex; 32 tabulating every subset of the 5 vertices up front
    calls[0] = 0
    assert max_over_free(7, 2, 2).value == 11
    assert calls[0] <= 64  # 14; 2,050 with one per parent at a full matching


def test_degree_closure_counts_matchings_once_per_parent_vertex(counted):
    probes = _probes(counted)
    (check,) = verify_bondy_chvatal(6)
    assert (check.cases, check.violations) == (245_760, ())
    # 1,132: 652 grow probes and 480 D(Q) probes; 5,405 grow probes = v per
    # parent on v < 6 vertices; 32,768 one per graph
    assert probes[0] <= 6_000


def test_degree_filter_selects_the_same_matching_tests(monkeypatch):
    # the matching tests of the pairs passing the degree test, by matching
    # size: one or two per parent and pair; one per child and pair gave
    # {1: 20, 2: 560} at n = 5 and {1: 150, 2: 5_715, 3: 8_505} at n = 6
    calls = Counter()

    def counted(adj, free, r):
        calls[r] += 1
        return _exists_matching(adj, free, r)

    monkeypatch.setattr("turanmatch.oracle._exists_matching", counted)
    for n, expected in ((5, {0: 12, 1: 60}), (6, {0: 80, 1: 1_340, 2: 430})):
        calls.clear()
        assert verify_bondy_chvatal(n)[0].status == "pass"
        assert calls == expected, n


@given(graphs(min_n=0, max_n=6))
@example(Graph.from_edges(6, [(a, b) for a in (1, 2) for b in (3, 4, 5, 6)]))
def test_closure_tests_are_the_degree_tests_of_each_back_row(g):
    # bit B of a pair's backs is set iff the pair, non-adjacent in the child
    # on back-row B, has degree sum at least 2k + 1 there; on 6-vertex
    # parents such as K(2,4) a non-edge's degrees can reach 2nu + 3, so
    # every B meeting grow passes
    v = g.n
    nu = _nu(g.adj)
    grow = ref_grow(g.adj, nu)
    tests = oracle._closure_tests(g.adj, nu, grow, oracle._closure_tables(v))
    got = {(back, u, w) for u, w, backs in tests for back in range(1 << v) if backs >> back & 1}
    assert all(backs for _, _, backs in tests)
    expected = set()
    for back in range(1 << v):
        child = [row | (back >> u & 1) << v for u, row in enumerate(g.adj)] + [back]
        k = nu + (1 if back & grow else 0)
        for u, w in combinations(range(v + 1), 2):
            if not child[u] >> w & 1 and child[u].bit_count() + child[w].bit_count() >= 2 * k + 1:
                expected.add((back, u, w))
    assert got == expected


def test_closure_tests_keep_a_pair_two_degrees_short():
    # on the path 3-1-4-2 (nu = 2, a perfect matching, so grow is empty) the
    # pair (1, 2) has degrees 2 + 1, two short of 2nu + 1: it passes on
    # exactly the back-rows holding both its ends
    g = Graph.from_edges(4, [(1, 3), (1, 4), (2, 4)])
    tests = oracle._closure_tests(list(g.adj), 2, 0, oracle._closure_tables(4))
    backs = {(u, w): b for u, w, b in tests}
    assert backs[0, 1] == sum(1 << b for b in range(16) if b & 0b11 == 0b11)


def _selective(parent, u, w, back):
    return hash((tuple(parent), u, w, back)) % 3 == 0


def test_verify_bondy_chvatal_matches_reference_under_a_selective_fake(monkeypatch):
    # unlike an all-True fake, this one answers by the exact parent rows,
    # pair and back-row asked, so a wrong leaf row, pair or k changes the
    # reported instances; the reference's leaf splits into its parent rows
    # and its last back-row
    def hits(adj, nu, grow, u, w, tables):
        return sum(1 << back for back in range(1 << len(adj)) if _selective(adj, u, w, back))

    def leaf(rows, free, r):
        v = len(rows) - 1
        u, w = (x for x in range(v + 1) if not free >> x & 1)
        return _selective([row & ~(1 << v) for row in rows[:v]], u, w, rows[v])

    monkeypatch.setattr("turanmatch.oracle._closure_hits", hits)
    monkeypatch.setattr("helpers._exists_matching", leaf)
    for n in range(7):
        assert verify_bondy_chvatal(n) == ref_verify_bondy_chvatal(n), n
    assert len(verify_bondy_chvatal(6)[0].violations) > 1000


def _hits_by_child(adj, nu, grow, u, w):
    """``_closure_hits`` the slow way: one child built and searched per
    back-row B, for a matching of its matching number less u and w."""
    v = len(adj)
    full = (2 << v) - 1
    hits = 0
    for back in range(1 << v):
        child = [row | (back >> x & 1) << v for x, row in enumerate(adj)] + [back]
        if _exists_matching(child, full ^ 1 << u ^ 1 << w, nu + (1 if back & grow else 0)):
            hits |= 1 << back
    return hits


def _assert_closure_hits(adj, nu, grow):
    """Bit B of ``_closure_hits`` is the child's own search for every pair
    u < w <= v non-adjacent in the child on B."""
    v = len(adj)
    tables = oracle._closure_tables(v)
    every, contains = tables[0], tables[1]
    for u, w in combinations(range(v + 1), 2):
        if w < v and adj[u] >> w & 1:
            continue
        apart = every ^ contains[u] if w == v else every  # u outside B, for (u, v)
        got = oracle._closure_hits(adj, nu, grow, u, w, tables)
        assert got & apart == _hits_by_child(adj, nu, grow, u, w) & apart, (adj, u, w)


def test_closure_hits_are_each_childs_search():
    # 251,085 (parent, pair, back-row) instances; the law has no
    # counterexamples, so only this test sees a helper that hits too little
    for n in range(1, 7):
        for adj, nu, grow, _ in oracle._last_parents(n, n):
            _assert_closure_hits(adj, nu, grow)


@given(graphs(min_n=6, max_n=6))
# pair (1, 2): Q, the parent less 1 and 2, spans only nu - 1, and its D(Q)
# holds 5, outside grow, where 1's partner is left bare
@example(Graph.from_edges(6, [(1, 5), (2, 6), (3, 6)]))
def test_closure_hits_are_each_childs_search_on_six_vertex_parents(g):
    nu = _nu(g.adj)
    _assert_closure_hits(g.adj, nu, ref_grow(g.adj, nu))


def _table(adj, n, backs, s, t, reach=-1):
    """The scan's completion table over ``backs``, all subsets of one set in
    ascending order: one ``_completion`` count, then one ``_chain``."""
    rows, first = oracle._completion(adj, n, reach, s, t, {})
    return oracle._chain(rows, oracle._steps(backs), first, rows[len(adj)], s, t)


@given(graphs(min_n=0, max_n=5), st.data())
def test_completion_table_counts_each_completed_child(g, data):
    # entry i of the table is the count of the child taking backs[i] with
    # every later vertex joined to all: the scan's bound on that child
    v = g.n
    n = data.draw(st.integers(v + 2, 7))
    s = data.draw(st.integers(1, 5))
    t = data.draw(st.integers(0, 3))
    allowed = data.draw(st.integers(0, (1 << v) - 1))
    backs = [b for b in range(1 << v) if b & ~allowed == 0]
    tops = _table(g.adj, n, backs, s, t)
    later = ((1 << n) - 1) ^ ((2 << v) - 1)
    for back, top in zip(backs, tops, strict=True):
        rows = [row | later | (back >> u & 1) << v for u, row in enumerate(g.adj)]
        rows.append(back | later)
        rows += [((1 << n) - 1) ^ 1 << z for z in range(v + 1, n)]
        assert top == _clique_top_sum(rows, s, t), (back, s, t)


@given(graphs(min_n=0, max_n=6))
def test_handed_grow_is_each_childs_grow_afresh(g):
    # on every back-row of the parent, the mask both row walks hand down
    # from the parent's one table equals the child's own, found by blossom
    # on the child less each vertex
    v = g.n
    nu = _nu(g.adj)
    grow = ref_grow(g.adj, nu)
    table = oracle._grow_table(g.adj, nu, grow, (1 << v) - 1)
    for back in range(1 << v):
        child = oracle._child(g.adj, back)
        child_nu = _nu(child)
        assert oracle._handed_grow(table, grow, v, back) == ref_grow(child, child_nu), back
    assert oracle._handed_grow([], 0, 0, 0) == 1  # the empty root's one child


def test_grow_table_probes_one_side_of_grow_per_cut(monkeypatch):
    # cutting c out of grow leaves a D set inside grow, and outside grow
    # only the vertices outside it are read, so each cut searches one side
    asked = []
    missable = oracle._missable

    def recording(adj, free, r, maybe):
        asked.append(maybe)
        return missable(adj, free, r, maybe)

    monkeypatch.setattr(oracle, "_missable", recording)
    for n in range(6):
        below = (1 << n) - 1
        for g in all_graphs(n):
            nu = _nu(g.adj)
            grow = ref_grow(g.adj, nu)
            asked.clear()
            oracle._grow_table(g.adj, nu, grow, below)
            side = [(grow if grow >> c & 1 else below & ~grow) ^ 1 << c for c in range(n)]
            assert asked == side, g


def _free_completions(rows, n, k):
    """Every completion of ``rows`` to n vertices with matching number <= k,
    each later vertex taking every back-row in turn."""
    if len(rows) == n:
        yield rows
        return
    for back in range(1 << len(rows)):
        child = oracle._child(rows, back)
        if _nu(child) <= k:
            yield from _free_completions(child, n, k)


@given(graphs(min_n=0, max_n=3), st.data())
def test_own_entry_bounds_every_completion_below_the_child(g, data):
    # a child at matching number k above the last two levels is bounded by
    # its own widest completion: later vertices independent, each joined to
    # the child's vertices outside its own grow; that count is at least the
    # count of every completion below it with nu <= k
    v = g.n
    back = data.draw(st.integers(0, (1 << v) - 1))
    child = oracle._child(g.adj, back)
    k = _nu(child)
    grow = ref_grow(child, k)
    n = data.draw(st.integers(v + 3, 6))
    s = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(0, 2))
    reach = ((2 << v) - 1) & ~grow
    memo = {}
    rows, first = oracle._completion(g.adj, n, reach, s, t, memo)
    own = first + oracle._path_gain(rows, back, s, t, rows[v])
    assert memo == {reach: (rows, first)}  # kept for the siblings sharing the reach
    later = ((1 << n) - 1) ^ ((2 << v) - 1)
    widest = [row | later if reach >> u & 1 else row for u, row in enumerate(child)] + [reach] * (n - v - 1)
    assert own == _clique_top_sum(widest, s, t)
    assert all(_clique_top_sum(rows, s, t) <= own for rows in _free_completions(child, n, k))


@given(graphs(min_n=0, max_n=6), st.data())
def test_grow_inherits_the_parents_grow_and_the_new_vertex(g, data):
    # a child that keeps its parent's matching number keeps every b whose
    # removal left the parent a maximum matching, and the new vertex v
    v = g.n
    nu = _nu(g.adj)
    grow = ref_grow(g.adj, nu)
    back = data.draw(st.integers(0, (1 << v) - 1))
    child = [row | (back >> u & 1) << v for u, row in enumerate(g.adj)] + [back]
    child_nu = _nu(child)
    assert child_nu == nu + (1 if back & grow else 0)
    if child_nu == nu:
        assert (grow | 1 << v) & ~ref_grow(child, nu) == 0


@given(graphs(min_n=1, max_n=5), st.data())
def test_matching_aware_table_bounds_every_leaf_below_a_full_parent(g, data):
    # below a parent at matching number k every later vertex joins only
    # C = the vertices whose removal drops the matching number; entry i of
    # the table counts the child taking backs[i] with each later vertex
    # joined to exactly C, which bounds every leaf with nu <= k below it
    v = g.n
    k = _nu(g.adj)
    n = data.draw(st.integers(max(v + 2, 2 * k + 2), 7))
    s = data.draw(st.integers(1, 5))
    t = data.draw(st.integers(0, 3))
    reach = ((1 << v) - 1) & ~ref_grow(g.adj, k)
    backs = [b for b in range(1 << v) if b & ~reach == 0]
    tops = _table(g.adj, n, backs, s, t, reach)
    later = ((1 << n) - 1) ^ ((2 << v) - 1)
    for back, top in zip(backs, tops, strict=True):
        rows = [row | (later if reach >> u & 1 else 0) | (back >> u & 1) << v
                for u, row in enumerate(g.adj)]
        rows.append(back)
        rows += [reach] * (n - v - 1)
        assert top == _clique_top_sum(rows, s, t), (back, s, t)
    i = data.draw(st.integers(0, len(backs) - 1))
    leaf = [row | (backs[i] >> u & 1) << v for u, row in enumerate(g.adj)] + [backs[i]]
    for z in range(v + 1, n):  # each later vertex a random back-row keeping nu = k
        allowed = ((1 << z) - 1) & ~ref_grow(leaf, k)
        back = data.draw(st.integers(0, allowed)) & allowed
        leaf = [row | (back >> u & 1) << z for u, row in enumerate(leaf)] + [back]
    assert _nu(leaf) == k
    assert _clique_top_sum(leaf, s, t) <= tops[i], (backs[i], s, t)


def test_full_parents_bound_their_subtrees_by_their_matching(counted):
    probes = _probes(counted)
    assert max_over_free(7, 2, 2).value == 11
    assert probes[0] < 15_000  # 2,924; 31,038 with grow afresh at every node and the loose table


def test_koenig_check_carries_its_matching_down_the_rows(counted):
    augments = counted("_bip_augment")
    assert verify_koenig_gstar(4, 4, 1)[0].cases == 104
    # 60: one search per row that meets the fill node's reach, read off the
    # carried matching; 516 with a trial search per Y-vertex at each fill
    # node to find that reach, 1,824 with one search per row filled
    assert augments[0] < 250
    counts = counted("_bip_sum")
    assert verify_koenig_gstar(4, 4, 2)[0].cases == 2912
    # 1,002 = 3 per cover and 3 per sorted row tuple (28 and 306 of them);
    # 8,820 scoring each case, 17,472 scoring each case's host again
    assert counts[0] <= 1_100


def test_degree_closure_inherits_the_parents_grow(counted):
    probes = _probes(counted)
    assert verify_bondy_chvatal(6)[0].cases == 245_760
    assert probes[0] <= 4_800  # 652 grow + 480 D(Q); 5,405 grow probes with grow afresh at every node


def test_tied_scans_find_the_empty_witness_in_few_gains(counted):
    # where every graph below the root ties, each subtree's entry ties the
    # best, so the scan walks down to the last vertices, whose least
    # completions keep the empty graph's smallest mask
    # (an unbounded scan such as (7, 3, 1) is one least completion instead)
    calls = counted("_clique_gain")
    for args, value, limit in (((7, 1, 1), 7, 100),     # 86; 0 recording each empty completion at its child
                               ((7, 2, 4, 3), 0, 900),  # 721; 366
                               ((7, 2, 1), 7, 700)):    # 609; 0
        calls[0] = 0
        w = max_over_free(*args)
        assert (w.value, w.graph.edges()) == (value, []), args
        assert calls[0] < limit, (args, calls[0])


def test_unbounded_scans_walk_no_level_and_build_no_table(counted):
    # where no graph can exceed k the root's subtree is the whole scan, and
    # the least-completion rule resolves it from K_n: one existence test
    # per edge, no table and no chain
    gains = counted("_clique_gain_any")
    steps = counted("_steps")
    assert max_over_free(6, 5, 2, 3).value == 60
    assert gains[0] <= 15 and steps[0] == 0  # 15 and 0; 20 walking the widest child, 83 and 6 tabulating
    gains[0] = 0
    assert max_over_free(7, 3, 3).value == 35
    assert gains[0] <= 21  # 21; 27 walking the widest child, 177 with a table at every level
    assert steps[0] == 0
    assert max_over_free(7, 2, 2).value == 11 and steps[0] > 0  # a bounded scan tabulates


@given(graphs(min_n=1, max_n=6), st.data())
def test_least_free_edges_lie_inside_every_subgraph_keeping_the_count(g, data):
    # over the free edges (at v or a later vertex), the subgraphs keeping the
    # count of g are those keeping every edge some copy uses: the rule's
    # edges are the smallest such mask and lie inside every other
    n = g.n
    v = data.draw(st.integers(0, n - 1))
    s = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(0, 3))
    slots = oracle._EDGE_SLOTS[n]
    edges = sum(1 << i for i, (a, b) in enumerate(slots) if g.adj[a] >> b & 1)
    free = sum(1 << i for i, (a, b) in enumerate(slots) if b >= v) & edges
    assume(free.bit_count() <= 10)
    count = _clique_top_sum(g.adj, s, t)
    keeping, sub = [], 0
    while True:  # every subset of the free edges, ascending
        rows = oracle._rows_from_mask(n, edges ^ free | sub, slots)
        if _clique_top_sum(rows, s, t) == count:
            keeping.append(sub)
        if sub == free:
            break
        sub = (sub - free) & free
    least = oracle._least_free_edges(list(g.adj), v, s, t)
    assert least == keeping[0]
    assert all(least & ~sub == 0 for sub in keeping)


def test_least_completion_reports_the_count_of_the_rows_it_reads(monkeypatch):
    # each subtree the rule resolves reports ``top``, the entry its parent
    # handed down, which at the last vertex joins v to all it may: that must
    # be the count of the widest completion whose free edges the rule keeps
    least, seen = oracle._least_free_edges, []

    def recording(rows, v, s, t):
        seen.append((rows, v, s, t, sys._getframe(1).f_locals["top"]))
        return least(rows, v, s, t)

    monkeypatch.setattr(oracle, "_least_free_edges", recording)
    for n in range(1, 7):
        for k in range(n + 1):
            for s in range(1, n + 2):
                for t in (None, *range(1, n + 1)):
                    max_over_free(n, k, s, t)
    assert any(v < len(rows) - 1 for rows, v, _, _, _ in seen)  # some resolved above the last vertex
    for rows, v, s, t, top in seen:
        assert top == _clique_top_sum(rows, s, t), (rows, v, s, t)


def test_one_completion_count_per_parent_and_reach(counted):
    # a parent's table and its children's own bounds read one count per
    # reach: a child at nu = k whose grow gained only v reaches the
    # parent's allowed set, whose completion the table has just counted
    counts = counted("_clique_top_sum")
    assert max_over_free(7, 2, 2).value == 11
    assert counts[0] <= 1_000  # 857; 2,372 counting each completion afresh
    counts[0] = 0
    assert max_over_free(7, 1, 2).value == 6
    assert counts[0] <= 80  # 66; 117 likewise


def _joined_to_all(adj, n):
    """``adj``'s rows with every later vertex, up to n, joined to all others."""
    full = (1 << n) - 1
    later = full ^ ((1 << len(adj)) - 1)
    return [row | later for row in adj] + [full ^ 1 << z for z in range(len(adj), n)]


@given(graphs(min_n=0, max_n=5), st.data())
def test_widest_child_inherits_its_parents_entry(g, data):
    # where every back-row is allowed, the widest child's widest completion
    # is the parent's own: the table's last entry, handed down as the
    # child's ``top``, is the parent's exact completion count, and the
    # child's own count is one path of gains
    v = g.n
    n = data.draw(st.integers(v + 2, 7))
    s = data.draw(st.integers(1, 5))
    t = data.draw(st.integers(0, 3))
    below = (1 << v) - 1
    top = _clique_top_sum(_joined_to_all(g.adj, n), s, t)  # the parent's entry
    widest = oracle._child(g.adj, below)
    tops = _table(g.adj, n, list(range(1 << v)), s, t)
    assert top == _clique_top_sum(_joined_to_all(widest, n), s, t) == tops[below]
    base = _clique_sum([], 0, 0, s - 1, t)
    assert (_clique_top_sum(widest, s, t)
            == _clique_top_sum(g.adj, s, t) + base + oracle._path_gain(g.adj, below, s, t, 0))


def test_unbounded_scans_gain_once_per_edge_of_the_complete_graph(counted):
    # a scan in which no graph can exceed k is one rule at the root: one
    # existence test per edge of K_n, whatever the pattern
    gains = counted("_clique_gain_any")
    for n in range(2, 8):
        for k in (n // 2, n):
            for s, t in ((2, None), (3, None), (1, 2), (2, 3), (n + 1, None)):
                gains[0] = 0
                max_over_free(n, k, s, t)
                assert gains[0] == comb(n, 2), (n, k, s, t)


def test_grow_tables_cut_the_probes(counted):
    probes = _probes(counted)
    assert verify_bondy_chvatal(6)[0].cases == 245_760
    # 1,132: 652 grow probes and 480 D(Q) probes; 4,179 with 3,699 grow
    # probes probing each child after it is built
    assert probes[0] <= 1_200
    probes[0] = 0
    assert max_over_free(7, 2, 2).value == 11
    assert probes[0] <= 5_000  # 2,924; 8,225 probing each child after it is built


def test_grown_children_search_only_the_parents_grow(counted):
    probes = _probes(counted)
    assert max_over_free(7, 2, 2).value == 11
    assert probes[0] <= 9_000  # 2,924; 10,527 searching every vertex of a child whose nu grew
    probes[0] = 0
    assert verify_bondy_chvatal(6)[0].cases == 245_760
    # 652 grow + 480 D(Q); 4,528 grow probes searching every vertex of a child whose nu grew
    assert probes[0] <= 4_000


@given(graphs(min_n=0, max_n=6), st.data())
def test_a_grown_childs_grow_lies_inside_its_parents(g, data):
    # for x outside grow the parent less x has matching number nu - 1, so
    # the child less x at most nu; the child less v is the parent itself
    v = g.n
    nu = _nu(g.adj)
    grow = ref_grow(g.adj, nu)
    back = data.draw(st.integers(0, (1 << v) - 1)) | (grow & -grow)
    if back & grow:
        child = oracle._child(g.adj, back)
        assert _nu(child) == nu + 1
        assert ref_grow(child, nu + 1) & ~grow == 0


def test_back_masks_set_the_slot_of_each_back_edge():
    # the scans read the tables made at import, one per n up to the scan cap
    assert len(oracle._BACK_MASKS) == len(oracle._EDGE_SLOTS) == oracle.MAX_SCAN_VERTICES + 1
    for n, canon in enumerate(oracle._BACK_MASKS):
        slots = oracle._edge_slots(n)
        assert isinstance(canon, tuple) and all(isinstance(table, tuple) for table in canon)
        for v in range(n):
            for back in range(1 << v):
                expected = sum(1 << slots.index((u, v)) for u in range(v) if back >> u & 1)
                assert canon[v][back] == expected, (n, v, back)


def test_iter_free_graphs_checks_its_arguments_at_the_call():
    with pytest.raises(CapacityError):
        iter_free_graphs(8, 1)
    with pytest.raises(ValueError):
        iter_free_graphs(-1, 0)
    with pytest.raises(ValueError):
        iter_free_graphs(3, -1)


def test_iter_free_graphs_yields_each_graph_once():
    # totals by k = 0, 1, 2, ...; the last k, past n // 2, admits every graph
    totals = {0: [1, 1], 1: [1, 1], 2: [1, 2, 2], 3: [1, 8, 8], 4: [1, 27, 64, 64],
              5: [1, 76, 1_024, 1_024], 6: [1, 192, 7_945, 32_768, 32_768]}
    for n, expected in totals.items():
        nus = [matching_number(g) for g in all_graphs(n)]
        for k, total in enumerate(expected):
            yielded = list(iter_free_graphs(n, k))
            assert len(yielded) == len(set(yielded)) == sum(nu <= k for nu in nus) == total, (n, k)
    for k, total in ((1, 456), (2, 46_936)):
        yielded = list(iter_free_graphs(7, k))
        assert len(yielded) == len(set(yielded)) == total, k


def test_last_parents_yield_each_free_parent_once_with_its_grow_and_mask():
    assert list(oracle._last_parents(0, 0)) == []
    for n in range(1, 7):
        slots = oracle._edge_slots(n)
        nus = [matching_number(g) for g in all_graphs(n - 1)]
        for k in range(n // 2 + 1):
            parents = list(oracle._last_parents(n, k))
            for adj, nu, grow, mask in parents:
                assert (nu, grow) == (_nu(adj), ref_grow(adj, nu)), (adj, k)
                assert mask == sum(1 << i for i, (u, w) in enumerate(slots)
                                   if w < n - 1 and adj[u] >> w & 1), (adj, k)
            distinct = {tuple(adj) for adj, _, _, _ in parents}
            assert len(parents) == len(distinct) == sum(nu <= k for nu in nus), (n, k)


def test_unpruned_seven_vertex_scans_find_the_complete_graph():
    complete = complete_graph(7)
    patterns = [(s, None) for s in range(2, 8)]
    patterns += [(s, t) for s in range(1, 7) for t in range(1, 8 - s)]
    for s, t in patterns:
        expected = (_clique_top_sum(complete.adj, s, t or 0), complete.edges())
        w = max_over_free(7, 3, s, t)
        assert (w.value, w.graph.edges()) == expected, (s, t)


def test_max_over_free_bip_matches_full_mask_reference():
    for nx in range(13):
        for ny in range(13):
            if nx * ny > 12:
                continue
            for k in range(min(nx, ny) + 1):
                for s, t in ((1, 1), (1, 2), (2, 2), (2, 3)):
                    value, mask = ref_scan_bip_max(nx, ny, k, s, t)
                    expected = (value, bip_from_mask(nx, ny, mask).edges())
                    w = max_over_free_bip(nx, ny, k, s, t)
                    assert (w.value, w.graph.edges()) == expected, (nx, ny, k, s, t)
