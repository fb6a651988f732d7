"""Acceptance suite: one test per exit criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion (with elapsed time) in addition to pytest's own verdicts.
"""

import time
from contextlib import contextmanager

from turanmatch import (
    bip_max_matching,
    bip_split_count,
    bip_split_count_sym,
    count_cliques,
    count_star,
    endpoint_max,
    ex_bip,
    ex_clique,
    ex_edges,
    ex_star,
    extremal_clique_count,
    extremal_graph,
    extremal_star_count,
    koenig_cover,
    max_over_free,
    max_over_free_bip,
    verify_bondy_chvatal,
    verify_shift_lemmas,
    verify_shifted_structure,
)
from helpers import bip_from_mask
import random


@contextmanager
def report(label):
    start = time.time()
    failed = True
    try:
        yield
        failed = False
    finally:
        verdict = "FAIL" if failed else "PASS"
        print(f"\ncriterion {label}: {verdict} ({time.time() - start:.1f}s)")


def test_c01_clique_maxima_match_formula_at_desk_scale():
    with report("1 (clique maxima, n<=7)"):
        for n in (5, 6, 7):
            for k in (1, 2):
                if n < 2 * k + 1:
                    continue
                for s in (2, 3):
                    assert max_over_free(n, k, s).value == ex_clique(n, k, s), (n, k, s)


def test_c02_star_maxima_match_formula_at_desk_scale():
    with report("2 (star maxima, n=6)"):
        assert ex_star(6, 2, 1, 2) == 30
        for k in (1, 2):
            for s, t in ((1, 2), (2, 2)):
                assert max_over_free(6, k, s, t).value == ex_star(6, k, s, t), (k, s, t)


def test_c03_biclique_maxima_match_formula_at_desk_scale():
    with report("3 (biclique maxima, parts<=4)"):
        assert ex_bip(4, 2, 1, 1) == 8
        assert ex_bip(4, 2, 1, 2) == 16
        for n in (3, 4):
            for k in range(1, n + 1):
                for s, t in ((1, 1), (1, 2), (2, 2)):
                    assert max_over_free_bip(n, n, k, s, t).value == ex_bip(n, k, s, t), (n, k, s, t)


def test_c04_edge_formula_is_the_two_clique_case():
    with report("4 (edge formula = 2-clique case)"):
        for k in range(51):
            for n in range(2 * k + 1, 201):
                assert ex_clique(n, k, 2) == ex_edges(n, k)


def test_c05_shift_laws_exhaustive_and_random():
    with report("5 (shift laws)"):
        for n in range(1, 6):
            for check in verify_shift_lemmas(n, max_s=3, max_t=3):
                assert check.status == ("pass" if n > 1 else "empty"), check  # n = 1 has no pair
        for check in verify_shift_lemmas(10, samples=10_000, seed=0, max_s=3, max_t=3):
            assert check.status == "pass", check


def test_c06_shifted_graphs_fit_the_extremal_family():
    with report("6 (shifted graphs inside hosts)"):
        for n in (5, 6, 7):
            for k in range((n - 1) // 2 + 1):
                (check,) = verify_shifted_structure(n, k)
                assert check.status == "pass", check


def test_c07_degree_closure_exhaustive():
    with report("7 (degree closure, n<=6)"):
        for n in range(1, 7):
            (check,) = verify_bondy_chvatal(n)
            assert check.status == ("pass" if n > 1 else "empty"), check  # n = 1 has no non-edge


def test_c08_construction_counts_match_closed_forms():
    with report("8 (construction vs closed forms)"):
        for n in range(1, 13):
            for k in range(5):
                if 2 * k + 1 > n:
                    continue
                for ell in range(k + 1, 2 * k + 2):
                    g = extremal_graph(n, k, ell)
                    for s in range(1, 5):
                        assert count_cliques(g, s) == extremal_clique_count(n, k, ell, s)
                        for t in range(1, 5):
                            assert count_star(g, s, t) == extremal_star_count(n, k, ell, s, t)


def test_c09_convexity_and_endpoint_maxima():
    with report("9 (convexity / endpoint maxima)"):
        for k in range(11):
            for n in range(2 * k + 1, 41):
                for s in range(1, 6):
                    r = endpoint_max(lambda ell: extremal_clique_count(n, k, ell, s), k + 1, 2 * k + 1)
                    assert r.is_convex and r.argmax in (k + 1, 2 * k + 1), (n, k, s)
                    for t in range(1, 6):
                        r = endpoint_max(
                            lambda ell: extremal_star_count(n, k, ell, s, t), k + 1, 2 * k + 1
                        )
                        assert r.is_convex and r.argmax in (k + 1, 2 * k + 1), (n, k, s, t)
        for n in range(1, 41):
            for k in range(min(n, 10) + 1):
                for s in range(1, 6):
                    for t in range(1, 6):
                        r = endpoint_max(lambda x: bip_split_count(n, k, x, s, t), 0, k)
                        assert r.is_convex and r.argmax in (0, k), (n, k, s, t)
                        r = endpoint_max(lambda x: bip_split_count_sym(n, k, x, s, t), 0, k)
                        assert r.is_convex and r.argmax in (0, k), (n, k, s, t)


def test_c10_koenig_duality_exhaustive_and_random():
    with report("10 (cover/matching duality)"):
        def check(bg):
            matching = bip_max_matching(bg)
            xs, ys = koenig_cover(bg)
            assert len(xs) + len(ys) == len(matching)
            xset, yset = set(xs), set(ys)
            assert all(x in xset or y in yset for x, y in bg.edges())

        for mask in range(1 << 9):
            check(bip_from_mask(3, 3, mask))
        rng = random.Random(0)
        for _ in range(1000):
            check(bip_from_mask(8, 8, rng.getrandbits(64)))
