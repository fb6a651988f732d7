import math

import pytest

from turanmatch import (
    BipartiteGraph,
    ParameterRangeError,
    binom,
    bip_split_count,
    bip_split_count_sym,
    count_bip,
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
    extremal_star_terms,
)


def test_binom_boundary_convention():
    assert binom(5, 2) == 10
    assert binom(4, 0) == 1
    assert binom(0, 1) == 0
    assert binom(3, -1) == 0
    assert binom(3, 4) == 0
    assert binom(-2, 0) == 0


def test_ex_edges_examples():
    assert ex_edges(5, 2) == 10
    assert ex_edges(7, 2) == 11
    for k in range(11):
        assert ex_edges(2 * k + 1, k) == binom(2 * k + 1, 2)
    with pytest.raises(ParameterRangeError):
        ex_edges(4, 2)


def test_ex_clique_examples():
    assert ex_clique(7, 2, 2) == 11
    assert ex_clique(7, 2, 3) == 10
    for k in range(6):
        for n in range(2 * k + 1, 2 * k + 8):
            assert ex_clique(n, k, 2 * k + 2) == 0
    with pytest.raises(ParameterRangeError):
        ex_clique(7, 2, 1)
    with pytest.raises(ParameterRangeError):
        ex_clique(4, 2, 2)


def test_ex_clique_s2_equals_ex_edges():
    for k in range(11):
        for n in range(2 * k + 1, 2 * k + 30):
            assert ex_clique(n, k, 2) == ex_edges(n, k)


def test_ex_star_examples():
    assert ex_star(6, 2, 1, 2) == 30
    # the size-dependent term takes over for large hosts
    assert ex_star(20, 2, 1, 2) == 360
    assert ex_star(20, 2, 1, 2) > binom(5, 3) * binom(3, 2)
    for k in range(4):
        n = 2 * k + 3
        assert ex_star(n, k, k + 1, k + 2) == 0  # s + t > 2k+1 and s > k
    with pytest.raises(ParameterRangeError):
        ex_star(6, 2, 1, 1)
    with pytest.raises(ParameterRangeError):
        ex_star(4, 2, 1, 2)


def _c(a, r):
    # the binomial of these tests' own transcription of the theorems' maxima
    return math.comb(a, r) if 0 <= r <= a else 0


def test_ex_edges_clique_star_are_the_theorems_closed_forms_at_large_n():
    for k in range(21):
        hosts = range(2 * k + 1, 65)
        assert [ex_edges(n, k) for n in hosts] == [
            max(_c(2 * k + 1, 2), _c(k, 2) + k * (n - k)) for n in hosts], k
        for s in range(2, 2 * k + 4):
            assert [ex_clique(n, k, s) for n in hosts] == [
                max(_c(2 * k + 1, s), _c(k, s) + (n - k) * _c(k, s - 1)) for n in hosts], (k, s)
            for t in range(2, 7):
                assert [ex_star(n, k, s, t) for n in hosts] == [
                    max(_c(2 * k + 1, s + t) * _c(s + t, t),
                        _c(k, s) * _c(n - s, t) + (n - k) * _c(k, s + t - 1) * _c(s + t - 1, t))
                    for n in hosts], (k, s, t)


def test_ex_bip_is_the_theorems_closed_form_at_large_n():
    for k in range(21):
        hosts = range(k, 65)
        for s in range(2, 2 * k + 4):
            for t in range(1, 7):
                assert [ex_bip(n, k, s, t) for n in hosts] == [
                    _c(k, s) * _c(n, s) if s == t else _c(k, s) * _c(n, t) + _c(k, t) * _c(n, s)
                    for n in hosts], (k, s, t)


def test_ex_bip_examples():
    assert ex_bip(4, 2, 1, 1) == 8
    assert ex_bip(4, 2, 1, 2) == 16
    for k in range(4):
        assert ex_bip(k + 3, k, k + 1, k + 2) == 0
    with pytest.raises(ParameterRangeError):
        ex_bip(3, 4, 1, 1)
    with pytest.raises(ParameterRangeError):
        ex_bip(4, 2, 0, 1)


def test_extremal_clique_count_examples():
    assert extremal_clique_count(7, 2, 3, 2) == 11
    assert extremal_clique_count(7, 2, 4, 2) == 9
    for k in range(6):
        for s in range(2, 7):
            for n in range(2 * k + 1, 2 * k + 6):
                assert extremal_clique_count(n, k, 2 * k + 1, s) == binom(2 * k + 1, s)
    with pytest.raises(ParameterRangeError):
        extremal_clique_count(7, 2, 6, 2)


def test_extremal_star_terms_example():
    assert extremal_star_terms(7, 2, 3, 1, 2) == (30, 4, 1)
    assert extremal_star_count(7, 2, 3, 1, 2) == 35


def test_star_count_at_top_ell_closed_forms_agree():
    for k in range(6):
        for s in range(1, 6):
            for t in range(1, 6):
                for n in range(2 * k + 1, 2 * k + 6):
                    top = extremal_star_count(n, k, 2 * k + 1, s, t)
                    assert top == binom(2 * k + 1, s) * binom(2 * k + 1 - s, t)
                    assert top == binom(2 * k + 1, s + t) * binom(s + t, t)


def test_star_count_at_bottom_ell_matches_formula_term():
    for k in range(6):
        for s in range(1, 6):
            for t in range(1, 6):
                for n in range(2 * k + 1, 2 * k + 8):
                    bottom = extremal_star_count(n, k, k + 1, s, t)
                    direct = binom(k, s) * binom(n - s, t) + (n - k) * binom(k, s - 1) * binom(k - s + 1, t)
                    rewritten = binom(k, s) * binom(n - s, t) + (n - k) * binom(k, s + t - 1) * binom(s + t - 1, t)
                    assert bottom == direct == rewritten


def test_ex_star_max_arguments_are_the_endpoint_counts():
    # the larger copy count, counted on the built end hosts ell = k+1 and 2k+1
    for k in range(5):
        for n in range(2 * k + 1, 2 * k + 8):
            hosts = [extremal_graph(n, k, ell) for ell in (k + 1, 2 * k + 1)]
            for s in range(1, 4):
                for t in range(2, 4):
                    expected = max(count_star(g, s, t) for g in hosts)
                    assert ex_star(n, k, s, t) == expected, (n, k, s, t)


def test_ex_clique_max_arguments_are_the_endpoint_counts():
    for k in range(5):
        for n in range(2 * k + 1, 2 * k + 8):
            hosts = [extremal_graph(n, k, ell) for ell in (k + 1, 2 * k + 1)]
            for s in range(2, 5):
                expected = max(count_cliques(g, s) for g in hosts)
                assert ex_clique(n, k, s) == expected, (n, k, s)


def test_bip_split_boundaries():
    for n in range(1, 8):
        for k in range(n + 1):
            for s in range(1, 4):
                for t in range(1, 4):
                    assert bip_split_count(n, k, 0, s, t) == binom(n, s) * binom(k, t)
                    assert bip_split_count(n, k, k, s, t) == binom(k, s) * binom(n, t)
                    both = binom(k, s) * binom(n, t) + binom(k, t) * binom(n, s)
                    assert bip_split_count_sym(n, k, 0, s, t) == both
                    assert bip_split_count_sym(n, k, k, s, t) == both
    with pytest.raises(ParameterRangeError):
        bip_split_count(4, 2, 3, 1, 1)


def test_bip_split_count_unequal_parts_matches_saturated_host():
    for nx in range(1, 5):
        for ny in range(1, 5):
            if nx == ny:
                continue
            for k in range(min(nx, ny) + 1):
                for x in range(k + 1):
                    # X-cover vertices 0..x-1 see all of Y; the rest see Y-cover 0..k-x-1
                    rows = [(1 << ny) - 1] * x + [(1 << (k - x)) - 1] * (nx - x)
                    host = BipartiteGraph(nx, ny, rows)
                    for s, t in ((1, 1), (1, 2), (2, 2)):
                        if s == t:
                            closed = bip_split_count(nx, k, x, s, s, ny=ny)
                        else:
                            closed = bip_split_count_sym(nx, k, x, s, t, ny=ny)
                        assert closed == count_bip(host, s, t), (nx, ny, k, x, s, t)
            with pytest.raises(ParameterRangeError):
                bip_split_count(nx, min(nx, ny) + 1, 0, 1, 1, ny=ny)
            with pytest.raises(ParameterRangeError):
                bip_split_count_sym(nx, min(nx, ny) + 1, 0, 1, 2, ny=ny)


def test_ex_bip_equals_endpoint_split_count():
    # the biclique count of the built host whose cover is k vertices of X:
    # those see all of Y, the other X-vertices nothing
    for n in range(1, 9):
        for k in range(n + 1):
            host = BipartiteGraph(n, n, [(1 << n) - 1] * k + [0] * (n - k))
            for s in range(1, 4):
                for t in range(1, 4):
                    assert ex_bip(n, k, s, t) == count_bip(host, s, t), (n, k, s, t)


def test_endpoint_max_examples():
    r = endpoint_max(lambda ell: extremal_clique_count(7, 2, ell, 2), 3, 5)
    assert r == (3, 11, True)
    r = endpoint_max(lambda x: 4, 0, 3)
    assert r.argmax == 0 and r.value == 4 and r.is_convex
    r = endpoint_max(lambda x: bip_split_count_sym(4, 2, x, 1, 2), 0, 2)
    assert r.value == 16 and r.argmax in (0, 2) and r.is_convex
    r = endpoint_max(lambda x: -x * x, -2, 2)  # concave: max strictly inside
    assert r == (0, 0, False)
    with pytest.raises(ValueError):
        endpoint_max(lambda x: x, 3, 1)
