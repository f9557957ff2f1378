"""Unit tests for inversion graphs, chromatic counts, and region masks."""

import itertools
import random
from math import factorial

import numpy as np
import pytest

from invarr import arrangement
from invarr.arrangement import (
    InversionGraph,
    chromatic_polynomial,
    count_acyclic_orientations,
    count_acyclic_orientations_by_enumeration,
    distance_enumerator,
    distance_of_regions,
    inversion_graph,
    regions,
    regions_by_sort,
)
from invarr.orders import bruhat_interval, weak_interval
from invarr.perm import (
    POINCARE_MATCH_PATTERNS,
    Permutation,
    avoids_all,
    inverse,
    inversion_count,
    inversion_mask,
    iter_words,
    unrank_lex,
)
from invarr.qpoly import QPolynomial
from invarr.rook import rook_count
from invarr.verify import stat_record

W25134 = Permutation((2, 5, 1, 3, 4))


def _graph(n, *edges):
    return InversionGraph(n, frozenset(tuple(sorted(e)) for e in edges))


class TestInversionGraph:
    def test_examples(self):
        assert inversion_graph(Permutation.identity(4)).edges == frozenset()
        k3 = inversion_graph(Permutation.longest(3))
        assert k3.edges == frozenset({(1, 2), (1, 3), (2, 3)})
        assert inversion_graph(W25134).edges == frozenset(
            {(1, 3), (2, 3), (2, 4), (2, 5)}
        )
        assert inversion_graph(W25134).edge_count == 4

    def test_edge_validation(self):
        with pytest.raises(ValueError, match="bad edge"):
            InversionGraph(3, frozenset({(1, 4)}))
        with pytest.raises(ValueError, match="bad edge"):
            InversionGraph(3, frozenset({(2, 2)}))


class TestChromatic:
    def test_base_cases(self):
        assert chromatic_polynomial(_graph(1)) == (0, 1)
        assert chromatic_polynomial(_graph(3)) == (0, 0, 0, 1)
        # triangle: k(k-1)(k-2)
        assert chromatic_polynomial(_graph(3, (1, 2), (1, 3), (2, 3))) == (0, 2, -3, 1)
        # path on 3 vertices: k(k-1)^2
        assert chromatic_polynomial(_graph(3, (1, 2), (2, 3))) == (0, 1, -2, 1)
        # 4-cycle: (k-1)^4 + (k-1)
        assert chromatic_polynomial(_graph(4, (1, 2), (2, 3), (3, 4), (1, 4))) == (
            0,
            -3,
            6,
            -4,
            1,
        )
        # two disjoint edges plus an isolated vertex: k^3 (k-1)^2
        assert chromatic_polynomial(_graph(5, (1, 2), (3, 4))) == (0, 0, 0, 1, -2, 1)

    def test_widest_products_at_twelve_vertices(self):
        # the edgeless graph gives k^12, and K12 the falling factorial
        # k(k-1)...(k-11), whose coefficients reach 12! in size
        assert chromatic_polynomial(_graph(12)) == (0,) * 12 + (1,)
        falling = [1]
        for j in range(12):
            falling = [s - j * f for s, f in zip([0, *falling], [*falling, 0])]
        complete = _graph(12, *itertools.combinations(range(1, 13), 2))
        assert chromatic_polynomial(complete) == tuple(falling)
        assert falling[1] == -factorial(11)
        assert count_acyclic_orientations(complete) == factorial(12)

    def test_proper_colorings_by_direct_count(self):
        graphs = [
            _graph(4, (1, 2), (2, 3), (3, 4), (1, 4)),
            _graph(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
            _graph(5, (1, 2), (2, 3), (2, 4), (2, 5), (1, 3)),
        ]
        for g in graphs:
            coeffs = chromatic_polynomial(g)
            for k in range(5):
                value = sum(c * k**d for d, c in enumerate(coeffs))
                colorings = sum(
                    all(colors[a - 1] != colors[b - 1] for a, b in g.edges)
                    for colors in _all_colorings(g.n, k)
                )
                assert value == colorings, (g.edges, k)

    def test_cap(self):
        with pytest.raises(ValueError, match="n <= 12"):
            chromatic_polynomial(_graph(13))

    def test_matches_networkx_on_graphs_that_are_not_inversion_graphs(self):
        # the public API takes any simple graph: compare every coefficient
        # (at most 9 edges, as networkx's own expansion slows on dense graphs)
        nx = pytest.importorskip("networkx")
        rng = random.Random(615)
        checked = 0
        while checked < 15:
            n = rng.randint(1, 6)
            possible = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
            m = rng.randint(0, min(9, len(possible)))
            g = InversionGraph(n, frozenset(rng.sample(possible, m)))
            if any(inversion_graph(Permutation(w)).edges == g.edges for w in iter_words(n)):
                continue
            graph = nx.Graph()
            graph.add_nodes_from(range(1, n + 1))
            graph.add_edges_from(g.edges)
            chi = nx.chromatic_polynomial(graph)
            (x,) = chi.free_symbols
            expected = tuple(int(c) for c in reversed(chi.as_poly(x).all_coeffs()))
            assert chromatic_polynomial(g) == expected, g.edges
            checked += 1

    def test_memo_stays_under_its_cap_and_clearing_changes_nothing(self, monkeypatch):
        graphs = [inversion_graph(Permutation(w)) for w in iter_words(6)]
        monkeypatch.setattr(arrangement, "_CHROMATIC_MEMO", {})
        unbounded = [chromatic_polynomial(g) for g in graphs]
        assert len(arrangement._CHROMATIC_MEMO) > 8

        monkeypatch.setattr(arrangement, "MAX_CHROMATIC_MEMO", 8)
        monkeypatch.setattr(arrangement, "_CHROMATIC_MEMO", {})
        for g, expected in zip(graphs, unbounded):
            assert chromatic_polynomial(g) == expected
            assert len(arrangement._CHROMATIC_MEMO) <= 8


def _all_colorings(n, k):
    if k == 0:
        return [] if n else [()]
    out = [()]
    for _ in range(n):
        out = [c + (x,) for c in out for x in range(k)]
    return out


class TestAcyclicOrientations:
    def test_frozen_examples(self):
        assert count_acyclic_orientations(inversion_graph(W25134)) == 16
        assert count_acyclic_orientations(inversion_graph(Permutation((3, 4, 1, 2)))) == 14
        assert count_acyclic_orientations(_graph(3, (1, 2), (1, 3), (2, 3))) == 6
        assert count_acyclic_orientations(_graph(4)) == 1
        for n in range(1, 7):
            assert count_acyclic_orientations(
                inversion_graph(Permutation.longest(n))
            ) == factorial(n)

    def test_matches_enumeration_on_s4_and_random_graphs(self):
        for word in iter_words(4):
            g = inversion_graph(Permutation(word))
            assert count_acyclic_orientations(g) == (
                count_acyclic_orientations_by_enumeration(g)
            )
        rng = random.Random(7)
        for _ in range(12):
            n = rng.randint(2, 7)
            possible = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
            m = rng.randint(0, min(10, len(possible)))
            g = InversionGraph(n, frozenset(rng.sample(possible, m)))
            assert count_acyclic_orientations(g) == (
                count_acyclic_orientations_by_enumeration(g)
            ), g.edges

    def test_equals_rook_count_past_the_group_table(self):
        # rk = ao by two independent routes at n = 9..12, beyond the
        # whole-group columns; seeded, so the words are the same each run
        rng = random.Random(912)
        for n in range(9, 13):
            words = [Permutation.identity(n), Permutation.longest(n)]
            for _ in range(4):
                word = list(range(1, n + 1))
                rng.shuffle(word)
                words.append(Permutation(tuple(word)))
            for w in words:
                assert count_acyclic_orientations(inversion_graph(w)) == rook_count(w), w
            assert count_acyclic_orientations(
                inversion_graph(Permutation.longest(n))
            ) == factorial(n)

    def test_invariant_under_inverse(self):
        for n in range(1, 6):
            for word in iter_words(n):
                w = Permutation(word)
                assert count_acyclic_orientations(
                    inversion_graph(w)
                ) == count_acyclic_orientations(inversion_graph(inverse(w)))

    def test_enumeration_cap(self):
        big = inversion_graph(Permutation.longest(7))
        assert big.edge_count == 21
        with pytest.raises(ValueError, match="m <= 16"):
            count_acyclic_orientations_by_enumeration(big)


class TestRegions:
    def test_frozen_sizes(self):
        assert regions(Permutation.identity(4)).size == 1
        assert regions(Permutation.longest(3)).size == 6
        assert regions(Permutation.longest(4)).size == 24
        assert regions(W25134).size == 16

    def test_structure(self):
        masks = regions_by_sort(W25134)
        assert masks.tolist() == sorted(set(masks.tolist()))
        assert masks[0] == 0 and masks[-1] == inversion_mask(W25134.word)
        assert int(np.bitwise_count(masks).max()) == inversion_count(W25134)

    def test_matches_orientation_count(self):
        for n in range(1, 6):
            for word in iter_words(n):
                w = Permutation(word)
                assert regions(w).size == count_acyclic_orientations(
                    inversion_graph(w)
                ), word

    def test_cap(self):
        with pytest.raises(ValueError, match="n <= 8"):
            regions(Permutation.longest(9))

    def test_masks_agree_with_the_compacted_signs(self):
        # The base chamber (mask 0) and the chamber of w (mask I(w)) are
        # the first and last of the sorted masks.  The region count and
        # distances are checked against the re and distance columns by
        # tests/test_columns.py and the oracle rows.
        for word in _region_sample_words():
            masks = regions_by_sort(Permutation(word))
            assert masks[0] == 0 and masks[-1] == inversion_mask(word), word

    def test_gate_regions_match_the_region_sort(self):
        # one gate per region: the gates' masks are the sort's, each once
        for word in _region_sample_words():
            w = Permutation(word)
            gates, by_sort = regions(w), regions_by_sort(w)
            assert gates.dtype == by_sort.dtype == np.uint32, word
            assert np.sort(gates).tolist() == by_sort.tolist(), word


def _region_sample_words() -> list:
    """All of S1..S7, the identity and the longest word of S8, and a
    seeded sample of 400 words of S8."""
    rng = random.Random(5)
    words = [w for n in range(1, 8) for w in iter_words(n)]
    words += [unrank_lex(8, r).word for r in (0, factorial(8) - 1)]
    words += [unrank_lex(8, r).word for r in rng.sample(range(factorial(8)), 400)]
    return words


class TestDistanceEnumerator:
    def test_frozen_examples(self):
        assert distance_enumerator(Permutation.identity(3)) == QPolynomial((1,))
        assert distance_enumerator(Permutation((3, 1, 2))) == QPolynomial((1, 2, 1))
        assert distance_enumerator(Permutation.longest(3)) == QPolynomial((1, 2, 2, 1))
        assert distance_enumerator(W25134)(1) == 16

    def test_total_and_degree(self):
        for word in iter_words(5):
            w = Permutation(word)
            rs = regions(w)
            poly = distance_of_regions(rs)
            assert poly(1) == rs.size
            assert poly.degree == inversion_count(w)
            assert poly.coeffs[0] == 1

    def test_distance_of_regions_leaves_its_masks_unchanged(self):
        # stat_record counts the masks it passed to distance_of_regions as
        # re, so they must still be the regions afterwards
        w41382657 = Permutation((4, 1, 3, 8, 2, 6, 5, 7))
        assert not avoids_all(w41382657, (Permutation((2, 3, 1)),))
        for w in (Permutation.longest(8), w41382657):
            masks = regions(w)
            before = masks.copy()
            poly = distance_of_regions(masks)
            assert np.array_equal(masks, before), w
            assert distance_of_regions(masks) == poly == distance_enumerator(w)
            assert stat_record(w, "with_region_oracle").re == regions(w).size

    def test_longest_element_matches_weak_poincare(self):
        for n in range(1, 7):
            w0 = Permutation.longest(n)
            assert distance_enumerator(w0) == weak_interval(w0).poincare

    def test_matches_bruhat_poincare_iff_pattern_class(self):
        for n in range(1, 6):
            for word in iter_words(n):
                w = Permutation(word)
                same = distance_enumerator(w) == bruhat_interval(w).poincare
                assert same == avoids_all(w, POINCARE_MATCH_PATTERNS), word
