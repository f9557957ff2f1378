"""Unit tests for diagrams, rook counts, and board shapes."""

from math import factorial

import numpy as np
import pytest

from invarr import rook
from invarr.perm import (
    PATTERN_312,
    Permutation,
    contains_pattern,
    iter_words,
    lehmer_code,
)
from invarr.rook import (
    Board,
    count_rook_placements_by_backtracking,
    is_right_justified_ferrers,
    rook_count,
    southwest_diagram,
)

W25134 = Permutation((2, 5, 1, 3, 4))


class TestBoard:
    def test_cell_validation(self):
        with pytest.raises(ValueError, match="outside"):
            Board(3, frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="outside"):
            Board(3, frozenset({(1, 4)}))

    def test_row_views(self):
        board = Board(3, frozenset({(1, 2), (1, 3), (3, 1)}))
        assert board.row_counts() == (2, 0, 1)
        assert board.row_masks() == (0b110, 0, 0b001)

    def test_complement(self):
        board = Board(2, frozenset({(1, 1)}))
        assert board.complement().cells == frozenset({(1, 2), (2, 1), (2, 2)})
        assert board.complement().complement() == board


class TestSouthwestDiagram:
    def test_examples(self):
        assert southwest_diagram(Permutation.longest(4)).cells == frozenset()
        assert sorted(southwest_diagram(Permutation.identity(3)).cells) == [
            (1, 2),
            (1, 3),
            (2, 3),
        ]
        assert sorted(southwest_diagram(W25134).cells) == [
            (1, 3),
            (1, 4),
            (1, 5),
            (3, 3),
            (3, 4),
            (4, 4),
        ]

    def test_row_count_identity(self):
        """Row i of the diagram holds n - i - c_i cells, for every word."""
        for n in range(1, 8):
            for word in iter_words(n):
                w = Permutation(word)
                counts = southwest_diagram(w).row_counts()
                code = lehmer_code(w)
                for i in range(n):
                    assert counts[i] == n - (i + 1) - code[i], (word, i)


class TestRookCount:
    def test_frozen_examples(self):
        assert rook_count(W25134) == 16
        assert rook_count(Permutation((3, 1, 2))) == 4
        assert rook_count(Permutation.identity(4)) == 1
        for n in range(2, 7):
            assert rook_count(Permutation.longest(n)) == factorial(n)

    def test_full_and_empty_boards(self):
        full = Board(4, frozenset((r, c) for r in range(1, 5) for c in range(1, 5)))
        empty = Board(4, frozenset())
        rows = np.array([full.row_masks(), empty.row_masks()], dtype=np.uint16)
        assert rook.permanents(rows).tolist() == [factorial(4), 0]

    def test_rook_count_matches_backtracking(self):
        for n in range(1, 6):
            for word in iter_words(n):
                w = Permutation(word)
                slow = count_rook_placements_by_backtracking(southwest_diagram(w).complement())
                assert rook_count(w) == slow, word

    def test_batched_permanents_span_blocks_and_wide_products(self):
        # 300 boards at n = 7 fill three Ryser blocks; n = 10..12 take int64 products
        words = list(iter_words(7))[::17]
        rows = np.array(
            [southwest_diagram(Permutation(w)).complement().row_masks() for w in words],
            dtype=np.uint16,
        )
        assert len(rows) > 2 * (rook._RYSER_CHUNK >> 7)
        expected = [
            count_rook_placements_by_backtracking(southwest_diagram(Permutation(w)).complement())
            for w in words
        ]
        assert rook.permanents(rows).tolist() == expected
        for n in (10, 11, 12):
            assert rook_count(Permutation.longest(n)) == factorial(n)
            assert rook_count(Permutation.identity(n)) == 1

    def test_ryser_terms_are_cached_and_read_only(self):
        subsets, signs = rook._ryser_terms(5)
        assert rook._ryser_terms(5)[0] is subsets
        assert subsets.tolist() == list(range(32))
        assert signs.tolist() == [(-1) ** (5 - s.bit_count()) for s in range(32)]
        assert not subsets.flags.writeable and not signs.flags.writeable
        assert rook._ryser_terms.cache_info().maxsize == rook.MAX_PERMANENT_N

    def test_caps(self):
        with pytest.raises(ValueError, match="n <= 12"):
            rook_count(Permutation.longest(13))


class TestShape:
    def test_examples(self):
        assert is_right_justified_ferrers(southwest_diagram(Permutation((2, 3, 1))))
        assert not is_right_justified_ferrers(southwest_diagram(Permutation((3, 1, 2))))
        assert is_right_justified_ferrers(Board(3, frozenset()))
        # right-justified rows of lengths (2, 1)
        assert is_right_justified_ferrers(Board(3, frozenset({(1, 2), (1, 3), (2, 3)})))
        # equal length but left-justified second row
        assert not is_right_justified_ferrers(
            Board(3, frozenset({(1, 2), (1, 3), (2, 1)}))
        )
        # increasing row lengths
        assert not is_right_justified_ferrers(
            Board(3, frozenset({(1, 3), (2, 2), (2, 3)}))
        )

    def test_avoiding_312_forces_ferrers_shape(self):
        for n in range(1, 8):
            for word in iter_words(n):
                w = Permutation(word)
                if not contains_pattern(w, PATTERN_312):
                    assert is_right_justified_ferrers(southwest_diagram(w)), word
