"""Unit tests for permutations, inversion masks, codes, and patterns."""

import itertools
import os
import random
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import invarr
from invarr import columns
from invarr.columns import group_table
from invarr.perm import (
    MAX_PATTERN_WINDOWS,
    PATTERN_231,
    PATTERN_312,
    POINCARE_MATCH_PATTERNS,
    REGION_BRUHAT_EQUALITY_PATTERNS,
    WEAK_EQUALITY_PATTERNS,
    Permutation,
    avoids_all,
    code_product,
    contains_pattern,
    inverse,
    inversion_count,
    inversion_mask,
    iter_words,
    lehmer_code,
    parse_permutation,
    _pattern_windows,
    unrank_lex,
)

W25134 = Permutation((2, 5, 1, 3, 4))
W41382657 = Permutation((4, 1, 3, 8, 2, 6, 5, 7))

ALL_BUNDLE_PATTERNS = tuple(
    dict.fromkeys(
        WEAK_EQUALITY_PATTERNS
        + REGION_BRUHAT_EQUALITY_PATTERNS
        + POINCARE_MATCH_PATTERNS
    )
)


def _standardize(values):
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for r, pos in enumerate(order):
        ranks[pos] = r + 1
    return tuple(ranks)


def _contains_by_enumeration(w, pattern):
    k = pattern.n
    if k > w.n:
        return False
    return any(
        _standardize([w.word[p] for p in positions]) == pattern.word
        for positions in itertools.combinations(range(w.n), k)
    )


class TestConstruction:
    def test_word_is_validated(self):
        assert Permutation((1,)).n == 1
        with pytest.raises(ValueError, match="out of range"):
            Permutation((2, 5, 1, 3))
        with pytest.raises(ValueError, match="duplicate value"):
            Permutation((1, 2, 2, 4))
        with pytest.raises(ValueError, match="empty"):
            Permutation(())

    def test_letters_must_be_integers(self):
        with pytest.raises(TypeError):
            Permutation((2.7, 1.2))
        with pytest.raises(TypeError):
            Permutation(("2", "1"))
        w = Permutation(tuple(np.array([2, 1], dtype=np.int8)))
        assert w.word == (2, 1) and type(w.word[0]) is int

    def test_identity_and_longest(self):
        assert Permutation.identity(4).word == (1, 2, 3, 4)
        assert Permutation.longest(4).word == (4, 3, 2, 1)

    def test_str_compact_up_to_nine(self):
        assert str(W25134) == "25134"
        big = Permutation(tuple([10] + list(range(2, 10)) + [1]))
        assert str(big) == "10 2 3 4 5 6 7 8 9 1"


class TestParsing:
    def test_compact_and_separated_agree(self):
        assert parse_permutation("25134") == W25134
        assert parse_permutation("2 5 1 3 4") == W25134
        assert parse_permutation("2,5,1,3,4") == W25134
        assert parse_permutation("  2, 5  1,3 4 ") == W25134

    def test_parse_errors_name_the_offender(self):
        with pytest.raises(ValueError, match="empty"):
            parse_permutation("   ")
        with pytest.raises(ValueError, match="invalid token 'x'"):
            parse_permutation("1 x 3")
        with pytest.raises(ValueError, match="invalid character"):
            parse_permutation("12a")
        # int() and str.isdigit() accept more than the ASCII digits
        with pytest.raises(ValueError, match="invalid token '1_0'"):
            parse_permutation("2 1_0 3 4 5 6 7 8 9 1")
        with pytest.raises(ValueError, match=r"invalid token '\+2'"):
            parse_permutation("+2 1")
        with pytest.raises(ValueError, match="invalid character '٢'"):
            parse_permutation("٢1")
        with pytest.raises(ValueError, match="invalid character '²'"):
            parse_permutation("²1")
        with pytest.raises(ValueError, match="ambiguous beyond 9"):
            parse_permutation("1234567891")
        with pytest.raises(ValueError, match="not a permutation"):
            parse_permutation("2513")


class TestInversions:
    def test_frozen_examples(self):
        # slots 1, 4, 5, 6 of n = 5: the pairs (1, 3), (2, 3), (2, 4), (2, 5)
        assert inversion_mask(W25134.word) == 0b1110010
        assert inversion_mask(Permutation.identity(5).word) == 0
        w0 = Permutation.longest(5)
        assert inversion_mask(w0.word) == (1 << 10) - 1
        assert inversion_count(w0) == 10

    def test_only_identity_is_empty_and_only_longest_is_full(self):
        for n in range(1, 6):
            full = n * (n - 1) // 2
            for word in iter_words(n):
                count = inversion_mask(word).bit_count()
                assert (count == 0) == (word == Permutation.identity(n).word)
                assert (count == full) == (word == Permutation.longest(n).word)

    def test_mask_slots_are_lexicographic(self):
        assert inversion_mask((2, 1, 3, 4)) == 1 << 0  # (1, 2)
        assert inversion_mask((2, 3, 4, 1)) == 1 << 2 | 1 << 4 | 1 << 5  # (1, 4), (2, 4), (3, 4)
        assert inversion_mask((1, 2, 4, 3)) == 1 << 5  # (3, 4)
        pairs = list(itertools.combinations(range(4), 2))
        for word in iter_words(4):
            mask = inversion_mask(word)
            bits = [mask >> slot & 1 for slot in range(len(pairs))]
            assert bits == [int(word[i] > word[j]) for i, j in pairs], word


class TestLehmerCode:
    def test_frozen_examples(self):
        assert lehmer_code(W41382657) == (3, 0, 1, 4, 0, 1, 0, 0)
        assert lehmer_code(W25134) == (1, 3, 0, 0, 0)
        assert lehmer_code(Permutation.identity(4)) == (0, 0, 0, 0)
        assert lehmer_code(Permutation.longest(4)) == (3, 2, 1, 0)

    def test_code_sums_to_inversion_count(self):
        for n in range(1, 8):
            for word in iter_words(n):
                w = Permutation(word)
                assert sum(lehmer_code(w)) == inversion_count(w)

    def test_code_product_values(self):
        assert code_product(Permutation.identity(6)) == 1
        assert code_product(W25134) == 8
        assert code_product(W41382657) == 80
        assert code_product(Permutation.longest(4)) == 24

    def test_code_product_cap(self):
        assert code_product(Permutation.longest(20)) == factorial(20)
        with pytest.raises(ValueError, match="n <= 20"):
            code_product(Permutation.longest(21))


class TestInverseAndSymmetry:
    def test_inverse_examples(self):
        assert inverse(W25134).word == (3, 1, 4, 5, 2)
        assert inverse(Permutation.identity(5)) == Permutation.identity(5)

    def test_inverse_is_involutive_and_preserves_inversions(self):
        for word in iter_words(5):
            w = Permutation(word)
            assert inverse(inverse(w)) == w
            assert inversion_count(inverse(w)) == inversion_count(w)


class TestPatterns:
    def test_frozen_examples(self):
        assert contains_pattern(W25134, PATTERN_231)
        assert contains_pattern(W25134, PATTERN_312)  # e.g. the subsequence 5 1 3
        assert not contains_pattern(Permutation((2, 3, 1)), PATTERN_312)
        assert contains_pattern(W41382657, PATTERN_231)
        assert not contains_pattern(Permutation.identity(5), PATTERN_231)
        assert avoids_all(W25134, REGION_BRUHAT_EQUALITY_PATTERNS)
        assert not avoids_all(W25134, WEAK_EQUALITY_PATTERNS)

    def test_pattern_longer_than_word(self):
        assert not contains_pattern(PATTERN_231, W25134)

    def test_every_word_contains_itself_and_trivial_patterns(self):
        for word in iter_words(4):
            w = Permutation(word)
            assert contains_pattern(w, w)
            assert contains_pattern(w, Permutation((1,)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_subsequence_enumeration(self, n):
        # every pattern of S3 and S4, and the bundle patterns of S5 and S6
        patterns = [Permutation(p) for k in (3, 4) for p in iter_words(k)]
        patterns += [p for p in ALL_BUNDLE_PATTERNS if p.n > 4]
        for word in iter_words(n):
            w = Permutation(word)
            for pattern in patterns:
                assert contains_pattern(w, pattern) == _contains_by_enumeration(
                    w, pattern
                ), (word, pattern.word)

    def test_pattern_windows(self):
        # 2 4 1 3: 4 lies above the 2 chosen first; 1 below everything;
        # 3 between the 2 and the 4.  k = 4 and 5 are the open sentinels.
        assert _pattern_windows((2, 4, 1, 3)) == ((4, 5), (0, 5), (4, 0), (0, 1))
        assert _pattern_windows.cache_info().maxsize == MAX_PATTERN_WINDOWS

    def test_agrees_with_subsequence_enumeration_full_s7(self):
        by_length = {}
        for pattern in ALL_BUNDLE_PATTERNS:
            by_length.setdefault(pattern.n, []).append(pattern)
        combos = {
            k: tuple(itertools.combinations(range(7), k)) for k in by_length
        }
        for word in iter_words(7):
            w = Permutation(word)
            for k, patterns in by_length.items():
                seen = {
                    _standardize([word[p] for p in positions])
                    for positions in combos[k]
                }
                for pattern in patterns:
                    assert contains_pattern(w, pattern) == (pattern.word in seen), (
                        word,
                        pattern.word,
                    )

    def test_reverse_complement_symmetry(self):
        def reverse_complement(w):
            return Permutation(tuple(w.n + 1 - v for v in reversed(w.word)))

        assert reverse_complement(PATTERN_231) == PATTERN_312
        for n in range(2, 7):
            for word in iter_words(n):
                w = Permutation(word)
                rc = reverse_complement(w)
                for pattern in ALL_BUNDLE_PATTERNS:
                    assert contains_pattern(w, pattern) == contains_pattern(
                        rc, reverse_complement(pattern)
                    )


class TestEnumeration:
    def test_unrank_matches_iteration_order(self):
        for n in (1, 3, 5):
            for rank, word in enumerate(iter_words(n)):
                assert unrank_lex(n, rank).word == word

    def test_unrank_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            unrank_lex(3, 6)
        with pytest.raises(ValueError, match="out of range"):
            unrank_lex(3, -1)


class TestGroupTable:
    def test_rows_match_the_per_word_loops(self):
        for n in range(1, 8):
            table = group_table(n)
            words = list(iter_words(n))
            assert [tuple(row) for row in table.words.tolist()] == words
            assert table.masks.tolist() == [inversion_mask(word) for word in words]
            assert table.inv.tolist() == [
                inversion_mask(word).bit_count() for word in words
            ]
            assert table.dom.shape == (factorial(n), n * n)
            assert table.dom.flags.f_contiguous and not table.dom.flags.writeable

    def test_bruhat_below_matches_the_full_dominance_compare(self):
        rng = random.Random(8)
        cases = [(n, range(factorial(n))) for n in range(1, 8)]
        cases.append((8, [0, factorial(8) - 1] + rng.sample(range(factorial(8)), 400)))
        for n, ranks in cases:
            table = group_table(n)
            for k in ranks:  # rank 0 is the identity, rank n! - 1 is w0
                full = (table.dom <= table.dom[k]).all(axis=1)
                below = table.bruhat_below(tuple(table.words[k].tolist()))
                assert np.array_equal(below, full), (n, k)

    def test_cached_read_only_and_capped(self):
        table = group_table(4)
        assert group_table(4) is table
        assert table.masks.dtype == np.uint32
        with pytest.raises(ValueError, match="read-only"):
            table.masks[0] = 1
        with pytest.raises(ValueError, match="n <= 8"):
            group_table(9)

    def test_masks_refuse_more_than_32_pair_slots(self, monkeypatch):
        # C(9, 2) = 36 slots exceed the 32 bits of a uint32 mask; a raised
        # cap must fail before building
        monkeypatch.setattr(columns, "MAX_TABLE_N", 9)
        with pytest.raises(ValueError, match="32 pair slots"):
            group_table.__wrapped__(9)

    def test_import_refuses_numpy_without_bitwise_count(self):
        # np.bitwise_count is the package's one bit count: without it
        # (NumPy 1.x) the import fails at once, naming the NumPy it needs
        env = {**os.environ, "PYTHONPATH": str(Path(invarr.__file__).parents[1])}
        code = "import numpy; del numpy.bitwise_count; import invarr"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
        )
        assert done.returncode != 0 and "NumPy >= 2.0" in done.stderr
