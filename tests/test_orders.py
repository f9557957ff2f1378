"""Unit tests for weak order, Bruhat order, and the code-order bridges."""

import itertools
import random
import time
from math import factorial

import pytest

from invarr.orders import (
    MAX_WEAK_STATES,
    bruhat_interval,
    bruhat_interval_by_chains,
    code_monotone_check,
    product_q_formula,
    weak_interval,
    weak_interval_by_filter,
    weak_leq,
    witness_231_reduction,
)
from invarr.perm import (
    PATTERN_231,
    Permutation,
    code_product,
    contains_pattern,
    inversion_count,
    iter_words,
    lehmer_code,
)
from invarr.qpoly import QPolynomial

W25134 = Permutation((2, 5, 1, 3, 4))
W41382657 = Permutation((4, 1, 3, 8, 2, 6, 5, 7))


class TestWeakOrder:
    def test_identity_below_everything(self):
        for word in iter_words(4):
            assert weak_leq(Permutation.identity(4), Permutation(word))

    def test_frozen_comparisons(self):
        assert weak_leq(Permutation((1, 3, 2, 4, 5)), W25134)
        assert not weak_leq(Permutation((2, 1, 3, 4, 5)), W25134)
        assert not weak_leq(W25134, Permutation((1, 3, 2, 4, 5)))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mixed sizes"):
            weak_leq(Permutation((1, 2)), Permutation((1, 2, 3)))

    def test_interval_of_25134(self):
        summary = weak_interval(W25134, with_elements=True)
        assert summary.size == 7
        assert summary.max_length == 4
        assert summary.poincare == QPolynomial((1, 1, 2, 2, 1))
        assert {str(e) for e in summary.elements} == {
            "12345",
            "13245",
            "23145",
            "14235",
            "24135",
            "15234",
            "25134",
        }

    def test_interval_endpoints(self):
        assert weak_interval(Permutation.identity(5)).size == 1
        w0 = Permutation.longest(3)
        summary = weak_interval(w0)
        assert summary.size == 6
        assert summary.poincare == QPolynomial((1, 2, 2, 1))

    def test_elements_sorted_and_membership_matches_leq(self):
        for word in iter_words(4):
            w = Permutation(word)
            summary = weak_interval(w, with_elements=True)
            words = [e.word for e in summary.elements]
            assert words == sorted(words)
            below = {u for u in iter_words(4) if weak_leq(Permutation(u), w)}
            assert set(words) == below

    def test_poincare_shape(self):
        for word in iter_words(5):
            w = Permutation(word)
            summary = weak_interval(w)
            assert summary.poincare(1) == summary.size
            assert summary.poincare.degree == inversion_count(w)
            assert summary.max_length == inversion_count(w)
            assert summary.poincare.coeffs[0] == 1

    def test_bfs_matches_filter_oracle(self):
        for n in range(1, 6):
            for word in iter_words(n):
                w = Permutation(word)
                fast = weak_interval(w, with_elements=True)
                slow = weak_interval_by_filter(w, with_elements=True)
                assert fast.size == slow.size
                assert fast.poincare == slow.poincare
                assert fast.elements == slow.elements

    def test_cap(self):
        with pytest.raises(ValueError, match="n <= 12"):
            weak_interval(Permutation.longest(13))

    def test_state_budget_refuses_before_the_search(self):
        for n in (11, 12):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="over the budget"):
                weak_interval(Permutation.longest(n))
            assert time.perf_counter() - start < 0.010, n
        # a word of S_11 with a small code product still runs
        w = Permutation((3, 1, 2, 4, 5, 6, 7, 8, 11, 9, 10))
        assert code_product(w) == 9 <= MAX_WEAK_STATES
        summary = weak_interval(w)
        assert summary.size == 9 and summary.poincare == product_q_formula(w)


def _random_231_avoider(rng: random.Random, values: list[int]) -> list[int]:
    """A 231-avoiding arrangement of the increasing ``values``.

    Every entry left of the maximum is smaller than every entry right of
    it, and both sides avoid 231 in turn.
    """
    if not values:
        return []
    k = rng.randrange(len(values))
    rest = values[:-1]
    return (
        _random_231_avoider(rng, rest[:k])
        + [values[-1]]
        + _random_231_avoider(rng, rest[k:])
    )


class TestWeakBeyondTheGroupTable:
    """Past n = 8 the BFS is the only weak route; check it on seeded draws."""

    @pytest.mark.parametrize("n", [9, 10])
    def test_random_permutations(self, n):
        rng = random.Random(1000 + n)
        draws = []
        for _ in range(25):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            draws.append(Permutation(tuple(word)))
        for _ in range(25):
            draws.append(Permutation(tuple(_random_231_avoider(rng, list(range(1, n + 1))))))
        avoiders = 0
        for w in draws:
            summary = weak_interval(w)
            prod = code_product(w)
            avoids = not contains_pattern(w, PATTERN_231)
            assert summary.size <= prod, w.word
            assert (summary.size == prod) == avoids, w.word
            if avoids:
                avoiders += 1
                assert summary.poincare == product_q_formula(w), w.word
            assert summary.poincare(1) == summary.size
            assert summary.poincare.degree == inversion_count(w)
        assert 25 <= avoiders < len(draws)
        with pytest.raises(ValueError, match="n <= 8"):
            weak_interval_by_filter(draws[0])


class TestBruhatOrder:
    def test_frozen_comparisons(self):
        def below(w):
            return bruhat_interval(w, with_elements=True).elements

        assert Permutation((2, 1, 3, 4, 5)) in below(W25134)
        assert Permutation((2, 3, 1, 4, 5)) in below(W25134)
        assert Permutation.longest(3) not in below(Permutation((2, 3, 1)))
        assert W25134 not in below(Permutation((2, 1, 3, 4, 5)))

    def test_weak_implies_bruhat(self):
        for n in range(1, 7):
            for word in iter_words(n):
                w = Permutation(word)
                weak = weak_interval(w, with_elements=True).elements
                bruhat = bruhat_interval(w, with_elements=True).elements
                assert set(weak) <= set(bruhat), word

    def test_interval_of_312(self):
        summary = bruhat_interval(Permutation((3, 1, 2)), with_elements=True)
        assert summary.size == 4
        assert summary.poincare == QPolynomial((1, 2, 1))
        assert [str(e) for e in summary.elements] == ["123", "132", "213", "312"]

    def test_interval_of_25134(self):
        assert bruhat_interval(W25134).size == 16

    def test_longest_interval_is_whole_group(self):
        for n in range(1, 6):
            summary = bruhat_interval(Permutation.longest(n))
            assert summary.size == factorial(n)

    def test_dominance_matches_chain_closure(self):
        for n in range(1, 5):
            for word in iter_words(n):
                w = Permutation(word)
                fast = bruhat_interval(w, with_elements=True)
                slow = bruhat_interval_by_chains(w, with_elements=True)
                assert fast.size == slow.size
                assert fast.poincare == slow.poincare
                assert fast.elements == slow.elements

    def test_caps(self):
        with pytest.raises(ValueError, match="n <= 8"):
            bruhat_interval(Permutation.longest(9))
        with pytest.raises(ValueError, match="n <= 6"):
            bruhat_interval_by_chains(Permutation.longest(7))


class TestCodeOrder:
    def test_product_formula_examples(self):
        assert product_q_formula(Permutation.identity(4)) == QPolynomial((1,))
        assert product_q_formula(Permutation.longest(3)) == QPolynomial((1, 2, 2, 1))
        assert product_q_formula(Permutation((3, 1, 2))) == QPolynomial((1, 1, 1))
        assert product_q_formula(W25134)(1) == 8

    def test_product_formula_equals_the_q_integer_product(self):
        for n in range(1, 7):
            for word in iter_words(n):
                w = Permutation(word)
                expected = QPolynomial.one()
                for c in lehmer_code(w):
                    expected = expected * QPolynomial.q_integer(c + 1)
                assert product_q_formula(w) == expected, word

    def test_product_formula_cap_refuses_before_the_convolution(self):
        # the coefficients sum to code_product(w) <= n!, and 20! < 2^63
        assert product_q_formula(Permutation.longest(20))(1) == factorial(20)
        for n in (21, 120):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="n <= 20"):
                product_q_formula(Permutation.longest(n))
            assert time.perf_counter() - start < 0.010, n

    def test_code_monotone_examples(self):
        assert code_monotone_check(Permutation.identity(5), W25134)
        # code dominance holds here although weak order does not
        u = Permutation((2, 1, 3, 4, 5))
        assert code_monotone_check(u, W25134)
        assert not weak_leq(u, W25134)
        assert not code_monotone_check(W25134, u)

    def test_weak_leq_implies_code_monotone(self):
        for n in range(1, 7):
            for word in iter_words(n):
                w = Permutation(word)
                for u in weak_interval(w, with_elements=True).elements:
                    assert code_monotone_check(u, w), (u.word, word)


class TestWitnessReduction:
    def test_worked_example(self):
        triple, reduced = witness_231_reduction(W41382657)
        assert triple == (1, 4, 5)
        assert str(reduced) == "41325768"
        assert lehmer_code(reduced) == (3, 0, 1, 0, 0, 1, 0, 0)
        assert code_monotone_check(reduced, W41382657)
        assert not weak_leq(reduced, W41382657)

    def test_small_example(self):
        triple, reduced = witness_231_reduction(PATTERN_231)
        assert triple == (1, 2, 3)
        assert reduced.word == (2, 1, 3)

    def test_avoiders_get_none(self):
        assert witness_231_reduction(Permutation.identity(5)) is None
        assert witness_231_reduction(Permutation((3, 1, 2))) is None

    def test_reduction_properties(self):
        """The reduction drops exactly one code entry and leaves weak order."""
        for n in range(2, 7):
            for word in iter_words(n):
                w = Permutation(word)
                out = witness_231_reduction(w)
                assert (out is not None) == contains_pattern(w, PATTERN_231)
                if out is None:
                    continue
                (i, j, j1), reduced = out
                assert j1 == j + 1 and 1 <= i < j
                assert word[j1 - 1] < word[i - 1] < word[j - 1]
                cw, cr = lehmer_code(w), lehmer_code(reduced)
                assert cr[j - 1] < cw[j - 1]
                assert all(
                    a == b for t, (a, b) in enumerate(zip(cr, cw)) if t != j - 1
                )
                assert code_monotone_check(reduced, w)
                assert not weak_leq(reduced, w)

    def test_witness_is_lexicographically_smallest(self):
        for word in iter_words(5):
            w = Permutation(word)
            adjacent = [
                (i, j)
                for i in range(1, 5)
                for j in range(i + 1, 5)
                if word[j] < word[i - 1] < word[j - 1]
            ]
            out = witness_231_reduction(w)
            if not adjacent:
                assert out is None
            else:
                assert out is not None
                assert out[0][:2] == min(adjacent)
