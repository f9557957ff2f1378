"""Property tests of the paper's chain past the group table, n = 9..12.

No column covers these groups, so each statistic comes from its
single-word route: wk and the weak Poincare polynomial from the weak
BFS, rk from the Ryser permanent, ao from the chromatic polynomial.
Hypothesis draws the words, derandomized so that every run checks the
same ones.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from invarr.arrangement import count_acyclic_orientations, inversion_graph  # noqa: E402
from invarr.orders import MAX_WEAK_STATES, product_q_formula, weak_interval  # noqa: E402
from invarr.perm import (  # noqa: E402
    PATTERN_231,
    PATTERN_312,
    Permutation,
    code_product,
    contains_pattern,
)
from invarr.rook import rook_count  # noqa: E402

# The draws stay far inside the weak BFS's admission budget, where one
# word takes about 2 s; at this budget the class takes about 1.2 s.
DRAW_STATES = 16384
assert DRAW_STATES <= MAX_WEAK_STATES


@st.composite
def admitted_words(draw, n: int) -> Permutation:
    """A word of S_n with code product at most ``DRAW_STATES``, drawn by
    its Lehmer code from the right.

    Words of S_9 and up almost never avoid 231 or 312, so two draws in
    three steer the code toward one of them: c_i <= c_{i+1} + 1 gives a
    312-avoider, and c_j <= c_i - (j - i) for i < j <= i + c_i gives a
    231-avoider (both rules hold on all of S_1..S_8).  The tests read the
    flags by backtracking, not from the draw.
    """
    avoid = draw(st.sampled_from([None, PATTERN_231, PATTERN_312]))
    code = [0] * n
    room = DRAW_STATES
    for i in reversed(range(n)):
        top = min(n - 1 - i, room - 1)
        if avoid == PATTERN_312 and i < n - 1:
            top = min(top, code[i + 1] + 1)
        values = [
            v
            for v in range(top + 1)
            if avoid != PATTERN_231
            or all(code[j] + j - i <= v for j in range(i + 1, i + v + 1))
        ]
        code[i] = draw(st.sampled_from(values))
        room //= code[i] + 1
    unused = list(range(1, n + 1))
    return Permutation(tuple(unused.pop(c) for c in code))


class TestChainPastTheGroupTable:
    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_chain_and_its_equality_cases(self, n):
        seen = set()

        @settings(derandomize=True, database=None, deadline=None, max_examples=30)
        @given(admitted_words(n))
        def check(w):
            weak = weak_interval(w)
            prod = code_product(w)
            rk = rook_count(w)
            avoids_231 = not contains_pattern(w, PATTERN_231)
            avoids_312 = not contains_pattern(w, PATTERN_312)
            assert weak.size <= prod <= rk
            assert rk == count_acyclic_orientations(inversion_graph(w))
            assert (weak.size == prod) == avoids_231
            assert (prod == rk) == avoids_312
            if avoids_231:
                assert weak.poincare == product_q_formula(w)
            seen.add((avoids_231, avoids_312))

        check()
        # the draws reach both sides of each equivalence
        assert {a for a, _ in seen} == {False, True}
        assert {b for _, b in seen} == {False, True}
