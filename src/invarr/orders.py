"""Weak and Bruhat order on the symmetric group.

Left weak order is containment of inversion sets: u <= w exactly when
I(u) is a subset of I(w).  ``weak_interval`` is the one route to [id, w]
for every caller: for n <= 8 it filters the whole-group table
(``columns.group_table``) by that containment, and past the table it
searches breadth-first upward from the identity (``_weak_search``),
multiplying on the left by adjacent transpositions and keying visited
states by inversion mask, so each state is O(n) work; the search serves
every n <= 12 whose code product, an upper bound on the interval size, is
within a state budget, and checks the filter on small n.
Bruhat intervals filter the same table by its dominance counts, read
only on the columns of Fulton's essential set of w0 w
(``GroupTable.bruhat_below``), and a slow chain-closure oracle
implements the definition directly (downward transposition steps, each
strictly dropping the inversion count) for cross-validation.

>>> w = Permutation((2, 5, 1, 3, 4))
>>> weak_interval(w).size
7
>>> print(weak_interval(w).poincare)
1 + q + 2q^2 + 2q^3 + q^4
>>> bruhat_interval(Permutation((3, 1, 2))).size
4
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .columns import MAX_TABLE_N, GroupTable, group_table
from .perm import (
    MAX_CODE_PRODUCT_N,
    Permutation,
    Word,
    code_product,
    inversion_mask,
    length_polynomial,
    lehmer_code,
)
from .qpoly import QPolynomial

# Weak intervals grow with wk(w), up to n! states; the hard cap only
# rejects sizes where even the identity's tables would be unreasonable.
MAX_WEAK_N = 12
# The BFS visits wk(w) <= code_product(w) states, so words whose code
# product exceeds this budget are refused before the search.  9! admits
# every word of S_9; the longest element of S_9 takes 0.9 s and a peak
# resident set of 71 MiB, or 2.5 s and 184 MiB with its elements listed
# (2 vCPU Xeon, Python 3.11).
MAX_WEAK_STATES = 362_880
MAX_CHAIN_ORACLE_N = 6


@dataclass(frozen=True)
class IntervalSummary:
    """Size, rank generating function, and top rank of an interval [id, w].

    ``poincare`` counts elements by inversion number, so
    ``poincare(1) == size`` and ``degree == max_length``.  ``elements``
    is filled (sorted lexicographically) only when requested.
    """

    size: int
    poincare: QPolynomial
    elements: tuple[Permutation, ...] | None = None

    @property
    def max_length(self) -> int:
        """inv(w): w is the one element of top length."""
        return self.poincare.degree


def _require_same_n(u: Permutation, w: Permutation) -> None:
    if u.n != w.n:
        raise ValueError(f"mixed sizes: n={u.n} vs n={w.n}")


def weak_leq(u: Permutation, w: Permutation) -> bool:
    """Left weak order: I(u) contained in I(w).

    >>> weak_leq(Permutation((1, 3, 2)), Permutation((2, 3, 1)))
    True
    >>> weak_leq(Permutation((2, 1, 3, 4, 5)), Permutation((2, 5, 1, 3, 4)))
    False
    """
    _require_same_n(u, w)
    return inversion_mask(u.word) & ~inversion_mask(w.word) == 0


def weak_interval(w: Permutation, with_elements: bool = False) -> IntervalSummary:
    """The interval [id, w] in left weak order, graded by inversion count.

    For n <= ``MAX_TABLE_N`` the group-table rows whose inversion mask
    lies in I(w); past the table, ``_weak_search``.

    >>> weak_interval(Permutation.longest(3), with_elements=True).elements[0].word
    (1, 2, 3)
    >>> weak_interval(Permutation((2, 5, 1, 3, 4))).size
    7
    """
    if w.n > MAX_TABLE_N:
        return _weak_search(w, with_elements)
    table = group_table(w.n)
    below = (table.masks & ~np.uint32(inversion_mask(w.word))) == 0
    return _table_interval(table, below, with_elements)


def _weak_search(w: Permutation, with_elements: bool = False) -> IntervalSummary:
    """weak_interval by BFS from the identity, for n <= ``MAX_WEAK_N``.

    Multiplying u on the left by the adjacent transposition s_v swaps the
    values v and v + 1; when v sits at position p and v + 1 at position q
    with p < q, the step adds exactly the inversion (p, q), which must lie
    in I(w).  States are keyed by inversion mask.  The search visits
    wk(w) <= code_product(w) states, and words whose code product exceeds
    ``MAX_WEAK_STATES`` are refused before it starts.
    """
    n = w.n
    if n > MAX_WEAK_N:
        raise ValueError(f"weak_interval supports n <= {MAX_WEAK_N}, got n={n}")
    bound = code_product(w)
    if bound > MAX_WEAK_STATES:
        raise ValueError(
            f"weak_interval visits up to code_product(w) = {bound} states, "
            f"over the budget of {MAX_WEAK_STATES}"
        )
    target = inversion_mask(w.word)

    # A state is (position_of, mask): position_of[v - 1] is the 1-based
    # position of value v, and mask is the inversion mask of the word.
    frontier: list[tuple[Word, int]] = [(tuple(range(1, n + 1)), 0)]
    visited = {0}
    level_sizes: list[int] = []
    words: list[Word] = []
    while frontier:
        level_sizes.append(len(frontier))
        if with_elements:
            for position_of, _ in frontier:
                word = [0] * n
                for v, p in enumerate(position_of, 1):
                    word[p - 1] = v
                words.append(tuple(word))
        nxt: list[tuple[Word, int]] = []
        for position_of, mask in frontier:
            for v in range(1, n):
                p = position_of[v - 1]
                q = position_of[v]
                if p > q:
                    continue  # s_v would remove an inversion
                # the slot of (p, q) among the pairs in lexicographic order
                slot = (p - 1) * (2 * n - p) // 2 + q - p - 1
                if not target >> slot & 1:
                    continue
                child_mask = mask | 1 << slot
                if child_mask in visited:
                    continue
                visited.add(child_mask)
                child_pos = list(position_of)
                child_pos[v - 1], child_pos[v] = q, p
                nxt.append((tuple(child_pos), child_mask))
        frontier = nxt
    elements = None
    if with_elements:
        elements = tuple(Permutation(word) for word in sorted(words))
    return IntervalSummary(
        size=len(visited),
        poincare=QPolynomial(tuple(level_sizes)),
        elements=elements,
    )


def _table_interval(
    table: GroupTable, below: np.ndarray, with_elements: bool
) -> IntervalSummary:
    """Summarize the table rows selected by the boolean mask ``below``.

    Rows are in lexicographic order, so ``elements`` come out sorted.
    """
    elements = None
    if with_elements:
        words = np.compress(below, table.words, axis=0).tolist()
        elements = tuple(Permutation(tuple(u)) for u in words)
    return IntervalSummary(
        size=int(np.count_nonzero(below)),
        poincare=length_polynomial(np.compress(below, table.inv)),
        elements=elements,
    )


def bruhat_interval(w: Permutation, with_elements: bool = False) -> IntervalSummary:
    """The interval [id, w] in Bruhat order, by the table's essential-set filter.

    >>> summary = bruhat_interval(Permutation((3, 1, 2)), with_elements=True)
    >>> summary.size
    4
    >>> [str(u) for u in summary.elements]
    ['123', '132', '213', '312']
    """
    table = group_table(w.n)
    return _table_interval(table, table.bruhat_below(w.word), with_elements)


def bruhat_interval_by_chains(w: Permutation, with_elements: bool = False) -> IntervalSummary:
    """Definitional oracle for bruhat_interval.

    u <= w exactly when some chain of transpositions climbs from u to w
    with the inversion count strictly increasing at each step; reversed,
    [id, w] is the closure of {w} under swapping any inverted pair of
    positions (each such swap strictly lowers the inversion count).
    """
    n = w.n
    if n > MAX_CHAIN_ORACLE_N:
        raise ValueError(
            f"chain-closure oracle supports n <= {MAX_CHAIN_ORACLE_N}, got n={n}"
        )
    visited: set[Word] = {w.word}
    frontier: list[Word] = [w.word]
    while frontier:
        nxt: list[Word] = []
        for word in frontier:
            for i in range(n - 1):
                for j in range(i + 1, n):
                    if word[i] > word[j]:
                        child = list(word)
                        child[i], child[j] = child[j], child[i]
                        key = tuple(child)
                        if key not in visited:
                            visited.add(key)
                            nxt.append(key)
        frontier = nxt
    elements = tuple(Permutation(word) for word in sorted(visited)) if with_elements else None
    return IntervalSummary(
        size=len(visited),
        poincare=length_polynomial([inversion_mask(word).bit_count() for word in visited]),
        elements=elements,
    )


def product_q_formula(w: Permutation) -> QPolynomial:
    """The product of q-integers [c_i(w) + 1] over the Lehmer code.

    Its value at q = 1 is code_product(w); it equals the weak-order
    Poincare polynomial of [id, w] exactly when w avoids 231.  Capped,
    like code_product, at n <= 20.

    >>> print(product_q_formula(Permutation((2, 5, 1, 3, 4))))
    1 + 2q + 2q^2 + 2q^3 + q^4
    """
    # The coefficients are nonnegative and sum to code_product(w) <= n!,
    # and 20! < 2^63, so at n <= 20 none can overflow.
    if w.n > MAX_CODE_PRODUCT_N:
        raise ValueError(f"product_q_formula supports n <= {MAX_CODE_PRODUCT_N}, got n={w.n}")
    coeffs = [1]
    for c in lehmer_code(w):
        out = [0] * (len(coeffs) + c)
        for i, a in enumerate(coeffs):
            for d in range(i, i + c + 1):
                out[d] += a
        coeffs = out
    return QPolynomial(tuple(coeffs))


def code_monotone_check(u: Permutation, w: Permutation) -> bool:
    """Whether the Lehmer code of u is entrywise <= that of w.

    Implied by weak_leq(u, w); the converse fails.

    >>> code_monotone_check(Permutation((2, 1, 3, 4, 5)), Permutation((2, 5, 1, 3, 4)))
    True
    """
    _require_same_n(u, w)
    return all(a <= b for a, b in zip(lehmer_code(u), lehmer_code(w)))


def witness_231_reduction(
    w: Permutation,
) -> tuple[tuple[int, int, int], Permutation] | None:
    """Lex-smallest adjacent 231 witness and the reduced word it yields.

    Returns ``((i, j, j + 1), w')`` for the lexicographically smallest
    positions i < j with w_{j+1} < w_i < w_j, or None when w avoids 231.
    The reduced word keeps w_1 .. w_{j-1}, promotes w_{j+1} to position
    j, and rearranges the remaining values {w_j, w_{j+2}, ..., w_n} in
    the relative order of (w_{j+1}, w_{j+2}, ..., w_n).  The reduction
    strictly decreases the j-th Lehmer code entry and leaves the rest
    unchanged, so the result sits strictly below w in the code order
    while never lying below it in weak order.

    >>> triple, reduced = witness_231_reduction(Permutation((4, 1, 3, 8, 2, 6, 5, 7)))
    >>> triple
    (1, 4, 5)
    >>> str(reduced)
    '41325768'
    >>> witness_231_reduction(Permutation((3, 1, 2))) is None
    True
    """
    word = w.word
    n = w.n
    witness = None
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            if word[j + 1] < word[i] < word[j]:
                witness = (i, j)
                break
        if witness:
            break
    if witness is None:
        return None
    i, j = witness
    # values past position j, with w_j swapped in for the promoted w_{j+1}
    tail_pattern = (word[j + 1],) + word[j + 2 :]
    tail_values = sorted((word[j],) + word[j + 2 :])
    ranks = sorted(range(len(tail_pattern)), key=tail_pattern.__getitem__)
    rearranged = [0] * len(tail_pattern)
    for rank, pos in enumerate(ranks):
        rearranged[pos] = tail_values[rank]
    reduced = word[:j] + (word[j + 1],) + tuple(rearranged)
    return (i + 1, j + 1, j + 2), Permutation(reduced)
