"""The cached per-n table of the whole symmetric group, one numpy array per quantity.

For n <= 8, row k of every array of ``group_table(n)`` belongs to the
word of lexicographic rank k.  Each array is read-only and built on
first use, so a caller builds only what it reads: ``verify.stat_record``
and the CLI read the words, inversion masks and counts and dominance
counts, and past depth ``counts`` the lower walls; a sweep adds the
statistic columns, and past depth ``counts`` the product, distance and
re columns; the build of a column of S_n reads only the deletion ranks
and the ao, containment and distance columns of smaller groups.
``verify.COLUMN_ROUTES`` checks each column against a per-record route
of ``verify.stat_record`` or against the region sort
``arrangement.regions_by_sort``.  Each column except Bruhat's comes
from a recursion over the whole group that shares no arithmetic with
those routes, so the checked relations rk = ao, re = ao and wk <= prod
keep their meaning:

* the weak polynomials by the Moebius recursion of left weak order
  (Bjoerner and Brenti, *Combinatorics of Coxeter Groups*, GTM 231,
  2005, section 3.2).  [e, w] minus {w} is the union of [e, sw] over the
  left descents s of w, and the intersection of [e, sw] over s in J is
  [e, w0(J) w], so W(w) = q^inv(w) + sum over nonempty J in D_L(w) of
  (-1)^(|J|+1) W(w0(J) w), filled in by length: the terms (w, J) are
  listed once by (length, rank), and each length is one gather and one
  signed sum per word.
* ao by inclusion-exclusion over source sets (Stanley, *Acyclic
  orientations of graphs*, Discrete Math. 5, 1973).  Every acyclic
  orientation has a nonempty independent set of sources, an independent
  set of the inversion graph is an increasing subsequence, and deleting
  it leaves the inversion graph of the standardized rest, so
  ao(w) = sum over nonempty increasing S of (-1)^(|S|+1) ao(std(w - S)),
  read from the columns of S_{<n}.  Each S is reached once, from
  S minus its smallest position, and the rank of w - S is composed from
  one-letter deletions (``GroupTable.deletions``), the largest position
  first, so that each deletion leaves the smaller positions in place.
* the distance enumerators by the same recursion graded by distance.
  The regions are the acyclic orientations (Greene and Zaslavsky,
  Trans. AMS 280, 1983), and D(w) = sum over nonempty increasing S of
  (-1)^(|S|+1) q^x(S) D(std(w - S)), where x(S) counts the inverted
  pairs (b, a), b < a, with a in S and b not: the sum over a in S of
  #{b < a : w_b > w_a}.
* the product polynomials prod [c_i + 1]_q by prefix sums along the
  degree axis, one per code position.
* re by gate count: re(w) = #{u : L(u) in I(w)}, L(u) the slots (i, j),
  i < j, with u_i = u_j + 1 (``GroupTable.lower``).  The route
  ``arrangement.regions`` filters the same gates for one word, so re's
  oracle is the region sort.
* rk by placing one rook per row down the tree of prefixes: row i of
  the complement of the south-west diagram is {c <= w_i} together with
  {w_1, ..., w_(i-1)}, so it depends only on the prefix w_1..w_i, whose
  words are one run of the table.  The route ``rook.rook_count`` is a
  Ryser permanent, which shares no arithmetic with it.
* containment of a pattern by one-letter deletion: for n > |p|, w
  contains p exactly when some standardized deletion of one letter of w
  does, read from the column of S_{n-1} by the deletion ranks.

The weak, ao, distance and pattern recursions read smaller or
transformed words back from a column by their lexicographic rank, the
Lehmer code of the word weighted by factorials, which a word shares
with its standardization; the ranks of the one-letter deletions are
composed from the codes once per group (``GroupTable.deletions``).

The Bruhat column evaluates the criterion of ``bruhat_below`` for every
word at once: u <= w exactly when the dominance counts of u lie below
those of w on the cells of Fulton's essential set of w0 w (Duke Math.
J. 65, 1992), which ``essential_cells`` finds for both.  Each (dominance
column, bound) pair becomes one packed bitset over S_n, the bit axis
ordered by length, and a row of length counts is the AND of the bitsets
of its essential cells, bit-counted word by word by ``perm.popcounts``
and summed one length segment at a time.  Its independent check is the
full entrywise dominance compare, ``verify.COLUMN_ROUTES``'s row
``bruhat_column_vs_dominance_compare``.

>>> table = group_table(3)
>>> table.wk.tolist(), table.ao.tolist(), table.rk.tolist()
([1, 2, 2, 3, 3, 6], [1, 2, 2, 4, 4, 6], [1, 2, 2, 4, 4, 6])
>>> table.bruhat.sum(axis=1).tolist(), table.bruhat[3].tolist()
([1, 2, 2, 4, 4, 6], [1, 2, 1, 0])
>>> str(PATTERNS[0]), table.avoids(PATTERNS[:1]).tolist()
('231', [True, True, True, False, True, True])
>>> table.weak[3].tolist(), table.product[3].tolist(), table.distance[3].tolist()
([1, 1, 1, 0], [1, 2, 1, 0], [1, 2, 1, 0])
>>> table.re.tolist()
[1, 2, 2, 4, 4, 6]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from math import factorial

import numpy as np

from .perm import (
    POINCARE_MATCH_PATTERNS,
    POPCOUNT_16,
    REGION_BRUHAT_EQUALITY_PATTERNS,
    WEAK_EQUALITY_PATTERNS,
    Permutation,
    Word,
    popcounts,
)

# Largest n of the whole-group table: 8! rows, C(8, 2) = 28 mask bits.
MAX_TABLE_N = 8
# Words per AND pass of the Bruhat column: 256 rows of bitsets are 1.3 MB
# at n = 8, and the whole index 3.0 MB.
_BRUHAT_CHUNK = 256
# Words per pass of the weak recursion's term listing: 2048 words of S_8
# have at most 38944 terms, so a pass's temporaries stay near 300 KB;
# passes of 8192 words left the peak of an S8 ``counts`` sweep 8 MiB
# higher.  The temporaries come back from the heap only once glibc's
# dynamic mmap and trim thresholds have grown past them; before that each
# pass maps and faults in new pages (the cold S7 build took 689 minor
# faults, and 292 with those thresholds set to 1 and 2 MiB).
_WEAK_CHUNK = 2048
# Words per pass of the gate count: 128 rows of fits of the 4140 distinct
# lower-wall sets of S_8 are 2.1 MB as uint32.  Freed temporaries of 4.5 MB
# raised the peak of a cold S8 sweep, since glibc's mmap threshold grows to
# the largest block freed.
_GATE_CHUNK = 128

# The distinct patterns of the characterizations, one containment row each.
PATTERNS: tuple[Permutation, ...] = tuple(
    dict.fromkeys(
        WEAK_EQUALITY_PATTERNS + REGION_BRUHAT_EQUALITY_PATTERNS + POINCARE_MATCH_PATTERNS
    )
)


def _array(build):
    """An array of the table, built on first use, cached and read-only."""

    @wraps(build)
    def read_only(table: GroupTable) -> np.ndarray:
        array = build(table)
        array.setflags(write=False)  # every caller shares the cached arrays
        return array

    return cached_property(read_only)


def essential_cells(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and ``GroupTable.dom`` columns of the essential cells of
    w0 w, for every row w of the (m, n) ``words``, in row order.

    With v = w0 w (v_i = n + 1 - w_i), u <= w in Bruhat order exactly when
    r_{w0 u} <= r_v at every cell, where r_v(i, j) = #{a <= i : v_a <= j}
    = #{a <= i : w_a > n - j} is the count of w in dom column
    (i - 1) n + n - j.  By Fulton (Flags, Schubert polynomials, degeneracy
    loci, and determinantal formulas, Duke Math. J. 65, 1992) the cells
    of the essential set of v imply all the others: the cells (i, j) of
    the Rothe diagram D(v) = {(i, j) : v_i > j, v^-1(j) > i} with neither
    (i + 1, j) nor (i, j + 1) in D(v).  Laid out as dom is, cell (i, j)
    sits at [i - 1, n - j], and it is in D(v) when w_i <= n - j and the
    value n - j + 1 of w lies after position i.  The set is empty only
    for w = w0, which imposes no condition.

    >>> rows, columns = essential_cells(np.array([[2, 1, 3], [3, 2, 1]]))
    >>> rows.tolist(), columns.tolist()
    ([0], [5])
    >>> int(group_table(3).dom[2, 5])  # the bound of 213, rank 2
    0
    """
    m, n = words.shape
    index = np.arange(n, dtype=np.int8)
    position = np.empty((m, n), dtype=np.int8)  # position[:, v - 1]: where value v sits, from 0
    position[np.arange(m)[:, None], words - 1] = index
    diagram = (words[:, :, None] <= index) & (position[:, None, :] > index[:, None])
    # a cell of D(v) stays unless (i + 1, j), the next row, or (i, j + 1),
    # the previous column, is in D(v) too: a > b on bools is a and not b
    essential = diagram.copy()
    np.greater(essential[:, :-1], diagram[:, 1:], out=essential[:, :-1])
    np.greater(essential[:, :, 1:], diagram[:, :, :-1], out=essential[:, :, 1:])
    return np.nonzero(essential.reshape(m, n * n))


@dataclass(frozen=True, eq=False)
class GroupTable:
    """Every word of S_n and its statistics, row k for lexicographic rank k.

    ``masks`` are uint32 over the slots of ``perm.inversion_mask`` (C(8, 2) =
    28 of their 32 bits at most).  ``dom`` holds
    the Bruhat dominance counts: 0-based column i * n + j counts the
    a <= i + 1 with u_a > j, and u <= w exactly when dom[u] <= dom[w]
    entrywise.  It is stored column-major, each column one contiguous
    run, because
    ``bruhat_below`` reads only the few columns of Fulton's essential
    set of w0 w (``essential_cells``).
    """

    n: int

    @_array
    def words(self) -> np.ndarray:
        """(n!, n) int8 words in lexicographic order, built by first-letter blocks.

        S_k in lexicographic order is k blocks of (k - 1)! words, one for
        each first letter f: f followed by the words of S_(k-1) with every
        letter >= f raised by one.  Each S_k is filled from S_(k-1) a block
        at a time, from the one empty word up to S_n, so no smaller table
        is built and no word is a Python object.
        """
        words = np.zeros((1, 0), dtype=np.int8)
        for k in range(1, self.n + 1):
            blocks = np.empty((k, len(words), k), dtype=np.int8)
            for f in range(1, k + 1):
                blocks[f - 1, :, 0] = f
                np.add(words, words >= f, out=blocks[f - 1, :, 1:])
            words = blocks.reshape(-1, k)
        return words

    @_array
    def masks(self) -> np.ndarray:
        """(n!,) uint32 inversion masks, built by first-letter blocks as ``words`` is.

        In block f of S_k the pairs of the tail take the slots of S_(k-1)
        shifted up by k - 1, and the first-position pair (0, j) takes slot
        j - 1: it is inverted where the tail holds a value below f there.
        """
        masks = np.zeros(1, dtype=np.uint32)
        for m, position in _smaller_inverses(self.words):
            bit = np.uint32(1) << np.arange(m, dtype=np.uint32)
            blocks = np.empty((m + 1, len(masks)), dtype=np.uint32)
            shifted = np.left_shift(masks, np.uint32(m), out=blocks[0])
            below = np.zeros(len(masks), dtype=np.uint32)  # the positions of the values below f
            for v in range(m):  # block f = v + 2: the values 1..v + 1 lie below f
                below |= bit[position[:, v]]
                np.bitwise_or(shifted, below, out=blocks[v + 1])
            masks = blocks.reshape(-1)
        return masks

    @_array
    def inv(self) -> np.ndarray:
        """(n!,) uint8 inversion counts, by first-letter blocks: the first
        letter f of a word of S_k adds f - 1 inversions to its tail's."""
        inv = np.zeros(1, dtype=np.uint8)
        for k in range(2, self.n + 1):
            inv = (inv + np.arange(k, dtype=np.uint8)[:, None]).reshape(-1)
        return inv

    @_array
    def dom(self) -> np.ndarray:
        """(n!, n * n) uint8 dominance counts, Fortran order."""
        n, words = self.n, self.words
        dom = np.empty((len(words), n * n), dtype=np.uint8, order="F")
        for j in range(n):
            running = np.zeros(len(words), dtype=np.uint8)
            for i in range(n):
                running += words[:, i] > j
                dom[:, i * n + j] = running
        return dom

    @_array
    def code(self) -> np.ndarray:
        """(n!, n) uint8 Lehmer codes."""
        return _lehmer_codes(self.words)

    @_array
    def prod(self) -> np.ndarray:
        """(n!,) int32 code products."""
        return np.prod(self.code.astype(np.int32) + 1, axis=1, dtype=np.int32)

    @_array
    def weak(self) -> np.ndarray:
        """(n!, C(n, 2) + 1) uint16: [k, l] = #{u <=_L w_k : inv(u) = l}."""
        return _weak_polynomials(self.words, self.inv)

    @_array
    def wk(self) -> np.ndarray:
        """(n!,) int32 weak interval sizes, the row sums of ``weak``."""
        return self.weak.sum(axis=1, dtype=np.int32)

    @_array
    def bruhat(self) -> np.ndarray:
        """(n!, C(n, 2) + 1) uint16: [k, l] = #{u <= w_k : inv(u) = l}."""
        return _bruhat_counts(self)

    @_array
    def ao(self) -> np.ndarray:
        """(n!,) int32 acyclic orientations of the inversion graph."""
        return _source_sets(self, graded=False)

    @_array
    def rk(self) -> np.ndarray:
        """(n!,) int32 rook placements on the complement of the south-west diagram."""
        return _rook_placements(self.words)

    @_array
    def deletions(self) -> np.ndarray:
        """(n, n!) uint16: [d, k] = the rank in S_{n-1} of w_k with position d deleted."""
        return _deletion_ranks(self)

    @_array
    def contains(self) -> np.ndarray:
        """(len(PATTERNS), n!) bool, row t for PATTERNS[t]."""
        return _containment(self)

    @_array
    def ferrers(self) -> np.ndarray:
        """(n!,) bool: the south-west diagram is a right-justified Ferrers diagram."""
        n, diagram = self.n, _diagram_rows(self.words)
        counts = POPCOUNT_16[diagram]
        right_justified = diagram == (1 << n) - (1 << (n - counts.astype(np.int32)))
        return right_justified.all(axis=1) & (counts[:, :-1] >= counts[:, 1:]).all(axis=1)

    @_array
    def product(self) -> np.ndarray:
        """(n!, C(n, 2) + 1) uint16: the coefficients of prod [c_i + 1]_q.

        The product depends only on the multiset of the code.  Sorted in
        descending order, the codes are the partitions inside the
        staircase, C_n of them (1430 at n = 8): each is computed once and
        gathered back.  The sort is descending so that the code's last
        entry, which ``_product_polynomials`` skips, stays 0.
        """
        partitions = np.sort(self.code, axis=1)[:, ::-1]
        # one base-8 int64 per row: every code entry is below n <= 8
        keys = np.einsum("ij,j->i", partitions, 8 ** np.arange(self.n, dtype=np.int64))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        products = _product_polynomials(partitions[first]).astype(np.uint16)
        return np.take(products, inverse, axis=0)

    @_array
    def distance(self) -> np.ndarray:
        """(n!, C(n, 2) + 1) uint16: [k, l] = #{regions of w_k at distance l}."""
        return _source_sets(self, graded=True).astype(np.uint16)

    @_array
    def re(self) -> np.ndarray:
        """(n!,) int32 region counts of the inversion arrangements."""
        return _gate_counts(self)

    @_array
    def lower(self) -> np.ndarray:
        """(n!,) uint32 lower walls L(u): the slots (i, j), i < j, with u_i = u_j + 1.

        Built by first-letter blocks as ``masks`` is.  In block f of S_k the
        tail's walls shift up by k - 1, except the wall between the tail's
        values f and f - 1, which the raise of f breaks; the first letter
        gains the wall to the tail's f - 1, whose position is its slot.
        """
        lower = np.zeros(1, dtype=np.uint32)
        for m, position in _smaller_inverses(self.words):
            bit = np.uint32(1) << np.arange(m * (m + 1) // 2, dtype=np.uint32)
            pair_bit = np.zeros((m, m), dtype=np.uint32)  # each tail pair's bit, both ways
            pair_bit[np.triu_indices(m, 1)] = bit[m:]
            pair_bit |= pair_bit.T
            blocks = np.empty((m + 1, len(lower)), dtype=np.uint32)
            shifted = np.left_shift(lower, np.uint32(m), out=blocks[0])
            for v in range(m):  # block f = v + 2: its wall to the tail's v + 1
                block = np.bitwise_or(bit[position[:, v]], shifted, out=blocks[v + 1])
                if v + 1 < m:
                    block &= ~pair_bit[position[:, v + 1], position[:, v]]
            lower = blocks.reshape(-1)
        return lower

    def bruhat_below(self, word: Word) -> np.ndarray:
        """Rows u <= ``word`` in Bruhat order: dom[u] at most the word's own
        dominance counts on the columns of ``essential_cells``.

        The route of ``verify.stat_record`` and ``orders.bruhat_interval``
        for one word.  The ``bruhat`` column reads the same cells for every
        word at once, so both are checked against the full dominance
        compare, not against each other.
        """
        _, columns = essential_cells(np.array([word]))
        below = np.ones(len(self.dom), dtype=bool)
        for column in columns.tolist():
            i, j = divmod(column, self.n)
            # the word's own count #{a <= i + 1 : w_a > j}: a few cells of a
            # short word, which numpy would only slow down
            below &= self.dom[:, column] <= sum(v > j for v in word[: i + 1])
        return below

    def avoids(self, patterns: tuple[Permutation, ...]) -> np.ndarray:
        """Rows containing none of ``patterns`` (each one of ``PATTERNS``)."""
        rows = [PATTERNS.index(p) for p in patterns]
        return ~self.contains[rows].any(axis=0)


def _smaller_inverses(words: np.ndarray):
    """(m, position) for m = 1..n - 1, from the words of S_n:
    position[:, v - 1] is where each word of S_m, in lexicographic order,
    holds v.  The last m! words of S_n begin n, n - 1, ..., m + 1 and end
    in the words of S_m."""
    n = words.shape[1]
    for m in range(1, n):
        tail = words[len(words) - factorial(m) :, n - m :]
        position = np.empty_like(tail)
        position[np.arange(len(tail))[:, None], tail - 1] = np.arange(m, dtype=np.int8)
        yield m, position


@lru_cache(maxsize=MAX_TABLE_N)
def group_table(n: int) -> GroupTable:
    """The cached table of S_n, n <= 8; its arrays are built on first use.

    A raised cap must still keep C(n, 2) <= 32 pair slots, the bits of
    the uint32 masks.

    >>> table = group_table(3)
    >>> table.words[5].tolist(), int(table.masks[5]), int(table.inv[5])
    ([3, 2, 1], 7, 3)
    """
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"whole-group tables support n <= {MAX_TABLE_N}, got n={n}")
    if n * (n - 1) // 2 > 32:
        raise ValueError(f"uint32 masks hold C(n, 2) <= 32 pair slots, got n={n}")
    return GroupTable(n)


def _lehmer_codes(words: np.ndarray) -> np.ndarray:
    """(m, k) uint8 Lehmer codes of the rows of ``words`` (distinct values
    per row), the same for a word and its standardization."""
    letters = np.ascontiguousarray(words.T)  # one contiguous row per position
    codes = np.zeros(words.shape, dtype=np.uint8)
    for a in range(words.shape[1] - 1):
        codes[:, a] = (letters[a + 1 :] < letters[a]).sum(axis=0, dtype=np.uint8)
    return codes


def _ranks(words: np.ndarray) -> np.ndarray:
    """Lexicographic ranks in S_k of the standardized rows of (m, k) ``words``:
    the Lehmer codes weighted by (k - 1)!, ..., 1!, 0!.

    >>> _ranks(np.array([[4, 1, 3], [2, 4, 1], [4, 3, 2]])).tolist()
    [4, 3, 5]
    """
    k = words.shape[1]
    weights = np.array([factorial(k - 1 - a) for a in range(k)], dtype=np.int32)
    # einsum casts the uint8 codes in buffered blocks; ``@`` would first copy
    # them whole to int32 (0.4 MiB more at the peak of an S7 sweep)
    return np.einsum("ij,j->i", _lehmer_codes(words), weights)


def _parabolic_longest(subset: int, n: int) -> np.ndarray:
    """w0(J) as a value lookup table, J the generators s_v with bit v - 1 of ``subset``.

    Each run s_a, ..., s_b of J reverses the values a, ..., b + 1.

    >>> _parabolic_longest(0b101, 4).tolist()
    [0, 2, 1, 4, 3]
    """
    table = np.arange(n + 1, dtype=np.int8)
    v = 1
    while v < n:
        start = v
        while v < n and subset >> (v - 1) & 1:
            v += 1
        table[start : v + 1] = table[start : v + 1][::-1]
        v += 1
    return table


def _weak_polynomials(words: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Weak Poincare polynomials of every row by the Moebius recursion over
    left-descent subsets, as (n!, C(n, 2) + 1) coefficient rows.

    The terms come from ``_weak_terms`` in (length, rank) order, so the
    terms of one length are one run; each length is one gather of its
    targets' rows, cast to int32, one signed sum per word and one
    assignment.  The sums fit the uint16 column (the largest coefficient
    of S_8 is 3836), so no wider copy of the column is ever allocated.
    """
    order = np.argsort(inv, kind="stable")  # the rows by (length, rank)
    targets, signs, first = _weak_terms(words, order)
    lengths = np.concatenate(([0], np.cumsum(np.bincount(inv))))
    weak = np.zeros((len(words), len(lengths) - 1), dtype=np.uint16)
    weak[np.arange(len(words)), inv] = 1
    # every w0(J) w is shorter than w, so a length reads only finished
    # lengths, and only in the degrees below it; every word but the
    # identity has a left descent, so no row's run of terms is empty
    for length in range(1, len(lengths) - 1):
        lo, hi = lengths[length], lengths[length + 1]
        run = slice(first[lo], first[hi])
        # np.take gathers short rows several times faster than fancy indexing
        terms = np.take(weak, targets[run], axis=0)[:, :length].astype(np.int32)
        terms *= signs[run, None]
        weak[order[lo:hi], :length] = np.add.reduceat(terms, first[lo:hi] - first[lo], axis=0)
    return weak


def _weak_terms(
    words: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms (w, J), J a nonempty subset of D_L(w), of the weak
    recursion W(w) = q^inv(w) + sum of (-1)^(|J|+1) W(w0(J) w), row by
    row in ``order`` and by J within a row: the uint16 rank of each
    w0(J) w (at most 8! - 1), its int8 sign, and the (n! + 1,) offsets
    of each row's first term.
    """
    n = words.shape[1]
    positions = np.argsort(words, axis=1)  # positions[:, v - 1]: where value v sits
    descents = np.zeros(len(words), dtype=np.uint8)
    for v in range(1, n):  # s_v is a left descent when v + 1 comes before v
        descents |= (positions[:, v] < positions[:, v - 1]).astype(np.uint8) << (v - 1)
    descents = descents[order]
    # a word with d left descents has 2^d - 1 terms
    counts = np.left_shift(1, POPCOUNT_16[descents], dtype=np.int64) - 1
    first = np.concatenate(([0], np.cumsum(counts)))
    subsets = np.arange(1, 1 << (n - 1), dtype=np.uint8)
    # w0(J) w maps each letter through the value table of w0(J)
    longest = np.array(
        [_parabolic_longest(subset, n) for subset in subsets.tolist()], dtype=np.int8
    ).ravel()
    sign_of = np.where(POPCOUNT_16[subsets] % 2, 1, -1).astype(np.int8)
    targets = np.empty(first[-1], dtype=np.uint16)
    signs = np.empty(first[-1], dtype=np.int8)
    for lo in range(0, len(words), _WEAK_CHUNK):
        contained = (descents[lo : lo + _WEAK_CHUNK, None] & subsets) == subsets
        at, which = np.divmod(np.flatnonzero(contained), len(subsets))
        reduced = np.take(words, order[lo + at], axis=0)
        offsets = which * (n + 1)
        for i in range(n):
            reduced[:, i] = longest[offsets + reduced[:, i]]
        run = slice(first[lo], first[lo + len(contained)])
        targets[run] = _ranks(reduced)
        signs[run] = sign_of[which]
    return targets, signs, first


def _deletion_ranks(table: GroupTable) -> np.ndarray:
    """(n, n!) uint16: [d, k] = the rank in S_{n-1} of w_k with position d
    deleted, below 7! for n <= 8.

    Deleting position d keeps the code entries after d with their
    weights, and those terms of the rank k of w_k sum to
    k mod (n - 1 - d)!.  Each earlier entry c_a loses one where
    w_a > w_d, and its weight drops from (n - 1 - a)! to (n - 2 - a)!.

    >>> _deletion_ranks(group_table(3)).tolist()
    [[0, 1, 0, 1, 0, 1], [0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 1, 1]]
    """
    n, words = table.n, table.words
    letters = np.ascontiguousarray(words.T)  # one contiguous row per position
    # every partial sum is a rank of S_{n-1}, so the sums stay in uint16
    codes = _lehmer_codes(words).T.astype(np.uint16)
    ranks = np.arange(len(words), dtype=np.uint16)
    deletions = np.empty((n, len(words)), dtype=np.uint16)
    for d in range(n):
        deletions[d] = ranks % factorial(n - 1 - d)
        for a in range(d):
            deletions[d] += (codes[a] - (letters[a] > letters[d])) * factorial(n - 2 - a)
    return deletions


def _source_sets(table: GroupTable, graded: bool) -> np.ndarray:
    """ao of every row by inclusion-exclusion over increasing source sets,
    or with ``graded`` the (n!, C(n, 2) + 1) distance enumerators.

    Each increasing set S of positions is visited once, depth first, from
    S minus its smallest position: adding a position s < min S keeps the
    rows with w_s < w_min S and deletes s from their reduced words w - S
    by the deletion ranks of S_{n - |S|}, where s keeps its index because
    every position deleted so far is larger.  In the graded recursion a
    source a in S lies above each earlier neighbour b with w_b > w_a,
    none of them in S, and those edges separate the region from the base
    chamber: S shifts by the sum over a in S of #{b < a : w_b > w_a}.
    """
    n, words = table.n, table.words
    letters = np.ascontiguousarray(words.T)  # one contiguous row per position
    deletions = [None] + [group_table(k).deletions for k in range(1, n)]
    deletions.append(table.deletions)
    if graded:
        smaller = [np.ones((1, 1), dtype=np.int32)] + [
            group_table(k).distance.astype(np.int32) for k in range(1, n)
        ]
        counts = np.zeros((len(words), n * (n - 1) // 2 + 1), dtype=np.int32)
        # above[a] = #{b < a : w_b > w_a}
        above = [(letters[:a] > letters[a]).sum(axis=0, dtype=np.uint8) for a in range(n)]
    else:
        smaller = [np.ones(1, dtype=np.int32)] + [group_table(k).ao for k in range(1, n)]
        counts = np.zeros(len(words), dtype=np.int32)

    def visit(size: int, low: int, rows: np.ndarray, reduced: np.ndarray, shift) -> None:
        below = smaller[n - size][reduced]
        if size % 2 == 0:
            np.negative(below, out=below)
        if not graded:
            counts[rows] += below
        else:
            # the rows grouped by shift, so that each shift is one slice
            order = np.argsort(shift, kind="stable")
            bounds = np.concatenate(([0], np.cumsum(np.bincount(shift)))).tolist()
            for offset, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                if lo < hi:
                    run = order[lo:hi]
                    counts[rows[run], offset : offset + below.shape[1]] += below[run]
        top = letters[low, rows]
        for s in range(low):
            keep = np.flatnonzero(letters[s, rows] < top)
            if len(keep):
                kept = rows[keep]
                grown = shift[keep] + above[s][kept] if graded else None
                visit(size + 1, s, kept, deletions[n - size][s][reduced[keep]], grown)

    everything = np.arange(len(words))
    for low in range(n):
        visit(1, low, everything, table.deletions[low], above[low] if graded else None)
    return counts


def _rook_placements(words: np.ndarray) -> np.ndarray:
    """rk of every row: rook placements on the complement board, one row
    at a time down the tree of prefixes.

    Row i of the complement of the south-west diagram of w is
    {c <= w_i} together with {w_1, ..., w_(i-1)}, so it depends only on
    the prefix w_1..w_i, and the words of one prefix are one run of the
    lexicographic order.  counts[U, node] counts the placements in rows
    1..i of the prefix ``node`` of length i that use the columns U,
    |U| = i, indexed among the i-subsets in ascending mask order; each
    node's children repeat its column, and each column c adds the
    placements of the children whose row i holds c.  Row n is full, so rk
    is the column sum at depth n - 1.
    """
    n = words.shape[1]
    masks = np.arange(1 << n)
    sizes = POPCOUNT_16[masks]
    index = np.empty(1 << n, dtype=np.intp)  # a mask's place among the masks of its size
    for size in range(n + 1):
        index[sizes == size] = np.arange(int((sizes == size).sum()))
    counts = np.ones((1, 1), dtype=np.uint16)  # at most i! placements of i rooks
    placed = np.zeros(1, dtype=np.int32)  # the letters of each prefix, as a mask
    for i in range(1, n):
        letter = words[:: factorial(n - i), i - 1].astype(np.int32)  # w_i at each node
        children = n - i + 1
        placed = np.repeat(placed, children)
        # the state is stored subset-major, each subset's row contiguous
        # over the nodes: 1.7 times faster at n = 8 than node-major
        grown = np.zeros((int((sizes == i).sum()), len(letter)), dtype=np.uint16)
        used = masks[sizes == i - 1]
        for c in range(n):  # a rook in column c + 1
            allowed = (letter > c) | (placed >> c & 1 == 1)
            free = used[used >> c & 1 == 0]
            parents = np.repeat(counts[index[free]], children, axis=1)
            parents *= allowed
            grown[index[free | 1 << c]] += parents
        counts = grown
        placed |= 1 << (letter - 1)
    return counts.sum(axis=0, dtype=np.int32)


def _product_polynomials(code: np.ndarray) -> np.ndarray:
    """(n!, C(n, 2) + 1) coefficient rows of the products of [c_i + 1]_q.

    Multiplying by [c + 1]_q = (1 - q^(c + 1)) / (1 - q) is a prefix sum
    along the degree axis minus the same sum shifted by c + 1.
    """
    m, n = code.shape
    degrees = np.arange(n * (n - 1) // 2 + 1)
    product = np.zeros((m, len(degrees) + 1), dtype=np.int32)  # column 0 stays 0
    product[:, 1] = 1
    for i in range(n - 1):
        prefix = np.cumsum(product, axis=1)
        start = np.maximum(degrees - code[:, i, None], 0)  # degree d - c, floored at 0
        product[:, 1:] = prefix[:, 1:] - np.take_along_axis(prefix, start, axis=1)
    return product[:, 1:]


def _gate_counts(table: GroupTable) -> np.ndarray:
    """re of every row: the chambers u whose lower walls L(u) lie in I(w).

    L(u) holds the slots (i, j), i < j, with u_i = u_j + 1: the walls
    between the chamber of u and the chambers below it in weak order.
    Each region of the arrangement of I(w) has exactly one such chamber,
    its gate.  L (``GroupTable.lower``) takes Bell(n) distinct values;
    sorted by how many chambers share each, the fits of one multiplicity
    form one run, so a row's count is one integer sum per run (18 runs at
    n = 8), weighted by the multiplicities.
    """
    walls, sizes = np.unique(table.lower, return_counts=True)
    order = np.argsort(sizes, kind="stable")
    walls = walls[order]
    multiplicities, runs = np.unique(sizes[order], return_index=True)
    outside = ~table.masks
    counts = np.empty(len(outside), dtype=np.int32)
    for lo in range(0, len(outside), _GATE_CHUNK):
        fits = (walls & outside[lo : lo + _GATE_CHUNK, None]) == 0
        per_run = np.add.reduceat(fits.view(np.uint8), runs, axis=1, dtype=np.uint16)
        counts[lo : lo + _GATE_CHUNK] = per_run @ multiplicities
    return counts


def _containment(table: GroupTable) -> np.ndarray:
    """Pattern containment rows: the pattern itself, or a one-letter deletion."""
    n = table.n
    contains = np.zeros((len(PATTERNS), factorial(n)), dtype=bool)
    for t, pattern in enumerate(PATTERNS):
        if pattern.n == n:
            contains[t, _ranks(np.array([pattern.word]))[0]] = True
    if n > 1:
        smaller = group_table(n - 1).contains
        for ranks in table.deletions:
            contains |= smaller[:, ranks]
    return contains


def _diagram_rows(words: np.ndarray) -> np.ndarray:
    """(m, n) uint16 column masks of the south-west diagram rows:
    row i holds w_j for every j > i with w_j > w_i."""
    bits = np.left_shift(1, words.astype(np.uint16) - 1, dtype=np.uint16)
    rows = np.zeros(words.shape, dtype=np.uint16)
    for i in range(words.shape[1] - 1):
        above = words[:, i + 1 :] > words[:, i, None]
        rows[:, i] = np.bitwise_or.reduce(bits[:, i + 1 :] * above, axis=1)
    return rows


def _bruhat_counts(table: GroupTable) -> np.ndarray:
    """(n!, C(n, 2) + 1) uint16 Bruhat interval sizes by length, row k for w_k.

    u <= w exactly when dom[u, c] <= dom[w, c] for the dom column c of
    every essential cell of w0 w (``essential_cells``).  The index row
    c (n + 1) + b holds {u : dom[u, c] <= b} as packed bits, the bit axis
    sorted by length with each length class padded to whole 64-bit
    words, so a row of counts is the AND of its cells' bitsets,
    bit-counted one 64-bit word at a time (``perm.popcounts``) and summed
    segment by segment.  Only the segments of lengths up to inv(w) can
    hold a u <= w.  w0, whose essential set is empty, lies above every
    word.
    """
    n, inv, dom = table.n, table.inv, table.dom
    lengths = np.bincount(inv)  # the Mahonian numbers: every length occurs
    segments = np.concatenate(([0], np.cumsum((lengths + 63) // 64)))
    by_length = np.argsort(inv, kind="stable")
    starts = np.concatenate(([0], np.cumsum(lengths)))
    sorted_inv = inv[by_length]
    bit = np.empty(len(inv), dtype=np.int64)
    bit[by_length] = 64 * segments[sorted_inv] + np.arange(len(inv)) - starts[sorted_inv]

    # dom laid out along the bit axis once; a padding bit holds n + 1, above
    # every bound, so it is set in no bitset
    laid = np.full((n * n, 64 * segments[-1]), n + 1, dtype=np.uint8)
    laid[:, bit] = dom.T
    index = np.empty((n * n, n + 1, segments[-1]), dtype=np.uint64)
    for bound in range(n + 1):
        index[:, bound] = np.packbits(laid <= bound, axis=1, bitorder="little").view(np.uint64)
    index = index.reshape(n * n * (n + 1), segments[-1])

    # the essential cells of each word as index rows, word by word
    ranks, columns = essential_cells(table.words)
    conditions = (n + 1) * columns + dom[ranks, columns]
    sizes = np.bincount(ranks, minlength=len(inv))
    first = np.concatenate(([0], np.cumsum(sizes)))

    counts = np.zeros((len(inv), len(lengths)), dtype=np.uint16)
    counts[sizes == 0] = lengths
    order = np.lexsort((inv, sizes))  # by essential-set size, then by length
    groups = np.concatenate(([0], np.cumsum(np.bincount(sizes))))
    for size in range(1, len(groups) - 1):
        group = order[groups[size] : groups[size + 1]]
        for lo in range(0, len(group), _BRUHAT_CHUNK):
            rows = group[lo : lo + _BRUHAT_CHUNK]
            top = int(inv[rows[-1]]) + 1
            cell = conditions[first[rows, None] + np.arange(size)]
            below = index[cell[:, 0], : segments[top]]
            for t in range(1, size):
                below &= index[cell[:, t], : segments[top]]
            counts[rows, :top] = np.add.reduceat(popcounts(below), segments[:top], axis=1)
    return counts

