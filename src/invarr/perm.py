"""Permutations of {1, ..., n} in one-line notation.

A permutation is the word (w_1, ..., w_n) of its values; positions and
values are 1-based at every public boundary.  This module owns the
vocabulary the rest of the library consumes: inversion sets realized as
bit masks over the C(n, 2) position pairs, Lehmer codes and their
products and pattern containment.

The inversion set of w is I(w) = {(i, j) : i < j, w_i > w_j}, a set of
POSITION pairs.  Pair (i, j) with i < j is assigned the bit slot given
by its rank in lexicographic order of all such pairs, so masks of
different permutations of the same n are directly comparable.

>>> w = parse_permutation("25134")
>>> inversion_mask(w.word)  # slots 1, 4, 5, 6: (1, 3), (2, 3), (2, 4), (2, 5)
114
>>> lehmer_code(w)
(1, 3, 0, 0, 0)
>>> code_product(w)
8
>>> str(inverse(w))
'31452'
"""

from __future__ import annotations

import itertools
import operator
import re as _re
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .qpoly import QPolynomial, checked_int64

# np.bitwise_count, the one bit count of the package's mask arrays, came in NumPy 2.0.
if not hasattr(np, "bitwise_count"):
    raise ImportError(f"invarr needs NumPy >= 2.0, found NumPy {np.__version__}")

Word = tuple[int, ...]


# code_product of the longest element is n!; 20! < 2^63 <= 21!.
MAX_CODE_PRODUCT_N = 20


@dataclass(frozen=True)
class Permutation:
    """One-line notation word, validated to be a bijection on 1..n."""

    word: Word

    def __post_init__(self) -> None:
        word = tuple(map(operator.index, self.word))
        n = len(word)
        if n == 0:
            raise ValueError("empty permutation")
        seen = 0
        for v in word:
            if not 1 <= v <= n:
                raise ValueError(
                    f"value {v} out of range 1..{n}: not a permutation of 1..{n}"
                )
            bit = 1 << v
            if seen & bit:
                raise ValueError(f"duplicate value {v}: not a permutation of 1..{n}")
            seen |= bit
        object.__setattr__(self, "word", word)

    @property
    def n(self) -> int:
        return len(self.word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The order-reversing word n, n-1, ..., 1."""
        return cls(tuple(range(n, 0, -1)))

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return " ".join(str(v) for v in self.word)

    def __len__(self) -> int:
        return len(self.word)


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, compact ("25134") or separated ("2,5,1,3,4").

    Words with any comma or whitespace are split on runs of those
    separators; otherwise every character must be a single digit.  Only
    the ASCII digits 0-9 count, not the signs, underscores or other
    Unicode digits that ``int`` accepts.  Words longer than 9 letters must
    use separators, since compact digits would be ambiguous.

    >>> parse_permutation("312").word
    (3, 1, 2)
    >>> parse_permutation("10 2 3 4 5 6 7 8 9 1").word
    (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    >>> parse_permutation("2 5 1,3,4") == parse_permutation("25134")
    True
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation")
    if _re.search(r"[,\s]", stripped):
        tokens = [t for t in _re.split(r"[,\s]+", stripped) if t]
        bad = next((t for t in tokens if not _re.fullmatch("[0-9]+", t)), None)
        if bad is not None:
            raise ValueError(f"invalid token {bad!r} in permutation")
        return Permutation(tuple(map(int, tokens)))
    bad = next((ch for ch in stripped if ch not in "0123456789"), None)
    if bad is not None:
        raise ValueError(f"invalid character {bad!r} in permutation")
    if len(stripped) > 9:
        raise ValueError(
            "compact digit form is ambiguous beyond 9 letters; separate values "
            "with spaces or commas"
        )
    return Permutation(tuple(int(ch) for ch in stripped))


def inversion_mask(word: Word) -> int:
    """Bit mask of I(w) for a bare word, in the lexicographic pair slots."""
    n = len(word)
    mask = 0
    slot = 0
    for i in range(n):
        wi = word[i]
        for j in range(i + 1, n):
            if wi > word[j]:
                mask |= 1 << slot
            slot += 1
    return mask


def inversion_count(w: Permutation) -> int:
    return inversion_mask(w.word).bit_count()


def lehmer_code(w: Permutation) -> tuple[int, ...]:
    """c_i(w) = #{j > i : w_j < w_i}, the inversions opened at position i.

    >>> lehmer_code(Permutation((4, 1, 3, 8, 2, 6, 5, 7)))
    (3, 0, 1, 4, 0, 1, 0, 0)
    >>> lehmer_code(Permutation.identity(5))
    (0, 0, 0, 0, 0)
    """
    word = w.word
    n = len(word)
    return tuple(
        sum(1 for j in range(i + 1, n) if word[j] < word[i]) for i in range(n)
    )


def code_product(w: Permutation) -> int:
    """The product of (c_i(w) + 1) over all positions.

    Equals the number of elements below w in left weak order.  Capped at
    n <= 20 so the result always fits in a signed 64-bit word.

    >>> code_product(Permutation((2, 5, 1, 3, 4)))
    8
    >>> code_product(Permutation.longest(4))
    24
    """
    if w.n > MAX_CODE_PRODUCT_N:
        raise ValueError(f"code_product supports n <= {MAX_CODE_PRODUCT_N}, got n={w.n}")
    out = 1
    for c in lehmer_code(w):
        out = checked_int64(out * (c + 1))
    return out


def inverse(w: Permutation) -> Permutation:
    """w^-1; position and value swap roles.

    >>> str(inverse(Permutation((2, 5, 1, 3, 4))))
    '31452'
    >>> inverse(inverse(Permutation((4, 1, 3, 8, 2, 6, 5, 7)))).word
    (4, 1, 3, 8, 2, 6, 5, 7)
    """
    out = [0] * w.n
    for pos, val in enumerate(w.word, start=1):
        out[val - 1] = pos
    return Permutation(tuple(out))


# Pattern words whose windows are kept: the seven of ``columns.PATTERNS``
# and a few more.
MAX_PATTERN_WINDOWS = 32


@lru_cache(maxsize=MAX_PATTERN_WINDOWS)
def _pattern_windows(pword: Word) -> tuple[tuple[int, int], ...]:
    """For each position t of ``pword``, the positions s < t of the nearest
    smaller and the nearest larger value of pword[t]; k and k + 1 (the
    sentinel slots of ``contains_pattern``) where there is none."""
    k = len(pword)
    windows = []
    for t, p in enumerate(pword):
        below = [(pword[s], s) for s in range(t) if pword[s] < p]
        above = [(pword[s], s) for s in range(t) if pword[s] > p]
        windows.append((max(below)[1] if below else k, min(above)[1] if above else k + 1))
    return tuple(windows)


def contains_pattern(w: Permutation, pattern: Permutation) -> bool:
    """Whether some subsequence of w is order-isomorphic to ``pattern``.

    Backtracking over pattern positions left to right.  The letters
    chosen so far are order-isomorphic to the pattern's prefix, so a
    candidate for position t keeps that true exactly when it lies
    strictly between the letters chosen at the nearest smaller and the
    nearest larger value of the prefix (``_pattern_windows``).

    >>> contains_pattern(Permutation((2, 5, 1, 3, 4)), Permutation((2, 3, 1)))
    True
    >>> contains_pattern(Permutation((1, 2, 3, 4)), Permutation((2, 1)))
    False
    """
    k, n = pattern.n, w.n
    if k > n:
        return False
    windows, wword = _pattern_windows(pattern.word), w.word
    chosen = [0] * k + [0, n + 1]  # the sentinels bound an open window

    def extend(t: int, start: int) -> bool:
        if t == k:
            return True
        low, high = windows[t]
        low, high = chosen[low], chosen[high]
        for pos in range(start, n - k + t + 1):
            v = wword[pos]
            if low < v < high:
                chosen[t] = v
                if extend(t + 1, pos + 1):
                    return True
        return False

    return extend(0, 0)


def avoids_all(w: Permutation, patterns: tuple[Permutation, ...]) -> bool:
    """True when w contains none of ``patterns``."""
    return not any(contains_pattern(w, p) for p in patterns)


# Pattern bundles for the equality characterizations: weak-order interval
# size vs code product (231), code product vs rook count via the diagram
# shape (312), region count vs Bruhat interval size (the four patterns),
# and the region distance enumerator matching the Bruhat Poincare
# polynomial (3412 and 4231).
PATTERN_231 = Permutation((2, 3, 1))
PATTERN_312 = Permutation((3, 1, 2))
WEAK_EQUALITY_PATTERNS = (PATTERN_231, PATTERN_312)
REGION_BRUHAT_EQUALITY_PATTERNS = (
    Permutation((4, 2, 3, 1)),
    Permutation((3, 5, 1, 4, 2)),
    Permutation((4, 2, 5, 1, 3)),
    Permutation((3, 5, 1, 6, 2, 4)),
)
POINCARE_MATCH_PATTERNS = (Permutation((3, 4, 1, 2)), Permutation((4, 2, 3, 1)))


def iter_words(n: int):
    """All words of S_n in lexicographic order, as bare tuples."""
    return itertools.permutations(range(1, n + 1))


def unrank_lex(n: int, rank: int) -> Permutation:
    """The permutation at 0-based ``rank`` in lexicographic order.

    >>> unrank_lex(3, 0).word
    (1, 2, 3)
    >>> unrank_lex(3, 5).word
    (3, 2, 1)
    >>> all(unrank_lex(4, r).word == w
    ...     for r, w in enumerate(iter_words(4)))
    True
    """
    if not 0 <= rank < factorial(n):
        raise ValueError(f"rank {rank} out of range for n={n}")
    available = list(range(1, n + 1))
    out = []
    block = factorial(n)
    for remaining in range(n, 0, -1):
        block //= remaining
        pick, rank = divmod(rank, block)
        out.append(available.pop(pick))
    return Permutation(tuple(out))


def length_polynomial(lengths) -> QPolynomial:
    """Rank generating function of a set of elements, given their lengths.

    >>> print(length_polynomial([0, 1, 1, 2]))
    1 + 2q + q^2
    """
    return QPolynomial(tuple(np.bincount(lengths).tolist()))
