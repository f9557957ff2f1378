"""Inversion graphs, acyclic orientations, and arrangement regions.

The inversion graph of w joins positions i < j exactly when (i, j) is an
inversion of w.  Its chromatic polynomial is expanded in the
falling-factorial basis, whose coefficients count the partitions of the
vertices into independent sets, one vectorized DP over vertex bitmasks
for every n <= 12; the number of acyclic orientations is the absolute
value of the chromatic polynomial at -1, and it equals the number of
regions of the arrangement of the hyperplanes {x_i = x_j : (i, j)
inverted}.

Regions are enumerated combinatorially: a region is determined by its
sign vector over the inverted pairs, and the achievable sign vectors are
exactly the restrictions I(u) & I(w) over all permutations u, kept as
uint32 masks over the slots of ``perm.inversion_mask`` with no compaction
onto the inverted pairs.  ``regions`` takes one chamber per region, its
gate: the chamber u whose lower walls L(u), the slots (i, j), i < j,
with u_i = u_j + 1, all lie in I(w).  It is one filter of the
whole-group table (``columns.group_table``, n <= 8) and shares the gate
rule with the ``re`` column.  Its oracle ``regions_by_sort`` keeps the
distinct restrictions left by one sort of every mask of the table.  The
base region is the identity chamber x_1 < x_2 < ... < x_n (mask 0); a
region's distance is the number of hyperplanes separating it from the
base, the popcount of its mask, so the distance enumerator of the full
braid arrangement (w longest) matches the weak-order Poincare
polynomial of the whole group.

>>> w = Permutation((2, 5, 1, 3, 4))
>>> g = inversion_graph(w)
>>> sorted(g.edges)
[(1, 3), (2, 3), (2, 4), (2, 5)]
>>> count_acyclic_orientations(g)
16
>>> regions(w).size
16
>>> print(distance_enumerator(Permutation((3, 2, 1))))
1 + 2q + 2q^2 + q^3
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .columns import group_table
from .perm import (
    Permutation,
    inversion_mask,
    length_polynomial,
)
from .qpoly import QPolynomial, checked_int64

MAX_AO_VERTICES = 12
MAX_BRUTE_EDGES = 16


@dataclass(frozen=True)
class InversionGraph:
    """Simple graph on vertices 1..n with edges as sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if not 1 <= a < b <= self.n:
                raise ValueError(f"bad edge ({a}, {b}) for n={self.n}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def inversion_graph(w: Permutation) -> InversionGraph:
    """The graph of inverted position pairs of w."""
    word = w.word
    pairs = itertools.combinations(range(w.n), 2)
    return InversionGraph(w.n, frozenset((i + 1, j + 1) for i, j in pairs if word[i] > word[j]))


# ---------------------------------------------------------------------------
# chromatic polynomials: integer coefficient tuples in k, low degree first
#
# chi(G, k) = sum over j of a_j(G) k(k-1)...(k-j+1), where a_j(G) counts
# the partitions of the vertex set into j independent sets (Read, *An
# introduction to chromatic polynomials*, JCT 4, 1968).  The a_j come
# from one DP over vertex bitmasks: g_j(X), the number of partitions of X
# into j independent blocks, is the sum of g_{j-1}(X - T) over the
# independent blocks T that hold the lowest vertex of X (the 3^n form of
# Bjoerklund, Husfeldt and Koivisto, *Set partitioning via
# inclusion-exclusion*, SIAM J. Comput. 39, 2009).  It counts color
# classes, the definition of chi, and so shares no arithmetic with the
# source-set recursion of the ao column.


@lru_cache(maxsize=MAX_AO_VERTICES)
def _block_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (X, T) of vertex masks with lowbit(X) in T, T a subset of X.

    Each vertex lies outside X, in X - T or in T; of those 3^n choices
    the (3^n - 1) / 2 that put the lowest vertex of a nonempty X in T
    are kept: 3280 at n = 8, 265720 (about 2 MB) at n = 12.
    """
    x = np.zeros(1, np.int32)
    t = np.zeros(1, np.int32)
    for v in range(n):
        bit = np.int32(1 << v)
        x = np.concatenate([x, x | bit, x | bit])
        t = np.concatenate([t, t, t | bit])
    keep = (t & x & -x) != 0
    x, t = x[keep], t[keep]
    for array in (x, t):
        array.setflags(write=False)  # every caller shares the cached arrays
    return x, t


@lru_cache(maxsize=MAX_AO_VERTICES)
def _pair_subsets(n: int) -> np.ndarray:
    """(C(n, 2), 2^n) bool: row s marks the vertex masks that hold both ends
    of pair slot s, in the slot order of ``perm.inversion_mask`` (270 KB
    at n = 12)."""
    bits = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1 == 1
    first, second = np.triu_indices(n, 1)  # the pairs in lexicographic order
    table = bits[first] & bits[second]
    table.setflags(write=False)  # every caller shares the cached table
    return table


@lru_cache(maxsize=MAX_AO_VERTICES)
def _falling_factorials(n: int) -> np.ndarray:
    """(n + 1, n + 1) int64: row j holds k(k-1)...(k-j+1), low degree first."""
    falling = np.zeros((n + 1, n + 1), dtype=np.int64)
    falling[0, 0] = 1
    for j in range(n):
        falling[j + 1, 1:] = falling[j, :-1]
        falling[j + 1] -= j * falling[j]
    falling.setflags(write=False)  # every caller shares the cached matrix
    return falling


def _chromatic(n: int, edges: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """Chromatic polynomial of the graph on vertices 1..n with ``edges``."""
    slots = [(a - 1) * (2 * n - a) // 2 + b - a - 1 for a, b in edges]
    independent = ~_pair_subsets(n)[slots].any(axis=0)
    x, t = _block_pairs(n)
    keep = np.take(independent, t)
    # the kept pairs as intp, which np.take and np.bincount would otherwise
    # convert them to in each of the n passes
    x = np.compress(keep, x).astype(np.intp)
    rest = x ^ np.compress(keep, t)
    # g holds g_j over all subsets, from g_0 = [X empty]; a_j = g_j(all).
    # Every g_j(X) is at most Bell(12) = 4213597 < 2^53, so the float64
    # weights of bincount add exactly.
    g = np.zeros(1 << n)
    g[0] = 1.0
    counts = np.empty(n + 1, dtype=np.int64)
    counts[0] = g[-1]
    for j in range(1, n + 1):
        g = np.bincount(x, weights=np.take(g, rest), minlength=1 << n)
        counts[j] = g[-1]
    # a_j <= Bell(12) and the coefficients of the falling factorials are at
    # most 12! in size, so every term of the product is below 2.1e15
    return tuple((counts @ _falling_factorials(n)).tolist())


# Chromatic polynomials by (n, edges), one entry per distinct graph,
# cleared when it passes MAX_CHROMATIC_MEMO entries.  Sweeps read ao from
# the group columns and never fill it; stat_record does, and
# oracle_checks asks for the same graph in up to three rows.  A full memo
# of S_8 graphs holds about 18 MiB.
MAX_CHROMATIC_MEMO = 1 << 14
_CHROMATIC_MEMO: dict[tuple[int, frozenset[tuple[int, int]]], tuple[int, ...]] = {}


def chromatic_polynomial(g: InversionGraph) -> tuple[int, ...]:
    """Integer coefficients of the chromatic polynomial, low degree first.

    >>> chromatic_polynomial(InversionGraph(3, frozenset({(1, 2), (1, 3), (2, 3)})))
    (0, 2, -3, 1)
    >>> chromatic_polynomial(InversionGraph(2, frozenset()))
    (0, 0, 1)
    """
    if g.n > MAX_AO_VERTICES:
        raise ValueError(
            f"chromatic polynomial supports n <= {MAX_AO_VERTICES}, got n={g.n}"
        )
    key = (g.n, g.edges)
    cached = _CHROMATIC_MEMO.get(key)
    if cached is None:
        cached = _chromatic(g.n, g.edges)
        if len(_CHROMATIC_MEMO) >= MAX_CHROMATIC_MEMO:
            _CHROMATIC_MEMO.clear()
        _CHROMATIC_MEMO[key] = cached
    return cached


def count_acyclic_orientations(g: InversionGraph) -> int:
    """Number of acyclic orientations: |chi(-1)|.

    >>> count_acyclic_orientations(InversionGraph(3, frozenset({(1, 2), (2, 3)})))
    4
    >>> count_acyclic_orientations(InversionGraph(4, frozenset()))
    1
    """
    coeffs = chromatic_polynomial(g)
    value = 0
    for c in reversed(coeffs):
        value = value * -1 + c
    return checked_int64(abs(value))


def count_acyclic_orientations_by_enumeration(g: InversionGraph) -> int:
    """Oracle: try all 2^m orientations, keep the ones without cycles."""
    edges = sorted(g.edges)
    m = len(edges)
    if m > MAX_BRUTE_EDGES:
        raise ValueError(f"enumeration oracle supports m <= {MAX_BRUTE_EDGES} edges")
    n = g.n
    count = 0
    for assignment in range(1 << m):
        successors: list[list[int]] = [[] for _ in range(n + 1)]
        indegree = [0] * (n + 1)
        for t, (a, b) in enumerate(edges):
            if assignment >> t & 1:
                a, b = b, a
            successors[a].append(b)
            indegree[b] += 1
        ready = [x for x in range(1, n + 1) if indegree[x] == 0]
        placed = 0
        while ready:
            x = ready.pop()
            placed += 1
            for y in successors[x]:
                indegree[y] -= 1
                if indegree[y] == 0:
                    ready.append(y)
        if placed == n:
            count += 1
    return count


# ---------------------------------------------------------------------------
# regions


def regions(w: Permutation) -> np.ndarray:
    """All regions of the inversion arrangement of w, one uint32 sign mask
    per gate, so the array's ``size`` is the region count.

    Every region holds exactly one chamber u with L(u) inside I(w): from
    any other chamber of the region, crossing a lower wall outside I(w)
    stays in the region and comes one step nearer the base.  The gates'
    restrictions I(u) & I(w) are the regions' sign vectors, in the
    table's row order.  A region's distance from the base region
    (identity chamber, mask 0) is the popcount of its mask.

    >>> regions(Permutation((1, 2, 3))).size
    1
    >>> regions(Permutation.longest(3)).size
    6
    """
    table, target = group_table(w.n), np.uint32(inversion_mask(w.word))
    return np.compress((table.lower & ~target) == 0, table.masks) & target


def regions_by_sort(w: Permutation) -> np.ndarray:
    """Oracle: the distinct restrictions I(u) & I(w) over all of S_n, sorted.

    A sign vector is achievable exactly when it is I(u) restricted to
    I(w) for some permutation u (the chamber of u in the full braid
    arrangement lies in that region), so the distinct restrictions
    enumerate the regions.

    >>> regions_by_sort(Permutation((2, 1, 3))).tolist()
    [0, 1]
    """
    # sort and drop repeats: np.unique is several times slower here
    restricted = np.sort(group_table(w.n).masks & np.uint32(inversion_mask(w.word)))
    return restricted[np.concatenate(([True], restricted[1:] != restricted[:-1]))]


def distance_of_regions(masks: np.ndarray) -> QPolynomial:
    """Generating function of region distances from the base chamber, given
    the regions' sign masks: a region's distance is its mask's bit count."""
    return length_polynomial(np.bitwise_count(masks))


def distance_enumerator(w: Permutation) -> QPolynomial:
    """Distance generating function of the regions of w's arrangement.

    For the longest element this is the Poincare polynomial of the whole
    group under weak order.

    >>> print(distance_enumerator(Permutation((3, 1, 2))))
    1 + 2q + q^2
    >>> distance_enumerator(Permutation((2, 5, 1, 3, 4)))(1)
    16
    """
    return distance_of_regions(regions(w))
