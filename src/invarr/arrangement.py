"""Inversion graphs, acyclic orientations, and arrangement regions.

The inversion graph of w joins positions i < j exactly when (i, j) is an
inversion of w.  Its chromatic polynomial is computed by
deletion-contraction with component splitting and closed forms for
edgeless graphs, trees, cycles, and complete graphs; the number of
acyclic orientations is the absolute value of the chromatic polynomial
at -1, and it equals the number of regions of the arrangement of the
hyperplanes {x_i = x_j : (i, j) inverted}.

Regions are enumerated combinatorially: a region is determined by its
sign vector over the inverted pairs, and the achievable sign vectors are
exactly the restrictions I(u) & I(w) over all permutations u.  They are
kept as the distinct uint32 inversion masks left by one sort of the
whole-group table (``perm.group_table``, n <= 8); only
``RegionSet.signs`` compacts them onto the inverted pairs.  The base
region is the identity chamber x_1 < x_2 < ... < x_n (mask 0); a
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

from dataclasses import dataclass

import numpy as np

from .perm import (
    InversionSet,
    Permutation,
    group_table,
    inversion_mask,
    inversion_set,
    length_polynomial,
    popcounts,
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
    return InversionGraph(w.n, frozenset(inversion_set(w).pairs()))


# ---------------------------------------------------------------------------
# chromatic polynomials: dense integer coefficient tuples in k, low degree
# first, trailing zeros trimmed


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _psub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _pshift(a: tuple[int, ...], s: int) -> tuple[int, ...]:
    return a if a == (0,) else (0,) * s + a


def _pow_k_minus_1(t: int) -> tuple[int, ...]:
    out = (1,)
    for _ in range(t):
        out = _pmul(out, (-1, 1))
    return out


def _falling_factorial(v: int) -> tuple[int, ...]:
    out = (1,)
    for t in range(v):
        out = _pmul(out, (-t, 1))
    return out


def _relabeled(vertices: list[int], edges: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Pack ``vertices`` down to 0..len-1 preserving the given order."""
    pos = {v: t for t, v in enumerate(vertices)}
    return frozenset(
        (pos[a], pos[b]) if pos[a] < pos[b] else (pos[b], pos[a]) for a, b in edges
    )


def _canonical_key(v: int, edges: frozenset[tuple[int, int]]) -> tuple:
    """Memo key: relabel by a degree-based order, then keep the full edge set.

    The degree data only picks a deterministic relabeling; the key still
    contains every edge, so distinct graphs that happen to share degree
    statistics can never collide.
    """
    adjacency: list[list[int]] = [[] for _ in range(v)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    signature = {
        x: (len(adjacency[x]), tuple(sorted(len(adjacency[y]) for y in adjacency[x])))
        for x in range(v)
    }
    order = sorted(range(v), key=lambda x: (signature[x], x))
    return (v, tuple(sorted(_relabeled(order, edges))))


# Chromatic polynomials of connected graphs by canonical key, cleared when
# it passes MAX_CHROMATIC_MEMO entries.  Sweeps read ao from the group
# columns and never fill it; stat_record and the oracle checks do.
# Deletion-contraction over all of S_8 in one process leaves 11498
# entries (about 15 MiB), and every graph of a smaller n is a component
# of one of S_8, so no loop over whole groups at n <= 8 reaches the cap.
MAX_CHROMATIC_MEMO = 1 << 14
_CHROMATIC_MEMO: dict[tuple, tuple[int, ...]] = {}


def _chi(v: int, edges: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """Chromatic polynomial of a graph on vertices 0..v-1."""
    if not edges:
        return _pshift((1,), v)

    adjacency: list[set[int]] = [set() for _ in range(v)]
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    isolated = [x for x in range(v) if not adjacency[x]]
    components: list[list[int]] = []
    seen = [False] * v
    for start in range(v):
        if seen[start] or not adjacency[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        components.append(sorted(comp))

    if isolated or len(components) > 1:
        out = _pshift((1,), len(isolated))
        for comp in components:
            out = _pmul(out, _chi(len(comp), _relabeled(comp, edges & _within(comp))))
        return out

    return _chi_connected(v, edges, adjacency)


def _within(vertices: list[int]) -> frozenset[tuple[int, int]]:
    vs = set(vertices)
    return frozenset((a, b) for a in vs for b in vs if a < b)


def _chi_connected(
    v: int, edges: frozenset[tuple[int, int]], adjacency: list[set[int]]
) -> tuple[int, ...]:
    m = len(edges)
    if m == v - 1:  # spanning tree
        return _pmul((0, 1), _pow_k_minus_1(v - 1))
    if m == v * (v - 1) // 2:  # complete graph
        return _falling_factorial(v)
    if all(len(adjacency[x]) == 2 for x in range(v)):  # single cycle
        # chi(C_v) = (k - 1)^v + (-1)^v (k - 1)
        sign = 1 if v % 2 == 0 else -1
        return _psub(_pow_k_minus_1(v), (sign, -sign))

    key = _canonical_key(v, edges)
    cached = _CHROMATIC_MEMO.get(key)
    if cached is not None:
        return cached

    # pick the edge with the largest endpoint degrees, deterministically
    edge = min(edges, key=lambda e: (-(len(adjacency[e[0]]) + len(adjacency[e[1]])), e))
    a, b = edge

    deleted = _chi(v, edges - {edge})

    # contract b into a: relabel x > b down by one, b itself onto a
    def squash(x: int) -> int:
        if x == b:
            return a
        return x - 1 if x > b else x

    contracted_edges = set()
    for x, y in edges:
        if (x, y) == edge:
            continue
        cx, cy = squash(x), squash(y)
        if cx != cy:
            contracted_edges.add((cx, cy) if cx < cy else (cy, cx))
    contracted = _chi(v - 1, frozenset(contracted_edges))

    result = _psub(deleted, contracted)
    if len(_CHROMATIC_MEMO) >= MAX_CHROMATIC_MEMO:
        _CHROMATIC_MEMO.clear()
    _CHROMATIC_MEMO[key] = result
    return result


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
    zero_based = frozenset((a - 1, b - 1) for a, b in g.edges)
    return _chi(g.n, zero_based)


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


@dataclass(frozen=True, eq=False)
class RegionSet:
    """Regions of the arrangement {x_i = x_j : (i, j) in I(w)}.

    ``masks`` holds one uint32 mask per region, sorted: the distinct
    restrictions I(u) & I(w) over u in S_n, in the slots of
    ``pair_slot``.  A region's distance from the base region (identity
    chamber, mask 0) is its number of separating hyperplanes, the
    popcount of its mask.  ``signs`` compacts the masks onto the
    inverted pairs in lexicographic pair order: bit t is 1 when
    x_i > x_j on the region for the t-th inverted pair (i, j).
    """

    n: int
    target: int  # the mask of I(w)
    masks: np.ndarray  # (regions,) uint32, sorted

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def hyperplanes(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(InversionSet(self.n, self.target).pairs()))

    @property
    def signs(self) -> frozenset[int]:
        # compact the sign bits onto the inverted pairs, one slot at a time
        signs = np.zeros_like(self.masks)
        slots = [slot for slot in range(self.target.bit_length()) if self.target >> slot & 1]
        for t, slot in enumerate(slots):
            signs |= (self.masks >> np.uint32(slot) & np.uint32(1)) << np.uint32(t)
        return frozenset(signs.tolist())

    def distances(self) -> tuple[int, ...]:
        return tuple(np.sort(popcounts(self.masks)).tolist())


def regions(w: Permutation) -> RegionSet:
    """All regions of the inversion arrangement of w.

    A sign vector is achievable exactly when it is I(u) restricted to
    I(w) for some permutation u (the chamber of u in the full braid
    arrangement lies in that region), so the distinct restrictions
    enumerate the regions.

    >>> regions(Permutation((1, 2, 3))).size
    1
    >>> regions(Permutation.longest(3)).size
    6
    """
    target = inversion_mask(w.word)
    return RegionSet(w.n, target, group_table(w.n).region_signs(target))


def distance_of_regions(rs: RegionSet) -> QPolynomial:
    """Generating function of region distances from the base chamber."""
    return length_polynomial(popcounts(rs.masks))


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
