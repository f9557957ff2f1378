"""South-west diagrams and non-attacking rook placements.

The south-west diagram of w is O_w = {(i, w_j) : i < j, w_i < w_j},
drawn in matrix coordinates (row i from the top, column v from the
left).  Row i of O_w holds a_i(w) = n - i - c_i(w) cells, where c is the
Lehmer code.  The rook count of w is the number of ways to place n
non-attacking rooks on the complement of O_w inside the n x n board; it
is computed as the permanent of the complement's 0/1 matrix via the
Ryser inclusion-exclusion formula, with a backtracking oracle for
cross-checks.

>>> w = Permutation((2, 5, 1, 3, 4))
>>> sorted(southwest_diagram(w).cells)
[(1, 3), (1, 4), (1, 5), (3, 3), (3, 4), (4, 4)]
>>> southwest_diagram(w).row_counts()
(3, 0, 2, 1, 0)
>>> rook_count(w)
16
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .perm import Permutation
from .qpoly import checked_int64

MAX_PERMANENT_N = 12  # at most 16: the column subsets are uint16 masks
# Products one Ryser block holds at once (64 KiB of int32), gathered from
# n times as many uint8 row counts.
_RYSER_CHUNK = 1 << 14


@dataclass(frozen=True)
class Board:
    """A set of cells (row, column) inside the n x n grid, 1-based."""

    n: int
    cells: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for r, c in self.cells:
            if not (1 <= r <= self.n and 1 <= c <= self.n):
                raise ValueError(f"cell ({r}, {c}) outside the {self.n} x {self.n} board")

    def row_counts(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for r, _ in self.cells:
            counts[r - 1] += 1
        return tuple(counts)

    def row_masks(self) -> tuple[int, ...]:
        """Column bit masks per row; bit c - 1 set when (row, c) is on the board."""
        masks = [0] * self.n
        for r, c in self.cells:
            masks[r - 1] |= 1 << (c - 1)
        return tuple(masks)

    def complement(self) -> "Board":
        full = frozenset(
            (r, c) for r in range(1, self.n + 1) for c in range(1, self.n + 1)
        )
        return Board(self.n, full - self.cells)


def southwest_diagram(w: Permutation) -> Board:
    """O_w = {(i, w_j) : i < j, w_i < w_j}.

    >>> sorted(southwest_diagram(Permutation((3, 1, 2))).cells)
    [(2, 2)]
    >>> southwest_diagram(Permutation.longest(4)).cells
    frozenset()
    """
    word = w.word
    n = w.n
    cells = set()
    for i in range(n):
        for j in range(i + 1, n):
            if word[i] < word[j]:
                cells.add((i + 1, word[j]))
    return Board(n, frozenset(cells))


@lru_cache(maxsize=MAX_PERMANENT_N)
def _ryser_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^n column subsets S of an n x n board as uint16, and the
    int64 signs (-1)^(n - |S|) of their Ryser terms, both read-only."""
    subsets = np.arange(1 << n, dtype=np.uint16)
    odd = (n - np.bitwise_count(subsets)) % 2 == 1
    signs = np.where(odd, -1, 1).astype(np.int64)
    for array in (subsets, signs):
        array.setflags(write=False)  # shared by every later call at this n
    return subsets, signs


def permanents(rows: np.ndarray) -> np.ndarray:
    """Permanents of n x n boards given as (N, n) uint16 column masks per row, int64.

    Ryser inclusion-exclusion over the column subsets S:
    perm = sum over S of (-1)^(n - |S|) * prod_i popcount(row_i & S),
    for a block of boards against all 2^n subsets at once: one gather of
    the row counts, one product over the rows and one signed sum.  Blocks
    hold at most _RYSER_CHUNK products; a product of n row counts reaches
    n^n, which int32 holds up to n = 9.

    >>> permanents(np.array([[3, 3], [1, 2]], dtype=np.uint16)).tolist()
    [2, 1]
    """
    n = rows.shape[1]
    subsets, signs = _ryser_terms(n)
    dtype = np.int32 if n <= 9 else np.int64
    step = max(1, _RYSER_CHUNK >> n)
    out = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), step):
        counts = np.bitwise_count(rows[lo : lo + step, :, None] & subsets)
        out[lo : lo + step] = counts.prod(axis=1, dtype=dtype) @ signs
    return out


def count_rook_placements_by_backtracking(board: Board) -> int:
    """Oracle for rook_count: place n non-attacking rooks on the board's
    cells row by row."""
    n = board.n
    masks = board.row_masks()
    full = (1 << n) - 1

    def place(row: int, free: int) -> int:
        if row == n:
            return 1
        total = 0
        available = masks[row] & free
        while available:
            bit = available & -available
            available ^= bit
            total += place(row + 1, free ^ bit)
        return total

    return place(0, full)


def rook_count(w: Permutation) -> int:
    """Rook placements on the complement of the south-west diagram.

    Equals both the region count of w's inversion arrangement and the
    number of acyclic orientations of its inversion graph.

    >>> rook_count(Permutation((3, 1, 2)))
    4
    >>> rook_count(Permutation.identity(4))
    1
    """
    if w.n > MAX_PERMANENT_N:
        raise ValueError(f"rook_count supports n <= {MAX_PERMANENT_N}, got n={w.n}")
    full = (1 << w.n) - 1
    diagram = southwest_diagram(w).row_masks()
    complement_rows = np.array([[full ^ mask for mask in diagram]], dtype=np.uint16)
    return checked_int64(int(permanents(complement_rows)[0]))


def is_right_justified_ferrers(board: Board) -> bool:
    """Whether each row is a right-justified run and row lengths weakly decrease.

    True for the south-west diagram of w exactly when w avoids 312.

    >>> is_right_justified_ferrers(southwest_diagram(Permutation((2, 3, 1))))
    True
    >>> is_right_justified_ferrers(southwest_diagram(Permutation((3, 1, 2))))
    False
    """
    n = board.n
    masks = board.row_masks()
    counts = board.row_counts()
    for a, b in zip(counts, counts[1:]):
        if a < b:
            return False
    for count, mask in zip(counts, masks):
        if mask != ((1 << count) - 1) << (n - count):
            return False
    return True
