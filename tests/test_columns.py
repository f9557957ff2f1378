"""The whole-group statistic columns against the per-record routes.

Each row of ``verify.COLUMN_ROUTES`` pairs a column with a route or
definition that shares no arithmetic with it.  ``oracle_checks(9)``, the
session fixture, runs each row on all of S_n at its cap; the tests here
run the same rows on all of S_n for every other n <= 7 and on a seeded
sample of S8.
"""

import hashlib
import itertools
import random
import tracemalloc
from math import factorial

import numpy as np
import pytest

from invarr import arrangement, cli, columns, orders, rook, verify
from invarr.columns import group_table
from invarr.perm import (
    PATTERN_231,
    PATTERN_312,
    Permutation,
    inverse,
    iter_words,
    lehmer_code,
    unrank_lex,
)
from invarr.qpoly import QPolynomial

S8_SAMPLE_SEED = 20261018


@pytest.mark.parametrize("n", range(1, 8))
def test_every_column_matches_its_route_on_all_of_s_n(n):
    for row in verify.COLUMN_ROUTES:
        if row.cap != n:
            assert verify.first_mismatch(row.pair, n, range(factorial(n))) == "", row.name


def test_every_column_matches_its_route_on_an_s8_sample():
    ranks = [0, factorial(8) - 1] + random.Random(S8_SAMPLE_SEED).sample(
        range(1, factorial(8) - 1), 400
    )
    for row in verify.COLUMN_ROUTES:
        assert verify.first_mismatch(row.pair, 8, ranks) == "", row.name


def _check_bruhat_rows(n: int, ranks) -> None:
    table = group_table(n)
    bruhat = table.bruhat
    assert bruhat.shape == (factorial(n), n * (n - 1) // 2 + 1)
    for rank in ranks:
        below = (table.dom <= table.dom[rank]).all(axis=1)
        lengths = np.bincount(table.inv[below], minlength=bruhat.shape[1])
        assert int(bruhat[rank].sum()) == int(below.sum()), rank
        assert bruhat[rank].tolist() == lengths.tolist(), rank


# The same compare as the bruhat_column_vs_dominance_compare row, written
# out here with the row count and array shape checked as well.
@pytest.mark.parametrize("n", range(1, 8))
def test_bruhat_column_matches_the_full_dominance_compare_on_all_of_s_n(n):
    _check_bruhat_rows(n, range(factorial(n)))


def test_bruhat_column_matches_the_full_dominance_compare_on_an_s8_sample():
    ranks = [0, factorial(8) - 1] + random.Random(S8_SAMPLE_SEED).sample(
        range(1, factorial(8) - 1), 400
    )
    _check_bruhat_rows(8, ranks)


def _essential_set_by_definition(word: tuple[int, ...]) -> set[tuple[int, int]]:
    """The cells (i, j) of the Rothe diagram D(v) = {(i, j) : v_i > j,
    v^-1(j) > i} of v = w0 w with neither (i + 1, j) nor (i, j + 1) in D(v)."""
    n = len(word)
    v = Permutation(tuple(n + 1 - a for a in word))
    position = inverse(v).word
    diagram = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if v.word[i - 1] > j and position[j - 1] > i
    }
    return {(i, j) for i, j in diagram if (i + 1, j) not in diagram and (i, j + 1) not in diagram}


def _check_essential_cells(words: np.ndarray) -> None:
    """essential_cells of ``words`` against the definition, word by word;
    the dom column of cell (i, j) is (i - 1) n + n - j."""
    n = words.shape[1]
    rows, dom_columns = columns.essential_cells(words)
    assert (np.diff(rows) >= 0).all()  # in row order
    cells = [set() for _ in words]
    for rank, column in zip(rows.tolist(), dom_columns.tolist()):
        cells[rank].add((column // n + 1, n - column % n))
    for word, found in zip(words.tolist(), cells):
        assert found == _essential_set_by_definition(tuple(word)), word


@pytest.mark.parametrize("n", range(1, 7))
def test_essential_cells_match_the_rothe_diagram_on_all_of_s_n(n):
    _check_essential_cells(group_table(n).words)


def test_essential_cells_match_the_rothe_diagram_on_an_s8_sample():
    # words of Python ints, as GroupTable.bruhat_below passes them
    ranks = [0, factorial(8) - 1] + random.Random(S8_SAMPLE_SEED).sample(
        range(1, factorial(8) - 1), 400
    )
    _check_essential_cells(np.array([unrank_lex(8, rank).word for rank in ranks]))


def test_s8_catalan_avoiders_and_rk_equals_ao():
    table = group_table(8)
    avoids_231 = table.avoids((PATTERN_231,))
    avoids_312 = table.avoids((PATTERN_312,))
    assert int(avoids_231.sum()) == int(avoids_312.sum()) == 1430
    assert int((avoids_231 & avoids_312).sum()) == 2**7
    assert np.array_equal(table.rk, table.ao)
    assert len(table.rk) == factorial(8)


@pytest.mark.parametrize("n", range(1, 9))
def test_rk_column_equals_the_ryser_permanents_of_the_complement_boards(n):
    table = group_table(n)
    complement = columns._diagram_rows(table.words) ^ np.uint16((1 << n) - 1)
    assert table.rk.tolist() == rook.permanents(complement).tolist()


@pytest.mark.parametrize("n", range(1, 9))
def test_words_are_the_lexicographic_permutations(n):
    # the first-letter blocks add int8 + bool, which keeps int8 on NumPy 2.x
    words = group_table(n).words
    assert np.array_equal(words, np.array(list(itertools.permutations(range(1, n + 1)))))
    assert words.dtype == np.int8
    assert words.flags.c_contiguous and not words.flags.writeable


def test_building_the_s8_words_peaks_below_twice_their_bytes():
    # a fresh table, not the cached one; 8! Python tuples peaked near 19x
    table = columns.GroupTable(8)
    tracemalloc.start()
    try:
        words = table.words
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words.nbytes == factorial(8) * 8
    assert peak <= 2 * words.nbytes


@pytest.mark.parametrize("n", range(1, 9))
def test_block_built_masks_counts_and_lower_walls_match_the_slot_loops(n):
    # the definitions, one pair slot at a time in lexicographic order, and
    # the inversion counts as the masks' bit counts
    table = group_table(n)
    words = table.words
    masks = np.zeros(len(words), dtype=np.uint32)
    lower = np.zeros(len(words), dtype=np.uint32)
    for slot, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        masks |= (words[:, i] > words[:, j]).astype(np.uint32) << np.uint32(slot)
        lower |= (words[:, i] == words[:, j] + 1).astype(np.uint32) << np.uint32(slot)
    for built, expected in ((table.masks, masks), (table.lower, lower)):
        assert built.dtype == np.uint32 and not built.flags.writeable
        assert np.array_equal(built, expected)
    assert table.inv.dtype == np.uint8
    assert table.inv.tolist() == [m.bit_count() for m in masks.tolist()]


@pytest.mark.parametrize("n", range(1, 9))
def test_product_column_by_partition_matches_every_code(n):
    # each code's own product polynomial, without the partition gather
    table = group_table(n)
    expected = columns._product_polynomials(table.code)
    assert table.product.dtype == np.uint16
    assert np.array_equal(table.product, expected)


@pytest.mark.parametrize("n", range(1, 9))
def test_deletion_ranks_are_the_ranks_of_the_deleted_words(n):
    table = group_table(n)
    for d in range(n):
        deleted = np.delete(table.words, d, axis=1)
        assert table.deletions[d].tolist() == columns._ranks(deleted).tolist(), d


def test_ao_column_matches_networkx_chromatic_polynomial():
    nx = pytest.importorskip("networkx")
    graphs = 0
    for n in (4, 5):
        table = group_table(n)
        for rank, word in enumerate(iter_words(n)):
            graph = nx.Graph()
            graph.add_nodes_from(range(1, n + 1))
            graph.add_edges_from(arrangement.inversion_graph(Permutation(word)).edges)
            chi = nx.chromatic_polynomial(graph)
            (x,) = chi.free_symbols
            assert abs(int(chi.subs(x, -1))) == int(table.ao[rank]), word
            graphs += 1
    assert graphs == 144


def test_read_only_cached_and_bounded():
    for n in range(1, 8):
        table = group_table(n)
        assert group_table(n) is table
        polynomials = ("weak", "bruhat", "product", "distance")
        matrices = polynomials + ("words", "dom", "code")
        vectors = ("masks", "inv", "prod", "wk", "ao", "rk", "re", "contains", "ferrers")
        for name in matrices + vectors:
            array = getattr(table, name)
            assert getattr(table, name) is array, name
            assert not array.flags.writeable, name
            rows = array.shape[0] if name in matrices else array.shape[-1]
            assert rows == factorial(n), name
        assert table.deletions is table.deletions and not table.deletions.flags.writeable
        assert table.deletions.shape == (n, factorial(n))
        assert table.deletions.dtype == np.uint16
        assert table.code.dtype == np.uint8 and table.contains.dtype == bool
        for name in polynomials:
            array = getattr(table, name)
            assert array.shape[1] == n * (n - 1) // 2 + 1, name
            assert array.dtype == np.uint16, name
        for name in ("prod", "wk", "ao", "rk", "re"):
            assert getattr(table, name).dtype == np.int32, name
    assert group_table.cache_info().maxsize == 8
    for n in (0, 9):
        with pytest.raises(ValueError, match="n <= 8"):
            group_table(n)


def test_stat_record_and_the_cli_build_no_columns(capsys):
    group_table.cache_clear()
    w = Permutation((3, 1, 4, 8, 5, 2, 7, 6))
    record = verify.stat_record(w, "with_region_oracle")
    assert cli.run(["stats", "31485276", "--format", "json"]) == 0
    capsys.readouterr()
    # only the arrays of the per-record routes, and no smaller group
    assert set(vars(group_table(8))) == {"n", "words", "masks", "inv", "dom", "lower"}
    assert group_table.cache_info().currsize == 1
    assert record.wk == orders.weak_interval(w).size
    board = rook.southwest_diagram(w).complement()
    assert record.rk == rook.count_rook_placements_by_backtracking(board)
    assert record.ao == arrangement.count_acyclic_orientations(arrangement.inversion_graph(w))


def test_a_sweep_reads_the_columns_and_calls_no_per_record_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-record route called during a sweep")

    expected = {
        depth: tuple(verify.stat_record(Permutation(w), depth) for w in iter_words(5))
        for depth in verify.DEPTHS
    }
    for owner, name in (
        (verify, "lehmer_code"),
        (verify, "code_product"),
        (verify, "contains_pattern"),
        (verify, "avoids_all"),
        (verify, "_bulk_bruhat"),
        (orders, "weak_interval"),
        (orders, "_weak_search"),
        (orders, "product_q_formula"),
        (arrangement, "count_acyclic_orientations"),
        (arrangement, "regions"),
        (arrangement, "distance_of_regions"),
        (rook, "rook_count"),
        (rook, "is_right_justified_ferrers"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    for depth in verify.DEPTHS:
        report = verify.sweep(5, depth)
        assert len(report.records) == 120 and report.violations == ()
        assert report.records == expected[depth], depth


def test_weak_poly_at_one_equals_the_weak_column():
    # wk is the row sum of the weak column, so compare both with the
    # breadth-first search of weak order, which shares no arithmetic with it
    for n in range(1, 7):
        weak = group_table(n).weak
        wk = group_table(n).wk.tolist()
        for rank, word in enumerate(iter_words(n)):
            interval = orders._weak_search(Permutation(word))
            assert wk[rank] == interval.size, word
            assert QPolynomial(weak[rank].tolist()) == interval.poincare, word


# SHA-256 of the whole weak column, pinned so that a change to the
# recursion's schedule or dtypes must reproduce every coefficient of S7 and S8
WEAK_COLUMN_SHA256 = {
    7: "34ac9b23986ee474b53595329979182f7afb2ad12a65bd13f519ddc33ee7163c",
    8: "25d6ab4ece1a9b0e828f23951d09198c5919e4c620215dc6dd75fbb619102570",
}


@pytest.mark.parametrize("n", sorted(WEAK_COLUMN_SHA256))
def test_the_weak_column_bytes_are_pinned(n):
    weak = group_table(n).weak
    assert weak.dtype == np.uint16 and weak.shape == (factorial(n), n * (n - 1) // 2 + 1)
    assert hashlib.sha256(weak.tobytes()).hexdigest() == WEAK_COLUMN_SHA256[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_the_weak_row_of_w0_is_the_mahonian_numbers(n):
    # [e, w0] in left weak order is all of S_n
    table = group_table(n)
    assert table.weak[-1].tolist() == np.bincount(table.inv).tolist()


def _check_lookup_ranks(words: list[tuple[int, ...]]) -> None:
    """The ranks by which the recursions look rows up, and the Lehmer codes
    they come from, on injective words that are not standardized."""
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for word in words:
        by_length.setdefault(len(word), []).append(word)
    for k, group in by_length.items():
        position = {w: rank for rank, w in enumerate(iter_words(k))}
        standard = [tuple(sorted(word).index(a) + 1 for a in word) for word in group]
        array = np.array(group, dtype=np.int8).reshape(len(group), k)
        assert columns._ranks(array).tolist() == [position[w] for w in standard], k
        codes = [lehmer_code(Permutation(w)) if k else () for w in standard]
        assert [tuple(c) for c in columns._lehmer_codes(array).tolist()] == codes, k


@pytest.mark.parametrize("n", range(1, 7))
def test_lookup_ranks_match_lehmer_codes_on_every_injective_word(n):
    letters = range(1, n + 1)
    _check_lookup_ranks([w for k in range(n + 1) for w in itertools.permutations(letters, k)])


@pytest.mark.parametrize("n", [7, 8])
def test_lookup_ranks_match_lehmer_codes_on_seeded_draws(n):
    rng = random.Random(S8_SAMPLE_SEED + n)
    lengths = [k for k in range(n + 1) for _ in range(200)]
    _check_lookup_ranks([tuple(rng.sample(range(1, n + 1), k)) for k in lengths])


def test_only_the_depths_past_counts_build_their_columns():
    lazy = {"product", "distance", "re"}
    group_table.cache_clear()
    verify.sweep(6)
    assert not lazy & set(vars(group_table(6)))
    verify.sweep(6, "polys")
    assert lazy & set(vars(group_table(6))) == {"product", "distance"}
    verify.sweep(6, "with_region_oracle")
    assert lazy <= set(vars(group_table(6)))


def test_a_sweep_builds_no_unread_column_of_the_smaller_groups():
    group_table.cache_clear()
    verify.sweep(7)
    unread = {"bruhat", "rk", "weak", "wk", "code", "prod", "ferrers", "dom"}
    for n in range(1, 7):
        # the ao and pattern builds of S_7 read the deletion ranks of S_1..S_6
        assert not unread & set(vars(group_table(n))), n
        assert "deletions" in vars(group_table(n)), n
