"""Exhaustive verification sweeps over small symmetric groups.

For every permutation of S_n, n <= 8, the sweep assembles one record of
the six statistics

    wk  size of the weak-order interval [id, w]
    br  size of the Bruhat-order interval [id, w]
    prod  product of (Lehmer code entries + 1)
    ao  acyclic orientations of the inversion graph
    rk  rook placements on the complement of the south-west diagram
    re  regions of the inversion arrangement, filled only at
        with_region_oracle, where the independent gate count ran; at
        polys, distance_poly(1) is the region count but re stays None

plus pattern-avoidance flags and, at the deeper settings, the rank
generating polynomials.  Every stated inequality, equality, and
pattern-characterized equality among the statistics is one row of a
relation table, (name, shown, predicate), and a sweep evaluates each
predicate once, as a numpy boolean array over all of S_n.  The
empirical class counts that summarize the sweep are the sums of the same
masks the relations read, so a count and a check cannot disagree.
Violations are built only for the ranks where some relation fails: in
ascending rank order, within a rank in table order, each with its full
record and its detail text, ``name=value`` for each name in ``shown``.

A sweep runs in the calling process and reads every field of every
record, at every depth, from the whole-group columns of the cached
table ``columns.group_table(n)``, each built by a recursion over the
whole group (the ``columns`` module gives them).  ``stat_record``
computes the same fields by the per-record routes.  Both hand one tuple
of a record's field values, in ``StatRecord`` order, to the one record
assembly, ``_build_record``, which makes the NamedTuple from it in C,
with no Python frame per record.  ``StatRecord._fields`` is the one list
of a record's fields: the sweep's whole-group fields begin with the same
names in the same order, and the records, the JSON dict, the CSV header
and the report writer all follow it.  ``oracle_checks`` runs two tables
of comparisons: ``COLUMN_ROUTES``, each column against the route or
definition that checks it, and ``ROUTE_ORACLES``, each route against its
definitional oracle.

The per-record routes and the regions read only the same table's
words, masks, inversion counts, dominance counts and lower walls, which
are built on first use like every column: weak intervals select the
rows whose inversion mask lies inside I(w), Bruhat intervals the rows
whose dominance counts R_u[i][j] = #{a <= i : u_a >= j} lie below R_w,
compared only on the cells of Fulton's essential set of w0 w (Duke
Math. J. 65, 1992), and regions the gate rows, whose lower walls lie
inside I(w), restricted to I(w).

At depths ``polys`` and ``with_region_oracle`` every record gets its
four polynomials; only ``with_region_oracle`` also reports the region
count ``re``.

``emit_report`` writes the records from the report's whole-group fields,
not from the records: ``_EMIT_CHUNK`` ranks at a time, each field's
cells are formatted for the whole chunk at once, by a formatter chosen
once per field by its kind (ints and flags by lookup, words and codes as
fixed-width digit rows, each polynomial column once per distinct row),
set between constant parts in one object array, joined into one string
and encoded; an absent field's cell is part of the constant text around
it.
``StatRecord.to_json_dict`` stays the definition of a record's JSON: the
writer must reproduce ``json.dumps`` of the records' dicts byte for
byte, and ``invarr stats`` and the violations, which are rare, go
through ``json.dumps`` of the dicts themselves.

>>> report = sweep(3, depth="with_region_oracle")
>>> [r.wk for r in report.records]
[1, 2, 2, 3, 3, 6]
>>> report.violations
()
>>> report.class_counts["re_eq_wk"]
4
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import arrangement, orders, rook
from .columns import PATTERNS, GroupTable, group_table
from .perm import (
    PATTERN_231,
    PATTERN_312,
    POINCARE_MATCH_PATTERNS,
    REGION_BRUHAT_EQUALITY_PATTERNS,
    WEAK_EQUALITY_PATTERNS,
    Permutation,
    Word,
    avoids_all,  # unused here; the benchmark's tracer wraps verify.avoids_all
    code_product,
    contains_pattern,
    length_polynomial,
    lehmer_code,
    unrank_lex,
)
from .qpoly import QPolynomial, column_degrees

DEPTHS = ("counts", "polys", "with_region_oracle")


class StatRecord(NamedTuple):
    """One permutation's statistics; poly and oracle fields may be None.

    A NamedTuple, because a sweep builds up to 8! of them: a frozen
    dataclass took five times as long per record, its ``__init__``
    setting each of the 16 fields through ``object.__setattr__``.
    """

    w: Word
    inv: int
    code: tuple[int, ...]
    prod: int
    wk: int
    br: int
    ao: int
    rk: int
    re: int | None
    avoids_231_312: bool
    avoids_four: bool
    avoids_3412_4231: bool
    weak_poly: QPolynomial | None
    bruhat_poly: QPolynomial | None
    product_poly: QPolynomial | None
    distance_poly: QPolynomial | None

    def to_json_dict(self) -> dict:
        return {
            name: (
                list(value) if isinstance(value, tuple)
                else value.to_list() if isinstance(value, QPolynomial)
                else value
            )
            for name, value in zip(self._fields, self)
        }


@dataclass(frozen=True)
class SweepReport:
    """A sweep's records, violations and class counts, and the whole-group
    fields they were read from, which ``emit_report`` writes."""

    n: int
    depth: str
    records: tuple[StatRecord, ...]
    violations: tuple[dict, ...]
    class_counts: dict[str, int]
    fields: _Fields = field(repr=False, compare=False)


@dataclass(frozen=True)
class OracleCheckResult:
    name: str
    n: int
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# records and checks


@dataclass(frozen=True)
class _Fields:
    """The fields of every rank of a sweep at once, one array row per rank:
    the words and codes as small ints, the counts in the dtypes the group
    table stores them in, the flags as bool and the polynomials as
    unsigned coefficient rows of one width.
    The first 16 fields are ``StatRecord._fields``, in that order, which
    the records and the report writer follow; the three after them are
    read only by the relations and classes.
    The polynomials are None at depth ``counts`` and re is None below
    depth ``with_region_oracle``."""

    w: np.ndarray
    inv: np.ndarray
    code: np.ndarray
    prod: np.ndarray
    wk: np.ndarray
    br: np.ndarray
    ao: np.ndarray
    rk: np.ndarray
    re: np.ndarray | None
    avoids_231_312: np.ndarray
    avoids_four: np.ndarray
    avoids_3412_4231: np.ndarray
    weak_poly: np.ndarray | None
    bruhat_poly: np.ndarray | None
    product_poly: np.ndarray | None
    distance_poly: np.ndarray | None
    avoids_231: np.ndarray
    avoids_312: np.ndarray
    ferrers: np.ndarray

    @cached_property
    def largest_int(self) -> int:
        """The largest value of the record fields that are one int per rank."""
        columns = (getattr(self, name) for name in StatRecord._fields)
        return max(
            int(c.max()) for c in columns if c is not None and c.ndim == 1 and c.dtype != bool
        )

    @cached_property
    def re_eff(self) -> np.ndarray:
        """re where the region oracle ran, else ao (their equality is itself
        checked wherever the oracle ran)."""
        return self.ao if self.re is None else self.re

    @cached_property
    def weak_eq_product(self) -> np.ndarray:
        return (self.weak_poly == self.product_poly).all(axis=1)

    @cached_property
    def classes(self) -> dict[str, np.ndarray]:
        """The masks of the equality classes, which the relations read too."""
        classes = {
            "re_eq_wk": self.re_eff == self.wk,
            "wk_eq_prod": self.wk == self.prod,
            "prod_eq_rk": self.prod == self.rk,
            "re_eq_br": self.re_eff == self.br,
            "wk_eq_br": self.wk == self.br,
            "avoids_231": self.avoids_231,
            "avoids_312": self.avoids_312,
            "avoids_231_312": self.avoids_231_312,
            "avoids_four": self.avoids_four,
            "avoids_3412_4231": self.avoids_3412_4231,
            "ferrers_312_containing": self.ferrers & ~self.avoids_312,
        }
        if self.weak_poly is not None:
            classes["weak_poly_eq_product_poly_231_containing"] = (
                ~self.avoids_231 & self.weak_eq_product
            )
        return classes


def _sweep_fields(n: int, depth: str) -> _Fields:
    """The fields of every word of S_n, read from ``group_table(n)``; a
    ``counts`` sweep reads no polynomial column."""
    table = group_table(n)  # enforces n <= 8
    # Bruhat first: built after the other columns, its multi-MB temporaries
    # raise the peak of a cold S8 ``counts`` sweep with its JSON from 81 to
    # 88 MiB (NUMPY_MADVISE_HUGEPAGE=0).
    br = table.bruhat.sum(axis=1, dtype=np.int64)
    polys = dict.fromkeys(("weak_poly", "bruhat_poly", "product_poly", "distance_poly"))
    if depth != "counts":
        polys = dict(zip(polys, (table.weak, table.bruhat, table.product, table.distance)))
    # By keyword, so that the columns are built in this order, the order
    # in which the sweep's peak memory was measured.
    return _Fields(
        **polys,
        w=table.words,
        code=table.code,
        inv=table.inv,
        prod=table.prod,
        wk=table.wk,
        br=br,
        ao=table.ao,
        rk=table.rk,
        avoids_231=table.avoids((PATTERN_231,)),
        avoids_312=table.avoids((PATTERN_312,)),
        avoids_231_312=table.avoids(WEAK_EQUALITY_PATTERNS),
        avoids_four=table.avoids(REGION_BRUHAT_EQUALITY_PATTERNS),
        avoids_3412_4231=table.avoids(POINCARE_MATCH_PATTERNS),
        ferrers=table.ferrers,
        re=table.re if depth == "with_region_oracle" else None,
    )


def _sweep_records(fields: _Fields) -> list[StatRecord]:
    """The records of every rank of ``fields``, in rank order: one tuple
    of field values per rank, each handed to ``_build_record``.

    The records share one int object per value, looked up in one object
    array: ``tolist`` would make a new object for each int above 256,
    4.6 MiB of them at S_8 against 1.5 MiB for the array.
    """
    ints = np.arange(fields.largest_int + 1).astype(object)

    def values(name: str) -> Iterable:
        column = getattr(fields, name)
        if column is None:
            return itertools.repeat(None)
        if name.endswith("_poly"):
            return QPolynomial.from_column(column)
        if column.ndim == 2:
            return zip(*column.T.tolist())
        if column.dtype == bool:
            return column.tolist()
        return ints[column].tolist()

    return list(map(_build_record, zip(*map(values, StatRecord._fields))))


def _bulk_bruhat(word: Word, table: GroupTable, want_poly: bool):
    below = table.bruhat_below(word)
    size = int(np.count_nonzero(below))
    if not want_poly:
        return size, None
    return size, length_polynomial(np.compress(below, table.inv))


# The record of one tuple of field values in ``StatRecord`` order: the one
# record assembly of sweeps and ``stat_record``, a module attribute looked
# up at each call so that a profiler can wrap it and count one call per
# record.  It builds the NamedTuple from the tuple in C, with no Python
# frame and no ``StatRecord.__new__``, so it does not check the field count
# (``tests/test_verify.py`` does): a sweep builds up to 8! records, and a
# named function calling ``StatRecord(*fields)`` took 1.8 times as long to
# assemble them (0.56 against 0.31 us a record at S_7, Python 3.11).
_build_record: Callable[[tuple], StatRecord] = partial(tuple.__new__, StatRecord)


# The relations, as (name, shown, predicate over _Fields): the chain and
# its equality cases at every depth, re = ao where the region oracle ran,
# and the polynomial relations past ``counts``.  A violation's detail
# shows the values of the names in ``shown`` (``_detail``).  A rank's
# violations are reported in table order.
_RELATIONS = (
    ("wk_le_prod", "wk prod", lambda f: f.wk <= f.prod),
    ("prod_le_rk", "prod rk", lambda f: f.prod <= f.rk),
    ("ao_eq_rk", "ao rk", lambda f: f.ao == f.rk),
    ("re_le_br", "re br", lambda f: f.re_eff <= f.br),
    ("wk_eq_prod_iff_avoids_231", "wk prod avoids_231",
     lambda f: f.classes["wk_eq_prod"] == f.avoids_231),
    ("prod_eq_rk_iff_avoids_312", "prod rk avoids_312",
     lambda f: f.classes["prod_eq_rk"] == f.avoids_312),
    ("re_eq_br_iff_avoids_four", "re br avoids_four",
     lambda f: f.classes["re_eq_br"] == f.avoids_four),
    ("re_eq_wk_iff_avoids_231_312", "re wk avoids_231_312",
     lambda f: f.classes["re_eq_wk"] == f.avoids_231_312),
    ("wk_eq_br_iff_avoids_231_312", "wk br avoids_231_312",
     lambda f: f.classes["wk_eq_br"] == f.avoids_231_312),
)
_REGION_RELATIONS = (("re_eq_ao", "re ao", lambda f: f.re == f.ao),)
_POLY_RELATIONS = (
    ("weak_poly_eq_product_poly_if_avoids_231", "weak product",
     lambda f: ~f.avoids_231 | f.weak_eq_product),
    ("distance_poly_consistent", "distance re inv",
     lambda f: (f.distance_poly.sum(axis=1, dtype=np.int64) == f.re_eff)
     & (column_degrees(f.distance_poly) == f.inv)),
    ("distance_matches_bruhat_iff_avoids_3412_4231", "distance bruhat avoids_3412_4231",
     lambda f: (f.distance_poly == f.bruhat_poly).all(axis=1) == f.avoids_3412_4231),
)


def _detail(fields: _Fields, shown: str, k: int) -> str:
    """``name=value`` of rank k for each name in ``shown``: re is ``re_eff``,
    and a name with a ``*_poly`` field is that row's polynomial."""
    cells = []
    for name in shown.split():
        if name == "re":
            value = fields.re_eff[k]
        elif hasattr(fields, name + "_poly"):
            value = QPolynomial(getattr(fields, name + "_poly")[k].tolist())
        else:
            value = getattr(fields, name)[k]
        cells.append(f"{name}={value}")
    return " ".join(cells)


def _record_checks(fields: _Fields) -> list[tuple[str, np.ndarray, Callable[[int], str]]]:
    """Every relation that applies at the depth of ``fields``, in table
    order: its name, whether it holds at each rank, and the detail text
    of a rank."""
    table = _RELATIONS
    if fields.re is not None:
        table += _REGION_RELATIONS
    if fields.weak_poly is not None:
        table += _POLY_RELATIONS
    return [
        (name, holds(fields), partial(_detail, fields, shown))
        for name, shown, holds in table
    ]


def _update_class_counts(fields: _Fields) -> dict[str, int]:
    """The size of each class over the ranks of ``fields``."""
    return {name: int(mask.sum()) for name, mask in fields.classes.items()}


def stat_record(w: Permutation, depth: str = "counts") -> StatRecord:
    """The record a sweep of S_n would hold for w, for n <= 8.

    ``counts`` fills the statistics and pattern flags, ``polys`` adds the
    four polynomials, and ``with_region_oracle`` also the region count.

    >>> stat_record(Permutation((2, 5, 1, 3, 4))).wk
    7
    >>> stat_record(Permutation((3, 1, 2)), depth="with_region_oracle").re
    4
    """
    if depth not in DEPTHS:
        raise ValueError(f"depth must be one of {DEPTHS}, got {depth!r}")
    table = group_table(w.n)  # enforces n <= 8
    want_polys = depth != "counts"
    code = lehmer_code(w)
    weak = orders.weak_interval_by_filter(w)
    br, bruhat_poly = _bulk_bruhat(w.word, table, want_polys)
    # 4231 is in both pattern bundles; the cache backtracks it once.
    contains = cache(partial(contains_pattern, w))
    product_poly = distance_poly = re_count = None
    if want_polys:
        product_poly = orders.product_q_formula(w)
        region_masks = arrangement.regions(w)
        distance_poly = arrangement.distance_of_regions(region_masks)
        if depth == "with_region_oracle":
            re_count = region_masks.size
    # No record field carries the Ferrers flag; the test stays because the
    # benchmark's self-tests count its two rook.ferrers calls per record.
    rook.is_right_justified_ferrers(rook.southwest_diagram(w))
    return _build_record((
        w.word,
        sum(code),
        code,
        code_product(w),
        weak.size,
        br,
        arrangement.count_acyclic_orientations(arrangement.inversion_graph(w)),
        rook.rook_count(w),
        re_count,
        not any(map(contains, WEAK_EQUALITY_PATTERNS)),
        not any(map(contains, REGION_BRUHAT_EQUALITY_PATTERNS)),
        not any(map(contains, POINCARE_MATCH_PATTERNS)),
        weak.poincare if want_polys else None,
        bruhat_poly,
        product_poly,
        distance_poly,
    ))


def sweep(n: int, depth: str = "counts", parallelism: int | None = None) -> SweepReport:
    """Verify every statistic relation over all of S_n, in the calling process.

    Every field of every record is read from the whole-group columns of
    S_n, at every depth, and each relation and class is evaluated once
    over all of them.  ``parallelism`` is accepted and ignored: sweeps
    run no worker processes, and the keyword stays only for callers
    written against the former worker pool.
    """
    if depth not in DEPTHS:
        raise ValueError(f"depth must be one of {DEPTHS}, got {depth!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    fields = _sweep_fields(n, depth)
    records = _sweep_records(fields)
    checks = _record_checks(fields)
    class_counts = _update_class_counts(fields)
    failing = ~np.logical_and.reduce([holds for _, holds, _ in checks])
    violations = [
        {
            "rank": rank,
            "w": list(records[rank].w),
            "check": name,
            "detail": detail(rank),
            "record": records[rank].to_json_dict(),
        }
        for rank in np.flatnonzero(failing).tolist()
        for name, holds, detail in checks
        if not holds[rank]
    ]
    return SweepReport(
        n=n,
        depth=depth,
        records=tuple(records),
        violations=tuple(violations),
        class_counts=class_counts,
        fields=fields,
    )


# ---------------------------------------------------------------------------
# report emission


CSV_HEADER = ",".join(StatRecord._fields)

_FLAG = ("false", "true")  # a flag's cell in either format, by its value

# Records per chunk of the report writer: a chunk of S_8 is 0.3 MB of text
# at depth counts and 0.5 MB at full depth.
_EMIT_CHUNK = 1024

# Per format: the text around a list's letters, the text between them,
# the cell of an absent field, and the 17 separators around a record's 16
# cells.  A CSV list is quoted and space-separated; the JSON separators
# are those of ``json.dumps``, and the JSON writer drops the ", " after
# the last record.
_LIST_TEXT = {"json": ("[", ", ", "]"), "csv": ('"', " ", '"')}
_ABSENT = {"json": "null", "csv": ""}
_SEPARATORS = {
    "json": (
        '{"%s": ' % StatRecord._fields[0],
        *(', "%s": ' % name for name in StatRecord._fields[1:]),
        "}, ",
    ),
    "csv": ("", *[","] * (len(StatRecord._fields) - 1), "\n"),
}


def _digit_cells(rows: np.ndarray, format: str) -> list[str]:
    """Each row of one-digit values as one list cell: ``[1, 2, 3]`` or
    ``"1 2 3"``, built as fixed-width bytes (every letter and code entry is
    one digit for n <= 8)."""
    first, between, last = _LIST_TEXT[format]
    template = (first + between.join("0" * rows.shape[1]) + last).encode()
    digits = np.arange(len(first), len(template) - len(last), 1 + len(between))
    text = np.repeat(np.frombuffer(template, dtype=np.uint8)[None], len(rows), axis=0)
    text[:, digits] += rows.astype(np.uint8)
    return text.view("S%d" % len(template)).ravel().astype(str).tolist()


def _poly_cells(column: np.ndarray, format: str) -> tuple[np.ndarray, np.ndarray]:
    """The cell of each distinct row of a polynomial column, and each rank's
    index into them: a column of S_8 has at most 7965 distinct rows."""
    rows = np.ascontiguousarray(column)
    whole = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(whole, return_index=True, return_inverse=True)
    distinct = rows[first]
    coeffs = [
        row[: degree + 1]
        for row, degree in zip(distinct.tolist(), column_degrees(distinct).tolist())
    ]
    if format == "json":
        cells = [str(c) for c in coeffs]
    else:
        cells = ['"%s"' % " ".join(map(str, c)) for c in coeffs]
    return np.array(cells, dtype=object), inverse


def _record_chunks(fields: _Fields, format: str) -> Iterator[bytes]:
    """The records of ``fields`` as encoded text, ``_EMIT_CHUNK`` ranks at a time.

    A chunk is one object array of rows of constant text and cells, each
    present field's cells taken for the whole chunk at once by a formatter
    chosen once per field, by its kind, in ``StatRecord`` order: ints and
    flags by lookup in their strings, lists as fixed-width digit rows, and
    each polynomial cell from the cells of its column's distinct rows.  An
    absent field's constant cell is merged with the separators around it
    into one constant part (at depth ``counts``, 23 parts a record instead
    of 33).  The chunk is joined into one string.
    """
    columns = {name: getattr(fields, name) for name in StatRecord._fields}
    numerals = np.array(list(map(str, range(fields.largest_int + 1))), dtype=object)
    flag = np.array(_FLAG, dtype=object)

    def formatter(name: str, column: np.ndarray) -> Callable[[slice], object]:
        if name.endswith("_poly"):
            text, index = _poly_cells(column, format)
            return lambda ranks: text[index[ranks]]
        if column.ndim == 2:
            return lambda ranks: _digit_cells(column[ranks], format)
        if column.dtype == bool:
            return lambda ranks: flag[column[ranks].view(np.uint8)]
        return lambda ranks: numerals[column[ranks]]

    separators = _SEPARATORS[format]
    constants, cells = [separators[0]], []
    for (name, column), separator in zip(columns.items(), separators[1:]):
        if column is None:
            constants[-1] += _ABSENT[format] + separator
        else:
            cells.append(formatter(name, column))
            constants.append(separator)
    total = len(fields.inv)
    for lo in range(0, total, _EMIT_CHUNK):
        ranks = slice(lo, min(lo + _EMIT_CHUNK, total))
        block = np.empty((ranks.stop - lo, len(constants) + len(cells)), dtype=object)
        block[:, ::2] = constants
        for k, cell in enumerate(cells):
            block[:, 2 * k + 1] = cell(ranks)
        if format == "json" and ranks.stop == total:
            block[-1, -1] = block[-1, -1].removesuffix(", ")  # no ", " after the last record
        yield "".join(block.ravel().tolist()).encode("utf-8")


def emit_report(report: SweepReport, format: str = "json") -> bytes:
    """Serialize a sweep report; output bytes are stable across runs.

    JSON carries records, violations, and class counts; CSV carries the
    records alone, one row per permutation in lexicographic order, with
    list-valued fields space-separated inside quotes and absent fields
    empty.  The records are written from the report's whole-group fields,
    a chunk of ranks at a time (``_record_chunks``); the JSON bytes are
    those of ``json.dumps`` over the records' ``to_json_dict``, and the
    violations, which are rare and keep their dicts, go through
    ``json.dumps`` itself.
    """
    if format == "json":
        head = '{"n": %d, "depth": %s, "records": [' % (report.n, json.dumps(report.depth))
        tail = '], "violations": %s, "class_counts": %s}\n' % (
            json.dumps(list(report.violations), check_circular=False),
            json.dumps(report.class_counts),
        )
    elif format == "csv":
        head, tail = CSV_HEADER + "\n", ""
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    # One buffer, grown in place and handed over without a copy: joining
    # the encoded chunks would hold the report twice (a cold full-depth S8
    # JSON sweep peaked at 177.6 against 166.3 MiB).
    report_bytes = io.BytesIO()
    report_bytes.write(head.encode("utf-8"))
    for chunk in _record_chunks(report.fields, format):
        report_bytes.write(chunk)
        # freed before the next chunk is built, so that it cannot sit above
        # the buffer and turn the buffer's next growth into a copy (that
        # cost 1.1 MiB at the peak of a cold S8 counts JSON before the
        # records shared their ints)
        del chunk
    report_bytes.write(tail.encode("utf-8"))
    return report_bytes.getvalue()


# ---------------------------------------------------------------------------
# dual-route oracle comparisons


class OracleRow(NamedTuple):
    """One comparison: for every w of S_n, n <= ``cap``, the two values of
    ``pair(group_table(n), rank of w, w)`` must be equal.  The routes are
    read from their modules at call time, so a patched route is the one
    compared."""

    name: str
    cap: int
    pair: Callable[[GroupTable, int, Permutation], tuple]


# Each fast route against its definitional oracle.
ROUTE_ORACLES = (
    OracleRow("bruhat_dominance_vs_chain_closure", 5, lambda t, k, w: (
        orders.bruhat_interval(w, with_elements=True),
        orders.bruhat_interval_by_chains(w, with_elements=True),
    )),
    OracleRow("orientations_color_partitions_vs_enumeration", 5, lambda t, k, w: (
        arrangement.count_acyclic_orientations(g := arrangement.inversion_graph(w)),
        arrangement.count_acyclic_orientations_by_enumeration(g),
    )),
    OracleRow("rook_permanent_vs_backtracking", 6, lambda t, k, w: (
        rook.rook_count(w),
        rook.count_rook_placements_by_backtracking(rook.southwest_diagram(w).complement()),
    )),
    OracleRow("weak_bfs_vs_filter", 6, lambda t, k, w: (
        orders.weak_interval(w), orders.weak_interval_by_filter(w),
    )),
    OracleRow("regions_vs_acyclic_orientations", 6, lambda t, k, w: (
        arrangement.regions(w).size,
        arrangement.count_acyclic_orientations(arrangement.inversion_graph(w)),
    )),
)

# Each whole-group column a sweep reads against its per-record route; the
# Bruhat column, whose route shares its essential cells, against the full
# entrywise dominance compare (Bjoerner and Brenti, GTM 231, section 2.1).
COLUMN_ROUTES = (
    OracleRow("weak_column_vs_filter", 7, lambda t, k, w: (
        orders.IntervalSummary(int(t.wk[k]), QPolynomial(t.weak[k].tolist())),
        orders.weak_interval_by_filter(w),
    )),
    OracleRow("orientation_column_vs_color_partitions", 7, lambda t, k, w: (
        int(t.ao[k]), arrangement.count_acyclic_orientations(arrangement.inversion_graph(w)),
    )),
    OracleRow("rook_column_vs_backtracking", 6, lambda t, k, w: (
        (bool(t.ferrers[k]), int(t.rk[k])),
        (rook.is_right_justified_ferrers(d := rook.southwest_diagram(w)),
         rook.count_rook_placements_by_backtracking(d.complement())),
    )),
    OracleRow("rook_column_vs_rook_count", 7, lambda t, k, w: (int(t.rk[k]), rook.rook_count(w))),
    OracleRow("pattern_columns_vs_backtracking", 7, lambda t, k, w: (
        t.contains[:, k].tolist(), [contains_pattern(w, p) for p in PATTERNS],
    )),
    OracleRow("bruhat_column_vs_dominance_compare", 7, lambda t, k, w: (
        QPolynomial(t.bruhat[k].tolist()),
        length_polynomial(t.inv[(t.dom <= t.dom[k]).all(axis=1)]),
    )),
    OracleRow("code_column_vs_lehmer_code", 7, lambda t, k, w: (
        (tuple(t.code[k].tolist()), int(t.prod[k])), (lehmer_code(w), code_product(w)),
    )),
    OracleRow("product_column_vs_product_formula", 7, lambda t, k, w: (
        QPolynomial(t.product[k].tolist()), orders.product_q_formula(w),
    )),
    OracleRow("distance_column_vs_region_sort", 7, lambda t, k, w: (
        QPolynomial(t.distance[k].tolist()),
        arrangement.distance_of_regions(arrangement.regions_by_sort(w)),
    )),
    OracleRow("region_column_vs_region_sort", 7, lambda t, k, w: (
        int(t.re[k]), arrangement.regions_by_sort(w).size,
    )),
)


def first_mismatch(pair, n: int, ranks: Iterable[int]) -> str:
    """The detail ``w=<word>: <a> vs <b>`` of the first of ``ranks`` of S_n
    at which the two values of ``pair`` differ, or "" if they never do."""
    table = group_table(n)
    for rank in ranks:
        w = unrank_lex(n, rank)
        a, b = pair(table, rank, w)
        if a != b:
            return f"w={w}: {a} vs {b}"
    return ""


def oracle_checks(n: int) -> list[OracleCheckResult]:
    """Run every row of ``ROUTE_ORACLES`` and then of ``COLUMN_ROUTES`` on
    all of S_m, m = min(n, cap); the result rows state the m used."""
    if n < 1:
        raise ValueError("n must be at least 1")
    results = []
    for name, cap, pair in ROUTE_ORACLES + COLUMN_ROUTES:
        used = min(n, cap)
        detail = first_mismatch(pair, used, range(factorial(used)))
        results.append(OracleCheckResult(name=name, n=used, passed=not detail, detail=detail))
    return results
