"""Unit tests for the sweep harness, its records, and report emission."""

import copy
import csv
import dataclasses
import io
import json
import os
import random
from math import factorial

import numpy as np
import pytest

from invarr import orders, perm, rook, verify
from invarr.perm import (
    PATTERN_231,
    PATTERN_312,
    POINCARE_MATCH_PATTERNS,
    REGION_BRUHAT_EQUALITY_PATTERNS,
    Permutation,
    avoids_all,
    contains_pattern,
    inverse,
    iter_words,
)
from invarr.qpoly import QPolynomial

RECORD_KEYS = [
    "w",
    "inv",
    "code",
    "prod",
    "wk",
    "br",
    "ao",
    "rk",
    "re",
    "avoids_231_312",
    "avoids_four",
    "avoids_3412_4231",
    "weak_poly",
    "bruhat_poly",
    "product_poly",
    "distance_poly",
]


class TestStatRecord:
    def test_identity_record(self):
        record = verify.stat_record(Permutation.identity(4), depth="polys")
        assert (record.wk, record.prod, record.rk, record.ao, record.br) == (
            1,
            1,
            1,
            1,
            1,
        )
        assert record.inv == 0
        assert record.code == (0, 0, 0, 0)
        assert record.weak_poly == QPolynomial((1,))
        assert record.bruhat_poly == QPolynomial((1,))
        assert record.product_poly == QPolynomial((1,))
        assert record.distance_poly == QPolynomial((1,))
        assert record.re is None  # the oracle count itself needs full depth

    def test_worked_example_record(self):
        record = verify.stat_record(
            Permutation((2, 5, 1, 3, 4)), depth="with_region_oracle"
        )
        assert record.wk == 7
        assert record.prod == 8
        assert record.rk == 16
        assert record.ao == 16
        assert record.br == 16
        assert record.re == 16
        assert record.avoids_231_312 is False
        assert record.avoids_four is True
        assert record.weak_poly == QPolynomial((1, 1, 2, 2, 1))
        assert record.product_poly == QPolynomial((1, 2, 2, 2, 1))
        assert record.distance_poly(1) == 16

    def test_small_record(self):
        record = verify.stat_record(Permutation((3, 1, 2)), depth="with_region_oracle")
        assert (record.wk, record.prod, record.rk, record.ao, record.br, record.re) == (
            3,
            3,
            4,
            4,
            4,
            4,
        )

    def test_depth_controls_fields(self):
        w = Permutation((2, 3, 1))
        counts = verify.stat_record(w, depth="counts")
        assert counts.weak_poly is None
        assert counts.bruhat_poly is None
        assert counts.product_poly is None
        assert counts.distance_poly is None
        assert counts.re is None
        polys = verify.stat_record(w, depth="polys")
        assert polys.weak_poly is not None
        assert polys.distance_poly is not None
        assert polys.re is None

    def test_validation(self):
        with pytest.raises(ValueError, match="depth must be one of"):
            verify.stat_record(Permutation((1, 2)), depth="everything")
        with pytest.raises(ValueError, match="n <= 8"):
            verify.stat_record(Permutation.longest(9))

    def test_longest_element_records(self):
        for n in range(2, 7):
            record = verify.stat_record(Permutation.longest(n))
            assert record.wk == record.br == record.prod == factorial(n)
            assert record.ao == record.rk == factorial(n)
            assert record.code == tuple(range(n - 1, -1, -1))

    def test_4231_is_tested_once_per_record(self, monkeypatch):
        original = perm.contains_pattern
        calls = []

        def counting(w, pattern):
            calls.append(pattern.word)
            return original(w, pattern)

        monkeypatch.setattr(verify, "contains_pattern", counting)
        monkeypatch.setattr(perm, "contains_pattern", counting)
        for word in iter_words(6):
            calls.clear()
            w = Permutation(word)
            record = verify.stat_record(w)
            assert calls.count((4, 2, 3, 1)) == 1, word
            assert record.avoids_four == avoids_all(w, REGION_BRUHAT_EQUALITY_PATTERNS)
            assert record.avoids_3412_4231 == avoids_all(w, POINCARE_MATCH_PATTERNS)

    @pytest.mark.parametrize("depth", verify.DEPTHS)
    def test_weak_filter_runs_once_per_record(self, monkeypatch, depth):
        original = orders.weak_interval_by_filter
        calls = []

        def counting(w, *args, **kwargs):
            calls.append(w.word)
            return original(w, *args, **kwargs)

        monkeypatch.setattr(orders, "weak_interval_by_filter", counting)
        # S6 is the first group that holds a six-letter pattern of a bundle
        # (351624), so n = 6 compares that path with the sweep's record.
        for n in (5, 6):
            for word, swept in zip(iter_words(n), verify.sweep(n, depth).records):
                calls.clear()
                assert verify.stat_record(Permutation(word), depth) == swept, word
                assert calls == [word]


def _one_record_fields(record):
    """The ``verify._Fields`` of one record, its 231, 312 and Ferrers flags
    by backtracking and from the diagram."""
    w = Permutation(record.w)
    polys = (record.weak_poly, record.bruhat_poly, record.product_poly, record.distance_poly)
    width = max((len(p.coeffs) for p in polys if p is not None), default=0)

    def one(value, dtype=np.int64):
        return None if value is None else np.array([value], dtype=dtype)

    def coefficients(p):
        return None if p is None else one(p.coeffs + (0,) * (width - len(p.coeffs)), np.uint64)

    return verify._Fields(
        code=one(record.code, np.uint8),
        inv=one(record.inv),
        prod=one(record.prod),
        wk=one(record.wk),
        br=one(record.br),
        ao=one(record.ao),
        rk=one(record.rk),
        avoids_231=one(not contains_pattern(w, PATTERN_231), bool),
        avoids_312=one(not contains_pattern(w, PATTERN_312), bool),
        avoids_four=one(record.avoids_four, bool),
        avoids_3412_4231=one(record.avoids_3412_4231, bool),
        ferrers=one(rook.is_right_justified_ferrers(rook.southwest_diagram(w)), bool),
        weak=coefficients(record.weak_poly),
        bruhat=coefficients(record.bruhat_poly),
        product=coefficients(record.product_poly),
        distance=coefficients(record.distance_poly),
        re=one(record.re),
    )


class TestRecordChecks:
    """``_record_checks`` evaluated on the fields of a single record."""

    def test_clean_record_passes_every_check(self):
        record = verify.stat_record(
            Permutation((2, 5, 1, 3, 4)), depth="with_region_oracle"
        )
        results = verify._record_checks(_one_record_fields(record))
        assert all(holds.tolist() == [True] for _, holds, _ in results)
        names = [name for name, _, _ in results]
        assert names == [
            "wk_le_prod",
            "prod_le_rk",
            "ao_eq_rk",
            "re_le_br",
            "wk_eq_prod_iff_avoids_231",
            "prod_eq_rk_iff_avoids_312",
            "re_eq_br_iff_avoids_four",
            "re_eq_wk_iff_avoids_231_312",
            "wk_eq_br_iff_avoids_231_312",
            "re_eq_ao",
            "weak_poly_eq_product_poly_if_avoids_231",
            "distance_poly_consistent",
            "distance_matches_bruhat_iff_avoids_3412_4231",
        ]
        counts_record = verify.stat_record(Permutation((2, 5, 1, 3, 4)))
        shallow = verify._record_checks(_one_record_fields(counts_record))
        assert [name for name, _, _ in shallow] == names[:9]

    def test_tampered_records_are_caught(self):
        record = verify.stat_record(
            Permutation((2, 5, 1, 3, 4)), depth="with_region_oracle"
        )
        broken_ao = dataclasses.replace(record, ao=999)
        failed = {
            name: detail(0)
            for name, holds, detail in verify._record_checks(_one_record_fields(broken_ao))
            if not holds[0]
        }
        assert failed == {"ao_eq_rk": "ao=999 rk=16", "re_eq_ao": "re=16 ao=999"}
        broken_wk = dataclasses.replace(record, wk=record.prod + 1)
        failed = {
            name
            for name, holds, _ in verify._record_checks(_one_record_fields(broken_wk))
            if not holds[0]
        }
        assert "wk_le_prod" in failed
        broken_distance = dataclasses.replace(record, distance_poly=record.weak_poly)
        failed = {
            name: detail(0)
            for name, holds, detail in verify._record_checks(_one_record_fields(broken_distance))
            if not holds[0]
        }
        assert failed["distance_poly_consistent"] == "distance=1 + q + 2q^2 + 2q^3 + q^4 re=16 inv=4"
        assert "distance_matches_bruhat_iff_avoids_3412_4231" in failed
        broken_re = dataclasses.replace(record, re=record.br + 1)
        failed = {
            name: detail(0)
            for name, holds, detail in verify._record_checks(_one_record_fields(broken_re))
            if not holds[0]
        }
        assert failed == {
            "re_le_br": "re=17 br=16",
            "re_eq_br_iff_avoids_four": "re=17 br=16 avoids_four=True",
            "re_eq_ao": "re=17 ao=16",
            "distance_poly_consistent": "distance=1 + 4q + 6q^2 + 4q^3 + q^4 re=17 inv=4",
        }


def _recount_classes(report):
    """The class counts of ``report``, recounted one record at a time with
    the 231, 312 and Ferrers flags by backtracking and from the diagram."""
    keys = [
        "re_eq_wk",
        "wk_eq_prod",
        "prod_eq_rk",
        "re_eq_br",
        "wk_eq_br",
        "avoids_231",
        "avoids_312",
        "avoids_231_312",
        "avoids_four",
        "avoids_3412_4231",
        "ferrers_312_containing",
    ]
    if report.depth != "counts":
        keys.append("weak_poly_eq_product_poly_231_containing")
    counts = dict.fromkeys(keys, 0)
    for record in report.records:
        w = Permutation(record.w)
        avoids_231 = not contains_pattern(w, PATTERN_231)
        avoids_312 = not contains_pattern(w, PATTERN_312)
        ferrers = rook.is_right_justified_ferrers(rook.southwest_diagram(w))
        re_eff = record.re if record.re is not None else record.ao
        counts["re_eq_wk"] += re_eff == record.wk
        counts["wk_eq_prod"] += record.wk == record.prod
        counts["prod_eq_rk"] += record.prod == record.rk
        counts["re_eq_br"] += re_eff == record.br
        counts["wk_eq_br"] += record.wk == record.br
        counts["avoids_231"] += avoids_231
        counts["avoids_312"] += avoids_312
        counts["avoids_231_312"] += record.avoids_231_312
        counts["avoids_four"] += record.avoids_four
        counts["avoids_3412_4231"] += record.avoids_3412_4231
        counts["ferrers_312_containing"] += ferrers and not avoids_312
        if report.depth != "counts":
            counts["weak_poly_eq_product_poly_231_containing"] += (
                not avoids_231 and record.weak_poly == record.product_poly
            )
    return counts


def _tamper_ao(monkeypatch, ranks):
    """Make the sweep read a copy of group_table(5) with ao raised by one
    at ``ranks``."""
    original = verify.group_table
    clean = original(5)
    tampered = copy.copy(clean)
    ao = clean.ao.copy()
    ao[ranks] += 1
    vars(tampered)["ao"] = ao  # a cached array is an instance attribute
    monkeypatch.setattr(
        verify, "group_table", lambda n: tampered if n == 5 else original(n)
    )


class TestWholeGroupChecks:
    @pytest.mark.parametrize("depth", verify.DEPTHS)
    def test_class_counts_match_a_per_record_recount(self, depth):
        for n in range(1, 7):
            report = verify.sweep(n, depth)
            recount = _recount_classes(report)
            assert report.class_counts == recount, (n, depth)
            assert list(report.class_counts) == list(recount)

    @pytest.mark.parametrize("depth", verify.DEPTHS)
    def test_a_sweep_checks_and_counts_once(self, monkeypatch, depth):
        calls = []
        for name in ("_record_checks", "_update_class_counts"):
            original = getattr(verify, name)

            def counting(*args, original=original, name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(verify, name, counting)
        verify.sweep(5, depth)
        assert calls == ["_record_checks", "_update_class_counts"]

    def test_failing_rank_violations_are_pinned(self, monkeypatch):
        _tamper_ao(monkeypatch, [33])  # w = 23451
        record = {
            "w": [2, 3, 4, 5, 1],
            "inv": 4,
            "code": [1, 1, 1, 1, 0],
            "prod": 16,
            "wk": 5,
            "br": 16,
            "ao": 17,
            "rk": 16,
            "re": None,
            "avoids_231_312": False,
            "avoids_four": True,
            "avoids_3412_4231": True,
            "weak_poly": None,
            "bruhat_poly": None,
            "product_poly": None,
            "distance_poly": None,
        }
        expected = [
            ("ao_eq_rk", "ao=17 rk=16"),
            ("re_le_br", "re=17 br=16"),
            ("re_eq_br_iff_avoids_four", "re=17 br=16 avoids_four=True"),
        ]
        report = verify.sweep(5)
        assert list(report.violations) == [
            {"rank": 33, "w": [2, 3, 4, 5, 1], "check": c, "detail": d, "record": record}
            for c, d in expected
        ]
        assert report.class_counts["re_eq_br"] == _recount_classes(report)["re_eq_br"]

        polys = dict(
            record,
            weak_poly=[1, 1, 1, 1, 1],
            bruhat_poly=[1, 4, 6, 4, 1],
            product_poly=[1, 4, 6, 4, 1],
            distance_poly=[1, 4, 6, 4, 1],
        )
        expected.append(
            ("distance_poly_consistent", "distance=1 + 4q + 6q^2 + 4q^3 + q^4 re=17 inv=4")
        )
        report = verify.sweep(5, "polys")
        assert list(report.violations) == [
            {"rank": 33, "w": [2, 3, 4, 5, 1], "check": c, "detail": d, "record": polys}
            for c, d in expected
        ]

        full = dict(polys, re=16)
        report = verify.sweep(5, "with_region_oracle")
        assert list(report.violations) == [
            {"rank": 33, "w": [2, 3, 4, 5, 1], "check": c, "detail": d, "record": full}
            for c, d in (("ao_eq_rk", "ao=17 rk=16"), ("re_eq_ao", "re=16 ao=17"))
        ]

    def test_violations_come_by_rank_then_table_order(self, monkeypatch):
        _tamper_ao(monkeypatch, [60, 33])  # w = 34125 and 23451
        checks = ["ao_eq_rk", "re_le_br", "re_eq_br_iff_avoids_four"]
        report = verify.sweep(5)
        assert [(v["rank"], v["check"]) for v in report.violations] == [
            (rank, check) for rank in (33, 60) for check in checks
        ]


class TestSweep:
    def test_s1(self):
        report = verify.sweep(1)
        assert report.n == 1 and report.depth == "counts"
        assert len(report.records) == 1
        record = report.records[0]
        assert record.w == (1,)
        assert (record.wk, record.br, record.ao, record.rk, record.prod) == (
            1,
            1,
            1,
            1,
            1,
        )
        assert report.violations == ()

    def test_s3_class_counts(self):
        report = verify.sweep(3, depth="polys")
        assert len(report.records) == 6
        assert report.violations == ()
        assert report.class_counts == {
            "re_eq_wk": 4,
            "wk_eq_prod": 5,
            "prod_eq_rk": 5,
            "re_eq_br": 6,
            "wk_eq_br": 4,
            "avoids_231": 5,
            "avoids_312": 5,
            "avoids_231_312": 4,
            "avoids_four": 6,
            "avoids_3412_4231": 6,
            "ferrers_312_containing": 0,
            "weak_poly_eq_product_poly_231_containing": 0,
        }

    def test_equality_classes_have_power_of_two_size(self):
        for n in range(1, 6):
            report = verify.sweep(n)
            assert report.violations == ()
            assert report.class_counts["re_eq_wk"] == 2 ** (n - 1)
            assert report.class_counts["wk_eq_br"] == 2 ** (n - 1)
            assert (
                report.class_counts["re_eq_wk"]
                == report.class_counts["avoids_231_312"]
            )

    def test_records_in_lexicographic_order(self):
        report = verify.sweep(4)
        words = [record.w for record in report.records]
        assert words == sorted(words)
        assert len(words) == 24

    def test_oracle_schedule(self):
        full = verify.sweep(4, depth="with_region_oracle")
        assert all(record.re is not None for record in full.records)
        shallow = verify.sweep(4, depth="counts")
        assert all(record.re is None for record in shallow.records)
        assert all(record.distance_poly is None for record in shallow.records)
        polys = verify.sweep(4, depth="polys")
        assert all(record.distance_poly is not None for record in polys.records)
        assert all(record.re is None for record in polys.records)

    def test_sampled_oracle_at_n7(self, sweep7_polys):
        report = sweep7_polys.report
        assert len(report.records) == 5040
        assert report.violations == ()
        with_distance = [r for r in report.records if r.distance_poly is not None]
        assert len(with_distance) == 5040
        assert all(r.distance_poly(1) == r.ao for r in with_distance)
        assert all(r.distance_poly.degree == r.inv for r in with_distance)
        assert all(r.re is None for r in report.records)

    def test_orientation_count_invariant_under_inverse_s7(self, sweep7_polys):
        ao_by_word = {r.w: r.ao for r in sweep7_polys.report.records}
        for word, ao in ao_by_word.items():
            assert ao == ao_by_word[inverse(Permutation(word)).word]

    def test_chain_bounds_hold_across_s7(self, sweep7_polys):
        for r in sweep7_polys.report.records:
            assert r.wk <= r.prod <= r.rk == r.ao <= r.br

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            verify.sweep(0)
        with pytest.raises(ValueError, match="depth must be one of"):
            verify.sweep(3, depth="bogus")
        with pytest.raises(ValueError, match="n <= 8"):
            verify.sweep(9, depth="with_region_oracle")
        with pytest.raises(ValueError, match="n <= 8"):
            verify.sweep(9)


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        a = verify.emit_report(verify.sweep(4, depth="polys"))
        b = verify.emit_report(verify.sweep(4, depth="polys"))
        assert a == b

    def test_a_sweep_starts_no_process(self, monkeypatch):
        def no_fork(*args, **kwargs):
            raise AssertionError("a sweep started a process")

        monkeypatch.setattr(os, "fork", no_fork)
        for depth in verify.DEPTHS:
            report = verify.sweep(6, depth, parallelism=4)
            assert len(report.records) == 720 and report.violations == (), depth


class TestEmitReport:
    def test_json_schema(self):
        report = verify.sweep(3, depth="polys")
        payload = verify.emit_report(report, format="json")
        assert payload.endswith(b"\n")
        doc = json.loads(payload)
        assert list(doc.keys()) == ["n", "depth", "records", "violations", "class_counts"]
        assert doc["n"] == 3 and doc["depth"] == "polys"
        assert len(doc["records"]) == 6
        assert doc["violations"] == []
        for row in doc["records"]:
            assert list(row.keys()) == RECORD_KEYS
        longest = doc["records"][-1]
        assert longest["w"] == [3, 2, 1]
        assert longest["wk"] == longest["br"] == 6
        assert longest["weak_poly"] == [1, 2, 2, 1]

    def test_csv_exact_bytes(self):
        counts_row = b'"1",0,"0",1,1,1,1,1,,true,true,true,,,,'
        payload = verify.emit_report(verify.sweep(1), format="csv")
        assert payload == verify.CSV_HEADER.encode() + b"\n" + counts_row + b"\n"
        deep_row = b'"1",0,"0",1,1,1,1,1,1,true,true,true,"1","1","1","1"'
        payload = verify.emit_report(
            verify.sweep(1, depth="with_region_oracle"), format="csv"
        )
        assert payload == verify.CSV_HEADER.encode() + b"\n" + deep_row + b"\n"

    def test_csv_row_count_and_null_fields(self):
        report = verify.sweep(3)
        lines = verify.emit_report(report, format="csv").decode().splitlines()
        assert len(lines) == 7
        assert lines[0] == verify.CSV_HEADER
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[8] == ""  # no region oracle at counts depth
            assert fields[-4:] == ["", "", "", ""]

    def test_format_validation(self):
        with pytest.raises(ValueError, match="format must be"):
            verify.emit_report(verify.sweep(1), format="xml")


def _json_report_by_dicts(report):
    """The JSON report as ``json.dumps`` of one dict per record: the oracle of
    the template writer."""
    doc = {
        "n": report.n,
        "depth": report.depth,
        "records": [r.to_json_dict() for r in report.records],
        "violations": list(report.violations),
        "class_counts": report.class_counts,
    }
    return (json.dumps(doc) + "\n").encode("utf-8")


def _csv_cell(value):
    """A ``to_json_dict`` value as the CSV writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


class TestRecordWriters:
    """The template writers against ``json.dumps`` and the stdlib ``csv``
    reader, which know nothing of the templates."""

    @pytest.mark.parametrize("depth", verify.DEPTHS)
    def test_record_json_is_json_dumps_of_the_dict(self, depth):
        for n in range(1, 7):
            for record in verify.sweep(n, depth).records:
                assert verify._record_json(record) == json.dumps(record.to_json_dict())
        rng = random.Random(1408)
        words = [Permutation.identity(8), Permutation.longest(8)]
        words += [Permutation(tuple(rng.sample(range(1, 9), 8))) for _ in range(16)]
        for w in words:
            record = verify.stat_record(w, depth)
            assert verify._record_json(record) == json.dumps(record.to_json_dict()), w

    @pytest.mark.parametrize("depth", verify.DEPTHS)
    def test_json_report_with_violations_matches_the_dict_oracle(
        self, monkeypatch, depth
    ):
        _tamper_ao(monkeypatch, [33])  # w = 23451
        report = verify.sweep(5, depth)
        assert report.violations
        assert verify.emit_report(report, "json") == _json_report_by_dicts(report)

    @pytest.mark.parametrize("depth", verify.DEPTHS)
    def test_s1_json_report_matches_the_dict_oracle(self, depth):
        report = verify.sweep(1, depth)
        assert verify.emit_report(report, "json") == _json_report_by_dicts(report)

    @pytest.mark.parametrize("depth", verify.DEPTHS)
    def test_csv_rows_parse_back_to_the_dicts(self, depth):
        for n in range(1, 7):
            report = verify.sweep(n, depth)
            text = verify.emit_report(report, "csv").decode()
            rows = list(csv.reader(io.StringIO(text, newline="")))
            assert rows[0] == RECORD_KEYS
            assert len(rows) == len(report.records) + 1
            for row, record in zip(rows[1:], report.records):
                expected = [_csv_cell(v) for v in record.to_json_dict().values()]
                assert row == expected, record.w


class TestOracleChecks:
    def test_all_pass_and_report_their_n(self):
        results = verify.oracle_checks(3)
        assert [r.name for r in results] == [
            "bruhat_dominance_vs_chain_closure",
            "orientations_color_partitions_vs_enumeration",
            "rook_permanent_vs_backtracking",
            "weak_bfs_vs_filter",
            "regions_vs_acyclic_orientations",
            "weak_column_vs_filter",
            "orientation_column_vs_color_partitions",
            "rook_column_vs_backtracking",
            "pattern_columns_vs_backtracking",
            "bruhat_column_vs_essential_filter",
            "product_column_vs_product_formula",
            "distance_column_vs_region_sort",
            "region_column_vs_region_sort",
        ]
        assert all(r.passed for r in results)
        assert all(r.n == 3 for r in results)
        assert all(r.detail == "" for r in results)

    def test_caps_clamp_requested_n(self):
        results = verify.oracle_checks(9)
        by_name = {r.name: r.n for r in results}
        assert by_name["bruhat_dominance_vs_chain_closure"] == 5
        assert by_name["orientations_color_partitions_vs_enumeration"] == 5
        assert by_name["rook_permanent_vs_backtracking"] == 6
        assert by_name["weak_bfs_vs_filter"] == 6
        assert by_name["regions_vs_acyclic_orientations"] == 6
        assert by_name["weak_column_vs_filter"] == 7
        assert by_name["orientation_column_vs_color_partitions"] == 7
        assert by_name["rook_column_vs_backtracking"] == 6
        assert by_name["pattern_columns_vs_backtracking"] == 7
        assert by_name["bruhat_column_vs_essential_filter"] == 7
        assert by_name["product_column_vs_product_formula"] == 7
        assert by_name["distance_column_vs_region_sort"] == 7
        assert by_name["region_column_vs_region_sort"] == 7
        assert all(r.passed for r in results)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            verify.oracle_checks(0)


class TestClassCountsAgainstDirectScan:
    def test_pattern_counts_match_direct_predicates(self, sweep6_oracle):
        report = sweep6_oracle.report
        from invarr.perm import (
            POINCARE_MATCH_PATTERNS,
            REGION_BRUHAT_EQUALITY_PATTERNS,
            WEAK_EQUALITY_PATTERNS,
        )

        records = report.records
        assert len(records) == 720
        assert report.violations == ()
        direct_both = sum(
            avoids_all(Permutation(r.w), WEAK_EQUALITY_PATTERNS) for r in records
        )
        assert report.class_counts["avoids_231_312"] == direct_both == 32
        direct_four = sum(
            avoids_all(Permutation(r.w), REGION_BRUHAT_EQUALITY_PATTERNS)
            for r in records
        )
        assert report.class_counts["avoids_four"] == direct_four == 477
        direct_poincare_class = sum(
            avoids_all(Permutation(r.w), POINCARE_MATCH_PATTERNS) for r in records
        )
        assert report.class_counts["avoids_3412_4231"] == direct_poincare_class
        assert report.class_counts["re_eq_wk"] == report.class_counts["wk_eq_br"] == 32
