"""Acceptance gate: every headline claim, checked at full stated scale.

Each criterion prints one ``criterion NN [PASS|FAIL]`` line (visible
under ``pytest -s``) and then asserts, so a red criterion is both
readable and fatal.  Criteria that share a whole-group sweep charge the
sweep's construction time against the first budget that needs it.
"""

import random
import time
from math import comb, factorial

from invarr.arrangement import (
    InversionGraph,
    count_acyclic_orientations,
    count_acyclic_orientations_by_enumeration,
    inversion_graph,
    regions,
)
from invarr.orders import (
    code_monotone_check,
    weak_leq,
    witness_231_reduction,
)
from invarr.perm import (
    PATTERN_231,
    PATTERN_312,
    REGION_BRUHAT_EQUALITY_PATTERNS,
    WEAK_EQUALITY_PATTERNS,
    Permutation,
    avoids_all,
    contains_pattern,
    lehmer_code,
)
from invarr.rook import rook_count

W25134 = Permutation((2, 5, 1, 3, 4))


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_worked_example_statistics():
    def compute():
        return (
            count_acyclic_orientations(inversion_graph(W25134)),
            rook_count(W25134),
        )

    compute()  # warm the chromatic memo and pair tables
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        ao, rk = compute()
        best = min(best, time.perf_counter() - start)
    ok = ao == 16 and rk == 16 and best < 0.001
    _verdict(
        1,
        "statistics of 25134",
        ok,
        f"ao={ao} rk={rk} expected 16, best call {best * 1000:.3f} ms (budget 1 ms)",
    )


def test_criterion_02_braid_baseline():
    start = time.perf_counter()
    ok = True
    values = []
    for n in range(3, 8):
        ao = count_acyclic_orientations(inversion_graph(Permutation.longest(n)))
        values.append(ao)
        ok = ok and ao == factorial(n)
    for n in range(3, 7):
        ok = ok and regions(Permutation.longest(n)).size == factorial(n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(
        2,
        "reversal arrangement has n! regions",
        ok,
        f"orientation counts n=3..7 {values}, region oracle agrees for n<=6, "
        f"{elapsed:.2f} s (budget 10 s)",
    )


def test_criterion_03_identity_chain(sweep7_polys, sweep6_oracle, small_oracle_sweeps):
    start = time.perf_counter()
    small_reports, small_elapsed = small_oracle_sweeps
    ok = True
    for n, report in small_reports.items():
        ok = ok and all(r.ao == r.rk == r.re for r in report.records)
    ok = ok and all(r.ao == r.rk == r.re for r in sweep6_oracle.report.records)
    ok = ok and all(r.ao == r.rk for r in sweep7_polys.report.records)
    sampled = [r for r in sweep7_polys.report.records if r.distance_poly is not None]
    ok = ok and len(sampled) == 5040
    ok = ok and all(r.distance_poly(1) == r.ao for r in sampled)
    charged = (
        sweep7_polys.elapsed
        + sweep6_oracle.elapsed
        + small_elapsed
        + (time.perf_counter() - start)
    )
    ok = ok and charged < 60.0
    _verdict(
        3,
        "orientation, rook, and region counts coincide",
        ok,
        f"all of S1..S6 with region oracle, all 5040 of S7 for ao=rk and for "
        f"the region distance enumerator, {charged:.2f} s charged (budget 60 s)",
    )


def test_criterion_04_regions_dominate_weak_order(sweep7_polys):
    start = time.perf_counter()
    records = sweep7_polys.report.records
    ok = len(records) == 5040
    equal = 0
    for r in records:
        ok = ok and r.ao >= r.wk
        ok = ok and (r.ao == r.wk) == r.avoids_231_312
        equal += r.ao == r.wk
    charged = sweep7_polys.elapsed + (time.perf_counter() - start)
    ok = ok and charged < 300.0
    _verdict(
        4,
        "re >= wk with equality on the {231,312} class",
        ok,
        f"all of S7, {equal} equality cases, {charged:.2f} s charged (budget 300 s)",
    )


def test_criterion_05_weak_size_vs_code_product(sweep7_polys):
    start = time.perf_counter()
    ok = True
    strict = 0
    for r in sweep7_polys.report.records:
        w = Permutation(r.w)
        avoids = not contains_pattern(w, PATTERN_231)
        ok = ok and r.wk <= r.prod
        ok = ok and (r.wk == r.prod) == avoids
        if not avoids:
            strict += 1
            out = witness_231_reduction(w)
            ok = ok and out is not None
            reduced = out[1]
            ok = ok and code_monotone_check(reduced, w)
            ok = ok and not weak_leq(reduced, w)
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "wk <= prod with equality iff 231-avoiding",
        ok,
        f"all of S7; every one of the {strict} strict cases yields a reduction "
        f"below w in code order but not weak order, {elapsed:.2f} s",
    )


def test_criterion_06_code_product_vs_rook_count(sweep7_polys):
    start = time.perf_counter()
    ok = True
    for r in sweep7_polys.report.records:
        avoids = not contains_pattern(Permutation(r.w), PATTERN_312)
        ok = ok and r.prod <= r.rk
        ok = ok and (r.prod == r.rk) == avoids
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        "prod <= rk with equality iff 312-avoiding",
        ok,
        f"all of S7, {elapsed:.2f} s",
    )


def test_criterion_07_regions_vs_bruhat(sweep7_polys, sweep6_oracle):
    start = time.perf_counter()
    ok = True
    for r in sweep6_oracle.report.records:
        ok = ok and r.re <= r.br and (r.re == r.br) == r.avoids_four
    for r in sweep7_polys.report.records:
        ok = ok and r.ao <= r.br and (r.ao == r.br) == r.avoids_four
    # the length-6 pattern must do real work at n = 6 and 7: for some
    # words it alone rules out equality
    three = REGION_BRUHAT_EQUALITY_PATTERNS[:3]
    sixer = REGION_BRUHAT_EQUALITY_PATTERNS[3]
    decisive = {6: 0, 7: 0}
    for n, report in ((6, sweep6_oracle.report), (7, sweep7_polys.report)):
        for r in report.records:
            if not r.avoids_four:
                w = Permutation(r.w)
                if avoids_all(w, three):
                    assert contains_pattern(w, sixer)
                    decisive[n] += 1
    ok = ok and decisive[6] > 0 and decisive[7] > 0
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "re <= br with equality iff avoiding {4231,35142,42513,351624}",
        ok,
        f"all of S6 (region oracle) and S7 (orientation count); sole-obstruction "
        f"counts for the length-6 pattern: n=6 -> {decisive[6]}, "
        f"n=7 -> {decisive[7]}, {elapsed:.2f} s",
    )


def test_criterion_08_weak_equals_bruhat_class(sweep7_polys):
    start = time.perf_counter()
    ok = all(
        (r.wk == r.br) == r.avoids_231_312 for r in sweep7_polys.report.records
    )
    equal = sum(r.wk == r.br for r in sweep7_polys.report.records)
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "wk = br exactly on the {231,312} class",
        ok,
        f"all of S7, {equal} = 2^6 equality cases, {elapsed:.2f} s",
    )


def test_criterion_09_weak_poincare_factors(sweep7_polys):
    start = time.perf_counter()
    ok = True
    avoiders = 0
    for r in sweep7_polys.report.records:
        if not contains_pattern(Permutation(r.w), PATTERN_231):
            avoiders += 1
            ok = ok and r.weak_poly == r.product_poly
    ok = ok and avoiders == 429
    elapsed = time.perf_counter() - start
    _verdict(
        9,
        "weak-order Poincare polynomial factors over the code",
        ok,
        f"coefficientwise equality for all {avoiders} 231-avoiders of S7, "
        f"{elapsed:.2f} s",
    )


def test_criterion_10_equality_class_is_a_power_of_two(
    sweep7_polys, sweep6_oracle, small_oracle_sweeps
):
    start = time.perf_counter()
    small_reports, _ = small_oracle_sweeps
    ok = True
    sizes = []
    for n in range(1, 8):
        if n <= 5:
            records = small_reports[n].records
            by_statistic = sum(r.re == r.wk for r in records)
        elif n == 6:
            records = sweep6_oracle.report.records
            by_statistic = sum(r.re == r.wk for r in records)
        else:
            records = sweep7_polys.report.records
            by_statistic = sum(r.ao == r.wk for r in records)
        by_pattern = sum(
            avoids_all(Permutation(r.w), WEAK_EQUALITY_PATTERNS) for r in records
        )
        sizes.append(by_statistic)
        ok = ok and by_statistic == by_pattern == 2 ** (n - 1)
    reports = list(small_reports.values()) + [
        sweep6_oracle.report,
        sweep7_polys.report,
    ]
    for report in reports:
        ok = ok and (
            report.class_counts["re_eq_wk"]
            == report.class_counts["wk_eq_br"]
            == report.class_counts["avoids_231_312"]
        )
    elapsed = time.perf_counter() - start
    _verdict(
        10,
        "#{re = wk} = 2^(n-1) two independent ways",
        ok,
        f"n=1..7 gives {sizes}, statistic count = pattern count throughout, "
        f"{elapsed:.2f} s",
    )


def test_criterion_11_distance_enumerator_vs_bruhat_poincare(sweep6_oracle):
    start = time.perf_counter()
    records = sweep6_oracle.report.records
    ok = all(r.distance_poly is not None for r in records)
    matches = 0
    for r in records:
        same = r.distance_poly == r.bruhat_poly
        ok = ok and same == r.avoids_3412_4231
        matches += same
    charged = sweep6_oracle.elapsed + (time.perf_counter() - start)
    ok = ok and charged < 120.0
    _verdict(
        11,
        "distance enumerator = Bruhat Poincare iff avoiding {3412,4231}",
        ok,
        f"all 720 of S6, {matches} matches, {charged:.2f} s charged "
        f"(budget 120 s)",
    )


def test_criterion_12_oracle_equivalences(oracle_checks_at_caps):
    start = time.perf_counter()
    results, suite_elapsed = oracle_checks_at_caps
    ok = all(r.passed for r in results)
    reached = {r.name: r.n for r in results}
    ok = ok and reached == {
        "bruhat_dominance_vs_chain_closure": 5,
        "orientations_color_partitions_vs_enumeration": 5,
        "rook_permanent_vs_backtracking": 6,
        "weak_bfs_vs_filter": 6,
        "regions_vs_acyclic_orientations": 6,
        "weak_column_vs_filter": 7,
        "orientation_column_vs_color_partitions": 7,
        "rook_column_vs_backtracking": 6,
        "rook_column_vs_rook_count": 7,
        "pattern_columns_vs_backtracking": 7,
        "bruhat_column_vs_dominance_compare": 7,
        "code_column_vs_lehmer_code": 7,
        "product_column_vs_product_formula": 7,
        "distance_column_vs_region_sort": 7,
        "region_column_vs_region_sort": 7,
    }
    rng = random.Random(20260819)
    graphs = 0
    for _ in range(50):
        v = rng.randint(4, 9)
        possible = [(a, b) for a in range(1, v + 1) for b in range(a + 1, v + 1)]
        m = rng.randint(3, min(16, comb(v, 2)))
        g = InversionGraph(v, frozenset(rng.sample(possible, m)))
        fast = count_acyclic_orientations(g)
        slow = count_acyclic_orientations_by_enumeration(g)
        ok = ok and fast == slow
        graphs += 1
    elapsed = suite_elapsed + (time.perf_counter() - start)
    _verdict(
        12,
        "fast routes match definitional oracles",
        ok,
        f"{len(results)} exhaustive route comparisons at their caps plus {graphs} seeded "
        f"random graphs with <= 16 edges, {elapsed:.2f} s",
    )


def test_criterion_13_worked_reduction_example():
    w = Permutation((4, 1, 3, 8, 2, 6, 5, 7))
    out = witness_231_reduction(w)
    ok = out is not None
    detail = "no witness returned"
    if ok:
        triple, reduced = out
        checks = (
            triple == (1, 4, 5),
            str(reduced) == "41325768",
            lehmer_code(reduced) == (3, 0, 1, 0, 0, 1, 0, 0),
            code_monotone_check(reduced, w) is True,
            weak_leq(reduced, w) is False,
        )
        ok = all(checks)
        detail = (
            f"triple={triple} reduced={reduced} code={lehmer_code(reduced)} "
            f"code_monotone={code_monotone_check(reduced, w)} "
            f"weak_leq={weak_leq(reduced, w)}"
        )
    _verdict(13, "worked 231-reduction of 41382657", ok, detail)
