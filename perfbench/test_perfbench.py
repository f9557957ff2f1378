"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import S8_SAMPLE_SIZE, inversions, stratified_sample  # noqa: E402

import invarr  # noqa: E402
from invarr import Permutation, arrangement, cli, orders, perm, qpoly, rook, verify  # noqa: E402

MODULES = (invarr, arrangement, cli, orders, perm, qpoly, rook, verify)


def test_s8_sample_follows_the_seed():
    first = stratified_sample(8, S8_SAMPLE_SIZE, seed=7)
    assert first == stratified_sample(8, S8_SAMPLE_SIZE, seed=7)
    other = stratified_sample(8, S8_SAMPLE_SIZE, seed=8)
    assert {r for r, _ in first} != {r for r, _ in other}
    assert len({r for r, _ in first}) == S8_SAMPLE_SIZE
    for rank, word in first:
        assert perm.unrank_lex(8, rank).word == word
    # the strata sizes do not depend on the seed
    assert Counter(inversions(w) for _, w in first) == Counter(
        inversions(w) for _, w in other
    )


def _traced_section(tracer: Tracer) -> float:
    """A small traced sweep plus a few stats calls; returns its wall time."""
    start = time.perf_counter()
    report = verify.sweep(5, "polys", parallelism=1)
    verify.emit_report(report, "json")
    with contextlib.redirect_stdout(io.StringIO()):
        for word in ("21543", "3412", "4231", "132"):
            assert cli.run(["stats", word, "--format", "json"]) == 0
    return time.perf_counter() - start


def test_traced_run_restores_every_wrapped_attribute():
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    tracer = Tracer()
    child.install_spans(tracer)
    assert verify._build_record is not before["invarr.verify"]["_build_record"]
    try:
        _traced_section(tracer)
    finally:
        restored = tracer.restore()
    assert len(restored) == 19
    for module in MODULES:
        after = vars(module)
        for name, value in before[module.__name__].items():
            assert after[name] is value, f"{module.__name__}.{name} not restored"
    assert tracer.restore() == []


def test_self_times_account_for_traced_wall_time():
    tracer = Tracer()
    child.install_spans(tracer)
    try:
        wall = _traced_section(tracer)
    finally:
        tracer.restore()
    summary = tracer.summary(wall)
    spans = summary["spans"]
    assert spans["verify.record"]["calls"] == 120 + 4
    assert spans["cli.stats"]["calls"] == 4
    assert spans["verify.emit_report"]["calls"] == 1
    assert all(row["self_s"] >= 0 for row in spans.values())
    attributed = sum(row["self_s"] for row in spans.values())
    assert summary["unattributed_s"] >= 0
    assert attributed + summary["unattributed_s"] == pytest.approx(wall, rel=1e-9)
    # the remainder is reported, and the spans cover most of the section
    assert summary["unattributed_s"] < 0.5 * wall


def test_nested_layer_calls_stay_with_the_calling_layer():
    tracer = Tracer()
    child.install_spans(tracer)
    try:
        verify.stat_record(Permutation((2, 5, 1, 3, 4)))
    finally:
        tracer.restore()
    spans = tracer.summary(1.0)["spans"]
    # rook_count builds its own diagram; only verify's two ferrers calls count
    assert spans["rook.ferrers"]["calls"] == 2
    assert spans["rook.rook_count"]["calls"] == 1


def test_checks_catch_a_wrong_stats_record():
    golden = checks.load_golden(8, "with_region_oracle")
    word = (3, 1, 4, 8, 5, 2, 7, 6)
    rank = next(r for r, w in enumerate(perm.iter_words(8)) if w == word)
    record = verify.stat_record(Permutation(word), "with_region_oracle").to_json_dict()
    good = (rank, word, 0, json.dumps(record))
    assert checks.check_stats_records([good], golden) == (0, [])
    for key, value in (("br", record["br"] + 1), ("re", record["re"] - 1)):
        broken = dict(record, **{key: value})
        failed, notes = checks.check_stats_records(
            [good, (rank, word, 0, json.dumps(broken))], golden
        )
        assert failed == 1 and notes
    assert checks.check_stats_records([(rank, word, 2, "")], golden)[0] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    setups = [{"import_s": 0.1, "tables_s": 0.2}]
    measured = [{"wall_s": 2.0, "records": 10, "peak_rss_mib": 40.0}]
    traced = [
        {
            "wall_s": 2.1,
            "trace": {"spans": {}, "counters": {}, "wall_s": 2.1, "unattributed_s": 0.0},
        }
    ]
    for section, metrics in (
        ("end_to_end", run.end_to_end(measured * 3, setups)),
        ("per_layer", run.per_layer(measured, traced, setups, 2)),
    ):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == {name: m["unit"] for name, m in metrics.items()}
