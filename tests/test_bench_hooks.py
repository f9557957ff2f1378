"""The names the benchmark wraps must keep existing and keep their shape.

``perfbench/child.py`` puts a timing wrapper on each layer entry point
where the sweep and the CLI look it up, reads counters off the wrapped
calls' arguments and results, and restores every attribute afterwards.
A refactor that drops or reshapes one of those names fails here instead
of breaking a traced benchmark run.
"""

import sys
from math import factorial
from pathlib import Path

from invarr import Permutation, arrangement, cli, orders, rook, verify

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import child  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = (arrangement, cli, orders, rook, verify)


def test_wrapped_names_run_and_are_restored():
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    tracer = Tracer()
    child.install_spans(tracer)
    try:
        record = verify.stat_record(
            Permutation((3, 1, 4, 8, 5, 2, 7, 6)), "with_region_oracle"
        )
        # the Bruhat span still counts a whole-group scan: n! rows per call
        bruhat_calls = tracer.summary(1.0)["spans"]["verify.bruhat_table"]["calls"]
        assert bruhat_calls == 1
        assert tracer.counters["bruhat_rows"] == factorial(8) * bruhat_calls
        assert tracer.counters["bruhat_hits"] == record.br
        report = verify.sweep(3, "polys", parallelism=1)
    finally:
        restored = tracer.restore()
    assert restored
    for module in MODULES:
        after = vars(module)
        for name, value in before[module.__name__].items():
            assert after[name] is value, f"{module.__name__}.{name} not restored"

    assert record.re == record.ao and report.violations == ()
    spans = tracer.summary(1.0)["spans"]
    # one record per word of S3 and one for the stat_record; the sweep
    # checks every relation and counts every class once, over all of S3
    assert spans["verify.record"]["calls"] == 6 + 1
    assert spans["verify.checks"]["calls"] == 2
    # the sweep reads the distance and region columns: only the
    # stat_record filters the gate chambers
    for name in ("arrangement.regions", "arrangement.distance_of_regions"):
        assert spans[name]["calls"] == 1, name
    assert "orders.weak_interval" not in spans  # records read the group table
    # the sweep reads br and bruhat_poly from the Bruhat column: only the
    # stat_record scans the table
    assert spans["verify.bruhat_table"]["calls"] == 1
    assert tracer.counters["bruhat_rows"] == factorial(8)
    assert tracer.counters["region_masks"] == factorial(8)
    assert len(arrangement._CHROMATIC_MEMO) > 0
