"""One fresh interpreter: set invarr up, run one workload once, check it.

Run from the checkout root; ``run.py`` launches it, one at a time:

    python3 perfbench/child.py --workload s8-stats --mode measure [--workers N]

Modes:

* ``setup``: import invarr and warm it up, nothing else;
* ``measure``: also run the workload once with tracing off;
* ``trace``: run it on one worker with a span around every layer entry
  point, then restore every wrapped attribute.

The set-up time is the import of invarr plus a warm-up
``stat_record(Permutation.identity(n))``, which builds the cached group
tables (``_group_tables(n)`` and ``all_inversion_masks(n)``) before the
timed section starts.  ``s8-stats`` reads its sample as JSON
``[[rank, word], ...]`` on stdin.  The child prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pickle
import platform
import resource
import sys
import time
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def setup(n: int) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import invarr
    from invarr import Permutation, verify

    imported = time.perf_counter()
    verify.stat_record(Permutation.identity(n))
    warm = time.perf_counter()
    src = (ROOT / "src").resolve()
    if src not in Path(invarr.__file__).resolve().parents:
        raise RuntimeError(f"imported invarr from {invarr.__file__}, not from {src}")
    return {"import_s": imported - start, "tables_s": warm - imported}


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's entry points where the sweep and the CLI look them up."""
    from invarr import arrangement, cli, orders, rook, verify

    def weak_states(t, args, result):
        t.counters["weak_states"] += result.size

    def bruhat_rows(t, args, result):
        t.counters["bruhat_rows"] += args[1].dom.shape[0]
        t.counters["bruhat_hits"] += result[0]

    def region_masks(t, args, result):
        t.counters["region_masks"] += factorial(args[0].n)
        t.counters["region_hits"] += result.size

    def report_bytes(t, args, result):
        t.counters["report_bytes"] += len(result)

    wrap = tracer.wrap
    wrap(cli, "run", "cli.stats", leaf=False)
    wrap(verify, "_build_record", "verify.record", leaf=False)
    wrap(verify, "lehmer_code", "perm.code")
    wrap(verify, "code_product", "perm.code")
    wrap(verify, "contains_pattern", "perm.patterns")
    wrap(verify, "avoids_all", "perm.patterns")
    wrap(orders, "weak_interval", "orders.weak_interval", count=weak_states)
    wrap(orders, "product_q_formula", "orders.product_q_formula")
    wrap(verify, "_bulk_bruhat", "verify.bruhat_table", count=bruhat_rows)
    wrap(arrangement, "inversion_graph", "arrangement.chromatic")
    wrap(arrangement, "count_acyclic_orientations", "arrangement.chromatic")
    wrap(rook, "rook_count", "rook.rook_count")
    wrap(rook, "southwest_diagram", "rook.ferrers")
    wrap(rook, "is_right_justified_ferrers", "rook.ferrers")
    wrap(arrangement, "regions", "arrangement.regions", count=region_masks)
    wrap(arrangement, "distance_of_regions", "arrangement.distance_of_regions")
    wrap(verify, "_record_checks", "verify.checks")
    wrap(verify, "_update_class_counts", "verify.checks")
    wrap(verify, "emit_report", "verify.emit_report", count=report_bytes)


def ipc_bytes(report, workers: int) -> int:
    """Pickled size of the block results ``workers`` forked blocks would send.

    Computed from the merged report, split the way ``sweep`` splits the
    rank range; 0 without forked workers (``report`` is then unused).
    """
    if workers <= 1:
        return 0
    total = len(report.records)
    bounds = [total * b // workers for b in range(workers + 1)]
    size = 0
    for lo, hi in zip(bounds, bounds[1:]):
        violations = [v for v in report.violations if lo <= v["rank"] < hi]
        block = (list(report.records[lo:hi]), violations, report.class_counts)
        size += len(pickle.dumps(block))
    return size


def peak_rss_mib() -> float:
    """Largest resident set of this process or any of its fork workers."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def run_sweep(spec, workers: int) -> tuple[dict, object]:
    from invarr import verify

    start = time.perf_counter()
    report = verify.sweep(spec.n, spec.depth, parallelism=workers)
    payload = verify.emit_report(report, "json")
    wall = time.perf_counter() - start
    rss = peak_rss_mib()
    attempted, failed, notes = checks.check_sweep_report(
        payload, spec.n, spec.depth, checks.load_golden(spec.n, spec.depth)
    )
    result = {
        "wall_s": wall,
        "records": len(report.records),
        "peak_rss_mib": rss,
        "report_sha256": hashlib.sha256(payload).hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
    }
    return result, report


def run_stats(spec, sample: list) -> dict:
    from invarr import cli

    buffer = io.StringIO()
    outputs = []
    latencies = []
    start = time.perf_counter()
    for rank, word in sample:
        buffer.seek(0)
        buffer.truncate()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(["stats", "".join(map(str, word)), "--format", "json"])
        latencies.append(time.perf_counter() - begin)
        outputs.append((rank, tuple(word), code, buffer.getvalue()))
    wall = time.perf_counter() - start
    rss = peak_rss_mib()
    failed, notes = checks.check_stats_records(
        outputs, checks.load_golden(spec.n, spec.depth)
    )
    digest = hashlib.sha256("".join(out for _, _, _, out in outputs).encode()).hexdigest()
    return {
        "wall_s": wall,
        "records": len(sample),
        "record_ms": [1000.0 * s for s in latencies],
        "peak_rss_mib": rss,
        "report_sha256": digest,
        "attempted": len(sample),
        "failed": failed,
        "notes": notes,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    sample = json.load(sys.stdin) if spec.kind == "stats" and args.mode != "setup" else None

    out = {"mode": args.mode, "setup": setup(spec.n)}
    import numpy

    out["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    workers = spec.workers() if args.workers is None else args.workers
    tracer = None
    if args.mode == "trace":
        workers = min(workers, 1)
        tracer = Tracer()
        install_spans(tracer)
    try:
        if spec.kind == "sweep":
            result, report = run_sweep(spec, workers)
        else:
            result, report = run_stats(spec, sample), None
    finally:
        if tracer is not None:
            restored = tracer.restore()
    out.update(result)
    out["workers"] = workers
    if tracer is not None:
        from invarr import arrangement

        if any(getattr(owner, attr) is not original for owner, attr, original in restored):
            raise RuntimeError("a wrapped attribute was not restored")
        out["trace"] = tracer.summary(result["wall_s"])
        out["trace"]["counters"] = dict(tracer.counters)
        out["trace"]["counters"]["memo_entries"] = len(arrangement._CHROMATIC_MEMO)
        out["trace"]["counters"]["ipc_bytes"] = ipc_bytes(report, spec.workers())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
