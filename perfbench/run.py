"""invarr benchmark: one workload, fresh interpreters, checked outputs.

    python3 perfbench/run.py --workload s8-stats --seed 1 --seconds 50 --trace 0

Run from the root of a checkout holding ``src/invarr``.  This process
imports nothing of invarr: it draws the workload's inputs from
``--seed`` and launches ``child.py`` interpreters one at a time, so no
run sees caches warmed by an earlier one (the chromatic memo and the
group tables live for the life of a process).

With ``--trace 0`` it runs the workload for ``--seconds`` (at least
``MIN_MEASURED`` times), then enough set-up-only interpreters to have
``MIN_SETUPS`` set-ups, and reports the end-to-end metrics as medians.
With ``--trace 1`` it alternates an untraced and a traced interpreter
for ``--seconds`` and reports the per-layer table of the traced ones.

Every run checks every record (see ``checks.py``) and that all its
interpreters emitted the same report bytes.  Each run of
``s7-counts-fork`` adds one sweep on the other worker count (one worker
untraced, the forked default when traced), so forked and one-worker
reports are compared byte for byte.  The last line of stdout is the result object; the
line before it holds the environment and per-interpreter details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import S8_SAMPLE_SIZE, WORKLOADS, stratified_sample  # noqa: E402

MIN_MEASURED = 3
MIN_SETUPS = 7
RUN_LIMIT_S = 170.0

SPANS = (
    "verify.record",
    "perm.code",
    "perm.patterns",
    "orders.weak_interval",
    "orders.product_q_formula",
    "verify.bruhat_table",
    "arrangement.chromatic",
    "rook.rook_count",
    "rook.ferrers",
    "arrangement.regions",
    "arrangement.distance_of_regions",
    "verify.checks",
    "verify.emit_report",
    "cli.stats",
)
SPAN_FIELDS = (("calls", "count"), ("self_s", "s"), ("ms_per_call", "ms"))


class ChildFailed(RuntimeError):
    pass


def read_text(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return ""


def environment() -> dict:
    model = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": read_text("/proc/loadavg").strip(),
    }


def run_child(workload: str, mode: str, stdin: str, deadline: float, workers=None) -> dict:
    """Run one child interpreter to completion and return its JSON result.

    The child gets its own process group, so a timeout or an interrupt
    also ends any fork workers it started; every process is waited for.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--mode", mode]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildFailed(f"{mode} interpreter for {workload} ran out of time") from exc
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} interpreter for {workload} failed:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens), interpolated."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(measured: list[dict], setups: list[dict]) -> dict:
    if "record_ms" in measured[0]:
        record_ms = [ms for m in measured for ms in m["record_ms"]]
    else:
        # a sweep returns all records at once: its per-record cost is amortized
        record_ms = [1000.0 * m["wall_s"] / m["records"] for m in measured]
    return {
        "wall_s": metric(statistics.median(m["wall_s"] for m in measured), "s"),
        "records_per_s": metric(
            statistics.median(m["records"] / m["wall_s"] for m in measured), "records/s"
        ),
        "record_ms_p50": metric(quantile(record_ms, 50), "ms"),
        "record_ms_p90": metric(quantile(record_ms, 90), "ms"),
        "setup_s": metric(
            statistics.median(s["import_s"] + s["tables_s"] for s in setups), "s"
        ),
        "peak_rss_mib": metric(
            statistics.median(m["peak_rss_mib"] for m in measured), "MiB"
        ),
    }


def per_layer(
    untraced: list[dict], traced: list[dict], setups: list[dict], workers: int
) -> dict:
    def med(get) -> float:
        return statistics.median(get(t) for t in traced)

    def span(name: str, field: str) -> float:
        return med(lambda t: t["trace"]["spans"].get(name, {}).get(field, 0))

    def counter(name: str) -> float:
        return med(lambda t: t["trace"]["counters"].get(name, 0))

    def ratio(hits: str, scanned: str) -> float:
        return med(
            lambda t: t["trace"]["counters"].get(hits, 0)
            / max(1, t["trace"]["counters"].get(scanned, 0))
        )

    out = {}
    for name in SPANS:
        for field, unit in SPAN_FIELDS:
            out[f"{name}.{field}"] = metric(span(name, field), unit)
    out.update(
        {
            "orders.weak_interval.states": metric(counter("weak_states"), "count"),
            "verify.bruhat_table.rows_scanned": metric(counter("bruhat_rows"), "count"),
            "verify.bruhat_table.hit_ratio": metric(
                ratio("bruhat_hits", "bruhat_rows"), "ratio"
            ),
            "arrangement.regions.masks_scanned": metric(counter("region_masks"), "count"),
            "arrangement.regions.hit_ratio": metric(
                ratio("region_hits", "region_masks"), "ratio"
            ),
            "arrangement.chromatic.memo_entries": metric(counter("memo_entries"), "count"),
            "verify.emit_report.bytes": metric(counter("report_bytes"), "bytes"),
            "verify.sweep.workers": metric(workers, "count"),
            "verify.sweep.ipc_bytes": metric(counter("ipc_bytes"), "bytes"),
            "setup.import_s": metric(statistics.median(s["import_s"] for s in setups), "s"),
            "setup.tables_s": metric(statistics.median(s["tables_s"] for s in setups), "s"),
            "trace.overhead_ratio": metric(
                med(lambda t: t["wall_s"])
                / statistics.median(u["wall_s"] for u in untraced),
                "ratio",
            ),
            "trace.wall_s": metric(med(lambda t: t["trace"]["wall_s"]), "s"),
            "trace.unattributed_s": metric(med(lambda t: t["trace"]["unattributed_s"]), "s"),
        }
    )
    return out


def byte_identity(children: list[dict], reference: dict) -> tuple[int, list[str]]:
    """Records of the children whose report bytes differ from the reference's.

    Every interpreter of a run gets the same inputs, so every report must
    be the same bytes, whatever its worker count or tracing.
    """
    failed, notes = 0, []
    for child in children:
        if child["report_sha256"] != reference["report_sha256"]:
            failed += child["attempted"]
            notes.append(
                f"{child['mode']} report on {child['workers']} worker(s) differs from "
                f"the {reference['mode']} report on {reference['workers']}"
            )
    return failed, notes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="invarr benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # turn SIGTERM into SystemExit, so a terminated run still ends its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "invarr" / "__init__.py").is_file():
        print(f"error: no invarr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env_start = environment()
    spec = WORKLOADS[args.workload]
    stdin = ""
    if spec.kind == "stats":
        stdin = json.dumps(stratified_sample(spec.n, S8_SAMPLE_SIZE, args.seed))

    def child(mode: str, workers=None) -> dict:
        return run_child(spec.name, mode, stdin, deadline, workers)

    try:
        start = time.monotonic()
        untraced, traced = [], []
        if args.trace == 0:
            while len(untraced) < MIN_MEASURED or time.monotonic() - start < args.seconds:
                untraced.append(child("measure"))
        else:
            # untraced on one worker too, so the ratio is the tracing overhead alone
            serial = 1 if spec.kind == "sweep" else None
            while not traced or time.monotonic() - start < args.seconds:
                untraced.append(child("measure", workers=serial))
                traced.append(child("trace"))
        children = untraced + traced
        if spec.kind == "sweep":
            # report bytes must not depend on the worker count
            other = 1 if args.trace == 0 else spec.workers()
            children.append(child("measure", workers=other))
        setups = [c["setup"] for c in children]
        while len(setups) < MIN_SETUPS:
            setups.append(child("setup")["setup"])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    notes = [note for c in children for note in c["notes"]]
    mismatched, identity_notes = byte_identity(children, children[0])
    failed = min(attempted, failed + mismatched)
    notes += identity_notes
    if args.trace == 0:
        metrics = end_to_end(untraced, setups)
    else:
        metrics = per_layer(untraced, traced, setups, spec.workers())

    details = {
        "workload": spec.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            **env_start,
            "numpy": children[0]["versions"]["numpy"],
            "loadavg_end": read_text("/proc/loadavg").strip(),
        },
        "interpreters": [
            {k: c[k] for k in ("mode", "workers", "wall_s", "records", "peak_rss_mib")}
            | c["setup"]
            for c in children
        ],
        "fail_ratio": metric(failed / attempted, "failed/attempted"),
        "failures": notes[:10],
    }
    print(json.dumps(details))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
