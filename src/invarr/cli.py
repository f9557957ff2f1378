"""Command-line interface.

Subcommands:

    stats W            one permutation's statistics record
    interval W         a weak- or Bruhat-order interval [id, w]
    poincare W         one rank generating polynomial
    sweep --n N        verify all relations over S_N, emit the report
    oracle-check --n N compare fast routes against definitional oracles

Exit codes: 0 on success, 1 when a sweep finds violations or an oracle
comparison fails, 2 on usage errors (bad arguments, malformed
permutations, sizes over the supported caps) and when the report cannot
be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from contextlib import nullcontext

from . import arrangement, columns, orders, verify
from .perm import parse_permutation


def _parse_word_args(parts: list[str]):
    return parse_permutation(" ".join(parts))


def _cmd_stats(args: argparse.Namespace) -> int:
    w = _parse_word_args(args.w)
    record = verify.stat_record(w, depth=args.depth)
    if args.format == "json":
        print(json.dumps(record.to_json_dict()))
        return 0
    for name, value in zip(record._fields, record):
        print(f"{name}={value}")
    return 0


# Each choice of interval --order and poincare --which, and its route;
# the first is the default.
_INTERVALS = {"weak": orders.weak_interval, "bruhat": orders.bruhat_interval}
_POINCARE = {
    "weak": lambda w: orders.weak_interval(w).poincare,
    "bruhat": lambda w: orders.bruhat_interval(w).poincare,
    "product": orders.product_q_formula,
    "distance": arrangement.distance_enumerator,
}
# The size of the full S_8 report in each format, from counts to full depth.
_S8_REPORT_MIB = {"json": "11.8-20.5", "csv": "3.2-10.5"}


def _cmd_interval(args: argparse.Namespace) -> int:
    w = _parse_word_args(args.w)
    summary = _INTERVALS[args.order](w, with_elements=args.list)
    print(f"order      {args.order}")
    print(f"size       {summary.size}")
    print(f"max_length {summary.max_length}")
    print(f"poincare   {summary.poincare}")
    if args.list:
        for element in summary.elements:
            print(str(element))
    return 0


def _cmd_poincare(args: argparse.Namespace) -> int:
    poly = _POINCARE[args.which](_parse_word_args(args.w))
    if args.format == "json":
        print(json.dumps({"which": args.which, "coeffs": poly.to_list()}))
    else:
        print(poly)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.n >= 8 and not args.long:
        print(
            f"error: a full sweep of S_8 writes {_S8_REPORT_MIB[args.format]} MiB of "
            f"{args.format.upper()}; pass --long to confirm",
            file=sys.stderr,
        )
        return 2
    # Open the output before sweeping, so that an unwritable path fails at once.
    with open(args.output, "wb") if args.output else nullcontext(sys.stdout.buffer) as out:
        start = time.perf_counter()
        report = verify.sweep(args.n, depth=args.depth)
        emit_start = time.perf_counter()
        out.write(verify.emit_report(report, format=args.format))
        out.flush()
        end = time.perf_counter()
    seconds = end - start
    print(
        f"n={report.n} depth={report.depth} records={len(report.records)} "
        f"violations={len(report.violations)} seconds={seconds:.3f} "
        f"emit_s={end - emit_start:.3f} records_per_s={len(report.records) / seconds:.0f}",
        file=sys.stderr,
    )
    return 1 if report.violations else 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    results = verify.oracle_checks(args.n)
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        checks = [dataclasses.asdict(r) for r in results]
        print(json.dumps({"n": args.n, "checks": checks, "passed": all_passed}))
    else:
        for r in results:
            status = "PASS" if r.passed else f"FAIL {r.detail}"
            print(f"{r.name}: n={r.n} {status}")
    return 0 if all_passed else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="invarr",
        description=(
            "Statistics of permutation inversion arrangements: weak and "
            "Bruhat intervals, code products, acyclic orientations, rook "
            "placements, and region counts, with exhaustive verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    word_help = "permutation in one-line notation, e.g. 25134 or '2 5 1 3 4'"

    p_stats = sub.add_parser("stats", help="statistics record for one permutation")
    p_stats.add_argument("w", nargs="+", help=word_help)
    p_stats.add_argument("--depth", choices=verify.DEPTHS, default="with_region_oracle")
    p_stats.add_argument("--format", choices=("text", "json"), default="text")
    p_stats.set_defaults(handler=_cmd_stats)

    p_interval = sub.add_parser("interval", help="interval [id, w] in weak or Bruhat order")
    p_interval.add_argument("w", nargs="+", help=word_help)
    p_interval.add_argument("--order", choices=_INTERVALS, default=next(iter(_INTERVALS)))
    p_interval.add_argument(
        "--list", action="store_true", help="also print every element, sorted"
    )
    p_interval.set_defaults(handler=_cmd_interval)

    p_poincare = sub.add_parser("poincare", help="one rank generating polynomial")
    p_poincare.add_argument("w", nargs="+", help=word_help)
    p_poincare.add_argument("--which", choices=_POINCARE, default=next(iter(_POINCARE)))
    p_poincare.add_argument("--format", choices=("text", "json"), default="text")
    p_poincare.set_defaults(handler=_cmd_poincare)

    p_sweep = sub.add_parser("sweep", help="verify all relations over S_n")
    # Refused before --output is opened, so a refused size leaves the file as it was.
    p_sweep.add_argument("--n", type=int, choices=range(1, columns.MAX_TABLE_N + 1), required=True)
    p_sweep.add_argument("--depth", choices=verify.DEPTHS, default="counts")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.add_argument("--output", help="write the report here instead of stdout")
    p_sweep.add_argument(
        "--long", action="store_true", help="confirm a full n >= 8 sweep"
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle-check", help="fast routes vs definitional oracles"
    )
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")
    p_oracle.set_defaults(handler=_cmd_oracle_check)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
