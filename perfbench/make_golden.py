"""Regenerate the per-record digests in ``golden/`` from the current program.

    python3 perfbench/make_golden.py

Each file holds, for every permutation of S_n in lexicographic order,
the first bytes of the SHA-256 of the record's fixed columns (see
``checks.FIXED_COLUMNS``).  The committed files were made at the commit
that introduced the benchmark; regenerate them only when the fixed
columns change on purpose.  S8 takes a few minutes on two cores.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from invarr import verify  # noqa: E402

GROUPS = ((7, "counts"), (8, "polys"))


def main() -> None:
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    for n, depth in GROUPS:
        report = verify.sweep(n, depth)
        if report.violations:
            raise SystemExit(f"S{n} {depth}: {len(report.violations)} violations")
        digests = b"".join(checks.record_digest(r.to_json_dict()) for r in report.records)
        path = checks.golden_path(n, depth)
        path.write_bytes(digests)
        print(f"{path.name}: {len(report.records)} records")


if __name__ == "__main__":
    main()
