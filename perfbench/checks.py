"""Output checks for the benchmark workloads.

Every record is checked, and a record that fails any check counts once
toward ``failed``:

* it carries a violation in the sweep report;
* its mathematically fixed columns (``FIXED_COLUMNS``) hash differently
  from the per-record digest committed in ``golden/``;
* for single records: the chain wk <= prod <= rk = ao = re <= br, each
  polynomial at q = 1 against its count, the distance polynomial's
  degree against inv, and the pattern characterizations the record
  states;
* for sweeps: a filled ``re`` or ``distance_poly`` cell disagrees with
  ao or inv (``re`` and ``distance_poly`` stay out of the digest because
  more of those cells may be filled on purpose later).

Sweep-wide checks (record count, order, class counts, byte identity
across worker counts) fail every record of the sweep they concern.
"""

from __future__ import annotations

import hashlib
import json
from math import factorial
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DIGEST_BYTES = 4

FIXED_COLUMNS = (
    "w",
    "inv",
    "code",
    "prod",
    "wk",
    "br",
    "ao",
    "rk",
    "weak_poly",
    "bruhat_poly",
    "product_poly",
)

# Class counts of S7 from the paper's characterizations; the chain
# re = ao is used where a record leaves re empty.
S7_CLASS_COUNTS = {
    "avoids_231_312": 64,
    "re_eq_wk": 64,
    "wk_eq_br": 64,
    "avoids_231": 429,
    "avoids_312": 429,
    "wk_eq_prod": 429,
    "prod_eq_rk": 429,
    "avoids_four": 2343,
    "re_eq_br": 2343,
    "avoids_3412_4231": 1552,
}


def record_digest(record: dict) -> bytes:
    """Short digest of a report record's fixed columns."""
    text = json.dumps([record[c] for c in FIXED_COLUMNS], separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).digest()[:DIGEST_BYTES]


def golden_path(n: int, depth: str) -> Path:
    """Digest file for S_n at ``depth``: one digest per lexicographic rank.

    Depths ``polys`` and ``with_region_oracle`` share their fixed columns.
    """
    kind = "counts" if depth == "counts" else "polys"
    return GOLDEN_DIR / f"s{n}_{kind}.bin"


def load_golden(n: int, depth: str) -> bytes:
    path = golden_path(n, depth)
    data = path.read_bytes()
    if len(data) != factorial(n) * DIGEST_BYTES:
        raise ValueError(f"{path.name}: expected {factorial(n)} digests")
    return data


def golden_digest(golden: bytes, rank: int) -> bytes:
    return golden[rank * DIGEST_BYTES : (rank + 1) * DIGEST_BYTES]


def filled_cell_problems(record: dict) -> list[str]:
    """Checks on the re and distance_poly cells, wherever they are filled."""
    problems = []
    re_eff = record["ao"] if record["re"] is None else record["re"]
    if record["re"] is not None and record["re"] != record["ao"]:
        problems.append(f"re={record['re']} != ao={record['ao']}")
    dist = record["distance_poly"]
    if dist is not None and (sum(dist) != re_eff or len(dist) - 1 != record["inv"]):
        problems.append(f"distance_poly {dist} inconsistent with re={re_eff} inv={record['inv']}")
    return problems


def stats_record_problems(record: dict, word: tuple[int, ...]) -> list[str]:
    """Every relation a single ``invarr stats`` record at full depth states."""
    problems = []
    if tuple(record["w"]) != word:
        problems.append(f"w={record['w']} for input {list(word)}")
    wk, prod, rk, ao, re, br = (record[k] for k in ("wk", "prod", "rk", "ao", "re", "br"))
    if re is None or not (wk <= prod <= rk == ao == re <= br):
        problems.append(f"chain wk={wk} prod={prod} rk={rk} ao={ao} re={re} br={br}")
    for poly, count in (
        ("weak_poly", wk),
        ("bruhat_poly", br),
        ("product_poly", prod),
        ("distance_poly", re),
    ):
        coeffs = record[poly]
        if coeffs is None or sum(coeffs) != count:
            problems.append(f"{poly}={coeffs} at q=1 differs from {count}")
    dist = record["distance_poly"]
    if dist is not None and len(dist) - 1 != record["inv"]:
        problems.append(f"distance_poly degree {len(dist) - 1} != inv {record['inv']}")
    if (re == br) != record["avoids_four"]:
        problems.append("re = br does not match the four-pattern flag")
    if (re == wk) != record["avoids_231_312"] or (wk == br) != record["avoids_231_312"]:
        problems.append("re = wk = br does not match the 231/312 flag")
    if (dist == record["bruhat_poly"]) != record["avoids_3412_4231"]:
        problems.append("distance = bruhat polynomial does not match the 3412/4231 flag")
    return problems


def check_stats_records(
    records: list[tuple[int, tuple[int, ...], int, str]], golden: bytes
) -> tuple[int, list[str]]:
    """Check ``(rank, word, exit code, stdout)`` of each stats call.

    Returns the failed record count and a few failure descriptions.
    """
    failed = 0
    notes: list[str] = []
    for rank, word, code, out in records:
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            record = json.loads(out)
            problems = stats_record_problems(record, word)
            if record_digest(record) != golden_digest(golden, rank):
                problems.append("fixed columns differ from the committed digest")
        if problems:
            failed += 1
            if len(notes) < 5:
                notes.append(f"rank {rank}: {'; '.join(problems)}")
    return failed, notes


def check_sweep_report(
    payload: bytes, n: int, depth: str, golden: bytes
) -> tuple[int, int, list[str]]:
    """Check an emitted JSON sweep report.

    Returns (attempted, failed, notes); attempted is n!, the records the
    sweep was asked to verify.
    """
    total = factorial(n)
    doc = json.loads(payload)
    records = doc["records"]
    sweep_problems = []
    if doc["n"] != n or doc["depth"] != depth or len(records) != total:
        sweep_problems.append(
            f"report n={doc['n']} depth={doc['depth']} records={len(records)}"
        )
    if n == 7:
        for key, want in S7_CLASS_COUNTS.items():
            got = doc["class_counts"].get(key)
            if got != want:
                sweep_problems.append(f"class count {key}={got}, expected {want}")
    if sweep_problems:
        return total, total, sweep_problems

    bad = {v["rank"]: f"violation {v['check']}: {v['detail']}" for v in doc["violations"]}
    for rank, record in enumerate(records):
        problems = filled_cell_problems(record)
        if record_digest(record) != golden_digest(golden, rank):
            problems.append("fixed columns differ from the committed digest")
        if problems:
            bad.setdefault(rank, "; ".join(problems))
    notes = [f"rank {rank}: {bad[rank]}" for rank in sorted(bad)[:5]]
    return total, len(bad), notes
