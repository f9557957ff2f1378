"""Golden report bytes: the SHA-256 of reports the session fixtures build.

A refactor of any route must leave these bytes unchanged.  The S7
``polys`` CSV is hashed with its last column (``distance_poly``)
stripped from every line, so filling more of that column on purpose
does not move the hash.
"""

import hashlib

from invarr import verify

ORACLE_JSON_SHA256 = {
    1: "40d36f15c45eaa9ac4e349483558012926734898d440b53b579c8ad8ee89eea1",
    2: "d6ad403c29f258c63d8fdcf57da4bd7070aa9602a1ea1bc079abebebc1606185",
    3: "a91d5303c53eb79614895ebd285937b9a3bc71f4c667149a1b1a153c7e417409",
    4: "9f507a84d11ae8bd4f152f59493481a2efbf7636056ebed90d6cdba532d8f411",
    5: "5a121485f4f995382e9feca08f02ac02e8ecf2156d2aa569f7f2ebd9c568deca",
    6: "2ad6dc84bb8f382192dbf5e4ea0cabb74cb1b18cae7e4f420b83596c58320da5",
}
S7_POLYS_CSV_SHA256 = "d759b40cb542ed4c42d3cefaab29978dd6e4dd3eb65c681e481c568292641abd"


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def test_oracle_sweep_json_bytes(small_oracle_sweeps, sweep6_oracle):
    reports, _ = small_oracle_sweeps
    reports = {**reports, 6: sweep6_oracle.report}
    digests = {n: _sha256(verify.emit_report(r, "json")) for n, r in reports.items()}
    assert digests == ORACLE_JSON_SHA256


def test_s7_polys_csv_bytes_without_distance_column(sweep7_polys):
    lines = verify.emit_report(sweep7_polys.report, "csv").decode().splitlines()
    stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    assert _sha256(stripped.encode()) == S7_POLYS_CSV_SHA256
