"""Golden report bytes: the SHA-256 of the sweep reports of S1-S8 and of
the CLI's JSON.

A refactor of any route must leave these bytes unchanged.
``REPORT_SHA256`` pins the JSON and the full CSV of every S1-S7 report
at every depth.  The S7 ``polys`` CSV is also hashed with its last
column (``distance_poly``) stripped from every line, so filling more of
that column on purpose moves only the full pin.  The S8 reports and the
CLI's ``stats`` and ``oracle-check`` JSON carry the hashes that the CI
workflow (``.github/workflows/tier1.yml``) checks end to end.
"""

import hashlib

import pytest

from invarr import cli, verify

# (n, depth): (JSON SHA-256, CSV SHA-256)
REPORT_SHA256 = {
    (1, "counts"): (
        "2baf893f476e856e8eb787f4630e5fc228e8e8ac86407a181f2017626527ca44",
        "ae9dc631ab21c979f652a9fc3b62e7f8594634546acef3cefd0db617e89494eb",
    ),
    (1, "polys"): (
        "bc3559291da1fc569979fe19bf3f9330e7dac12b4481525f9e52aaa976ff0eb9",
        "d0595536cd684831e06b96e859d1b778ccbca9fca05ad07a3d2a91a34e486a1b",
    ),
    (1, "with_region_oracle"): (
        "40d36f15c45eaa9ac4e349483558012926734898d440b53b579c8ad8ee89eea1",
        "5cff0f39853bec089cc901ac7010ae81429f9753b798dec251f0c3503785754a",
    ),
    (2, "counts"): (
        "e01f880d86c1d6ef19b3115de2745c5b7763a4c31f0be36f759abf1b20173c1e",
        "d9ceee3f1f74c674a58fa33dd092c4c63471741329fc1f06ec3c81024595acad",
    ),
    (2, "polys"): (
        "ef84457a685941f6209ce26f00a6e4723a11be97172ff53035de84cb427bad38",
        "ecbb43bc962dfa1b15cdd763edf0209ec2f58070b70255247c5bcdf951014d89",
    ),
    (2, "with_region_oracle"): (
        "d6ad403c29f258c63d8fdcf57da4bd7070aa9602a1ea1bc079abebebc1606185",
        "8102b3ee8807f56ff0b3c6699ac8b2411bb476a57a98d5c66f513e4a435e106e",
    ),
    (3, "counts"): (
        "073a1d12d9ec604fd52040239a096c65efaf1d333a7c67b730cee1ea91f3a091",
        "8aabb8e6848c3ace650bcd6e6bf6e03766c596de8edb587778648a95500c6baf",
    ),
    (3, "polys"): (
        "fb3db6128b2b052b361b6496e31973289490807262bc842830788c6ab7cb2b68",
        "64acf2a231a21b57844d810f9a94c2bc78299f303798c3f6e9f10056c16f3156",
    ),
    (3, "with_region_oracle"): (
        "a91d5303c53eb79614895ebd285937b9a3bc71f4c667149a1b1a153c7e417409",
        "753e0f9c430570494772256782dd974d38551b4993415c5e8c2f024cfe06abea",
    ),
    (4, "counts"): (
        "e79dd4380f3bee2c6b983f0f122eafee83e0c55b6cc096ef7a3a828be30b5e57",
        "3ea63cac7f15d38fa16f92ef18f98418f57757ff6c7c6691674ca4e2db4a3fcb",
    ),
    (4, "polys"): (
        "0881da63a4caaf06f7869169f5e5302155f0449e8e09d1d5d72cf46c25a9a99b",
        "00a46d176433c776a36d2f3f8e4326f076de4f1762c4b8968776de180e40e80a",
    ),
    (4, "with_region_oracle"): (
        "9f507a84d11ae8bd4f152f59493481a2efbf7636056ebed90d6cdba532d8f411",
        "21291a57f618b4051d052f78bf1ec412cf80981dc262efd8a0ca9554308f7204",
    ),
    (5, "counts"): (
        "e44992ced13f2c4fecdf328ba7bc50935f57ead1e87996d6d7333761d72e1141",
        "12eb5156762f09554fd6ada6a275a5c95c8cf977faf2ade7d45d9f89a952bd76",
    ),
    (5, "polys"): (
        "a452eb251196f4437c08eae3a31dd25ec7e609cd7f2535e40b75bffddc28f535",
        "448c7f45e3c2391edbdac6ef64d51270096ad429e652aabc6d603e8f7b23cdd5",
    ),
    (5, "with_region_oracle"): (
        "5a121485f4f995382e9feca08f02ac02e8ecf2156d2aa569f7f2ebd9c568deca",
        "c8e382b416f68d8bdf360774107a3866fd3b2fb3313be45561cceceba73fc184",
    ),
    (6, "counts"): (
        "13d4767ea80f5f995ed6719a3dc03fa72e04dfd814d5f3bdeb7eb35cc7b10b6c",
        "a88d77781d1cd4c3810a55ec78813ad84cad1c8f2550505561610787129f3f21",
    ),
    (6, "polys"): (
        "e194fa87af6917edd62168a0c9b9a7adb4b647aaaa01be32389a15cf29278167",
        "2669af194551b441400a65d74689af3e9ff45b0efa18c0bf78849ef1a954b156",
    ),
    (6, "with_region_oracle"): (
        "2ad6dc84bb8f382192dbf5e4ea0cabb74cb1b18cae7e4f420b83596c58320da5",
        "c117ee020b4e79e872f0998427c5b530f790f9b75068e33ff1521df9827870fb",
    ),
    (7, "counts"): (
        "9b9f17d3c7fc8dde337d2b092d0614ebd8b4062af37265c301cb22cc78b2e6f9",
        "c9bad4beb6264b5245aee6f40616a7ba69c63658f9b9662969c810984077626e",
    ),
    (7, "polys"): (
        "3060636ad5a6c48d8887ea5b2b6b70e99e9d1d51f2634f1147fe57001d3629d3",
        "59bf18bf17cde9beb3ccb8c6c4e9c25819c789d40b0f6ca90a97be28bfec2d08",
    ),
    (7, "with_region_oracle"): (
        "16103421c061a82adc88e5e7023516f2587af0e2d23dc0c7423d3508930edc8a",
        "b228bc6255238744039193ea9057dbab685a671554061f7ef7af6a883d5a94c7",
    ),
}
S7_POLYS_CSV_SHA256 = "d759b40cb542ed4c42d3cefaab29978dd6e4dd3eb65c681e481c568292641abd"
# (depth, format) of the S8 reports the CI workflow pins
S8_REPORT_SHA256 = {
    ("counts", "json"): "ef42edd8e8a41a9f98ce26898c38d972dcf26617975d4bfe0927670b8317cca4",
    ("with_region_oracle", "csv"): "9a59fe0d18e64a0beb371a97c6ddd12eb3b26fb70630c5dd39024b845a25a2c6",
}
STATS_87654321_JSON_SHA256 = "4e35e22dfba6a460ba116d3c2f043402e642907526fb728cd359cf5daffbc881"
STATS_12345678_JSON_SHA256 = "0fb2eece88335ee00d49a275c0569c99233de66462048a91e89185d70002b028"
ORACLE_CHECK_7_JSON_SHA256 = "90dbf5f571225e40f7eb54e259d3659a8e6672646ebec2e9a770c03b0c282e73"


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("n, depth", list(REPORT_SHA256))
def test_report_json_and_csv_bytes(n, depth):
    report = verify.sweep(n, depth)
    digests = tuple(_sha256(verify.emit_report(report, f)) for f in ("json", "csv"))
    assert digests == REPORT_SHA256[n, depth]


def test_oracle_sweep_json_bytes(small_oracle_sweeps, sweep6_oracle):
    reports, _ = small_oracle_sweeps
    reports = {**reports, 6: sweep6_oracle.report}
    digests = {n: _sha256(verify.emit_report(r, "json")) for n, r in reports.items()}
    assert digests == {n: REPORT_SHA256[n, "with_region_oracle"][0] for n in range(1, 7)}


def test_s7_polys_csv_bytes_without_distance_column(sweep7_polys):
    lines = verify.emit_report(sweep7_polys.report, "csv").decode().splitlines()
    stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    assert _sha256(stripped.encode()) == S7_POLYS_CSV_SHA256


@pytest.mark.parametrize("depth, fmt", list(S8_REPORT_SHA256))
def test_s8_report_bytes(depth, fmt):
    report = verify.sweep(8, depth)
    assert _sha256(verify.emit_report(report, fmt)) == S8_REPORT_SHA256[depth, fmt]


def _cli_stdout(capsys, argv) -> bytes:
    assert cli.run(argv) == 0
    return capsys.readouterr().out.encode()


def test_cli_stats_json_bytes(capsys):
    out = _cli_stdout(capsys, ["stats", "87654321", "--format", "json"])
    assert _sha256(out) == STATS_87654321_JSON_SHA256


def test_cli_stats_json_bytes_of_the_identity(capsys):
    # the chromatic route's worst case at n = 8: no edge, every block pair kept
    out = _cli_stdout(capsys, ["stats", "12345678", "--format", "json"])
    assert _sha256(out) == STATS_12345678_JSON_SHA256


def test_cli_oracle_check_json_bytes(capsys, monkeypatch, oracle_checks_at_caps):
    # Every row's cap is at most 7, so oracle_checks(9) ran the rows of
    # oracle_checks(7); the JSON's own "n" comes from the command line.
    results, _ = oracle_checks_at_caps
    assert all(r.n <= 7 for r in results)
    monkeypatch.setattr(verify, "oracle_checks", lambda n: results)
    out = _cli_stdout(capsys, ["oracle-check", "--n", "7", "--format", "json"])
    assert _sha256(out) == ORACLE_CHECK_7_JSON_SHA256
