"""End-to-end tests for the invarr command-line interface.

Everything drives cli.run() in-process; stdout and stderr are captured
by pytest's capsys so the tests see exactly what a shell would.
"""

import dataclasses
import json
import random
import re

import pytest

from invarr import cli, verify
from invarr.perm import Permutation


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "stats", "25134")
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["w=(2, 5, 1, 3, 4)", "inv=4", "code=(1, 3, 0, 0, 0)"]
        for line in ("prod=8", "wk=7", "br=16", "ao=16", "rk=16", "re=16"):
            assert line in lines
        assert "avoids_231_312=False" in lines
        assert "weak_poly=1 + q + 2q^2 + 2q^3 + q^4" in lines

    @pytest.mark.parametrize("depth", verify.DEPTHS)
    def test_text_output_is_one_line_per_field(self, capsys, depth):
        rng = random.Random(2808)
        words = [Permutation((2, 5, 1, 3, 4)), Permutation.longest(8)]
        words += [Permutation(tuple(rng.sample(range(1, 9), 8))) for _ in range(8)]
        for w in words:
            code, out, _ = run_cli(capsys, "stats", str(w), "--depth", depth)
            assert code == 0
            record = verify.stat_record(w, depth)
            lines = [f"{name}={value}" for name, value in zip(verify.StatRecord._fields, record)]
            assert out.splitlines() == lines and len(lines) == 16, w

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "25134", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["w"] == [2, 5, 1, 3, 4]
        assert doc["wk"] == 7
        assert doc["prod"] == 8
        assert doc["rk"] == doc["ao"] == doc["br"] == doc["re"] == 16
        assert doc["product_poly"] == [1, 2, 2, 2, 1]

    @pytest.mark.parametrize("depth", verify.DEPTHS)
    def test_json_output_is_json_dumps_of_the_dict(self, capsys, depth):
        rng = random.Random(1408)
        words = [Permutation((2, 5, 1, 3, 4)), Permutation.longest(8)]
        words += [Permutation(tuple(rng.sample(range(1, 9), 8))) for _ in range(16)]
        for w in words:
            code, out, _ = run_cli(capsys, "stats", str(w), "--depth", depth, "--format", "json")
            assert code == 0
            assert out == json.dumps(verify.stat_record(w, depth).to_json_dict()) + "\n", w

    def test_depth_counts_drops_oracle_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "25134", "--depth", "counts", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["re"] is None
        assert doc["weak_poly"] is None

    def test_separated_word_form(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "2", "5", "1", "3", "4")
        assert code == 0
        assert out == run_cli(capsys, "stats", "25134")[1]
        assert "wk=7" in out.splitlines()

    def test_invalid_permutation_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "stats", "2513")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        code, _, err = run_cli(capsys, "stats", "1x3")
        assert code == 2
        assert "invalid" in err


class TestParserReuse:
    def test_back_to_back_runs_see_their_own_defaults(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        code, out, _ = run_cli(
            capsys, "stats", "25134", "--depth", "counts", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["re"] is None
        code, out, _ = run_cli(capsys, "stats", "25134")
        assert code == 0
        assert "re=16" in out.splitlines()
        assert "weak_poly=1 + q + 2q^2 + 2q^3 + q^4" in out.splitlines()


class TestInterval:
    def test_weak_summary(self, capsys):
        code, out, _ = run_cli(capsys, "interval", "25134")
        assert code == 0
        assert "order      weak" in out
        assert "size       7" in out
        assert "max_length 4" in out
        assert "poincare   1 + q + 2q^2 + 2q^3 + q^4" in out

    def test_bruhat_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "interval", "312", "--order", "bruhat", "--list"
        )
        assert code == 0
        lines = out.splitlines()
        assert "size       4" in lines
        assert lines[-4:] == ["123", "132", "213", "312"]

    def test_over_cap_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "interval", "9 8 7 6 5 4 3 2 1", "--order", "bruhat"
        )
        assert code == 2
        assert "n <= 8" in err


class TestPoincare:
    def test_all_variants_for_one_word(self, capsys):
        # 25134 avoids {3412, 4231}, so distance and bruhat must agree
        expectations = {
            "weak": [1, 1, 2, 2, 1],
            "bruhat": [1, 4, 6, 4, 1],
            "product": [1, 2, 2, 2, 1],
            "distance": [1, 4, 6, 4, 1],
        }
        for which, coeffs in expectations.items():
            code, out, _ = run_cli(
                capsys, "poincare", "25134", "--which", which, "--format", "json"
            )
            assert code == 0
            doc = json.loads(out)
            assert doc == {"which": which, "coeffs": coeffs}, which
            assert sum(coeffs) == {"weak": 7, "bruhat": 16, "product": 8, "distance": 16}[
                which
            ]

    def test_product_over_cap_exits_2(self, capsys):
        word = " ".join(map(str, range(21, 0, -1)))
        code, out, err = run_cli(capsys, "poincare", word, "--which", "product")
        assert code == 2 and out == ""
        assert "n <= 20" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "poincare", "321", "--which", "product")
        assert code == 0
        assert out.strip() == "1 + 2q + 2q^2 + q^3"


class TestSweep:
    def test_json_to_stdout(self, capsysbinary):
        code = cli.run(["sweep", "--n", "3", "--depth", "polys"])
        captured = capsysbinary.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["n"] == 3
        assert doc["violations"] == []
        assert len(doc["records"]) == 6
        summary = captured.err.decode()
        assert re.fullmatch(
            r"n=3 depth=polys records=6 violations=0 seconds=\d+\.\d{3} "
            r"emit_s=\d+\.\d{3} records_per_s=\d+\n",
            summary,
        ), summary
        assert int(summary.split("records_per_s=")[1]) > 0

    def test_output_file_matches_stdout(self, capsysbinary, tmp_path):
        code = cli.run(["sweep", "--n", "3"])
        stdout_payload = capsysbinary.readouterr().out
        target = tmp_path / "report.json"
        assert cli.run(["sweep", "--n", "3", "--output", str(target)]) == 0
        capsysbinary.readouterr()
        assert target.read_bytes() == stdout_payload

    def test_csv_format(self, capsysbinary, tmp_path):
        target = tmp_path / "report.csv"
        code = cli.run(
            ["sweep", "--n", "4", "--format", "csv", "--output", str(target)]
        )
        capsysbinary.readouterr()
        assert code == 0
        lines = target.read_bytes().decode().splitlines()
        assert lines[0] == verify.CSV_HEADER
        assert len(lines) == 25

    def test_unwritable_output_is_an_error_not_a_violation(
        self, capsys, monkeypatch, tmp_path
    ):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "sweep", "--n", "3", "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "report.json" in err
        assert "Traceback" not in err

        # the output is opened before the sweep, so no sweep runs
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before opening the output")

        monkeypatch.setattr(verify, "sweep", no_sweep)
        code, out, err = run_cli(capsys, "sweep", "--n", "3", "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "report.json" in err

    def test_parallelism_flag_is_gone(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "3", "--parallelism", "2")
        assert code == 2
        assert "--parallelism" in err

    def test_refused_size_leaves_the_output_untouched(self, capsys, tmp_path):
        target = tmp_path / "existing.json"
        target.write_bytes(b"keep")
        for n in ("9", "0"):
            code, out, err = run_cli(capsys, "sweep", "--n", n, "--long", "--output", str(target))
            assert code == 2 and out == ""
            assert f"invalid choice: {n}" in err
        assert target.read_bytes() == b"keep"

    def test_n8_requires_long_flag(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--n", "8")
        assert code == 2
        assert out == ""
        assert "--long" in err
        # the refusal quotes the report size of the format asked for
        target = tmp_path / "existing"
        target.write_bytes(b"keep")
        for fmt, size in (("json", "11.8-20.5 MiB of JSON"), ("csv", "3.2-10.5 MiB of CSV")):
            code, out, err = run_cli(
                capsys, "sweep", "--n", "8", "--format", fmt, "--output", str(target)
            )
            assert code == 2 and out == ""
            assert size in err and "--long" in err
        assert target.read_bytes() == b"keep"

    def test_violations_exit_1(self, capsys, monkeypatch):
        fake = dataclasses.replace(
            verify.sweep(3),
            violations=(
                {"rank": 0, "w": [1, 2, 3], "check": "ao_eq_rk", "detail": "fake"},
            ),
        )
        monkeypatch.setattr(verify, "sweep", lambda *a, **k: fake)
        code, _, err = run_cli(capsys, "sweep", "--n", "3")
        assert code == 1
        assert "violations=1" in err


class TestOracleCheck:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--n", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 15
        assert all(line.endswith("PASS") for line in lines)
        assert lines[0] == "bruhat_dominance_vs_chain_closure: n=2 PASS"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--n", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 15

    def test_failure_exits_1(self, capsys, monkeypatch):
        fake = [verify.OracleCheckResult(name="x", n=2, passed=False, detail="boom")]
        monkeypatch.setattr(verify, "oracle_checks", lambda n: fake)
        code, out, _ = run_cli(capsys, "oracle-check", "--n", "2")
        assert code == 1
        assert "x: n=2 FAIL boom" in out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert cli.run(["--help"]) == 0
        out = capsys.readouterr().out
        assert "stats" in out and "sweep" in out

    def test_missing_required_flag(self, capsys):
        assert cli.run(["sweep"]) == 2
        capsys.readouterr()
