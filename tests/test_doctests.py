"""Run every docstring example, the README's, and its ``$ invarr``
command examples; they double as frozen regression values.  The
README's route census, API census and entry-point list must name only
what exists, and the API census must name every export."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

import invarr
import invarr.arrangement
import invarr.cli
import invarr.columns
import invarr.orders
import invarr.perm
import invarr.qpoly
import invarr.rook
import invarr.verify
from invarr import verify

MODULES = [
    invarr.arrangement,
    invarr.columns,
    invarr.orders,
    invarr.perm,
    invarr.qpoly,
    invarr.rook,
    invarr.verify,
]
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# Backticked words of the README prose that name no code: n, w, S_7, S_8.
MATH = re.compile(r"[nw]|S_\d")


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_cli_examples(capsys):
    """Each ``$ invarr`` block prints its lines; a sweep's summary carries
    timings and it writes a report, so its block is not run."""
    blocks = re.findall(r"^```\n\$ invarr ([^\n]*)\n(.*?)^```", README.read_text(), re.M | re.S)
    assert [command.split()[0] for command, _ in blocks] == [
        "stats", "interval", "poincare", "sweep", "oracle-check"
    ]
    for command, expected in blocks:
        if command.startswith("sweep"):
            continue
        assert invarr.cli.run(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == expected, command


def _readme_section(start: str, end: str) -> str:
    text = README.read_text()
    head = text.index(start) + len(start)
    return text[head : text.index(end, head)]


def _resolves(name: str) -> bool:
    for root in (invarr, invarr.columns):
        target = root
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is not None:
            return True
    return False


def test_readme_names_exist():
    known = set(invarr.StatRecord._fields)
    known |= {result.name for result in invarr.oracle_checks(1)}
    relations = verify._RELATIONS + verify._REGION_RELATIONS + verify._POLY_RELATIONS
    known |= {name for name, _, _ in relations}
    known |= set(verify.DEPTHS)
    for path in (ROOT / "tests").glob("test_*.py"):
        known |= set(re.findall(r"def (test_\w+)", path.read_text()))
    for section in ("## Route census", "## API census"):
        names = re.findall(r"`([A-Za-z_][\w.]*)`", _readme_section(section, "\n## "))
        assert len(names) > 50
        for name in names:
            assert MATH.fullmatch(name) or name in known or _resolves(name), name
    entry_points = _readme_section("all exported from `invarr`:", "All counting")
    for name in re.findall(r"`(\w+)", entry_points):
        assert MATH.fullmatch(name) or name in invarr.__all__, name


def test_api_census_names_exactly_the_exports():
    table = _readme_section("## API census", "\n## ")
    names = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(invarr.__all__)
