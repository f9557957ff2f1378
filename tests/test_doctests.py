"""Run every docstring example; they double as frozen regression values."""

import doctest

import pytest

import invarr.arrangement
import invarr.columns
import invarr.orders
import invarr.perm
import invarr.qpoly
import invarr.rook
import invarr.verify

MODULES = [
    invarr.arrangement,
    invarr.columns,
    invarr.orders,
    invarr.perm,
    invarr.qpoly,
    invarr.rook,
    invarr.verify,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
