"""Unit tests for the exact q-polynomial arithmetic."""

import numpy as np
import pytest

from invarr.qpoly import INT64_MAX, QPolynomial, checked_int64


def test_q_integer_values():
    assert QPolynomial.q_integer(0).coeffs == (0,)
    assert QPolynomial.q_integer(1).coeffs == (1,)
    assert QPolynomial.q_integer(4).coeffs == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        QPolynomial.q_integer(-1)


def test_normalization_strips_trailing_zeros():
    assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPolynomial(()).coeffs == (0,)
    assert QPolynomial((0, 0, 0)).coeffs == (0,)


def test_degree_and_zero():
    assert QPolynomial((1,)).degree == 0
    assert QPolynomial((1, 1, 3)).degree == 2
    zero = QPolynomial((0,))
    assert zero.is_zero()
    assert zero.degree == 0
    assert not QPolynomial.one().is_zero()


def test_multiplication():
    a = QPolynomial.q_integer(2)
    b = QPolynomial.q_integer(3)
    assert (a * b).coeffs == (1, 2, 2, 1)
    assert (a * b) == (b * a)
    assert (a * QPolynomial.one()) == a
    assert (a * QPolynomial((0,))).is_zero()


def test_evaluation_is_horner_exact():
    p = QPolynomial((1, 2, 2, 1))
    assert p(1) == 6
    assert p(2) == 1 + 4 + 8 + 8
    assert p(0) == 1
    # value at 1 is always the coefficient sum
    for coeffs in [(1,), (1, 5, 0, 2), (3, 3, 3)]:
        assert QPolynomial(coeffs)(1) == sum(coeffs)


def test_negative_coefficient_rejected():
    with pytest.raises(ValueError, match="negative coefficient"):
        QPolynomial((1, -2))


def test_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        QPolynomial((1.5,))
    with pytest.raises(TypeError):
        QPolynomial(("1",))
    p = QPolynomial(tuple(np.array([1, 2], dtype=np.uint16)))
    assert p.coeffs == (1, 2) and type(p.coeffs[0]) is int


def test_overflow_checked_everywhere():
    assert checked_int64(INT64_MAX) == INT64_MAX
    with pytest.raises(OverflowError):
        checked_int64(INT64_MAX + 1)
    with pytest.raises(OverflowError):
        QPolynomial((INT64_MAX + 1,))
    big = QPolynomial((INT64_MAX // 2 + 1,))
    with pytest.raises(OverflowError):
        big * QPolynomial((2,))


def test_str_forms():
    assert str(QPolynomial((0,))) == "0"
    assert str(QPolynomial((1,))) == "1"
    assert str(QPolynomial((1, 1))) == "1 + q"
    assert str(QPolynomial((1, 2, 1))) == "1 + 2q + q^2"
    assert str(QPolynomial((0, 0, 3))) == "3q^2"
    assert str(QPolynomial((2, 0, 1))) == "2 + q^2"


def test_equality_and_hash_follow_normal_form():
    assert QPolynomial((1, 2, 0)) == QPolynomial((1, 2))
    assert hash(QPolynomial((1, 2, 0))) == hash(QPolynomial((1, 2)))
    assert QPolynomial((1, 2)) != QPolynomial((2, 1))


def test_to_list_copies():
    p = QPolynomial((1, 2))
    out = p.to_list()
    assert out == [1, 2]
    out.append(99)
    assert p.coeffs == (1, 2)
