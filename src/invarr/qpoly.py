"""Polynomials in q with nonnegative integer coefficients.

Just enough arithmetic for rank generating functions: q-integers
[k] = 1 + q + ... + q^(k-1), products, and evaluation.  Coefficients are
exact Python integers but every stored or computed coefficient must fit
in a signed 64-bit word; anything larger raises OverflowError instead of
silently continuing.

>>> QPolynomial.q_integer(3)
QPolynomial(coeffs=(1, 1, 1))
>>> print(QPolynomial.q_integer(2) * QPolynomial.q_integer(2))
1 + 2q + q^2
>>> (QPolynomial.q_integer(4) * QPolynomial.q_integer(2))(1)
8
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

INT64_MAX = 2**63 - 1


def checked_int64(value: int) -> int:
    """Pass ``value`` through, raising OverflowError above 2^63 - 1."""
    if value > INT64_MAX:
        raise OverflowError(f"value {value} exceeds the signed 64-bit range")
    return value


def column_degrees(column: np.ndarray) -> np.ndarray:
    """The degree of each row of a 2-d coefficient column (0 for a zero row).

    >>> column_degrees(np.array([[1, 2, 0], [0, 0, 0], [0, 0, 5]])).tolist()
    [1, 0, 2]
    """
    nonzero = column != 0
    tops = np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), column.shape[1] - 1 - tops, 0)


@dataclass(frozen=True)
class QPolynomial:
    """Dense coefficient vector; ``coeffs[d]`` is the coefficient of q^d.

    Normalized so the top coefficient is nonzero, except the zero
    polynomial which is stored as ``(0,)``.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(operator.index, self.coeffs))
        if not coeffs:
            coeffs = (0,)
        for c in coeffs:
            if c < 0:
                raise ValueError(f"negative coefficient {c}")
            checked_int64(c)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_column(cls, column: np.ndarray) -> list["QPolynomial"]:
        """One polynomial per row of a 2-d coefficient column.

        The column's dtype is checked once in place of each coefficient:
        it must be unsigned and at most 64 bits wide, and a 64-bit column
        must not exceed 2^63 - 1.

        >>> QPolynomial.from_column(np.array([[1, 2, 0], [0, 0, 0]], dtype=np.uint16))
        [QPolynomial(coeffs=(1, 2)), QPolynomial(coeffs=(0,))]
        """
        if column.dtype.kind != "u" or column.dtype.itemsize > 8 or column.ndim != 2:
            raise TypeError(f"need a 2-d unsigned column of at most 64 bits, got {column.dtype}")
        if column.dtype.itemsize == 8 and column.size:
            checked_int64(int(column.max()))
        lengths = (column_degrees(column) + 1).tolist()
        new, set_coeffs = object.__new__, object.__setattr__
        polys = []
        for row, length in zip(column.tolist(), lengths):
            poly = new(cls)
            set_coeffs(poly, "coeffs", tuple(row[:length]))
            polys.append(poly)
        return polys

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def q_integer(cls, k: int) -> "QPolynomial":
        """[k] = 1 + q + ... + q^(k-1).  [0] is the zero polynomial.

        >>> QPolynomial.q_integer(1)
        QPolynomial(coeffs=(1,))
        >>> QPolynomial.q_integer(0)
        QPolynomial(coeffs=(0,))
        """
        if k < 0:
            raise ValueError("q-integer index must be nonnegative")
        return cls((1,) * k) if k > 0 else cls((0,))

    @property
    def degree(self) -> int:
        """Degree of the top nonzero term; the zero polynomial has degree 0."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPolynomial((0,))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = checked_int64(out[i + j] + a * b)
        return QPolynomial(tuple(out))

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            elif d == 1:
                terms.append("q" if c == 1 else f"{c}q")
            else:
                terms.append(f"q^{d}" if c == 1 else f"{c}q^{d}")
        return " + ".join(terms)
