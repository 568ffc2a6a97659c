"""Dense small-matrix algebra over exact ring entries.

Entries may be Scalars, ScalarFractions or Weyl operators; any type with the
ring operators, ``is_zero`` and ``zero_like`` works.  Matrices over different
entry rings multiply directly: a c-number matrix times an operator matrix (on
either side) promotes entrywise through the operand's reflected operators, so
no caller lifts its scalar entries first.  Over Weyl operators each entry of
a product is one :meth:`~toda2.weyl.WeylOp.dot` of its nonzero pairs, and
:func:`product_difference` certifies ``a·b − c·d`` the same way, entry by
entry, so neither product is built.  A matrix is just its entries and
carries no denominator: structure matrices with rational spectral dependence
come cleared, and each identity using them is checked as a polynomial one.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

from .ring import Scalar, ScalarFraction
from .weyl import WeylOp

__all__ = ["OpMatrix", "product_difference", "embed"]


class OpMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int, one) -> "OpMatrix":
        zero = one.zero_like()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        return self.mul(other)

    def mul(self, other: "OpMatrix") -> "OpMatrix":
        _check_product(self, other)
        zero = _product_zero(self, other)
        return OpMatrix([[_dot(_pairs(self, other, i, j), zero) for j in range(other.cols)]
                         for i in range(self.rows)])

    def add(self, other: "OpMatrix") -> "OpMatrix":
        self._same_shape(other)
        return OpMatrix([[x + y for x, y in zip(ra, rb)]
                         for ra, rb in zip(self.entries, other.entries)])

    def sub(self, other: "OpMatrix") -> "OpMatrix":
        self._same_shape(other)
        return OpMatrix([[x - y for x, y in zip(ra, rb)]
                         for ra, rb in zip(self.entries, other.entries)])

    def _same_shape(self, other: "OpMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def neg(self) -> "OpMatrix":
        return OpMatrix([[-x for x in row] for row in self.entries])

    def scale(self, c) -> "OpMatrix":
        return OpMatrix([[c * x for x in row] for row in self.entries])

    def map(self, fn: Callable) -> "OpMatrix":
        return OpMatrix([[fn(x) for x in row] for row in self.entries])

    # -- reductions ----------------------------------------------------------

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        total = self.entries[0][0]
        for i in range(1, self.rows):
            total = total + self.entries[i][i]
        return total

    def det(self):
        """Exact determinant by cofactor expansion; commutative entries only."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if any(isinstance(x, WeylOp) for row in self.entries for x in row):
            raise TypeError("determinant requires commutative entries")
        return _det(self.entries)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def nonzero_entries(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.rows) for j in range(self.cols)
                if not self.entries[i][j].is_zero()]

    # -- structure maps -------------------------------------------------------

    def partial_transpose(self, leg: int) -> "OpMatrix":
        """Transpose one tensor leg of a 4x4 two-leg matrix."""
        if (self.rows, self.cols) != (4, 4):
            raise ValueError("partial transpose expects a 4x4 matrix")
        out = [[None] * 4 for _ in range(4)]
        for r in range(4):
            a, b = divmod(r, 2)
            for c in range(4):
                cc, d = divmod(c, 2)
                if leg == 1:
                    out[2 * cc + b][2 * a + d] = self.entries[r][c]
                elif leg == 2:
                    out[2 * a + d][2 * cc + b] = self.entries[r][c]
                else:
                    raise ValueError("leg must be 1 or 2")
        return OpMatrix(out)

    def inverse_comm(self) -> "OpMatrix":
        """Adjugate/determinant inverse over the fraction field."""
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        entries = [[_as_fraction(x) for x in row] for row in self.entries]
        d = _det(entries)
        if d.is_zero():
            raise ZeroDivisionError("singular matrix")
        adj = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [[entries[r][c] for c in range(n) if c != j]
                         for r in range(n) if r != i]
                cof = _det(minor) if minor else ScalarFraction(1)
                if (i + j) % 2:
                    cof = -cof
                adj[j][i] = cof / d
        return OpMatrix(adj)

    def __repr__(self):
        return f"OpMatrix({self.rows}x{self.cols})"


def product_difference(a: OpMatrix, b: OpMatrix, c: OpMatrix, d: OpMatrix) -> OpMatrix:
    """``a·b − c·d`` without building either product.

    Over Weyl operators each entry is one :meth:`WeylOp.dot` of the pairs of
    both sides, so terms that cancel between the sides never stand apart; the
    smaller factor of each pair of ``c·d`` is the one negated.  Over other
    rings each entry is the fold ``sum(a b) - sum(c d)``, as ``mul`` and
    ``sub`` would compute it.
    """
    _check_product(a, b)
    _check_product(c, d)
    if (a.rows, b.cols) != (c.rows, d.cols):
        raise ValueError("shape mismatch")
    zero = _product_zero(a, b)
    negated: dict[int, object] = {}

    def neg(x):
        # tensor embeddings repeat one entry object, so negate each once
        y = negated.get(id(x))
        if y is None:
            y = negated[id(x)] = -x
        return y

    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            plus, minus = _pairs(a, b, i, j), _pairs(c, d, i, j)
            if any(isinstance(x, WeylOp) for pair in plus + minus for x in pair):
                minus = [(neg(x), y) if len(x.terms) <= len(y.terms) else (x, neg(y))
                         for x, y in minus]
                row.append(WeylOp.dot(plus + minus))
            else:
                row.append(_dot(plus, zero) - _dot(minus, zero))
        out.append(row)
    return OpMatrix(out)


def _check_product(a: OpMatrix, b: OpMatrix) -> None:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")


def _product_zero(a: OpMatrix, b: OpMatrix):
    """The zero of the product ring, without multiplying two real entries."""
    return a.entries[0][0].zero_like() * b.entries[0][0].zero_like()


def _pairs(a: OpMatrix, b: OpMatrix, i: int, j: int) -> list[tuple]:
    """The pairs ``(a_ik, b_kj)`` of entry ``(i, j)`` of ``a·b`` with neither factor zero."""
    return [(x, y) for x, y in zip(a.entries[i], (row[j] for row in b.entries))
            if not x.is_zero() and not y.is_zero()]


def _dot(pairs: list[tuple], zero):
    """``sum(x * y for x, y in pairs)``: one :meth:`WeylOp.dot` over operators,
    a left fold over other rings, and ``zero`` for no pairs."""
    if not pairs:
        return zero
    if any(isinstance(x, WeylOp) for pair in pairs for x in pair):
        return WeylOp.dot(pairs)
    total = None
    for x, y in pairs:
        p = x * y
        total = p if total is None else total + p
    return total


def _as_fraction(x):
    if isinstance(x, Scalar):
        return ScalarFraction(x)
    return x


def _det(entries):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    total = None
    for j in range(n):
        a = entries[0][j]
        if a.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = a * _det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total if total is not None else entries[0][0].zero_like()


def embed(m: OpMatrix, legs: Sequence[int], count: int) -> OpMatrix:
    """``m``, a matrix on ``len(legs)`` equal legs, placed on ``legs`` of
    ``count`` legs as the identity on the others.

    Leg 1 is the leading digit of a basis index, and leg ``legs[i]`` carries
    leg ``i + 1`` of ``m``, so ``embed(m, (2, 1), 2)`` swaps the legs of ``m``.
    Each entry of ``m`` is placed as the object it is and every other entry is
    one shared zero, which a permutation of all ``count`` legs never needs.
    """
    k = len(legs)
    if m.rows != m.cols:
        raise ValueError(f"embed expects a square matrix, not {m.rows}x{m.cols}")
    if not legs or len(set(legs)) != k or not all(1 <= leg <= count for leg in legs):
        raise ValueError(f"legs {tuple(legs)} are not distinct legs of {count}")
    n = round(m.rows ** (1 / k))
    if n < 1 or n ** k != m.rows:
        raise ValueError(f"a {m.rows}x{m.rows} matrix is not on {k} equal legs")
    rest = [leg for leg in range(1, count + 1) if leg not in legs]

    def place(digits, on) -> int:
        return sum(d * n ** (count - leg) for d, leg in zip(digits, on))

    inner = [place(d, legs) for d in product(range(n), repeat=k)]
    zero = m.entries[0][0].zero_like() if rest else None
    out = [[zero] * n ** count for _ in range(n ** count)]
    for base in (place(d, rest) for d in product(range(n), repeat=len(rest))):
        for r, row in zip(inner, m.entries):
            for c, x in zip(inner, row):
                out[base + r][base + c] = x
    return OpMatrix(out)
