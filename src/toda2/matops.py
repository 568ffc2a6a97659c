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

from typing import Callable, Sequence

from .ring import Scalar, ScalarFraction
from .weyl import WeylOp

__all__ = ["OpMatrix", "product_difference", "tensor_embed", "swap_two_leg", "embed_two_leg"]


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


def tensor_embed(m: OpMatrix, leg: int) -> OpMatrix:
    """Embed an n x n matrix on one leg of C^n (x) C^n: leg 1 as M (x) id,
    leg 2 as id (x) M (basis index n * a + b for the pair (a, b))."""
    if leg not in (1, 2):
        raise ValueError("leg must be 1 or 2")
    n = m.rows
    if m.cols != n:
        raise ValueError("tensor_embed expects a square matrix")
    zero = m.entries[0][0].zero_like()
    out = [[zero] * n * n for _ in range(n * n)]
    for a in range(n):
        for c in range(n):
            x = m.entries[a][c]
            for b in range(n):
                if leg == 1:
                    out[n * a + b][n * c + b] = x
                else:
                    out[n * b + a][n * b + c] = x
    return OpMatrix(out)


def swap_two_leg(m: OpMatrix, N: int) -> OpMatrix:
    """Exchange the two tensor legs of an N^2 x N^2 matrix."""
    out = [[None] * N * N for _ in range(N * N)]
    for a in range(N):
        for c in range(N):
            for b in range(N):
                for d in range(N):
                    out[c * N + a][d * N + b] = m.entries[a * N + c][b * N + d]
    return OpMatrix(out)


def embed_two_leg(m: OpMatrix, legs: tuple[int, int]) -> OpMatrix:
    """Embed a two-leg 4x4 matrix on ``legs`` of C^2 (x) C^2 (x) C^2, as the
    identity on the third leg (leg 1 is the leading bit of a basis index)."""
    if (m.rows, m.cols) != (4, 4):
        raise ValueError("embed_two_leg expects a 4x4 matrix")
    l1, l2 = legs
    (spare,) = {1, 2, 3} - {l1, l2}

    def index(i: int, x: int) -> int:
        # basis index of m's index i = (bit on l1, bit on l2) and bit x on the spare leg
        bits = {l1: i >> 1, l2: i & 1, spare: x}
        return 4 * bits[1] + 2 * bits[2] + bits[3]

    zero = m.entries[0][0].zero_like()
    out = [[zero] * 8 for _ in range(8)]
    for i in range(4):
        for j in range(4):
            for x in (0, 1):
                out[index(i, x)][index(j, x)] = m.entries[i][j]
    return OpMatrix(out)
