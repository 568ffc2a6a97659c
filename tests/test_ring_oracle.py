"""Differential tests of the coefficient ring against sympy as an oracle.

Small Laurent polynomials in two or three variables with small rational
coefficients are built twice, as :class:`Scalar` and as a sympy expression;
every ring operation must agree with sympy up to ``sympy.cancel``.  The
results are read back through their canonical text, so ``to_text`` is checked
along the way.  ``tests/test_fraction_oracle.py`` checks fractions against the
product-of-denominators arithmetic without either package.
"""

from fractions import Fraction

import pytest

from toda2.ring import Scalar, ScalarFraction

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

NAMES = ("s", "lam", "mu")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}
# sympy.cancel dominates the cost; these bounds keep the file near 3 s
ORACLE = settings(max_examples=30, deadline=None)
FIELD_ORACLE = settings(max_examples=15, deadline=None)


@st.composite
def laurent(draw, max_terms=4):
    """A Scalar and the same polynomial as a sympy expression."""
    names = NAMES[:draw(st.integers(2, 3))]
    scalar, expr = Scalar.zero(), sympy.Integer(0)
    for _ in range(draw(st.integers(0, max_terms))):
        powers = {n: draw(st.integers(-2, 2)) for n in names}
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        scalar = scalar + Scalar.monomial(powers, coeff)
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for n, e in powers.items():
            term *= SYMBOLS[n] ** e
        expr += term
    return scalar, expr


@st.composite
def fraction(draw):
    """A ScalarFraction with a nonzero denominator and its sympy quotient.

    One in three has the unit denominator, the common case in the checks,
    where products and quotients reuse the other operand's denominator.
    """
    num, num_expr = draw(laurent(3))
    if draw(st.integers(0, 2)) == 0:
        return ScalarFraction(num), num_expr
    den, den_expr = draw(laurent(2))
    assume(not den.is_zero())
    return ScalarFraction(num, den), num_expr / den_expr


def as_sympy(x) -> "sympy.Expr":
    return sympy.sympify(x.to_text().replace("^", "**"), locals=SYMBOLS)


def agrees(x, expr) -> bool:
    return sympy.cancel(as_sympy(x) - expr) == 0


def canonical(x) -> bool:
    """Every coefficient with denominator 1 is stored as an ``int``."""
    parts = (x.num, x.den) if isinstance(x, ScalarFraction) else (x,)
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for p in parts for c in p.terms.values())


@ORACLE
@given(laurent(), laurent())
def test_scalar_ring_matches_sympy(a, b):
    (x, ex), (y, ey) = a, b
    assert agrees(x + y, ex + ey)
    assert agrees(x - y, ex - ey)
    assert agrees(x * y, ex * ey)
    assert all(canonical(r) for r in (x, y, x + y, x - y, x * y))


@ORACLE
@given(laurent(), laurent())
def test_integral_coefficients_round_trip_through_fractions(a, b):
    # scaled by 12 every coefficient is integral; scaled back, the fractions
    # return, and text and equality do not see which form a term was built in
    (x, ex), (y, _) = a, b
    whole = x * 12
    assert all(type(c) is int for c in whole.terms.values())
    back = whole * Fraction(1, 12)
    assert back == x and back.to_text() == x.to_text() and canonical(back)
    assert agrees(back + y - y, ex)
    assert canonical(x * Fraction(1, 3) + x * Fraction(2, 3))


@FIELD_ORACLE
@given(fraction(), fraction())
def test_fraction_field_matches_sympy(a, b):
    (x, ex), (y, ey) = a, b
    assert agrees(x + y, ex + ey)
    assert agrees(x - y, ex - ey)
    assert agrees(x * y, ex * ey)
    if not y.is_zero():
        assert agrees(x / y, ex / ey)
        assert canonical(x / y)
    assert all(canonical(r) for r in (x + y, x - y, x * y))


@FIELD_ORACLE
@given(fraction(), st.integers(-2, 3))
def test_fraction_powers_match_sympy(a, n):
    x, ex = a
    assume(n >= 0 or not x.is_zero())
    assert agrees(x ** n, ex ** n)
    assert canonical(x ** n)


def test_zero_fraction_has_no_inverse():
    for zero in (ScalarFraction(Scalar.zero()), ScalarFraction(0)):
        with pytest.raises(ZeroDivisionError):
            zero ** -1
