"""Differential tests of the coefficient ring against sympy as an oracle.

Small Laurent polynomials in two or three variables with small rational
coefficients are built twice, as :class:`Scalar` and as a sympy expression;
every ring operation must agree with sympy up to ``sympy.cancel``.  The
results are read back through their canonical text, so ``to_text`` is checked
along the way.

Fractions are also checked against a copy of the arithmetic that multiplies
denominators out (``Unreduced``): seeded random expression trees, brackets
included, must give the same value, text and residual size through both,
with a denominator no larger than the product form's.
"""

import random
from fractions import Fraction

import pytest

from toda2.poisson import make_chart
from toda2.reports import residual_size
from toda2.ring import Scalar, ScalarFraction, unpack_key, var_index

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


# -- factored denominators against the product-of-denominators reference ------------


def _times(a: Scalar, b: Scalar) -> Scalar:
    return a if b.is_one() else b if a.is_one() else a * b


class Unreduced:
    """The fraction arithmetic that multiplies denominators out: a sum over
    unequal denominators takes their product, a product or quotient
    multiplies numerators and denominators.  ``ScalarFraction`` reduces over
    the lcm, but its text and residual size must read as this form's."""

    def __init__(self, num: Scalar, den: Scalar = Scalar.const(1)):
        assert not den.is_zero()
        self.num, self.den = num, den

    def __add__(self, o):
        if self.den.terms == o.den.terms:
            return Unreduced(self.num + o.num, self.den)
        return Unreduced(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return Unreduced(-self.num, self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return Unreduced(self.num * o.num, _times(self.den, o.den))

    def __truediv__(self, o):
        return Unreduced(_times(self.num, o.den), _times(self.den, o.num))

    def __pow__(self, n: int):
        if n < 0:
            return Unreduced(self.den, self.num) ** (-n)
        return Unreduced(self.num ** n, self.den ** n)

    def bracket(self, chart, o):
        a, b, c, d = self.num, self.den, o.num, o.den
        pb = chart.poly_bracket
        num = (pb(a, c) * b * d - pb(a, d) * c * b
               - pb(b, c) * a * d + pb(b, d) * a * c)
        return Unreduced(num, b * b * d * d)

    def to_text(self) -> str:
        if self.den.is_one():
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"


CHART = make_chart("exlat", 3)
XI = [Scalar.var(name) for name in CHART.gen_names]
W = [XI[2 * n] * XI[2 * n + 3] - XI[2 * n + 1] * XI[2 * n + 2] for n in (0, 1)]  # Wronskians
BINOMIALS = [*W, XI[0] + 2 * XI[5], XI[3] - XI[4]]
MONOMIALS = [XI[1], XI[2] * XI[5], Scalar.var("xi1_2", -1)]
# products of members, so that one product also arises as a map of two factors
POOL = [Scalar.const(1)] * 3 + BINOMIALS + MONOMIALS + [
    W[0] * W[1], W[0] * BINOMIALS[2], BINOMIALS[3] * MONOMIALS[0], W[1] * W[1]]


def _leaf(rng):
    num = Scalar.zero()
    for _ in range(rng.randint(1, 3)):
        powers = {name: rng.randint(0, 1) for name in rng.sample(CHART.gen_names, 2)}
        num = num + Scalar.monomial(powers, rng.choice([-2, -1, 1, 3]))
    den = rng.choice(POOL)
    return ScalarFraction(num, den), Unreduced(num, den)


def _tree(rng, depth: int):
    """A random expression as a (ScalarFraction, Unreduced) pair."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    op = rng.choice("+-*/^{")
    if op == "{":  # brackets of leaves, whose denominators square
        (x, rx), (y, ry) = _leaf(rng), _leaf(rng)
        return CHART.bracket(x, y), rx.bracket(CHART, ry)
    if op == "^":
        x, rx = _tree(rng, min(depth - 1, 1))
        n = rng.randint(-2, 2)
        if n < 0 and x.is_zero():
            n = -n
        return x ** n, rx ** n
    x, rx = _tree(rng, depth - 1)
    y, ry = _tree(rng, depth - 1)
    if op == "+":
        return x + y, rx + ry
    if op == "-":
        return x - y, rx - ry
    if op == "*":
        return x * y, rx * ry
    if y.is_zero():
        return x, rx
    return x / y, rx / ry


POINT = {var_index(name): Fraction(k, 7)
         for k, name in zip((2, -3, 5, 11, -13, 17), CHART.gen_names)}


def _at_point(x: Scalar) -> Fraction:
    total = Fraction(0)
    for key, c in x.terms.items():
        for v, e in unpack_key(key):
            c *= POINT[v] ** e
        total += c
    return total


def _assert_matches(x: ScalarFraction, ref: Unreduced) -> None:
    # the same value, at a point where no pool denominator vanishes
    assert _at_point(x.num) * _at_point(ref.den) == _at_point(ref.num) * _at_point(x.den)
    assert x.to_text() == ref.to_text()
    assert residual_size(x) == len(ref.num.terms)
    assert len(x.den.terms) <= len(ref.den.terms)


def test_factored_fractions_match_the_unreduced_reference():
    rng = random.Random(1992)
    smaller = 0
    for _ in range(250):
        x, ref = _tree(rng, 3)
        _assert_matches(x, ref)
        smaller += len(x.den.terms) < len(ref.den.terms)
    assert smaller  # the lcm is strictly smaller somewhere


def test_shared_factor_is_added_once_not_squared():
    a, b = XI[0], XI[3]
    f = ScalarFraction(a, W[0]) / ScalarFraction(BINOMIALS[2])  # a / (W0 B2), two factors
    g = ScalarFraction(b, W[0])
    ref = Unreduced(a, W[0]) / Unreduced(BINOMIALS[2]) + Unreduced(b, W[0])
    total = f + g
    assert total.factors == {W[0]: 1, BINOMIALS[2]: 1}
    assert total.den == W[0] * BINOMIALS[2] and ref.den == W[0] * W[0] * BINOMIALS[2]
    _assert_matches(total, ref)


def test_one_product_under_two_maps_adds_as_the_reference():
    # W0 W1 as two factors and as one: the reference sees equal denominators
    f = ScalarFraction(XI[0], W[0]) / ScalarFraction(W[1])
    g = ScalarFraction(XI[3], W[0] * W[1])
    rf = Unreduced(XI[0], W[0]) / Unreduced(W[1])
    rg = Unreduced(XI[3], W[0] * W[1])
    assert f.factors != g.factors and f.den == g.den
    for total, ref in ((f + g, rf + rg), (g - f, rg - rf)):
        assert ref.den == W[0] * W[1]
        _assert_matches(total, ref)
