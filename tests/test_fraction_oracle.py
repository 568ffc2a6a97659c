"""Factored fractions checked against the arithmetic that multiplies denominators out.

``Unreduced`` is a small copy of that arithmetic: a sum over unequal
denominators takes their product, a product or quotient multiplies numerators
and denominators.  Seeded random expression trees, brackets included, run
through it and through :class:`ScalarFraction`, which adds over the lcm of its
factor maps.  Both must give the same value, the factored denominator must be
no larger than the product one, and a fraction's text and residual size must
read the numerator and denominator it holds.
"""

import random
from fractions import Fraction

from toda2.poisson import make_chart
from toda2.reports import residual_size
from toda2.ring import Scalar, ScalarFraction, unpack_key, var_index


def _times(a: Scalar, b: Scalar) -> Scalar:
    return a if b.is_one() else b if a.is_one() else a * b


class Unreduced:
    """The fraction arithmetic that multiplies denominators out."""

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


CHART = make_chart("exlat", 3)
XI = [Scalar.var(name) for name in CHART.gen_names]
W = [XI[2 * n] * XI[2 * n + 3] - XI[2 * n + 1] * XI[2 * n + 2] for n in (0, 1)]  # Wronskians
BINOMIALS = [*W, XI[0] + 2 * XI[5], XI[3] - XI[4]]
MONOMIALS = [XI[1], XI[2] * XI[5], Scalar.var("xi1_2", -1)]
UNIT = [Scalar.const(1)] * 3
# products of members, so that one product also arises as a map of two factors
POOL = UNIT + BINOMIALS + MONOMIALS + [
    W[0] * W[1], W[0] * BINOMIALS[2], BINOMIALS[3] * MONOMIALS[0], W[1] * W[1]]


def _leaf(rng, pool):
    num = Scalar.zero()
    for _ in range(rng.randint(1, 3)):
        powers = {name: rng.randint(0, 1) for name in rng.sample(CHART.gen_names, 2)}
        num = num + Scalar.monomial(powers, rng.choice([-2, -1, 1, 3]))
    den = rng.choice(pool)
    return ScalarFraction(num, den), Unreduced(num, den)


def _tree(rng, depth: int, pool=POOL, ops="+-*/^{"):
    """A random expression as a (ScalarFraction, Unreduced) pair."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng, pool)
    op = rng.choice(ops)
    if op == "{":  # brackets of leaves, whose denominators square
        (x, rx), (y, ry) = _leaf(rng, pool), _leaf(rng, pool)
        return CHART.bracket(x, y), rx.bracket(CHART, ry)
    if op == "^":
        x, rx = _tree(rng, min(depth - 1, 1), pool, ops)
        n = rng.randint(-2 if "/" in ops else 0, 2)  # a negative power divides
        if n < 0 and x.is_zero():
            n = -n
        return x ** n, rx ** n
    x, rx = _tree(rng, depth - 1, pool, ops)
    y, ry = _tree(rng, depth - 1, pool, ops)
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
    assert len(x.den.terms) <= len(ref.den.terms)
    # text and size read the fraction as it is held
    text = x.num.to_text()
    assert x.to_text() == (text if x.den.is_one() else f"({text}) / ({x.den.to_text()})")
    assert residual_size(x) == len(x.num.terms)


def test_factored_fractions_match_the_unreduced_reference():
    rng = random.Random(1992)
    smaller = 0
    for _ in range(250):
        x, ref = _tree(rng, 3)
        _assert_matches(x, ref)
        smaller += len(x.den.terms) < len(ref.den.terms)
    assert smaller  # the lcm is strictly smaller somewhere


def test_monomial_denominators_keep_the_reference_size():
    # with monomial denominators the two forms differ by a monomial factor,
    # so a residual has as many terms as the product form's numerator
    rng = random.Random(2018)
    reduced = 0
    for _ in range(250):
        x, ref = _tree(rng, 3, UNIT + MONOMIALS, "+-*^{")
        _assert_matches(x, ref)
        assert residual_size(x) == len(ref.num.terms)
        reduced += x.den != ref.den
    assert reduced  # the two forms differ somewhere


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
    # W0 W1 as two factors and as one: factors match by equality only, so the
    # sum is over the lcm of the maps, W0 W1 (W0 W1), larger than the product
    # form's W0 W1.  This is the one pair where _assert_matches' size bound
    # does not hold; the value and the text still do.
    f = ScalarFraction(XI[0], W[0]) / ScalarFraction(W[1])
    g = ScalarFraction(XI[3], W[0] * W[1])
    rf = Unreduced(XI[0], W[0]) / Unreduced(W[1])
    rg = Unreduced(XI[3], W[0] * W[1])
    assert f.factors == {W[0]: 1, W[1]: 1} and g.factors == {W[0] * W[1]: 1}
    den = W[0] * W[1] * (W[0] * W[1])
    for total, ref in ((f + g, rf + rg), (g - f, rg - rf)):
        assert total.factors == {W[0]: 1, W[1]: 1, W[0] * W[1]: 1}
        assert ref.den == W[0] * W[1] and total.den == den
        assert _at_point(total.num) * _at_point(ref.den) == _at_point(ref.num) * _at_point(den)
        assert total.to_text() == f"({total.num.to_text()}) / ({den.to_text()})"
