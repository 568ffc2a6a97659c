import random
from fractions import Fraction

import pytest

from toda2.ring import (PACK_LIMIT, Scalar, ScalarFraction, pack_power, unpack_key, var_index,
                        var_key)
from toda2.weyl import Lattice, WeylOp, decode_key

s = Scalar.var("s")
lam = Scalar.var("lam")
lam1 = Scalar.var("lam1")
lam2 = Scalar.var("lam2")
d2 = Scalar.var("d2")


def rand_scalar(rng, nvars=3, nterms=4, span=3):
    names = ["s", "lam", "d1", "d2", "mu"][:nvars]
    total = Scalar.zero()
    for _ in range(rng.randint(1, nterms)):
        powers = {n: rng.randint(-span, span) for n in rng.sample(names, rng.randint(0, nvars))}
        total = total + Scalar.monomial(powers, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return total


def test_difference_of_squares():
    assert (s + 1) * (s - 1) == s ** 2 - 1


def test_additive_inverse_empties_term_map():
    out = s ** 2 + (-(s ** 2))
    assert out.is_zero()
    assert out.terms == {}


def test_associativity_on_denominator_product():
    # both groupings of (lam2 - lam1)(lam2 q^2 - lam1) agree
    a = lam2 - lam1
    b = lam2 * s ** 4 - lam1
    c = lam2 * s ** 4 - lam1
    assert (a * b) * c == a * (b * c)


def test_associativity_oracle_random_triples():
    rng = random.Random(20260810)
    for _ in range(30):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_commutativity_random():
    rng = random.Random(7)
    for _ in range(20):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert a * b == b * a
        assert a + b == b + a


def test_monomial_exponent_arithmetic():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-3, 3))
    def check(e1, e2, e3):
        m = Scalar.var("s", e1) * Scalar.var("s", e2)
        assert m == Scalar.var("s", e1 + e2)
        if e3:
            assert Scalar.var("lam", e3).monomial_inverse() == Scalar.var("lam", -e3)

    check()


def test_substitute_monomial_image():
    # lam -> q^-2 d2^-1 lam sends lam^2 to s^-8 d2^-2 lam^2
    image = Scalar.var("s", -4) * d2.monomial_inverse() * lam
    out = (lam * lam).substitute({"lam": image})
    assert out == Scalar.monomial({"s": -8, "d2": -2, "lam": 2})


def test_substitute_classical_limit():
    assert (s ** 3 - Scalar.var("s", -1)).substitute({"s": 1}).is_zero()


def test_substitute_homomorphism_random_pairs():
    rng = random.Random(99)
    shift = {"s": 1, "lam": Scalar.monomial({"s": -4, "d2": -1, "lam": 1})}
    for _ in range(50):
        a = rand_scalar(rng, nvars=2, span=2)
        b = rand_scalar(rng, nvars=2, span=2)
        assert (a * b).substitute(shift) == a.substitute(shift) * b.substitute(shift)
        assert (a + b).substitute(shift) == a.substitute(shift) + b.substitute(shift)


def test_substitute_rejects_nonmonomial_on_negative_power():
    expr = Scalar.var("lam", -1)
    with pytest.raises(ValueError):
        expr.substitute({"lam": s + 1})


def test_is_zero_cross_multiplication_oracle():
    # (s^2 - 1)/(s - 1) - (s + 1) vanishes as a fraction
    f = ScalarFraction(s ** 2 - 1, s - 1) - ScalarFraction(s + 1)
    assert f.is_zero()
    assert not (s - 1).is_zero()
    assert Scalar.zero().is_zero()


def test_fraction_equality_is_cross_multiplied():
    assert ScalarFraction(s ** 2 - 1, s - 1) == ScalarFraction(s + 1)
    assert ScalarFraction(s, s) == ScalarFraction(Scalar.const(1))


def test_fraction_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        ScalarFraction(s, Scalar.zero())


def test_canonical_text_round_trip():
    rng = random.Random(13)
    for _ in range(25):
        a = rand_scalar(rng)
        assert Scalar.from_text(a.to_text()) == a
    assert Scalar.from_text("0").is_zero()


def test_text_is_deterministic():
    a = s ** 2 - Scalar.var("lam") * 3 + Scalar.const(Fraction(1, 2))
    assert a.to_text() == a.to_text()
    b = Scalar.const(Fraction(1, 2)) - Scalar.var("lam") * 3 + s ** 2
    assert a.to_text() == b.to_text()


def test_coeff_of_extraction():
    expr = lam * lam * s + lam * d2 + Scalar.const(4)
    assert expr.coeff_of("lam", 2) == s
    assert expr.coeff_of("lam", 1) == d2
    assert expr.coeff_of("lam", 0) == Scalar.const(4)
    # nothing beyond lam^2
    assert expr == sum((expr.coeff_of("lam", p) * lam ** p for p in range(3)), Scalar.zero())


def _canonical(x: Scalar) -> bool:
    """Every coefficient with denominator 1 is stored as an ``int``."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in x.terms.values())


def test_coefficients_that_cancel_to_integers_are_stored_as_int():
    x, y = Scalar.var("x"), Scalar.var("y")
    half, third = Scalar.const(Fraction(1, 2)), Scalar.const(Fraction(1, 3))
    whole = x * half * 2                                # 1/2 * 2 -> 1
    summed = (third + Scalar.const(Fraction(2, 3))) * y  # 1/3 + 2/3 -> 1
    mixed = x * half + y * third                        # and back to fractions
    results = [
        whole, summed, mixed, mixed * 6, mixed + x * half, mixed - y * third,
        (x * half + x * half) ** 2, (x * Fraction(2, 3)) ** -1,
        (x * half * y).substitute({"x": Scalar.monomial({"y": -1}, 2)}),
        (x * half * y + x * half * y).coeff_of("y", 1),
        Scalar.monomial({"x": 1, "y": -2}, Fraction(6, 3)),
        Scalar.monomial({"x": 1}, Fraction(-4, 2)).monomial_inverse(),
        Scalar.from_text("4/2*x + 1/2*y"),
    ]
    assert whole == x and summed == y
    for r in results:
        assert _canonical(r), r.terms
    assert any(type(c) is Fraction for c in mixed.terms.values())
    assert all(type(c) is int for c in (mixed * 6).terms.values())
    # a Weyl sum adds its coefficients through Scalar addition
    lat = Lattice(2, True)
    u, v = WeylOp.generator(lat, 1, "U"), WeylOp.generator(lat, 2, "V")
    op = u * (x * Fraction(1, 6)) + v * half + u * (x * Fraction(5, 6)) + v * third
    assert op == u * x + v * Scalar.const(Fraction(5, 6))
    for c in op.terms.values():  # 1/6 + 5/6 is stored as the int 1
        assert _canonical(c), c.terms


def test_integral_fraction_constant_equals_int_constant():
    a, b = Scalar.const(Fraction(4, 2)), Scalar.const(2)
    assert a == b and hash(a) == hash(b) and a.to_text() == b.to_text() == "2"
    assert a.terms == {0: 2} and type(a.terms[0]) is int


@pytest.mark.parametrize("build", [
    lambda: Scalar.const(0.1),
    lambda: Scalar.const("1/2"),
    lambda: Scalar.var("x") * 0.5,
    lambda: Scalar.monomial({"x": 2}, 1.0),
    lambda: ScalarFraction(0.5),
    lambda: ScalarFraction(s, 0.5),
    lambda: Scalar({(): 0.5}),
    lambda: Scalar.var("x", 0.5),
    lambda: Scalar.var("x", Fraction(1, 2)),
    lambda: Scalar.monomial({"x": 1.5}),
    lambda: Scalar.monomial({"x": 2, "y": 1.0}),
    lambda: Scalar({(): 0.0}),
    lambda: Scalar.monomial({"x": 0.0}),
    lambda: WeylOp.word(Lattice(2, False), [(1, "U", 1.5)]),
    lambda: WeylOp.word(Lattice(2, False), [(1, "U", "1/2")]),
    lambda: WeylOp.generator(Lattice(2, False), 1, "V", 0.5),
])
def test_floats_and_strings_are_rejected_at_the_ring_boundary(build):
    with pytest.raises(TypeError):
        build()


def test_shift_equals_product_with_one_monomial():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def laurent_and_key(draw):
        """A small Laurent polynomial in s, lam, and a key that may cancel a term."""
        poly = Scalar.zero()
        for _ in range(draw(st.integers(0, 4))):
            powers = {"s": draw(st.integers(-2, 2)), "lam": draw(st.integers(-2, 2))}
            poly = poly + Scalar.monomial(powers, Fraction(draw(st.integers(-4, 4)),
                                                           draw(st.integers(1, 3))))
        if poly.terms and draw(st.booleans()):
            # the inverse of one of its keys: that term lands on the constant monomial
            key = -draw(st.sampled_from(sorted(poly.terms)))
        else:
            key = next(iter(Scalar.monomial({"s": draw(st.integers(-3, 3)),
                                             "lam": draw(st.integers(-3, 3))}).terms))
        return poly, key

    @settings(max_examples=80, deadline=None)
    @given(laurent_and_key())
    def check(pk):
        poly, key = pk
        shifted = poly.shift(key)
        # the general product it replaces
        assert shifted == poly * Scalar({key: 1})
        assert _canonical(shifted)

    check()


def test_unit_denominators_are_reused_against_the_general_formulas():
    f, g = ScalarFraction(s, s + 1), ScalarFraction(lam)  # g has the unit denominator
    for a, b in ((f, g), (g, f), (g, g)):
        prod, quot = a * b, a / b
        # the formulas without the unit-denominator shortcut, term for term
        assert (prod.num.terms, prod.den.terms) == ((a.num * b.num).terms,
                                                    (a.den * b.den).terms)
        assert (quot.num.terms, quot.den.terms) == ((a.num * b.den).terms,
                                                    (a.den * b.num).terms)
    assert (f * g).den is f.den and (g * f).den is f.den and (lam * f).den is f.den
    assert (g / f).den is f.num and (f / g).num is f.num


def test_a_zero_numerator_adds_without_expanding_its_missing_factors(monkeypatch):
    from toda2 import ring
    x = ScalarFraction(s, s + 1) * ScalarFraction(1, s - 1)
    z = ScalarFraction(lam, lam + 1) * ScalarFraction(1, s - 1) * 0
    z2 = ScalarFraction(lam, lam - 1) * 0
    assert z.is_zero() and z2.is_zero() and z.factors != x.factors
    cases = [(x, z), (z, x), (x, -z), (z, -x), (z, z2), (z2, z)]

    def formula(a, b):
        """The sum over the lcm, each numerator times its missing factors."""
        factors = ring._lcm(a.factors, b.factors)
        return (ring._product(a.num, ring._expand(ring._missing(factors, a.factors)))
                + ring._product(b.num, ring._expand(ring._missing(factors, b.factors))),
                factors)

    expected = [formula(a, b) for a, b in cases]
    expansions = []
    expand = ring._expand
    monkeypatch.setattr(ring, "_expand", lambda m: expansions.append(m) or expand(m))
    sums = [a + b for a, b in cases]
    # only the nonzero side's missing factors are expanded
    assert [len(m) for m in expansions] == [1, 1, 1, 1]
    monkeypatch.setattr(ring, "_expand", expand)
    for out, (num, factors) in zip(sums, expected):
        assert out.num == num
        assert list(out.factors.items()) == list(factors.items())
        assert out.to_text() == ScalarFraction._of(num, factors).to_text()


# -- packed monomial keys ------------------------------------------------------------


def _pack(key: tuple) -> int:
    """The packed key of ``(var_index, exponent)`` pairs."""
    return sum(pack_power(v, e) for v, e in key)


@pytest.mark.parametrize("key", [
    (),
    ((0, -1),),
    ((0, 3), (1, -2), (2, 1)),
    ((3, -7), (51, 2), (60, -1)),                       # indices above 50
    ((4, PACK_LIMIT - 1), (5, -(PACK_LIMIT - 1)), (6, -1)),  # the digit extremes
])
def test_pack_then_unpack_is_the_identity(key):
    assert unpack_key(_pack(key)) == key


def test_packed_sum_is_the_monomial_product():
    k1, k2 = ((0, 2), (7, -3), (52, 1)), ((0, -2), (7, -1), (53, 4))
    assert unpack_key(_pack(k1) + _pack(k2)) == ((7, -4), (52, 1), (53, 4))
    # three digits at the bound's edge, summed as a Weyl product sums them,
    # stay inside their own variable
    edge = ((1, -(PACK_LIMIT - 1)), (2, PACK_LIMIT - 1))
    three = 3 * _pack(edge)
    assert unpack_key(three) == ((1, -3 * (PACK_LIMIT - 1)), (2, 3 * (PACK_LIMIT - 1)))


def test_keys_are_packed_monomials():
    x = Scalar.monomial({"x": 3, "y": -2}, 5)
    (key, c), = x.terms.items()
    assert dict(unpack_key(key)) == {var_index("x"): 3, var_index("y"): -2} and c == 5
    assert x.exp_bound == 3
    assert Scalar.const(7).terms == {0: 7}
    assert x.monomial_inverse().terms == {-key: Fraction(1, 5)}


def test_exponents_outside_the_packed_range_raise():
    with pytest.raises(OverflowError):
        pack_power(0, PACK_LIMIT)
    with pytest.raises(OverflowError):
        pack_power(0, -PACK_LIMIT)
    with pytest.raises(OverflowError):
        Scalar.var("lam", PACK_LIMIT)
    with pytest.raises(OverflowError):
        Scalar.monomial({"lam": 1, "mu": -PACK_LIMIT})
    # just inside the bound a square is exact, with no carry into the next variable
    assert Scalar.var("lam", 2 ** 28 - 1) ** 2 == Scalar.var("lam", 2 ** 29 - 2)
    lat = Lattice(2, False)
    big = WeylOp.scalar(Scalar.var("lam", 2 ** 28 - 1), lat)
    assert {decode_key(k): c for k, c in (big * big).terms.items()} \
        == {(): Scalar.var("lam", 2 ** 29 - 2)}


def _squares(x: Scalar) -> list[Scalar]:
    """``x``, ``x**2``, ``x**4``, ...: every square that ``*`` returns before it
    raises, which it must do within four squarings."""
    out = [x]
    with pytest.raises(OverflowError):
        for _ in range(4):
            out.append(out[-1] * out[-1])
    return out


def test_the_exponent_guard_raises_before_any_carry():
    # x^(2**27) squares to x^(2**28); the next square would store 2**29
    assert _squares(Scalar.var("x", 2 ** 27)) == [Scalar.var("x", 2 ** 27),
                                                  Scalar.var("x", 2 ** 28)]
    y = Scalar.var("x", -2 ** 27)
    assert _squares(y + 1) == [y + 1, Scalar.var("x", -2 ** 28) + 2 * y + 1]
    x28 = Scalar.var("x", 2 ** 28)
    with pytest.raises(OverflowError):
        x28.shift(var_key("x", 2 ** 28))
    with pytest.raises(OverflowError):
        Scalar.var("x", -2 ** 28).shift(var_key("x", -2 ** 28))
    assert x28.shift(var_key("x", 2 ** 28 - 1)) == Scalar.var("x", 2 ** 29 - 1)
    with pytest.raises(OverflowError):
        (x28 * Scalar.var("y") * 3).substitute({"y": x28})
    assert (x28 * Scalar.var("y")).substitute({"y": Scalar.var("x", 2 ** 28 - 1)}) \
        == Scalar.var("x", 2 ** 29 - 1)


def test_the_weyl_kernel_and_poly_bracket_raise_before_any_carry(monkeypatch):
    from toda2 import poisson, ring
    from toda2.poisson import make_chart
    lat = Lattice(2, False)
    # a coefficient exponent: lam^(2**28) squared
    lam28 = WeylOp.scalar(Scalar.var("lam", 2 ** 28), lat)
    with pytest.raises(OverflowError):
        _ = lam28 * lam28
    with pytest.raises(OverflowError):
        _ = lam28 * Scalar.var("lam", 2 ** 28)
    # a reordering phase of s^(2**30) on its own
    with pytest.raises(OverflowError):
        _ = WeylOp.generator(lat, 1, "U", 2 ** 14) * WeylOp.generator(lat, 1, "V", 2 ** 14)
    # a phase of s^(2**28) on a coefficient s^(2**28): each alone is in range
    u = WeylOp.word(lat, [(1, "U", 2 ** 13)], coeff=Scalar.var("s", 2 ** 28))
    v = WeylOp.generator(lat, 1, "V", 2 ** 13)
    assert v * u == WeylOp.word(lat, [(1, "V", 2 ** 13), (1, "U", 2 ** 13)],
                                coeff=Scalar.var("s", 2 ** 28))
    with pytest.raises(OverflowError):
        _ = u * v
    # {Q1^(2**28), Q1^(2**28) P1} holds Q1^(2**29)
    chart = make_chart("qp", 3, periodic=True)
    q28 = Scalar.var("Q1", 2 ** 28)
    assert chart.poly_bracket(q28, Scalar.monomial({"Q1": 2 ** 28 - 4, "P1": 1})) \
        == Scalar.monomial({"Q1": 2 ** 29 - 4, "P1": 1}, -2 ** 29)
    with pytest.raises(OverflowError):
        chart.poly_bracket(q28, q28 * Scalar.var("P1"))
    # a fraction's gradient numerators b d_i a - a d_i b sum the exponents of
    # its numerator and denominator: that of Q1^e / (Q1^(e + 4) + P1) in Q1
    # holds -4 Q1^(2e + 3), outside the packed range at e = 2**28
    p1, p2 = Scalar.var("P1"), ScalarFraction(Scalar.var("P2"))
    low, high = (ScalarFraction(Scalar.var("Q1", e), Scalar.var("Q1", e + 4) + p1)
                 for e in (2 ** 27, 2 ** 28))
    assert not chart.bracket(low, p2).is_zero()
    calls = []
    with monkeypatch.context() as m:
        for module in (ring, poisson):
            m.setattr(module, "accumulate", lambda *args: calls.append(args))
        with pytest.raises(OverflowError):
            chart.bracket(high, p2)
        with pytest.raises(OverflowError):
            chart.bracket(p2, high)
    assert calls == []
