import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda2.ring import Scalar, ScalarFraction

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


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-3, 3))
def test_monomial_exponent_arithmetic(e1, e2, e3):
    m = Scalar.var("s", e1) * Scalar.var("s", e2)
    assert m == Scalar.var("s", e1 + e2)
    if e3:
        assert Scalar.var("lam", e3).monomial_inverse() == Scalar.var("lam", -e3)


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
    assert expr.degree_of("lam") == 2
