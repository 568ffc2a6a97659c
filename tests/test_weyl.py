import random
from fractions import Fraction

import pytest

from toda2.ring import Scalar, unpack_key, var_key
from toda2.weyl import Lattice, TermCapExceeded, WeylOp, _key_merge
import toda2.weyl as weyl_mod

LAT = Lattice(5, False)
PER = Lattice(4, True)


def gen(site, kind, power=1, lat=LAT):
    return WeylOp.generator(lat, site, kind, power)


def spow(k):
    return Scalar.var("s", k)


# -- an independent normal-ordering oracle ---------------------------------------
# represent a word as explicit factors and reorder by adjacent exchanges,
# never using the library's merge rule


def naive_normal_order(factors, lat=LAT):
    """factors: list of (site, 'U'|'V', doubled_power); returns (s_exp, key)."""
    work = []
    for site, kind, d in factors:
        n = lat.site(site)
        for _ in range(abs(d)):
            work.append((n, kind, 1 if d > 0 else -1))  # quarter steps of 1/2
    s_exp = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            (n1, k1, e1), (n2, k2, e2) = work[i], work[i + 1]
            out_of_order = (n1 > n2) or (n1 == n2 and k1 == "U" and k2 == "V")
            if out_of_order:
                if n1 == n2:
                    # U^(e1/2) V^(e2/2) = q^(2 * e1/2 * e2/2) V U = s^(e1 e2) V U
                    s_exp += e1 * e2
                work[i], work[i + 1] = work[i + 1], work[i]
                changed = True
    key = {}
    for n, k, e in work:
        a, b = key.get(n, (0, 0))
        key[n] = (a + e, b) if k == "V" else (a, b + e)
    tup = tuple((n, a, b) for n, (a, b) in sorted(key.items()) if a or b)
    return s_exp, tup


def word_of(factors, lat=LAT):
    return WeylOp.word(lat, [(n, k, Fraction(d, 2)) for n, k, d in factors])


def test_same_site_reorder_picks_up_q_squared():
    out = gen(1, "U") * gen(1, "V")
    assert out == WeylOp.word(LAT, [(1, "V", 1), (1, "U", 1)], coeff=spow(4))


def test_already_ordered_and_cross_site():
    assert gen(1, "V") * gen(1, "U") == WeylOp.word(LAT, [(1, "V", 1), (1, "U", 1)])
    out = gen(1, "U") * gen(2, "V")
    assert out == WeylOp.word(LAT, [(2, "V", 1), (1, "U", 1)])


def test_half_power_reorder_quarter_step_oracle():
    h = Fraction(1, 2)
    out = gen(1, "U", h) * gen(1, "V", h)
    s_exp, key = naive_normal_order([(1, "U", 1), (1, "V", 1)])
    assert s_exp == 1
    assert out == WeylOp(LAT, {key: spow(s_exp)})


def test_word_against_naive_oracle_random():
    rng = random.Random(42)
    for _ in range(40):
        factors = [(rng.randint(1, 4), rng.choice("UV"), rng.choice([-2, -1, 1, 2]))
                   for _ in range(rng.randint(1, 5))]
        s_exp, key = naive_normal_order(factors)
        expect = WeylOp(LAT, {key: spow(s_exp)}) if key or True else None
        assert word_of(factors) == expect


def test_mul_associative_random_triples():
    rng = random.Random(2024)
    def rand_op():
        total = WeylOp.zero(LAT)
        for _ in range(rng.randint(1, 3)):
            factors = [(rng.randint(1, 4), rng.choice("UV"), rng.choice([-1, 1, 2]))
                       for _ in range(rng.randint(1, 3))]
            total = total + word_of([(n, k, 2 * d) for n, k, d in factors]) * \
                Scalar.const(rng.randint(-3, 3))
        return total
    for _ in range(25):
        a, b, c = rand_op(), rand_op(), rand_op()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_identity_element():
    a = gen(1, "U") * 2 + gen(3, "V", -1)
    assert a * WeylOp.one(LAT) == a
    assert WeylOp.one(LAT) * a == a


def test_commutator_uv():
    out = gen(1, "U").commutator(gen(1, "V"))
    assert out == WeylOp.word(LAT, [(1, "V", 1), (1, "U", 1)], coeff=spow(4) - 1)


def test_distinct_sites_commute():
    assert gen(1, "V").commutator(gen(2, "V")).is_zero()
    assert gen(1, "U").commutator(gen(4, "V")).is_zero()


def test_disjoint_support_commutes_on_open_chain():
    from toda2.quantum import op_P, op_Q2
    for n, m in [(1, 3), (1, 4), (2, 4)]:
        assert op_Q2(LAT, n).commutator(op_P(LAT, m)).is_zero()


def test_normal_order_idempotent():
    a = gen(2, "U", Fraction(3, 2)) * gen(2, "V", -1) * 5 + gen(1, "V")
    rebuilt = WeylOp(LAT, dict(a.terms))
    assert rebuilt == a
    for key, coeff in a.terms.items():
        factors = []
        for site, a2, b2 in key:
            if a2:
                factors.append((site, "V", Fraction(a2, 2)))
            if b2:
                factors.append((site, "U", Fraction(b2, 2)))
        assert WeylOp.word(LAT, factors, coeff=coeff).terms == {key: coeff}


def test_half_integer_closure_integer_s_powers():
    rng = random.Random(5)
    for _ in range(20):
        h = lambda: Fraction(rng.choice([-3, -1, 1, 3]), 2)
        a = WeylOp.word(LAT, [(rng.randint(1, 4), rng.choice("UV"), h()) for _ in range(3)])
        b = WeylOp.word(LAT, [(rng.randint(1, 4), rng.choice("UV"), h()) for _ in range(3)])
        out = a * b
        assert out.terms == reference_product(a, b)
        for coeff in out.terms.values():
            for key in coeff.terms:
                assert type(key) is int
                for v, e in unpack_key(key):
                    assert isinstance(e, int)


def test_periodic_site_reduction():
    a = WeylOp.word(PER, [(5, "U", 1)])
    assert a == WeylOp.word(PER, [(1, "U", 1)])
    with pytest.raises(IndexError):
        WeylOp.word(LAT, [(6, "U", 1)])


def test_lattice_mismatch_rejected():
    with pytest.raises(ValueError):
        _ = gen(1, "U") * WeylOp.one(PER)


def test_non_half_integer_power_rejected():
    with pytest.raises(ValueError):
        WeylOp.word(LAT, [(1, "U", Fraction(1, 3))])


def test_conjugation_scalars():
    assert gen(1, "U").conjugate_v() == gen(1, "U") * Scalar.var("d2", -1)
    assert gen(1, "V").conjugate_v() == gen(1, "V") * Scalar.var("d2", 1)
    c = WeylOp.scalar(spow(2) + 3, LAT)
    assert c.conjugate_v() == c


def test_conjugation_is_automorphism_random():
    rng = random.Random(31)
    def rand_op():
        total = WeylOp.zero(LAT)
        for _ in range(rng.randint(1, 3)):
            factors = [(rng.randint(1, 4), rng.choice("UV"), rng.choice([-1, 1]))
                       for _ in range(rng.randint(1, 3))]
            total = total + WeylOp.word(LAT, factors) * Scalar.const(rng.randint(-2, 3))
        return total
    for _ in range(20):
        a, b = rand_op(), rand_op()
        lhs = (a * b).conjugate_v()
        rhs = a.conjugate_v() * b.conjugate_v()
        assert (lhs - rhs).is_zero()


def test_monomial_inverse_two_sided():
    x = WeylOp.word(LAT, [(1, "V", 2), (1, "U", -3), (2, "V", Fraction(1, 2))],
                    coeff=spow(3) * 7)
    assert (x * x.monomial_inverse()) == WeylOp.one(LAT)
    assert (x.monomial_inverse() * x) == WeylOp.one(LAT)
    with pytest.raises(ValueError):
        (gen(1, "U") + gen(1, "V")).monomial_inverse()


def test_term_cap_guard(monkeypatch):
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 3)
    a = gen(1, "U") + gen(2, "U") + gen(3, "U") + gen(4, "U")
    with pytest.raises(TermCapExceeded):
        _ = a * (gen(1, "V") + gen(2, "V") + gen(3, "V") + gen(4, "V"))


def test_support_and_text():
    a = gen(2, "U") * gen(4, "V")
    # U2 V4 is one normal-ordered monomial on sites 2 and 4
    assert list(a.terms) == [((2, 0, 2), (4, 2, 0))]
    assert "U2" in a.to_text() and "V4" in a.to_text()


# -- the fused product kernel against the per-pair fold it replaced ---------------


def reference_product(a, b):
    """``a * b`` the slow way: one Scalar product and one s-shift per term pair."""
    if not isinstance(b, WeylOp):
        b = WeylOp.scalar(b, a.lattice)
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            k, ph = _key_merge(k1, k2)
            out[k] = out.get(k, Scalar.zero()) + (c1 * c2).shift(var_key("s", ph))
    return {k: c for k, c in out.items() if not c.is_zero()}


def rand_coeff(rng):
    """A coefficient of one to three terms in s, lam and mu, some fractional."""
    total = Scalar.zero()
    for _ in range(rng.randint(1, 3)):
        powers = {n: rng.randint(-2, 2) for n in ("s", "lam", "mu")}
        total = total + Scalar.monomial(powers, Fraction(rng.choice([-3, -1, 1, 2]),
                                                         rng.choice([1, 1, 2, 3])))
    return total


def rand_half_word_op(rng, lat=LAT):
    total = WeylOp.zero(lat)
    for _ in range(rng.randint(1, 4)):
        factors = [(rng.randint(1, lat.size), rng.choice("UV"),
                    Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), 2))
                   for _ in range(rng.randint(1, 4))]
        total = total + WeylOp.word(lat, factors, coeff=rand_coeff(rng))
    return total


def test_kernel_matches_fold_on_monodromy_entries():
    from toda2.quantum import monodromy
    t = monodromy(3)
    # a second spectral point, dressed so that coefficients have two terms
    m = monodromy(3, Scalar.var("mu")).scale(Scalar.var("s") + Scalar.var("lam"))
    entries = [e for row in t.entries for e in row]
    others = [e for row in m.entries for e in row]
    for a in entries:
        for b in others:
            assert (a * b).terms == reference_product(a, b)
            assert (b * a).terms == reference_product(b, a)


def test_kernel_matches_fold_on_random_half_integer_words():
    rng = random.Random(90210)
    for _ in range(60):
        a, b = rand_half_word_op(rng), rand_half_word_op(rng)
        assert (a * b).terms == reference_product(a, b)


def cancelling_pair():
    # U1 * V1 = s^4 V1 U1 meets V1 * (-s^4 U1): the key V1 U1 cancels between
    # the second and third pairs; -s^4 U1^2 and V1^2 survive
    u, v = ((1, 0, 2),), ((1, 2, 0),)
    a = WeylOp(LAT, {u: Scalar.const(1), v: Scalar.const(1)})
    b = WeylOp(LAT, {u: -spow(4), v: Scalar.const(1)})
    return a, b


def test_kernel_drops_a_key_that_cancels():
    a, b = cancelling_pair()
    out = a * b
    assert out.terms == reference_product(a, b)
    assert out.terms == {((1, 0, 4),): -spow(4), ((1, 4, 0),): Scalar.const(1)}
    # a partial cancellation keeps only the surviving monomials of the key
    lam = Scalar.var("lam")
    c = WeylOp(LAT, {((1, 0, 2),): -spow(4), ((1, 2, 0),): lam + 1})
    assert (a * c).terms[((1, 2, 2),)] == spow(4) * lam
    assert (a * c).terms == reference_product(a, c)


def test_cancelled_key_does_not_count_against_the_cap(monkeypatch):
    # at most two keys are ever nonzero at once, so a cap of 2 holds
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 2)
    a, b = cancelling_pair()
    assert (a * b).term_count() == 2
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 1)
    with pytest.raises(TermCapExceeded):
        _ = a * b


@pytest.mark.parametrize("c", [Scalar.var("lam", -2) * 3 + Scalar.var("s"), 7,
                               Fraction(-5, 3), Scalar.zero()])
def test_kernel_scalar_operand_on_both_sides(c):
    rng = random.Random(11)
    for _ in range(10):
        a = rand_half_word_op(rng)
        expect = reference_product(a, c)
        assert (a * c).terms == expect
        assert (c * a).terms == expect
