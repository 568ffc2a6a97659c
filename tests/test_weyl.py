import random
from fractions import Fraction

import pytest

from toda2.ring import Scalar, unpack_key, var_key
from toda2.weyl import Lattice, TermCapExceeded, WeylOp, decode_key
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


def decoded(op):
    """The terms of ``op`` keyed by ``(site, a2, b2)`` triples."""
    return {decode_key(k): c for k, c in op.terms.items()}


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
    assert decoded(out) == {key: spow(s_exp)}


def test_word_against_naive_oracle_random():
    rng = random.Random(42)
    for _ in range(40):
        factors = [(rng.randint(1, 4), rng.choice("UV"), rng.choice([-2, -1, 1, 2]))
                   for _ in range(rng.randint(1, 5))]
        s_exp, key = naive_normal_order(factors)
        assert decoded(word_of(factors)) == {key: spow(s_exp)}


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
        for site, a2, b2 in decode_key(key):
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
        assert decoded(out) == reference_product(a, b)
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
    a, b = gen(1, "U"), WeylOp.one(PER)
    for op in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: a.commutator(b)):
        with pytest.raises(ValueError):
            op()
    assert (a == gen(1, "U", lat=PER)) is False


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
    assert [decode_key(k) for k in a.terms] == [((2, 0, 2), (4, 2, 0))]
    assert "U2" in a.to_text() and "V4" in a.to_text()


# -- the fused product kernel against the per-pair fold it replaced ---------------


def tuple_merge(k1: tuple, k2: tuple) -> tuple[tuple, int]:
    """Merge two normal-ordered ``(site, a2, b2)`` keys site by site; return
    the key of the product and its s exponent."""
    phase = 0
    out = []
    i = j = 0
    while i < len(k1) and j < len(k2):
        s1, a1, b1 = k1[i]
        s2, a2, b2 = k2[j]
        if s1 == s2:
            phase += b1 * a2  # U^b1 V^a2 = q^(2 b1 a2) V^a2 U^b1, in doubled powers of s
            if a1 + a2 or b1 + b2:
                out.append((s1, a1 + a2, b1 + b2))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    return tuple(out + list(k1[i:]) + list(k2[j:])), phase


def reference_product(a, b):
    """``a * b`` the slow way, over ``(site, a2, b2)`` keys: one tuple merge,
    one Scalar product and one s-shift per term pair."""
    if not isinstance(b, WeylOp):
        b = WeylOp.scalar(b, a.lattice)
    out = {}
    for k1, c1 in decoded(a).items():
        for k2, c2 in decoded(b).items():
            k, ph = tuple_merge(k1, k2)
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
    from toda2.quantum import ModelParams, monodromy
    params = ModelParams.generic()
    t = monodromy(3, Scalar.var("lam"), params)
    # a second spectral point, dressed so that coefficients have two terms
    m = monodromy(3, Scalar.var("mu"), params).scale(Scalar.var("s") + Scalar.var("lam"))
    entries = [e for row in t.entries for e in row]
    others = [e for row in m.entries for e in row]
    for a in entries:
        for b in others:
            assert decoded(a * b) == reference_product(a, b)
            assert decoded(b * a) == reference_product(b, a)


def canonical(op):
    """Every coefficient of ``op`` is an ``int``, or a ``Fraction`` that is not one."""
    return all(type(x) is int or x.denominator != 1
               for c in op.terms.values() for x in c.terms.values())


def test_kernel_matches_fold_on_random_half_integer_words():
    rng = random.Random(90210)
    for _ in range(60):
        a, b = rand_half_word_op(rng), rand_half_word_op(rng)
        assert decoded(a * b) == reference_product(a, b)
        assert canonical(a * b) and canonical(a.commutator(b))
        # integer-coefficient operands give int coefficients in both kernels
        ai, bi = a * 6, b * 6
        assert canonical(ai * bi) and canonical(ai.commutator(bi))
    # Fraction coefficients whose products are integers: 1/2 * 2 and 1/3 * 3
    # must come out as ints in both kernels
    a = gen(1, "U") * Fraction(1, 2) + gen(2, "V") * Fraction(1, 3)
    b = gen(1, "V") * 2 + gen(2, "U") * 3
    ab, ba = reference_product(a, b), reference_product(b, a)
    anticommutator = {k: ab.get(k, Scalar.zero()) + ba.get(k, Scalar.zero())
                      for k in ab.keys() | ba.keys()}
    for out, reference in ((a * b, ab),
                           (a.commutator(b), reference_commutator(a, b)),
                           (WeylOp.dot([(a, b), (b, a)]), anticommutator)):
        assert canonical(out)
        assert decoded(out) == {k: c for k, c in reference.items() if not c.is_zero()}


def cancelling_pair():
    # U1 * V1 = s^4 V1 U1 meets V1 * (-s^4 U1): the key V1 U1 cancels between
    # the second and third pairs; -s^4 U1^2 and V1^2 survive
    u, v = gen(1, "U"), gen(1, "V")
    return u + v, u * -spow(4) + v


def test_kernel_drops_a_key_that_cancels():
    a, b = cancelling_pair()
    out = a * b
    assert decoded(out) == reference_product(a, b)
    assert decoded(out) == {((1, 0, 4),): -spow(4), ((1, 4, 0),): Scalar.const(1)}
    # a partial cancellation keeps only the surviving monomials of the key
    lam = Scalar.var("lam")
    c = gen(1, "U") * -spow(4) + gen(1, "V") * (lam + 1)
    assert decoded(a * c)[((1, 2, 2),)] == spow(4) * lam
    assert decoded(a * c) == reference_product(a, c)


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
        assert decoded(a * c) == expect
        assert decoded(c * a) == expect


# -- the fused dot against a fold of products -------------------------------------


def fold(pairs):
    total = None
    for a, b in pairs:
        total = a * b if total is None else total + a * b
    return total


def test_dot_matches_the_fold_of_products_on_random_half_integer_words():
    rng = random.Random(271828)
    for _ in range(40):
        pairs = [(rand_half_word_op(rng), rand_half_word_op(rng))
                 for _ in range(rng.randint(1, 4))]
        out = WeylOp.dot(pairs)
        assert out.terms == fold(pairs).terms
        assert canonical(out)


def test_dot_cancels_products_across_pairs():
    rng = random.Random(31)
    for _ in range(10):
        a, b = rand_half_word_op(rng), rand_half_word_op(rng)
        assert WeylOp.dot([(a, b), (-a, b)]).is_zero()
        assert WeylOp.dot([(a, b), (b, a), (a, -b)]).terms == (b * a).terms
    # V1 U1 cancels between two pairs, where each product alone keeps it
    u, v = gen(1, "U"), gen(1, "V")
    out = WeylOp.dot([(u, v), (v, u * -spow(4)), (v, v)])
    assert decoded(out) == {((1, 4, 0),): Scalar.const(1)}


@pytest.mark.parametrize("c", [Scalar.var("lam", -2) * 3 + Scalar.var("s"), 7,
                               Fraction(-5, 3), Scalar.zero()])
def test_dot_lifts_scalar_operands_on_both_sides(c):
    rng = random.Random(12)
    for _ in range(10):
        a, b = rand_half_word_op(rng), rand_half_word_op(rng)
        pairs = [(a, c), (c, b), (a, b), (c, c)]
        assert WeylOp.dot(pairs) == fold(pairs[:3]) + c * c
        assert WeylOp.dot([(c, a)]).terms == (a * c).terms


def test_dot_refuses_mixed_lattices_and_scalars_only():
    with pytest.raises(ValueError):
        WeylOp.dot([(gen(1, "U"), gen(1, "V", lat=PER))])
    with pytest.raises(TypeError):
        WeylOp.dot([(Scalar.var("lam"), 2)])
    with pytest.raises(TypeError):
        WeylOp.dot([(gen(1, "U"), object())])


def test_dot_cap_counts_the_accumulator(monkeypatch):
    # a * b has 16 keys; with its negation the sum is zero.  Its largest
    # slice, the keys with no site-1 factor (U_m V_n, m, n > 1), holds 9
    # keys before the second pair cancels them, and no slice survives
    a = gen(1, "U") + gen(2, "U") + gen(3, "U") + gen(4, "U")
    b = gen(1, "V") + gen(2, "V") + gen(3, "V") + gen(4, "V")
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 9)
    assert WeylOp.dot([(a, b), (a, -b)]).is_zero()
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 8)
    with pytest.raises(TermCapExceeded):
        WeylOp.dot([(a, b), (a, -b)])


def test_dot_cap_counts_the_finished_slices(monkeypatch):
    # a * b alone keeps all 16 keys, spread over 4 slices (site-1 factors
    # V1 U1, U1, V1 and none): no slice holds more than 9, but the finished
    # slices' survivors count towards the cap
    a = gen(1, "U") + gen(2, "U") + gen(3, "U") + gen(4, "U")
    b = gen(1, "V") + gen(2, "V") + gen(3, "V") + gen(4, "V")
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 16)
    assert (a * b).term_count() == 16
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 15)
    with pytest.raises(TermCapExceeded):
        _ = a * b
    with pytest.raises(TermCapExceeded):
        WeylOp.dot([(a, b)])


def test_exchange_algebra_cap_at_three_sites(monkeypatch):
    # the 3-site ATT_TTD residual is zero; built slice by slice it never holds
    # more than 46 live keys (the whole-entry accumulator needed 297)
    from toda2.quantum import check_fm
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 46)
    [(_, res)] = check_fm("ATT_TTD", N=3)
    assert res.is_zero()
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 45)
    with pytest.raises(TermCapExceeded):
        check_fm("ATT_TTD", N=3)


# -- the sliced kernels against the slow reference ----------------------------------


def reference_dot(pairs):
    """``sum(a * b for a, b in pairs)`` over ``(site, a2, b2)`` keys through
    :func:`reference_product`; either factor may be a ring scalar."""
    out = {}
    for a, b in pairs:
        if not isinstance(a, WeylOp):
            a, b = b, a  # a ring scalar commutes with every operator
        for k, c in reference_product(a, b).items():
            out[k] = out.get(k, Scalar.zero()) + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def test_sliced_dot_and_commutator_match_the_reference_on_random_pairs():
    rng = random.Random(4242)
    lam = Scalar.var("lam")
    for trial in range(30):
        ops = [rand_half_word_op(rng) for _ in range(3)]
        scalar = WeylOp.scalar(rand_coeff(rng), LAT)
        c = rng.choice([Fraction(-5, 3), lam * Fraction(1, 2) + 2, 7])
        a, b, d = ops
        pairs = [(a, b), (d, a), (scalar, b), (a, scalar), (c, d), (b, c)]
        # pairs that cancel others: (a, -b) and (-scalar, b) cancel two of
        # the pairs above, and (b a, d) cancels (b, -(a d)) term for term
        pairs += [(a, -b), (-scalar, b)] if trial % 2 else [(b * a, d), (b, -(a * d))]
        rng.shuffle(pairs)
        out = WeylOp.dot(pairs)
        assert decoded(out) == reference_dot(pairs)
        assert canonical(out)
        for x, y in ((a, b), (d, scalar), (scalar, a), (a, a * b + d)):
            assert decoded(x.commutator(y)) == reference_commutator(x, y)


def test_sliced_dot_cancels_whole_slices_and_keeps_the_rest():
    # a * (x + y) - a * x: every slice of a * x cancels against its twin,
    # whichever order the slices finish in, and a * y survives untouched
    u, v = gen(1, "U"), gen(1, "V")
    a = u * Fraction(1, 2) + gen(2, "V") * Scalar.var("lam") + gen(3, "U", Fraction(-3, 2))
    x = v * 3 + u * v + gen(1, "U", -1)
    y = gen(2, "U") + gen(3, "V", Fraction(1, 2)) * Fraction(2, 3)
    out = WeylOp.dot([(a, x + y), (a, -x)])
    assert decoded(out) == reference_product(a, y) == reference_dot([(a, x + y), (a, -x)])
    # and within one slice: U1 * V1 and V1 * (-s^4 U1) meet at V1 U1 only
    assert decoded(WeylOp.dot([(u, v), (v, u * -spow(4))])) == {}


def test_exchange_residual_matches_the_reference_when_perturbed():
    # A T1 B T2 - T2 C T1 D at 3 sites with one entry of T(lam2) moved by a
    # monomial: every entry of the fused residual is the reference sum of its
    # pairs' products, and the residual is not zero
    from toda2.matops import product_difference, tensor_embed
    from toda2.quantum import ModelParams, build_aux, monodromy
    l1, l2 = Scalar.var("lam1"), Scalar.var("lam2")
    params = ModelParams.generic()
    A, B, C, D = (build_aux(k, l1, l2) for k in "ABCD")
    T1 = tensor_embed(monodromy(3, l1, params), 1)
    t2 = monodromy(3, l2, params)
    t2.entries[0][1] = t2.entries[0][1] + WeylOp.word(t2.entries[0][1].lattice,
                                                      [(2, "U", 1)], coeff=l2)
    T2 = tensor_embed(t2, 2)
    X, Z = A.mul(T1).mul(B), C.mul(T1).mul(D)
    res = product_difference(X, T2, T2, Z)
    assert not res.is_zero()
    for i in range(4):
        for j in range(4):
            plus = [(X.entries[i][k], T2.entries[k][j]) for k in range(4)]
            minus = [(T2.entries[i][k], -Z.entries[k][j]) for k in range(4)]
            assert decoded(res.entries[i][j]) == reference_dot(plus + minus)


# -- the fused commutator against a*b - b*a -------------------------------------


def test_fused_commutator_matches_two_products_on_random_half_integer_words():
    rng = random.Random(1618)
    for _ in range(60):
        a, b = rand_half_word_op(rng), rand_half_word_op(rng)
        assert a.commutator(b).terms == (a * b - b * a).terms


def test_fused_commutator_matches_two_products_on_monodromy_entries():
    from toda2.quantum import ModelParams, monodromy
    params = ModelParams.generic()
    t = monodromy(3, Scalar.var("lam"), params)
    m = monodromy(3, Scalar.var("mu"), params).scale(Scalar.var("s") + Scalar.var("lam"))
    entries = [e for row in t.entries for e in row]
    others = [e for row in m.entries for e in row]
    for a in entries:
        for b in others:
            assert a.commutator(b).terms == (a * b - b * a).terms


def test_fused_commutator_on_the_cancelling_pair():
    a, b = cancelling_pair()
    out = a.commutator(b)
    assert out.terms == (a * b - b * a).terms
    assert decoded(out) == reference_commutator(a, b) == {((1, 2, 2),): spow(8) - 1}
    assert b.commutator(a) == -out


def reference_commutator(a, b):
    ab, ba = reference_product(a, b), reference_product(b, a)
    out = dict(ab)
    for k, c in ba.items():
        out[k] = out.get(k, Scalar.zero()) - c
    return {k: c for k, c in out.items() if not c.is_zero()}


def test_fused_commutator_of_commuting_operators_is_zero():
    from toda2.quantum import ModelParams, hamiltonians
    lam = Scalar.var("lam")
    a = gen(1, "U", Fraction(1, 2)) * gen(1, "V", -1) + gen(2, "V") * lam
    for b in (gen(3, "U") * gen(4, "V", Fraction(3, 2)) + gen(5, "U", -1),
              WeylOp.scalar(lam + 2, LAT), a, a * a + a * lam):
        assert a.commutator(b).is_zero()
        assert b.commutator(a).is_zero()
    hs = hamiltonians(3, ModelParams.generic())
    for h in hs:
        for g in hs:
            assert h.commutator(g).is_zero()


def test_commutator_cap_counts_its_own_keys(monkeypatch):
    # U_n and V_m commute unless n == m: the product has 16 keys, the
    # commutator only the 4 keys V_n U_n
    a = gen(1, "U") + gen(2, "U") + gen(3, "U") + gen(4, "U")
    b = gen(1, "V") + gen(2, "V") + gen(3, "V") + gen(4, "V")
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 4)
    assert decoded(a.commutator(b)) == {((n, 2, 2),): spow(4) - 1 for n in range(1, 5)}
    with pytest.raises(TermCapExceeded):
        _ = a * b
    monkeypatch.setattr(weyl_mod, "TERM_CAP", 3)
    with pytest.raises(TermCapExceeded):
        a.commutator(b)


# -- the digit guard of the packed keys -----------------------------------------


def test_weyl_digit_guard_raises_before_any_carry():
    lat = Lattice(2, False)
    # V1^(2**27) stores the doubled digit 2**28; its square would store 2**29
    v = WeylOp.generator(lat, 1, "V", 2 ** 27)
    u = WeylOp.generator(lat, 2, "U", -2 ** 27)
    vu = WeylOp.word(lat, [(1, "V", 2 ** 27), (2, "U", -2 ** 27)])
    for a, b in ((v, v), (u, u), (vu, v), (u, vu)):
        with pytest.raises(OverflowError):
            _ = a * b
        with pytest.raises(OverflowError):
            a.commutator(b)
    with pytest.raises(OverflowError):
        WeylOp.word(lat, [(1, "V", 2 ** 27), (1, "V", 2 ** 27)])
    with pytest.raises(OverflowError):
        WeylOp.generator(lat, 1, "U", 2 ** 28)
    # just inside: doubled digits of +-(2**28 - 1) square to +-(2**29 - 2), with
    # no carry into a neighbouring digit, whatever the signs next to each other
    h = Fraction(2 ** 28 - 1, 2)
    top = 2 ** 29 - 2
    x = WeylOp.word(lat, [(1, "V", h), (2, "U", -h)])
    y = WeylOp.word(lat, [(1, "U", h), (2, "V", -h)])
    assert decoded(x * x) == {((1, top, 0), (2, 0, -top)): Scalar.const(1)}
    assert decoded(y * y) == {((1, 0, top), (2, -top, 0)): Scalar.const(1)}
    assert x * x == WeylOp.word(lat, [(1, "V", 2 * h), (2, "U", -2 * h)])
    # x * y fits digit by digit, but its phase (2**28 - 1)**2 does not
    with pytest.raises(OverflowError):
        _ = x * y
