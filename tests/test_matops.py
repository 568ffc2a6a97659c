import itertools
import random
from fractions import Fraction

import pytest

from toda2.matops import OpMatrix, embed_two_leg, product_difference, tensor_embed
from toda2.poisson import make_chart
from toda2.ring import Scalar, ScalarFraction, unpack_key, var_index
from toda2.weyl import Lattice, WeylOp
from toda2.quantum import (ModelParams, build_aux, build_lax, build_scalar_aux, monodromy,
                           q_sigma_z)

LAT = Lattice(3, True)
PARAMS = ModelParams.generic()


def sc(v):
    return Scalar.const(v)


def rand_scalar_matrix(rng, n):
    return OpMatrix([[Scalar.monomial({"lam": rng.randint(0, 2)}, rng.randint(-4, 4))
                      for _ in range(n)] for _ in range(n)])


def test_identity_multiplication():
    a = rand_scalar_matrix(random.Random(1), 3)
    one = OpMatrix.identity(3, sc(1))
    assert one.mul(a).sub(a).is_zero()
    assert a.mul(one).sub(a).is_zero()


def test_gauge_matrix_inverse_pair():
    lam = Scalar.var("lam")
    one2 = OpMatrix.identity(2, WeylOp.one(LAT))
    for n in (1, 2, 3):
        N = build_lax("gaugeN", n, lam, PARAMS, LAT)
        Ninv = build_lax("gaugeNinv", n, lam, PARAMS, LAT)
        assert N.mul(Ninv).sub(one2).is_zero()
        assert Ninv.mul(N).sub(one2).is_zero()


def test_2x2_weyl_product_eight_term_oracle():
    U1, V1 = WeylOp.generator(LAT, 1, "U"), WeylOp.generator(LAT, 1, "V")
    U2, V2 = WeylOp.generator(LAT, 2, "U"), WeylOp.generator(LAT, 2, "V")
    A = OpMatrix([[U1, V1], [V2, U2]])
    B = OpMatrix([[V1, U2], [U1, V2]])
    got = A.mul(B)
    # expand each entry by hand, preserving operator order
    expect = OpMatrix([
        [U1 * V1 + V1 * U1, U1 * U2 + V1 * V2],
        [V2 * V1 + U2 * U1, V2 * U2 + U2 * V2],
    ])
    assert got.sub(expect).is_zero()


def test_matmul_associativity_random():
    rng = random.Random(8)
    for _ in range(10):
        a, b, c = (rand_scalar_matrix(rng, 3) for _ in range(3))
        lhs = a.mul(b).mul(c)
        rhs = a.mul(b.mul(c))
        assert lhs.sub(rhs).is_zero()


def test_sigma_z_tensor_square():
    sz = OpMatrix([[sc(1), sc(0)], [sc(0), sc(-1)]])
    got = tensor_embed(sz, 1).mul(tensor_embed(sz, 2))
    expect = OpMatrix([[sc(1), sc(0), sc(0), sc(0)],
                       [sc(0), sc(-1), sc(0), sc(0)],
                       [sc(0), sc(0), sc(-1), sc(0)],
                       [sc(0), sc(0), sc(0), sc(1)]])
    assert got.sub(expect).is_zero()


def test_embed_identity_is_identity():
    one2 = OpMatrix.identity(2, sc(1))
    assert tensor_embed(one2, 1).sub(OpMatrix.identity(4, sc(1))).is_zero()
    assert tensor_embed(one2, 2).sub(OpMatrix.identity(4, sc(1))).is_zero()
    with pytest.raises(ValueError, match="leg"):
        tensor_embed(one2, 3)


def test_leg_product_index_arithmetic_oracle():
    lam1, lam2 = Scalar.var("lam1"), Scalar.var("lam2")
    l1 = build_lax("l", 1, lam1, PARAMS, LAT)
    l2 = build_lax("l", 1, lam2, PARAMS, LAT)
    prod = tensor_embed(l1, 1).mul(tensor_embed(l2, 2))
    # entry ((a,b),(c,d)) of the product must be l1[a][c] * l2[b][d]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    got = prod.entries[2 * a + b][2 * c + d]
                    assert (got - l1.entries[a][c] * l2.entries[b][d]).is_zero()
    # in particular the (2,3) entry pairs the off-diagonals
    assert (prod.entries[1][2] - l1.entries[0][1] * l2.entries[1][0]).is_zero()


def test_legs_commute_for_scalar_entries():
    rng = random.Random(77)
    for n in (2, 3):
        a = rand_scalar_matrix(rng, n)
        b = rand_scalar_matrix(rng, n)
        lhs = tensor_embed(a, 1).mul(tensor_embed(b, 2))
        rhs = tensor_embed(b, 2).mul(tensor_embed(a, 1))
        assert lhs.sub(rhs).is_zero()
        # entry ((i,j),(k,l)) of the product is a[i][k] * b[j][l]
        for i, j, k, l in itertools.product(range(n), repeat=4):
            got = lhs.entries[n * i + j][n * k + l]
            assert (got - a.entries[i][k] * b.entries[j][l]).is_zero()


def test_trace_identity_and_closing_trace():
    assert OpMatrix.identity(2, sc(1)).trace() == sc(2)
    # diagonal of the trace-closing companion against diag(q^-1, q)
    lam = Scalar.var("lam")
    g = build_scalar_aux("Gtilde0", lam, PARAMS)
    closed = g.mul(q_sigma_z())
    d1, d23 = Scalar.var("d1"), Scalar.var("d2") * Scalar.var("d3")
    s = Scalar.var("s")
    expect = (Scalar.var("s", -2)
              + Scalar.var("s", 2) * (Scalar.var("s", -1) + s * d1 * lam
                                      + Scalar.var("s", -1) * d23 * lam * lam))
    assert closed.trace() == expect


def test_trace_cyclicity_commutative_and_weyl_counterexample():
    rng = random.Random(3)
    for _ in range(10):
        a, b = rand_scalar_matrix(rng, 3), rand_scalar_matrix(rng, 3)
        assert (a.mul(b).trace() - b.mul(a).trace()).is_zero()
    U1, V1 = WeylOp.generator(LAT, 1, "U"), WeylOp.generator(LAT, 1, "V")
    zero = WeylOp.zero(LAT)
    A = OpMatrix([[U1, zero], [zero, zero]])
    B = OpMatrix([[V1, zero], [zero, zero]])
    # tr(AB) = U V differs from tr(BA) = V U in the Weyl algebra
    assert not (A.mul(B).trace() - B.mul(A).trace()).is_zero()


def test_det_diagonal_and_multiplicativity():
    a, b, c = Scalar.var("d1"), Scalar.var("d2"), Scalar.var("d3")
    zero = Scalar.zero()
    d = OpMatrix([[a, zero, zero], [zero, b, zero], [zero, zero, c]])
    assert d.det() == a * b * c
    rng = random.Random(15)
    for n in (2, 3):
        for _ in range(6):
            x, y = rand_scalar_matrix(rng, n), rand_scalar_matrix(rng, n)
            assert x.mul(y).det() == x.det() * y.det()


def test_det_rejects_weyl_entries():
    U1 = WeylOp.generator(LAT, 1, "U")
    m = OpMatrix([[U1, U1], [U1, U1]])
    with pytest.raises(TypeError):
        m.det()


def test_residual_reports_flipped_corner():
    lam = Scalar.var("lam")
    g = build_scalar_aux("G0", lam, PARAMS)
    bad = OpMatrix([row[:] for row in g.entries])
    bad.entries[1][0] = -bad.entries[1][0]
    res = g.sub(bad)
    assert not res.is_zero()
    assert res.nonzero_entries() == [(1, 0)]
    assert g.sub(g).is_zero()


def test_partial_transpose_is_involutive():
    rng = random.Random(4)
    m = rand_scalar_matrix(rng, 4)
    for leg in (1, 2):
        assert m.partial_transpose(leg).partial_transpose(leg).sub(m).is_zero()


def test_inverse_comm_adjugate():
    m = OpMatrix([[sc(2), sc(1), sc(0), sc(0)],
                  [sc(0), sc(1), sc(3), sc(0)],
                  [sc(0), sc(0), sc(1), sc(0)],
                  [sc(5), sc(0), sc(0), sc(1)]])
    inv = m.inverse_comm()
    one4 = OpMatrix.identity(4, ScalarFraction(sc(1)))
    got = inv.mul(m.map(ScalarFraction))
    assert got.sub(one4).is_zero()


def test_three_leg_embedding_matches_two_leg():
    rng = random.Random(6)
    m = rand_scalar_matrix(rng, 4)
    e12 = embed_two_leg(m, (1, 2))
    for r in range(8):
        for c in range(8):
            rb = [(r >> k) & 1 for k in (2, 1, 0)]
            cb = [(c >> k) & 1 for k in (2, 1, 0)]
            if rb[2] != cb[2]:
                assert e12.entries[r][c].is_zero()
            else:
                expect = m.entries[2 * rb[0] + rb[1]][2 * cb[0] + cb[1]]
                assert (e12.entries[r][c] - expect).is_zero()


def _other_ring_case(ring):
    """A matrix over ``ring`` with a zero column, its entry type, and the
    inline lift of a Scalar into that ring."""
    if ring == "weyl":
        U1, V1 = WeylOp.generator(LAT, 1, "U"), WeylOp.generator(LAT, 1, "V")
        zero = WeylOp.zero(LAT)
        return OpMatrix([[U1, zero], [V1, zero]]), WeylOp, lambda x: WeylOp.scalar(x, LAT)
    if ring == "fraction":
        lam, zero = Scalar.var("lam"), ScalarFraction(sc(0))
        return (OpMatrix([[ScalarFraction(lam, lam + sc(1)), zero],
                          [ScalarFraction(Scalar.var("s", 2)), zero]]),
                ScalarFraction, ScalarFraction)
    chart = make_chart("qp", 3, periodic=True)
    return (OpMatrix([[chart.gen("Q1"), ScalarFraction(0)],
                      [chart.gen("P2") / chart.gen("Q3"), ScalarFraction(0)]]),
            ScalarFraction, ScalarFraction)


@pytest.mark.parametrize("ring", ["weyl", "fraction", "poisson"])
def test_scalar_matrix_multiplies_into_other_rings_on_both_sides(ring):
    lam, s2 = Scalar.var("lam"), Scalar.var("s", 2)
    S = OpMatrix([[lam, sc(0)], [sc(1) - s2 * s2, s2]])
    X, kind, lift = _other_ring_case(ring)
    # oracle: the same products with every scalar entry lifted by hand
    lifted = OpMatrix([[lift(x) for x in row] for row in S.entries])
    for got, oracle in ((S.mul(X), lifted.mul(X)), (X.mul(S), X.mul(lifted))):
        entries = [x for row in got.entries for x in row]
        assert all(isinstance(x, kind) for x in entries)
        assert entries[1].is_zero() and entries[3].is_zero()
        assert all(g == o for g, o in zip(entries, (x for row in oracle.entries for x in row)))


# -- the fused residual a·b − c·d against two products and a difference ----------


def _rand_weyl_entry(rng):
    """Zero, or a sum of one to three half-integer words with small coefficients."""
    total = WeylOp.zero(LAT)
    for _ in range(rng.randint(0, 3)):
        factors = [(rng.randint(1, 3), rng.choice("UV"), Fraction(rng.choice([-3, -1, 1, 2]), 2))
                   for _ in range(rng.randint(1, 3))]
        coeff = Scalar.monomial({"s": rng.randint(-2, 2), "lam": rng.randint(0, 2)},
                                Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2])))
        total = total + WeylOp.word(LAT, factors, coeff)
    return total


def _assert_product_difference(a, b, c, d):
    got = product_difference(a, b, c, d)
    expect = a.mul(b).sub(c.mul(d))
    assert (got.rows, got.cols) == (expect.rows, expect.cols)
    for g, e in zip((x for row in got.entries for x in row),
                    (x for row in expect.entries for x in row)):
        assert type(g) is type(e) and g == e
    return got


def test_product_difference_on_random_half_integer_weyl_matrices():
    rng = random.Random(4242)
    for _ in range(12):
        a, b, c, d = (OpMatrix([[_rand_weyl_entry(rng) for _ in range(2)] for _ in range(2)])
                      for _ in range(4))
        _assert_product_difference(a, b, c, d)
        # the two sides cancel exactly
        assert product_difference(a, b, a, b).is_zero()


def test_product_difference_on_three_site_monodromy_entries():
    lam1, lam2 = Scalar.var("lam1"), Scalar.var("lam2")
    T1 = tensor_embed(monodromy(3, lam1, PARAMS), 1)
    T2 = tensor_embed(monodromy(3, lam2, PARAMS), 2)
    res = _assert_product_difference(T1, T2, T2, T1)
    assert not res.is_zero()  # the monodromy entries do not commute


def test_product_difference_mixes_c_numbers_and_operators():
    lam1, lam2 = Scalar.var("lam1"), Scalar.var("lam2")
    A, D = build_aux("A", lam1, lam2), build_aux("D", lam1, lam2)
    x1 = tensor_embed(build_lax("l", 1, lam1, PARAMS, LAT), 1)
    x2 = tensor_embed(build_lax("l", 2, lam2, PARAMS, LAT), 2)
    _assert_product_difference(A, x1, x2, D)
    _assert_product_difference(x1, A, D, x2)
    _assert_product_difference(A.mul(x1), x2, x2, x1.mul(D))
    # c-numbers only: the fold of each side, then their difference
    rng = random.Random(17)
    a, b, c, d = (rand_scalar_matrix(rng, 3) for _ in range(4))
    _assert_product_difference(a, b, c, d)


def test_product_difference_rejects_mismatched_shapes():
    a = rand_scalar_matrix(random.Random(3), 2)
    b = OpMatrix([[sc(1)] * 3] * 2)
    with pytest.raises(ValueError):
        product_difference(a, b, a, a)
    with pytest.raises(ValueError):
        product_difference(a, a, b, a)


# -- an independent check: the matrix layer against nested lists of Fractions ----


def _rand_rational(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))


def _rand_laurent_matrix(rng, rows, cols):
    """A matrix of random Laurent polynomials in lam and mu, some entries zero."""
    def entry():
        total = sc(0)
        for _ in range(rng.randint(0, 3)):
            total = total + Scalar.monomial({"lam": rng.randint(-2, 2), "mu": rng.randint(-2, 2)},
                                            _rand_rational(rng))
        return total
    return OpMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


def _evaluate(m, point):
    """The entries of ``m`` at ``point`` (variable name -> rational), read off
    each term's exponents and multiplied out in Fractions."""
    idx = {var_index(name): value for name, value in point.items()}

    def value(x):
        total = Fraction(0)
        for key, c in x.terms.items():
            term = Fraction(c)
            for v, e in unpack_key(key):
                term *= idx[v] ** e
            total += term
        return total
    return [[value(x) for x in row] for row in m.entries]


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _unit(n, i, j):
    return [[Fraction(int((r, c) == (i, j))) for c in range(n)] for r in range(n)]


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def test_matrix_layer_agrees_with_fraction_lists_at_random_points():
    rng = random.Random(2024)
    swap = [[Fraction(int(c == 2 * (r % 2) + r // 2)) for c in range(4)] for r in range(4)]
    swap23 = _kron(_eye(2), swap)
    for _ in range(6):
        point = {"lam": _rand_rational(rng), "mu": _rand_rational(rng)}
        ev = lambda m: _evaluate(m, point)
        a, b = _rand_laurent_matrix(rng, 2, 3), _rand_laurent_matrix(rng, 3, 4)
        assert ev(a.mul(b)) == _matmul(ev(a), ev(b))
        for n in (2, 3):
            m = _rand_laurent_matrix(rng, n, n)
            assert ev(tensor_embed(m, 1)) == _kron(ev(m), _eye(n))
            assert ev(tensor_embed(m, 2)) == _kron(_eye(n), ev(m))
        m = _rand_laurent_matrix(rng, 4, 4)
        x = ev(m)
        assert ev(embed_two_leg(m, (1, 2))) == _kron(x, _eye(2))
        assert ev(embed_two_leg(m, (2, 3))) == _kron(_eye(2), x)
        assert ev(embed_two_leg(m, (1, 3))) == _matmul(_matmul(swap23, _kron(x, _eye(2))), swap23)
        # m = sum over a, c of E_ac (x) block_ac; a partial transpose acts on one factor
        blocks = {(a, c): [row[2 * c:2 * c + 2] for row in x[2 * a:2 * a + 2]]
                  for a in range(2) for c in range(2)}
        pt1, pt2 = [[Fraction(0)] * 4 for _ in range(4)], [[Fraction(0)] * 4 for _ in range(4)]
        for (a, c), blk in blocks.items():
            pt1 = _add(pt1, _kron(_unit(2, c, a), blk))
            pt2 = _add(pt2, _kron(_unit(2, a, c), _transpose(blk)))
        assert ev(m.partial_transpose(1)) == pt1
        assert ev(m.partial_transpose(2)) == pt2
