"""The Weyl product checked through a faithful representation, not its own rules.

On Laurent polynomials in ``y_1 .. y_N`` (with the model's parameters as
constants) let ``V_n^(a/2)`` act as multiplication by ``y_n^a`` and
``U_n^(b/2)`` as the shift ``y_n -> s^b y_n``.  Then ``U_n V_n = s^4 V_n U_n =
q^2 V_n U_n``, and for formal ``s`` the action is faithful, so a product is
right iff acting with it equals acting with its factors in turn.  The action
is built from monomial shifts, sums and products of :class:`Scalar` alone and
never calls the Weyl product or the commutator; it reads each key through
``decode_key``.
"""

from fractions import Fraction
from operator import mul

import pytest

from toda2.quantum import ModelParams, monodromy
from toda2.ring import Scalar, unpack_key, var_index, var_key
from toda2.weyl import Lattice, WeylOp, decode_key

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

N = 3
LAT = Lattice(N, True)
Y = [f"y{n}" for n in range(1, N + 1)]
ORACLE = settings(max_examples=100, deadline=None)


def act(op: WeylOp, f: Scalar) -> Scalar:
    """The image of ``f`` under ``op``: a term ``V^(a/2) U^(b/2)`` sends ``y^e``
    to ``s^(b.e) y^(e+a)``, so each group of terms of ``f`` with one power
    ``y^e`` moves by one monomial."""
    groups: dict[tuple, Scalar] = {}
    for k, c in f.terms.items():
        powers = dict(unpack_key(k))
        e = tuple(powers.get(var_index(y), 0) for y in Y)
        groups[e] = groups.get(e, Scalar.zero()) + Scalar({k: c})
    total = Scalar.zero()
    for key, coeff in op.terms.items():
        a, b = [0] * N, [0] * N
        for n, a2, b2 in decode_key(key):
            a[n - 1], b[n - 1] = a2, b2
        v = sum(var_key(y, an) for y, an in zip(Y, a))
        image = Scalar.zero()
        for e, g in groups.items():
            image = image + g.shift(v + var_key("s", sum(map(mul, b, e))))
        total = total + coeff * image
    return total


_PARAMS = ModelParams.generic()
_T = monodromy(N, Scalar.var("lam"), _PARAMS)
_M = monodromy(N, Scalar.var("mu"), _PARAMS)
ENTRIES = [e for t in (_T, _M) for row in t.entries for e in row]

small = st.integers(-2, 2)
coefficients = st.builds(
    lambda terms: sum((Scalar.monomial({"s": i, "lam": j}, Fraction(c, d))
                       for i, j, c, d in terms), Scalar.zero()),
    st.lists(st.tuples(small, small, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
             min_size=1, max_size=3))
factors = st.tuples(st.integers(1, N), st.sampled_from("UV"),
                    st.sampled_from([Fraction(k, 2) for k in (-3, -2, -1, 1, 2, 3)]))
words = st.builds(lambda fs, c: WeylOp.word(LAT, fs, coeff=c),
                  st.lists(factors, min_size=1, max_size=4), coefficients)
random_ops = st.builds(lambda ws: sum(ws, WeylOp.zero(LAT)),
                       st.lists(words, min_size=1, max_size=3))
operators = st.one_of(st.sampled_from(ENTRIES), random_ops)
ring_scalars = st.one_of(coefficients, st.integers(-4, 4),
                         st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
test_functions = st.builds(
    lambda es, c: Scalar.monomial(dict(zip(Y, es)), c),
    st.lists(st.integers(-3, 3), min_size=N, max_size=N), st.integers(1, 5))


@ORACLE
@given(operators, operators, test_functions)
def test_product_acts_as_composition(p, q, f):
    assert act(p * q, f) == act(p, act(q, f))


@ORACLE
@given(operators, operators, test_functions)
def test_commutator_acts_as_the_difference_of_compositions(p, q, f):
    assert act(p.commutator(q), f) == act(p, act(q, f)) - act(q, act(p, f))


@ORACLE
@given(operators, ring_scalars, test_functions)
def test_scalar_operand_acts_as_scaling(p, c, f):
    c_f = f * c
    assert act(p * c, f) == act(p, c_f)
    assert act(c * p, f) == act(p, f) * c


def test_oracle_separates_the_two_orders():
    # U1 V1 and V1 U1 differ by s^4; the oracle must tell them apart
    u, v = WeylOp.generator(LAT, 1, "U"), WeylOp.generator(LAT, 1, "V")
    f = Scalar.var("y1", 2)
    assert act(u, act(v, f)) == act(v, act(u, f)) * Scalar.var("s", 4)
    assert act(u, act(v, f)) != act(v, act(u, f))
