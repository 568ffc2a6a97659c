"""Schwartz–Zippel cross-check of the c-number exchange identities.

``YBE_twisted`` and ``DGCG_general`` are certified symbolically, as
polynomial residuals over ``Scalar``.  Here every matrix entry is evaluated at
random nonzero rationals, reading the packed terms into ``Fraction``s, and the
identities are multiplied out as plain nested lists: a nonzero polynomial
residual would vanish at such a point only with probability at most its
degree over the size of the sample set.
"""

import random
from fractions import Fraction

import pytest

from toda2.matops import embed_two_leg
from toda2.quantum import build_aux, build_companion
from toda2.ring import Scalar, unpack_key, var_index

NAMES = ("s", "lam1", "lam2", "lam3", "alpha", "beta", "gamma", "delta")


def _point(rng):
    """A map from variable index to a random nonzero rational."""
    return {var_index(name): Fraction(rng.choice([-1, 1]) * rng.randint(1, 97),
                                      rng.randint(1, 89))
            for name in NAMES}


def _value(x: Scalar, point) -> Fraction:
    total = Fraction(0)
    for key, c in x.terms.items():
        term = Fraction(c)
        for v, e in unpack_key(key):
            term *= point[v] ** e
        total += term
    return total


def _evaluate(m, point):
    return [[_value(x, point) for x in row] for row in m.entries]


def _mul(*ms):
    out = ms[0]
    for b in ms[1:]:
        out = [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
               for row in out]
    return out


def _sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _is_zero(m):
    return all(x == 0 for row in m for x in row)


def _bump(m, i, j):
    """A copy of ``m`` with entry (i, j) off by one."""
    out = [list(row) for row in m]
    out[i][j] += 1
    return out


def _ybe(point, corrupt: bool):
    lam = [Scalar.var(f"lam{k}") for k in (1, 2, 3)]
    R = {(i, j): _evaluate(embed_two_leg(build_aux("Rtwisted", lam[i - 1], lam[j - 1]),
                                         (i, j)), point)
         for i, j in ((1, 2), (1, 3), (2, 3))}
    if corrupt:
        R[(1, 3)] = _bump(R[(1, 3)], 1, 2)
    return _sub(_mul(R[(1, 2)], R[(1, 3)], R[(2, 3)]), _mul(R[(2, 3)], R[(1, 3)], R[(1, 2)]))


def _dgcg(point, corrupt: bool):
    l1, l2 = Scalar.var("lam1"), Scalar.var("lam2")
    A, B, C, D = (_evaluate(build_aux(k, l1, l2), point) for k in "ABCD")
    greek = tuple(Scalar.var(nm) for nm in ("alpha", "beta", "gamma", "delta"))
    one = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    m1 = _evaluate(build_companion("M0", l1, greek), point)
    m2 = _evaluate(build_companion("M0", l2, greek), point)
    if corrupt:
        m1 = _bump(m1, 1, 1)
    M1, M2 = _kron(m1, one), _kron(one, m2)
    return _sub(_mul(D, M1, C, M2), _mul(M2, B, M1, A))


@pytest.mark.parametrize("identity", [_ybe, _dgcg], ids=["YBE_twisted", "DGCG_general"])
def test_identity_vanishes_at_random_rationals(identity):
    rng = random.Random(2018)
    for _ in range(3):
        point = _point(rng)
        assert _is_zero(identity(point, corrupt=False))
        assert not _is_zero(identity(point, corrupt=True))
