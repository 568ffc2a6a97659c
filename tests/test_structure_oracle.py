"""Schwartz–Zippel cross-check of the c-number exchange identities.

``YBE_twisted`` and ``DGCG_general`` are certified symbolically, as
polynomial residuals over ``Scalar``; ``dual_general`` and ``curve_2x2`` as
residuals over ``ScalarFraction``.  Here every matrix entry is evaluated at
random nonzero rationals, reading the packed terms into ``Fraction``s, and the
identities are multiplied out (and inverted) as plain nested lists: a nonzero
rational residual would vanish at such a point only with probability at most
its degree over the size of the sample set.
"""

import random
from fractions import Fraction

import pytest

from toda2.classical import local_lax
from toda2.matops import embed_two_leg
from toda2.poisson import make_chart
from toda2.quantum import build_aux, build_companion
from toda2.ring import Scalar, ScalarFraction, unpack_key, var_index

CURVE_SITES = 3  # the catalogue's N for curve_2x2
NAMES = ("s", "lam1", "lam2", "lam3", "alpha", "beta", "gamma", "delta",
         "alphat", "betat", "gammat", "deltat", "lam", "mu",
         *(f"{g}{n}" for n in range(1, CURVE_SITES + 1) for g in "QP"))


def _point(rng):
    """A map from variable index to a random nonzero rational."""
    return {var_index(name): Fraction(rng.choice([-1, 1]) * rng.randint(1, 97),
                                      rng.randint(1, 89))
            for name in NAMES}


def _value(x, point) -> Fraction:
    if isinstance(x, ScalarFraction):
        return _value(x.num, point) / _value(x.den, point)
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


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _inverse(m):
    """Gauss–Jordan inverse of a square Fraction matrix."""
    n = len(m)
    rows = [list(row) + e for row, e in zip(m, _identity(n))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col][col]
        rows[col] = [x / top for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _partial_transpose(m, leg: int):
    """Transpose one tensor leg of a 4x4 two-leg matrix, index by index."""
    out = [[None] * 4 for _ in range(4)]
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                for d in (0, 1):
                    # entry (a b),(c d) of the two-leg matrix
                    src = m[2 * a + b][2 * c + d]
                    if leg == 1:
                        out[2 * c + b][2 * a + d] = src
                    else:
                        out[2 * a + d][2 * c + b] = src
    return out


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


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
    one = _identity(2)
    m1 = _evaluate(build_companion("M0", l1, greek), point)
    m2 = _evaluate(build_companion("M0", l2, greek), point)
    if corrupt:
        m1 = _bump(m1, 1, 1)
    M1, M2 = _kron(m1, one), _kron(one, m2)
    return _sub(_mul(D, M1, C, M2), _mul(M2, B, M1, A))


def _dual(point, corrupt: bool):
    l1, l2 = Scalar.var("lam1"), Scalar.var("lam2")
    A, B, C, D = (_evaluate(build_aux(k, l1, l2), point) for k in "ABCD")
    greekt = tuple(Scalar.var(nm) for nm in ("alphat", "betat", "gammat", "deltat"))
    one = _identity(2)
    m1 = _evaluate(build_companion("Mtilde0", l1, greekt), point)
    m2 = _evaluate(build_companion("Mtilde0", l2, greekt), point)
    if corrupt:
        m1 = _bump(m1, 0, 1)
    Mt1, Mt2 = _kron(m1, one), _kron(one, m2)
    # the partial-transpose inverses, and the identities that define them
    Bt = _partial_transpose(_inverse(_partial_transpose(B, 1)), 1)
    Ct = _partial_transpose(_inverse(_partial_transpose(C, 2)), 2)
    inv_b = _sub(_mul(_partial_transpose(Bt, 1), _partial_transpose(B, 1)), _identity(4))
    inv_c = _sub(_mul(_partial_transpose(Ct, 2), _partial_transpose(C, 2)), _identity(4))
    dual = _sub(_mul(D, Mt2, Bt, Mt1), _mul(Mt1, Ct, Mt2, A))
    return inv_b + inv_c + dual


def _curve(point, corrupt: bool):
    chart = make_chart("qp", CURVE_SITES, periodic=True)
    laxes = {n: _evaluate(local_lax(chart, n, "lam"), point)
             for n in range(1, CURVE_SITES + 1)}
    if corrupt:
        laxes[1] = _bump(laxes[1], 0, 1)
    # the monodromy multiplies the sites right to left
    T = _mul(*(laxes[n] for n in range(CURVE_SITES, 0, -1)))
    mu = point[var_index("mu")]
    prod_q = Fraction(1)
    for n in range(1, CURVE_SITES + 1):
        prod_q *= point[var_index(f"Q{n}")]
    trace = T[0][0] + T[1][1]
    shifted = [[T[i][j] - (mu if i == j else 0) for j in range(2)] for i in range(2)]
    characteristic = _det(shifted) / mu - (mu + prod_q * prod_q / mu - trace)
    return [[characteristic, _det(T) - prod_q * prod_q]]


@pytest.mark.parametrize("identity", [_ybe, _dgcg, _dual, _curve],
                         ids=["YBE_twisted", "DGCG_general", "dual_general", "curve_2x2"])
def test_identity_vanishes_at_random_rationals(identity):
    rng = random.Random(2018)
    for _ in range(3):
        point = _point(rng)
        assert _is_zero(identity(point, corrupt=False))
        assert not _is_zero(identity(point, corrupt=True))
