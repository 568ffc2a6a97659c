"""Classical integrability of the second-structure chain.

The N-particle model is encoded two ways: an N x N Jacobi-type Lax matrix
L(mu) with spectral corners, whose entry brackets close on r/a structure
matrices, and a product of 2x2 local Lax matrices whose trace reproduces the
mu-independent part of the N x N characteristic polynomial.  All identities
are verified entrywise over the fraction field of the periodic qp chart.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .matops import OpMatrix, embed
from .poisson import Chart, make_chart
from . import poisson
from .ring import Scalar, ScalarFraction

__all__ = ["build_structure", "bracket_matrix", "big_lax", "local_lax",
           "classical_monodromy"]


def big_lax(chart: Chart, mu_name: str) -> OpMatrix:
    """Tridiagonal Lax matrix with mu^(-+1) corners; diagonal -P_n."""
    N = chart.size
    mu = ScalarFraction(Scalar.var(mu_name))
    zero = ScalarFraction(0)
    m = [[zero for _ in range(N)] for _ in range(N)]
    for n in range(1, N + 1):
        m[n - 1][n - 1] = m[n - 1][n - 1] - chart.gen(f"P{n}")
    for n in range(1, N):
        q = chart.gen(f"Q{n}")
        m[n - 1][n] = m[n - 1][n] + q
        m[n][n - 1] = m[n][n - 1] + q
    qn = chart.gen(f"Q{N}")
    m[0][N - 1] = m[0][N - 1] + qn / mu
    m[N - 1][0] = m[N - 1][0] + qn * mu
    return OpMatrix(m)


def local_lax(chart: Chart, n: int, lam_name: str) -> OpMatrix:
    return OpMatrix(poisson.local_lax(ScalarFraction(Scalar.var(lam_name)), chart.gen(f"P{n}"),
                                      chart.gen(f"Q{n}") ** 2, ScalarFraction(1),
                                      ScalarFraction(0)))


def classical_monodromy(chart: Chart, lam_name: str) -> OpMatrix:
    return reduce(OpMatrix.mul, (local_lax(chart, n, lam_name)
                                 for n in range(chart.size, 0, -1)))


def build_structure(kind: str, chart: Chart, mu1: str = "mu1", mu2: str = "mu2") -> OpMatrix:
    """N^2 x N^2 structure matrices, cleared: r- and d-type are the numerators
    over the denominator mu1 - mu2 (d21 over mu2 - mu1)."""
    N = chart.size
    m1 = Scalar.var(mu1)
    m2 = Scalar.var(mu2)
    zero = Scalar.zero()
    half = Scalar.const(Fraction(1, 2))

    def at(mat, a, c, b, d, val):
        mat[(a - 1) * N + (c - 1)][(b - 1) * N + (d - 1)] = \
            mat[(a - 1) * N + (c - 1)][(b - 1) * N + (d - 1)] + val

    if kind == "r12":
        entries = [[zero] * N * N for _ in range(N * N)]
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                # E_ij (x) E_ji and E_ji (x) E_ij blocks
                at(entries, i, j, j, i, 2 * m2)
                at(entries, j, i, i, j, 2 * m1)
            at(entries, i, i, i, i, m1 + m2)
        return OpMatrix(entries)
    if kind == "a12":
        entries = [[zero] * N * N for _ in range(N * N)]
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                at(entries, i, j, i, j, half)
                at(entries, j, i, j, i, -half)
        return OpMatrix(entries)
    if kind == "d12":
        r = build_structure("r12", chart, mu1, mu2)
        a = build_structure("a12", chart)
        # d12 right-multiplies the second-leg copy of L
        L2 = embed(big_lax(chart, mu2), (2,), 2)
        # combine over the common denominator of r
        den = ScalarFraction(Scalar.var(mu1) - Scalar.var(mu2))
        minus = r.sub(a.scale(den))
        plus = r.add(a.scale(den))
        return minus.mul(L2).neg().sub(L2.mul(plus))
    if kind == "d21":
        # d12 at exchanged spectral variables, with its legs swapped
        return embed(build_structure("d12", chart, mu2, mu1), (2, 1), 2)
    raise ValueError(f"unknown structure kind {kind!r}")


def bracket_matrix(chart: Chart, mu1: str = "mu1", mu2: str = "mu2") -> OpMatrix:
    """The matrix of entry brackets of the two spectral copies of L.

    Leg 1 carries the mu1 copy and leg 2 the mu2 copy: the entry at row
    (a, c), column (b, d) is {L(mu1)_ab, L(mu2)_cd}.  This is the unique
    orientation for which both closed forms of the bracket hold.
    """
    N = chart.size
    L1m = big_lax(chart, mu1)
    L2m = big_lax(chart, mu2)
    out = [[None] * N * N for _ in range(N * N)]
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    out[a * N + c][b * N + d] = chart.bracket(
                        L1m.entries[a][b], L2m.entries[c][d])
    return OpMatrix(out)


# -- named checks ----------------------------------------------------------------


def _trace_power(L: OpMatrix, n: int):
    M = L
    for _ in range(n - 1):
        M = M.mul(L)
    return M.trace()


def check_classical(check_id: str, N: int, mutate: bool = False):
    """Labelled residuals of the integrability checks for the N x N
    presentation; N = 2 runs everywhere, but its periodic deltas collapse."""
    chart = make_chart("qp", N, periodic=True)

    if check_id in ("poissonL_explicit", "poissonL_dform"):
        BM = bracket_matrix(chart)
        L1 = embed(big_lax(chart, "mu1"), (1,), 2)
        L2 = embed(big_lax(chart, "mu2"), (2,), 2)
        den12 = ScalarFraction(Scalar.var("mu1") - Scalar.var("mu2"))
        if check_id == "poissonL_dform":
            d12 = build_structure("d12", chart)
            d21 = build_structure("d21", chart)
            den21 = -den12
            rhs = (d12.mul(L1).sub(L1.mul(d12))).scale(den21).sub(
                (d21.mul(L2).sub(L2.mul(d21))).scale(den12))
            res = BM.scale(den12 * den21).sub(rhs)
            return [("entry brackets vs commutator form", res)]
        r12 = build_structure("r12", chart)
        a12 = build_structure("a12", chart)
        if mutate:
            a12 = a12.neg()
        two = ScalarFraction(2)
        L12 = L1.mul(L2)
        rhs = (r12.mul(L12).sub(L12.mul(r12))).scale(-two) \
            .add(a12.mul(L12).scale(two).scale(den12)) \
            .add(L12.mul(a12).scale(two).scale(den12)) \
            .sub(L1.mul(a12).mul(L2).scale(two).scale(den12)) \
            .sub(L2.mul(a12).mul(L1).scale(two).scale(den12))
        res = BM.scale(den12).sub(rhs)
        return [("entry brackets vs explicit form", res)]

    if check_id == "involution":
        La, Lb = big_lax(chart, "mu1"), big_lax(chart, "mu2")
        ta = {n: _trace_power(La, n) for n in (1, 2, 3)}
        tb = {m: _trace_power(Lb, m) for m in (1, 2, 3)}
        items = []
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                items.append((f"(n={n},m={m})", chart.bracket(ta[n], tb[m])))
        prod_q = ScalarFraction(1)
        for a in range(1, N + 1):
            prod_q = prod_q * chart.gen(f"Q{a}")
        for n in (1, 2, 3):
            items.append((f"center(n={n})", chart.bracket(prod_q, ta[n])))
        return items

    if check_id in ("curve_NxN", "pN_equals_trT", "curve_2x2"):
        lam = ScalarFraction(Scalar.var("lam"))
        mu = ScalarFraction(Scalar.var("mu"))
        mu_inv = ScalarFraction(Scalar.var("mu").monomial_inverse())
        prod_q = ScalarFraction(1)
        for a in range(1, N + 1):
            prod_q = prod_q * chart.gen(f"Q{a}")
        if check_id == "curve_2x2":
            T = classical_monodromy(chart, "lam")
            shifted = OpMatrix([[T.entries[i][j] - (mu if i == j else ScalarFraction(0))
                                 for j in range(2)] for i in range(2)])
            lhs = shifted.det() * mu_inv
            rhs = mu + prod_q * prod_q * mu_inv - T.trace()
            return [("characteristic relation", lhs - rhs),
                    ("spectral determinant", T.det() - prod_q * prod_q)]
        L = big_lax(chart, "mu")
        shifted = OpMatrix([[L.entries[i][j] + (lam if i == j else ScalarFraction(0))
                             for j in range(N)] for i in range(N)])
        corner = prod_q * (mu + mu_inv)
        if N % 2 == 0:
            corner = -corner
        pN = shifted.det() - corner
        if check_id == "curve_NxN":
            # mu-freeness through a fresh spectral variable: no gcd is taken,
            # so a factor of mu may sit in both num and den and an exponent
            # scan is unreliable
            nu = Scalar.var("nu")
            pN_nu = ScalarFraction(pN.num.substitute({"mu": nu}),
                                   pN.den.substitute({"mu": nu}))
            return [("corner-free remainder", pN - pN_nu)]
        T = classical_monodromy(chart, "lam")
        return [("trace identification", pN - T.trace())]

    raise ValueError(f"unknown classical check {check_id!r}")
