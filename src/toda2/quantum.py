"""Quantum lattice: structure matrices, Lax operators, transfer traces, checks.

The chain operators P_n, Q_n^2 are realised on the multi-site Weyl algebra
(P_n = V_n^-1 + U_n U_{n+1}^-1, Q_n^2 = q^(1/2) V_{n+1}^-1 U_n U_{n+1}^-1);
the local Lax matrix has the non-ultralocal 2x2 form and its exchange
relations are governed by four quadratic structure matrices.  A site-local
gauge transformation turns the dressed Lax matrix into an ultralocal one and
identifies the two transfer matrices up to a twist, a parameter rescaling and
an overall scalar; every step of that chain is verified here as an exact
operator identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import NamedTuple

from .matops import OpMatrix, embed, product_difference
from . import poisson
from .ring import Scalar, ScalarFraction
from .weyl import Lattice, WeylOp

__all__ = [
    "ModelParams", "build_aux", "build_exchange", "build_scalar_aux",
    "build_companion", "build_lax",
    "op_P", "op_Q2", "op_Q", "monodromy", "transfer_trace", "spectral_coefficients",
    "hamiltonians", "trq", "build_xi_quantum", "quantum_wronskian",
    "check_fm", "check_ybe", "check_ultralocalisation", "check_representation",
    "check_hamiltonians",
]


def _s(k: int = 1) -> Scalar:
    return Scalar.var("s", k)


def _c(v) -> Scalar:
    return Scalar.const(v)


def _weight(a: int, b: int) -> Scalar:
    return _s(a) - _s(b)


class ModelParams(NamedTuple):
    """The three deformation constants of the local Lax family."""

    d1: Scalar
    d2: Scalar
    d3: Scalar

    @classmethod
    def generic(cls) -> "ModelParams":
        return cls(Scalar.var("d1"), Scalar.var("d2"), Scalar.var("d3"))

    @classmethod
    def q_toda(cls) -> "ModelParams":
        return cls(Scalar.var("d1"), Scalar.zero(), Scalar.zero())

    @classmethod
    def toda2(cls) -> "ModelParams":
        return cls(Scalar.zero(), Scalar.var("d2"), Scalar.zero())

    @classmethod
    def q_osc(cls) -> "ModelParams":
        return cls(-_s(-2), _c(1), Scalar.zero())


# -- auxiliary-space structure matrices ------------------------------------------


def build_aux(kind: str, l1: Scalar, l2: Scalar) -> OpMatrix:
    """4x4 structure matrices on the doubled auxiliary space.

    ``A`` and ``D`` (and the twisted R-matrix, which coincides with ``A``)
    are returned multiplied by their denominator lam2*q^2 - lam1, so each
    identity using them carries one such factor per side: ``AD``,
    ``ATT_TTD``, ``DGCG_general``, ``dual_general`` and ``RLL_ultralocal``
    one each, ``YBE_twisted`` three.
    """
    one, zero = _c(1), Scalar.zero()
    q2 = _s(4)

    if kind in ("A", "Rtwisted"):
        den = l2 * q2 - l1
        m = [[den, zero, zero, zero],
             [zero, l2 - l1, l1 * (q2 - one), zero],
             [zero, l2 * (q2 - one), (l2 - l1) * q2, zero],
             [zero, zero, zero, den]]
        return OpMatrix(m)
    if kind == "D":
        den = l2 * q2 - l1
        m = [[den, zero, zero, zero],
             [zero, (l2 - l1) * q2, l2 * (q2 - one), zero],
             [zero, l1 * (q2 - one), l2 - l1, zero],
             [zero, l1 * (l2 - l1) * (q2 - one), -(l2 * (l2 - l1) * (q2 - one)), den]]
        return OpMatrix(m)
    if kind == "C":
        m = [[one, zero, zero, zero],
             [zero, one, -(_s(3) - _s(-1)), zero],
             [zero, zero, q2, zero],
             [zero, zero, l2 * (q2 - one), one]]
        return OpMatrix(m)
    if kind == "B":
        m = [[one, zero, zero, zero],
             [zero, q2, zero, zero],
             [zero, -(_s(3) - _s(-1)), one, zero],
             [zero, l1 * (q2 - one), zero, one]]
        return OpMatrix(m)
    raise ValueError(f"unknown auxiliary matrix kind {kind!r}")


def build_exchange(kind: str) -> OpMatrix:
    """The spectral-free doublet exchange matrices ``Rplus`` and ``Rminus``
    (``poisson.exchange`` with s-power entries)."""
    signs = {"Rplus": 1, "Rminus": -1}
    if kind not in signs:
        raise ValueError(f"unknown exchange matrix kind {kind!r}")
    return OpMatrix(poisson.exchange(signs[kind], _s, _weight))


def q_sigma_z() -> OpMatrix:
    """diag(q^-1, q), the twist q^(-sigma^z) that closes the trace."""
    zero = Scalar.zero()
    return OpMatrix([[_s(-2), zero], [zero, _s(2)]])


def build_scalar_aux(kind: str, lam: Scalar, params: ModelParams) -> OpMatrix:
    """2x2 numerical dressing matrices ``G0`` and ``Gtilde0`` of the model
    ``params``: the ``M0`` companions (1, s^b d2 d3, 1 - s^4, s^d d1) with
    (b, d) = (7, 5) and (-1, 1)."""
    powers = {"G0": (7, 5), "Gtilde0": (-1, 1)}
    if kind not in powers:
        raise ValueError(f"unknown scalar matrix kind {kind!r}")
    b, d = powers[kind]
    return build_companion("M0", lam, (_c(1), _s(b) * params.d2 * params.d3,
                                       _c(1) - _s(4), _s(d) * params.d1))


def build_companion(kind: str, lam: Scalar,
                    greek: tuple[Scalar, Scalar, Scalar, Scalar]) -> OpMatrix:
    """2x2 companion matrices ``M0`` and ``Mtilde0`` with the four free
    parameters ``greek``."""
    one = _c(1)
    al, be, ga, de = greek
    if kind not in ("M0", "Mtilde0"):
        raise ValueError(f"unknown companion matrix kind {kind!r}")
    corner = _s(-1) if kind == "M0" else _s(3)
    if (ga - one).is_zero():
        raise ValueError("the gamma = 1 branch is excluded from this family")
    m = [[one, be * lam],
         [ga * lam, corner + de * lam + be * lam * lam]]
    return OpMatrix(m).scale(al)


# -- chain operators and Lax matrices --------------------------------------------


def _words(lattice: Lattice, words) -> WeylOp:
    """The sum of the normal-ordered words."""
    return sum((WeylOp.word(lattice, word) for word in words), WeylOp.zero(lattice))


def op_P(lattice: Lattice, n: int) -> WeylOp:
    """P_n = V_n^-1 + U_n U_{n+1}^-1 (``poisson.p_words``)."""
    return _words(lattice, poisson.p_words(n))


def op_Q2(lattice: Lattice, n: int) -> WeylOp:
    """Q_n^2 = q^(1/2) V_{n+1}^-1 U_n U_{n+1}^-1 (``poisson.q2_word``)."""
    return WeylOp.word(lattice, poisson.q2_word(n), _s(1))


def op_Q(lattice: Lattice, n: int) -> WeylOp:
    """The square root of Q_n^2: the word of Q_n^2 at half its powers."""
    return WeylOp.word(lattice, [(k, g, Fraction(e, 2)) for k, g, e in poisson.q2_word(n)])


def build_lax(kind: str, n: int, lam: Scalar, params: ModelParams,
              lattice: Lattice) -> OpMatrix:
    """2x2 Lax and gauge matrices with Weyl-operator entries at site n."""
    one = WeylOp.one(lattice)
    zero = WeylOp.zero(lattice)
    W = lambda factors, coeff=1: WeylOp.word(lattice, factors, coeff)

    if kind == "l":
        return OpMatrix(poisson.local_lax(WeylOp.scalar(lam, lattice), op_P(lattice, n),
                                          op_Q2(lattice, n), one, zero))

    if kind == "lhat":
        return build_lax("l", n, lam, params, lattice).mul(
            build_scalar_aux("G0", lam, params))

    if kind == "scriptL" or kind == "scriptLtilde":
        d1 = params.d1 if kind == "scriptL" else _s(-4) * params.d1
        d23 = params.d2 * params.d3
        e12 = -(W([(n, "U", -1)], _s(3) * lam)
                + W([(n, "V", -1), (n, "U", -1)], _s(5) * d1 * lam)
                + W([(n, "V", -2), (n, "U", -1)], _s(7) * d23 * lam))
        m = [[WeylOp.scalar(_s(4) * lam, lattice) - W([(n, "V", -1)]),
              e12],
             [W([(n, "U", 1)], _s(1)),
              -one + W([(n, "V", -1)], _s(4) * d23 * lam)]]
        return OpMatrix(m)

    if kind == "Lloc":
        d1, d2, d3 = params.d1, params.d2, params.d3
        e12 = (W([(n, "U", -1)], _s(4) * d2 * lam)
               + W([(n, "V", -1), (n, "U", -1)], _s(6) * d1 * lam)
               + W([(n, "V", -2), (n, "U", -1)], _s(8) * d3 * lam))
        m = [[WeylOp.scalar(lam, lattice) - W([(n, "V", -1)]), e12],
             [W([(n, "U", 1)], -_s(-4)),
              WeylOp.scalar(-d2, lattice) + W([(n, "V", -1)], d3 * lam)]]
        return OpMatrix(m)

    if kind == "Lqosc":
        e12 = (W([(n, "U", -1)], _s(4) * lam)
               - W([(n, "V", -1), (n, "U", -1)], _s(4) * lam))
        m = [[WeylOp.scalar(lam, lattice) - W([(n, "V", -1)]), e12],
             [W([(n, "U", 1)], -_s(-4)), -one]]
        return OpMatrix(m)

    if kind == "gaugeN":
        m = [[one, W([(n, "U", -1)], -_s(-1))],
             [zero, W([(n, "V", -1), (n, "U", -1)])]]
        return OpMatrix(m)

    if kind == "gaugeNinv":
        m = [[one, W([(n, "V", 1)], _s(-1))],
             [zero, W([(n, "U", 1), (n, "V", 1)])]]
        return OpMatrix(m)

    if kind == "gauge_l_display":
        # N_{n+1}^-1 l_n N_n, which is already ultralocal at site n.
        e12 = (W([(n, "U", -1)], -_s(-1) * lam)
               + W([(n, "V", -1), (n, "U", -1)], _s(-1) - _c(1)))
        m = [[WeylOp.scalar(lam, lattice) - W([(n, "V", -1)]), e12],
             [W([(n, "U", 1)], _s(1)), -one]]
        return OpMatrix(m)

    if kind == "gauge_G_display":
        # N_n^-1 G0 N_n with both long entries written out.
        d1, d23 = params.d1, params.d2 * params.d3
        c12 = (_s(-2) - _s(-1) + _s(4) * d1 * lam
               + _s(6) * d23 * lam * lam)
        e12 = (W([(n, "U", -1)], c12)
               + W([(n, "V", -1), (n, "U", -1)], _s(7) * d23 * lam)
               - W([(n, "V", 1), (n, "U", -1)], (_s(-2) - _s(2)) * lam))
        e22 = (WeylOp.scalar(_s(-1) + _s(5) * d1 * lam
                             + _s(7) * d23 * lam * lam, lattice)
               - W([(n, "V", 1)], (_s(3) - _s(7)) * lam))
        m = [[one + W([(n, "V", 1)], (_s(-1) - _s(3)) * lam), e12],
             [W([(n, "U", 1), (n, "V", 1)], (_c(1) - _s(4)) * lam), e22]]
        return OpMatrix(m)

    raise ValueError(f"unknown Lax kind {kind!r}")


# -- monodromy and transfer traces ------------------------------------------------


def monodromy(N: int, lam: Scalar, params: ModelParams) -> OpMatrix:
    """Dressed product over the chain: hat-l at sites N..2, bare l at site 1."""
    lattice = Lattice(N, True)
    factors = [build_lax("lhat", n, lam, params, lattice) for n in range(N, 1, -1)]
    return reduce(OpMatrix.mul, factors + [build_lax("l", 1, lam, params, lattice)])


def transfer_trace(kind: str, N: int, lam: Scalar, params: ModelParams) -> WeylOp:
    """Generating functions of conserved quantities (polynomial in the spectral variable)."""
    lattice = Lattice(N, True)
    if kind == "tau":
        t = monodromy(N, lam, params)
        close = build_scalar_aux("Gtilde0", lam, params).mul(q_sigma_z())
        return t.mul(close).trace()
    if kind == "tloc":
        return reduce(OpMatrix.mul, (build_lax("Lloc", n, lam, params, lattice)
                                     for n in range(N, 0, -1))).trace()
    raise ValueError(f"unknown transfer kind {kind!r}")


def spectral_coefficients(kind: str, N: int, params: ModelParams) -> tuple[list[WeylOp], WeylOp]:
    """The lam-coefficients c_0 .. c_N of ``transfer_trace(kind, N, lam, params)``
    and the leftover t - sum_a c_a lam^a, which is zero when t has degree N."""
    lam = Scalar.var("lam")
    t = transfer_trace(kind, N, lam, params)
    cs = [t.coeff_of_var("lam", a) for a in range(N + 1)]
    return cs, t - WeylOp.dot((c, lam ** a) for a, c in enumerate(cs))


def hamiltonians(N: int, params: ModelParams) -> list[WeylOp]:
    """Coefficients H_j of the ultralocal transfer trace, sign convention
    t_loc(lam) = sum_j (-1)^j lam^(N-j) H_j."""
    cs, _ = spectral_coefficients("tloc", N, params)
    return [-c if j % 2 else c for j, c in enumerate(reversed(cs))]


def trq(power: int, N: int) -> WeylOp:
    lattice = Lattice(N, True)
    if power == 1:
        total = WeylOp.zero(lattice)
        for n in range(1, N + 1):
            total = total + op_P(lattice, n)
        return total
    if power == 2:
        coeff = _s(3) + _s(-1)
        total = WeylOp.zero(lattice)
        for n in range(1, N + 1):
            p = op_P(lattice, n)
            total = total + p * p + op_Q2(lattice, n) * coeff
        return total
    raise ValueError("only first and second q-traces are defined")


# -- quantum doublet realisation ---------------------------------------------------


def build_xi_quantum(component: int, n: int, lattice: Lattice) -> WeylOp:
    """Weyl realisation of the quantum doublet on an open chain
    (``poisson.doublet_words``)."""
    return _words(lattice, poisson.doublet_words(component, n))


def quantum_wronskian(p: int, n: int, lattice: Lattice) -> WeylOp:
    """W_n^(p) = q xi^1_n xi^2_{n+p} - xi^2_n xi^1_{n+p} (``poisson.wronskian``)."""
    return poisson.wronskian(lambda c, k: build_xi_quantum(c, k, lattice), n, p, _s(2))


# -- named checks ------------------------------------------------------------------


def check_fm(check_id: str, N: int = 3, mutate: bool = False) -> list:
    """Labelled residuals of the quadratic exchange structure: site
    relations, compatibility, monodromy."""
    params = ModelParams.generic()
    l1 = Scalar.var("lam1")
    l2 = Scalar.var("lam2")
    # build only the structure matrices the identity under test uses
    used = {"AD": "AD", "B": "C", "C": "B", "distant_commute": ""}.get(check_id, "ABCD")
    A, B, C, D = (build_aux(k, l1, l2) if k in used else None for k in "ABCD")

    if check_id in ("AD", "B", "C"):
        if N < 3:
            raise ValueError("site relations need at least three sites")
        lattice = Lattice(N, True)
        items = []
        for n in range(1, N + 1):
            if check_id == "AD":
                x1 = embed(build_lax("l", n, l1, params, lattice), (1,), 2)
                x2 = embed(build_lax("l", n, l2, params, lattice), (2,), 2)
                res = product_difference(A.mul(x1), x2, x2, x1.mul(D))
            elif check_id == "B":
                # neighbouring sites exchange through the C-type matrix
                x1 = embed(build_lax("l", n, l1, params, lattice), (1,), 2)
                y2 = embed(build_lax("l", n + 1, l2, params, lattice), (2,), 2)
                res = product_difference(x1, y2, y2.mul(C), x1)
            else:
                x2 = embed(build_lax("l", n, l2, params, lattice), (2,), 2)
                y1 = embed(build_lax("l", n + 1, l1, params, lattice), (1,), 2)
                res = product_difference(x2, y1, y1.mul(B), x2)
            items.append((f"site {n}", res))
        return items

    if check_id == "DGCG_general":
        greek = tuple(Scalar.var(nm) for nm in ("alpha", "beta", "gamma", "delta"))

        def companion(lam):
            m = build_companion("M0", lam, greek)
            if mutate:
                # corrupt the pinned corner constant; a sign flip of one free
                # parameter would land on another valid solution of the family
                shift = greek[0] * (_s(1) - _s(-1))
                m.entries[1][1] = m.entries[1][1] + shift
            return m

        M1 = embed(companion(l1), (1,), 2)
        M2 = embed(companion(l2), (2,), 2)
        res = product_difference(D.mul(M1).mul(C), M2, M2.mul(B).mul(M1), A)
        return [("compatibility", res)]

    if check_id == "dual_general":
        greekt = tuple(Scalar.var(nm) for nm in ("alphat", "betat", "gammat", "deltat"))
        Bt = B.partial_transpose(1).inverse_comm().partial_transpose(1)
        Ct = C.partial_transpose(2).inverse_comm().partial_transpose(2)
        one4 = OpMatrix.identity(4, ScalarFraction(1))
        invB = Bt.partial_transpose(1).mul(B.partial_transpose(1)).sub(one4)
        invC = Ct.partial_transpose(2).mul(C.partial_transpose(2)).sub(one4)
        Mt1 = embed(build_companion("Mtilde0", l1, greekt), (1,), 2)
        Mt2 = embed(build_companion("Mtilde0", l2, greekt), (2,), 2)
        lhs = D.mul(Mt2).mul(Bt).mul(Mt1)
        rhs = Mt1.mul(Ct).mul(Mt2).mul(A)
        res = lhs.sub(rhs)
        return [("partial-transpose inverse (B)", invB),
                ("partial-transpose inverse (C)", invC),
                ("dual compatibility", res)]

    if check_id == "ATT_TTD":
        T1 = embed(monodromy(N, l1, params), (1,), 2)
        T2 = embed(monodromy(N, l2, params), (2,), 2)
        # the c-number matrices multiply into T1 alone, so each side has one
        # operator-by-operator product and the residual fuses the two:
        # A T1 B T2 - T2 C T1 D = X T2 - T2 Z
        X = A.mul(T1).mul(B)
        Z = C.mul(T1).mul(D)
        return [("quadratic algebra", product_difference(X, T2, T2, Z))]

    if check_id == "distant_commute":
        lattice = Lattice(N, True)
        items = []
        for n in range(1, N + 1):
            for m in range(1, N + 1):
                gap = min((n - m) % N, (m - n) % N)
                if gap < 2:
                    continue
                ln = build_lax("l", n, l1, params, lattice)
                lm = build_lax("l", m, l2, params, lattice)
                for i in range(2):
                    for j in range(2):
                        for a in range(2):
                            for b in range(2):
                                c = ln.entries[i][j].commutator(lm.entries[a][b])
                                if not c.is_zero():
                                    items.append((f"[l_{n}({i}{j}), l_{m}({a}{b})]", c))
        return items or [("all distant entry pairs", WeylOp.zero(lattice))]

    raise ValueError(f"unknown exchange check {check_id!r}")


def check_ybe(check_id: str, mutate: bool = False) -> list:
    l1 = Scalar.var("lam1")
    l2 = Scalar.var("lam2")
    if check_id == "YBE_twisted":
        l3 = Scalar.var("lam3")
        R12 = embed(build_aux("Rtwisted", l1, l2), (1, 2), 3)
        R13 = embed(build_aux("Rtwisted", l1, l3), (1, 3), 3)
        R23 = embed(build_aux("Rtwisted", l2, l3), (2, 3), 3)
        res = product_difference(R12.mul(R13), R23, R23.mul(R13), R12)
        return [("triple exchange", res)]
    if check_id == "RLL_ultralocal":
        params = ModelParams.generic()
        lattice = Lattice(3, True)
        R = build_aux("Rtwisted", l1, l2)
        items = []
        for n in (1, 2):
            lloc = build_lax("Lloc", n, l1, params, lattice)
            if mutate:
                lloc.entries[1][0] = WeylOp.zero(lattice)
            L1 = embed(lloc, (1,), 2)
            L2 = embed(build_lax("Lloc", n, l2, params, lattice), (2,), 2)
            res = product_difference(R.mul(L1), L2, L2, L1.mul(R))
            items.append((f"site {n}", res))
            if mutate:
                break
        return items
    raise ValueError(f"unknown exchange check {check_id!r}")


def check_ultralocalisation(step: str, N: int = 3, mutate: bool = False) -> list:
    params = ModelParams.generic()
    lam = Scalar.var("lam")

    if step in ("gauge_l", "gauge_G", "scriptL_assembly", "entrywise_conjugation"):
        lattice = Lattice(N, True)
        items = []
        for n in range(1, N + 1):
            if step == "gauge_l":
                lhs = build_lax("gaugeNinv", n + 1, lam, params, lattice).mul(
                    build_lax("l", n, lam, params, lattice)).mul(
                    build_lax("gaugeN", n, lam, params, lattice))
                rhs = build_lax("gauge_l_display", n, lam, params, lattice)
            elif step == "gauge_G":
                g0 = build_scalar_aux("G0", lam, params)
                if mutate:
                    g0.entries[1][0] = -g0.entries[1][0]
                lhs = build_lax("gaugeNinv", n, lam, params, lattice).mul(g0).mul(
                    build_lax("gaugeN", n, lam, params, lattice))
                rhs = build_lax("gauge_G_display", n, lam, params, lattice)
            elif step == "scriptL_assembly":
                lhs = build_lax("gauge_l_display", n, lam, params, lattice).mul(
                    build_lax("gauge_G_display", n, lam, params, lattice))
                rhs = build_lax("scriptL", n, lam, params, lattice)
            else:
                d2inv = Scalar.var("d2").monomial_inverse()
                sub = {"lam": _s(-4) * d2inv * lam}
                L = build_lax("scriptL", n, lam, params, lattice)
                Ls = L.map(lambda e: e.substitute(sub).conjugate_v())
                mapped = OpMatrix([
                    [Ls.entries[0][0], Ls.entries[0][1] * (-_s(5))],
                    [Ls.entries[1][0] * (-_s(-5)), Ls.entries[1][1]],
                ])
                lhs = mapped.scale(Scalar.var("d2"))
                rhs = build_lax("Lloc", n, lam, params, lattice)
            res = lhs.sub(rhs)
            items.append((f"site {n}", res))
        return items

    if step == "trace_identity":
        lattice = Lattice(N, True)
        gtilde = build_scalar_aux("Gtilde0", lam, params)
        # site-1 closure factor: gauge transform of the bare Lax dressed by
        # the trace-closing companion matrix
        lt = build_lax("gaugeNinv", 2, lam, params, lattice).mul(
            build_lax("l", 1, lam, params, lattice)).mul(gtilde).mul(
            build_lax("gaugeN", 1, lam, params, lattice))
        T = monodromy(N, lam, params)
        lhs_m = T.mul(gtilde).mul(q_sigma_z())
        scriptL = [build_lax("scriptL", n, lam, params, lattice) for n in range(N, 1, -1)]
        prod = reduce(OpMatrix.mul, scriptL + [lt])
        rhs_m = build_lax("gaugeN", N + 1, lam, params, lattice).mul(prod).mul(
            build_lax("gaugeNinv", 1, lam, params, lattice)).mul(q_sigma_z())
        gauge_res = lhs_m.sub(rhs_m)
        lhs_tr = rhs_m.trace()
        scriptL1 = build_lax("scriptL", 1, lam, params, lattice)
        rhs_tr = reduce(OpMatrix.mul, scriptL + [scriptL1]).trace() * _s(-2)
        # the d1-shift shortcut for the site-one factor is only valid when the
        # top coupling vanishes; assert agreement on that locus
        shortcut = lt.map(lambda e: e.substitute({"d3": 0})).sub(
            build_lax("scriptLtilde", 1, lam, params, lattice).map(
                lambda e: e.substitute({"d3": 0})))
        return [("gauged monodromy", gauge_res),
                ("closed trace", lhs_tr - rhs_tr),
                ("site-one shortcut without top coupling", shortcut)]

    if step == "taut":
        tau = transfer_trace("tau", N, lam, params)
        d2 = Scalar.var("d2")
        shifted = tau.substitute({"lam": _s(-4) * d2.monomial_inverse() * lam})
        lhs = shifted.conjugate_v() * (d2 ** N) * _s(2)
        tloc = transfer_trace("tloc", N, lam, params)
        return [("twisted rescaled trace", lhs - tloc)]

    raise ValueError(f"unknown ultralocalisation step {step!r}")


def check_representation(check_id: str, size: int) -> list:
    if size < 6:
        raise ValueError("the doublet realisation suite needs at least 6 sites")
    lattice = Lattice(size, False)
    d = lambda a, b: 1 if a == b else 0

    if check_id == "exchange_xi":
        Rp = build_exchange("Rplus")
        Rpm = Rp.add(build_exchange("Rminus"))
        splus = _s(1) + _s(-1)
        xi = {(n, c): build_xi_quantum(c, n, lattice)
              for n in range(1, size + 1) for c in (1, 2)}
        items = []
        for n in range(1, size + 1):
            for m in range(1, n + 1):
                # equal sites weight both exchange matrices by the deformed
                # step value at zero; cleared of its denominator
                M, scale = (Rp, _c(1)) if n > m else (Rpm, splus)
                for a in (1, 2):
                    for b in (1, 2):
                        lhs = xi[(n, a)] * xi[(m, b)] * scale
                        rhs = poisson.exchange_sum(xi, n, m, a, b, M.entries,
                                                   WeylOp.zero(lattice))
                        items.append((f"(n={n},m={m},a={a},b={b})", lhs - rhs))
        return items

    if check_id == "W_algebra_q":
        W = {(p, n): quantum_wronskian(p, n, lattice)
             for p in (1, 2) for n in range(1, size + 1 - p)}
        inner = range(2, size - 1)
        items = []
        for p, r, ns, ms in ((1, 1, range(1, size), range(1, size)),
                             (1, 2, range(1, size), range(1, size - 1)),
                             (2, 2, inner, inner)):
            c = poisson.W_BRACKETS[f"W{p}W{r}"]
            for n in ns:
                for m in ms:
                    x, y = W[(p, n)], W[(r, m)]
                    rhs = y * x * _s(c(n, m, d))
                    if p == r == 2:
                        rhs = sum(poisson.w2w2_tail(n, m, d, lambda k: W[(1, k)], _weight), rhs)
                    items.append((f"{p}{r}(n={n},m={m})", x * y - rhs))
        return items

    if check_id == "QP_relations":
        Q = {n: op_Q(lattice, n) for n in range(1, size)}
        P = {n: op_P(lattice, n) for n in range(1, size)}
        Q2 = {n: op_Q2(lattice, n) for n in range(1, size)}
        items = []
        for n in Q:
            for m in Q:
                r1 = Q[n] * Q[m] - Q[m] * Q[n] * _s(poisson.W_BRACKETS["W1W1"](n, m, d))
                items.append((f"QQ(n={n},m={m})", r1))
                r2 = P[n] * P[m] - P[m] * P[n] - poisson.pp_bracket(n, m, d, lambda k: Q2[k], _weight)
                items.append((f"PP(n={n},m={m})", r2))
                # {P_n, Q_m} = -{Q_m, P_n}
                r3 = P[n] * Q[m] - Q[m] * P[n] * _s(-poisson.W_BRACKETS["QP"](m, n, d))
                items.append((f"PQ(n={n},m={m})", r3))
        return items

    if check_id == "W1_monomial":
        items = []
        for n in range(1, size):
            w = quantum_wronskian(1, n, lattice)
            if w.term_count() != 1:
                items.append((f"n={n}", w))
            else:
                items.append((f"n={n}", WeylOp.zero(lattice)))
        return items

    if check_id == "QP_match":
        items = []
        Q = {n: quantum_wronskian(1, n, lattice).monomial_inverse() for n in range(1, size)}
        for n in Q:
            items.append((f"Q2(n={n})", Q[n] * Q[n] - op_Q2(lattice, n)))
        for n in range(2, size):
            w2 = quantum_wronskian(2, n - 1, lattice)
            left = Q[n - 1] * Q[n] * w2
            right = w2 * Q[n - 1] * Q[n]
            items.append((f"P orderings (n={n})", left - right))
            items.append((f"P(n={n})", left - op_P(lattice, n)))
        return items

    raise ValueError(f"unknown realisation check {check_id!r}")


def _commutators(ops: list[WeylOp], label: str) -> list:
    """``[x_a, x_b]`` for every pair ``a < b`` of ``ops``, labelled ``label.format(a, b)``."""
    return [(label.format(a, b), x.commutator(y))
            for (a, x), (b, y) in combinations(enumerate(ops), 2)]


def check_hamiltonians(check_id: str, N: int) -> list:
    lattice = Lattice(N, True)

    if check_id == "commute":
        return _commutators(hamiltonians(N, ModelParams.generic()), "[H{},H{}]")

    if check_id in ("tau_commute", "tloc_commute"):
        kind = "tau" if check_id == "tau_commute" else "tloc"
        items = []
        for n in sorted({2, N}):
            cs, rest = spectral_coefficients(kind, n, ModelParams.generic())
            # [t(lam1), t(lam2)] = sum_ab [c_a, c_b] lam1^a lam2^b
            items += _commutators(cs, f"N={n} [c{{}},c{{}}]")
            items.append((f"N={n} beyond degree {n}", rest))
        return items

    if check_id == "H1_qToda":
        hs = hamiltonians(N, ModelParams.q_toda())
        expect = WeylOp.zero(lattice)
        d1 = Scalar.var("d1")
        for n in range(1, N + 1):
            expect = expect + WeylOp.word(lattice, [(n, "V", -1)])
            expect = expect + WeylOp.word(
                lattice, [(n, "U", -1), (n - 1, "U", 1), (n, "V", -1)],
                coeff=_s(-2) * d1)
        return [("first charge", hs[1] - expect)]

    if check_id in ("H1_Toda2", "H2_Toda2", "trq_match1", "trq_match2"):
        hs = hamiltonians(N, ModelParams.toda2())
        if check_id == "trq_match1":
            return [("first q-trace", hs[1].substitute({"d2": 1}) - trq(1, N))]
        d2 = Scalar.var("d2")
        if check_id == "H1_Toda2":
            expect = WeylOp.zero(lattice)
            for n in range(1, N + 1):
                expect = expect + WeylOp.word(lattice, [(n, "V", -1)])
                expect = expect + WeylOp.word(lattice, [(n, "U", -1), (n - 1, "U", 1)],
                                              coeff=d2)
            return [("first charge", hs[1] - expect)]
        combo = hs[2] - hs[1] * hs[1] * _c(Fraction(1, 2))
        if check_id == "trq_match2":
            res = combo.substitute({"d2": 1}) - trq(2, N) * _c(Fraction(-1, 2))
            return [("second q-trace", res)]
        expect = WeylOp.zero(lattice)
        for n in range(1, N + 1):
            expect = expect + WeylOp.word(lattice, [(n, "V", -2)])
            expect = expect + WeylOp.word(
                lattice, [(n, "V", -1), (n, "U", 1), (n + 1, "U", -1)],
                coeff=d2 * (_c(1) + _s(-4)))
            expect = expect + WeylOp.word(
                lattice, [(n, "V", -1), (n - 1, "U", 1), (n, "U", -1)],
                coeff=d2 * (_c(1) + _s(4)))
            expect = expect + WeylOp.word(lattice, [(n, "U", 2), (n + 1, "U", -2)],
                                          coeff=d2 * d2)
        expect = expect * _c(Fraction(-1, 2))
        return [("second charge combination", combo - expect)]

    if check_id == "trq_commute":
        return _commutators([trq(1, N), trq(2, N)], "[trq1,trq2]")

    if check_id == "qosc_coherence":
        params = ModelParams.q_osc()
        lam = Scalar.var("lam")
        t_preset = transfer_trace("tloc", N, lam, params)
        prod = reduce(OpMatrix.mul, (build_lax("Lqosc", n, lam, params, lattice)
                                     for n in range(N, 0, -1)))
        return [("oscillator transfer", prod.trace() - t_preset)]

    raise ValueError(f"unknown Hamiltonian check {check_id!r}")
