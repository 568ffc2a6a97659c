"""q-oscillator specialisation: Fock left actions and stochastic structure.

Left row states over N sites are finite combinations of occupation states
v^(k1..kN) with exact coefficients.  The deformed oscillator acts from the
right: v^(k) a = (1 - q^(-2k)) v^(k-1), v^(k) a* = v^(k+1),
v^(k) q^(2D) = q^(-2k) v^(k).  The geometric-like state built on levels
0..K is a truncated eigenstate of a with eigenvalue q^(-2); all identities
involving it hold exactly below the truncation level, and the defects are
confined to the top levels, which the checks inspect rather than discard.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import weyl
from .quantum import ModelParams, build_lax
from .ring import Scalar, ScalarFraction, accumulate, check_bound, var_key
from .weyl import Lattice, WeylOp, decode_key

__all__ = ["FockVector", "fock_act", "build_state", "weyl_act",
           "osc_a", "osc_astar", "osc_qd", "MIN_TRUNC"]

# Smallest truncation level that leaves interior levels for the checks.
MIN_TRUNC = 3


def _q(k: int) -> Scalar:
    return Scalar.var("s", 2 * k)


_ZERO = ScalarFraction(0)


class FockVector:
    """Left row vector: map from level tuples to fraction coefficients."""

    __slots__ = ("sites", "trunc", "coeffs")

    def __init__(self, sites: int, trunc: int, coeffs: dict[tuple, ScalarFraction]):
        self.sites = sites
        self.trunc = trunc
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def basis(cls, levels: tuple, trunc: int) -> "FockVector":
        return cls(len(levels), trunc, {tuple(levels): ScalarFraction(1)})

    def _like(self, coeffs: dict[tuple, ScalarFraction]) -> "FockVector":
        return FockVector(self.sites, self.trunc, coeffs)

    def __add__(self, other: "FockVector") -> "FockVector":
        if (self.sites, self.trunc) != (other.sites, other.trunc):
            raise ValueError("incompatible Fock spaces")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        return self._like(out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other._like({k: -c for k, c in other.coeffs.items()})

    def scale(self, c: Scalar) -> "FockVector":
        return self._like({k: v * c for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def support_levels(self) -> set[tuple]:
        return set(self.coeffs)

    def interior_part(self) -> "FockVector":
        """Components with every site level strictly below the truncation."""
        return self._like({k: c for k, c in self.coeffs.items()
                           if all(x < self.trunc for x in k)})

    def coefficient(self, levels: tuple) -> ScalarFraction:
        return self.coeffs.get(tuple(levels), _ZERO)

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            parts.append(f"({self.coefficient(k).to_text()}) v{list(k)}")
        return "  +  ".join(parts)

    def __repr__(self):
        return f"FockVector({self.to_text()})"


def fock_act(op: str, site: int, v: FockVector) -> FockVector:
    """Right action of a single oscillator generator on a left state.

    Raising past the truncation level is recorded, not dropped: the overflow
    component at level K+1 stays in the vector and the checks locate it.
    """
    if not 1 <= site <= v.sites:
        raise ValueError(f"site {site} outside the {v.sites}-site state")
    # each generator moves one site's level by a fixed step: no two components meet
    out: dict[tuple, ScalarFraction] = {}
    i = site - 1
    for levels, c in v.coeffs.items():
        k = levels[i]
        if op == "a":
            if k > 0:
                out[levels[:i] + (k - 1,) + levels[i + 1:]] = c * (Scalar.const(1) - _q(-2 * k))
        elif op == "astar":
            out[levels[:i] + (k + 1,) + levels[i + 1:]] = c
        elif op == "qD":
            out[levels] = c * _q(-2 * k)
        else:
            raise ValueError(f"unknown oscillator generator {op!r}")
    return v._like(out)


def build_state(kind: str, K: int, N: int = 1) -> FockVector:
    """The geometric state on levels <= K: ``"omega"`` on one site, or
    ``"Omega"``, its N-fold tensor power."""
    # level k of a site is q^(-2k) / prod_{j<=k}(1 - q^(-2j)), over its own factors
    levels = [ScalarFraction(1)]
    for k in range(1, K + 1):
        levels.append(levels[-1] * ScalarFraction(_q(-2), Scalar.const(1) - _q(-2 * k)))
    if kind == "omega":
        # every level over level K's factors, so that column_eigen's sums keep one map
        tails = [Scalar.const(1)]  # prod_{k<j<=K}(1 - q^(-2j)) for k = K, K-1, ..., 0
        for k in range(K, 0, -1):
            tails.append(tails[-1] * (Scalar.const(1) - _q(-2 * k)))
        return FockVector(1, K, {(k,): ScalarFraction.over(_q(-2 * k) * tail, levels[K])
                                 for k, tail in enumerate(reversed(tails))})
    if kind == "Omega":
        # a tensor level is the product of its sites' level fractions
        coeffs = {(): ScalarFraction(1)}
        for _ in range(N):
            coeffs = {lv + (k,): c * f for lv, c in coeffs.items() for k, f in enumerate(levels)}
        return FockVector(N, K, coeffs)
    raise ValueError(f"unknown state kind {kind!r}")


# -- Weyl realisation ------------------------------------------------------------


def osc_a(lattice: Lattice, n: int) -> WeylOp:
    """a_n = (1 - V_n^-1) U_n^-1."""
    return (WeylOp.word(lattice, [(n, "U", -1)])
            - WeylOp.word(lattice, [(n, "V", -1), (n, "U", -1)]))


def osc_astar(lattice: Lattice, n: int) -> WeylOp:
    return WeylOp.word(lattice, [(n, "U", 1)])


def osc_qd(lattice: Lattice, n: int) -> WeylOp:
    return WeylOp.word(lattice, [(n, "V", -1)])


def weyl_act(v: FockVector, op: WeylOp) -> FockVector:
    """Right action of a Weyl operator: v^(k) V^a U^b = q^(2ka) v^(k+b).

    Levels pushed below zero annihilate the state; that matches the left
    oscillator action whenever the operator lies in the oscillator algebra.
    Each (operator term, state component) product adds its numerator, moved
    by its phase, into one raw row per output level tuple and factor map of
    the component's denominator (:func:`~toda2.ring.accumulate`).  Each row
    is one fraction over its map, and the rows of one level add as fractions.
    """
    if op.lattice.size != v.sites:
        raise ValueError(f"{op.lattice.size}-site operator on a {v.sites}-site state")
    # factor map -> a component over it and the rows of its group
    groups: dict[frozenset, tuple[ScalarFraction, dict]] = {}
    comps = []
    for levels, c in v.coeffs.items():
        _, rows = groups.setdefault(frozenset(c.factors.items()), (c, {}))
        comps.append((levels, c.num, rows))
    keys: dict[int, int] = {}
    bound = 0
    s = var_key("s", 1)  # phase * s packs s^phase: check_bound keeps the phase in range
    for key, scal in op.terms.items():
        site_exp = {site: (a2, b2) for site, a2, b2 in decode_key(key)}
        if any(a2 % 2 or b2 % 2 for a2, b2 in site_exp.values()):
            raise ValueError("half-integer exponents have no Fock action here")
        for levels, c, rows in comps:
            new = list(levels)
            phase = 0
            for site, (a2, b2) in site_exp.items():
                k = levels[site - 1]
                phase += 2 * k * a2  # v^(k) V^a = q^(2ka) v^(k), a = a2/2
                new[site - 1] = k + b2 // 2
            if min(new) < 0:
                continue
            # a result exponent sums one of c, one of scal and the phase
            bound = max(bound, check_bound(c.exp_bound + scal.exp_bound + abs(phase)))
            row = rows.setdefault(tuple(new), {})
            accumulate(row, c.terms.items(), scal.terms.items(), phase * s, keys)
    out: dict[tuple, ScalarFraction] = {}
    for first, rows in groups.values():
        for levels, row in rows.items():
            f = ScalarFraction.over(Scalar(row, bound), first)
            out[levels] = out[levels] + f if levels in out else f
    return v._like(out)


def stochastic_hamiltonian(lattice: Lattice) -> WeylOp:
    """H = sum_n { a_n a*_{n+1} + q^(2 D_n) } on the periodic chain."""
    total = WeylOp.zero(lattice)
    for n in range(1, lattice.size + 1):
        total = total + osc_a(lattice, n) * osc_astar(lattice, n + 1)
        total = total + osc_qd(lattice, n)
    return total


@lru_cache(maxsize=1)
def _interior_defect(K: int, N: int, term_cap: int) -> FockVector:
    """Interior part of H Omega - N Omega, shared by ``Omega_H1`` and
    ``zero_column_sum``.  ``term_cap`` is the ``weyl.TERM_CAP`` in effect,
    which building H can trip."""
    Om = build_state("Omega", K, N=N)
    H = stochastic_hamiltonian(Lattice(N, True))
    return (weyl_act(Om, H) - Om.scale(Scalar.const(N))).interior_part()


# -- named checks ----------------------------------------------------------------


def check_stoch(check_id: str, K: int, N: int, mutate: bool = False):
    """Labelled residuals of the oscillator and stochastic-structure checks at
    truncation K on N sites."""
    if K < MIN_TRUNC:
        raise ValueError("truncation too small to leave interior levels")
    lat1 = Lattice(1, True)
    s4 = lambda k: Scalar.var("s", k)

    if check_id == "qosc_algebra":
        latN = Lattice(max(N, 2), True)
        items = []
        for n in (1, 2):
            a = osc_a(latN, n)
            astar = osc_astar(latN, n)
            qd = osc_qd(latN, n)
            one = WeylOp.one(latN)
            items += [
                (f"a a* (site {n})", a * astar - (one - qd)),
                (f"a* a (site {n})", astar * a - (one - qd * s4(-4))),
                (f"a qD (site {n})", a * qd - qd * a * s4(4)),
                (f"a* qD (site {n})", astar * qd - qd * astar * s4(-4)),
            ]
        items.append(("cross-site", osc_a(latN, 1).commutator(osc_astar(latN, 2))))
        return items

    if check_id == "Lqosc_match":
        params = ModelParams.q_osc()
        lam = Scalar.var("lam")
        lhs = build_lax("Lloc", 1, lam, params, lat1)
        rhs = build_lax("Lqosc", 1, lam, params, lat1)
        res = lhs.sub(rhs)
        return [("preset substitution", res)]

    if check_id == "column_eigen":
        params = ModelParams.q_osc()
        lam = Scalar.var("lam")
        om = build_state("omega", K)
        L = build_lax("Lqosc", 1, lam, params, lat1)
        eigen = lam - Scalar.const(1)
        if mutate:
            eigen = lam + Scalar.const(1)
        items = []
        for col in (0, 1):
            colsum = L.entries[0][col] + L.entries[1][col]
            diff = (weyl_act(om, colsum) - om.scale(eigen)).interior_part()
            items.append((f"column {col + 1}", diff))
        return items

    if check_id == "omega_identity":
        om = build_state("omega", K)
        lhs = fock_act("astar", 1, om).scale(-s4(-4))
        rhs = fock_act("qD", 1, om) - om
        diff = lhs - rhs
        bad = {lv for lv in diff.support_levels() if lv[0] <= K}
        return [("interior part", diff.interior_part()),
                ("defect below top level", diff._like({lv: diff.coeffs[lv] for lv in bad}))]

    if check_id in ("Omega_H1", "zero_column_sum"):
        defect = _interior_defect(K, N, weyl.TERM_CAP)
        if check_id == "Omega_H1":
            return [("interior levels", defect)]
        # per-column statement: interior columns of the truncated generator
        # have vanishing weighted sums; every level of Omega is nonzero, so
        # the columns are all the interior levels
        return [(f"column {list(lv)}", defect.coefficient(lv))
                for lv in product(range(K), repeat=N)]

    if check_id == "realisation_consistency":
        generators = (("a", "a", osc_a(lat1, 1)),
                      ("a*", "astar", osc_astar(lat1, 1)),
                      ("qD", "qD", osc_qd(lat1, 1)))
        items = []
        for k in range(0, K):
            v = FockVector.basis((k,), K)
            for label, fock_name, wop in generators:
                items.append((f"{label} on level {k}",
                              fock_act(fock_name, 1, v) - weyl_act(v, wop)))
        return items

    raise ValueError(f"unknown stochastic check {check_id!r}")
