"""Multi-site q-Weyl algebra with canonical normal ordering.

Each lattice site n carries an invertible pair (U_n, V_n) obeying
U_n V_n = q^2 V_n U_n, while generators at distinct sites commute.  Exponents
may be half-integers and are stored doubled, so the reordering factor
U^a V^b -> q^(2ab) V^b U^a is the integer power s^(2a*2b) of s = q^(1/2).

The canonical (normal) form of a monomial is V_n^a U_n^b per site, sites in
ascending order.  A :class:`WeylOp` is a merged sum of such monomials with
:class:`~toda2.ring.Scalar` coefficients.  The coefficient keys are
Kronecker-packed integers (:func:`~toda2.ring.pack_power`), so inside a product
the s-phase and each monomial product are integer additions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .ring import Scalar, check_bound, pack_power, var_index, var_key

__all__ = ["Lattice", "WeylOp", "TermCapExceeded", "TERM_CAP"]

# Guard against runaway expansions in exchange/commutativity checks.
TERM_CAP = 10 ** 6


class TermCapExceeded(RuntimeError):
    pass


class Lattice(NamedTuple):
    size: int
    periodic: bool

    def site(self, n: int) -> int:
        """Reduce a 1-based site index; periodic lattices wrap mod size."""
        if self.periodic:
            return (n - 1) % self.size + 1
        if not 1 <= n <= self.size:
            raise IndexError(f"site {n} outside open lattice of size {self.size}")
        return n


def _doubled(power) -> int:
    """Validate a half-integer power and return 2*power as an int."""
    if not isinstance(power, (int, Fraction)):
        raise TypeError(f"Weyl powers are int or Fraction, not {type(power).__name__}")
    d = Fraction(power) * 2
    if d.denominator != 1:
        raise ValueError(f"power {power} is not a half-integer")
    return int(d)


# A term key is a tuple of (site, a2, b2): the normal-ordered factor
# V_site^(a2/2) U_site^(b2/2), with (0, 0) sites omitted, sites ascending.


def _key_merge(k1: tuple, k2: tuple) -> tuple[tuple, int]:
    """Merge two normal-ordered keys; return (key, s_exponent) of the product."""
    phase = 0
    out = []
    i = j = 0
    n1, n2 = len(k1), len(k2)
    while i < n1 and j < n2:
        s1, a1, b1 = k1[i]
        s2, a2, b2 = k2[j]
        if s1 == s2:
            phase += b1 * a2  # U^b1 V^a2 = q^(2 b1 a2) V^a2 U^b1, in doubled powers of s
            a, b = a1 + a2, b1 + b2
            if a or b:
                out.append((s1, a, b))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    out.extend(k1[i:])
    out.extend(k2[j:])
    return tuple(out), phase


def _product(terms1: dict, terms2: dict) -> dict[tuple, Scalar]:
    """Terms of the normal-ordered product of two Weyl term maps.

    One fused loop: each pair of Weyl keys is merged once, and its s-phase
    and the products of the two coefficients' terms go straight into a raw
    accumulator over packed scalar keys.  One Scalar is built per surviving
    output key.
    """
    s_idx = var_index("s")
    shifts = {0: 0}
    acc: dict[tuple, dict[int, int | Fraction]] = {}
    # each sum m1 + m2 is a new int object, and the same key recurs across
    # rows: every row stores the one object ``keys`` holds for it, which keeps
    # a product's rows small
    keys: dict[int, int] = {}
    for k1, c1 in terms1.items():
        t1 = c1.terms
        for k2, c2 in terms2.items():
            k, ph = _key_merge(k1, k2)
            sh = shifts.get(ph)
            if sh is None:
                sh = shifts[ph] = pack_power(s_idx, ph)
            row = acc.get(k)
            if row is None:
                row = acc[k] = {}
            t2 = c2.terms
            for m1, x1 in t1.items():
                m1 += sh
                for m2, x2 in t2.items():
                    m = m1 + m2
                    x = row.get(m)
                    if x is None:
                        row[keys.setdefault(m, m)] = x1 * x2
                        continue
                    x += x1 * x2
                    if x:
                        row[m] = x
                    else:
                        del row[m]
            if not row:
                del acc[k]
            elif len(acc) > TERM_CAP:
                raise TermCapExceeded(f"product exceeds {TERM_CAP} terms")
    # each sum above adds three digits below 2**29, which cannot carry
    bound = check_bound(max((c.exp_bound for c in terms1.values()), default=0)
                        + max((c.exp_bound for c in terms2.values()), default=0)
                        + max(map(abs, shifts)))
    return {k: Scalar(row, bound) for k, row in acc.items()}


class WeylOp:
    """Normal-ordered finite sum of multi-site Weyl monomials."""

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice: Lattice, terms: dict[tuple, Scalar]):
        self.lattice = lattice
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, lattice: Lattice) -> "WeylOp":
        return cls(lattice, {})

    @classmethod
    def scalar(cls, coeff, lattice: Lattice) -> "WeylOp":
        c = coeff if isinstance(coeff, Scalar) else Scalar.const(coeff)
        return cls(lattice, {(): c})

    @classmethod
    def one(cls, lattice: Lattice) -> "WeylOp":
        return cls.scalar(1, lattice)

    @classmethod
    def generator(cls, lattice: Lattice, site: int, kind: str, power=1) -> "WeylOp":
        """A single U or V generator raised to a half-integer power."""
        return cls.word(lattice, [(site, kind, power)])

    @classmethod
    def word(cls, lattice: Lattice, factors: Sequence[tuple], coeff=1) -> "WeylOp":
        """Normal-order an ordered product of (site, 'U'|'V', power) factors.

        The factors multiply left to right; all reordering phases q^(2ab)
        are absorbed into the coefficient.
        """
        c = coeff if isinstance(coeff, Scalar) else Scalar.const(coeff)
        key: tuple = ()
        s_exp = 0
        for site, kind, power in factors:
            n = lattice.site(site)
            d = _doubled(power)
            if not d:
                continue
            if kind == "V":
                fk = ((n, d, 0),)
            elif kind == "U":
                fk = ((n, 0, d),)
            else:
                raise ValueError(f"unknown generator kind {kind!r}")
            key, ph = _key_merge(key, fk)
            s_exp += ph
        return cls(lattice, {key: c.shift(var_key("s", s_exp))})

    # -- linear structure ----------------------------------------------------

    def _check(self, other: "WeylOp") -> None:
        if self.lattice != other.lattice:
            raise ValueError(f"lattice mismatch: {self.lattice} vs {other.lattice}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = WeylOp.scalar(other, self.lattice)
        if not isinstance(other, WeylOp):
            return NotImplemented
        self._check(other)
        big, small = (self.terms, other.terms) if len(self.terms) >= len(other.terms) \
            else (other.terms, self.terms)
        out = dict(big)
        for k, c in small.items():
            nc = out.get(k)
            nc = c if nc is None else nc + c
            if nc.is_zero():
                out.pop(k, None)
            else:
                out[k] = nc
        return WeylOp(self.lattice, out)

    __radd__ = __add__

    def __neg__(self):
        return WeylOp(self.lattice, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = WeylOp.scalar(other, self.lattice)
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = WeylOp.scalar(other, self.lattice)
        if not isinstance(other, WeylOp):
            return NotImplemented
        self._check(other)
        return WeylOp(self.lattice, _product(self.terms, other.terms))

    def __rmul__(self, other):
        # Only scalars reach here; they commute with everything.
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    def commutator(self, other: "WeylOp") -> "WeylOp":
        return self * other - other * self

    # -- algebra maps --------------------------------------------------------

    def substitute(self, bindings) -> "WeylOp":
        """Apply a coefficient-ring substitution to every term."""
        out: dict[tuple, Scalar] = {}
        for k, c in self.terms.items():
            nc = c.substitute(bindings)
            if not nc.is_zero():
                prev = out.get(k)
                out[k] = nc if prev is None else prev + nc
        return WeylOp(self.lattice, out)

    def conjugate_v(self) -> "WeylOp":
        """Conjugation by the product over sites of the d2-twist operator.

        Acts as the algebra automorphism U_n -> d2^(-1) U_n, V_n -> d2 V_n.
        """
        out: dict[tuple, Scalar] = {}
        for k, c in self.terms.items():
            w = sum(a2 - b2 for _, a2, b2 in k)
            if w % 2:
                raise ValueError("conjugation would need a half-integer power of d2")
            out[k] = c.shift(var_key("d2", w // 2))
        return WeylOp(self.lattice, out)

    def monomial_inverse(self) -> "WeylOp":
        """Inverse of a single-term operator with invertible coefficient."""
        if len(self.terms) != 1:
            raise ValueError("only monomial Weyl operators are invertible")
        (k, c), = self.terms.items()
        # (V^a U^b)^(-1) = q^(2ab) V^(-a) U^(-b) per site.
        phase = sum(a2 * b2 for _, a2, b2 in k)
        inv_c = c.monomial_inverse().shift(var_key("s", phase))
        return WeylOp(self.lattice, {tuple((n, -a2, -b2) for n, a2, b2 in k): inv_c})

    # -- inspection ----------------------------------------------------------

    def zero_like(self) -> "WeylOp":
        return WeylOp(self.lattice, {})

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def coeff_of_var(self, name: str, power: int) -> "WeylOp":
        """Weyl coefficient of ``name**power`` inside the Scalar coefficients."""
        out = {}
        for k, c in self.terms.items():
            nc = c.coeff_of(name, power)
            if not nc.is_zero():
                out[k] = nc
        return WeylOp(self.lattice, out)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = WeylOp.scalar(other, self.lattice)
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self.lattice == other.lattice and self.terms == other.terms

    def __hash__(self):
        raise TypeError("WeylOp is not hashable")

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            factors = []
            for site, a2, b2 in k:
                if a2:
                    factors.append(f"V{site}^{_fmt_half(a2)}")
                if b2:
                    factors.append(f"U{site}^{_fmt_half(b2)}")
            mono = " ".join(factors) if factors else "1"
            parts.append(f"({c.to_text()}) {mono}")
        return "  +  ".join(parts)

    def __repr__(self):
        return f"WeylOp[{self.lattice.size}{'p' if self.lattice.periodic else 'o'}]({self.to_text()})"


def _fmt_half(doubled: int) -> str:
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"

