"""Multi-site q-Weyl algebra with canonical normal ordering.

Each lattice site n carries an invertible pair (U_n, V_n) obeying
U_n V_n = q^2 V_n U_n, while generators at distinct sites commute.  Exponents
may be half-integers and are stored doubled, so the reordering factor
U^a V^b -> q^(2ab) V^b U^a is the integer power s^(2a*2b) of s = q^(1/2).

The canonical (normal) form of a monomial is V_n^a U_n^b per site, sites in
ascending order.  A :class:`WeylOp` is a merged sum of such monomials with
:class:`~toda2.ring.Scalar` coefficients.  Both keys are Kronecker-packed
integers in the format of :mod:`toda2.ring`.  A Weyl key gives site n digit
2(n-1) for the doubled V power a2 and digit 2n-1 for the doubled U power b2,
and 0 is the identity; :func:`decode_key` reads it back as ``(site, a2, b2)``
triples.  The normal-ordered product of two monomials has the key ``k1 + k2``
and the s-phase ``sum_n b1_n * a2_n``, which depends only on the U part of
the left key and the V part of the right one.  The product kernel therefore
groups the left operand by U part and the right one by V part, reads the
phase of each pair of groups from a table over the distinct parts, and runs
its inner loops on integer additions only.  It sums several products in one
pass (:meth:`WeylOp.dot`), so a matrix entry or a residual ``a b - c d`` is
built without its products standing apart; ``a * b`` is the sum of one
product.  The output is built one slice at a time: both operands of every
product are also put into buckets by the site-1 factor ``V_1^a U_1^b`` of
their keys, a pair of buckets feeds exactly one slice (the keys whose site-1
factor is the product of the two), and each slice runs to completion over
every pair before the next one starts.  Keys in different slices differ, so
a finished slice is final: its surviving rows join the output and its
cancelled terms are gone, and only one slice's pre-cancellation terms are
ever live.  The term cap counts the live keys, the finished slices'
survivors plus the slice being built.  A call of at most ``SMALL_PAIRS`` key
pairs, and at most ``TERM_CAP``, skips the slices and runs one accumulator
with no cap check: it can hold no more keys than it has key pairs, so the cap
cannot trip there, sliced or not, and almost every product of the catalogue
is that small.  Each key's U part, V part and widest digit are read once
(:func:`_parts`), and each word is normal-ordered once
(:func:`_normal_order`); both memos are bounded pure functions of their
arguments.  The commutator is one fused pass of the same kind: ``k1 k2`` and
``k2 k1`` share their key, so each pair adds ``c1 c2 s^phi12`` and
``-c1 c2 s^phi21`` into one row and a pair with equal phases adds nothing.
All the kernels add every coefficient product through ``ring.accumulate``
and build one Scalar per surviving row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

from .ring import (PACK_BITS, Scalar, accumulate, check_bound, digits, pack_power, unpack_key,
                   var_index, var_key)

__all__ = ["Lattice", "WeylOp", "TermCapExceeded", "TERM_CAP", "decode_key"]

# Guard against runaway expansions in exchange/commutativity checks.
TERM_CAP = 10 ** 6

# A _dot call of at most this many key pairs (and at most TERM_CAP) runs one
# unsliced accumulator: almost every product of the catalogue is this small.
SMALL_PAIRS = 64


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
    if type(power) is int:
        return 2 * power
    if not isinstance(power, (int, Fraction)):
        raise TypeError(f"Weyl powers are int or Fraction, not {type(power).__name__}")
    d = Fraction(power) * 2
    if d.denominator != 1:
        raise ValueError(f"power {power} is not a half-integer")
    return int(d)


def _site(n) -> int:
    """Validate a site index: an int."""
    if not isinstance(n, int):
        raise TypeError(f"sites are int, not {type(n).__name__}")
    return n


@lru_cache(maxsize=1 << 12)
def _normal_order(lattice: Lattice, factors: tuple) -> tuple[int, int]:
    """The key and the s exponent of an ordered product of (site, 'U'|'V',
    doubled power) factors; see :meth:`WeylOp.word`.  Each word is
    normal-ordered once however often it is built."""
    key = 0
    s_exp = 0
    for site, kind, d in factors:
        n = lattice.site(site)
        a2, b2 = digits(key, 2 * n - 2, 2)
        if kind == "V":
            # U^b V^a = q^(2ba) V^a U^b, in doubled powers of s
            s_exp += b2 * d
            i, e = 2 * n - 2, a2 + d
        elif kind == "U":
            i, e = 2 * n - 1, b2 + d
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        check_bound(abs(e))
        key += d << (PACK_BITS * i)
    return key, s_exp


def decode_key(key: int) -> tuple:
    """The ``(site, a2, b2)`` triples of a packed Weyl key, the normal-ordered
    factors V_site^(a2/2) U_site^(b2/2): sites ascending, (0, 0) sites omitted."""
    sites: dict[int, list[int]] = {}
    for i, d in unpack_key(key):
        sites.setdefault(i // 2 + 1, [0, 0])[i % 2] = d
    return tuple((n, a2, b2) for n, (a2, b2) in sites.items())


@lru_cache(maxsize=1 << 14)
def _parts(key: int, size: int) -> tuple[tuple, tuple, int]:
    """The U part and the V part of a Weyl key on ``size`` sites, as tuples of
    doubled powers by site, and its widest |digit|.  A key is read once however
    many products it enters."""
    ds = digits(key, 0, 2 * size)
    return tuple(ds[1::2]), tuple(ds[0::2]), max(max(ds), -min(ds))


def _phases(us: list, vs: list, shifts: dict) -> tuple[list, int]:
    """The packed s-shift of ``sum(u * v)`` for every U part in ``us`` and V
    part in ``vs``, as a table indexed ``[u][v]``, and its largest |phase|.
    ``shifts`` caches the packed shift of each phase."""
    table = []
    top = 0
    for u in us:
        row = []
        for v in vs:
            ph = sum(map(mul, u, v))
            sh = shifts.get(ph)
            if sh is None:
                sh = shifts[ph] = pack_power(var_index("s"), ph)
            row.append(sh)
            if abs(ph) > top:
                top = abs(ph)
        table.append(row)
    return table, top


# the packed site-1 factor V_1^(a2/2) U_1^(b2/2) of a key is the key's residue
# modulo the weight of site 2, taken in the signed range: both digits are small
_SITE2_HALF = 1 << (2 * PACK_BITS - 1)
_SITE2_MASK = (1 << 2 * PACK_BITS) - 1


def _bucketed(slices: dict, terms1: dict, terms2: dict, size: int,
              shifts: dict) -> tuple[int, list, list]:
    """File the product of two Weyl term maps under its output slices.

    Both operands go into buckets by the packed site-1 factor of their keys,
    so a pair of buckets sends every key sum to one slice, ``b1 + b2``.  In
    each bucket the left terms are grouped by the index of their U part and
    the right ones by the index of their V part, each term as ``(key,
    coefficient items, index of the other part of its key)``.  Each pair of
    buckets is appended to ``slices[b1 + b2]`` as ``(left groups, right
    groups, phases)``, where ``phases[i][j]`` is the packed s-shift of left U
    part i against right V part j (see :func:`_phases`).  Returns the
    largest |phase| of that table and the distinct V parts of the left
    operand and U parts of the right one, in index order.  OverflowError if
    a key sum could carry.
    """
    # a scalar-valued operand merges with phase 0 and moves no digit, so each
    # side is one group per bucket and only the site-1 factor of each key is
    # read: decoding every key costs the sites4 command about an eighth of its time
    scalar = (len(terms1) == 1 and 0 in terms1) or (len(terms2) == 1 and 0 in terms2)
    operands = []
    bound = 0
    for terms, left in ((terms1, True), (terms2, False)):
        buckets: dict[int, dict] = {}
        parts: dict[tuple, int] = {}
        others: dict[tuple, int] = {}
        widest = 0
        for k, c in terms.items():
            i = j = 0
            if not scalar:
                u, v, w = _parts(k, size)
                if w > widest:
                    widest = w
                if not left:
                    u, v = v, u
                i = parts.setdefault(u, len(parts))
                j = others.setdefault(v, len(others))
            site1 = ((k + _SITE2_HALF) & _SITE2_MASK) - _SITE2_HALF
            groups = buckets.get(site1)
            if groups is None:
                groups = buckets[site1] = {}
            ts = groups.get(i)
            if ts is None:
                ts = groups[i] = []
            ts.append((k, tuple(c.terms.items()), j))
        # a scalar pair's one part on each side is the empty one
        operands.append((buckets, list(parts) or [()], list(others) or [()]))
        bound += widest
    # a key sum adds two digits each below 2**29: below the guard it cannot carry
    check_bound(bound)
    (left, u1s, v1s), (right, v2s, u2s) = operands
    phases, top = _phases(u1s, v2s, shifts)
    for b1, lgroups in left.items():
        for b2, rgroups in right.items():
            work = slices.get(b1 + b2)
            if work is None:
                work = slices[b1 + b2] = []
            work.append((lgroups, rgroups, phases))
    return top, v1s, u2s


def _coeff_bound(terms1: dict, terms2: dict, phase: int) -> int:
    """The exponent bound of a kernel's coefficients: each exponent sums one
    of a left coefficient, one of a right coefficient and a phase of at most
    ``phase`` in size."""
    return check_bound(max((c.exp_bound for c in terms1.values()), default=0)
                       + max((c.exp_bound for c in terms2.values()), default=0)
                       + phase)


def _small_dot(pairs, size: int) -> dict[int, Scalar]:
    """:func:`_dot` in one accumulator, for calls of few key pairs.

    Each key pair reads its s-phase from the U part of the left key and the
    V part of the right one (:func:`_parts`); a pair with a scalar-valued
    operand has phase 0 and decodes nothing.  There is no cap check: the
    accumulator holds at most one key per key pair, and :func:`_dot` sends
    no more pairs than ``TERM_CAP``.
    """
    acc: dict[int, dict[int, int | Fraction]] = {}
    keys: dict[int, int] = {}
    shifts: dict[int, int] = {}
    bound = 0
    for terms1, terms2 in pairs:
        scalar = (len(terms1) == 1 and 0 in terms1) or (len(terms2) == 1 and 0 in terms2)
        lefts = [(k, None if scalar else _parts(k, size), c.terms.items())
                 for k, c in terms1.items()]
        rights = [(k, None if scalar else _parts(k, size), c.terms.items())
                  for k, c in terms2.items()]
        if not scalar:
            # a key sum adds two digits each below 2**29: below the guard it cannot carry
            check_bound(max((p[2] for _, p, _ in lefts), default=0)
                        + max((p[2] for _, p, _ in rights), default=0))
        top = 0
        for k1, p1, t1 in lefts:
            for k2, p2, t2 in rights:
                ph = 0 if scalar else sum(map(mul, p1[0], p2[1]))
                sh = shifts.get(ph)
                if sh is None:
                    sh = shifts[ph] = pack_power(var_index("s"), ph)
                if ph > top or -ph > top:
                    top = abs(ph)
                k = k1 + k2
                row = acc.get(k)
                if row is None:
                    row = acc[k] = {}
                accumulate(row, t1, t2, sh, keys)
                if not row:
                    del acc[k]
        # each exponent sums three digits below 2**29, which cannot carry
        bound = max(bound, _coeff_bound(terms1, terms2, top))
    return {k: Scalar(row, bound) for k, row in acc.items()}


def _dot(pairs, size: int) -> dict[int, Scalar]:
    """Terms of the sum of the normal-ordered products of pairs of Weyl term maps.

    A call of at most ``SMALL_PAIRS`` key pairs, and at most ``TERM_CAP``,
    runs in one accumulator (:func:`_small_dot`): it can hold no more keys
    than it has key pairs, so the cap cannot trip there, sliced or not.
    Any larger call files every pair under its output slices first
    (:func:`_bucketed`); then each slice runs to completion over all the
    pairs, so a sum whose products cancel never holds them apart, and once a
    slice is done only its surviving keys stay live.  The s-phase of a pair
    of groups is read from its table, each pair of keys is merged by one
    addition, and the products of the two coefficients' terms go straight
    into a raw row over packed scalar keys (``ring.accumulate``).  One Scalar
    is built per surviving key.  The term cap counts the live keys: the
    finished slices' survivors and the keys of the slice being built.
    """
    total = sum(len(terms1) * len(terms2) for terms1, terms2 in pairs)
    if total <= SMALL_PAIRS and total <= TERM_CAP:
        return _small_dot(pairs, size)
    slices: dict[int, list] = {}
    shifts: dict[int, int] = {}
    bound = 0
    for terms1, terms2 in pairs:
        top, _, _ = _bucketed(slices, terms1, terms2, size, shifts)
        # each exponent sums three digits below 2**29, which cannot carry
        bound = max(bound, _coeff_bound(terms1, terms2, top))
    out: dict[int, Scalar] = {}
    keys: dict[int, int] = {}  # shared by every row, see ring.accumulate
    for work in slices.values():
        acc: dict[int, dict[int, int | Fraction]] = {}
        room = TERM_CAP - len(out)
        for lgroups, rgroups, phases in work:
            for i1, lefts in lgroups.items():
                row_phases = phases[i1]
                for i2, rights in rgroups.items():
                    sh = row_phases[i2]
                    for k1, t1, _ in lefts:
                        for k2, t2, _ in rights:
                            k = k1 + k2
                            row = acc.get(k)
                            if row is None:
                                row = acc[k] = {}
                            accumulate(row, t1, t2, sh, keys)
                            if not row:
                                del acc[k]
                            elif len(acc) > room:
                                raise TermCapExceeded(f"product exceeds {TERM_CAP} terms")
        for k, row in acc.items():
            out[k] = Scalar(row, bound)
    return out


def _commutator(terms1: dict, terms2: dict, size: int) -> dict[int, Scalar]:
    """Terms of ``a*b - b*a`` for two Weyl term maps, in one pass, slice by
    slice as in :func:`_dot`.

    A key pair adds ``c1 c2 s^phi12`` and ``-c1 c2 s^phi21`` at ``k1 + k2``,
    two ``ring.accumulate`` calls into one row; pairs with ``phi12 == phi21``
    commute and are skipped.  phi12 is read from the table of
    :func:`_bucketed`, as in :func:`_dot`; phi21 pairs the left V part with
    the right U part and is read from a second table over the distinct parts.
    """
    slices: dict[int, list] = {}
    shifts: dict[int, int] = {}
    top12, v1s, u2s = _bucketed(slices, terms1, terms2, size, shifts)
    phases21, top21 = _phases(v1s, u2s, shifts)
    bound = _coeff_bound(terms1, terms2, max(top12, top21))
    # each left key's negated coefficients, for the b*a products
    negated = {k: tuple((m, -x) for m, x in c.terms.items()) for k, c in terms1.items()}
    out: dict[int, Scalar] = {}
    keys: dict[int, int] = {}
    for work in slices.values():
        acc: dict[int, dict[int, int | Fraction]] = {}
        room = TERM_CAP - len(out)
        for lgroups, rgroups, phases12 in work:
            for i1, lefts in lgroups.items():
                row_phases = phases12[i1]
                # left term outside the right groups: groups are small, so its
                # negation and phi21 row are looked up once per bucket pair
                for k1, t1, j1 in lefts:
                    n1 = negated[k1]
                    row_phases21 = phases21[j1]
                    for i2, rights in rgroups.items():
                        sh12 = row_phases[i2]
                        for k2, t2, j2 in rights:
                            sh21 = row_phases21[j2]
                            if sh21 == sh12:
                                continue
                            k = k1 + k2
                            row = acc.get(k)
                            if row is None:
                                row = acc[k] = {}
                            accumulate(row, t1, t2, sh12, keys)
                            accumulate(row, n1, t2, sh21, keys)
                            if not row:
                                del acc[k]
                            elif len(acc) > room:
                                raise TermCapExceeded(f"product exceeds {TERM_CAP} terms")
        for k, row in acc.items():
            out[k] = Scalar(row, bound)
    return out


class WeylOp:
    """Normal-ordered finite sum of multi-site Weyl monomials."""

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice: Lattice, terms: dict[int, Scalar]):
        self.lattice = lattice
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @classmethod
    def _of(cls, lattice: Lattice, terms: dict[int, Scalar]) -> "WeylOp":
        """An operator over ``terms`` that hold no zero coefficient; nothing is filtered."""
        self = object.__new__(cls)
        self.lattice = lattice
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, lattice: Lattice) -> "WeylOp":
        return cls(lattice, {})

    @classmethod
    def scalar(cls, coeff, lattice: Lattice) -> "WeylOp":
        c = coeff if isinstance(coeff, Scalar) else Scalar.const(coeff)
        return cls(lattice, {0: c})

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
        # sites and powers are checked before the memo is read: 1.0 == 1 and
        # hashes alike, so a memo of raw factors would accept 1.0 after 1
        key, s_exp = _normal_order(lattice, tuple((_site(n), kind, _doubled(power))
                                                  for n, kind, power in factors))
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
        return WeylOp._of(self.lattice, out)

    __radd__ = __add__

    def __neg__(self):
        return WeylOp._of(self.lattice, {k: -c for k, c in self.terms.items()})

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
        return WeylOp._of(self.lattice, _dot([(self.terms, other.terms)], self.lattice.size))

    def __rmul__(self, other):
        # Only scalars reach here; they commute with everything.
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    @staticmethod
    def dot(pairs) -> "WeylOp":
        """``sum(a * b for a, b in pairs)``, built in one pass, slice by slice.

        At least one factor must be a WeylOp; ring scalars among the others
        are lifted onto its lattice, as ``*`` lifts them.
        """
        pairs = list(pairs)
        op = next((x for pair in pairs for x in pair if isinstance(x, WeylOp)), None)
        if op is None:
            raise TypeError("WeylOp.dot needs a WeylOp among its factors")

        def lifted(x) -> dict:
            if isinstance(x, (int, Fraction, Scalar)):
                return WeylOp.scalar(x, op.lattice).terms
            if not isinstance(x, WeylOp):
                raise TypeError(f"cannot multiply a WeylOp by {type(x).__name__}")
            op._check(x)
            return x.terms

        terms = [(lifted(a), lifted(b)) for a, b in pairs]
        return WeylOp._of(op.lattice, _dot(terms, op.lattice.size))

    def commutator(self, other: "WeylOp") -> "WeylOp":
        """``self * other - other * self``, in one pass over the key pairs."""
        self._check(other)
        return WeylOp._of(self.lattice, _commutator(self.terms, other.terms, self.lattice.size))

    # -- algebra maps --------------------------------------------------------

    def substitute(self, bindings) -> "WeylOp":
        """Apply a coefficient-ring substitution to every term."""
        return WeylOp(self.lattice, {k: c.substitute(bindings) for k, c in self.terms.items()})

    def conjugate_v(self) -> "WeylOp":
        """Conjugation by the product over sites of the d2-twist operator.

        Acts as the algebra automorphism U_n -> d2^(-1) U_n, V_n -> d2 V_n.
        """
        out: dict[int, Scalar] = {}
        for k, c in self.terms.items():
            w = sum(a2 - b2 for _, a2, b2 in decode_key(k))
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
        phase = sum(a2 * b2 for _, a2, b2 in decode_key(k))
        inv_c = c.monomial_inverse().shift(var_key("s", phase))
        return WeylOp(self.lattice, {-k: inv_c})

    # -- inspection ----------------------------------------------------------

    def zero_like(self) -> "WeylOp":
        return WeylOp(self.lattice, {})

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def coeff_of_var(self, name: str, power: int) -> "WeylOp":
        """Weyl coefficient of ``name**power`` inside the Scalar coefficients."""
        return WeylOp(self.lattice, {k: c.coeff_of(name, power) for k, c in self.terms.items()})

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
        for k, c in sorted(self.terms.items(), key=lambda kc: decode_key(kc[0])):
            factors = []
            for site, a2, b2 in decode_key(k):
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

