"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Everything downstream (Weyl operators, matrices) uses this ring for its
coefficients, and :class:`ScalarFraction` is the only fraction type: the
Poisson side computes with it directly, and the Fock states of the
stochastic checks hold one per level.  A fraction keeps its denominator as
powers of factor Scalars, so a sum is taken over the least common multiple
of two denominators rather than their product (common-denominator
bookkeeping in partially factored form, after Geddes, Czapor & Labahn 1992),
and its text reads that numerator over that denominator.

The deformation parameter is stored through the variable ``s`` with
q = s**2: reordering factors of the form q^(ab/2) with half-integer
exponents are then integer powers of s and never leave the ring.

A :class:`Scalar` is a dict from packed monomial keys to nonzero exact
coefficients, each an ``int`` or a ``Fraction``: an ``int`` whenever the
denominator is 1, so most products and sums never leave Python's integers.
Two Scalars are equal iff their term maps are identical, so the
representation is canonical (``int`` and ``Fraction`` compare and hash
alike, and floats are rejected at every constructor).  Variables live in one
append-only table for the whole process; charts and model parameters register
the names they need on first use.  Indices order the internal keys only:
:meth:`Scalar.to_text` orders variables by name, so a polynomial's text does
not depend on which variables were registered first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

__all__ = ["Scalar", "ScalarFraction", "var_index", "var_key", "PACK_LIMIT",
           "accumulate", "check_bound", "digits", "pack_power", "unpack_key"]


# The variable table: name <-> index, append-only, shared by every Scalar.
_NAMES: list[str] = []
_INDEX: dict[str, int] = {}


def var_index(name: str) -> int:
    """Index of the variable ``name``, registering it on first use."""
    idx = _INDEX.get(name)
    if idx is None:
        idx = _INDEX[name] = len(_NAMES)
        _NAMES.append(name)
    return idx


# Monomial keys are Kronecker-packed integers (after Monagan & Pearce 2009):
# digit i of a signed base-2**PACK_BITS integer is the exponent of variable i
# and 0 is the constant monomial, so a monomial product is one integer addition
# and an inverse one negation.  Every stored exponent obeys |e| < PACK_LIMIT:
# a sum of three such digits (two factors and a Weyl phase) stays below
# 2**(PACK_BITS - 1) and never carries into its neighbour.  Each Scalar carries
# an upper bound on its |e|, and every product checks the sum of its operands'
# bounds before it adds a key.
PACK_BITS = 32
PACK_LIMIT = 1 << 29
_DIGIT = (1 << PACK_BITS) - 1
_HALF = 1 << (PACK_BITS - 1)


def check_bound(bound: int) -> int:
    """``bound`` itself if exponents up to it fit the packed range; else OverflowError."""
    if bound >= PACK_LIMIT:
        raise OverflowError(f"exponents up to {bound} are outside the packed range |e| < 2**29")
    return bound


def pack_power(idx: int, power: int) -> int:
    """Packed key of the variable with index ``idx`` raised to ``power``."""
    if not -PACK_LIMIT < power < PACK_LIMIT:
        raise OverflowError(f"exponent {power} of {_NAMES[idx]!r} is outside the "
                            f"packed range |e| < 2**29")
    return power << (PACK_BITS * idx)


def digits(packed: int, first: int, count: int) -> list[int]:
    """The signed digits ``first .. first + count - 1`` of a packed key.

    The digits below ``first`` are not walked: they sum to less than half a
    unit of digit ``first`` in size, so rounding to the nearest multiple of
    its weight removes them exactly.
    """
    shift = PACK_BITS * first
    if shift:
        packed = (packed + (1 << (shift - 1))) >> shift
    out = [0] * count
    for j in range(count):
        if not packed:
            break
        e = out[j] = ((packed + _HALF) & _DIGIT) - _HALF
        packed = (packed - e) >> PACK_BITS
    return out


def unpack_key(packed: int) -> tuple:
    """The ``(var_index, exponent)`` pairs of a packed key, by index, zeros omitted."""
    # a nonzero top digit v makes |packed| at least 2**(PACK_BITS * v - 1)
    ds = digits(packed, 0, packed.bit_length() // PACK_BITS + 1)
    return tuple((v, e) for v, e in enumerate(ds) if e)


def _key_bound(packed: int) -> int:
    """The largest |e| of a packed key."""
    return max((abs(e) for _, e in unpack_key(packed)), default=0)


def accumulate(row: dict, terms1, terms2, shift: int, keys: dict) -> dict:
    """Add every product of two ``(packed key, coefficient)`` sequences into the
    raw ``row``, each key moved by ``shift``, dropping sums that cancel; return
    ``row``.  Each new key is stored as the one int ``keys`` holds for it, so
    rows share key objects.  Callers check the packed range and canonicalise."""
    for m1, x1 in terms1:
        m1 += shift
        for m2, x2 in terms2:
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
    return row


def var_key(name: str, power: int) -> int:
    """Packed key of ``name**power``, as :meth:`Scalar.shift` takes it."""
    return pack_power(var_index(name), power)


def _coeff(value) -> int | Fraction:
    """An exact coefficient in canonical form; anything inexact is refused."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact coefficients are int or Fraction, not {type(value).__name__}")


def _exponent(power) -> int:
    """A Laurent exponent; anything but an ``int`` is refused."""
    if not isinstance(power, int):
        raise TypeError(f"Laurent exponents are int, not {type(power).__name__}")
    return power


class Scalar:
    """Immutable sparse Laurent polynomial over the shared variable table.

    ``exp_bound`` is an upper bound on every |exponent| in ``terms``; when
    it is not given it is measured by unpacking the keys.
    """

    __slots__ = ("terms", "exp_bound", "_hash")

    def __init__(self, terms: Mapping[int, int | Fraction], exp_bound: int | None = None):
        # only a dropped (falsy) coefficient pays for a type check: _coeff
        # refuses an inexact zero such as 0.0
        try:
            self.terms = {k: c if type(c) is int or c.denominator != 1 else c.numerator
                          for k, c in terms.items() if c or _coeff(c)}
        except AttributeError:
            raise TypeError("exact coefficients are int or Fraction") from None
        if exp_bound is None:
            exp_bound = max(map(_key_bound, self.terms), default=0)
        self.exp_bound = exp_bound
        self._hash = None

    @classmethod
    def _of(cls, terms: dict[int, int | Fraction], exp_bound: int) -> "Scalar":
        """A Scalar over ``terms`` that are already canonical: nonzero, and an
        ``int`` wherever the denominator is 1.  Nothing is checked or copied."""
        self = object.__new__(cls)
        self.terms = terms
        self.exp_bound = exp_bound
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "Scalar":
        c = _coeff(value)
        return cls({0: c} if c else {}, 0)

    @classmethod
    def zero(cls) -> "Scalar":
        return cls({}, 0)

    @classmethod
    def var(cls, name: str, power: int = 1) -> "Scalar":
        return cls({var_key(name, _exponent(power)): 1}, abs(power))

    @classmethod
    def monomial(cls, powers: Mapping[str, int], coeff=1) -> "Scalar":
        powers = {n: e for n, e in powers.items() if _exponent(e)}
        key = sum(pack_power(var_index(n), e) for n, e in powers.items())
        c = _coeff(coeff)
        return cls({key: c} if c else {}, max(map(abs, powers.values()), default=0))

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        big, small = (self.terms, o.terms) if len(self.terms) >= len(o.terms) else (o.terms, self.terms)
        # both operands are canonical, so only a summed coefficient needs
        # normalising: an int sum stays an int, a Fraction one may become one
        out = dict(big)
        for k, c in small.items():
            nc = out.get(k, 0) + c
            if not nc:
                del out[k]
            elif type(nc) is int or nc.denominator != 1:
                out[k] = nc
            else:
                out[k] = nc.numerator
        return Scalar._of(out, self.exp_bound if self.exp_bound >= o.exp_bound else o.exp_bound)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._of({k: -c for k, c in self.terms.items()}, self.exp_bound)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        bound = check_bound(self.exp_bound + o.exp_bound)
        return Scalar(accumulate({}, self.terms.items(), o.terms.items(), 0, {}), bound)

    __rmul__ = __mul__

    def shift(self, key: int) -> "Scalar":
        """``self * Scalar({key: 1})``: one monomial re-keys every term.

        Laurent monomials form a group, so distinct keys stay distinct and
        nothing merges, and no coefficient is multiplied.
        """
        if not key:
            return self
        bound = check_bound(self.exp_bound + _key_bound(key))
        return Scalar({k + key: v for k, v in self.terms.items()}, bound)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("Scalar powers must be integers")
        if n < 0:
            return self.monomial_inverse() ** (-n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- predicates and canonical form --------------------------------------

    def zero_like(self) -> "Scalar":
        return Scalar({}, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(0) == 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_inverse(self) -> "Scalar":
        """Inverse of an invertible (single-term) Scalar."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in the Laurent ring")
        (k, c), = self.terms.items()
        return Scalar({-k: 1 / Fraction(c)}, self.exp_bound)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.const(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- substitution --------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "Scalar | int | Fraction"]) -> "Scalar":
        """Apply the ring homomorphism sending each bound variable to its image.

        Variables occurring with negative exponents must be sent to invertible
        monomials; other variables may receive arbitrary Scalars.
        """
        images: dict[int, Scalar] = {}
        for name, img in bindings.items():
            images[var_index(name)] = img if isinstance(img, Scalar) else Scalar.const(img)
        out = Scalar.zero()
        for k, c in self.terms.items():
            fixed = k
            factor = Scalar.const(c)
            for v, e in unpack_key(k):
                img = images.get(v)
                if img is None:
                    continue
                if e < 0 and not img.is_monomial():
                    raise ValueError(
                        f"variable {_NAMES[v]!r} occurs with negative power "
                        "but its image is not an invertible monomial")
                fixed -= pack_power(v, e)
                factor = factor * (img ** e)
            out = out + factor.shift(fixed)
        return out

    def coeff_of(self, name: str, power: int) -> "Scalar":
        """Collect the coefficient of ``name**power`` (the variable removed)."""
        idx = var_index(name)
        # removing one fixed power maps distinct keys to distinct keys
        shift = pack_power(idx, power)
        return Scalar._of({k - shift: c for k, c in self.terms.items()
                           if dict(unpack_key(k)).get(idx, 0) == power}, self.exp_bound)

    # -- canonical text ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Scalar":
        """Parse the canonical text form produced by :meth:`to_text`."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        total = cls.zero()
        for signed in text.replace(" - ", " + -").split(" + "):
            part = signed.strip()
            coeff: int | Fraction = 1
            if part.startswith("-"):
                coeff = -coeff
                part = part[1:]
            powers: dict[str, int] = {}
            for factor in part.split("*"):
                if "^" in factor:
                    name, exp = factor.split("^")
                    powers[name] = powers.get(name, 0) + int(exp)
                elif factor and (factor[0].isdigit() or factor[0] == "-" or "/" in factor):
                    coeff *= Fraction(factor)
                elif factor:
                    powers[factor] = powers.get(factor, 0) + 1
            total = total + cls.monomial(powers, coeff)
        return total

    def to_text(self) -> str:
        """Canonical text: factors, then terms, ordered by variable name."""
        if not self.terms:
            return "0"
        named = sorted((sorted((_NAMES[v], e) for v, e in unpack_key(k)), c)
                       for k, c in self.terms.items())
        parts = []
        for factors, c in named:
            mono = "*".join(f"{name}^{e}" if e != 1 else name for name, e in factors)
            if mono:
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
            else:
                parts.append(str(c))
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"Scalar({self.to_text()})"


# Scalars are immutable, so every unit denominator can be this one object.
_ONE = Scalar.const(1)


class ScalarFraction:
    """Quotient of two Scalars, its denominator kept as powers of factors.

    ``factors`` maps each factor Scalar to its power, and ``num`` is the
    numerator over their product, the least common multiple of the
    denominators the operations met.  Products, quotients and powers add the
    powers; a sum over one map adds the numerators, and any other sum takes
    the lcm of the two maps and multiplies each numerator by its own missing
    factors only.  Factors match by Scalar equality, so no polynomial gcd is
    taken and nothing else is cancelled.  ``den`` expands ``factors`` on each
    read, and the text reads ``num`` over ``den`` as they are held.
    """

    __slots__ = ("num", "factors")

    def __init__(self, num: Scalar | int | Fraction, den: Scalar | int | Fraction = _ONE):
        if not isinstance(num, Scalar):
            num = Scalar.const(num)
        if not isinstance(den, Scalar):
            den = Scalar.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.factors = _factor(den)

    @classmethod
    def _of(cls, num: Scalar, factors: dict) -> "ScalarFraction":
        """``num`` over ``factors``; the map is shared, never changed in place."""
        self = object.__new__(cls)
        self.num = num
        self.factors = factors
        return self

    @classmethod
    def over(cls, num: Scalar, *fractions: "ScalarFraction") -> "ScalarFraction":
        """``num`` over the product of the denominators of ``fractions``."""
        return cls._of(num, _merge(*(f.factors for f in fractions)))

    @property
    def den(self) -> Scalar:
        return _expand(self.factors)

    def _times_missing(self, factors: dict) -> Scalar:
        """The numerator over ``factors``, a multiple of this denominator; a
        zero numerator is returned as it is, its missing factors unexpanded."""
        if self.num.is_zero():
            return self.num
        return _product(self.num, _expand(_missing(factors, self.factors)))

    def _coerce(self, other) -> "ScalarFraction":
        if isinstance(other, ScalarFraction):
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return ScalarFraction(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.factors == o.factors:
            return ScalarFraction._of(self.num + o.num, self.factors)
        factors = _lcm(self.factors, o.factors)
        return ScalarFraction._of(self._times_missing(factors) + o._times_missing(factors),
                                  factors)

    __radd__ = __add__

    def __neg__(self):
        return ScalarFraction._of(-self.num, self.factors)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar):  # the denominator stays as it is
            return ScalarFraction._of(self.num * other, self.factors)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ScalarFraction._of(self.num * o.num, _merge(self.factors, o.factors))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return ScalarFraction._of(_product(self.num, o.den),
                                  _merge(self.factors, _factor(o.num)))

    def __pow__(self, n: int):
        if n < 0:
            return (ScalarFraction(1) / self) ** (-n)
        return ScalarFraction._of(self.num ** n, _scale(self.factors, n))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def zero_like(self) -> "ScalarFraction":
        return ScalarFraction(self.num.zero_like())

    def __eq__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, ScalarFraction):
            return NotImplemented
        factors = _lcm(self.factors, other.factors)
        return self._times_missing(factors) == other._times_missing(factors)

    def __hash__(self):
        raise TypeError("fractions are not hashable")

    def to_text(self) -> str:
        """``(num) / (den)``, or ``num`` alone over the unit denominator."""
        den = self.den
        if den.is_one():
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({den.to_text()})"

    def __repr__(self):
        return f"ScalarFraction({self.to_text()})"


def _product(a: Scalar, b: Scalar) -> Scalar:
    """``a * b``, returning either factor itself when the other is 1.

    Most fractions in the checks have the unit denominator, and most sums
    miss no factor, so most products of a numerator by a denominator's
    factors are of this kind.
    """
    if b.is_one():
        return a
    if a.is_one():
        return b
    return a * b


# Factor maps: factor Scalar -> positive power, in first-met order.  A map is
# never changed once built, so the helpers return an operand itself where they can.
def _factor(s: Scalar) -> dict:
    return {} if s.is_one() else {s: 1}


def _merge(*maps: dict) -> dict:
    """The product of factor maps: powers add."""
    maps = [m for m in maps if m]
    if len(maps) < 2:
        return maps[0] if maps else {}
    out = dict(maps[0])
    for m in maps[1:]:
        for f, p in m.items():
            out[f] = out.get(f, 0) + p
    return out


def _scale(m: dict, n: int) -> dict:
    """The ``n``-th power of a factor map, ``n >= 0``."""
    if n == 1 or not m:
        return m
    return {f: p * n for f, p in m.items()} if n else {}


def _lcm(a: dict, b: dict) -> dict:
    """The least common multiple of two factor maps: the larger power of each."""
    if not b:
        return a
    if not a:
        return b
    out = dict(a)
    for f, p in b.items():
        if p > out.get(f, 0):
            out[f] = p
    return out


def _missing(m: dict, sub: dict) -> dict:
    """The factors of ``m`` beyond those of its divisor ``sub``."""
    if not sub:
        return m
    return {f: p - sub.get(f, 0) for f, p in m.items() if p > sub.get(f, 0)}


def _expand(m: dict) -> Scalar:
    """The product of a factor map as one Scalar."""
    out = _ONE
    for f, p in m.items():
        out = _product(out, f if p == 1 else f ** p)
    return out

