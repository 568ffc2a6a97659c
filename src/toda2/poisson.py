"""Classical phase-space engine: charts, Poisson brackets, lattice fields.

A :class:`Chart` declares commuting generators and an antisymmetric bracket
table on them; the bracket of arbitrary Laurent-polynomial fractions
(:class:`~toda2.ring.ScalarFraction`) follows by bilinearity, the Leibniz
rule and the quotient rule.  Three charts ship:

* ``exlat``    -- open chain of row doublets (xi1_n, xi2_n) whose bracket is
                  the componentwise action of the rational r-matrices,
* ``qp``       -- the quadratic/cubic second-structure bracket on (Q_n, P_n),
                  open or periodic (periodic Kronecker deltas read mod N),
* ``darboux``  -- canonical pairs (g_n, h_n) with {g_n, h_n} = g_n h_n.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod

from .matops import OpMatrix, embed
from .ring import Scalar, ScalarFraction, accumulate, check_bound, digits, pack_power, var_index

__all__ = ["Chart", "make_chart", "build_classical", "W_BRACKETS", "first_order",
           "pp_bracket", "w2w2_tail", "exchange", "exchange_sum", "wronskian",
           "local_lax", "doublet_words", "p_words", "q2_word"]


# Structure constants of the lattice W-algebra, each a function of the sites
# n, m and a Kronecker delta d (a periodic chart reads it mod N): classically
# {X_n, Y_m} = c(n, m) X_n Y_m on the Wronskians W1, W2 and on Q, P, and the
# quantum chain keeps the integers as X_n Y_m = s^c(n, m) Y_m X_n.  Q = 1/W1
# shares the W1-W1 constants.
W_BRACKETS = {
    "W1W1": lambda n, m, d: d(n, m - 1) - d(n, m + 1),
    "W1W2": lambda n, m, d: d(n, m + 1) - d(n, m + 2) + d(n, m - 1) - d(n, m),
    "W2W2": lambda n, m, d: (d(n, m - 2) - d(n, m + 2)
                             + 2 * d(n, m + 1) - 2 * d(n, m - 1)),
    "QP": lambda n, m, d: -2 * (d(n, m) - d(n + 1, m)),
}


# {P_n, P_m} closes on Q^2 and {W2_n, W2_m} adds a W1 tail, so neither is of
# that form.  Their terms carry weights named by two s-exponents: ``weight(a,
# b)`` is s^a - s^b in the quantum relations and a - b, its first-order term
# at s = 1 + eps, in the classical brackets.
def first_order(a: int, b: int) -> int:
    """The classical weight of a term the quantum relation weighs by s^a - s^b."""
    return a - b


def pp_bracket(n: int, m: int, d, q_squared, weight):
    """{P_n, P_m} = w (d(n+1, m) Q_n^2 - d(n, m+1) Q_m^2), w = weight(3, -1),
    where ``q_squared(k)`` realises Q_k^2."""
    w = weight(3, -1)
    return w * d(n + 1, m) * q_squared(n) - w * d(n, m + 1) * q_squared(m)


def w2w2_tail(n: int, m: int, d, w1, weight) -> list:
    """The terms of the W1 tail of {W2_n, W2_m}: weight(σ, -3σ) W1_{k-1} W1_{k+1}
    at m = n + σ, where k = max(n, m) and ``w1(k)`` realises W1_k."""
    return [weight(sigma, -3 * sigma) * w1(k - 1) * w1(k + 1)
            for sigma, k in ((-1, n), (1, m)) if d(n, m - sigma)]


# The doublet exchange matrices on the basis (11, 12, 21, 22), the sum they
# enter and the Wronskian: the quantum chain weighs by s^c and s^a - s^b, the
# classical brackets by their first-order terms c and a - b.
def exchange(sign: int, power, weight) -> list[list]:
    """R+ (``sign`` 1) or R- (``sign`` -1), which is R+ at s -> 1/s with its
    legs swapped; ``power(c)`` realises s^c and ``weight(a, b)`` s^a - s^b."""
    zero = weight(0, 0)
    r = [[power(sign), zero, zero, zero],
         [zero, power(-sign), weight(sign, -3 * sign), zero],
         [zero, zero, power(-sign), zero],
         [zero, zero, zero, power(sign)]]
    return embed(OpMatrix(r), (2, 1), 2).entries if sign < 0 else r


def exchange_sum(xi, n: int, m: int, a: int, b: int, M, zero):
    """sum_{a', b'} xi^a'_m xi^b'_n M[(b', a'), (a, b)] from ``zero``, where
    ``xi[(k, c)]`` realises xi^c_k: the bracket {xi^a_n, xi^b_m} classically,
    the reordered side of xi^a_n xi^b_m on the quantum chain."""
    col = 2 * (a - 1) + (b - 1)
    val = zero
    for ap in (1, 2):
        for bp in (1, 2):
            cf = M[2 * (bp - 1) + (ap - 1)][col]
            if cf != 0:
                val = val + xi[(m, ap)] * xi[(n, bp)] * cf
    return val


def wronskian(xi, n: int, p: int, q):
    """W^(p)_n = q xi^1_n xi^2_{n+p} - xi^2_n xi^1_{n+p}, where ``xi(c, k)``
    realises xi^c_k: q = s^2 on the quantum chain and 1 classically."""
    return xi(1, n) * xi(2, n + p) * q - xi(2, n) * xi(1, n + p)


def local_lax(lam, p, q2, one, zero) -> list[list]:
    """The 2x2 local Lax matrix [[lam - P_n, -1], [Q_n^2, 0]], where ``p`` and
    ``q2`` realise P_n and Q_n^2 and ``one`` and ``zero`` are their ring's."""
    return [[lam - p, -one], [q2, zero]]


# The canonical-pair realisation of the chain as ordered (site, "U"|"V", power)
# words: the quantum operators are WeylOp.word sums of them, and the darboux
# chart reads U_k^p as g_k^(2p) and V_k^p as h_k^(2p).
def doublet_words(component: int, n: int) -> list[list[tuple]]:
    """The words whose sum realises the doublet component xi^component_n."""
    h = Fraction(1, 2)
    if component == 1:
        return [[(n, "U", -h)] + [(a, "V", h) for a in range(1, n + 1)]]
    if component == 2:
        return [[(n, "U", -h)] + [(b, "V", h) for b in range(a, n + 1)] + [(a, "U", 1)]
                + [(b, "V", -h) for b in range(1, a)] for a in range(1, n + 1)]
    raise ValueError("component must be 1 or 2")


def p_words(n: int) -> list[list[tuple]]:
    """P_n = V_n^-1 + U_n U_{n+1}^-1."""
    return [[(n, "V", -1)], [(n, "U", 1), (n + 1, "U", -1)]]


def q2_word(n: int) -> list[tuple]:
    """Q_n^2 without its constant: V_{n+1}^-1 U_n U_{n+1}^-1."""
    return [(n + 1, "V", -1), (n, "U", 1), (n + 1, "U", -1)]


class Chart:
    """Generators plus a frozen antisymmetric bracket table."""

    def __init__(self, kind: str, size: int, periodic: bool):
        self.kind = kind
        self.size = size
        self.periodic = periodic
        self.gen_names: list[str] = []
        # (variable index, key of the variable), ascending by index
        self._gen_units: list[tuple[int, int]] = []
        self._table: dict[tuple[int, int], Scalar] = {}
        self._table_bound = 0  # the largest exponent bound of a table entry
        # id(f) -> (f, gradient numerators of f, memo of the field rows of f);
        # holding f pins its id for the chart's life
        self._fractions: dict[int, tuple[ScalarFraction, dict, dict]] = {}

    def _add_gen(self, name: str) -> None:
        idx = var_index(name)
        self.gen_names.append(name)
        insort(self._gen_units, (idx, pack_power(idx, 1)))

    def _set_bracket(self, g1: str, g2: str, value: Scalar) -> None:
        """Store {g1, g2} = value and {g2, g1} = -value."""
        i, j = var_index(g1), var_index(g2)
        if i == j:
            raise ValueError("diagonal bracket entries are identically zero")
        if not value.is_zero():
            self._table[(i, j)] = value
            self._table[(j, i)] = -value
            self._table_bound = max(self._table_bound, value.exp_bound)

    def delta(self, a: int, b: int) -> int:
        """Kronecker delta of two sites, read mod ``size`` on a periodic chart."""
        if self.periodic:
            return 1 if (a - b) % self.size == 0 else 0
        return 1 if a == b else 0

    # -- element constructors ------------------------------------------------

    def gen(self, name: str, power: int = 1) -> ScalarFraction:
        if name not in self.gen_names:
            raise KeyError(f"{name!r} is not a generator of this chart")
        return ScalarFraction(Scalar.var(name, power))

    # -- the bracket ----------------------------------------------------------

    def poly_bracket(self, p: Scalar, q: Scalar) -> Scalar:
        """Bracket of two Laurent polynomials, contracted through their gradients:
        ``{p, q} = sum_i d_i p * (sum_j {x_i, x_j} d_j q)``."""
        # a result exponent sums one of p, one of q, a removed generator and one of the table
        bound = check_bound(p.exp_bound + q.exp_bound + 1 + self._table_bound)
        return self._contract(self._gradient(p), self._gradient(q), {}, bound)

    def _contract(self, left: dict, right: dict, rows: dict, bound: int) -> Scalar:
        """``sum_i left_i * H_i`` with the field ``H_i = sum_j {x_i, x_j} right_j``;
        ``rows`` memoises ``H_i`` by ``i`` for a ``right`` that is used again."""
        out: dict[int, int | Fraction] = {}
        keys: dict[int, int] = {}
        for i, li in left.items():
            row = rows.get(i)
            if row is None:
                acc: dict[int, int | Fraction] = {}
                for j, rj in right.items():
                    t = self._table.get((i, j))
                    if t is not None:
                        accumulate(acc, t.terms.items(), rj, 0, keys)
                row = rows[i] = list(acc.items())
            accumulate(out, li, row, 0, keys)
        return Scalar(out, bound)

    def _gradient(self, p: Scalar) -> dict[int, list]:
        """The nonzero partial derivatives of ``p`` by the generators, by
        variable index, each as its (key, coefficient) terms."""
        gens = self._gen_units
        first = gens[0][0]
        span = gens[-1][0] - first + 1
        out: dict[int, list] = {}
        for k, c in p.terms.items():
            ds = digits(k, first, span)
            for v, u in gens:
                if e := ds[v - first]:
                    out.setdefault(v, []).append((k - u, c * e))
        return out

    def bracket(self, f: ScalarFraction, g: ScalarFraction) -> ScalarFraction:
        """Bracket of fractions by the quotient rule: ``{a/b, c/d} b^2 d^2 =
        sum_i F_i H_i``, where ``F_i = b d_i a - a d_i b`` are the gradient
        numerators of ``f = a/b`` and ``H`` is the field of those of ``g``.
        Both are built once per fraction and kept for the chart's life."""
        if not (f.factors or g.factors):
            # two polynomials: bench/tracing.py counts these pairs here
            num = self.poly_bracket(f.num, g.num)
        else:
            # as in poly_bracket, with b d_i a and d d_j c for d_i p and d_j q
            bound = check_bound(_span(f) + _span(g) + 1 + self._table_bound)
            grads, _ = self._numerators(f)
            num = self._contract(grads, *self._numerators(g), bound)
        return ScalarFraction.over(num, f, f, g, g)

    def _numerators(self, f: ScalarFraction) -> tuple[dict, ...]:
        """The gradient numerators of ``f`` by variable index, as (key,
        coefficient) terms, and the memo of its field rows met so far."""
        entry = self._fractions.get(id(f))
        if entry is None:
            a, grads = f.num, self._gradient(f.num)
            if f.factors:
                b, keys = f.den, {}
                minus_a = [(k, -c) for k, c in a.terms.items()]
                grad_b = self._gradient(b)
                for i in grads.keys() | grad_b.keys():
                    row: dict[int, int | Fraction] = {}
                    accumulate(row, b.terms.items(), grads.get(i, ()), 0, keys)
                    accumulate(row, minus_a, grad_b.get(i, ()), 0, keys)
                    if row:
                        grads[i] = list(row.items())
                    else:
                        grads.pop(i, None)
            entry = self._fractions[id(f)] = (f, grads, {})
        return entry[1:]

    def __repr__(self):
        return f"Chart({self.kind!r}, size={self.size}, periodic={self.periodic})"


def _span(f: ScalarFraction) -> int:
    """An exponent bound of ``f``'s numerator times its expanded denominator."""
    return f.num.exp_bound + sum(s.exp_bound * p for s, p in f.factors.items())


def make_chart(kind: str, size: int, periodic: bool = False) -> Chart:
    if size < 2:
        raise ValueError("charts need at least two sites")
    if kind == "exlat":
        if periodic:
            raise ValueError("the exchange-doublet chart is defined on open chains")
        return _make_exlat(size)
    if kind == "qp":
        return _make_qp(size, periodic)
    if kind == "darboux":
        if periodic:
            raise ValueError("the canonical-pair chart is defined on open chains")
        return _make_darboux(size)
    raise ValueError(f"unknown chart kind {kind!r}")


def _make_exlat(size: int) -> Chart:
    chart = Chart("exlat", size, False)
    for n in range(1, size + 1):
        chart._add_gen(f"xi1_{n}")
        chart._add_gen(f"xi2_{n}")

    xi = {(n, c): Scalar.var(f"xi{c}_{n}") for n in range(1, size + 1) for c in (1, 2)}
    for (n, m, a, b), value in _exchange_brackets(xi, size, Scalar.zero()):
        if n > m or a < b:  # store upper pairs only; diagonal is zero
            chart._set_bracket(f"xi{a}_{n}", f"xi{b}_{m}", value)
    return chart


def _exchange_tables() -> tuple[list[list], list[list]]:
    """The classical exchange structure: the first-order terms of R+, for a
    first site above the second, and their mean with those of R- at equal sites."""
    plus, minus = (exchange(sign, lambda c: c, first_order) for sign in (1, -1))
    equal = [[Fraction(p + m, 2) for p, m in zip(rp, rm)] for rp, rm in zip(plus, minus)]
    return plus, equal


def _exchange_brackets(xi, size: int, zero) -> list[tuple[tuple, object]]:
    """{xi^a_n, xi^b_m} for n >= m, labelled (n, m, a, b), on the doublets ``xi``."""
    plus, equal = _exchange_tables()
    return [((n, m, a, b), exchange_sum(xi, n, m, a, b, plus if n > m else equal, zero))
            for n in range(1, size + 1) for m in range(1, n + 1) for a in (1, 2) for b in (1, 2)]


def _make_qp(size: int, periodic: bool) -> Chart:
    chart = Chart("qp", size, periodic)
    for n in range(1, size + 1):
        chart._add_gen(f"Q{n}")
        chart._add_gen(f"P{n}")

    def Q(n: int) -> Scalar:
        return Scalar.var(f"Q{n}")

    def P(n: int) -> Scalar:
        return Scalar.var(f"P{n}")

    q_squared = lambda k: Q(k) * Q(k)
    d = chart.delta
    rng = range(1, size + 1)
    for n in rng:
        for m in rng:
            if n < m:
                chart._set_bracket(f"Q{n}", f"Q{m}", W_BRACKETS["W1W1"](n, m, d) * Q(n) * Q(m))
                chart._set_bracket(f"P{n}", f"P{m}", pp_bracket(n, m, d, q_squared, first_order))
            chart._set_bracket(f"Q{n}", f"P{m}", W_BRACKETS["QP"](n, m, d) * Q(n) * P(m))
    return chart


def _make_darboux(size: int) -> Chart:
    chart = Chart("darboux", size, False)
    for n in range(1, size + 1):
        chart._add_gen(f"g{n}")
        chart._add_gen(f"h{n}")
    for n in range(1, size + 1):
        chart._set_bracket(f"g{n}", f"h{n}",
                           Scalar.var(f"g{n}") * Scalar.var(f"h{n}"))
    return chart


# -- lattice fields ------------------------------------------------------------


def build_classical(symbol: str, n: int, chart: Chart) -> ScalarFraction:
    """Construct the named phase-space function at site n."""
    if symbol == "W1":
        return _wronskian(chart, n, 1)
    if symbol == "W2":
        return _wronskian(chart, n, 2)
    if symbol == "S":
        w = lambda k, p: _wronskian(chart, k, p)
        return 4 * w(n + 1, 1) * w(n - 1, 1) / (w(n, 2) * w(n - 1, 2))
    if symbol == "Q":
        return ScalarFraction(1) / _wronskian(chart, n, 1)
    if symbol == "P":
        return _wronskian(chart, n - 1, 2) / (_wronskian(chart, n - 1, 1) * _wronskian(chart, n, 1))
    if symbol == "xi1_darboux":
        return _darboux_sum(chart, doublet_words(1, n))
    if symbol == "xi2_darboux":
        return _darboux_sum(chart, doublet_words(2, n))
    if symbol == "repQ2":
        return _darboux_sum(chart, [q2_word(n)])
    if symbol == "repP":
        return _darboux_sum(chart, p_words(n))
    raise ValueError(f"unknown classical symbol {symbol!r}")


def _darboux_sum(chart: Chart, words) -> ScalarFraction:
    """A sum of words on the darboux chart, U_k^p read as g_k^(2p) and V_k^p as
    h_k^(2p)."""
    letter = {"U": "g", "V": "h"}
    return sum((prod((chart.gen(f"{letter[kind]}{site}", int(2 * power))
                      for site, kind, power in word), start=ScalarFraction(1))
                for word in words), ScalarFraction(0))


def _wronskian(chart: Chart, n: int, p: int) -> ScalarFraction:
    if chart.kind != "exlat":
        raise ValueError("lattice Wronskians live on the exchange-doublet chart")
    return wronskian(lambda c, k: chart.gen(f"xi{c}_{k}"), n, p, 1)


# -- identity suites -----------------------------------------------------------


def residuals_wronskian(chart: Chart, p: int, r: int, window) -> list[tuple[str, ScalarFraction]]:
    """Residuals of {W^(p)_n, W^(r)_m} against the W-algebra table on ``window``."""
    c = W_BRACKETS[f"W{p}W{r}"]
    d = chart.delta
    # each Wronskian is built once, so the fractions share their factor keys
    w = cache(lambda k, e: _wronskian(chart, k, e))
    out = []
    for n in window:
        for m in window:
            x, y = w(n, p), w(m, r)
            rhs = x * y * c(n, m, d)
            if p == r == 2:
                rhs = sum(w2w2_tail(n, m, d, lambda k: w(k, 1), first_order), rhs)
            out.append((f"(n={n},m={m})", chart.bracket(x, y) - rhs))
    return out


def residuals_virlat(chart: Chart, window) -> list[tuple[str, ScalarFraction]]:
    """Closure of the cubic subalgebra and its decoupling from the Wronskians."""
    out = []
    S = {k: build_classical("S", k, chart) for k in
         range(min(window) - 1, max(window) + 1)}
    for n in window:
        for m in window:
            lhs = chart.bracket(S[n], S[m])
            bump = W_BRACKETS["W1W1"](n, m, chart.delta)
            inner = (4 - S[n] - S[m]) * bump
            if chart.delta(n, m + 2):
                inner = inner + S[n - 1]
            if chart.delta(n, m - 2):
                inner = inner - S[m - 1]
            rhs = -(S[n] * S[m] * inner)
            out.append((f"SS(n={n},m={m})", lhs - rhs))
    for n in window:
        w1n = _wronskian(chart, n, 1)
        qn = build_classical("Q", n, chart)
        for m in window:
            out.append((f"W1S(n={n},m={m})", chart.bracket(w1n, S[m])))
            out.append((f"QS(n={n},m={m})", chart.bracket(qn, S[m])))
    return out


def residuals_qp(which: str, chart: Chart, window, q_of, p_of,
                 power: int) -> list[tuple[str, ScalarFraction]]:
    """Residuals of the closed Q/P bracket relations, with ``p_of`` realising P
    and ``q_of`` realising Q^power: ``power`` is 1, or 2 where only Q^2 is
    realised."""
    # each field is built once, so the fractions share their factor keys
    q_of, p_of = cache(q_of), cache(p_of)
    q_squared = cache(lambda k: q_of(k) ** 2) if power == 1 else q_of
    d = chart.delta
    out = []
    for n in window:
        for m in window:
            if which == "qq":
                lhs = chart.bracket(q_of(n), q_of(m))
                rhs = q_of(n) * q_of(m) * (power * power * W_BRACKETS["W1W1"](n, m, d))
            elif which == "qp":
                lhs = chart.bracket(q_of(n), p_of(m))
                rhs = q_of(n) * p_of(m) * (power * W_BRACKETS["QP"](n, m, d))
            elif which == "pp":
                lhs = chart.bracket(p_of(n), p_of(m))
                rhs = pp_bracket(n, m, d, q_squared, first_order)
            else:
                raise ValueError(which)
            out.append((f"(n={n},m={m})", lhs - rhs))
    return out


def residuals_exlat_from_darboux(chart: Chart) -> list[tuple[str, ScalarFraction]]:
    """Check the doublet exchange bracket on the canonical-pair realisation."""
    xi = {(n, c): build_classical(f"xi{c}_darboux", n, chart)
          for n in range(1, chart.size + 1) for c in (1, 2)}
    return [(f"(n={n},m={m},a={a},b={b})", chart.bracket(xi[(n, a)], xi[(m, b)]) - rhs)
            for (n, m, a, b), rhs in _exchange_brackets(xi, chart.size, ScalarFraction(0))]


def residuals_jacobi(chart: Chart) -> list[tuple[str, ScalarFraction]]:
    """Jacobi identity on all generator triples of the chart."""
    out = []
    gens = [chart.gen(name) for name in chart.gen_names]
    labels = chart.gen_names
    # {f,{g,h}} + {g,{h,f}} + {h,{f,g}} with {h,f} = -{f,h}: every inner
    # bracket is of an ascending pair, so each pair is bracketed once
    inner = {(a, b): chart.bracket(gens[a], gens[b])
             for a, b in combinations(range(len(gens)), 2)}
    for i, j, k in combinations(range(len(gens)), 3):
        acc = (chart.bracket(gens[i], inner[j, k])
               - chart.bracket(gens[j], inner[i, k])
               + chart.bracket(gens[k], inner[i, j]))
        out.append((f"({labels[i]},{labels[j]},{labels[k]})", acc))
    return out


# -- named checks ----------------------------------------------------------------


def check_bracket_identity(check_id: str, size: int = 8, mutate: bool = False):
    """Labelled residuals of one classical bracket suite on ``size`` sites.

    ``mutate`` deliberately corrupts the identity under test (a flipped
    delta sign) so the surrounding plumbing can prove it detects failures.
    """
    if check_id in ("w1w1", "w1w2", "w2w2", "virlat", "qq", "qp", "pp"):
        if size < 8:
            raise ValueError("the open-chain suites need at least 8 sites")
        chart = make_chart("exlat", size)
        if check_id == "w1w1":
            items = residuals_wronskian(chart, 1, 1, range(2, size - 1))
            if mutate:
                w = _wronskian(chart, 2, 1)
                items = [("mutated", chart.bracket(w, _wronskian(chart, 3, 1))
                          + w * _wronskian(chart, 3, 1))] + items
            return items
        if check_id == "w1w2":
            return residuals_wronskian(chart, 1, 2, range(2, size - 2))
        if check_id == "w2w2":
            return residuals_wronskian(chart, 2, 2, range(3, size - 1))
        if check_id == "virlat":
            return residuals_virlat(chart, range(3, size - 1))
        return residuals_qp(check_id, chart, range(2, size),
                            lambda k: build_classical("Q", k, chart),
                            lambda k: build_classical("P", k, chart), power=1)

    if check_id == "exlat_from_darboux":
        return residuals_exlat_from_darboux(make_chart("darboux", size))

    if check_id == "qp_from_rep":
        chart = make_chart("darboux", size)
        q2of = lambda k: build_classical("repQ2", k, chart)
        pof = lambda k: build_classical("repP", k, chart)
        return [(f"{which}{lab}", r) for which in ("qq", "qp", "pp")
                for lab, r in residuals_qp(which, chart, range(1, size), q2of, pof, power=2)]

    if check_id == "jacobi":
        items = []
        for kind, n, per in (("exlat", 4, False), ("qp", 3, True),
                             ("qp", 2, True), ("darboux", 4, False)):
            chart = make_chart(kind, n, per)
            items += [(f"{kind}/N={n}{lab}", r) for lab, r in residuals_jacobi(chart)]
        return items

    raise ValueError(f"unknown bracket identity {check_id!r}")
