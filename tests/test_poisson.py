import random
from fractions import Fraction

import pytest

from toda2 import ring
from toda2.poisson import (build_classical, check_bracket_identity, make_chart,
                           residuals_wronskian)
from toda2.reports import report_from_residuals
from toda2.ring import Scalar, ScalarFraction, unpack_key, var_index


def test_qp_chart_declared_brackets():
    chart = make_chart("qp", 3, periodic=True)
    q1, q2 = chart.gen("Q1"), chart.gen("Q2")
    assert chart.bracket(q1, q2) == q1 * q2
    p1 = chart.gen("P1")
    assert chart.bracket(q1, p1) == -2 * q1 * p1
    # distinct non-neighbour pair on the 3-ring wraps: {Q1, Q3} = -Q1 Q3
    q3 = chart.gen("Q3")
    assert chart.bracket(q1, q3) == -(q1 * q3)


def test_qp_chart_degenerate_wrap_sums_deltas():
    chart = make_chart("qp", 2, periodic=True)
    p1, p2 = chart.gen("P1"), chart.gen("P2")
    q1, q2 = chart.gen("Q1"), chart.gen("Q2")
    assert chart.bracket(p1, p2) == 4 * q1 ** 2 - 4 * q2 ** 2
    # QQ deltas cancel pairwise at N = 2
    assert chart.bracket(q1, q2).is_zero()


def test_darboux_chart_brackets():
    chart = make_chart("darboux", 3)
    assert chart.bracket(chart.gen("g1"), chart.gen("h2")).is_zero()
    g1, h1 = chart.gen("g1"), chart.gen("h1")
    assert chart.bracket(g1, h1) == g1 * h1
    assert chart.bracket(g1 ** 2, h1) == 2 * g1 ** 2 * h1


def test_leibniz_two_step_oracle():
    chart = make_chart("qp", 3, periodic=True)
    q1, p1 = chart.gen("Q1"), chart.gen("P1")
    lhs = chart.bracket(q1 ** 2, p1)
    # Leibniz by hand: {Q1^2, P1} = 2 Q1 {Q1, P1}
    assert lhs == 2 * q1 * chart.bracket(q1, p1)
    assert lhs == -4 * q1 ** 2 * p1


def test_antisymmetry_and_leibniz_randomised():
    chart = make_chart("qp", 3, periodic=True)
    rng = random.Random(11)
    gens = [chart.gen(n) for n in chart.gen_names]

    def rand_elem():
        total = ScalarFraction(0)
        for _ in range(rng.randint(1, 3)):
            term = ScalarFraction(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 3)):
                term = term * rng.choice(gens) ** rng.choice([-1, 1, 2])
            total = total + term
        return total

    for _ in range(12):
        f, g, h = rand_elem(), rand_elem(), rand_elem()
        assert chart.bracket(f, f).is_zero()
        assert (chart.bracket(f, g) + chart.bracket(g, f)).is_zero()
        assert (chart.bracket(f * g, h)
                - f * chart.bracket(g, h) - chart.bracket(f, h) * g).is_zero()


def test_quotient_rule_against_expansion():
    chart = make_chart("qp", 3, periodic=True)
    q1, q2, p1 = chart.gen("Q1"), chart.gen("Q2"), chart.gen("P1")
    f = q1 / q2
    lhs = chart.bracket(f, p1)
    rhs = chart.bracket(q1, p1) / q2 - q1 * chart.bracket(q2, p1) / (q2 * q2)
    assert (lhs - rhs).is_zero()


def test_builder_shapes():
    chart = make_chart("exlat", 8)
    w1 = build_classical("W1", 2, chart)
    assert len(w1.num.terms) == 2
    dch = make_chart("darboux", 6)
    assert len(build_classical("repP", 2, dch).num.terms) == 2
    assert len(build_classical("repQ2", 2, dch).num.terms) == 1
    xi2 = build_classical("xi2_darboux", 2, dch)
    assert len(xi2.num.terms) == 2  # one summand per lattice site up the chain
    xi1 = build_classical("xi1_darboux", 3, dch)
    assert len(xi1.num.terms) == 1


def test_out_of_range_site_rejected():
    chart = make_chart("exlat", 4)
    with pytest.raises(KeyError):
        build_classical("W2", 3, chart)  # needs site 5
    with pytest.raises(KeyError):
        build_classical("repP", 4, make_chart("darboux", 4))  # needs g5
    # refusing a name leaves the variable registry as it was
    with pytest.raises(KeyError):
        chart.gen("not_a_chart_variable")
    assert "not_a_chart_variable" not in ring._INDEX
    with pytest.raises(ValueError):
        make_chart("exlat", 4, periodic=True)
    with pytest.raises(ValueError):
        make_chart("qp", 1)


def test_w1w1_window_passes_at_boundary_of_definition():
    chart = make_chart("exlat", 8)
    res = residuals_wronskian(chart, 1, 1, range(1, 8))
    assert all(r.is_zero() for _, r in res)


@pytest.mark.parametrize("check_id", [
    "w1w1", "w1w2", "w2w2", "virlat", "qq", "qp", "pp",
    "exlat_from_darboux", "qp_from_rep", "jacobi",
])
def test_bracket_identity_suites_pass(check_id):
    # the canonical-pair suites run on the catalogue's 6 sites
    size = 6 if check_id in ("exlat_from_darboux", "qp_from_rep") else 8
    report = report_from_residuals({}, check_bracket_identity(check_id, size=size))
    assert report.status == "pass", report.witness
    assert report.residual_terms == 0


def test_mutated_identity_is_caught():
    report = report_from_residuals({}, check_bracket_identity("w1w1", mutate=True))
    assert report.status == "fail"
    assert report.residual_terms > 0
    assert report.witness


def test_too_short_chain_rejected():
    with pytest.raises(ValueError):
        check_bracket_identity("w2w2", size=5)


def _fold_bracket(chart, p, q):
    """Reference: the bracket as a fold ``out = out + mono * t`` over term pairs."""
    names = {var_index(n): n for n in chart.gen_names}
    out = Scalar.zero()
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            for vi, ei in ((v, e) for v, e in unpack_key(k1) if v in names):
                for vj, ej in ((v, e) for v, e in unpack_key(k2) if v in names):
                    t = chart._table.get((vi, vj))  # {x_i, x_j}, None if zero
                    if t is None:
                        continue
                    mono = (Scalar({k1: c1 * c2 * ei * ej}) * Scalar({k2: 1})
                            * Scalar.var(names[vi], -1) * Scalar.var(names[vj], -1))
                    out = out + mono * t
    return out


@pytest.mark.parametrize("kind,size,periodic", [("qp", 3, True), ("qp", 4, False),
                                                ("exlat", 3, False), ("darboux", 4, False)])
def test_poly_bracket_equals_the_fold_over_term_pairs(kind, size, periodic):
    chart = make_chart(kind, size, periodic=periodic)
    rng = random.Random(size)
    extra = Scalar.var("lam")  # a parameter that is not a generator

    def rand_poly():
        total = Scalar.zero()
        for _ in range(rng.randint(1, 4)):
            powers = {n: rng.randint(-2, 2) for n in rng.sample(chart.gen_names, 2)}
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            total = total + Scalar.monomial(powers, coeff) * extra ** rng.randint(0, 1)
        return total

    cancelled = 0
    for _ in range(15):
        p, q = rand_poly(), rand_poly()
        # {p, p} and {p + q, p + q} cancel term by term down to zero
        for a, b in ((p, q), (q, p), (p, p), (p + q, p + q), (p * q, q)):
            got = chart.poly_bracket(a, b)
            assert got == _fold_bracket(chart, a, b)
            cancelled += got.is_zero()
    assert cancelled >= 30


def test_virlat_term_pairs_stay_below_the_factored_budget(monkeypatch):
    # a deterministic work guard: sums over the lcm of factored denominators
    # make about 35k term pairs here, multiplying denominators out 260k
    from toda2 import poisson, stoch, weyl

    pairs = 0
    accumulate = ring.accumulate

    def counted(row, terms1, terms2, shift, keys):
        nonlocal pairs
        pairs += len(terms1) * len(terms2)
        return accumulate(row, terms1, terms2, shift, keys)

    for module in (ring, poisson, weyl, stoch):
        monkeypatch.setattr(module, "accumulate", counted)
    report = report_from_residuals({}, check_bracket_identity("virlat", 8))
    assert report.status == "pass"
    assert 0 < pairs < 50_000


def test_poly_bracket_is_where_the_tracer_sees_polynomial_pairs(monkeypatch):
    # the benchmark's tracer counts poisson.Chart.poly_bracket: a pair of
    # unit-denominator fractions reaches it exactly once, and the big-Lax
    # entry brackets of poissonL_explicit reach it
    from toda2 import poisson
    from toda2.registry import RunConfig, run_checks

    calls = []
    poly_bracket = poisson.Chart.poly_bracket

    def counted(self, p, q):
        calls.append((p, q))
        return poly_bracket(self, p, q)

    monkeypatch.setattr(poisson.Chart, "poly_bracket", counted)
    chart = make_chart("qp", 3, periodic=True)
    q1, p2 = chart.gen("Q1"), chart.gen("P1") + chart.gen("Q2") ** 2
    assert chart.bracket(q1, p2) == -2 * q1 * chart.gen("P1") + 2 * q1 * chart.gen("Q2") ** 2
    assert calls == [(q1.num, p2.num)]
    calls.clear()
    chart.bracket(q1 / chart.gen("Q2"), p2)  # a denominator: the fraction path
    assert calls == []
    report, = run_checks(["poissonL_explicit"], RunConfig())
    assert report.status == "pass" and calls
