from fractions import Fraction

import pytest

from toda2.classical import (big_lax, bracket_matrix, build_structure, check_classical,
                             classical_monodromy, local_lax, swap_two_leg)
from toda2.matops import OpMatrix
from toda2.poisson import make_chart
from toda2.reports import report_from_residuals
from toda2.ring import Scalar, ScalarFraction


def test_big_lax_shape_n3():
    chart = make_chart("qp", 3, periodic=True)
    L = big_lax(chart, "mu")
    mu = ScalarFraction(Scalar.var("mu"))
    mu_inv = ScalarFraction(Scalar.var("mu").monomial_inverse())
    assert L.entries[0][2] == mu_inv * chart.gen("Q3")
    assert L.entries[2][0] == mu * chart.gen("Q3")
    for n in (1, 2, 3):
        assert L.entries[n - 1][n - 1] == -chart.gen(f"P{n}")
    assert L.entries[0][1] == chart.gen("Q1")
    assert L.entries[1][0] == chart.gen("Q1")


def test_big_lax_degenerate_corners_sum():
    chart = make_chart("qp", 2, periodic=True)
    L = big_lax(chart, "mu")
    mu = ScalarFraction(Scalar.var("mu"))
    mu_inv = ScalarFraction(Scalar.var("mu").monomial_inverse())
    assert L.entries[0][1] == chart.gen("Q1") + mu_inv * chart.gen("Q2")
    assert L.entries[1][0] == chart.gen("Q1") + mu * chart.gen("Q2")


def test_structure_matrix_entries():
    chart = make_chart("qp", 3, periodic=True)
    r = build_structure("r12", chart)
    mu1, mu2 = Scalar.var("mu1"), Scalar.var("mu2")
    N = 3
    for i in range(N):
        assert r.entries[i * N + i][i * N + i] == mu1 + mu2
    # E_12 (x) E_21 block carries 2 mu2
    assert r.entries[0 * N + 1][1 * N + 0] == 2 * mu2
    assert r.entries[1 * N + 0][0 * N + 1] == 2 * mu1
    a = build_structure("a12", chart)
    assert a.entries[0 * N + 1][0 * N + 1] == Scalar.const(Fraction(1, 2))
    assert a.entries[1 * N + 0][1 * N + 0] == Scalar.const(Fraction(-1, 2))
    assert swap_two_leg(a, N).sub(a.neg()).is_zero()


def test_bracket_matrix_antisymmetry_under_leg_and_spectral_swap():
    chart = make_chart("qp", 3, periodic=True)
    BM = bracket_matrix(chart, "mu1", "mu2")
    BM_swapped = bracket_matrix(chart, "mu2", "mu1")
    assert swap_two_leg(BM_swapped, 3).sub(BM.neg()).is_zero()


@pytest.mark.parametrize("cid", ["poissonL_explicit", "poissonL_dform",
                                 "involution", "curve_NxN", "curve_2x2"])
def test_classical_checks_n3(cid):
    rep = report_from_residuals({}, check_classical(cid, N=3))
    assert rep.status == "pass", (cid, rep.witness)


def test_degenerate_wrap_is_labelled():
    # the label itself is the catalogue's: see poissonL_degenerate in test_cli
    rep = report_from_residuals({}, check_classical("poissonL_explicit", N=2))
    assert rep.residual_terms == 0


@pytest.mark.parametrize("N", [2, 3, 4])
def test_trace_identification(N):
    rep = report_from_residuals({}, check_classical("pN_equals_trT", N=N))
    assert rep.residual_terms == 0


def test_monodromy_determinant_is_spectral_product():
    for N in (2, 3):
        chart = make_chart("qp", N, periodic=True)
        T = classical_monodromy(chart, "lam")
        prod = ScalarFraction(1)
        for a in range(1, N + 1):
            prod = prod * chart.gen(f"Q{a}")
        det = T.det()
        assert (det - prod * prod).is_zero()
        # lam-free: equal to its own image under a fresh spectral variable
        nu = Scalar.var("nu")
        shifted = ScalarFraction(det.num.substitute({"lam": nu}), det.den)
        assert (det - shifted).is_zero()


def test_two_by_two_determinant_expansion():
    # cofactor oracle at N = 2: det[L + lam] expanded by hand
    chart = make_chart("qp", 2, periodic=True)
    L = big_lax(chart, "mu")
    lam = ScalarFraction(Scalar.var("lam"))
    shifted = OpMatrix([[L.entries[0][0] + lam, L.entries[0][1]],
                        [L.entries[1][0], L.entries[1][1] + lam]])
    got = shifted.det()
    p1, p2 = chart.gen("P1"), chart.gen("P2")
    q1, q2 = chart.gen("Q1"), chart.gen("Q2")
    mu = ScalarFraction(Scalar.var("mu"))
    mu_inv = ScalarFraction(Scalar.var("mu").monomial_inverse())
    expect = ((lam - p1) * (lam - p2)
              - (q1 + mu_inv * q2) * (q1 + mu * q2))
    assert (got - expect).is_zero()
    hand = (lam * lam - lam * (p1 + p2) + p1 * p2
            - q1 * q1 - (mu + mu_inv) * q1 * q2 - q2 * q2)
    assert (got - hand).is_zero()


def test_local_lax_and_model():
    chart = make_chart("qp", 3, periodic=True)
    assert chart.size == 3
    l2 = local_lax(chart, 2, "lam")
    assert l2.entries[0][1] == -ScalarFraction(1)
    assert l2.entries[1][1].is_zero()
    with pytest.raises(ValueError):
        make_chart("qp", 1, periodic=True)


def test_mutated_structure_matrix_fails():
    rep = report_from_residuals({}, check_classical("poissonL_explicit", N=3, mutate=True))
    assert rep.status == "fail" and rep.witness
