import tracemalloc

import pytest

from toda2.matops import OpMatrix
from toda2.quantum import (ModelParams, build_aux, build_companion, build_exchange,
                           build_scalar_aux, build_lax, check_fm, check_ybe, op_P, op_Q2,
                           q_sigma_z)
from toda2.reports import report_from_residuals
from toda2.ring import Scalar
from toda2.weyl import Lattice, WeylOp

PARAMS = ModelParams.generic()
LAM1, LAM2 = Scalar.var("lam1"), Scalar.var("lam2")


def spow(k):
    return Scalar.var("s", k)


def test_model_params_are_values():
    assert ModelParams.generic() == PARAMS
    assert hash(ModelParams.generic()) == hash(PARAMS)
    assert ModelParams.q_toda() != PARAMS
    with pytest.raises(AttributeError):
        PARAMS.d1 = Scalar.zero()


def test_exchange_matrix_entries():
    A = build_aux("A", LAM1, LAM2)
    den = LAM2 * spow(4) - LAM1
    assert A.entries[1][1] == LAM2 - LAM1
    assert A.entries[0][0] == den and A.entries[3][3] == den
    B = build_aux("B", LAM1, LAM2)
    assert B.entries[2][1] == -(spow(3) - spow(-1))
    assert B.entries[3][1] == LAM1 * (spow(4) - 1)
    C = build_aux("C", LAM1, LAM2)
    assert C.entries[1][2] == -(spow(3) - spow(-1))
    assert C.entries[3][2] == LAM2 * (spow(4) - 1)
    D = build_aux("D", LAM1, LAM2)
    assert D.entries[3][1] == LAM1 * (LAM2 - LAM1) * (spow(4) - 1)
    assert D.entries[3][2] == -(LAM2 * (LAM2 - LAM1) * (spow(4) - 1))


def test_exchange_matrices_classical_limit_is_identity():
    for kind in ("A", "B", "C", "D"):
        m = build_aux(kind, LAM1, LAM2)
        sub = lambda x: x.substitute({"s": 1})
        num = OpMatrix([[sub(x) for x in row] for row in m.entries])
        den = sub(m.entries[0][0])  # the cleared factor; 1 for B and C
        ident = OpMatrix.identity(4, Scalar.const(1)).scale(den)
        assert num.sub(ident).is_zero(), kind


def test_r_matrices():
    Rp = build_exchange("Rplus")
    assert Rp.entries[0][0] == spow(1)
    assert Rp.entries[1][2] == spow(1) - spow(-3)
    Rm = build_exchange("Rminus")
    assert Rm.entries[0][0] == spow(-1)
    assert Rm.entries[2][1] == spow(-1) - spow(3)
    assert Rm.entries[1][2].is_zero()
    # reflected pair: P Rplus(1/q) P equals Rminus entrywise
    one, zero = Scalar.const(1), Scalar.zero()
    P = OpMatrix([[one, zero, zero, zero],
                  [zero, zero, one, zero],
                  [zero, one, zero, zero],
                  [zero, zero, zero, one]])
    got = P.mul(Rp.map(lambda x: x.substitute({"s": spow(-1)}))).mul(P)
    assert got.sub(Rm).is_zero()


def test_companion_matrix_entries():
    greek = tuple(Scalar.var(n) for n in ("alpha", "beta", "gamma", "delta"))
    al, be, ga, de = greek
    M = build_companion("M0", LAM1, greek)
    assert M.entries[1][1] == al * (spow(-1) + de * LAM1 + be * LAM1 * LAM1)
    assert M.entries[0][1] == al * be * LAM1
    # lam = 0 collapses to alpha diag(1, q^(-1/2))
    at0 = M.map(lambda x: x.coeff_of("lam1", 0))
    assert at0.entries[0][0] == al
    assert at0.entries[1][1] == al * spow(-1)
    assert at0.entries[0][1].is_zero() and at0.entries[1][0].is_zero()
    with pytest.raises(ValueError):
        build_companion("M0", LAM1, (al, be, Scalar.const(1), de))


def test_dressing_matrix_entries():
    lam = Scalar.var("lam")
    G = build_scalar_aux("G0", lam, PARAMS)
    assert G.entries[1][0] == (Scalar.const(1) - spow(4)) * lam
    assert G.entries[0][1] == spow(7) * Scalar.var("d2") * Scalar.var("d3") * lam
    Gt = build_scalar_aux("Gtilde0", lam, PARAMS)
    # the closing companion factorises through diag(q^-1, q)
    Mt = Gt.mul(q_sigma_z())
    greekt = (spow(-2), spow(3) * Scalar.var("d2") * Scalar.var("d3"),
              Scalar.const(1) - spow(4), spow(5) * Scalar.var("d1"))
    expect = build_companion("Mtilde0", lam, greekt)
    assert Mt.sub(expect).is_zero()


def test_site_relations_pass():
    for cid in ("AD", "B", "C"):
        report = report_from_residuals({}, check_fm(cid))
        assert report.status == "pass", (cid, report.witness)


def test_compatibility_general_parameters():
    assert report_from_residuals({}, check_fm("DGCG_general")).status == "pass"
    rep = report_from_residuals({}, check_fm("dual_general"))
    assert rep.status == "pass", rep.witness


def test_monodromy_quadratic_algebra():
    rep = report_from_residuals({}, check_fm("ATT_TTD", N=3))
    assert rep.status == "pass"
    # small rings wrap onto themselves; measured, not asserted
    rep2 = report_from_residuals({}, check_fm("ATT_TTD", N=2))
    assert rep2.residual_terms == 0


def test_quadratic_algebra_catches_a_perturbed_d_entry(monkeypatch):
    # the fused residual is not zero by construction: one wrong entry of D
    # leaves terms behind
    from toda2 import quantum
    build = quantum.build_aux

    def perturbed(kind, l1, l2):
        m = build(kind, l1, l2)
        if kind == "D":
            m.entries[1][2] = m.entries[1][2] + spow(1)
        return m

    monkeypatch.setattr(quantum, "build_aux", perturbed)
    rep = report_from_residuals({}, check_fm("ATT_TTD", N=3))
    assert rep.status == "fail"
    assert rep.residual_terms > 0 and rep.witness


@pytest.mark.parametrize("cid, kind", [("AD", "A"), ("AD", "D"), ("B", "C"), ("C", "B"),
                                       ("YBE_twisted", "Rtwisted")])
def test_fused_exchange_residuals_catch_a_perturbed_entry(monkeypatch, cid, kind):
    # as for ATT_TTD: each product_difference identity leaves terms behind
    # when one entry of the structure matrix it reads is wrong
    from toda2 import quantum
    build = quantum.build_aux

    def perturbed(k, l1, l2):
        m = build(k, l1, l2)
        if k == kind:
            m.entries[1][2] = m.entries[1][2] + spow(1)
        return m

    monkeypatch.setattr(quantum, "build_aux", perturbed)
    rep = report_from_residuals({}, check_ybe(cid) if cid == "YBE_twisted" else check_fm(cid))
    assert rep.status == "fail"
    assert rep.residual_terms > 0 and rep.witness


def test_quadratic_algebra_builds_neither_side_whole():
    # both sides of A T1 B T2 = T2 C T1 D at three sites held 2.5 MiB at once;
    # the fused residual keeps one entry's accumulator at a time
    tracemalloc.start()
    try:
        check_fm("ATT_TTD", N=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_distant_entries_commute():
    assert report_from_residuals({}, check_fm("distant_commute", N=5)).status == "pass"


def test_mutated_compatibility_fails():
    rep = report_from_residuals({}, check_fm("DGCG_general", mutate=True))
    assert rep.status == "fail"
    assert rep.residual_terms > 0 and rep.witness


def test_ybe_and_rll():
    assert report_from_residuals({}, check_ybe("YBE_twisted")).status == "pass"
    assert report_from_residuals({}, check_ybe("RLL_ultralocal")).status == "pass"
    bad = report_from_residuals({}, check_ybe("RLL_ultralocal", mutate=True))
    assert bad.status == "fail" and bad.witness


def test_twisted_r_equals_exchange_a():
    R = build_aux("Rtwisted", LAM1, LAM2)
    A = build_aux("A", LAM1, LAM2)
    assert R.sub(A).is_zero()


def test_lax_entries():
    lat = Lattice(3, True)
    lam = Scalar.var("lam")
    l = build_lax("l", 2, lam, PARAMS, lat)
    assert l.entries[0][1] == WeylOp.scalar(-1, lat)
    assert l.entries[1][1].is_zero()
    assert (l.entries[1][0] - op_Q2(lat, 2)).is_zero()
    L = build_lax("Lloc", 2, lam, PARAMS, lat)
    assert L.entries[1][0] == WeylOp.word(lat, [(2, "U", 1)], coeff=-spow(-4))


def test_q_square_closed_form():
    lat = Lattice(5, False)
    got = op_Q2(lat, 1)
    assert got == WeylOp.word(lat, [(2, "V", -1), (1, "U", 1), (2, "U", -1)],
                              coeff=spow(1))
    assert (op_P(lat, 1) - WeylOp.word(lat, [(1, "V", -1)])
            - WeylOp.word(lat, [(1, "U", 1), (2, "U", -1)])).is_zero()


def test_dressed_lax_equals_display():
    lat = Lattice(3, True)
    lam = Scalar.var("lam")
    lhat = build_lax("lhat", 1, lam, PARAMS, lat)
    # the dressed Lax matrix written out entrywise (gamma reabsorbed as q^2)
    be = spow(7) * PARAMS.d2 * PARAMS.d3
    de = spow(5) * PARAMS.d1
    P1, Q21 = op_P(lat, 1), op_Q2(lat, 1)
    disp = OpMatrix([[WeylOp.scalar(spow(4) * lam, lat) - P1,
                      WeylOp.scalar(-spow(-1) - de * lam, lat) - P1 * (be * lam)],
                     [Q21, Q21 * (be * lam)]])
    assert lhat.sub(disp).is_zero()
