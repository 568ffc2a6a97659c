import pytest

from toda2.quantum import (ModelParams, build_lax, build_scalar_aux,
                           check_hamiltonians, check_ultralocalisation,
                           hamiltonians, monodromy, q_sigma_z, transfer_trace, trq)
from toda2.reports import report_from_residuals
from toda2.ring import Scalar
from toda2.weyl import Lattice, WeylOp

PARAMS = ModelParams.generic()
LAM = Scalar.var("lam")


def spow(k):
    return Scalar.var("s", k)


@pytest.mark.parametrize("step", ["gauge_l", "gauge_G", "scriptL_assembly",
                                  "entrywise_conjugation"])
def test_gauge_steps_exact(step):
    rep = report_from_residuals({}, check_ultralocalisation(step))
    assert rep.status == "pass", rep.witness


@pytest.mark.parametrize("N", [1, 2, 3])
def test_trace_identity_exact(N):
    rep = report_from_residuals({}, check_ultralocalisation("trace_identity", N=N))
    assert rep.status == "pass", rep.witness


@pytest.mark.parametrize("N", [1, 2, 3])
def test_transfer_twist_identity(N):
    rep = report_from_residuals({}, check_ultralocalisation("taut", N=N))
    assert rep.status == "pass", rep.witness


def test_single_site_transfer_display():
    # tr L_1(lam) written out: lam - V^-1 - d2 + lam d3 V^-1
    lat = Lattice(1, True)
    got = transfer_trace("tloc", 1, LAM, PARAMS)
    expect = (WeylOp.scalar(LAM - Scalar.var("d2"), lat)
              - WeylOp.word(lat, [(1, "V", -1)])
              + WeylOp.word(lat, [(1, "V", -1)], coeff=LAM * Scalar.var("d3")))
    assert (got - expect).is_zero()


def test_single_site_twist_identity_by_hand():
    # independent expansion of the N = 1 relation from 2x2 entries
    lat = Lattice(1, True)
    l1 = build_lax("l", 1, LAM, PARAMS, lat)
    close = build_scalar_aux("Gtilde0", LAM, PARAMS).mul(q_sigma_z())
    closew = close.map(lambda x: WeylOp.scalar(x, lat))
    tau = (l1.entries[0][0] * closew.entries[0][0]
           + l1.entries[0][1] * closew.entries[1][0]
           + l1.entries[1][0] * closew.entries[0][1]
           + l1.entries[1][1] * closew.entries[1][1])
    assert (tau - transfer_trace("tau", 1, LAM, PARAMS)).is_zero()
    d2 = Scalar.var("d2")
    shifted = tau.substitute({"lam": spow(-4) * d2.monomial_inverse() * LAM})
    lhs = shifted.conjugate_v() * d2 * spow(2)
    assert (lhs - transfer_trace("tloc", 1, LAM, PARAMS)).is_zero()


def test_transfer_degree_and_leading_coefficient():
    for N in (1, 2, 3):
        t = transfer_trace("tloc", N, LAM, ModelParams(
            Scalar.var("d1"), Scalar.var("d2"), Scalar.zero()))
        # t is a polynomial of degree N in lam with unit leading coefficient
        parts = [t.coeff_of_var("lam", p) * LAM ** p for p in range(N + 1)]
        assert (t - sum(parts, WeylOp.zero(Lattice(N, True)))).is_zero()
        lead = t.coeff_of_var("lam", N)
        assert (lead - WeylOp.one(Lattice(N, True))).is_zero()


def test_charge_extraction_signs():
    hs = hamiltonians(2, PARAMS)
    t = transfer_trace("tloc", 2, LAM, PARAMS)
    lat = Lattice(2, True)
    rebuilt = WeylOp.zero(lat)
    for j, h in enumerate(hs):
        sign = -1 if j % 2 else 1
        rebuilt = rebuilt + h * Scalar.const(sign) * Scalar.monomial({"lam": 2 - j})
    assert (rebuilt - t).is_zero()


def test_leading_charge_is_unity_without_top_coupling():
    hs = hamiltonians(3, ModelParams(Scalar.var("d1"), Scalar.var("d2"), Scalar.zero()))
    assert (hs[0] - WeylOp.one(Lattice(3, True))).is_zero()


@pytest.mark.parametrize("cid", ["commute", "tau_commute", "tloc_commute",
                                 "trq_commute", "H1_qToda", "H1_Toda2", "H2_Toda2",
                                 "trq_match1", "trq_match2", "qosc_coherence"])
def test_hamiltonian_checks(cid):
    rep = report_from_residuals({}, check_hamiltonians(cid, N=3))
    assert rep.status == "pass", (cid, rep.witness)


def test_ultralocality_of_local_lax():
    lat = Lattice(3, True)
    L1 = build_lax("Lloc", 1, LAM, PARAMS, lat)
    L2 = build_lax("Lloc", 2, LAM, PARAMS, lat)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    assert L1.entries[i][j].commutator(L2.entries[a][b]).is_zero()


def test_mutated_gauge_companion_fails():
    rep = report_from_residuals({}, check_ultralocalisation("gauge_G", mutate=True))
    assert rep.status == "fail" and rep.witness


def test_monodromy_site_one_is_bare():
    # the monodromy at N = 1 is the bare local Lax matrix
    lat = Lattice(1, True)
    T = monodromy(1, LAM, PARAMS)
    assert T.sub(build_lax("l", 1, LAM, PARAMS, lat)).is_zero()


def test_gauge_steps_run_on_the_chain_length_they_are_given():
    items = check_ultralocalisation("gauge_l", N=5)
    assert [label for label, _ in items] == [f"site {n}" for n in range(1, 6)]
    assert all(res.is_zero() for _, res in items)
    for step in ("gauge_G", "scriptL_assembly", "entrywise_conjugation"):
        rep = report_from_residuals({}, check_ultralocalisation(step, N=2))
        assert rep.status == "pass", (step, rep.witness)
    rep = report_from_residuals({}, check_ultralocalisation("gauge_G", N=4, mutate=True))
    assert rep.status == "fail" and rep.residual_terms > 0
