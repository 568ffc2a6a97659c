from itertools import combinations

import pytest

from toda2 import quantum
from toda2.quantum import (ModelParams, build_lax, build_scalar_aux,
                           check_hamiltonians, check_ultralocalisation,
                           hamiltonians, monodromy, q_sigma_z, spectral_coefficients,
                           transfer_trace, trq)
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
    params = ModelParams(Scalar.var("d1"), Scalar.var("d2"), Scalar.zero())
    for N in (1, 2, 3, 4):
        # both traces have degree N in lam, though lhat and Gtilde0 carry lam^2;
        # the leading coefficient is 1 for tloc and s^(4N-2) for tau (the taut twist)
        for kind, lead in (("tloc", Scalar.const(1)), ("tau", spow(4 * N - 2))):
            cs, rest = spectral_coefficients(kind, N, params)
            assert len(cs) == N + 1 and rest.is_zero(), (kind, N)
            assert (cs[N] - WeylOp.scalar(lead, Lattice(N, True))).is_zero(), (kind, N)


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


def _perturb_site_one(monkeypatch):
    """Add U_1 to entry (2,2) of the bare and of the ultralocal Lax matrix at site 1."""
    build = quantum.build_lax

    def perturbed(kind, n, lam, params, lattice):
        m = build(kind, n, lam, params, lattice)
        if kind in ("l", "Lloc") and n == 1:
            m.entries[1][1] = m.entries[1][1] + WeylOp.word(lattice, [(1, "U", 1)])
        return m

    monkeypatch.setattr(quantum, "build_lax", perturbed)


@pytest.mark.parametrize("kind, terms", [("tau", 176), ("tloc", 66)])
def test_a_perturbed_lax_fails_the_coefficient_and_the_two_point_commutator(monkeypatch,
                                                                           kind, terms):
    _perturb_site_one(monkeypatch)
    items = check_hamiltonians(f"{kind}_commute", N=3)
    assert any(label.startswith("N=3 [c") and not res.is_zero() for label, res in items)
    assert report_from_residuals({}, items).status == "fail"
    t1 = transfer_trace(kind, 3, Scalar.var("lam1"), PARAMS)
    t2 = transfer_trace(kind, 3, Scalar.var("lam2"), PARAMS)
    assert (t1 * t2 - t2 * t1).term_count() == terms


def test_tloc_commute_takes_the_commutators_of_commute(monkeypatch):
    # H_j = (-1)^j c_(N-j), so [H_i, H_j] = (-1)^(i+j+1) [c_(N-j), c_(N-i)] for
    # i < j; a perturbed Lax makes them nonzero, so the match is not trivial
    _perturb_site_one(monkeypatch)
    N = 3
    tloc = dict(check_hamiltonians("tloc_commute", N=N))
    commute = check_hamiltonians("commute", N=N)
    assert report_from_residuals({}, commute).status == "fail"
    pairs = list(combinations(range(N + 1), 2))
    assert len(commute) == len(pairs)
    for (i, j), (label, res) in zip(pairs, commute):
        assert label == f"[H{i},H{j}]"
        c = tloc[f"N={N} [c{N - j},c{N - i}]"]
        assert res == (c if (i + j) % 2 else -c), label


def test_a_lam_squared_closing_corner_leaves_a_residual_beyond_degree(monkeypatch):
    build = quantum.build_scalar_aux

    def perturbed(kind, lam, params):
        m = build(kind, lam, params)
        if kind == "Gtilde0":
            m.entries[0][1] = m.entries[0][1] + lam * lam
        return m

    monkeypatch.setattr(quantum, "build_scalar_aux", perturbed)
    items = dict(check_hamiltonians("tau_commute", N=3))
    assert items["N=3 beyond degree 3"].term_count() == 3


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
