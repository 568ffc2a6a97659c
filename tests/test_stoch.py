import random
from fractions import Fraction

import pytest

from toda2.registry import RunConfig, run_checks
from toda2.reports import report_from_residuals, residual_size
from toda2.ring import Scalar, ScalarFraction
from toda2.stoch import (FockVector, _interior_defect, build_state, check_stoch,
                         fock_act, osc_a, osc_astar, osc_qd, stochastic_hamiltonian,
                         weyl_act)
from toda2.weyl import Lattice, WeylOp


def spow(k):
    return Scalar.var("s", k)


def test_lowering_kills_the_vacuum():
    v0 = FockVector.basis((0,), 6)
    assert fock_act("a", 1, v0).is_zero()


def test_number_operator_eigenvalue():
    v2 = FockVector.basis((2,), 6)
    assert (fock_act("qD", 1, v2) - v2.scale(spow(-8))).is_zero()


def test_lowering_coefficient():
    v1 = FockVector.basis((1,), 6)
    v0 = FockVector.basis((0,), 6)
    got = fock_act("a", 1, v1)
    assert (got - v0.scale(Scalar.const(1) - spow(-4))).is_zero()


def test_raising_overflow_is_recorded():
    vK = FockVector.basis((4,), 4)
    up = fock_act("astar", 1, vK)
    assert up.support_levels() == {(5,)}
    assert up.interior_part().is_zero()


def test_geometric_state_coefficients():
    om = build_state("omega", 3)
    assert om.coefficient((0,)) == ScalarFraction(Scalar.const(1))
    assert om.coefficient((1,)) == ScalarFraction(spow(-4), Scalar.const(1) - spow(-4))
    den2 = (Scalar.const(1) - spow(-4)) * (Scalar.const(1) - spow(-8))
    assert om.coefficient((2,)) == ScalarFraction(spow(-8), den2)
    om0 = build_state("omega", 0)
    assert (om0 - FockVector.basis((0,), 0)).is_zero()


def test_geometric_state_eigen_recurrence():
    K = 6
    om = build_state("omega", K)
    diff = fock_act("a", 1, om) - om.scale(spow(-4))
    assert diff.support_levels() == {(K,)}


@pytest.mark.parametrize("cid", ["qosc_algebra", "Lqosc_match", "column_eigen",
                                 "omega_identity", "Omega_H1", "zero_column_sum",
                                 "realisation_consistency"])
def test_stochastic_suites(cid):
    rep = report_from_residuals({}, check_stoch(cid, K=6, N=2))
    assert rep.status == "pass", (cid, rep.witness)


def test_mutated_eigenvalue_fails():
    rep = report_from_residuals({}, check_stoch("column_eigen", K=6, N=2, mutate=True))
    assert rep.status == "fail" and rep.witness


def test_small_truncation_rejected():
    with pytest.raises(ValueError):
        check_stoch("omega_identity", K=2, N=2)


def test_hamiltonian_action_matches_sitewise_composition():
    # v . (a_1 a*_2) applied through the Weyl form equals the two-step action
    K = 5
    lat = Lattice(2, True)
    v = FockVector.basis((2, 3), K)
    one_step = fock_act("astar", 2, fock_act("a", 1, v))
    w = weyl_act(v, osc_a(lat, 1) * osc_astar(lat, 2))
    assert (one_step - w).is_zero()


def _oscillator_words(lat, rng, count):
    """``count`` random words of one to three oscillator generators on ``lat``."""
    letters = [f(lat, n) for f in (osc_a, osc_astar, osc_qd) for n in range(1, lat.size + 1)]
    words = []
    for _ in range(count):
        w = rng.choice(letters)
        for _ in range(rng.randint(0, 2)):
            w = w * rng.choice(letters)
        words.append(w * spow(rng.randint(-2, 2)))
    return words


@pytest.mark.parametrize("sites", [2, 3])
def test_weyl_act_is_a_right_action(sites):
    # v (X Y) = (v X) Y and v (X + Y) = v X + v Y: the Fock action's
    # accumulator against the Weyl kernel's products and sums
    K = 3
    lat = Lattice(sites, True)
    rng = random.Random(sites)
    states = [build_state("Omega", K, N=sites)]
    states += [FockVector.basis(tuple(rng.randint(0, K) for _ in range(sites)), K)
               for _ in range(3)]
    # levels over two denominators: raised Omega leaves site 1 occupied at
    # every level, and the basis level with every site empty has denominator 1
    mixed = fock_act("astar", 1, states[0]) + FockVector.basis((0,) * sites, K)
    states.append(mixed)
    for n in range(1, sites + 1):
        for name, gen in (("a", osc_a), ("astar", osc_astar), ("qD", osc_qd)):
            assert (fock_act(name, n, mixed) - weyl_act(mixed, gen(lat, n))).is_zero()
    words = _oscillator_words(lat, rng, 12)
    for v in states:
        for X, Y in zip(words, words[1:] + words[:1]):
            vX = weyl_act(v, X)
            assert (weyl_act(vX, Y) - weyl_act(v, X * Y)).is_zero()
            assert (weyl_act(v, X + Y) - (vX + weyl_act(v, Y))).is_zero()
            assert weyl_act(v, X - X).is_zero()


def test_weyl_act_refuses_half_integer_exponents():
    lat = Lattice(2, True)
    v = FockVector.basis((1, 2), 4)
    for kind in ("U", "V"):
        op = osc_astar(lat, 1) + WeylOp.generator(lat, 2, kind, Fraction(1, 2))
        with pytest.raises(ValueError, match="half-integer"):
            weyl_act(v, op)


def test_fock_actions_refuse_sites_outside_the_state():
    v = FockVector.basis((1, 2, 0), 4)
    for size in (2, 4):
        with pytest.raises(ValueError, match="-site operator on a 3-site state"):
            weyl_act(v, osc_astar(Lattice(size, True), 2))
    for site in (0, 4, -1):
        with pytest.raises(ValueError, match="outside the 3-site state"):
            fock_act("astar", site, v)


def test_charge_checks_pass_on_four_sites():
    for cid in ("Omega_H1", "zero_column_sum"):
        rep = report_from_residuals({}, check_stoch(cid, K=6, N=4))
        assert rep.status == "pass", (cid, rep.witness)


def test_tensor_state_coefficients_factorise():
    K = 4
    om = build_state("omega", K)
    Om = build_state("Omega", K, N=2)
    for k1 in range(K + 1):
        for k2 in range(K + 1):
            assert Om.coefficient((k1, k2)) == om.coefficient((k1,)) * om.coefficient((k2,))
    # each tensor level is the monomial q^(-2(k1+..+kN)) over the factors
    # 1 - q^(-2j), each to the power of the number of sites at level >= j
    Om3 = build_state("Omega", K, N=3)
    for levels, c in Om3.coeffs.items():
        assert c.num == spow(-4 * sum(levels))
        assert c.factors == {Scalar.const(1) - spow(-4 * j): sum(k >= j for k in levels)
                             for j in range(1, max(levels) + 1)}
    # the one-site state keeps every level over the top level's factors
    first, *rest = [c.factors for c in om.coeffs.values()]
    assert first == {Scalar.const(1) - spow(-4 * j): 1 for j in range(1, K + 1)}
    assert all(m is first for m in rest)


def test_defect_confined_to_boundary_levels():
    K, N = 6, 2
    Om = build_state("Omega", K, N=N)
    H = stochastic_hamiltonian(Lattice(N, True))
    diff = weyl_act(Om, H) - Om.scale(Scalar.const(N))
    assert diff.interior_part().is_zero()
    assert all(any(x >= K for x in lv) for lv in diff.support_levels())


_WRONG_EIGEN_WITNESS = (
    "interior levels: (-1) v[0, 0, 0]  +  ((-s^-4) / (1 - s^-4)) v[0, 0, 1]"
    "  +  ((s^-12 - s^-8) / (1 - s^-16 + 2*s^-12 - 2*s^-4)) v[0, 0, 2]"
    "  +  ((s^-16 - s^-12) / (1 + s^-28 - 2*s^-24 + s^-16 + s^-12 - 2*s^-4)) v[0, 0, 3] ...")


def test_wrong_charge_eigenvalue_fails_at_every_interior_level():
    # H Omega - (N+1) Omega on the 3-site tensor state, the residual that a
    # wrong charge eigenvalue leaves: its size, support and witness are pinned
    K, N = 6, 3
    Om = build_state("Omega", K, N=N)
    H = stochastic_hamiltonian(Lattice(N, True))
    defect = (weyl_act(Om, H) - Om.scale(Scalar.const(N + 1))).interior_part()
    assert residual_size(defect) == 839
    assert len(defect.support_levels()) == (K ** N) == 216
    rep = report_from_residuals({}, [("interior levels", defect)])
    assert (rep.status, rep.residual_terms) == ("fail", 839)
    assert rep.witness == _WRONG_EIGEN_WITNESS


def test_fock_states_add_over_any_denominators():
    om = build_state("omega", 3)
    mixed = om + FockVector.basis((0,), 3)
    assert mixed.coefficient((0,)) == ScalarFraction(2)
    for k in (1, 2, 3):
        assert mixed.coefficient((k,)) == om.coefficient((k,))
    assert all(type(c) is ScalarFraction for c in mixed.coeffs.values())
    assert mixed.coefficient((7,)).is_zero()
    for other in (FockVector.basis((0,), 4), FockVector.basis((0, 0), 3)):
        with pytest.raises(ValueError, match="incompatible Fock spaces"):
            om + other


def _row(cid, **cfg):
    (report,) = run_checks([cid], RunConfig(**cfg))
    return report.as_row()


def test_charge_checks_build_the_defect_once():
    _interior_defect.cache_clear()
    run_checks(["Omega_H1", "zero_column_sum"], RunConfig())
    info = _interior_defect.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_memoised_defect_gives_the_fresh_rows():
    # a lower term cap trips as in a fresh process instead of reading the memo
    _row("Omega_H1")
    capped = _row("zero_column_sum", max_terms=1)
    assert capped["status"] == "fail"
    assert capped["witness"] == "term cap exceeded: product exceeds 1 terms"
    _interior_defect.cache_clear()
    assert _row("zero_column_sum", max_terms=1) == capped
    # another truncation is computed afresh
    fresh = _row("zero_column_sum", trunc=7)
    _row("Omega_H1")
    assert _row("zero_column_sum", trunc=7) == fresh
    assert fresh["status"] == "pass" and fresh["params"] == {"K": 7, "N": 3}
