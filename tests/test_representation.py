from fractions import Fraction

import pytest

from toda2.matops import OpMatrix
from toda2.quantum import (build_exchange, build_xi_quantum, check_representation,
                           op_Q, op_Q2, quantum_wronskian)
from toda2.reports import report_from_residuals
from toda2.ring import Scalar
from toda2.weyl import Lattice, WeylOp

LAT = Lattice(6, False)


def spow(k):
    return Scalar.var("s", k)


@pytest.mark.parametrize("cid", ["exchange_xi", "W_algebra_q", "QP_relations",
                                 "W1_monomial", "QP_match"])
def test_realisation_suites(cid):
    rep = report_from_residuals({}, check_representation(cid, size=6))
    assert rep.status == "pass", (cid, rep.witness)


def test_equal_site_exchange_weight():
    # the equal-site relation weighted by the step value at zero, written out:
    # (q^(1/2)+q^(-1/2)) xi^1 xi^2 = xi^2 xi^1 + ... from P(R+ + R-)
    n = 2
    xi1 = build_xi_quantum(1, n, LAT)
    xi2 = build_xi_quantum(2, n, LAT)
    one, zero = Scalar.const(1), Scalar.zero()
    Pm = OpMatrix([[one, zero, zero, zero],
                   [zero, zero, one, zero],
                   [zero, one, zero, zero],
                   [zero, zero, zero, one]])
    M = Pm.mul(build_exchange("Rplus").add(build_exchange("Rminus")))
    splus = spow(1) + spow(-1)
    lhs = xi1 * xi2 * splus
    rhs = WeylOp.zero(LAT)
    for ap in (1, 2):
        for bp in (1, 2):
            cf = M.entries[2 * (ap - 1) + (bp - 1)][1]  # column (a,b) = (1,2)
            if not cf.is_zero():
                x = build_xi_quantum(ap, n, LAT) * build_xi_quantum(bp, n, LAT)
                rhs = rhs + x * cf
    assert (lhs - rhs).is_zero()
    # and the resulting same-site rule collapses to q xi1 xi2 = xi2 xi1
    assert (xi1 * xi2 * spow(2) - xi2 * xi1).is_zero()


def test_wronskian_collapses_to_monomial():
    for n in range(1, 6):
        w = quantum_wronskian(1, n, LAT)
        assert w.term_count() == 1
        # and is invertible: coefficient a single power of the deformation
        (key, coeff), = w.terms.items()
        assert coeff.is_monomial()


def test_wronskian_inverse_matches_closed_square_root():
    for n in range(1, 6):
        q_from_w = quantum_wronskian(1, n, LAT).monomial_inverse()
        assert (q_from_w - op_Q(LAT, n)).is_zero()
        assert (q_from_w * q_from_w - op_Q2(LAT, n)).is_zero()


def test_doublet_components_differ():
    xi2 = build_xi_quantum(2, 3, LAT)
    assert xi2.term_count() == 3  # one summand per site below
    xi1 = build_xi_quantum(1, 3, LAT)
    assert xi1.term_count() == 1


def test_short_chain_rejected():
    with pytest.raises(ValueError):
        check_representation("exchange_xi", size=4)
