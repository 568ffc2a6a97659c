"""The W-algebra structure constants are written once, in ``poisson.W_BRACKETS``,
and both the classical bracket suites and the quantum relations read them."""

import pytest

from toda2 import poisson
from toda2.poisson import check_bracket_identity
from toda2.quantum import check_representation
from toda2.reports import report_from_residuals


@pytest.mark.parametrize("entry, classical, quantum", [
    ("W1W1", ["w1w1", "qq"], ["W_algebra_q", "QP_relations"]),
    ("QP", ["qp", "qp_from_rep"], ["QP_relations"]),
    ("W2W2", ["w2w2"], ["W_algebra_q"]),
])
def test_one_table_feeds_both_sides(entry, classical, quantum):
    original = poisson.W_BRACKETS[entry]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(poisson.W_BRACKETS, entry,
                   lambda n, m, d: original(n, m, d) + d(n, m - 2))
        for cid in classical:
            size = 6 if cid == "qp_from_rep" else 8
            rep = report_from_residuals({}, check_bracket_identity(cid, size=size))
            assert rep.status == "fail", cid
        for cid in quantum:
            rep = report_from_residuals({}, check_representation(cid, size=6))
            assert rep.status == "fail", cid
    assert poisson.W_BRACKETS[entry] is original
    for cid in classical:
        size = 6 if cid == "qp_from_rep" else 8
        assert report_from_residuals({}, check_bracket_identity(cid, size=size)).status == "pass"
