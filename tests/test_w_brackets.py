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


def _shifted_delta(original):
    # an extra P-P term at m = n + 2, weighted as the others
    return lambda n, m, d, q_squared, weight: (original(n, m, d, q_squared, weight)
                                               + weight(3, -1) * d(n, m - 2) * q_squared(n))


def _shifted_weight(original):
    # s^3 - s^-2 in place of s^3 - s^-1; classically 5 in place of 4
    return lambda n, m, d, q_squared, weight: original(n, m, d, q_squared,
                                                       lambda a, b: weight(a, b - 1))


def _flipped_tail_weight(original):
    # s^σ - s^(3σ) in place of s^σ - s^(-3σ); classically -2σ in place of 4σ
    return lambda n, m, d, w1, weight: original(n, m, d, w1, lambda a, b: weight(a, -b))


def _no_tail(original):
    return lambda n, m, d, w1, weight: []


@pytest.mark.parametrize("name, corrupt, classical, quantum", [
    ("pp_bracket", _shifted_delta, ["pp", "qp_from_rep"], ["QP_relations"]),
    ("pp_bracket", _shifted_weight, ["pp", "qp_from_rep"], ["QP_relations"]),
    ("w2w2_tail", _flipped_tail_weight, ["w2w2"], ["W_algebra_q"]),
    ("w2w2_tail", _no_tail, ["w2w2"], ["W_algebra_q"]),
])
def test_one_closing_bracket_feeds_both_sides(name, corrupt, classical, quantum):
    # the P-P bracket and the W2-W2 tail are written once, in poisson: the
    # classical suites weigh each term by its first-order weight and the
    # quantum relations by s^a - s^b, so one corruption fails both sides
    original = getattr(poisson, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poisson, name, corrupt(original))
        for cid in classical:
            size = 6 if cid == "qp_from_rep" else 8
            rep = report_from_residuals({}, check_bracket_identity(cid, size=size))
            assert rep.status == "fail", cid
        for cid in quantum:
            rep = report_from_residuals({}, check_representation(cid, size=6))
            assert rep.status == "fail", cid
    assert getattr(poisson, name) is original
    for cid in quantum:
        assert report_from_residuals({}, check_representation(cid, size=6)).status == "pass"


def test_first_order_is_the_slope_of_the_quantum_weight_at_s_1():
    from toda2.quantum import _weight
    from toda2.ring import unpack_key, var_index

    s = var_index("s")
    for a, b in ((3, -1), (1, -3), (-1, 3)):
        # d/ds (s^a - s^b) at s = 1
        slope = sum(c * dict(unpack_key(k)).get(s, 0) for k, c in _weight(a, b).terms.items())
        assert slope == poisson.first_order(a, b)
