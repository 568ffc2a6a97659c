"""The W-algebra structure constants, the chain's realisation words, the
doublet exchange matrices and the Wronskian are written once, in ``poisson``,
and both the classical bracket suites and the quantum relations read them."""

from fractions import Fraction

import pytest

from toda2 import poisson
from toda2.poisson import check_bracket_identity
from toda2.quantum import _weight, build_exchange, check_representation
from toda2.reports import report_from_residuals
from toda2.ring import unpack_key, var_index


def _run(cid):
    """The status of one check at the suite sizes: 6 sites for the canonical
    pairs and the quantum chain, 8 for the exchange chart."""
    if cid in ("exlat_from_darboux", "qp_from_rep"):
        return report_from_residuals({}, check_bracket_identity(cid, size=6)).status
    if cid in ("w1w1", "w2w2", "virlat", "qq", "qp", "pp"):
        return report_from_residuals({}, check_bracket_identity(cid, size=8)).status
    return report_from_residuals({}, check_representation(cid, size=6)).status


@pytest.mark.parametrize("entry, classical, quantum", [
    ("W1W1", ["w1w1", "virlat", "qq"], ["W_algebra_q", "QP_relations"]),
    ("QP", ["qp", "qp_from_rep"], ["QP_relations"]),
    ("W2W2", ["w2w2"], ["W_algebra_q"]),
])
def test_one_table_feeds_both_sides(entry, classical, quantum):
    original = poisson.W_BRACKETS[entry]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(poisson.W_BRACKETS, entry,
                   lambda n, m, d: original(n, m, d) + d(n, m - 2))
        for cid in classical + quantum:
            assert _run(cid) == "fail", cid
    assert poisson.W_BRACKETS[entry] is original
    for cid in classical:
        assert _run(cid) == "pass", cid


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
        for cid in classical + quantum:
            assert _run(cid) == "fail", cid
    assert getattr(poisson, name) is original
    for cid in quantum:
        assert _run(cid) == "pass", cid


def _slope(x):
    """d/ds at s = 1 of a Scalar in s alone."""
    s = var_index("s")
    return sum(c * dict(unpack_key(k)).get(s, 0) for k, c in x.terms.items())


def test_first_order_is_the_slope_of_the_quantum_weight_at_s_1():
    for a, b in ((3, -1), (1, -3), (-1, 3)):
        assert _slope(_weight(a, b)) == poisson.first_order(a, b)


def _exchange_weight(original):
    # s - s^-6 in place of s - s^-3 off the diagonal of R+; classically 7 for 4
    return lambda sign, power, weight: original(sign, power, lambda a, b: weight(a, 2 * b))


def _dropped_factor(original):
    return lambda component, n: [word[:-1] for word in original(component, n)]


def _one_p_word(original):
    return lambda n: original(n)[:1]


def _no_v_in_q2(original):
    return lambda n: original(n)[1:]


def _wronskian_weight(original):
    return lambda xi, n, p, q: original(xi, n, p, 2 * q)


@pytest.mark.parametrize("name, corrupt, checks", [
    ("exchange", _exchange_weight, ["exlat_from_darboux", "w1w1", "exchange_xi"]),
    ("doublet_words", _dropped_factor, ["exlat_from_darboux", "exchange_xi"]),
    ("p_words", _one_p_word, ["qp_from_rep", "QP_relations", "QP_match"]),
    ("q2_word", _no_v_in_q2, ["qp_from_rep", "QP_relations", "QP_match"]),
    ("wronskian", _wronskian_weight, ["w1w1", "W_algebra_q"]),
])
def test_one_realisation_feeds_both_sides(name, corrupt, checks):
    # the realisation words, the exchange matrices and the Wronskian are
    # written once, in poisson: the darboux and exchange charts read them
    # classically and the quantum chain through WeylOp.word and s-powers
    original = getattr(poisson, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poisson, name, corrupt(original))
        assert [_run(cid) for cid in checks] == ["fail"] * len(checks)
    assert getattr(poisson, name) is original
    assert [_run(cid) for cid in checks] == ["pass"] * len(checks)


def test_classical_tables_are_the_slope_of_the_quantum_exchange_at_s_1():
    plus, equal = poisson._exchange_tables()
    rp, rm = build_exchange("Rplus").entries, build_exchange("Rminus").entries
    assert plus == [[_slope(x) for x in row] for row in rp]
    assert equal == [[Fraction(_slope(x) + _slope(y), 2) for x, y in zip(r, t)]
                     for r, t in zip(rp, rm)]
    # exact throughout: no float, not even a zero
    assert all(type(c) in (int, Fraction) for table in (plus, equal) for row in table
               for c in row)
