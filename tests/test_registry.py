"""The catalogue: each row's params come from its entry alone, and a sweep row
sums the residuals of every chain length it names."""

import inspect

import pytest

from toda2 import classical, poisson, quantum, registry, reports, stoch
from toda2.registry import REGISTRY, RunConfig, run_checks
from toda2.ring import Scalar


def test_rows_report_the_catalogue_params():
    cfg = RunConfig(sites=4, trunc=7)
    expected = {
        "taut": {"N": "1..4"},
        "trace_identity": {"N": 4},
        "distant_commute": {"N": 5},
        "exlat_from_darboux": {"size": 6},
        "Lqosc_match": {"K": 7, "N": 3},
        "mutation_stoch": {"K": 6, "N": 2},
    }
    rows = run_checks(list(expected), cfg)
    assert [r.id for r in rows] == sorted(expected)
    for r in rows:
        assert r.status == "pass", (r.id, r.witness)
        assert r.params == REGISTRY[r.id].params(cfg) == expected[r.id]


def test_sweep_row_sums_every_chain_length(monkeypatch):
    bad = Scalar.var("x") + Scalar.var("y") + 1
    calls = []

    def fake(check_id, N, mutate=False):
        calls.append(N)
        if N == 3:
            return [("N=3 corner", bad)]
        return [(f"N={N} corner", Scalar.zero())]

    monkeypatch.setattr(classical, "check_classical", fake)
    (row,) = run_checks(["pN_equals_trT"], RunConfig())
    assert calls == [2, 3, 4]
    assert row.params == {"N": "2,3,4"}
    assert row.status == "fail"
    assert row.residual_terms == 3
    assert row.witness.startswith("N=3 corner: ")


# bench/tracing.py binds these names: a check_* function that moves out of its
# suite reads 0 in the per-layer ``<suite>.check.self_s`` metric, and a missing
# reports.report_from_residuals or registry.run_checks crashes the traced run.
@pytest.mark.parametrize("module, names", [
    (poisson, ["check_bracket_identity"]),
    (classical, ["check_classical"]),
    (quantum, ["check_fm", "check_ybe", "check_ultralocalisation",
               "check_representation", "check_hamiltonians"]),
    (stoch, ["check_stoch"]),
    (reports, ["report_from_residuals"]),
    (registry, ["run_checks"]),
], ids=["poisson", "classical", "quantum", "stoch", "reports", "registry"])
def test_traced_names_are_defined_in_their_modules(module, names):
    defined = sorted(name for name, fn in vars(module).items()
                     if inspect.isfunction(fn) and fn.__module__ == module.__name__
                     and (name.startswith("check_") or name in names))
    assert defined == sorted(names)


def test_every_row_looks_up_its_suite_function_at_call_time(monkeypatch):
    # bench/tracing.py rebinds each suite's check_* functions: a runner that
    # held a function object would escape the tracer as it escapes the recorder
    calls = []

    def recorder(check_id, *args, mutate=False, **params):
        calls.append(mutate)
        return []

    for module in (poisson, classical, quantum, stoch):
        for name, fn in vars(module).items():
            if name.startswith("check_") and inspect.isfunction(fn):
                monkeypatch.setattr(module, name, recorder)
    assert len(REGISTRY) == 60
    for cid in REGISTRY:
        calls.clear()
        run_checks([cid], RunConfig())
        # every row reaches a recorder; only the probes ask for corruption
        assert set(calls) == {cid.startswith("mutation_")}, cid


def test_check_defs_are_immutable():
    with pytest.raises(AttributeError):
        REGISTRY["AD"].anchor = "changed"


def test_report_rows_are_assignable_and_keep_six_keys():
    row = reports.CheckReport("", {"N": 3}, "fail", 2, "w")
    row.id, row.anchor, row.status, row.witness, row.elapsed = "AD", "a", "pass", "", 1.5
    assert row.as_row() == {"id": "AD", "params": {"N": 3}, "status": "pass",
                            "residual_terms": 2, "witness": "", "anchor": "a"}
    assert row.elapsed == 1.5
