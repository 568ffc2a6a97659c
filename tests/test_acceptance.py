"""Acceptance suite: every exit criterion at its stated tolerance.

All checks are exact (zero-residual polynomial identities); the stated
runtime ceilings are asserted alongside.  One summary line prints per
criterion.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import toda2
from toda2 import cli
from toda2.registry import REGISTRY, RunConfig, run_checks
from toda2.reports import DEGENERATE, PASS

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"
CATALOGUE_REFERENCE = REFERENCE / "catalogue.json"
SITES4_REFERENCE = REFERENCE / "sites4.json"
# rows of the three commutator checks at 5 sites, witness text included,
# recorded before the commutator became one fused pass
SITES5_REFERENCE = Path(__file__).resolve().parent / "reference" / "sites5_commute.json"
# the bytes of `toda2 verify all --json` at the defaults (seed 0), witness text
# included, recorded before the realisation was written once for both sides
CATALOGUE_REPORT = Path(__file__).resolve().parent / "reference" / "catalogue_report.json"
# the bytes of `toda2 verify all --sites 4 --json` (seed 0), recorded before the
# tensor legs were placed by one embedding: the d21 structure matrix and the
# 16x16 embeddings of the classical rows run only at N > 3
CATALOGUE_SITES4_REPORT = CATALOGUE_REPORT.with_name("catalogue_sites4.json")


def _run(ids, **cfg):
    t0 = time.perf_counter()
    reports = run_checks(ids, RunConfig(**cfg))
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def _assert_all_pass(no, label, ids, limit, **cfg):
    reports, elapsed = _run(ids, **cfg)
    bad = [r for r in reports if r.status not in (PASS, DEGENERATE)]
    ok = not bad and elapsed < limit
    print(f"ACCEPTANCE {no:2d} [{'PASS' if ok else 'FAIL'}] {label} "
          f"({elapsed:.1f}s < {limit}s)")
    assert not bad, [(r.id, r.witness) for r in bad]
    assert all(r.residual_terms == 0 for r in reports)
    assert elapsed < limit
    return reports


def test_criterion_01_exchange_structure_suite():
    _assert_all_pass(1, "exchange structure suite",
                     ["AD", "B", "C", "DGCG_general", "dual_general"], limit=10)


def test_criterion_02_monodromy_quadratic_algebra():
    reports = _assert_all_pass(2, "monodromy quadratic algebra at N=3",
                               ["ATT_TTD"], limit=60)
    assert reports[0].params == {"N": 3}


def test_criterion_03_yang_baxter_and_rll():
    _assert_all_pass(3, "Yang-Baxter and ultralocal RLL",
                     ["YBE_twisted", "RLL_ultralocal"], limit=10)


def test_criterion_04_ultralocalisation_chain():
    _assert_all_pass(4, "ultralocalisation chain with twist identity at N=1..3",
                     ["gauge_l", "gauge_G", "scriptL_assembly", "trace_identity",
                      "entrywise_conjugation", "taut"], limit=120)


def test_criterion_05_commuting_charges():
    _assert_all_pass(5, "transfer traces and charges commute",
                     ["tau_commute", "tloc_commute", "commute"], limit=300)


def test_criterion_06_charge_formulas():
    _assert_all_pass(6, "closed charge formulas and deformed traces",
                     ["H1_qToda", "H1_Toda2", "H2_Toda2",
                      "trq_match1", "trq_match2"], limit=60)


def test_criterion_07_quantum_realisation():
    _assert_all_pass(7, "quantum doublet realisation on a 6-site chain",
                     ["exchange_xi", "W_algebra_q", "QP_relations",
                      "W1_monomial"], limit=60)


def test_criterion_08_classical_bracket_suites():
    _assert_all_pass(8, "classical bracket algebras and realisations",
                     ["w1w1", "w1w2", "w2w2", "virlat", "qq", "qp", "pp",
                      "exlat_from_darboux", "qp_from_rep", "jacobi"], limit=60)


def test_criterion_09_classical_integrability():
    reports, elapsed = _run(["poissonL_explicit", "poissonL_dform",
                             "poissonL_degenerate", "involution", "pN_equals_trT"])
    by_id = {r.id: r for r in reports}
    ok = (by_id["poissonL_explicit"].status == PASS
          and by_id["poissonL_dform"].status == PASS
          and by_id["poissonL_degenerate"].status == DEGENERATE
          and by_id["involution"].status == PASS
          and by_id["pN_equals_trT"].status == PASS)
    print(f"ACCEPTANCE  9 [{'PASS' if ok else 'FAIL'}] classical integrability "
          f"({elapsed:.1f}s)")
    assert ok
    assert all(r.residual_terms == 0 for r in reports)


def test_criterion_10_stochastic_suite():
    _assert_all_pass(10, "oscillator specialisation and stochastic structure",
                     ["qosc_algebra", "Lqosc_match", "column_eigen", "Omega_H1"],
                     limit=60, sites=2, trunc=6)


def test_criterion_11_mutation_sensitivity():
    ids = [cid for cid in REGISTRY if cid.startswith("mutation_")]
    assert len(ids) >= 5  # at least one corrupted probe per suite
    reports, elapsed = _run(ids)
    ok = all(r.status == PASS for r in reports)
    caught = all("corruption detected" in r.witness for r in reports)
    print(f"ACCEPTANCE 11 [{'PASS' if ok and caught else 'FAIL'}] mutation "
          f"sensitivity across suites ({elapsed:.1f}s)")
    assert ok and caught
    # each probe carries the nonzero witness of the corrupted residual, whose
    # text decodes the packed monomial keys
    assert all(r.residual_terms > 0 for r in reports)
    assert {r.id: r.witness for r in reports} == MUTATION_WITNESSES


MUTATION_WITNESSES = {
    "mutation_classical": "corruption detected: entry brackets vs explicit form: entry (1,6): "
                          "(-2*Q1*Q3*mu1*mu2^2 + 2*Q1*Q3*mu1^2*mu2) / (mu1*mu2^2)",
    "mutation_fm": "corruption detected: compatibility: entry (2,3): -alpha^2*lam1*s^3 "
                   "+ alpha^2*lam1*s^5 + alpha^2*lam1*s^7 - alpha^2*lam1*s^9 "
                   "+ alpha^2*lam2*s^3 - alpha^2*lam2*s^5 - alpha^2*lam2*s^7 "
                   "+ alpha^2*lam2*s^9",
    "mutation_gauge": "corruption detected: site 1: entry (1,1): (-2*lam*s^-1 + 2*lam*s^3) V1^1",
    "mutation_poisson": "corruption detected: mutated: 2*xi1_2*xi1_3*xi2_3*xi2_4 "
                        "- 2*xi1_2*xi1_4*xi2_3^2 + 2*xi1_3*xi1_4*xi2_2*xi2_3 "
                        "- 2*xi1_3^2*xi2_2*xi2_4",
    "mutation_rll": "corruption detected: site 1: entry (2,1): (lam1*s^-8 - lam1*s^-4) "
                    "V1^-1 U1^1  +  (lam1*lam2 - lam1*lam2*s^-4) U1^1",
    "mutation_stoch": "corruption detected: column 1: ((-2 - 2*s^-84 + 2*s^-80 + 2*s^-76 "
                      "- 2*s^-64 - 4*s^-56 + 2*s^-48 + 2*s^-44 + 2*s^-40 + 2*s^-36 "
                      "- 4*s^-28 - 2*s^-20 + 2*s^-8 + 2*s^-4) / (1 + s^-84 - s^-80 "
                      "- s^-76 + s^-64 + 2*s^-56 - s^-48 - s^-44 - s ...",
}


def test_criterion_12_deterministic_reports(tmp_path):
    p1, p2 = tmp_path / "run1.json", tmp_path / "run2.json"
    t0 = time.perf_counter()
    assert cli.main(["verify", "all", "--json", str(p1)]) == 0
    assert cli.main(["verify", "all", "--json", str(p2)]) == 0
    elapsed = time.perf_counter() - t0
    identical = p1.read_bytes() == p2.read_bytes()
    pinned = p1.read_bytes() == CATALOGUE_REPORT.read_bytes()
    rows = json.loads(p1.read_text())
    ok = identical and pinned and len(rows) == len(REGISTRY)
    print(f"ACCEPTANCE 12 [{'PASS' if ok else 'FAIL'}] byte-identical full "
          f"reports ({elapsed:.1f}s)")
    assert identical
    assert pinned
    assert [r["id"] for r in rows] == sorted(REGISTRY)
    # the benchmark's reference rows of the same command
    ref = json.loads(CATALOGUE_REFERENCE.read_text())["rows"]
    assert _comparable(rows) == _comparable(ref)


def test_catalogue_at_four_sites_matches_reference(tmp_path):
    path = tmp_path / "sites4_all.json"
    t0 = time.perf_counter()
    assert cli.main(["verify", "all", "--sites", "4", "--json", str(path)]) == 0
    elapsed = time.perf_counter() - t0
    ok = path.read_bytes() == CATALOGUE_SITES4_REPORT.read_bytes()
    print(f"ACCEPTANCE 12 [{'PASS' if ok else 'FAIL'}] full report at N=4 matches "
          f"the recorded bytes ({elapsed:.1f}s)")
    assert path.read_bytes() == CATALOGUE_SITES4_REPORT.read_bytes()


def _comparable(rows):
    """Rows as the benchmark gate compares them: ``seed`` and witness left out.

    Witness text is left out because the reference rows predate name-ordered
    residual text.
    """
    keys = ("id", "status", "residual_terms", "anchor")
    return [dict({k: r[k] for k in keys},
                 params={k: v for k, v in r["params"].items() if k != "seed"})
            for r in rows]


def test_sites4_rows_match_reference(tmp_path):
    # the 4-site operator checks (s^k reordering phases at every product)
    ids = ["ATT_TTD", "commute", "tau_commute", "tloc_commute"]
    path = tmp_path / "sites4.json"
    t0 = time.perf_counter()
    assert cli.main(["verify", *ids, "--sites", "4", "--json", str(path)]) == 0
    elapsed = time.perf_counter() - t0
    rows = json.loads(path.read_text())
    ref = [r for r in json.loads(SITES4_REFERENCE.read_text())["rows"]
           if r["id"] in ids]
    ok = _comparable(rows) == _comparable(ref)
    print(f"ACCEPTANCE  5 [{'PASS' if ok else 'FAIL'}] exchange algebra and charges at N=4 "
          f"match the reference rows ({elapsed:.1f}s)")
    assert [r["id"] for r in ref] == ids
    assert _comparable(rows) == _comparable(ref)


def test_sites5_commutator_rows_match_reference(tmp_path):
    ref = json.loads(SITES5_REFERENCE.read_text())
    path = tmp_path / "sites5.json"
    t0 = time.perf_counter()
    assert cli.main([*ref["argv"], "--json", str(path)]) == 0
    elapsed = time.perf_counter() - t0
    rows = [{k: v for k, v in r.items() if k != "elapsed_ms"}
            for r in json.loads(path.read_text())]
    ok = rows == ref["rows"]
    print(f"ACCEPTANCE  5 [{'PASS' if ok else 'FAIL'}] commuting charges and traces at "
          f"N=5 match the recorded rows ({elapsed:.1f}s)")
    assert rows == ref["rows"]


def test_listed_defaults_are_the_reported_params():
    # ``toda2 list`` shows each check's params at the default config; they
    # must be the params its row reports there (the reference rows of
    # ``verify all``)
    ref = json.loads(CATALOGUE_REFERENCE.read_text())
    assert ref["argv"] == ["verify", "all"]
    reported = {r["id"]: {k: v for k, v in r["params"].items() if k != "seed"}
                for r in ref["rows"]}
    assert {cid: d.params(RunConfig()) for cid, d in REGISTRY.items()} == reported


def _rows_in_fresh_process(ids, path):
    """Run ``toda2 verify`` on ``ids`` in a new interpreter; rows by id."""
    src = str(Path(toda2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "toda2.cli", "verify", *ids,
                           "--json", str(path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {row["id"]: row for row in json.loads(path.read_text())}


def test_criterion_12_rows_independent_of_run_order(tmp_path):
    # checks that run earlier in a process must not change a later row's text
    mutations = sorted(cid for cid in REGISTRY if cid.startswith("mutation_"))
    alone = {}
    for cid in mutations:
        alone.update(_rows_in_fresh_process([cid], tmp_path / f"{cid}.json"))
    together = _rows_in_fresh_process(["AD", "H1_Toda2", *mutations],
                                      tmp_path / "together.json")
    differing = [cid for cid in mutations if alone[cid] != together[cid]]
    print(f"ACCEPTANCE 12 [{'FAIL' if differing else 'PASS'}] rows independent "
          f"of run order ({len(mutations)} probes)")
    assert not differing
