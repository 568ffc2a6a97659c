"""Catalogue of every named check and its runner.

This is the only module that writes a check's id, anchor and listed defaults;
the suite functions return rows with just their params and residuals.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import classical, poisson, quantum, stoch
from .reports import CheckReport, FAIL, PASS

__all__ = ["RunConfig", "CheckDef", "REGISTRY", "run_checks", "list_checks"]


@dataclass
class RunConfig:
    sites: int = 3
    trunc: int = 6
    max_terms: int = 10 ** 6

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("sites must be positive")
        if self.trunc < stoch.MIN_TRUNC:
            raise ValueError(f"trunc must be at least {stoch.MIN_TRUNC}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


@dataclass(frozen=True)
class CheckDef:
    id: str
    module: str
    anchor: str
    defaults: dict
    fn: Callable[[RunConfig], CheckReport]


# What each suite check certifies, keyed by the id its suite function takes.
ANCHORS = {
    # poisson
    "w1w1": "adjacent-step Wronskian brackets close quadratically",
    "w1w2": "mixed-step Wronskian brackets close quadratically",
    "w2w2": "double-step Wronskian brackets close with quartic tail",
    "virlat": "cubic subalgebra closes and decouples from the Wronskians",
    "qq": "Q-Q bracket recovered from the Wronskian realisation",
    "qp": "Q-P bracket recovered from the Wronskian realisation",
    "pp": "P-P bracket recovered from the Wronskian realisation",
    "exlat_from_darboux": "canonical-pair realisation satisfies the doublet exchange bracket",
    "qp_from_rep": "canonical-pair realisation reproduces the quadratic Q/P brackets",
    "jacobi": "Jacobi identity for every shipped bracket table",
    # quantum
    "AD": "same-site Lax exchange through the A/D pair",
    "B": "adjacent-site Lax exchange through the C-type matrix",
    "C": "adjacent-site Lax exchange through the B-type matrix",
    "DGCG_general": "companion-matrix compatibility for free parameters",
    "dual_general": "dual compatibility for the trace-closing companion",
    "ATT_TTD": "monodromy quadratic exchange algebra",
    "distant_commute": "Lax entries at distant sites commute",
    "YBE_twisted": "twisted R-matrix satisfies the Yang-Baxter equation",
    "RLL_ultralocal": "RLL exchange for the ultralocal Lax matrix",
    "gauge_l": "gauge transform of the bare Lax is ultralocal",
    "gauge_G": "gauge transform of the companion matrix, long entries included",
    "scriptL_assembly": "gauged Lax times gauged companion equals the dressed form",
    "trace_identity": "closed trace of the gauged chain drops the twist",
    "entrywise_conjugation": "entrywise twist carries the gauged Lax to the ultralocal one",
    "taut": "twisted rescaled transfer trace equals the ultralocal transfer matrix",
    "exchange_xi": "doublet exchange algebra, including the equal-site weight",
    "W_algebra_q": "deformed Wronskian algebra closes",
    "QP_relations": "closed-form Q/P commutation relations",
    "W1_monomial": "step-one Wronskian collapses to an invertible monomial",
    "QP_match": "Wronskian-built Q/P equal their closed forms",
    "commute": "transfer-derived charges commute pairwise",
    "tau_commute": "dressed transfer traces commute at two spectral points",
    "tloc_commute": "ultralocal transfer traces commute at two spectral points",
    "H1_qToda": "first charge at the hopping-free point",
    "H1_Toda2": "first charge of the quadratic-bracket chain",
    "H2_Toda2": "second charge combination of the quadratic-bracket chain",
    "trq_commute": "the two deformed trace charges commute",
    "trq_match1": "first deformed trace matches the first charge",
    "trq_match2": "second deformed trace matches the second charge combination",
    "qosc_coherence": "oscillator Lax transfer equals the preset transfer",
    # classical
    "poissonL_explicit": "entry brackets of the big Lax match the explicit quadratic form",
    "poissonL_dform": "entry brackets of the big Lax match the commutator form",
    "involution": "trace powers are in involution and the corner product is central",
    "curve_NxN": "characteristic polynomial splits off the corner term",
    "curve_2x2": "monodromy characteristic relation and spectral determinant",
    "pN_equals_trT": "corner-free characteristic part equals the monodromy trace",
    # stoch
    "qosc_algebra": "deformed oscillator algebra in the Weyl realisation",
    "Lqosc_match": "oscillator Lax equals the ultralocal Lax at the preset",
    "column_eigen": "column sums act on the geometric state with eigenvalue lam - 1",
    "omega_identity": "raising identity of the geometric state below truncation",
    "Omega_H1": "tensor geometric state is a left eigenstate of the chain charge",
    "zero_column_sum": "interior columns of the shifted generator sum to zero",
    "realisation_consistency": "Fock action agrees with the Weyl realisation",
}


def _expect_failure(probe: Callable[[], CheckReport]) -> CheckReport:
    """Run a deliberately corrupted identity; pass iff the corruption is caught."""
    report = probe()
    caught = report.status == FAIL and report.residual_terms > 0 and bool(report.witness)
    return CheckReport(
        "", dict(report.params), PASS if caught else FAIL,
        report.residual_terms,
        f"corruption detected: {report.witness}" if caught
        else "corrupted input was not detected")


def _sweep(sizes: str, reports: list[CheckReport]) -> CheckReport:
    """One row for a check run at several chain lengths ``sizes``: residual
    terms add up and the first nonempty witness is kept."""
    total = sum(r.residual_terms for r in reports)
    witness = next((r.witness for r in reports if r.witness), "")
    return CheckReport("", {"N": sizes}, PASS if total == 0 else FAIL, total, witness)


def _build_registry() -> dict[str, CheckDef]:
    """Every check with its listed defaults: the params its row reports at
    the default :class:`RunConfig` (``--seed`` aside)."""
    defs: list[CheckDef] = []

    def add(module: str, ids: str, defaults: dict, run) -> None:
        """Register each of the space-separated ``ids``; ``run(id, cfg)`` runs one."""
        for cid in ids.split():
            defs.append(CheckDef(cid, module, ANCHORS[cid], defaults,
                                 lambda cfg, c=cid: run(c, cfg)))

    bracket = lambda c, cfg: poisson.check_bracket_identity(c)
    add("poisson", "w1w1 w1w2 w2w2 virlat qq qp pp", {"size": 8}, bracket)
    add("poisson", "exlat_from_darboux qp_from_rep", {"size": 6}, bracket)
    add("poisson", "jacobi", {"charts": "exlat,qp,darboux"}, bracket)

    add("quantum", "AD B C ATT_TTD", {"N": 3},
        lambda c, cfg: quantum.check_fm(c, N=max(cfg.sites, 3)))
    add("quantum", "DGCG_general dual_general", {"parameters": "free"},
        lambda c, cfg: quantum.check_fm(c))
    add("quantum", "distant_commute", {"N": 5},
        lambda c, cfg: quantum.check_fm(c, N=max(cfg.sites, 5)))
    add("quantum", "YBE_twisted", {"legs": 3}, lambda c, cfg: quantum.check_ybe(c))
    add("quantum", "RLL_ultralocal", {"d": "generic"}, lambda c, cfg: quantum.check_ybe(c))
    add("quantum", "gauge_l gauge_G scriptL_assembly entrywise_conjugation", {"N": 3},
        lambda c, cfg: quantum.check_ultralocalisation(c))
    add("quantum", "trace_identity", {"N": 3},
        lambda c, cfg: quantum.check_ultralocalisation(c, N=cfg.sites))
    add("quantum", "taut", {"N": "1..3"}, lambda c, cfg: _sweep(
        f"1..{max(cfg.sites, 3)}",
        [quantum.check_ultralocalisation(c, N=n) for n in range(1, max(cfg.sites, 3) + 1)]))
    add("quantum", "exchange_xi W_algebra_q QP_relations W1_monomial QP_match", {"size": 6},
        lambda c, cfg: quantum.check_representation(c))
    add("quantum", "commute H1_qToda H1_Toda2 H2_Toda2 trq_commute trq_match1 trq_match2 "
        "qosc_coherence", {"N": 3},
        lambda c, cfg: quantum.check_hamiltonians(c, N=max(cfg.sites, 2)))
    add("quantum", "tau_commute tloc_commute", {"N": 3},
        lambda c, cfg: quantum.check_hamiltonians(c, N=max(cfg.sites, 3)))

    add("classical", "poissonL_explicit poissonL_dform involution curve_NxN curve_2x2",
        {"N": 3}, lambda c, cfg: classical.check_classical(c, N=max(cfg.sites, 3)))
    defs.append(CheckDef("poissonL_degenerate", "classical",
                         ANCHORS["poissonL_explicit"] + " (degenerate wrap)", {"N": 2},
                         lambda cfg: classical.check_classical("poissonL_explicit", N=2)))
    add("classical", "pN_equals_trT", {"N": "2,3,4"}, lambda c, cfg: _sweep(
        "2,3,4", [classical.check_classical(c, N=n) for n in (2, 3, 4)]))

    add("stoch", "qosc_algebra Lqosc_match column_eigen omega_identity Omega_H1 "
        "zero_column_sum realisation_consistency", {"K": 6, "N": 3},
        lambda c, cfg: stoch.check_stoch(c, K=cfg.trunc, N=min(max(cfg.sites, 2), 3)))

    # mutation sensitivity: one corrupted run per suite must be caught
    mutations = (
        ("mutation_poisson", "poisson", "corrupted Wronskian bracket identity is caught",
         {"size": 8}, lambda: poisson.check_bracket_identity("w1w1", mutate=True)),
        ("mutation_fm", "quantum", "sign-flipped compatibility parameter is caught",
         {"parameters": "free"}, lambda: quantum.check_fm("DGCG_general", mutate=True)),
        ("mutation_rll", "quantum", "zeroed ultralocal Lax entry is caught",
         {"d": "generic"}, lambda: quantum.check_ybe("RLL_ultralocal", mutate=True)),
        ("mutation_gauge", "quantum", "sign-flipped companion entry is caught",
         {"N": 3}, lambda: quantum.check_ultralocalisation("gauge_G", mutate=True)),
        ("mutation_classical", "classical",
         "sign-flipped antisymmetric structure matrix is caught",
         {"N": 3}, lambda: classical.check_classical("poissonL_explicit", mutate=True)),
        ("mutation_stoch", "stoch", "wrong column eigenvalue is caught",
         {"K": 6, "N": 2}, lambda: stoch.check_stoch("column_eigen", mutate=True)),
    )
    for cid, module, anchor, defaults, probe in mutations:
        defs.append(CheckDef(cid, module, anchor, defaults,
                             lambda cfg, p=probe: _expect_failure(p)))

    return {d.id: d for d in defs}


REGISTRY = _build_registry()


def list_checks() -> list[CheckDef]:
    return [REGISTRY[k] for k in sorted(REGISTRY)]


def run_checks(ids, cfg: RunConfig) -> list[CheckReport]:
    """Run the named checks (sorted) and return their reports sorted by id.

    Every row takes its id and anchor from the check's :class:`CheckDef`.  A
    check that raises yields a failed row whose witness names the exception
    (its traceback goes to stderr); the remaining checks still run.
    """
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown check ids: {', '.join(sorted(unknown))}")
    from . import weyl
    old_cap = weyl.TERM_CAP
    weyl.TERM_CAP = cfg.max_terms
    reports = []
    try:
        for cid in sorted(set(ids)):
            t0 = time.perf_counter()
            try:
                report = REGISTRY[cid].fn(cfg)
            except weyl.TermCapExceeded as exc:
                report = CheckReport("", {"max_terms": cfg.max_terms}, FAIL, 0,
                                     f"term cap exceeded: {exc}")
            except Exception as exc:
                import traceback
                traceback.print_exc(file=sys.stderr)
                report = CheckReport("", {}, FAIL, 0, f"{type(exc).__name__}: {exc}")
            report.elapsed = time.perf_counter() - t0
            report.id, report.anchor = cid, REGISTRY[cid].anchor
            reports.append(report)
    finally:
        weyl.TERM_CAP = old_cap
    return reports
