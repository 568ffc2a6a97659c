"""Catalogue of every named check and its runner.

This is the only module that writes a check's id, anchor and params, and the
only one that builds report rows: the suite functions return just their
labelled residuals.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import classical, poisson, quantum, stoch, weyl
from .reports import DEGENERATE, FAIL, PASS, CheckReport, report_from_residuals

__all__ = ["RunConfig", "CheckDef", "REGISTRY", "run_checks", "list_checks"]


@dataclass
class RunConfig:
    sites: int = 3
    trunc: int = 6
    max_terms: int = weyl.TERM_CAP

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("sites must be positive")
        if self.trunc < stoch.MIN_TRUNC:
            raise ValueError(f"trunc must be at least {stoch.MIN_TRUNC}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


@dataclass(frozen=True)
class CheckDef:
    """One catalogue entry.  ``params(cfg)`` are the params of its row (``toda2
    list`` prints them at the default config), ``residuals(params)`` are its
    labelled residuals there, and ``rule``, if any, turns the pass-iff-zero
    summary of those residuals into the row."""
    id: str
    module: str
    anchor: str
    params: Callable[[RunConfig], dict]
    residuals: Callable[[dict], list]
    rule: Callable[[CheckReport], CheckReport] | None = None


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


def _caught(report: CheckReport) -> CheckReport:
    """Row of a deliberately corrupted identity: pass iff the corruption is caught."""
    if report.status == FAIL and report.witness:
        report.status, report.witness = PASS, f"corruption detected: {report.witness}"
    else:
        report.status, report.witness = FAIL, "corrupted input was not detected"
    return report


def _degenerate(report: CheckReport) -> CheckReport:
    """Row of a check run where periodic deltas collapse: labelled, never failed."""
    report.status = DEGENERATE
    return report


def _build_registry() -> dict[str, CheckDef]:
    defs: list[CheckDef] = []

    def add(module: str, ids: str, params, residuals) -> None:
        """Register each of the space-separated ``ids``: ``params(cfg)`` gives
        its row's params and ``residuals(id, params)`` its residuals there."""
        for cid in ids.split():
            defs.append(CheckDef(cid, module, ANCHORS[cid], params,
                                 lambda p, c=cid: residuals(c, p)))

    bracket = lambda c, p: poisson.check_bracket_identity(c, **p)
    add("poisson", "w1w1 w1w2 w2w2 virlat qq qp pp", lambda cfg: {"size": 8}, bracket)
    add("poisson", "exlat_from_darboux qp_from_rep", lambda cfg: {"size": 6}, bracket)
    add("poisson", "jacobi", lambda cfg: {"charts": "exlat,qp,darboux"},
        lambda c, p: poisson.check_bracket_identity(c))

    fm = lambda c, p: quantum.check_fm(c, **p)
    add("quantum", "AD B C ATT_TTD", lambda cfg: {"N": max(cfg.sites, 3)}, fm)
    add("quantum", "DGCG_general dual_general", lambda cfg: {"parameters": "free"},
        lambda c, p: quantum.check_fm(c))
    add("quantum", "distant_commute", lambda cfg: {"N": max(cfg.sites, 5)}, fm)
    add("quantum", "YBE_twisted", lambda cfg: {"legs": 3}, lambda c, p: quantum.check_ybe(c))
    add("quantum", "RLL_ultralocal", lambda cfg: {"d": "generic"},
        lambda c, p: quantum.check_ybe(c))
    ultralocalisation = lambda c, p: quantum.check_ultralocalisation(c, **p)
    add("quantum", "gauge_l gauge_G scriptL_assembly entrywise_conjugation",
        lambda cfg: {"N": 3}, ultralocalisation)
    add("quantum", "trace_identity", lambda cfg: {"N": cfg.sites}, ultralocalisation)
    # one row for the chain lengths 1..N: residual lists concatenate
    add("quantum", "taut", lambda cfg: {"N": f"1..{max(cfg.sites, 3)}"},
        lambda c, p: [item for n in range(1, int(p["N"].split("..")[1]) + 1)
                      for item in quantum.check_ultralocalisation(c, N=n)])
    add("quantum", "exchange_xi W_algebra_q QP_relations W1_monomial QP_match",
        lambda cfg: {"size": 6}, lambda c, p: quantum.check_representation(c, **p))
    hamiltonians = lambda c, p: quantum.check_hamiltonians(c, **p)
    add("quantum", "commute H1_qToda H1_Toda2 H2_Toda2 trq_commute trq_match1 trq_match2 "
        "qosc_coherence", lambda cfg: {"N": max(cfg.sites, 2)}, hamiltonians)
    add("quantum", "tau_commute tloc_commute", lambda cfg: {"N": max(cfg.sites, 3)},
        hamiltonians)

    add("classical", "poissonL_explicit poissonL_dform involution curve_NxN curve_2x2",
        lambda cfg: {"N": max(cfg.sites, 3)}, lambda c, p: classical.check_classical(c, **p))
    defs.append(CheckDef("poissonL_degenerate", "classical",
                         ANCHORS["poissonL_explicit"] + " (degenerate wrap)",
                         lambda cfg: {"N": 2},
                         lambda p: classical.check_classical("poissonL_explicit", **p),
                         _degenerate))
    add("classical", "pN_equals_trT", lambda cfg: {"N": "2,3,4"},
        lambda c, p: [item for n in map(int, p["N"].split(","))
                      for item in classical.check_classical(c, N=n)])

    add("stoch", "qosc_algebra Lqosc_match column_eigen omega_identity Omega_H1 "
        "zero_column_sum realisation_consistency",
        lambda cfg: {"K": cfg.trunc, "N": min(max(cfg.sites, 2), 3)},
        lambda c, p: stoch.check_stoch(c, **p))

    # mutation sensitivity: one corrupted run per suite must be caught
    mutations = (
        ("mutation_poisson", "poisson", "corrupted Wronskian bracket identity is caught",
         {"size": 8}, lambda p: poisson.check_bracket_identity("w1w1", mutate=True, **p)),
        ("mutation_fm", "quantum", "sign-flipped compatibility parameter is caught",
         {"parameters": "free"}, lambda p: quantum.check_fm("DGCG_general", mutate=True)),
        ("mutation_rll", "quantum", "zeroed ultralocal Lax entry is caught",
         {"d": "generic"}, lambda p: quantum.check_ybe("RLL_ultralocal", mutate=True)),
        ("mutation_gauge", "quantum", "sign-flipped companion entry is caught",
         {"N": 3}, lambda p: quantum.check_ultralocalisation("gauge_G", mutate=True, **p)),
        ("mutation_classical", "classical",
         "sign-flipped antisymmetric structure matrix is caught",
         {"N": 3}, lambda p: classical.check_classical("poissonL_explicit", mutate=True, **p)),
        ("mutation_stoch", "stoch", "wrong column eigenvalue is caught",
         {"K": 6, "N": 2}, lambda p: stoch.check_stoch("column_eigen", mutate=True, **p)),
    )
    for cid, module, anchor, params, residuals in mutations:
        defs.append(CheckDef(cid, module, anchor, lambda cfg, p=params: dict(p),
                             residuals, _caught))

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
    old_cap = weyl.TERM_CAP
    weyl.TERM_CAP = cfg.max_terms
    reports = []
    try:
        for cid in sorted(set(ids)):
            d = REGISTRY[cid]
            t0 = time.perf_counter()
            try:
                params = d.params(cfg)
                report = report_from_residuals(params, d.residuals(params))
                if d.rule:
                    report = d.rule(report)
            except weyl.TermCapExceeded as exc:
                report = CheckReport("", {"max_terms": cfg.max_terms}, FAIL, 0,
                                     f"term cap exceeded: {exc}")
            except Exception as exc:
                # imported here: at module level, traceback and textwrap add
                # about 1.5 ms and 0.13 MiB to every run for this error path
                import traceback
                traceback.print_exc(file=sys.stderr)
                report = CheckReport("", {}, FAIL, 0, f"{type(exc).__name__}: {exc}")
            report.elapsed = time.perf_counter() - t0
            report.id, report.anchor = cid, d.anchor
            reports.append(report)
    finally:
        weyl.TERM_CAP = old_cap
    return reports
