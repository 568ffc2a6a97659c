"""Catalogue of every named check and its runner.

This is the only module that writes a check's id, anchor and params, and the
only one that builds report rows: the suite functions return just their
labelled residuals.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, NamedTuple

from . import classical, poisson, quantum, stoch, weyl
from .reports import DEGENERATE, FAIL, PASS, CheckReport, report_from_residuals

__all__ = ["RunConfig", "CheckDef", "REGISTRY", "run_checks"]


class RunConfig:
    """The run-wide settings the CLI passes to every check's ``params``."""

    __slots__ = ("sites", "trunc", "max_terms")

    def __init__(self, sites: int = 3, trunc: int = 6, max_terms: int = weyl.TERM_CAP):
        self.sites, self.trunc, self.max_terms = sites, trunc, max_terms
        if self.sites < 1:
            raise ValueError("sites must be positive")
        if self.trunc < stoch.MIN_TRUNC:
            raise ValueError(f"trunc must be at least {stoch.MIN_TRUNC}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


class CheckDef(NamedTuple):
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
    defs: dict[str, CheckDef] = {}

    def add(module: str, params, residuals, rule=None, **anchors: str) -> None:
        """Register each keyword as a check id with what it certifies: ``params(cfg)``
        gives its row's params, ``residuals(id, params)`` its residuals there and
        ``rule``, if any, turns their summary into the row."""
        for cid, anchor in anchors.items():
            defs[cid] = CheckDef(cid, module, anchor, params,
                                 lambda p, c=cid: residuals(c, p), rule)

    # every runner looks its suite function up through the module when it
    # runs, so a rebound check_* (bench/tracing.py wraps them) reaches every row
    bracket = lambda c, p: poisson.check_bracket_identity(c, **p)
    add("poisson", lambda cfg: {"size": 8}, bracket,
        w1w1="adjacent-step Wronskian brackets close quadratically",
        w1w2="mixed-step Wronskian brackets close quadratically",
        w2w2="double-step Wronskian brackets close with quartic tail",
        virlat="cubic subalgebra closes and decouples from the Wronskians",
        qq="Q-Q bracket recovered from the Wronskian realisation",
        qp="Q-P bracket recovered from the Wronskian realisation",
        pp="P-P bracket recovered from the Wronskian realisation")
    add("poisson", lambda cfg: {"size": 6}, bracket,
        exlat_from_darboux="canonical-pair realisation satisfies the doublet exchange bracket",
        qp_from_rep="canonical-pair realisation reproduces the quadratic Q/P brackets")
    add("poisson", lambda cfg: {"charts": "exlat,qp,darboux"},
        lambda c, p: poisson.check_bracket_identity(c),
        jacobi="Jacobi identity for every shipped bracket table")

    fm = lambda c, p: quantum.check_fm(c, **p)
    add("quantum", lambda cfg: {"N": max(cfg.sites, 3)}, fm,
        AD="same-site Lax exchange through the A/D pair",
        B="adjacent-site Lax exchange through the C-type matrix",
        C="adjacent-site Lax exchange through the B-type matrix",
        ATT_TTD="monodromy quadratic exchange algebra")
    add("quantum", lambda cfg: {"parameters": "free"}, lambda c, p: quantum.check_fm(c),
        DGCG_general="companion-matrix compatibility for free parameters",
        dual_general="dual compatibility for the trace-closing companion")
    add("quantum", lambda cfg: {"N": max(cfg.sites, 5)}, fm,
        distant_commute="Lax entries at distant sites commute")
    add("quantum", lambda cfg: {"legs": 3}, lambda c, p: quantum.check_ybe(c),
        YBE_twisted="twisted R-matrix satisfies the Yang-Baxter equation")
    add("quantum", lambda cfg: {"d": "generic"}, lambda c, p: quantum.check_ybe(c),
        RLL_ultralocal="RLL exchange for the ultralocal Lax matrix")
    ultralocalisation = lambda c, p: quantum.check_ultralocalisation(c, **p)
    add("quantum", lambda cfg: {"N": 3}, ultralocalisation,
        gauge_l="gauge transform of the bare Lax is ultralocal",
        gauge_G="gauge transform of the companion matrix, long entries included",
        scriptL_assembly="gauged Lax times gauged companion equals the dressed form",
        entrywise_conjugation="entrywise twist carries the gauged Lax to the ultralocal one")
    add("quantum", lambda cfg: {"N": cfg.sites}, ultralocalisation,
        trace_identity="closed trace of the gauged chain drops the twist")
    # one row for the chain lengths 1..N: residual lists concatenate
    add("quantum", lambda cfg: {"N": f"1..{max(cfg.sites, 3)}"},
        lambda c, p: [item for n in range(1, int(p["N"].split("..")[1]) + 1)
                      for item in quantum.check_ultralocalisation(c, N=n)],
        taut="twisted rescaled transfer trace equals the ultralocal transfer matrix")
    add("quantum", lambda cfg: {"size": 6}, lambda c, p: quantum.check_representation(c, **p),
        exchange_xi="doublet exchange algebra, including the equal-site weight",
        W_algebra_q="deformed Wronskian algebra closes",
        QP_relations="closed-form Q/P commutation relations",
        W1_monomial="step-one Wronskian collapses to an invertible monomial",
        QP_match="Wronskian-built Q/P equal their closed forms")
    hamiltonians = lambda c, p: quantum.check_hamiltonians(c, **p)
    add("quantum", lambda cfg: {"N": max(cfg.sites, 2)}, hamiltonians,
        commute="transfer-derived charges commute pairwise",
        H1_qToda="first charge at the hopping-free point",
        H1_Toda2="first charge of the quadratic-bracket chain",
        H2_Toda2="second charge combination of the quadratic-bracket chain",
        trq_commute="the two deformed trace charges commute",
        trq_match1="first deformed trace matches the first charge",
        trq_match2="second deformed trace matches the second charge combination",
        qosc_coherence="oscillator Lax transfer equals the preset transfer")
    add("quantum", lambda cfg: {"N": max(cfg.sites, 3)}, hamiltonians,
        tau_commute="dressed transfer traces commute at two spectral points",
        tloc_commute="ultralocal transfer traces commute at two spectral points")

    explicit = "entry brackets of the big Lax match the explicit quadratic form"
    add("classical", lambda cfg: {"N": max(cfg.sites, 3)},
        lambda c, p: classical.check_classical(c, **p),
        poissonL_explicit=explicit,
        poissonL_dform="entry brackets of the big Lax match the commutator form",
        involution="trace powers are in involution and the corner product is central",
        curve_NxN="characteristic polynomial splits off the corner term",
        curve_2x2="monodromy characteristic relation and spectral determinant")
    add("classical", lambda cfg: {"N": 2},
        lambda c, p: classical.check_classical("poissonL_explicit", **p), _degenerate,
        poissonL_degenerate=explicit + " (degenerate wrap)")
    add("classical", lambda cfg: {"N": "2,3,4"},
        lambda c, p: [item for n in map(int, p["N"].split(","))
                      for item in classical.check_classical(c, N=n)],
        pN_equals_trT="corner-free characteristic part equals the monodromy trace")

    add("stoch", lambda cfg: {"K": cfg.trunc, "N": min(max(cfg.sites, 2), 3)},
        lambda c, p: stoch.check_stoch(c, **p),
        qosc_algebra="deformed oscillator algebra in the Weyl realisation",
        Lqosc_match="oscillator Lax equals the ultralocal Lax at the preset",
        column_eigen="column sums act on the geometric state with eigenvalue lam - 1",
        omega_identity="raising identity of the geometric state below truncation",
        Omega_H1="tensor geometric state is a left eigenstate of the chain charge",
        zero_column_sum="interior columns of the shifted generator sum to zero",
        realisation_consistency="Fock action agrees with the Weyl realisation")

    # mutation sensitivity: one corrupted run per suite must be caught
    add("poisson", lambda cfg: {"size": 8},
        lambda c, p: poisson.check_bracket_identity("w1w1", mutate=True, **p), _caught,
        mutation_poisson="corrupted Wronskian bracket identity is caught")
    add("quantum", lambda cfg: {"parameters": "free"},
        lambda c, p: quantum.check_fm("DGCG_general", mutate=True), _caught,
        mutation_fm="sign-flipped compatibility parameter is caught")
    add("quantum", lambda cfg: {"d": "generic"},
        lambda c, p: quantum.check_ybe("RLL_ultralocal", mutate=True), _caught,
        mutation_rll="zeroed ultralocal Lax entry is caught")
    add("quantum", lambda cfg: {"N": 3},
        lambda c, p: quantum.check_ultralocalisation("gauge_G", mutate=True, **p), _caught,
        mutation_gauge="sign-flipped companion entry is caught")
    add("classical", lambda cfg: {"N": 3},
        lambda c, p: classical.check_classical("poissonL_explicit", mutate=True, **p), _caught,
        mutation_classical="sign-flipped antisymmetric structure matrix is caught")
    add("stoch", lambda cfg: {"K": 6, "N": 2},
        lambda c, p: stoch.check_stoch("column_eigen", mutate=True, **p), _caught,
        mutation_stoch="wrong column eigenvalue is caught")

    return defs


REGISTRY = _build_registry()


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
