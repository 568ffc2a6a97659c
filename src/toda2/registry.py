"""Catalogue of every named check with defaults, anchors and a runner."""

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


def _expect_failure(probe: Callable[[], CheckReport]) -> CheckReport:
    """Run a deliberately corrupted identity; pass iff the corruption is caught.

    The row's id and anchor are left empty for :func:`run_checks` to fill in.
    """
    report = probe()
    caught = report.status == FAIL and report.residual_terms > 0 and bool(report.witness)
    return CheckReport(
        "", dict(report.params), PASS if caught else FAIL,
        report.residual_terms,
        f"corruption detected: {report.witness}" if caught
        else "corrupted input was not detected")


def _build_registry() -> dict[str, CheckDef]:
    defs: list[CheckDef] = []

    for cid in ("w1w1", "w1w2", "w2w2", "virlat", "qq", "qp", "pp",
                "exlat_from_darboux", "qp_from_rep", "jacobi"):
        defaults = {"size": 8} if cid in ("w1w1", "w1w2", "w2w2", "virlat",
                                          "qq", "qp", "pp") else {}
        defs.append(CheckDef(cid, "poisson", poisson._ANCHORS[cid], defaults,
                             lambda cfg, c=cid: poisson.check_bracket_identity(c)))

    for cid in ("AD", "B", "C", "ATT_TTD"):
        defs.append(CheckDef(cid, "quantum", quantum._QANCHORS[cid], {"N": 3},
                             lambda cfg, c=cid: quantum.check_fm(c, N=max(cfg.sites, 3))))
    for cid in ("DGCG_general", "dual_general"):
        defs.append(CheckDef(cid, "quantum", quantum._QANCHORS[cid], {"parameters": "free"},
                             lambda cfg, c=cid: quantum.check_fm(c)))
    defs.append(CheckDef("distant_commute", "quantum", quantum._QANCHORS["distant_commute"],
                         {"N": 5}, lambda cfg: quantum.check_fm("distant_commute",
                                                                N=max(cfg.sites, 5))))

    defs.append(CheckDef("YBE_twisted", "quantum", quantum._QANCHORS["YBE_twisted"], {},
                         lambda cfg: quantum.check_ybe("YBE_twisted")))
    defs.append(CheckDef("RLL_ultralocal", "quantum", quantum._QANCHORS["RLL_ultralocal"], {},
                         lambda cfg: quantum.check_ybe("RLL_ultralocal")))

    for cid in ("gauge_l", "gauge_G", "scriptL_assembly", "entrywise_conjugation"):
        defs.append(CheckDef(cid, "quantum", quantum._QANCHORS[cid], {"N": 3},
                             lambda cfg, c=cid: quantum.check_ultralocalisation(c)))
    defs.append(CheckDef("trace_identity", "quantum", quantum._QANCHORS["trace_identity"],
                         {"N": 3}, lambda cfg: quantum.check_ultralocalisation(
                             "trace_identity", N=cfg.sites)))
    defs.append(CheckDef("taut", "quantum", quantum._QANCHORS["taut"], {"N": "1..3"},
                         lambda cfg: _sweep(
                             "taut", quantum._QANCHORS["taut"], f"1..{max(cfg.sites, 3)}",
                             [quantum.check_ultralocalisation("taut", N=n)
                              for n in range(1, max(cfg.sites, 3) + 1)])))

    for cid in ("exchange_xi", "W_algebra_q", "QP_relations", "W1_monomial", "QP_match"):
        defs.append(CheckDef(cid, "quantum", quantum._QANCHORS[cid], {"size": 6},
                             lambda cfg, c=cid: quantum.check_representation(c)))

    for cid in ("commute", "H1_qToda", "H1_Toda2", "H2_Toda2",
                "trq_commute", "trq_match1", "trq_match2", "qosc_coherence"):
        defs.append(CheckDef(cid, "quantum", quantum._QANCHORS[cid], {"N": 3},
                             lambda cfg, c=cid: quantum.check_hamiltonians(
                                 c, N=max(cfg.sites, 2))))
    for cid in ("tau_commute", "tloc_commute"):
        defs.append(CheckDef(cid, "quantum", quantum._QANCHORS[cid], {"N": "2,3"},
                             lambda cfg, c=cid: quantum.check_hamiltonians(
                                 c, N=max(cfg.sites, 3))))

    for cid in ("poissonL_explicit", "poissonL_dform", "involution",
                "curve_NxN", "curve_2x2"):
        defs.append(CheckDef(cid, "classical", classical._CANCHORS[cid], {"N": 3},
                             lambda cfg, c=cid: classical.check_classical(
                                 c, N=max(cfg.sites, 3))))
    defs.append(CheckDef("poissonL_degenerate", "classical",
                         classical._CANCHORS["poissonL_explicit"] + " (degenerate wrap)",
                         {"N": 2},
                         lambda cfg: classical.check_classical("poissonL_explicit", N=2)))
    defs.append(CheckDef("pN_equals_trT", "classical", classical._CANCHORS["pN_equals_trT"],
                         {"N": "2,3,4"}, lambda cfg: _sweep(
                             "pN_equals_trT", classical._CANCHORS["pN_equals_trT"], "2,3,4",
                             [classical.check_classical("pN_equals_trT", N=n)
                              for n in (2, 3, 4)])))

    for cid in ("qosc_algebra", "Lqosc_match", "column_eigen", "omega_identity",
                "Omega_H1", "zero_column_sum", "realisation_consistency"):
        defs.append(CheckDef(cid, "stoch", stoch._SANCHORS[cid], {"K": 6, "N": 2},
                             lambda cfg, c=cid: stoch.check_stoch(
                                 c, K=cfg.trunc, N=min(max(cfg.sites, 2), 3))))

    # mutation sensitivity: one corrupted run per suite must be caught
    mutations = (
        ("mutation_poisson", "poisson", "corrupted Wronskian bracket identity is caught",
         lambda: poisson.check_bracket_identity("w1w1", mutate=True)),
        ("mutation_fm", "quantum", "sign-flipped compatibility parameter is caught",
         lambda: quantum.check_fm("DGCG_general", mutate=True)),
        ("mutation_rll", "quantum", "zeroed ultralocal Lax entry is caught",
         lambda: quantum.check_ybe("RLL_ultralocal", mutate=True)),
        ("mutation_gauge", "quantum", "sign-flipped companion entry is caught",
         lambda: quantum.check_ultralocalisation("gauge_G", mutate=True)),
        ("mutation_classical", "classical",
         "sign-flipped antisymmetric structure matrix is caught",
         lambda: classical.check_classical("poissonL_explicit", mutate=True)),
        ("mutation_stoch", "stoch", "wrong column eigenvalue is caught",
         lambda: stoch.check_stoch("column_eigen", mutate=True)),
    )
    for cid, module, anchor, probe in mutations:
        defs.append(CheckDef(cid, module, anchor, {},
                             lambda cfg, p=probe: _expect_failure(p)))

    return {d.id: d for d in defs}


def _sweep(check_id: str, anchor: str, sizes: str, reports: list[CheckReport]) -> CheckReport:
    """One row for a check run at several chain lengths ``sizes``: residual
    terms add up and the first nonempty witness is kept."""
    total = sum(r.residual_terms for r in reports)
    witness = next((r.witness for r in reports if r.witness), "")
    return CheckReport(check_id, {"N": sizes}, PASS if total == 0 else FAIL, total,
                       witness, anchor)


REGISTRY = _build_registry()


def list_checks() -> list[CheckDef]:
    return [REGISTRY[k] for k in sorted(REGISTRY)]


def run_checks(ids, cfg: RunConfig) -> list[CheckReport]:
    """Run the named checks (sorted) and return their reports sorted by id.

    A check that raises yields a failed row whose witness names the exception
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
                report = CheckReport(cid, {"max_terms": cfg.max_terms}, FAIL, 0,
                                     f"term cap exceeded: {exc}", REGISTRY[cid].anchor)
            except Exception as exc:
                import traceback
                traceback.print_exc(file=sys.stderr)
                report = CheckReport(cid, {}, FAIL, 0, f"{type(exc).__name__}: {exc}",
                                     REGISTRY[cid].anchor)
            report.elapsed = time.perf_counter() - t0
            report.id = cid
            if not report.anchor:
                report.anchor = REGISTRY[cid].anchor
            reports.append(report)
    finally:
        weyl.TERM_CAP = old_cap
    return reports
