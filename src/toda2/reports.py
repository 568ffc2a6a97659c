"""Verification outcome records shared by every check suite."""

from __future__ import annotations

from .matops import OpMatrix
from .ring import Scalar, ScalarFraction
from .stoch import FockVector
from .weyl import WeylOp

__all__ = ["CheckReport", "report_from_residuals", "residual_size"]

PASS = "pass"
FAIL = "fail"
DEGENERATE = "degenerate"
WITNESS_CHARS = 200  # a witness keeps this many characters of a residual's text


class CheckReport:
    """One report row; ``run_checks`` fills in its id, anchor and elapsed time."""

    __slots__ = ("id", "params", "status", "residual_terms", "witness", "anchor", "elapsed")

    def __init__(self, id: str, params: dict, status: str, residual_terms: int, witness: str):
        self.id, self.params, self.status = id, params, status
        self.residual_terms, self.witness = residual_terms, witness
        self.anchor, self.elapsed = "", 0.0

    def as_row(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "status": self.status,
            "residual_terms": self.residual_terms,
            "witness": self.witness,
            "anchor": self.anchor,
        }


def residual_size(obj) -> int:
    """Number of surviving terms in a residual of any supported kind."""
    if isinstance(obj, OpMatrix):
        return sum(residual_size(x) for row in obj.entries for x in row)
    if isinstance(obj, WeylOp):
        return sum(len(c.terms) for c in obj.terms.values())
    if isinstance(obj, ScalarFraction):
        return len(obj.num.terms)
    if isinstance(obj, Scalar):
        return len(obj.terms)
    if isinstance(obj, FockVector):
        return sum(map(residual_size, obj.coeffs.values()))
    raise TypeError(f"unsupported residual type {type(obj)!r}")


def _witness_text(obj) -> str:
    if isinstance(obj, OpMatrix):
        for i, j in obj.nonzero_entries():
            return f"entry ({i + 1},{j + 1}): {_clip(obj.entries[i][j].to_text())}"
        return ""
    return _clip(obj.to_text())


def _clip(text: str) -> str:
    return text if len(text) <= WITNESS_CHARS else text[:WITNESS_CHARS] + " ..."


def report_from_residuals(params: dict, items) -> CheckReport:
    """Summarise labelled residuals: pass iff every residual is zero.

    The row's id and anchor are left empty; the registry fills them in.
    """
    total = 0
    witness = ""
    for label, res in items:
        n = residual_size(res)
        if n and not witness:
            witness = f"{label}: {_witness_text(res)}"
        total += n
    return CheckReport("", params, FAIL if total else PASS, total, witness)
