"""Structured pass/fail results for identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["VerificationReport"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check.

    ``witness`` is JSON-serializable evidence for a failure (typically the
    two sides and their difference); it is None when the check passes.
    ``notes`` records sub-checks that were skipped as not applicable.
    """

    check: str
    passed: bool
    witness: Any = None
    notes: tuple[str, ...] = field(default=())

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "check": self.check,
            "pass": self.passed,
            "witness": self.witness,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def difference_witness(lhs, rhs) -> dict:
    """The failure witness of one equation: both sides and their difference."""
    return {"lhs": str(lhs), "rhs": str(rhs), "difference": str(lhs - rhs)}


def equality_report(check: str, lhs, rhs) -> VerificationReport:
    """Compare two elements and package the difference as witness."""
    if lhs == rhs:
        return VerificationReport(check=check, passed=True)
    return VerificationReport(check=check, passed=False, witness=difference_witness(lhs, rhs))


def sides_report(check: str, sides: dict, notes: tuple[str, ...] = ()) -> VerificationReport:
    """Compare several named equations ``{name: (lhs, rhs)}`` in one report.

    The witness maps the name of each failing equation to its difference
    witness; it is None when every equation holds.
    """
    failures = {
        name: difference_witness(lhs, rhs) for name, (lhs, rhs) in sides.items() if lhs != rhs
    }
    return VerificationReport(
        check=check, passed=not failures, witness=failures or None, notes=notes
    )
