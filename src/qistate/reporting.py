"""Residual-check bookkeeping shared by the verification suites."""

from dataclasses import dataclass


@dataclass
class Check:
    """One verified identity: worst residual against its threshold.

    ``law`` states the identity being checked.  ``asserted`` is False for
    diagnostics that are recorded but intentionally not required to pass.
    """

    name: str
    law: str
    residual: float
    threshold: float
    passed: bool
    asserted: bool = True
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "law": self.law,
            "residual": self.residual,
            "threshold": self.threshold,
            "pass": self.passed,
            "asserted": self.asserted,
            "detail": self.detail,
        }


def residual_check(name: str, law: str, residual: float, tol: float,
                   scale: float = 1.0, asserted: bool = True, detail: str = "") -> Check:
    """Pass iff residual <= tol * max(1, scale)."""
    threshold = tol * max(1.0, scale)
    return Check(name, law, float(residual), float(threshold),
                 float(residual) <= threshold, asserted, detail)

