"""Structured verification results shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class UsageError(ValueError):
    """A request outside a check's domain, such as purifying a classical system."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: pass/fail plus the numbers behind it.

    ``details`` holds check-specific data (ranks, dimensions, max deviations)
    with stable keys, so reports serialize deterministically.
    """

    check: str
    passed: bool
    tolerance: float
    seed: int | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "details": dict(self.details),
        }
