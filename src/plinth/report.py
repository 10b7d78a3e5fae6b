"""Structured pass/fail records for the verification suites.

Each report ties one check to a human-readable statement of the claim it
verifies (the ``anchor``), the parameters the run used (bounds, seeds),
and enough detail to reproduce a failure.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

PASS = "pass"
FAIL = "fail"


@dataclass
class VerificationReport:
    check_id: str
    anchor: str
    status: str
    params: dict[str, Any] = field(default_factory=dict)
    details: Any = ""
    ms: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in (PASS, FAIL):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and not self.details:
            raise ValueError("failing report must carry details")

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict[str, Any]:
        # fixed field order; ``ms`` changes from run to run, the rest does not
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "params": self.params,
            "details": self.details,
            "ms": round(self.ms, 3),
        }

    def text_line(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        return f"[{tag}] {self.check_id} — {self.anchor} ({self.ms:.0f} ms)"


class Checker:
    """Accumulates named sub-checks into one report."""

    def __init__(self, check_id: str, anchor: str, params: dict[str, Any] | None = None):
        self.check_id = check_id
        self.anchor = anchor
        self.params = params or {}
        self.failures: list[Any] = []
        self.notes: list[Any] = []
        self._start = time.perf_counter()

    def require(self, condition: bool, detail: Any) -> bool:
        if not condition:
            self.failures.append(detail)
        return condition

    def note(self, item: Any) -> None:
        self.notes.append(item)

    def report(self) -> VerificationReport:
        ms = (time.perf_counter() - self._start) * 1000.0
        if self.failures:
            return VerificationReport(
                self.check_id, self.anchor, FAIL, self.params, self.failures, ms
            )
        details = self.notes if self.notes else "all sub-checks passed"
        return VerificationReport(
            self.check_id, self.anchor, PASS, self.params, details, ms
        )


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
