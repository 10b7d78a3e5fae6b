"""Structured pass/fail records for the verification suites.

Each report ties one check to a human-readable statement of the claim it
verifies (the ``anchor``), the parameters the run used (bounds, seeds),
and enough detail to reproduce a failure.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from typing import Any

from .polyring import numeral

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
    """The reports as indented JSON.

    ``json`` writes an int by ``int.__repr__``, which refuses one past
    Python's int-string digit limit.  Then every int is written as the
    placeholder "\\0<k>" and replaced by its exact digits (``numeral``);
    no report text holds a NUL character.
    """
    data = [r.to_dict() for r in reports]
    try:
        return json.dumps(data, indent=2)
    except ValueError:
        pass
    found: list[int] = []

    def marked(value: Any) -> Any:
        if isinstance(value, dict):
            return {k: marked(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [marked(v) for v in value]
        if type(value) is int:
            found.append(value)
            return f"\0{len(found) - 1}"
        return value

    text = json.dumps(marked(data), indent=2)
    return re.sub(r'"\\u0000(\d+)"', lambda m: numeral(found[int(m[1])]), text)
