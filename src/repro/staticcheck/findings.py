"""Finding records and the human/JSON reporters.

A :class:`Finding` pins one rule violation to a ``file:line``.  Findings
order and serialize deterministically (sorted by path, line, rule) so the
JSON report — schema ``repro.staticcheck/1`` — can be compared byte-wise
across runs, the same discipline every other artifact in this repo
follows.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.common import dumps

SEVERITIES = ("error", "warning")

SCHEMA = "repro.staticcheck/1"


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # repo-relative, posix separators
    line: int
    rule: str  # e.g. "det-wallclock"
    severity: str  # "error" | "warning"
    message: str
    snippet: str = ""  # the offending source line, stripped

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "snippet": self.snippet,
        }


def render_text(findings: List[Finding]) -> str:
    """Human report: one line per finding, grouped counts at the end."""
    if not findings:
        return "staticcheck: clean (0 findings)"
    lines = []
    for f in sorted(findings):
        lines.append(f"{f.location}: {f.severity}[{f.rule}] {f.message}")
        if f.snippet:
            lines.append(f"    {f.snippet}")
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(by_rule.items()))
    lines.append(f"staticcheck: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def render_json(findings: List[Finding], passes: List[str]) -> str:
    """Canonical JSON report (schema ``repro.staticcheck/1``).

    Sorted findings, sorted keys, no floats: byte-identical for identical
    inputs, so CI can diff reports directly.
    """
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    doc = {
        "schema": SCHEMA,
        "passes": sorted(passes),
        "counts": {
            "total": len(findings),
            "errors": sum(1 for f in findings if f.severity == "error"),
            "warnings": sum(1 for f in findings if f.severity == "warning"),
            "by_rule": by_rule,
        },
        "findings": [f.to_dict() for f in sorted(findings)],
    }
    return dumps(doc, indent=2)
