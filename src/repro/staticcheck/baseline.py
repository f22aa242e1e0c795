"""Baseline (grandfather) file for staticcheck findings.

The baseline records finding *fingerprints* (rule + path + message, line
excluded) with a count, so pre-existing findings can be acknowledged
without editing the flagged source.  The gate is directional: findings
beyond their baselined count fail the run; baselined entries with no
surviving finding are reported as stale so the file shrinks over time.
The committed baseline for this repo is empty — the tree is clean — and
the file exists so CI fails the moment a new finding appears.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.common import dumps
from repro.staticcheck.findings import Finding

SCHEMA = "repro.staticcheck-baseline/1"


def load_baseline(path: Path) -> Dict[str, int]:
    """Fingerprint -> allowed count.  A missing file is an empty baseline."""
    path = Path(path)
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported baseline schema {doc.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    return {str(k): int(v) for k, v in doc.get("fingerprints", {}).items()}


def write_baseline(path: Path, findings: List[Finding]) -> None:
    counts: Dict[str, int] = {}
    notes: Dict[str, str] = {}
    for f in sorted(findings):
        counts[f.fingerprint] = counts.get(f.fingerprint, 0) + 1
        notes.setdefault(f.fingerprint, f"{f.rule} {f.path}")
    doc = {
        "schema": SCHEMA,
        "fingerprints": counts,
        "notes": notes,  # human orientation only; the gate keys on fingerprints
    }
    Path(path).write_text(dumps(doc, indent=2))


def diff_baseline(
    findings: List[Finding], baseline: Dict[str, int]
) -> Tuple[List[Finding], List[str]]:
    """Split findings against the baseline.

    Returns ``(new, stale)``: findings beyond their baselined count, and
    baselined fingerprints with no surviving finding.
    """
    remaining = dict(baseline)
    new: List[Finding] = []
    for f in sorted(findings):
        if remaining.get(f.fingerprint, 0) > 0:
            remaining[f.fingerprint] -= 1
        else:
            new.append(f)
    stale = sorted(fp for fp, n in remaining.items() if n == baseline.get(fp, 0) and n > 0)
    return new, stale
