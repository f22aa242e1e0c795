"""Cross-run comparison of canonical JSON documents.

Every deterministic export in the repository — ``repro.metrics/1``,
``repro.telemetry/1``, ``repro.bench_work/1``, profiler projections —
is a tree of leaves under stable keys.  This module flattens two such
documents into ``dotted.path -> value`` maps, reports per-counter
deltas, and applies a configurable regression gate (``GLOB:PCT`` rules,
as in ``python -m repro diff a.json b.json --gate 'counters.*:5'``).
Numbers keep their value; identity leaves (strings, bools, nulls) and
whole lists are compared by their canonical JSON text, so a renamed
cell or a changed digest is a changed row that any matching gate
rejects, whatever its tolerance.  A list of records is also walked
record by record, so a moved field names its record.

Telemetry documents get a schema-aware projection first (end-of-run
value and peak per series, window counts per saturation kind) — diffing
every ring-buffer sample would drown the signal; generic documents are
walked recursively.  The JSON report (:data:`DIFF_SCHEMA`) is canonical
and deterministic like every other exporter here.
"""

from __future__ import annotations

import fnmatch
from typing import Dict, List, Optional, Tuple, Union

from repro.common import dumps

#: A flattened leaf: a number, or the canonical JSON text of an identity
#: leaf or a whole list.
Value = Union[int, float, str]

#: Schema identifier for the JSON diff report.
DIFF_SCHEMA = "repro.diff/1"


# ---------------------------------------------------------------------------
# Flattening.
# ---------------------------------------------------------------------------
def _flatten_generic(node, prefix: str, out: Dict[str, Value]) -> None:
    if isinstance(node, dict):
        for key in node:
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten_generic(node[key], sub, out)
        return
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = node
        return
    if isinstance(node, list):
        # Beside the list's own text row, a numeric summary that
        # tolerance gates can bound, and for a list of records each
        # record's own rows (``links[3].latency_ps``).
        numbers = [v for v in node if isinstance(v, (int, float))
                   and not isinstance(v, bool)]
        out[f"{prefix}.len"] = len(node)
        if numbers and len(numbers) == len(node):
            out[f"{prefix}.last"] = numbers[-1]
        if node and all(isinstance(v, dict) for v in node):
            for i, item in enumerate(node):
                _flatten_generic(item, f"{prefix}[{i}]", out)
    # Strings, bools, nulls and whole lists carry identity: compared by
    # their canonical text.
    out[prefix] = dumps(node)[:-1]


def _flatten_telemetry(doc: dict) -> Dict[str, Value]:
    out: Dict[str, Value] = {
        "ticks": doc["ticks"],
        "dropped_ticks": doc["dropped_ticks"],
        "samples": len(doc["t_ps"]),
        "saturation.windows": len(doc["saturation"]),
    }
    if doc["t_ps"]:
        out["t_end_ps"] = doc["t_ps"][-1]
        out["events_end"] = doc["events"][-1]
    kinds: Dict[str, int] = {}
    for window in doc["saturation"]:
        kinds[window["kind"]] = kinds.get(window["kind"], 0) + 1
    for kind in sorted(kinds):
        out[f"saturation.{kind}"] = kinds[kind]
    for name in doc["probes"]:
        values = doc["series"][name]
        if not values:
            continue
        out[f"series.{name}.last"] = values[-1]
        out[f"series.{name}.max"] = max(values)
    return out


def flatten_doc(doc: dict) -> Dict[str, Value]:
    """``dotted.path -> value`` projection of a canonical document."""
    from repro.obs.telemetry import TELEMETRY_SCHEMA

    if doc.get("schema") == TELEMETRY_SCHEMA:
        return _flatten_telemetry(doc)
    out: Dict[str, Value] = {}
    _flatten_generic(doc, "", out)
    out.pop("schema", None)
    return out


# ---------------------------------------------------------------------------
# Diffing + gating.
# ---------------------------------------------------------------------------
def diff_docs(a: dict, b: dict) -> List[dict]:
    """Per-counter comparison rows over the union of flattened keys.

    Each row: ``{"key", "a", "b", "delta", "ratio"}`` — ``a``/``b`` are
    ``None`` for keys present on only one side; ``delta`` and ``ratio``
    (``b / a``) are ``None`` when undefined, which they are whenever a
    side is text.  Rows are sorted by key.
    """
    fa, fb = flatten_doc(a), flatten_doc(b)
    rows = []
    for key in sorted(set(fa) | set(fb)):
        va, vb = fa.get(key), fb.get(key)
        delta = ratio = None
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            delta = vb - va
            if va != 0:
                ratio = vb / va
        rows.append({"key": key, "a": va, "b": vb,
                     "delta": delta, "ratio": ratio})
    return rows


def parse_gate(text: str) -> Tuple[str, float]:
    """Parse one ``GLOB:PCT`` gate rule (e.g. ``counters.*:5``)."""
    glob, sep, pct = text.rpartition(":")
    if not sep or not glob:
        raise ValueError(f"gate {text!r} is not GLOB:PCT")
    try:
        tolerance = float(pct)
    except ValueError:
        raise ValueError(f"gate {text!r} has a non-numeric tolerance")
    if tolerance < 0:
        raise ValueError(f"gate {text!r} has a negative tolerance")
    return glob, tolerance


def apply_gates(rows: List[dict], gates: List[Tuple[str, float]]
                ) -> List[dict]:
    """Evaluate gate rules against diff rows; return the violations.

    A row violates a gate when its key matches the glob and the relative
    change ``|b - a| / |a|`` exceeds ``pct / 100`` — or when the key is
    missing on either side, or appeared from zero (both undefined
    relative changes, treated as failures: a gated counter must exist
    and stay comparable), or when a text row changed at all.  A glob
    that matches no key at all is a violation too (keyed by the glob),
    so a misspelled or renamed key cannot switch its gate off.
    """
    violations = []
    for glob, pct in gates:
        matched = False
        for row in rows:
            if not fnmatch.fnmatchcase(row["key"], glob):
                continue
            matched = True
            va, vb = row["a"], row["b"]
            if va is None or vb is None:
                why = "missing on one side"
            elif isinstance(va, str) or isinstance(vb, str):
                if va == vb:
                    continue
                why = "changed identity"
            elif va == 0:
                if vb == 0:
                    continue
                why = "appeared from zero"
            else:
                rel = abs(vb - va) / abs(va)
                if rel * 100.0 <= pct:
                    continue
                why = f"changed {rel * 100.0:.2f}% (> {pct:g}%)"
            violations.append({**row, "gate": f"{glob}:{pct:g}",
                               "why": why})
        if not matched:
            violations.append({"key": glob, "a": None, "b": None,
                               "delta": None, "ratio": None,
                               "gate": f"{glob}:{pct:g}",
                               "why": "matches no key"})
    return violations


def diff_report(a: dict, b: dict,
                gates: Optional[List[Tuple[str, float]]] = None) -> dict:
    """The full ``repro.diff/1`` document for two canonical JSON docs."""
    rows = diff_docs(a, b)
    violations = apply_gates(rows, gates or [])
    changed = [r for r in rows if r["a"] != r["b"]]
    return {
        "schema": DIFF_SCHEMA,
        "schema_a": a.get("schema"),
        "schema_b": b.get("schema"),
        "keys": len(rows),
        "changed": len(changed),
        "rows": rows,
        "gates": [f"{glob}:{pct:g}" for glob, pct in (gates or [])],
        "violations": violations,
        "ok": not violations,
    }


def render_diff_report(report: dict, show_all: bool = False) -> str:
    """Human-readable delta table (changed keys only unless asked)."""

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6g}"
        if isinstance(value, str) and len(value) > 40:
            return value[:37] + "..."
        return str(value)

    rows = report["rows"]
    shown = rows if show_all else [r for r in rows if r["a"] != r["b"]]
    lines = [
        f"diff: {report['keys']} keys, {report['changed']} changed"
        + (f", {len(report['violations'])} gate violation(s)"
           if report["gates"] else "")
    ]
    if shown:
        width = max(len(r["key"]) for r in shown)
        for r in shown:
            lines.append(
                f"  {r['key']:{width}s}  {fmt(r['a']):>14s} -> "
                f"{fmt(r['b']):>14s}  delta {fmt(r['delta'])}"
            )
    for v in report["violations"]:
        lines.append(f"  GATE {v['gate']}: {v['key']} {v['why']}")
    return "\n".join(lines)
