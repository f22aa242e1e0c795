"""Canonical metrics-JSON schema for experiment cells.

Every :class:`~repro.exp.result.CellResult` — freshly computed, replayed
from the content-addressed cache, or parsed back from ``--json`` output —
renders to the same metrics document via
:meth:`~repro.exp.result.CellResult.metrics`:

.. code-block:: json

    {
      "schema": "repro.metrics/1",
      "protocol": "TokenCMP-dst1",
      "workload": "locking",
      "seed": 1,
      "runtime_ps": 123456,
      "counters": {"l1.hits": 10, "...": 0},
      "traffic": {"intra": {"Request": 4096}, "...": {}},
      "summaries": {"l1.miss_latency_ps": {"count": 3, "mean": 1.0,
                    "min": 1.0, "max": 1.0, "total": 3.0,
                    "p50": 1.0, "p95": 1.0, "p99": 1.0}}
    }

The summaries block is exactly :meth:`repro.common.stats.Stats.to_dict`'s
``"summaries"`` value, so cached cells carry their latency distributions
— not just counters.  :func:`validate_metrics` is the schema gate; it is
deliberately dependency-free (no jsonschema) so it runs anywhere the
simulator does.
"""

from __future__ import annotations

#: Schema identifier (bump on layout changes).
METRICS_SCHEMA = "repro.metrics/1"

#: Required per-summary statistics (matching ``Summary.to_dict``).
SUMMARY_FIELDS = ("count", "total", "mean", "min", "max", "p50", "p95", "p99")


def cell_metrics(result) -> dict:
    """The canonical metrics document for one cell result.

    ``result`` is duck-typed (a :class:`~repro.exp.result.CellResult`)
    to keep this module import-cycle-free.
    """
    return {
        "schema": METRICS_SCHEMA,
        "protocol": result.protocol,
        "workload": result.workload,
        "seed": result.seed,
        "runtime_ps": result.runtime_ps,
        "counters": dict(result.counters),
        "traffic": {s: dict(c) for s, c in result.traffic.items()},
        "summaries": {n: dict(v) for n, v in result.summaries.items()},
    }


def validate_metrics(doc: dict) -> None:
    """Raise :class:`ValueError` unless ``doc`` matches the schema."""

    def fail(why: str):
        raise ValueError(f"invalid metrics document: {why}")

    if not isinstance(doc, dict):
        fail("not an object")
    if doc.get("schema") != METRICS_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {METRICS_SCHEMA!r}")
    for key, types in (
        ("protocol", str),
        ("workload", str),
        ("seed", int),
        ("runtime_ps", int),
        ("counters", dict),
        ("traffic", dict),
        ("summaries", dict),
    ):
        if not isinstance(doc.get(key), types):
            fail(f"{key!r} missing or not {types.__name__}")
    for name, value in doc["counters"].items():
        if not isinstance(value, int):
            fail(f"counter {name!r} is not an integer")
    for scope, classes in doc["traffic"].items():
        if not isinstance(classes, dict):
            fail(f"traffic scope {scope!r} is not an object")
        for klass, nbytes in classes.items():
            if not isinstance(nbytes, int):
                fail(f"traffic {scope!r}/{klass!r} is not an integer")
    for name, stats in doc["summaries"].items():
        if not isinstance(stats, dict):
            fail(f"summary {name!r} is not an object")
        for field in SUMMARY_FIELDS:
            if not isinstance(stats.get(field), (int, float)):
                fail(f"summary {name!r} lacks numeric {field!r}")
