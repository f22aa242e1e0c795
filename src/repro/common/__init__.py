"""Shared building blocks, and the one canonical JSON writer.

Every committed JSON artifact (``BENCH_work.json``, the protomodel,
telemetry, campaign, profile and topology documents, ``--json`` cell
records) is written by :func:`dumps`, so byte identity means the same
thing everywhere.
"""

import json


def dumps(doc, indent=None) -> str:
    """Canonical JSON text: sorted keys and one trailing newline.

    Compact separators by default; ``indent=2`` for the documents people
    read in diffs.
    """
    if indent is None:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, indent=indent, sort_keys=True) + "\n"
