"""Shared building blocks, and the one canonical JSON writer.

Every committed JSON artifact (``BENCH_work.json``, the protomodel,
telemetry, campaign, profile and topology documents, ``--json`` cell
records) is written by :func:`dumps`, so byte identity means the same
thing everywhere.

:func:`sha256` is the one SHA-256 constructor of ``src/``: RNG stream
seeds, cache keys and metrics digests all take it.
"""

import json

# CPython's built-in SHA-256, the module ``hashlib`` itself falls back to:
# importing ``hashlib`` would map OpenSSL's libcrypto (~3.5 MB resident)
# into every simulation process for one digest per RNG stream.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.9-3.11
    except ImportError:  # an interpreter without the built-in module
        from hashlib import sha256


def dumps(doc, indent=None) -> str:
    """Canonical JSON text: sorted keys and one trailing newline.

    Compact separators by default; ``indent=2`` for the documents people
    read in diffs.
    """
    if indent is None:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, indent=indent, sort_keys=True) + "\n"
