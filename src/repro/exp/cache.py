"""Content-addressed on-disk result cache.

A cell's cache key is the SHA-256 of its canonical JSON
:meth:`~repro.exp.spec.Cell.key_material` — the full protocol config,
system parameters, workload name + kwargs, seed, fault config and checker
settings — plus :data:`CACHE_SCHEMA`.  Because every run is a
deterministic function of exactly that material, a hit can be replayed
without recomputation; any change to a code-relevant knob changes the key
and forces a recompute.

``CACHE_SCHEMA`` must be bumped whenever the *simulator itself* changes
behaviour (protocol fixes, timing model changes), which invalidates every
stale entry at once.  Records live under ``<root>/<k[:2]>/<key>.json``
(``benchmarks/results/.cache/`` by convention); writes are atomic
(tempfile + rename) so concurrent runners never observe torn records.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from repro.common import sha256
from repro.exp.result import CellResult
from repro.exp.spec import Cell

# Bump on any simulator-behaviour change; stale entries then never match.
CACHE_SCHEMA = 1

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = os.path.join("benchmarks", "results", ".cache")


def default_cache_dir() -> str:
    return os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR


def cell_key(cell: Cell) -> Optional[str]:
    """Stable content hash of a cell, or ``None`` if uncacheable."""
    material = cell.key_material()
    if material is None:
        return None
    material["schema"] = CACHE_SCHEMA
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


class ResultCache:
    """Directory of ``CellResult`` records addressed by cell hash."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def key(self, cell: Cell) -> Optional[str]:
        return cell_key(cell)

    def path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def load(self, key: str) -> Optional[CellResult]:
        """Return the cached result for ``key``, or ``None`` on a miss."""
        try:
            with open(self.path(key)) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if record.get("schema") != CACHE_SCHEMA:
            self.misses += 1
            return None
        result = CellResult.from_dict(record["result"])
        result.from_cache = True
        self.hits += 1
        return result

    def store(self, key: str, result: CellResult) -> None:
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        record = {"schema": CACHE_SCHEMA, "result": result.to_dict()}
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stores += 1
