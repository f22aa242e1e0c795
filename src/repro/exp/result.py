"""Structured per-cell results.

A :class:`CellResult` is the serializable record one cell run produces:
runtime, every stats counter, per-(scope, class) traffic bytes and the
summary streams (count/total/min/max plus sampled percentiles).  Its JSON
form is canonical — sorted keys, compact separators — so byte-identical
output is a meaningful determinism check: a parallel run, a serial run
and a cache hit of the same cell all render the same bytes.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Optional, Union

from repro.common import dumps
from repro.common.stats import PERCENTILES  # noqa: F401  (canonical home)
from repro.common.types import to_ns
from repro.interconnect.traffic import Scope, TrafficClass


@dataclasses.dataclass
class CellResult:
    """Outcome of one experiment cell."""

    protocol: str
    workload: str
    seed: int
    runtime_ps: int
    counters: Dict[str, int]
    traffic: Dict[str, Dict[str, int]]  # scope value -> class value -> bytes
    summaries: Dict[str, Dict[str, float]]
    label: str = ""
    # repro.telemetry/1 document, present only when the cell enabled
    # sampling (kept out of to_dict otherwise so pre-telemetry records
    # and cache entries stay byte-identical).
    telemetry: Optional[dict] = None
    # Bookkeeping, not part of the record (or of equality):
    from_cache: bool = dataclasses.field(default=False, compare=False)
    # The in-process RunResult (machine attached); only populated for
    # serial in-process execution — never survives a worker process or
    # the cache.
    raw: Optional[object] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    @property
    def runtime_ns(self) -> float:
        return to_ns(self.runtime_ps)

    def get(self, counter: str) -> int:
        return self.counters.get(counter, 0)

    def scope_bytes(self, scope: Union[Scope, str]) -> int:
        scope = scope.value if isinstance(scope, Scope) else scope
        return sum(self.traffic.get(scope, {}).values())

    def breakdown(self, scope: Union[Scope, str]) -> Dict[TrafficClass, int]:
        """Bytes per traffic class on one network, zero entries included."""
        scope = scope.value if isinstance(scope, Scope) else scope
        per_class = self.traffic.get(scope, {})
        return {k: per_class.get(k.value, 0) for k in TrafficClass}

    def summary(self, name: str) -> Dict[str, float]:
        return self.summaries.get(name, {"count": 0, "total": 0.0})

    # ------------------------------------------------------------------
    @classmethod
    def from_run(cls, run_result, cell) -> "CellResult":
        """Convert a :class:`repro.system.machine.RunResult`."""
        traffic: Dict[str, Dict[str, int]] = {}
        for (scope, klass), nbytes in run_result.meter.bytes.items():
            traffic.setdefault(scope.value, {})[klass.value] = nbytes
        stats = run_result.stats.to_dict()
        return cls(
            protocol=cell.protocol_name,
            workload=cell.workload_name,
            seed=cell.seed,
            runtime_ps=run_result.runtime_ps,
            counters=stats["counters"],
            traffic=traffic,
            summaries=stats["summaries"],
            label=cell.label,
            raw=run_result,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        # Built explicitly (not dataclasses.asdict) so the record never
        # recurses into ``raw`` — the RunResult drags the whole Machine
        # (simulator, generators, fault proxies) behind it.
        record = {
            "protocol": self.protocol,
            "workload": self.workload,
            "seed": self.seed,
            "runtime_ps": self.runtime_ps,
            "counters": dict(self.counters),
            "traffic": {s: dict(c) for s, c in self.traffic.items()},
            "summaries": {n: dict(v) for n, v in self.summaries.items()},
            "label": self.label,
        }
        if self.telemetry is not None:
            record["telemetry"] = self.telemetry
        return record

    def to_json(self) -> str:
        """Canonical JSON — the determinism contract's unit of comparison."""
        return dumps(self.to_dict())

    def metrics(self) -> dict:
        """The canonical metrics-JSON document for this result.

        Schema-tagged (``repro.metrics/1``) and validated by
        :func:`repro.obs.metrics.validate_metrics`.
        """
        from repro.obs.metrics import cell_metrics  # lazy: obs is optional here

        return cell_metrics(self)

    @classmethod
    def from_dict(cls, record: dict) -> "CellResult":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "CellResult":
        return cls.from_dict(json.loads(text))
