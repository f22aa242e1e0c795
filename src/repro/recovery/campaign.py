"""Deterministic fault-campaign engine.

A *campaign* enumerates scenario cells — fault kind x injection point x
workload x seed — over the token protocol's recovery subsystem and runs
them through the :class:`repro.exp.runner.Runner` (multiprocessing
fan-out, content-addressed caching), then renders one canonical
``repro.campaign/1`` JSON report with a per-cell recovery verdict:

* ``recovered`` — the run completed, every destroyed token was recreated
  and no dirty write was lost;
* ``degraded-but-live`` — the run completed and stayed safe, but some
  destroyed state could not be fully restored (a residual token deficit
  at quiescence, or a lost dirty write whose block reverted to memory's
  last written-back value);
* ``failed`` — the run did not complete (starvation, deadlock or a
  safety violation raised mid-run).

Determinism is the engine's contract: every cell is a pure function of
its spec, scenario expansion is order-stable, and the report is written
in canonical JSON (sorted keys, compact separators) with no wall-clock
content — so the report is byte-identical across repeat runs, across
``--jobs 1`` vs ``--jobs N``, and across cache hits vs fresh computes.

Time-to-recover comes from two independent instruments:

* the memory controller's ``recovery.recreation_ps`` summary stream
  (epoch bump to full-set reconstitution), aggregated per scenario from
  the cell results; and
* transaction-span stitching (:mod:`repro.obs.spans`): one traced
  representative cell per scenario is re-run serially and its
  ``recovered``-category span latencies (requestor-side: miss issue to
  completion through the recreation tier) are reported as percentiles.
  Tracing is observational, so the traced re-run cannot diverge from the
  campaign cell it mirrors.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.exp.runner import Runner, run_cell
from repro.exp.spec import Cell

CAMPAIGN_SCHEMA = "repro.campaign/1"

#: Verdicts, worst first (report ordering and exit-code logic).
VERDICTS = ("failed", "degraded-but-live", "recovered")


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Scenario:
    """One fault scenario: what the adversary does to every cell.

    ``fault_rate`` drives the seeded per-message-class policies of
    :meth:`repro.faults.injector.FaultConfig.adversarial`; ``lossy``
    additionally lets the adversary *drop token carriers* (debited in the
    recovery ledger and recreated by the epoch tier).  ``crash_level`` /
    ``crash_at_ps`` / ``crash_victim`` schedule a
    :class:`~repro.faults.crash.CrashInjector` wipe.  A scenario with no
    faults and no crash is a valid baseline cell.
    """

    name: str
    fault_rate: float = 0.0
    lossy: bool = False
    delay_ps: int = 10_000
    reorder_window_ps: int = 2_000
    crash_level: Optional[str] = None
    crash_at_ps: int = 1_000_000
    crash_victim: Optional[int] = None

    def fault_config(self):
        from repro.faults.injector import FaultConfig

        if self.fault_rate:
            return FaultConfig.adversarial(
                self.fault_rate,
                delay_ps=self.delay_ps,
                reorder_window_ps=self.reorder_window_ps,
                lossy=self.lossy,
            )
        # Zero-rate config: perturbs nothing, but the FaultyNetwork
        # wrapper tracks in-flight token carriers so the continuous
        # invariant monitor's census is sound at every event boundary.
        return FaultConfig()

    def crash_spec(self):
        if self.crash_level is None:
            return None
        from repro.faults.crash import CrashSpec

        return CrashSpec(
            level=self.crash_level, at_ps=self.crash_at_ps,
            victim=self.crash_victim,
        )

    @classmethod
    def from_dict(cls, record: dict) -> "Scenario":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ConfigError(
                f"scenario {record.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)}; known: {sorted(known)}"
            )
        if "name" not in record:
            raise ConfigError("every scenario needs a 'name'")
        return cls(**record)


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """A declarative fault campaign: axes plus per-cell run settings."""

    name: str
    protocol: str
    scenarios: Tuple[Scenario, ...]
    workloads: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]
    seeds: Tuple[int, ...]
    params: SystemParams
    max_events: int = 20_000_000
    watchdog_budget_ns: float = 5_000_000.0
    invariant_check_every: int = 2_000
    # When set, every cell samples time-series telemetry at this cadence
    # (fired kernel events) and saturation windows ride into the verdict
    # counters.
    telemetry_sample_every: Optional[int] = None

    @classmethod
    def from_dict(cls, record: dict) -> "CampaignConfig":
        try:
            scenarios = tuple(
                Scenario.from_dict(s) for s in record["scenarios"]
            )
            workloads = []
            for wl in record["workloads"]:
                if isinstance(wl, str):
                    workloads.append((wl, ()))
                else:
                    name, kwargs = wl
                    workloads.append((name, tuple(sorted(kwargs.items()))))
            params = SystemParams(**record.get("params", {}))
            return cls(
                name=record["name"],
                protocol=record["protocol"],
                scenarios=scenarios,
                workloads=tuple(workloads),
                seeds=tuple(record["seeds"]),
                params=params,
                max_events=record.get("max_events", cls.max_events),
                watchdog_budget_ns=record.get(
                    "watchdog_budget_ns", cls.watchdog_budget_ns
                ),
                invariant_check_every=record.get(
                    "invariant_check_every", cls.invariant_check_every
                ),
                telemetry_sample_every=record.get(
                    "telemetry_sample_every", cls.telemetry_sample_every
                ),
            )
        except (KeyError, TypeError) as err:
            raise ConfigError(f"bad campaign config: {err}") from err

    @classmethod
    def load(cls, path: str) -> "CampaignConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # ------------------------------------------------------------------
    def expand(self) -> List[Tuple[Scenario, Cell]]:
        """The scenario grid in canonical order: scenario, workload, seed."""
        telemetry = None
        if self.telemetry_sample_every is not None:
            from repro.obs.telemetry import TelemetryConfig

            telemetry = TelemetryConfig(
                sample_every_events=self.telemetry_sample_every
            )
        out: List[Tuple[Scenario, Cell]] = []
        for scenario in self.scenarios:
            for wl_name, wl_kwargs in self.workloads:
                for seed in self.seeds:
                    out.append(
                        (
                            scenario,
                            Cell(
                                protocol=self.protocol,
                                workload=wl_name,
                                workload_kwargs=wl_kwargs,
                                seed=seed,
                                params=self.params,
                                max_events=self.max_events,
                                faults=scenario.fault_config(),
                                crash=scenario.crash_spec(),
                                watchdog_budget_ns=self.watchdog_budget_ns,
                                invariant_check_every=self.invariant_check_every,
                                check_invariants=True,
                                telemetry=telemetry,
                                label=scenario.name,
                            ),
                        )
                    )
        return out


# ---------------------------------------------------------------------------
# Verdicts.
# ---------------------------------------------------------------------------
def cell_verdict(result) -> str:
    """Classify one completed cell result (``None`` = did not complete)."""
    if result is None:
        return "failed"
    degraded = (
        result.get("recovery.residual_tokens")
        or result.get("recovery.degraded_blocks")
        or result.get("recovery.writes_lost")
    )
    return "degraded-but-live" if degraded else "recovered"


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------
def _run_cells(cells: Sequence[Cell], runner: Runner, name: str):
    """Run every cell, attributing per-cell failures instead of aborting.

    Fast path: one Runner call over the whole grid (parallel, cached).
    If any cell raises, fall back to per-cell execution so the failure is
    pinned to its cell and the rest of the campaign still reports.  Cells
    are deterministic and cache-backed, so the retry costs only the cells
    that had not completed before the failing one.
    """
    try:
        return list(runner.run_cells(cells, name=name).results), {}
    except Exception:
        pass
    results: List[Optional[object]] = []
    errors: Dict[int, str] = {}
    for i, cell in enumerate(cells):
        try:
            results.append(runner.run_cells([cell], name=name).results[0])
        except Exception as err:  # noqa: BLE001 - verdict attribution
            results.append(None)
            errors[i] = f"{type(err).__name__}: {err}"
    return results, errors


def _spans_time_to_recover(scenario: Scenario, cell: Cell) -> Optional[dict]:
    """Span-stitched time-to-recover for one traced representative cell.

    Returns the ``recovered``-category latency percentiles (requestor
    side: miss issue through the recreation tier to completion), or
    ``None`` when the scenario produced no recreation-tier spans.
    """
    from repro.obs.spans import SpanBuilder
    from repro.obs.trace import Tracer

    tracer = Tracer()
    try:
        run_cell(cell, tracer=tracer)
    except Exception:  # failed cells get no span data
        return None
    report = SpanBuilder().build(tracer.events)
    spans = [s for s in report.spans if s.category == "recovered"]
    if not spans:
        return None
    latencies = sorted(s.latency_ps for s in spans)

    def pct(p: float) -> int:
        index = min(len(latencies) - 1, int(p / 100.0 * len(latencies)))
        return latencies[index]

    return {
        "count": len(latencies),
        "p50_ps": pct(50),
        "p95_ps": pct(95),
        "p99_ps": pct(99),
        "max_ps": latencies[-1],
    }


_CELL_COUNTERS = (
    "recovery.recreations",
    "recovery.completed",
    "recovery.escalations",
    "recovery.tokens_destroyed",
    "recovery.tokens_recreated",
    "recovery.residual_tokens",
    "recovery.degraded_blocks",
    "recovery.writes_lost",
    "recovery.stale_discarded",
    "recovery.stale_tokens",
    "recovery.tokens_surrendered",
    "crash.fired",
    "crash.blocks_wiped",
    "crash.tokens_wiped",
    "watchdog.trips",
    "invariant.checks",
    "telemetry.ticks",
    "telemetry.saturation_windows",
)


def run_campaign(
    config: CampaignConfig,
    runner: Optional[Runner] = None,
    spans: bool = True,
) -> dict:
    """Execute the campaign and return the ``repro.campaign/1`` report."""
    runner = runner or Runner()
    expanded = config.expand()
    cells = [cell for _s, cell in expanded]
    results, errors = _run_cells(cells, runner, config.name)

    cell_records = []
    by_scenario: Dict[str, List[Tuple[int, Optional[object]]]] = {}
    for i, ((scenario, cell), result) in enumerate(zip(expanded, results)):
        verdict = cell_verdict(result)
        record = {
            "scenario": scenario.name,
            "protocol": cell.protocol_name,
            "workload": cell.workload_name,
            "workload_kwargs": dict(cell.workload_kwargs),
            "seed": cell.seed,
            "verdict": verdict,
            "error": errors.get(i),
            "runtime_ps": result.runtime_ps if result is not None else None,
            "counters": (
                {
                    name: result.get(name)
                    for name in _CELL_COUNTERS
                    if result.get(name)
                }
                if result is not None
                else {}
            ),
        }
        cell_records.append(record)
        by_scenario.setdefault(scenario.name, []).append((i, result))

    scenario_records = []
    for scenario in config.scenarios:
        entries = by_scenario[scenario.name]
        verdicts: Dict[str, int] = {}
        recreation = {"count": 0, "total_ps": 0.0, "max_ps": 0.0}
        for i, result in entries:
            verdicts[cell_verdict(result)] = (
                verdicts.get(cell_verdict(result), 0) + 1
            )
            if result is not None:
                stream = result.summary("recovery.recreation_ps")
                recreation["count"] += int(stream.get("count", 0))
                recreation["total_ps"] += float(stream.get("total", 0.0))
                recreation["max_ps"] = max(
                    recreation["max_ps"], float(stream.get("max", 0.0))
                )
        ttr = None
        if spans:
            # Trace the scenario's first cell as the span representative.
            first_index = entries[0][0]
            ttr = _spans_time_to_recover(scenario, cells[first_index])
        scenario_records.append(
            {
                "name": scenario.name,
                "spec": dataclasses.asdict(scenario),
                "cells": len(entries),
                "verdicts": dict(sorted(verdicts.items())),
                "recreation_ps": recreation if recreation["count"] else None,
                "time_to_recover_ps": ttr,
            }
        )

    totals = {v: 0 for v in VERDICTS}
    for record in cell_records:
        totals[record["verdict"]] += 1
    return {
        "schema": CAMPAIGN_SCHEMA,
        "name": config.name,
        "protocol": config.protocol,
        "params": dataclasses.asdict(config.params),
        "seeds": list(config.seeds),
        "cells": cell_records,
        "scenarios": scenario_records,
        "totals": {"cells": len(cell_records), **totals},
    }


def render_text(report: dict) -> str:
    """Human-readable campaign summary."""
    totals = report["totals"]
    lines = [
        f"campaign {report['name']!r}: {totals['cells']} cells — "
        + ", ".join(f"{totals[v]} {v}" for v in VERDICTS if totals[v])
    ]
    for scenario in report["scenarios"]:
        verdicts = ", ".join(
            f"{n} {v}" for v, n in scenario["verdicts"].items()
        )
        lines.append(f"  {scenario['name']}: {verdicts}")
        ttr = scenario["time_to_recover_ps"]
        if ttr:
            lines.append(
                f"    time-to-recover (spans): n={ttr['count']}"
                f" p50={ttr['p50_ps']} ps p95={ttr['p95_ps']} ps"
            )
        rec = scenario["recreation_ps"]
        if rec:
            mean = rec["total_ps"] / rec["count"]
            lines.append(
                f"    recreation latency: n={rec['count']}"
                f" mean={mean:.0f} ps max={rec['max_ps']:.0f} ps"
            )
    for record in report["cells"]:
        if record["verdict"] == "failed":
            lines.append(
                f"  FAILED {record['scenario']} / {record['workload']}"
                f" seed={record['seed']}: {record['error']}"
            )
    return "\n".join(lines)
