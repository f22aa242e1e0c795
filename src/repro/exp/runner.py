"""Cell execution: the one machine-construction path, serial or parallel.

:func:`run_cell` is the *only* place in the repository that builds a
``Machine`` + workload for an experiment — the CLI, the benchmarks, the
experiment library (including its ``report`` and ``faults`` presets)
and the recovery campaigns all funnel through it, so fault injection,
watchdog arming and invariant checking behave identically everywhere.

:class:`Runner` executes a spec's cells across a ``multiprocessing`` pool.
Each cell is an independent deterministic simulation (its own kernel, its
own seeded RNG substreams), so parallel execution is bit-identical to
serial: the runner only changes *when* cells run, never what they
compute.  Results come back in spec order regardless of completion order.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.exp.cache import ResultCache
from repro.exp.result import CellResult
from repro.exp.spec import Cell, ExperimentSpec
from repro.workloads import make_workload


def run_cell(cell: Cell, tracer=None, profiler=None) -> CellResult:
    """Execute one cell: build the machine + workload, run, record.

    The returned result carries the in-process ``RunResult`` in ``.raw``
    (dropped when the result crosses a process boundary or the cache).

    ``tracer`` (:class:`repro.obs.trace.Tracer`) and ``profiler``
    (:class:`repro.obs.profile.KernelProfiler`) attach to the machine's
    kernel before the run; both are observational only — attaching them
    never changes the simulated outcome.
    """
    machine = cell.machine.build()
    if tracer is not None:
        tracer.attach(machine.sim)
    if profiler is not None:
        profiler.attach(machine.sim)
    try:
        sampler = None
        if cell.telemetry is not None:
            from repro.obs.telemetry import TelemetrySampler

            sampler = TelemetrySampler(cell.telemetry).attach(machine)
        watchdog = monitor = None
        if cell.watchdog_budget_ns is not None:
            from repro.faults.watchdog import LivenessWatchdog

            kwargs = {}
            if cell.watchdog_check_every is not None:
                kwargs["check_every_events"] = cell.watchdog_check_every
            watchdog = LivenessWatchdog(
                machine, budget_ns=cell.watchdog_budget_ns, **kwargs
            )
        if cell.invariant_check_every is not None:
            from repro.faults.watchdog import InvariantMonitor

            monitor = InvariantMonitor(machine, cell.invariant_check_every)

        if callable(cell.workload):
            workload = cell.workload(cell.params, cell.seed)
        else:
            workload = make_workload(
                cell.workload, cell.params, seed=cell.seed, **cell.kwargs
            )
        run_result = machine.run(workload, max_events=cell.max_events)
    finally:
        if profiler is not None:
            profiler.detach()
    if cell.check_invariants and machine.cfg.family == "token":
        machine.check_token_invariants()  # quiescent re-check
    if watchdog is not None:
        run_result.stats.counters["watchdog.trips"] = watchdog.trips
    if monitor is not None:
        run_result.stats.counters["invariant.checks"] = monitor.checks
    if machine.recovery is not None:
        # End-of-run recovery residuals: the campaign verdict inputs.
        ledger = machine.recovery
        counters = run_result.stats.counters
        counters["recovery.residual_tokens"] = ledger.residual_tokens()
        counters["recovery.degraded_blocks"] = len(ledger.degraded_blocks())
        counters["recovery.writes_lost"] = ledger.writes_lost
        counters["recovery.tokens_destroyed"] = ledger.tokens_destroyed
        counters["recovery.tokens_recreated"] = ledger.tokens_recreated
    telemetry_doc = None
    if sampler is not None:
        telemetry_doc = sampler.finalize()
        counters = run_result.stats.counters
        counters["telemetry.ticks"] = sampler.ticks
        counters["telemetry.saturation_windows"] = len(
            telemetry_doc["saturation"]
        )
    result = CellResult.from_run(run_result, cell)
    result.telemetry = telemetry_doc
    return result


def _run_cell_worker(cell: Cell) -> CellResult:
    """Pool target: run a cell and strip the unpicklable machine handle."""
    result = run_cell(cell)
    result.raw = None
    return result


@dataclasses.dataclass
class ExperimentResult:
    """All cell results of one spec, in spec order, plus cache stats."""

    spec: ExperimentSpec
    results: List[CellResult]
    cache_hits: int = 0
    cache_misses: int = 0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # ------------------------------------------------------------------
    def _match(self, cell: Cell, result: CellResult, filters: dict) -> bool:
        for field, want in filters.items():
            if field == "protocol":
                got = cell.protocol_name
            elif field == "workload":
                got = cell.workload_name
            elif field == "seed":
                got = cell.seed
            elif field == "label":
                got = cell.label
            else:
                raise KeyError(f"unknown filter {field!r}")
            if got != want:
                return False
        return True

    def select(self, **filters) -> List[CellResult]:
        return [
            res
            for cell, res in zip(self.spec.cells, self.results)
            if self._match(cell, res, filters)
        ]

    def cell(self, **filters) -> CellResult:
        """The unique result matching the filters."""
        matches = self.select(**filters)
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} results match {filters!r} in "
                f"{self.spec.name!r} (want exactly 1)"
            )
        return matches[0]

    def mean_runtime(self, **filters) -> float:
        """Mean runtime (ps) over matching cells — the per-seed average."""
        matches = self.select(**filters)
        if not matches:
            raise KeyError(f"no results match {filters!r} in {self.spec.name!r}")
        return sum(r.runtime_ps for r in matches) / len(matches)

    def runtime_grid(self, protocols: Sequence[str], **filters
                     ) -> Dict[str, float]:
        return {p: self.mean_runtime(protocol=p, **filters) for p in protocols}

    def by_protocol(self, protocols: Sequence[str], **filters
                    ) -> Dict[str, CellResult]:
        return {p: self.cell(protocol=p, **filters) for p in protocols}

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """One canonical JSON line per cell, in spec order."""
        return "\n".join(res.to_json() for res in self.results)


class Runner:
    """Executes specs: fan-out across processes, memoize on disk.

    ``jobs`` bounds worker processes (1 = serial, in-process).  With
    ``cache=True`` each cell's result is looked up in / stored to the
    content-addressed cache; only cache *misses* are computed.  Both knobs
    only affect scheduling — results are bit-identical either way.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[str] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = ResultCache(cache_dir) if cache else None
        self._say = progress or (lambda msg: None)

    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell], name: str = "adhoc"
                  ) -> ExperimentResult:
        return self.run(ExperimentSpec(name=name, cells=tuple(cells)))

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        cells = list(spec.cells)
        results: List[Optional[CellResult]] = [None] * len(cells)
        hits = 0

        pending = []  # (index, cell, key) still to compute
        for i, cell in enumerate(cells):
            key = self.cache.key(cell) if self.cache else None
            if key is not None:
                cached = self.cache.load(key)
                if cached is not None:
                    results[i] = cached
                    hits += 1
                    continue
            pending.append((i, cell, key))
        if hits:
            self._say(f"{spec.name}: {hits}/{len(cells)} cells from cache")

        # Cells with callable workloads cannot cross a process boundary;
        # run them in-process (keeps .raw populated for legacy callers).
        parallelizable = [p for p in pending if p[1].cacheable]
        serial = [p for p in pending if not p[1].cacheable]
        if self.jobs > 1 and len(parallelizable) > 1:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            workers = min(self.jobs, len(parallelizable))
            self._say(
                f"{spec.name}: computing {len(parallelizable)} cells "
                f"on {workers} workers"
            )
            with ctx.Pool(workers) as pool:
                computed = pool.map(
                    _run_cell_worker, [c for _, c, _ in parallelizable]
                )
            for (i, _cell, key), res in zip(parallelizable, computed):
                res.cache_key = key
                results[i] = res
        else:
            serial = parallelizable + serial
        for i, cell, key in serial:
            self._say(
                f"{spec.name}: {cell.protocol_name} / {cell.workload_name}"
                f" seed={cell.seed}" + (f" [{cell.label}]" if cell.label else "")
            )
            res = run_cell(cell)
            res.cache_key = key
            results[i] = res

        if self.cache is not None:
            for i, _cell, key in pending:
                if key is not None:
                    self.cache.store(key, results[i])
        return ExperimentResult(
            spec=spec,
            results=results,
            cache_hits=hits,
            cache_misses=len(pending),
        )
