"""The benchmark's workloads: what each one runs and how its outputs are checked.

Every workload is a batch job run by one process on one thread.  Inside
the simulation each processor is a closed loop: ``ProcThread`` issues its
next memory reference only after the previous one completes.

An *operation* is one simulated cell or one checked model.  An operation
fails when it raises (a ``DeadlockError`` included), when a token machine
fails its quiescent ``check_token_invariants``, when a processor did not
complete its references, or, on :data:`DEFAULT_SEED`, when an output
differs from the value pinned in ``pins.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.params import SystemParams
from repro.exp.library import GRID_MAX_EVENTS, mesh_params
from repro.exp.result import CellResult
from repro.exp.spec import Cell
from repro.interconnect.traffic import Scope
from repro.verification import checker
from repro.verification.dir_model import DirFlatModel
from repro.verification.token_model import (
    TokenDstModel,
    TokenRecreateModel,
    TokenSafetyModel,
)
from repro.workloads import make_workload

import layers

#: The seed the outputs in ``pins.json`` were recorded with.
DEFAULT_SEED = 1
PINS_PATH = Path(__file__).with_name("pins.json")
#: ``python -m repro verify``'s default state bound.
VERIFY_MAX_STATES = 6_000_000
#: Model-set constructions per ``verify-fast`` set-up sample (about 10 ms).
VERIFY_SETUP_REPEATS = 400


def load_pins() -> Dict[str, dict]:
    with open(PINS_PATH) as fh:
        return json.load(fh)


@dataclasses.dataclass
class Outcome:
    """One job: its host time, its operations and what went wrong."""

    run_s: float
    operations: int
    #: ``(operation, message)`` pairs; an operation may fail several ways.
    failures: List[Tuple[str, str]]
    #: Canonical JSON of every simulated or checked output; two runs of
    #: one seed must produce the same string.
    fingerprint: str
    #: Deterministic counts the per-layer metrics are derived from.
    outputs: Dict[str, float]
    #: Host time in reference units: each timed part divided by the mean
    #: of the host-speed probes just before and after it (0 unprobed).
    run_ref: float = 0.0
    #: Mean probe reading, in host seconds (0 unprobed).
    ref_s: float = 0.0

    @property
    def failed(self) -> int:
        """Operations with at least one failure."""
        return len({op for op, _message in self.failures})


def _referenced(parts: List[float], probes: List[float]) -> Tuple[float, float]:
    """``(run_ref, ref_s)`` of parts timed between successive probes."""
    if not probes:
        return 0.0, 0.0
    run_ref = sum(part / ((before + after) / 2)
                  for part, before, after in zip(parts, probes, probes[1:]))
    return run_ref, sum(probes) / len(probes)


def _diff_pins(op: str, got: Dict[str, int], pinned: Dict[str, int]
               ) -> List[Tuple[str, str]]:
    return [
        (op, f"{key} is {got.get(key)}, pinned {want}")
        for key, want in sorted(pinned.items())
        if got.get(key) != want
    ]


@dataclasses.dataclass(frozen=True)
class SimCase:
    """One OLTP simulation cell on one machine."""

    name: str
    protocol: str
    params: SystemParams
    refs_per_proc: int

    @property
    def refs(self) -> int:
        """Simulated memory references the job completes."""
        return self.params.num_procs * self.refs_per_proc

    def cell(self, seed: int) -> Cell:
        return Cell(
            protocol=self.protocol, workload="oltp",
            workload_kwargs={"refs_per_proc": self.refs_per_proc},
            seed=seed, params=self.params, max_events=GRID_MAX_EVENTS,
        )

    def trace_targets(self):
        """What a traced run wraps: (entry points, model classes)."""
        return layers.SIM_ENTRY_POINTS, ()

    def set_up(self, seed: int):
        """Build the machine and compile the workload.

        Returns ``(cell, machine, workload, seconds)``, where ``seconds``
        holds the host seconds of each step.
        """
        start = perf_counter()
        cell = self.cell(seed)
        machine = cell.machine.build()
        built = perf_counter()
        workload = make_workload(cell.workload, cell.params, seed=seed,
                                 **cell.kwargs)
        compiled = perf_counter()
        workload.generators()
        end = perf_counter()
        seconds = {"build_s": built - start, "compile_s": compiled - built,
                   "setup_s": end - start}
        return cell, machine, workload, seconds

    def time_setup(self, seed: int) -> Dict[str, float]:
        """Host seconds to build the machine and compile the workload."""
        return self.set_up(seed)[3]

    def run(self, seed: int, pins: Dict[str, dict],
            around: Callable = contextlib.nullcontext,
            probe: Optional[Callable[[], float]] = None) -> Outcome:
        """Build, run (timed, inside ``around()``), then check one cell.

        ``probe``, when given, reads host speed just before and just
        after the timed run.
        """
        probes = []
        start = perf_counter()
        try:
            cell, machine, workload, _seconds = self.set_up(seed)
            gc.collect()
            if probe:
                probes.append(probe())
            start = perf_counter()
            with around():
                result = machine.run(workload, max_events=cell.max_events)
        except Exception as err:  # any exception fails the operation
            return Outcome(perf_counter() - start, 1,
                           [(self.name, f"{type(err).__name__}: {err}")], "", {})
        run_s = perf_counter() - start
        if probe:
            probes.append(probe())

        failures = []
        done = sum(workload.completed_refs)
        if done != self.refs:
            failures.append((self.name, f"{done} of {self.refs} references completed"))
        if machine.cfg.family == "token":
            try:
                machine.check_token_invariants()
            except Exception as err:
                failures.append((self.name, f"token invariants: {err}"))
        outputs = sim_outputs(machine, result)
        if seed == DEFAULT_SEED:
            failures += _diff_pins(self.name, outputs, pins[self.name])
        record = CellResult.from_run(result, cell).to_dict()
        record["events"] = outputs["events_fired"]
        fingerprint = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return Outcome(run_s, 1, failures, fingerprint, outputs,
                       *_referenced([run_s], probes))


def sim_outputs(machine, result) -> Dict[str, float]:
    """The deterministic counts of one finished run."""
    counters = result.stats.counters
    latency = result.stats.summaries["l1.miss_latency_ps"]
    runtime = result.runtime_ps
    busiest = max(
        link.serialization_ps(link.bytes_carried)
        for link in machine.net.links_by_name().values()
    )
    pool = machine.net.pool
    return {
        "events_fired": machine.sim.events_fired,
        "runtime_ps": runtime,
        "l1_misses": counters.get("l1.misses", 0),
        "inter_bytes": result.meter.scope_bytes(Scope.INTER),
        "intra_bytes": result.meter.scope_bytes(Scope.INTRA),
        "l1_hits": counters.get("l1.hits", 0),
        "persistent_requests": counters.get("persistent.requests", 0),
        "retries": counters.get("policy.retries", 0),
        "dir_forwards": counters.get("interdir.forwards", 0),
        "dir_deferred": (counters.get("interdir.deferred_requests", 0)
                         + counters.get("l2.deferred_requests", 0)),
        "link_hops": sum(result.meter.messages.values()),
        "event_news": machine.sim.event_news,
        "pool_acquires": pool.acquires,
        "pool_news": pool.news,
        "miss_p50_ps": latency.percentile(50),
        "miss_p99_ps": latency.percentile(99),
        "max_link_util_permille": 1000 * busiest / runtime,
        "token_family": machine.cfg.family == "token",
    }


def verify_models() -> list:
    """The ``python -m repro verify --fast`` model set, as (model, liveness)."""
    return [
        (TokenSafetyModel(), False),
        (TokenDstModel(coarse_sends=True, atomic_broadcasts=True), True),
        (TokenRecreateModel(), False),
        (DirFlatModel(), True),
    ]


@dataclasses.dataclass(frozen=True)
class VerifyCase:
    """Exhaustive model checking of the fast model set.

    The models are deterministic, so the seed changes nothing here.
    """

    name: str

    def trace_targets(self):
        """What a traced run wraps: (entry points, model classes)."""
        return (layers.VERIFY_ENTRY_POINTS,
                [type(model) for model, _liveness in verify_models()])

    def time_setup(self, seed: int) -> Dict[str, float]:
        """Host seconds to construct the model set.

        One construction takes tens of microseconds, too little for the
        timer, so this is the mean of :data:`VERIFY_SETUP_REPEATS`.
        """
        start = perf_counter()
        for _ in range(VERIFY_SETUP_REPEATS):
            verify_models()
        return {"build_s": 0.0, "compile_s": 0.0,
                "setup_s": (perf_counter() - start) / VERIFY_SETUP_REPEATS}

    def run(self, seed: int, pins: Dict[str, dict],
            around: Callable = contextlib.nullcontext,
            probe: Optional[Callable[[], float]] = None) -> Outcome:
        """Check every model (timed, inside ``around()``); each is one operation.

        ``probe``, when given, reads host speed before the first check and
        after each one: a check takes up to 3 s, and host speed drifts
        within the job.
        """
        models = verify_models()
        gc.collect()
        failures, results, parts = [], [], []
        probes = [probe()] if probe else []
        with around():
            for model, liveness in models:
                start = perf_counter()
                try:
                    # Through the module attribute, so a traced run's
                    # wrapper on ``checker.check`` sees the call.
                    results.append(checker.check(
                        model, max_states=VERIFY_MAX_STATES,
                        check_liveness=liveness))
                except Exception as err:  # any exception fails the model
                    failures.append((model.name, f"{type(err).__name__}: {err}"))
                parts.append(perf_counter() - start)
                if probe:
                    probes.append(probe())
        pinned = pins[self.name]
        for res in results:
            failures += _diff_pins(
                res.model, {"states": res.states, "transitions": res.transitions},
                pinned[res.model])
        fingerprint = json.dumps([r.to_dict() for r in results], sort_keys=True)
        outputs = {
            "states": sum(r.states for r in results),
            "transitions": sum(r.transitions for r in results),
        }
        return Outcome(sum(parts), len(models), failures, fingerprint, outputs,
                       *_referenced(parts, probes))


CASES: Dict[str, object] = {
    case.name: case for case in (
        # The paper's headline cell: Figure 6's size on the 4x4 ptp fabric.
        SimCase("token-oltp-4x4", "TokenCMP-dst1", SystemParams(), 250),
        # The baseline every figure normalises to, on the same stream.
        SimCase("dir-oltp-4x4", "DirectoryCMP", SystemParams(), 250),
        # Section 8's scaling regime: a 16-CMP graph-routed mesh.
        SimCase("token-mesh-16x2", "TokenCMP-dst1", mesh_params(16, 2), 40),
        # The only workload that exercises the model checker.
        VerifyCase("verify-fast"),
    )
}
