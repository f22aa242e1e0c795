"""Shared infrastructure for the experiment benchmarks.

Each ``bench_*`` module regenerates one table or figure from the paper by
driving a named :mod:`repro.exp.library` experiment (or an ad-hoc spec)
through the engine.  Results are printed AND written to
``benchmarks/results/<name>.txt`` so they survive pytest's output
capturing; EXPERIMENTS.md records a snapshot.

Engine knobs (surfaced everywhere the benchmarks run):

* ``REPRO_JOBS=N``     — fan cells out over N worker processes;
* ``REPRO_NO_CACHE=1`` — recompute every cell, bypassing the
  content-addressed cache under ``benchmarks/results/.cache/``.

Parallelism and caching never change results — each cell is an
independent deterministic simulation.

The runs are scaled down from the paper's (hundreds of transactions
instead of full-system workloads) — the claims being reproduced are the
*normalized shapes*, not absolute times.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.analysis.report import ResultTable
from repro.common.params import SystemParams
from repro.exp.library import EXPERIMENTS, GRID_MAX_EVENTS, render_text
from repro.exp.runner import ExperimentResult, Runner
from repro.exp.spec import Cell, ExperimentSpec

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
CACHE_DIR = os.path.join(RESULTS_DIR, ".cache")


def full_params() -> SystemParams:
    """The paper's 4-CMP x 4-processor target system (Table 3)."""
    return SystemParams()


def engine_jobs() -> int:
    return int(os.environ.get("REPRO_JOBS", "1"))


def engine_use_cache() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "") not in ("1", "true", "yes")


def engine_runner(progress: Optional[Callable[[str], None]] = None) -> Runner:
    """The benchmarks' engine: REPRO_JOBS / REPRO_NO_CACHE aware."""
    return Runner(
        jobs=engine_jobs(),
        cache=engine_use_cache(),
        cache_dir=os.environ.get("REPRO_CACHE_DIR") or CACHE_DIR,
        progress=progress,
    )


def run_library(exp_id: str):
    """Run a named library experiment; returns (result, tables)."""
    exp = EXPERIMENTS[exp_id]
    result = engine_runner().run(exp.build())
    return result, exp.render(result)


def emit(name: str, tables: Iterable[ResultTable]) -> str:
    """Print tables and persist them under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = render_text(tables)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text)
    print()
    print(text, end="")
    return text


def grid_spec(
    name: str,
    params: SystemParams,
    protocols: Sequence,
    workload: Union[str, Callable],
    seeds: Sequence[int] = (1,),
    max_events: Optional[int] = GRID_MAX_EVENTS,
    **wl_kwargs,
) -> ExperimentSpec:
    """An ad-hoc protocol x seed grid over one declarative workload."""
    return ExperimentSpec(name, tuple(
        Cell(protocol=proto, workload=workload, workload_kwargs=wl_kwargs,
             seed=seed, params=params, max_events=max_events)
        for proto in protocols
        for seed in seeds
    ))
