"""Named experiment definitions: one code path from spec to table.

Every figure/table experiment the repository reproduces is declared here
as an :class:`Experiment` — a spec builder plus a table renderer over the
structured :class:`~repro.exp.result.CellResult` records.  The pytest
benchmarks under ``benchmarks/``, ``python -m repro bench``, and the two
presets ``python -m repro faults`` (the ``robustness`` experiment) and
``python -m repro report`` (:func:`render_report`) drive the *same*
definitions, so there is exactly one source of truth for each
experiment's grid and its rendered output.

Every spec builder takes ``(scale=1.0, seed=1)``: ``scale`` multiplies
the workload sizes through :func:`scaled` and ``seed`` is the first
seed of the grid.  At the defaults a builder returns the grid behind the
committed ``benchmarks/results/*.txt`` tables.

Model checking (Section 5) is not cell-shaped (no machine, no workload)
and stays in ``bench_sec5_modelcheck`` / ``python -m repro verify``; the
report only adds the ``verify --fast`` counts.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Sequence

from repro.analysis.report import ResultTable
from repro.common.errors import ReproError
from repro.common.params import SystemParams
from repro.exp.runner import ExperimentResult, Runner
from repro.exp.spec import Cell, ExperimentSpec
from repro.interconnect.topology import Topology
from repro.interconnect.traffic import Scope, TrafficClass


def scaled(base: int, scale: float) -> int:
    """A workload size at ``scale``: ``base`` itself at 1.0, never below 2."""
    return max(2, round(base * scale))


def render_text(tables: Iterable[ResultTable]) -> str:
    """Tables as the bytes of a ``benchmarks/results/<name>.txt`` file."""
    return "\n\n".join(t.render() for t in tables) + "\n"


# ---------------------------------------------------------------------------
# Figures 2 & 3: locking micro-benchmark.
# ---------------------------------------------------------------------------

LOCK_COUNTS = [2, 4, 8, 16, 32, 64, 128, 256, 512]
FIG2_PROTOCOLS = [
    "TokenCMP-arb0", "DirectoryCMP", "DirectoryCMP-zero", "TokenCMP-dst0",
]
FIG3_PROTOCOLS = [
    "DirectoryCMP", "DirectoryCMP-zero", "TokenCMP-dst4", "TokenCMP-dst1",
    "TokenCMP-dst1-pred",
]
LOCK_ACQUIRES = 12
GRID_MAX_EVENTS = 120_000_000


def _locking_spec(name: str, protocols: List[str], scale: float = 1.0,
                  seed: int = 1) -> ExperimentSpec:
    acquires = scaled(LOCK_ACQUIRES, scale)
    cells = []
    for nl in LOCK_COUNTS:
        # High-contention points are noisy: average over perturbed runs,
        # the paper's Alameldeen & Wood methodology (error bars).
        seeds = (seed, seed + 1, seed + 2) if nl <= 8 else (seed,)
        for proto in protocols:
            for run_seed in seeds:
                cells.append(Cell(
                    protocol=proto, workload="locking",
                    workload_kwargs={
                        "num_locks": nl, "acquires_per_proc": acquires,
                    },
                    seed=run_seed, max_events=GRID_MAX_EVENTS, label=str(nl),
                ))
    return ExperimentSpec(name=name, cells=tuple(cells))


def locking_grid(result: ExperimentResult, protocols: List[str]
                 ) -> Dict[int, Dict[str, float]]:
    return {
        nl: result.runtime_grid(protocols, label=str(nl))
        for nl in LOCK_COUNTS
    }


def _render_locking(result, protocols, title) -> List[ResultTable]:
    grid = locking_grid(result, protocols)
    base = grid[512]["DirectoryCMP"]
    table = ResultTable(title, ["locks"] + protocols)
    for nl in LOCK_COUNTS:
        table.add(nl, *(f"{grid[nl][p] / base:.2f}" for p in protocols))
    return [table]


# ---------------------------------------------------------------------------
# Table 4: barrier micro-benchmark.
# ---------------------------------------------------------------------------

TABLE4_PROTOCOLS = [
    "TokenCMP-arb0", "TokenCMP-dst0", "DirectoryCMP", "DirectoryCMP-zero",
    "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred", "TokenCMP-dst1-filt",
]
TABLE4_PAPER = {
    "TokenCMP-arb0": (1.40, 1.29),
    "TokenCMP-dst0": (0.94, 0.91),
    "DirectoryCMP": (1.00, 1.00),
    "DirectoryCMP-zero": (0.95, 0.93),
    "TokenCMP-dst4": (1.15, 1.01),
    "TokenCMP-dst1": (0.99, 0.95),
    "TokenCMP-dst1-pred": (0.96, 0.93),
    "TokenCMP-dst1-filt": (0.99, 0.95),
}
BARRIER_PHASES = 16


def _table4_spec(scale: float = 1.0, seed: int = 1) -> ExperimentSpec:
    cells = []
    for label, jitter in (("fixed", 0.0), ("jitter", 1000.0)):
        for proto in TABLE4_PROTOCOLS:
            cells.append(Cell(
                protocol=proto, workload="barrier",
                workload_kwargs={
                    "phases": scaled(BARRIER_PHASES, scale), "work_ns": 3000.0,
                    "work_jitter_ns": jitter,
                },
                seed=seed, max_events=GRID_MAX_EVENTS, label=label,
            ))
    return ExperimentSpec(name="table4", cells=tuple(cells))


def _render_table4(result) -> List[ResultTable]:
    fixed = result.runtime_grid(TABLE4_PROTOCOLS, label="fixed")
    jitter = result.runtime_grid(TABLE4_PROTOCOLS, label="jitter")
    table = ResultTable(
        "Table 4 - barrier micro-benchmark runtime, normalized to DirectoryCMP",
        ["protocol", "3000ns fixed", "paper", "3000ns +-U(1000)", "paper"],
    )
    for proto in TABLE4_PROTOCOLS:
        table.add(
            proto,
            f"{fixed[proto] / fixed['DirectoryCMP']:.2f}",
            f"{TABLE4_PAPER[proto][0]:.2f}",
            f"{jitter[proto] / jitter['DirectoryCMP']:.2f}",
            f"{TABLE4_PAPER[proto][1]:.2f}",
        )
    return [table]


# ---------------------------------------------------------------------------
# Figures 6 & 7: commercial workloads.
# ---------------------------------------------------------------------------

FIG6_PROTOCOLS = [
    "DirectoryCMP", "DirectoryCMP-zero", "TokenCMP-dst4", "TokenCMP-dst1",
    "TokenCMP-dst1-pred", "TokenCMP-dst1-filt", "PerfectL2",
]
FIG7_PROTOCOLS = [
    "DirectoryCMP", "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred",
    "TokenCMP-dst1-filt",
]
COMMERCIAL_WORKLOADS = ["oltp", "apache", "specjbb"]
PAPER_SPEEDUP = {"oltp": 0.50, "apache": 0.29, "specjbb": 0.10}
COMMERCIAL_REFS = 250


def _commercial_spec(name: str, protocols: List[str], scale: float = 1.0,
                     seed: int = 1) -> ExperimentSpec:
    refs = scaled(COMMERCIAL_REFS, scale)
    return ExperimentSpec.grid(
        name, protocols,
        [(wl, {"refs_per_proc": refs}) for wl in COMMERCIAL_WORKLOADS],
        seeds=(seed,), max_events=GRID_MAX_EVENTS,
    )


def commercial_results(result: ExperimentResult, protocols: List[str]
                       ) -> Dict[str, Dict[str, object]]:
    return {
        wl: result.by_protocol(protocols, workload=wl)
        for wl in COMMERCIAL_WORKLOADS
    }


def _render_fig6(result) -> List[ResultTable]:
    all_results = commercial_results(result, FIG6_PROTOCOLS)
    table = ResultTable(
        "Figure 6 - commercial workload runtime normalized to DirectoryCMP "
        "(smaller is better)",
        ["protocol"] + COMMERCIAL_WORKLOADS,
    )
    for proto in FIG6_PROTOCOLS:
        cells = []
        for wl in COMMERCIAL_WORKLOADS:
            base = all_results[wl]["DirectoryCMP"].runtime_ps
            cells.append(f"{all_results[wl][proto].runtime_ps / base:.2f}")
        table.add(proto, *cells)
    speedups = ResultTable(
        "TokenCMP-dst1 speedup over DirectoryCMP (paper: OLTP 50%, Apache 29%, "
        "SPECjbb 10%)",
        ["workload", "measured", "paper"],
    )
    for wl in COMMERCIAL_WORKLOADS:
        base = all_results[wl]["DirectoryCMP"].runtime_ps
        tok = all_results[wl]["TokenCMP-dst1"].runtime_ps
        speedups.add(wl, f"{base / tok - 1:+.0%}", f"+{PAPER_SPEEDUP[wl]:.0%}")
    latency = ResultTable(
        "L1 miss latency in ns (mean / p50 / p95) - the indirection gap",
        ["workload", "protocol", "mean", "p50", "p95"],
    )
    for wl in COMMERCIAL_WORKLOADS:
        for proto in ("DirectoryCMP", "TokenCMP-dst1"):
            summary = all_results[wl][proto].summary("l1.miss_latency_ps")
            latency.add(
                wl, proto,
                f"{summary['mean'] / 1000:.0f}",
                f"{summary['p50'] / 1000:.0f}",
                f"{summary['p95'] / 1000:.0f}",
            )
    return [table, speedups, latency]


def traffic_norm(results: Dict[str, object], scope: Scope, baseline: str
                 ) -> Dict[str, Dict[TrafficClass, float]]:
    """Per-protocol traffic by class, normalized to ``baseline``'s total."""
    base_total = results[baseline].scope_bytes(scope)
    return {
        name: {
            klass: (value / base_total if base_total else 0.0)
            for klass, value in res.breakdown(scope).items()
        }
        for name, res in results.items()
    }


def _render_fig7(result) -> List[ResultTable]:
    all_results = commercial_results(result, FIG7_PROTOCOLS)
    tables = []
    for scope, title in (
        (Scope.INTER, "Figure 7a - inter-CMP traffic by message class "
                      "(bytes, normalized to DirectoryCMP total)"),
        (Scope.INTRA, "Figure 7b - intra-CMP traffic by message class "
                      "(bytes, normalized to DirectoryCMP total)"),
    ):
        table = ResultTable(
            title,
            ["workload", "protocol", "total"] + [k.value for k in TrafficClass],
        )
        for wl in COMMERCIAL_WORKLOADS:
            norm = traffic_norm(all_results[wl], scope, "DirectoryCMP")
            for proto in FIG7_PROTOCOLS:
                row = norm[proto]
                table.add(
                    wl, proto, f"{sum(row.values()):.2f}",
                    *(f"{row[k]:.3f}" for k in TrafficClass),
                )
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# The fig6 smoke cell: the pinned end-to-end determinism anchor.
# ---------------------------------------------------------------------------

SMOKE_CELL_PROTOCOL = "TokenCMP-dst1"
SMOKE_CELL_WORKLOAD = "oltp"
SMOKE_CELL_REFS = 120
SMOKE_CELL_SEED = 1


def fig6_smoke_cell(telemetry=None) -> Cell:
    """One representative fig6 cell, pinned across PRs.

    The work report (``python -m repro perf``, committed as
    ``BENCH_work.json``), the fig6 smoke pin in ``tests/test_network.py``
    and the golden telemetry baseline all run exactly this cell (metrics
    sha ``8d0b5685...``, 163255 events, 20,234,772 ps), so any
    behavioral drift shows up as one diff everywhere.  ``telemetry``
    optionally attaches a :class:`~repro.obs.telemetry.TelemetryConfig`
    — sampling is observational, so the simulated outcome is identical
    either way.
    """
    return Cell(
        protocol=SMOKE_CELL_PROTOCOL,
        workload=SMOKE_CELL_WORKLOAD,
        workload_kwargs={"refs_per_proc": SMOKE_CELL_REFS},
        seed=SMOKE_CELL_SEED,
        max_events=GRID_MAX_EVENTS,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Hand-off latency (mechanism behind Figure 6).
# ---------------------------------------------------------------------------

HANDOFF_PROTOCOLS = ["DirectoryCMP", "DirectoryCMP-zero", "TokenCMP-dst1", "TokenB"]
HANDOFF_ROUNDS = 24


def _handoff_spec(scale: float = 1.0, seed: int = 1) -> ExperimentSpec:
    params = SystemParams()
    rounds = scaled(HANDOFF_ROUNDS, scale)
    cells = []
    for label, proc_b in (("same chip", 1), ("cross chip", params.procs_per_chip)):
        for proto in HANDOFF_PROTOCOLS:
            cells.append(Cell(
                protocol=proto, workload="pingpong",
                workload_kwargs={
                    "proc_a": 0, "proc_b": proc_b, "rounds": rounds,
                },
                seed=seed, params=params, label=label,
            ))
    return ExperimentSpec(name="handoff", cells=tuple(cells))


def handoff_grid(result: ExperimentResult) -> Dict[tuple, float]:
    """ns per ping-pong round trip, keyed by (pair label, protocol)."""
    return {
        (cell.label, cell.protocol_name):
            res.runtime_ps / cell.kwargs["rounds"] / 1000.0
        for cell, res in zip(result.spec.cells, result)
    }


def _render_handoff(result) -> List[ResultTable]:
    grid = handoff_grid(result)
    table = ResultTable(
        "Sharing-miss hand-off: ns per ping-pong round trip (lower is better)",
        ["pair"] + HANDOFF_PROTOCOLS,
    )
    for label in ("same chip", "cross chip"):
        table.add(label, *(f"{grid[(label, p)]:.0f}" for p in HANDOFF_PROTOCOLS))
    return [table]


# ---------------------------------------------------------------------------
# CMP-count scaling (paper Section 8).
# ---------------------------------------------------------------------------

SCALING_PROTOCOLS = ["DirectoryCMP", "TokenCMP-dst1", "TokenCMP-dst1-mcast"]
CHIP_COUNTS = [2, 4, 8]
SCALING_REFS = 120


def _oltp_scaling_spec(name: str, machines: List[tuple], refs: int,
                       seed: int, telemetry=None) -> ExperimentSpec:
    """OLTP on each ``(chips, params)`` machine, labelled by chip count."""
    return ExperimentSpec(name, tuple(
        Cell(
            protocol=proto, workload="oltp",
            workload_kwargs={"refs_per_proc": refs}, seed=seed,
            params=params, telemetry=telemetry, label=str(chips),
        )
        for chips, params in machines
        for proto in SCALING_PROTOCOLS
    ))


def _scaling_spec(scale: float = 1.0, seed: int = 1) -> ExperimentSpec:
    return _oltp_scaling_spec("scaling", [
        (chips, SystemParams(num_chips=chips,
                             tokens_per_block=128 if chips > 4 else 64))
        for chips in CHIP_COUNTS
    ], scaled(SCALING_REFS, scale), seed)


def scaling_grid(result: ExperimentResult) -> Dict[int, Dict[str, object]]:
    return {
        chips: result.by_protocol(SCALING_PROTOCOLS, label=str(chips))
        for chips in CHIP_COUNTS
    }


def _render_scaling(result) -> List[ResultTable]:
    grid = scaling_grid(result)
    table = ResultTable(
        "Scaling - inter-CMP traffic normalized to DirectoryCMP (OLTP) "
        "and runtime normalized to DirectoryCMP, by CMP count",
        ["CMPs"] + [f"{p} traffic" for p in SCALING_PROTOCOLS[1:]]
        + [f"{p} runtime" for p in SCALING_PROTOCOLS[1:]],
    )
    for chips in CHIP_COUNTS:
        res = grid[chips]
        base_b = res["DirectoryCMP"].scope_bytes(Scope.INTER)
        base_t = res["DirectoryCMP"].runtime_ps
        cells = [f"{res[p].scope_bytes(Scope.INTER) / base_b:.2f}"
                 for p in SCALING_PROTOCOLS[1:]]
        cells += [f"{res[p].runtime_ps / base_t:.2f}" for p in SCALING_PROTOCOLS[1:]]
        table.add(chips, *cells)
    return [table]


# ---------------------------------------------------------------------------
# Big-topology scaling (ROADMAP: 8/16-CMP mesh sweeps — where does flat
# token counting break down vs DirectoryCMP, and how much does the
# multicast destination-set predictor claw back?).
# ---------------------------------------------------------------------------

BIG_CHIP_COUNTS = [8, 16]
BIG_PROCS_PER_CHIP = 8
BIG_SCALING_REFS = 40
SMOKE_CHIPS = 8
SMOKE_PROCS_PER_CHIP = 2
SMOKE_REFS = 30


def mesh_params(chips: int, procs: int) -> SystemParams:
    """An ``chips``-CMP mesh machine with a valid power-of-two token count."""
    caches = chips * (2 * procs + 1)
    tokens = 64
    while tokens <= caches:
        tokens *= 2
    return SystemParams(
        num_chips=chips, procs_per_chip=procs,
        tokens_per_block=tokens, topology=Topology.mesh(),
    )


def _mesh_scaling_spec(name: str, chip_counts: List[int], procs: int,
                       refs: int, seed: int, telemetry=None) -> ExperimentSpec:
    return _oltp_scaling_spec(
        name, [(chips, mesh_params(chips, procs)) for chips in chip_counts],
        refs, seed, telemetry,
    )


def _scaling_big_spec(scale: float = 1.0, seed: int = 1) -> ExperimentSpec:
    return _mesh_scaling_spec("scaling-big", BIG_CHIP_COUNTS,
                              BIG_PROCS_PER_CHIP,
                              scaled(BIG_SCALING_REFS, scale), seed)


def _scaling_smoke_spec(scale: float = 1.0, seed: int = 1) -> ExperimentSpec:
    return _mesh_scaling_spec("scaling-smoke", [SMOKE_CHIPS],
                              SMOKE_PROCS_PER_CHIP, scaled(SMOKE_REFS, scale),
                              seed)


def request_fanout_per_miss(res) -> float:
    """Inter-CMP request messages per L1 miss (broadcast fan-out proxy).

    Derived from existing traffic counters — request-class messages are
    control-sized, so inter-CMP request bytes / control size counts the
    inter-chip link crossings the protocol's request fan-out caused.
    """
    misses = res.get("l1.misses")
    if not misses:
        return 0.0
    ctrl = SystemParams().control_msg_bytes
    return res.breakdown(Scope.INTER)[TrafficClass.REQUEST] / ctrl / misses


def mesh_scaling_grid(result: ExperimentResult, chip_counts: List[int]
                      ) -> Dict[int, Dict[str, object]]:
    return {
        chips: result.by_protocol(SCALING_PROTOCOLS, label=str(chips))
        for chips in chip_counts
    }


def _render_mesh_scaling(result: ExperimentResult, chip_counts: List[int],
                         title: str) -> List[ResultTable]:
    tables = []
    grid = mesh_scaling_grid(result, chip_counts)
    for chips in chip_counts:
        res = grid[chips]
        base = res["DirectoryCMP"]
        table = ResultTable(
            f"{title} - {chips} CMPs (mesh)",
            ["protocol", "runtime(us)", "inter KB", "inter vs dir",
             "persistent", "req fan-out/miss"],
        )
        for proto in SCALING_PROTOCOLS:
            r = res[proto]
            inter = r.scope_bytes(Scope.INTER)
            table.add(
                proto,
                f"{r.runtime_ns / 1000:.1f}",
                f"{inter / 1024:.0f}",
                f"{inter / base.scope_bytes(Scope.INTER):.2f}",
                r.get("persistent.requests"),
                f"{request_fanout_per_miss(r):.2f}",
            )
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# Time-resolved saturation on the big mesh sweep: the same cells as
# scaling-big, with telemetry sampling on — *which* links saturate, and
# *when*, as non-multicast TokenCMP crosses over at 16 CMPs.
# ---------------------------------------------------------------------------

TELEMETRY_SAMPLE_EVERY = 4096


def _scaling_telemetry_spec(scale: float = 1.0, seed: int = 1
                            ) -> ExperimentSpec:
    from repro.obs.telemetry import TelemetryConfig

    return _mesh_scaling_spec(
        "scaling-telemetry", BIG_CHIP_COUNTS, BIG_PROCS_PER_CHIP,
        scaled(BIG_SCALING_REFS, scale), seed,
        TelemetryConfig(sample_every_events=TELEMETRY_SAMPLE_EVERY),
    )


def saturation_summary(doc: dict) -> Dict[str, object]:
    """Window counts by kind plus the earliest-starting window."""
    by_kind: Dict[str, int] = {}
    first = None
    for window in doc["saturation"]:
        by_kind[window["kind"]] = by_kind.get(window["kind"], 0) + 1
        if first is None or window["start_ps"] < first["start_ps"]:
            first = window
    return {"by_kind": by_kind, "first": first}


def _render_scaling_telemetry(result: ExperimentResult) -> List[ResultTable]:
    tables = []
    grid = mesh_scaling_grid(result, BIG_CHIP_COUNTS)
    for chips in BIG_CHIP_COUNTS:
        table = ResultTable(
            f"Saturation windows - {chips} CMPs (mesh, sampled every "
            f"{TELEMETRY_SAMPLE_EVERY} events)",
            ["protocol", "samples", "windows", "util", "backlog", "ptable",
             "first saturated"],
        )
        for proto in SCALING_PROTOCOLS:
            doc = grid[chips][proto].telemetry
            summary = saturation_summary(doc)
            kinds = summary["by_kind"]
            first = summary["first"]
            table.add(
                proto,
                len(doc["t_ps"]),
                len(doc["saturation"]),
                kinds.get("link-utilization", 0),
                kinds.get("backlog-growth", 0),
                kinds.get("ptable-near-full", 0),
                f"{first['subject']} @ {first['start_ps'] / 1e6:.1f} us"
                if first else "-",
            )
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# Robustness (Sections 3 & 7): the contention benchmarks under an
# adversarial interconnect, with the liveness watchdog and the continuous
# token-conservation monitor armed.  Every cell must complete (run_cell
# raises on starvation, deadlock or a conservation violation), and the
# renderer checks the watchdog trips and the bounded slowdown.
# ---------------------------------------------------------------------------

ROBUSTNESS_RATES = (0.0, 0.05, 0.10, 0.20)
ROBUSTNESS_PROTOCOLS = ("TokenCMP-arb0", "TokenCMP-dst0", "TokenCMP-dst1")
ROBUSTNESS_CHECK_EVERY = 2048
MAX_SLOWDOWN = 50.0  # bounded-slowdown assertion, vs the fault-free run
FAULT_COUNTERS = (
    "faults.dropped", "faults.duplicated", "faults.reordered",
    "faults.delayed", "faults.suppressed",
)


class RobustnessFailure(ReproError):
    """A robustness run broke the slowdown bound or tripped the watchdog."""


def robustness_spec(scale: float = 1.0, seed: int = 1,
                    rates: Sequence[float] = ROBUSTNESS_RATES
                    ) -> ExperimentSpec:
    """The fault sweep: workload x protocol x fault rate on 2x2 chips.

    The first rate is the baseline each protocol's slowdown is measured
    against.  A rate outside [0, 1] raises ``ValueError``.
    """
    from repro.faults.injector import FaultConfig

    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    workloads = (
        ("locking", {"num_locks": 4, "acquires_per_proc": scaled(8, scale)}),
        ("barrier", {"phases": scaled(6, scale)}),
    )
    return ExperimentSpec("robustness", tuple(
        Cell(
            protocol=proto, workload=workload, workload_kwargs=kwargs,
            seed=seed, params=params, max_events=40_000_000,
            faults=FaultConfig.adversarial(rate),
            watchdog_budget_ns=100_000.0,
            watchdog_check_every=ROBUSTNESS_CHECK_EVERY,
            invariant_check_every=ROBUSTNESS_CHECK_EVERY,
            check_invariants=True, label=str(rate),
        )
        for workload, kwargs in workloads
        for proto in ROBUSTNESS_PROTOCOLS
        for rate in rates
    ))


def _render_robustness(result: ExperimentResult) -> List[ResultTable]:
    cells = result.spec.cells
    protocols = list(dict.fromkeys(c.protocol_name for c in cells))
    rates = list(dict.fromkeys(c.label for c in cells))
    slowdown = {}  # (workload, protocol, rate) -> runtime / first-rate runtime
    for cell, res in zip(cells, result):
        base = result.cell(protocol=cell.protocol_name,
                           workload=cell.workload_name, label=rates[0])
        ratio = res.runtime_ps / base.runtime_ps if base.runtime_ps else 1.0
        if ratio > MAX_SLOWDOWN:
            raise RobustnessFailure(
                f"{cell.workload_name}/{cell.protocol_name} at fault rate "
                f"{cell.label}: slowdown {ratio:.1f}x exceeds the "
                f"{MAX_SLOWDOWN:.0f}x bound"
            )
        slowdown[(cell.workload_name, cell.protocol_name, cell.label)] = ratio
    trips = sum(res.get("watchdog.trips") for res in result)
    if trips:
        raise RobustnessFailure(f"the liveness watchdog tripped {trips} times")

    tables = []
    for workload in dict.fromkeys(c.workload_name for c in cells):
        table = ResultTable(
            f"{workload} under fault injection: runtime normalized to the "
            "fault-free run of each protocol",
            ["fault rate"] + protocols,
        )
        for rate in rates:
            table.add(f"{float(rate):.0%}", *(
                f"{slowdown[(workload, p, rate)]:.2f}" for p in protocols
            ))
        tables.append(table)
    table = ResultTable(
        "Injected fault events (summed over workloads and protocols)",
        ["fault rate"] + [c.split(".", 1)[1] for c in FAULT_COUNTERS],
    )
    for rate in rates:
        table.add(f"{float(rate):.0%}", *(
            sum(res.get(counter) for res in result.select(label=rate))
            for counter in FAULT_COUNTERS
        ))
    tables.append(table)
    # A conservation violation or a starved thread raises out of the
    # run, so every recorded cell completed with zero violations.
    table = ResultTable(
        "Correctness substrate under the adversary",
        ["runs", "completed", "conservation checks", "violations",
         "watchdog trips", "spurious deactivates absorbed"],
    )
    table.add(
        len(cells), len(result),
        sum(res.get("invariant.checks") + 1 for res in result), 0, trips,
        sum(res.get("arb.spurious_deactivates") for res in result),
    )
    tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Experiment:
    """A named, reproducible experiment: spec builder + table renderer."""

    id: str
    title: str
    build: Callable[..., ExperimentSpec]  # (scale=1.0, seed=1)
    render: Callable[[ExperimentResult], List[ResultTable]]


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp
    for exp in (
        Experiment(
            "fig2", "Figure 2: locking, persistent requests only",
            lambda scale=1.0, seed=1: _locking_spec(
                "fig2", FIG2_PROTOCOLS, scale, seed),
            lambda r: _render_locking(
                r, FIG2_PROTOCOLS,
                "Figure 2 - locking micro-benchmark, persistent requests only "
                "(runtime normalized to DirectoryCMP @ 512 locks; smaller is "
                "better)",
            ),
        ),
        Experiment(
            "fig3", "Figure 3: locking, transient + persistent requests",
            lambda scale=1.0, seed=1: _locking_spec(
                "fig3", FIG3_PROTOCOLS, scale, seed),
            lambda r: _render_locking(
                r, FIG3_PROTOCOLS,
                "Figure 3 - locking micro-benchmark, transient + persistent "
                "requests (runtime normalized to DirectoryCMP @ 512 locks; "
                "smaller is better)",
            ),
        ),
        Experiment(
            "table4", "Table 4: barrier micro-benchmark",
            _table4_spec, _render_table4,
        ),
        Experiment(
            "fig6", "Figure 6: commercial workload runtime",
            lambda scale=1.0, seed=1: _commercial_spec(
                "fig6", FIG6_PROTOCOLS, scale, seed),
            _render_fig6,
        ),
        Experiment(
            "fig7", "Figures 7a/7b: commercial workload traffic",
            lambda scale=1.0, seed=1: _commercial_spec(
                "fig7", FIG7_PROTOCOLS, scale, seed),
            _render_fig7,
        ),
        Experiment(
            "handoff", "Sharing-miss hand-off latency (ping-pong)",
            _handoff_spec, _render_handoff,
        ),
        Experiment(
            "scaling", "CMP-count scaling of inter-CMP traffic (Section 8)",
            _scaling_spec, _render_scaling,
        ),
        Experiment(
            "scaling-big",
            "8/16-CMP mesh scaling: runtime, traffic, fan-out (ROADMAP)",
            _scaling_big_spec,
            lambda r: _render_mesh_scaling(
                r, BIG_CHIP_COUNTS,
                "Big-topology scaling - TokenCMP vs DirectoryCMP",
            ),
        ),
        Experiment(
            "scaling-smoke",
            "small 8-CMP mesh sweep (CI determinism gate)",
            _scaling_smoke_spec,
            lambda r: _render_mesh_scaling(
                r, [SMOKE_CHIPS], "Mesh scaling smoke (CI determinism gate)",
            ),
        ),
        Experiment(
            "scaling-telemetry",
            "8/16-CMP mesh sweep with time-series telemetry (saturation)",
            _scaling_telemetry_spec, _render_scaling_telemetry,
        ),
        Experiment(
            "robustness",
            "fault sweep: completion, conservation, bounded slowdown",
            robustness_spec, _render_robustness,
        ),
    )
}


# ---------------------------------------------------------------------------
# ``python -m repro report``: the paper's grids plus the model checks.
# ---------------------------------------------------------------------------

REPORT_EXPERIMENTS = ("fig2", "fig3", "table4", "fig6", "fig7", "handoff")


def render_report(runner: Runner, scale: float = 1.0, seed: int = 1) -> str:
    """The ``python -m repro report`` markdown: one block per report
    experiment (at the defaults, the bytes of its ``benchmarks/results``
    file), then the ``verify --fast`` model checks.  No wall-clock
    content, so two runs are byte-identical."""
    from repro.verification import verify_models
    from repro.verification.checker import check

    blocks = []
    for exp_id in REPORT_EXPERIMENTS:
        exp = EXPERIMENTS[exp_id]
        blocks.append((exp.title, exp.render(runner.run(exp.build(scale, seed)))))
    models = ResultTable(
        "Model checking (Section 5, the verify --fast configurations)",
        ["model", "states", "transitions", "result"],
    )
    for model, liveness in verify_models(fast=True):
        result = check(model, check_liveness=liveness)
        models.add(model.name, result.states, result.transitions, "verified")
    blocks.append(("Section 5: model checking", [models]))
    parts = [
        "# TokenCMP reproduction report",
        "",
        f"Machine: the paper's 4 CMPs x 4 processors (seed {seed}, "
        f"scale {scale}).  Normalized numbers; see EXPERIMENTS.md for the "
        "paper-vs-measured discussion.",
    ]
    for title, tables in blocks:
        parts += ["", f"## {title}", "", "```", render_text(tables) + "```"]
    return "\n".join(parts) + "\n"
