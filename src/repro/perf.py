"""Performance benchmark suite: kernel, network, and end-to-end.

The repo's figures are produced by millions of events flowing through
``Simulator._run`` and ``Network.send``; this module gives that hot path
a *perf trajectory* — canonical microbenchmarks whose results are written
to ``BENCH_perf.json`` and checked by CI for regressions.

Five benchmarks cover three layers (kernel, network, end-to-end):

* ``kernel_chain``      — pure event-loop throughput: parallel self-
  rescheduling callback chains, no cancellation, no watchers.
* ``kernel_cancel``     — scheduling churn: every step schedules an extra
  event and cancels it (lazy-deletion path) under an active watcher.
* ``network_send``      — ``Network.send`` throughput on the paper's 4x4
  machine: route-cache lookups, integer link serialization, traffic
  metering and delivery scheduling.
* ``network_send_mesh`` — the same on an 8-CMP graph-routed mesh.
* ``e2e_fig6_smoke``    — one real experiment cell (TokenCMP-dst1 running
  the scaled-down OLTP workload from the Figure 6 smoke test).

Every benchmark reports wall-clock *timing* fields (``wall_s``,
``*_per_sec``) and *deterministic* fields (event counts, byte totals,
metrics hashes).  :func:`deterministic_stats` projects a report onto the
deterministic fields only — two runs of the suite must produce
byte-identical projections, which is what the CI ``perf-smoke`` job
asserts.  :func:`compare` checks timing fields against a committed
baseline with a tolerance.

Run it as ``python -m repro perf`` or ``python benchmarks/bench_perf.py``
(same flags; see :func:`main`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from time import perf_counter
from typing import Dict, List, Optional

SCHEMA = "repro.bench_perf/1"
ALLOC_SCHEMA = "repro.bench_alloc/1"


def machine_fingerprint() -> Dict[str, str]:
    """Identify the host well enough to know when timings are comparable.

    Committed throughput baselines are only meaningful on the machine
    that produced them; :func:`compare` gates the ``*_per_sec`` fields
    only when the current fingerprint matches the baseline's (see
    docs/performance.md).  Deterministic fields are machine-independent
    and always gated.
    """
    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "impl": platform.python_implementation(),
    }

def _cell_label(cell) -> str:
    """``protocol/workload[refs=N,seed=S]``: the pinned cell's identity."""
    return (f"{cell.protocol_name}/{cell.workload_name}"
            f"[refs={cell.kwargs['refs_per_proc']},seed={cell.seed}]")


def _noop() -> None:
    pass


# ----------------------------------------------------------------------
# kernel microbenchmarks
# ----------------------------------------------------------------------

def bench_kernel_chain(n_events: int = 200_000, chains: int = 4,
                       repeats: int = 3) -> Dict[str, object]:
    """Raw event-loop throughput: ``chains`` self-rescheduling callbacks.

    Each chain schedules its own next step, so the heap stays small and
    the measurement isolates pop/dispatch/push cost — the floor every
    simulated machine pays per event.
    """
    from repro.sim.kernel import Simulator

    per_chain = n_events // chains
    best = None
    events = 0
    for _ in range(repeats):
        sim = Simulator()

        def make(sim=sim, per_chain=per_chain):
            remaining = [per_chain]

            def tick() -> None:
                remaining[0] -= 1
                if remaining[0] > 0:
                    sim.schedule(10, tick)

            return tick

        for _c in range(chains):
            sim.schedule(10, make())
        t0 = perf_counter()
        sim.run()
        dt = perf_counter() - t0
        events = sim.events_fired
        best = dt if best is None or dt < best else best
    return {
        "events": events,
        "wall_s": best,
        "events_per_sec": events / best,
    }


def bench_kernel_cancel(n_events: int = 120_000,
                        repeats: int = 3) -> Dict[str, object]:
    """Scheduling churn: every step also schedules-and-cancels an event,
    with a watcher ticking every 256 fired events (threshold path)."""
    from repro.sim.kernel import Simulator

    best = None
    fired = 0
    ticks = 0
    for _ in range(repeats):
        sim = Simulator()
        watcher_ticks = [0]

        def watch(watcher_ticks=watcher_ticks) -> None:
            watcher_ticks[0] += 1

        sim.add_watcher(watch, every_events=256)
        remaining = [n_events]

        def tick(sim=sim, remaining=remaining) -> None:
            sim.schedule(50, _noop).cancel()
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(10, tick)

        sim.schedule(10, tick)
        t0 = perf_counter()
        sim.run()
        dt = perf_counter() - t0
        fired = sim.events_fired
        ticks = watcher_ticks[0]
        best = dt if best is None or dt < best else best
    return {
        "events": fired,
        "watcher_ticks": ticks,
        "wall_s": best,
        "events_per_sec": fired / best,
    }


# ----------------------------------------------------------------------
# network microbenchmark
# ----------------------------------------------------------------------

def bench_network_send(params, n_sends: int,
                       repeats: int = 3) -> Dict[str, object]:
    """``Network.send`` throughput on the machine ``params`` describe.

    A fixed rotation of destinations (local L1s/L2 banks, remote chips,
    memory controllers) exercises intra, inter and memory routes; the
    endpoints are no-ops so only the interconnect layer is measured.
    """
    from repro.common.types import NodeId, NodeKind
    from repro.interconnect.message import Message, MsgType
    from repro.interconnect.network import Network
    from repro.interconnect.traffic import TrafficMeter
    from repro.sim.kernel import Simulator

    best = None
    total_bytes = 0
    total_msgs = 0
    for _ in range(repeats):
        sim = Simulator()
        meter = TrafficMeter()
        net = Network(sim, params, meter)
        nodes = []
        for chip in range(params.num_chips):
            nodes += params.chip_l1s(chip) + params.chip_l2_banks(chip)
        for chip in range(params.num_chips):
            nodes.append(NodeId(NodeKind.MEM, chip))
        for node in nodes:
            net.register(node, _noop_handler)
        src = nodes[0]
        n_nodes = len(nodes)
        msgs = [
            Message(MsgType.TOK_DATA, src, nodes[i % n_nodes], addr=i * 64)
            for i in range(n_sends)
        ]
        t0 = perf_counter()
        for msg in msgs:
            net.send(msg)
        dt = perf_counter() - t0
        total_bytes = sum(meter.bytes.values())
        total_msgs = sum(meter.messages.values())
        best = dt if best is None or dt < best else best
    return {
        "sends": n_sends,
        "link_messages": total_msgs,
        "link_bytes": total_bytes,
        "wall_s": best,
        "sends_per_sec": n_sends / best,
    }


def _noop_handler(_msg) -> None:
    pass


# ----------------------------------------------------------------------
# end-to-end benchmark
# ----------------------------------------------------------------------

def bench_e2e_fig6_smoke(repeats: int = 3) -> Dict[str, object]:
    """One real experiment cell: the Figure 6 smoke configuration.

    Reports the cell's fired-event count, runtime and a SHA-256 over its
    canonical metrics JSON — the same digest the determinism tests pin,
    so *any* behavioural drift in the optimised hot path shows up here.
    """
    from repro.exp.library import fig6_smoke_cell
    from repro.exp.runner import run_cell

    cell = fig6_smoke_cell()
    best = None
    events = 0
    runtime_ps = 0
    digest = ""
    for _ in range(repeats):
        t0 = perf_counter()
        res = run_cell(cell)
        dt = perf_counter() - t0
        events = res.raw.machine.sim.events_fired
        runtime_ps = res.runtime_ps
        blob = json.dumps(res.metrics(), sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        best = dt if best is None or dt < best else best
    return {
        "cell": _cell_label(cell),
        "events": events,
        "runtime_ps": runtime_ps,
        "metrics_sha256": digest,
        "wall_s": best,
        "events_per_sec": events / best,
    }


# ----------------------------------------------------------------------
# allocation accounting
# ----------------------------------------------------------------------

def _saturate_type_freelists() -> None:
    """Fill CPython's per-type freelists to capacity.

    ``sys.getallocatedblocks()`` counts an object sitting on a type
    freelist (list/tuple/dict/float caches) as still allocated, so
    freelist *occupancy* at a snapshot depends on everything the
    interpreter did before the benchmark — CLI imports, a prior test,
    the REPL.  Allocating a burst of each shape (held live together,
    forcing fresh blocks) and dropping it leaves every relevant
    freelist exactly at capacity, making the subsequent window deltas
    independent of interpreter history.
    """
    hoard = []
    for i in range(4096):
        hoard.append([i])
        hoard.append({i: i})
        hoard.append(float(i) + 0.5)
        for width in range(1, 21):
            hoard.append((i,) * width)
    del hoard


def bench_alloc_steady_state(warmup_events: int = 40_000,
                             window_events: int = 10_000,
                             windows: int = 8) -> Dict[str, object]:
    """Steady-state allocation accounting on the fig6 smoke cell.

    Runs the pinned cell's machine in event windows and samples
    ``sys.getallocatedblocks()`` (gc disabled, so the deltas are a pure
    function of the simulation) plus the two freelist "fresh allocation"
    counters — ``Simulator.event_news`` and ``MessagePool.news``.  After
    warmup both counters must stay flat: every event record and every
    coherence message is recycled, which is the zero-allocation claim
    the CI ``alloc-gate`` job pins.

    ``blocks_delta`` per window is *near* zero rather than exactly zero:
    retained measurement state (latency-percentile samples, first-touch
    interning) still grows at a decaying rate, and the exact count
    wobbles by ±1 across processes (id-hashed enum members make some
    set/dict layouts address-dependent), so the raw sawtooth is
    informational.  What the gate pins exactly is ``event_news`` /
    ``pool_news`` (must be all zero) and ``blocks_within_budget``
    (every window delta under :data:`BLOCKS_WINDOW_BUDGET`) — see
    :func:`alloc_report` for the committed projection.
    """
    import gc

    from repro.cpu.thread import ProcThread
    from repro.exp.library import fig6_smoke_cell
    from repro.workloads import make_workload

    cell = fig6_smoke_cell()
    machine = cell.machine.build()
    workload = make_workload(
        cell.workload, cell.params, seed=cell.seed, **cell.kwargs
    )
    sim = machine.sim
    pool = machine.net.pool
    threads = [
        ProcThread(sim, machine.sequencers[p], gen, lambda _t: None)
        for p, gen in enumerate(workload.generators())
    ]
    for thread in threads:
        thread.start()
    sim.run(max_events=warmup_events)

    blocks_delta = [0] * windows
    event_news = [0] * windows
    pool_news = [0] * windows
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _saturate_type_freelists()
        base_blocks = sys.getallocatedblocks()
        base_events = sim.event_news
        base_pool = pool.news
        for i in range(windows):
            sim.run(max_events=window_events)
            blocks = sys.getallocatedblocks()
            blocks_delta[i] = blocks - base_blocks
            base_blocks = blocks
            event_news[i] = sim.event_news - base_events
            base_events = sim.event_news
            pool_news[i] = pool.news - base_pool
            base_pool = pool.news
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    return {
        "cell": _cell_label(cell),
        "warmup_events": warmup_events,
        "window_events": window_events,
        "windows": windows,
        "blocks_delta": blocks_delta,
        "blocks_delta_max_abs": max(abs(d) for d in blocks_delta),
        "blocks_window_budget": BLOCKS_WINDOW_BUDGET,
        "blocks_within_budget":
            max(abs(d) for d in blocks_delta) <= BLOCKS_WINDOW_BUDGET,
        "event_news": event_news,
        "pool_news": pool_news,
        "pool": pool.stats(),
        "pooling_enabled": pool.enabled,
    }


# Retained-growth ceiling per measurement window, in allocator blocks.
# The steady-state sawtooth (latency-percentile sample retention,
# first-touch interning, fan-out plan rows filling to their bound and
# clearing) peaks around 0.45 blocks/event and is bounded, not
# accumulating; a single leaked message or event record per simulated
# event would cost ~4+ blocks/event (~40k/window), so this budget keeps
# ~5x of air while still catching any per-event leak.
BLOCKS_WINDOW_BUDGET = 8192

# The committed projection of a steady-state run: every field here is
# byte-reproducible across processes and machines (counts of *fresh*
# freelist constructions, budget booleans, run geometry) — unlike the
# raw ``blocks_delta`` sawtooth, which wobbles ±1 with address layout.
ALLOC_DETERMINISTIC_FIELDS = (
    "cell",
    "warmup_events",
    "window_events",
    "windows",
    "blocks_window_budget",
    "blocks_within_budget",
    "event_news",
    "pool_news",
    "pooling_enabled",
)


def _python_key() -> str:
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


def alloc_report(full: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
    """The committed-file shape: alloc stats keyed by Python version.

    Only the :data:`ALLOC_DETERMINISTIC_FIELDS` projection is included,
    so two runs of the gate — on any machine — produce byte-identical
    files.  Entries are keyed by Python major.minor because freelist
    and allocator behaviour can shift between interpreter versions.
    """
    if full is None:
        full = bench_alloc_steady_state()
    steady = {k: full[k] for k in ALLOC_DETERMINISTIC_FIELDS}
    return {
        "schema": ALLOC_SCHEMA,
        "python": {_python_key(): {
            "steady_state": steady,
        }},
    }


def compare_alloc(current: Dict[str, object],
                  committed: Dict[str, object]) -> List[str]:
    """Zero-tolerance allocation gate: exact match for this interpreter.

    Returns human-readable failures (empty = gate passes).  A missing
    entry for the running Python version is a failure — regenerate the
    committed file with ``--alloc-out`` on the version the gate runs.
    """
    key = _python_key()
    base = committed.get("python", {}).get(key)
    if base is None:
        return [
            f"BENCH_alloc.json has no entry for Python {key}; regenerate "
            f"with: python -m repro perf --quick --alloc-out BENCH_alloc.json"
        ]
    cur = current["python"][key]
    problems: List[str] = []
    for bench, base_stats in base.items():
        cur_stats = cur.get(bench)
        if cur_stats is None:
            problems.append(f"alloc.{bench}: missing from current run")
            continue
        for field, base_val in base_stats.items():
            cur_val = cur_stats.get(field)
            if cur_val != base_val:
                problems.append(
                    f"alloc.{bench}.{field}: {cur_val!r} != committed "
                    f"{base_val!r} (zero tolerance)"
                )
    return problems


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------

def run_suite(quick: bool = False,
              progress=None) -> Dict[str, object]:
    """Run every benchmark; ``quick`` shrinks sizes for CI smoke runs."""
    from repro.common.params import SystemParams
    from repro.interconnect.topology import Topology

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    repeats = 2 if quick else 3
    note("kernel_chain ...")
    chain = bench_kernel_chain(
        n_events=50_000 if quick else 200_000, repeats=repeats)
    note("kernel_cancel ...")
    cancel = bench_kernel_cancel(
        n_events=30_000 if quick else 120_000, repeats=repeats)
    note("network_send ...")
    send = bench_network_send(
        SystemParams(), n_sends=20_000 if quick else 50_000, repeats=repeats)
    note("network_send_mesh ...")
    send_mesh = bench_network_send(
        SystemParams(num_chips=8, procs_per_chip=2, tokens_per_block=64,
                     topology=Topology.mesh()),
        n_sends=10_000 if quick else 30_000, repeats=repeats)
    note("e2e_fig6_smoke ...")
    e2e = bench_e2e_fig6_smoke(repeats=1 if quick else 3)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "host": machine_fingerprint(),
        "benchmarks": {
            "kernel_chain": chain,
            "kernel_cancel": cancel,
            "network_send": send,
            "network_send_mesh": send_mesh,
            "e2e_fig6_smoke": e2e,
        },
    }


# Deterministic (simulation-derived) fields per benchmark: two runs of the
# suite must agree on these byte-for-byte.  Timing fields are excluded.
DETERMINISTIC_FIELDS = {
    "kernel_chain": ("events",),
    "kernel_cancel": ("events", "watcher_ticks"),
    "network_send": ("sends", "link_messages", "link_bytes"),
    "network_send_mesh": ("sends", "link_messages", "link_bytes"),
    "e2e_fig6_smoke": ("cell", "events", "runtime_ps", "metrics_sha256"),
}


def deterministic_stats(report: Dict[str, object]) -> Dict[str, object]:
    """Project a suite report onto its deterministic fields only."""
    out: Dict[str, Dict[str, object]] = {}
    benchmarks = report["benchmarks"]
    for name, fields in DETERMINISTIC_FIELDS.items():
        if name in benchmarks:
            bench = benchmarks[name]
            out[name] = {f: bench[f] for f in fields if f in bench}
    return {"schema": SCHEMA, "benchmarks": out}


def compare(current: Dict[str, object], baseline: Dict[str, object],
            tolerance: float = 0.30) -> List[str]:
    """Regressions in ``current`` vs ``baseline`` (same-schema reports).

    Every ``*_per_sec`` timing field must be no more than ``tolerance``
    below the baseline value; returns a human-readable list of failures
    (empty = no regression).  Deterministic fields must match exactly —
    for the microbenchmarks only when both reports used the same sizes
    (``quick`` flag), for the end-to-end cell always (its configuration
    never varies with ``quick``).

    Timing fields are gated only when both reports carry a ``host``
    fingerprint and the fingerprints match: wall-clock throughput from a
    different machine (or Python build) is not a regression baseline —
    see docs/performance.md.  Deterministic fields are always gated.
    """
    problems: List[str] = []
    cur_b = current.get("benchmarks", {})
    base_b = baseline.get("benchmarks", {})
    same_sizes = current.get("quick") == baseline.get("quick")
    hosts_known = "host" in current and "host" in baseline
    gate_timing = not hosts_known or current["host"] == baseline["host"]
    for name, base in base_b.items():
        cur = cur_b.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current run")
            continue
        for key, base_val in base.items():
            if not gate_timing or not key.endswith("_per_sec"):
                continue
            cur_val = cur.get(key, 0.0)
            floor = base_val * (1.0 - tolerance)
            if cur_val < floor:
                problems.append(
                    f"{name}.{key}: {cur_val:,.0f} < {floor:,.0f} "
                    f"(baseline {base_val:,.0f} - {tolerance:.0%})"
                )
        if not same_sizes and name != "e2e_fig6_smoke":
            continue
        for field in DETERMINISTIC_FIELDS.get(name, ()):
            if field in base and field in cur and base[field] != cur[field]:
                problems.append(
                    f"{name}.{field}: {cur[field]!r} != baseline "
                    f"{base[field]!r} (determinism)"
                )
    return problems


def attach_reference(report: Dict[str, object],
                     reference: Dict[str, object],
                     note: str = "") -> Dict[str, object]:
    """Embed a pre-optimization reference run and per-benchmark speedups."""
    ref_b = reference.get("benchmarks", {})
    speedup: Dict[str, float] = {}
    for name, cur in report["benchmarks"].items():
        base = ref_b.get(name)
        if not base:
            continue
        for key in cur:
            if key.endswith("_per_sec") and key in base and base[key]:
                speedup[name] = round(cur[key] / base[key], 3)
    report["reference"] = {"note": note, "benchmarks": ref_b}
    report["speedup"] = speedup
    return report


def render(report: Dict[str, object]) -> str:
    """Human-readable table of a suite report."""
    lines = [f"{'benchmark':18s} {'throughput':>16s} {'wall':>9s}  detail"]
    for name, bench in report["benchmarks"].items():
        rate_key = next(k for k in bench if k.endswith("_per_sec"))
        unit = rate_key[:-len("_per_sec")]
        detail = " ".join(
            f"{f}={bench[f]}" for f in DETERMINISTIC_FIELDS.get(name, ())
            if f in bench and f != "cell"
        )
        lines.append(
            f"{name:18s} {bench[rate_key]:>10,.0f} {unit + '/s':<9s}"
            f" {bench['wall_s']:>8.3f}s  {detail}"
        )
    speedup = report.get("speedup")
    if speedup:
        pretty = ", ".join(f"{k} {v:.2f}x" for k, v in speedup.items())
        lines.append(f"speedup vs reference: {pretty}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the full report JSON (BENCH_perf.json)")
    parser.add_argument("--stats-out", default=None, metavar="PATH",
                        help="write only the deterministic stats "
                             "(byte-identical across runs)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a committed BENCH_perf.json; "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed throughput drop vs baseline "
                             "(default 0.30)")
    parser.add_argument("--merge-reference", default=None, metavar="REF",
                        help="embed a reference report (pre-optimization "
                             "run) plus speedups into --out")
    parser.add_argument("--reference-note", default="",
                        help="provenance note stored with --merge-reference")
    parser.add_argument("--alloc-out", default=None, metavar="PATH",
                        help="run the allocation benchmark and write/merge "
                             "its report (BENCH_alloc.json, keyed by Python "
                             "version)")
    parser.add_argument("--alloc-check", default=None, metavar="BASELINE",
                        help="run the allocation benchmark and compare "
                             "exactly (zero tolerance) against a committed "
                             "BENCH_alloc.json; exit 1 on any drift")
    parser.add_argument("--alloc-only", action="store_true",
                        help="skip the timing suite; only run the "
                             "allocation benchmark (with --alloc-out / "
                             "--alloc-check)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_perf",
        description="kernel/network/end-to-end performance suite",
    )
    add_arguments(parser)
    args = parser.parse_args(argv)
    return run_from_args(args)


def _run_alloc_from_args(args: argparse.Namespace) -> int:
    print("... alloc (steady-state allocation accounting)")
    full = bench_alloc_steady_state()
    current = alloc_report(full)
    print(f"alloc: event_news={full['event_news']} "
          f"pool_news={full['pool_news']} "
          f"blocks_delta={full['blocks_delta']} "
          f"(budget {full['blocks_window_budget']}/window, "
          f"within={full['blocks_within_budget']})")
    if args.alloc_out:
        merged = current
        if os.path.exists(args.alloc_out):
            with open(args.alloc_out) as fh:
                merged = json.load(fh)
            # Keep other interpreters' entries; replace only ours.
            merged["schema"] = ALLOC_SCHEMA
            merged.setdefault("python", {}).update(current["python"])
        with open(args.alloc_out, "w") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.alloc_out}")
    if args.alloc_check:
        with open(args.alloc_check) as fh:
            committed = json.load(fh)
        problems = compare_alloc(current, committed)
        if problems:
            for problem in problems:
                print(f"ALLOC REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"allocation accounting identical to {args.alloc_check} "
              f"(Python {_python_key()}, zero tolerance)")
    return 0


def run_from_args(args: argparse.Namespace) -> int:
    if getattr(args, "alloc_only", False):
        return _run_alloc_from_args(args)
    report = run_suite(quick=args.quick,
                       progress=lambda msg: print(f"... {msg}"))
    if args.merge_reference:
        with open(args.merge_reference) as fh:
            reference = json.load(fh)
        attach_reference(report, reference, note=args.reference_note)
    print()
    print(render(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            json.dump(deterministic_stats(report), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.stats_out}")
    rc = 0
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        if "host" in baseline and baseline["host"] != report["host"]:
            print("note: baseline was recorded on a different machine; "
                  "timing is not gated (deterministic fields still are) — "
                  "see docs/performance.md", file=sys.stderr)
        problems = compare(report, baseline, tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.check} "
              f"(tolerance {args.tolerance:.0%})")
    if args.alloc_out or args.alloc_check:
        rc = _run_alloc_from_args(args)
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via bench_perf.py
    sys.exit(main())
