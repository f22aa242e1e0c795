"""Host-time benchmark of the TokenCMP simulator and its model checker.

Run from the repository root:

    python3 hostbench/run.py --workload token-oltp-4x4 --seed 1 --seconds 25 --trace 0

It measures set-up in fresh processes, then repeats the workload's job in
this process for ``--seconds`` and checks every job's outputs.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced jobs and reports the per-layer metrics,
writing every traced job's aggregates plus a sample of raw spans to
``.hostbench-out/``.  The metrics' names, units and directions are those
of ``BENCHMARK.json`` at the repository root.  Each metric is printed as a
line, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".hostbench-out"

#: Fresh set-up processes per run, and timed set-ups in each.
SETUP_PROCESSES = 4
SETUP_SAMPLES = 6
#: Set-up times are scaled to a host on which the reference loop takes
#: this long (about its time on a 2-core cloud VM); see ``probe_setup``.
REF_NOMINAL_S = 0.030
#: Jobs a run makes at least, however short ``--seconds`` is.
MIN_JOBS = 3
MIN_TRACED_JOBS = 2

#: Iterations of the reference loop (about 30 ms on a 2-core cloud VM).
REF_ITERATIONS = 20_000

#: Layers with entry points and self time, as named in the per-layer metrics.
SIM_LAYERS = ("sim", "core", "directory", "interconnect", "message", "cpu",
              "memory")
SELF_SHARE_LAYERS = ("sim", "core", "directory", "interconnect")


def metric_specs(kind: str) -> List[dict]:
    """``BENCHMARK.json``'s ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _RefNode:
    __slots__ = ("busy", "count")

    def __init__(self) -> None:
        self.busy = 0
        self.count = 0

    def touch(self, t: int) -> int:
        if t > self.busy:
            self.busy = t
        self.count += 1
        return self.busy


def reference_loop_s() -> float:
    """Host seconds of a fixed pure-Python loop: a probe of host speed.

    The loop does the simulator's kind of work (method calls on slotted
    objects, dict stores, a heap of recycled list records) but runs no
    repository code, so no change to the repository moves it; only the
    host's speed does.  It allocates nothing in its timed part, so no
    garbage-collector pass lands in it.  Job times divided by it spread
    across runs about half as much as raw times (README.md, "Host noise").
    """
    nodes = [_RefNode() for _ in range(4096)]
    index = {}
    heap = [[k, k] for k in range(256)]
    start = perf_counter()
    for i in range(REF_ITERATIONS):
        node = nodes[(i * 2654435761) & 4095]
        t = node.touch(i)
        index[t & 4095] = node
        entry = heappop(heap)
        entry[0] = t ^ 0x5555
        heappush(heap, entry)
    return perf_counter() - start


def probe_setup(name: str, seed: int) -> Dict[str, float]:
    """Set-up times from fresh interpreters, scaled to the nominal host.

    Host speed drifts in episodes of seconds that slow a set-up by up to
    two thirds, so a raw median moves by a third between runs.  Each timed
    set-up is therefore divided by the reference loop's time around it
    (``setup_probe.py``) and multiplied by :data:`REF_NOMINAL_S`: the
    result is host seconds on a host whose loop takes that long.  Returns
    the median over every sample of each part (``setup_s``, ``build_s``,
    ``compile_s``).
    """
    samples = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(SETUP_SAMPLES)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples += json.loads(proc.stdout.splitlines()[-1])
    return {
        part: statistics.median(s[part] / s["ref_s"] for s in samples) * REF_NOMINAL_S
        for part in ("setup_s", "build_s", "compile_s")
    }


def check_repeats(jobs, what: str) -> None:
    """Every job of one seed must reproduce the first finished job's outputs."""
    prints = [job.fingerprint for job in jobs if job.fingerprint]
    for job in jobs:
        if job.fingerprint and job.fingerprint != prints[0]:
            job.failures.append((what, "outputs differ from the run's first job"))


def untraced_run(case, seed: int, seconds: float, pins) -> dict:
    setup = probe_setup(case.name, seed)
    jobs = []
    deadline = perf_counter() + seconds
    while len(jobs) < MIN_JOBS or perf_counter() < deadline:
        jobs.append(case.run(seed, pins, probe=reference_loop_s))
    check_repeats(jobs, case.name)
    metrics = {
        "run_ref": statistics.median(job.run_ref for job in jobs),
        "setup_s": setup["setup_s"],
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"jobs": jobs, "metrics": metrics}


def traced_run(case, seed: int, seconds: float, pins) -> dict:
    setup = probe_setup(case.name, seed)
    plain, traced, summaries = [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_TRACED_JOBS or perf_counter() < deadline:
        plain.append(case.run(seed, pins, probe=reference_loop_s))
        tracer = layers.LayerTracer()
        with tracer.installed(*case.trace_targets()):
            job = case.run(seed, pins, around=tracer.root)
        traced.append(job)
        summary = tracer.job
        if not summary:
            # The job failed before its root span opened (while building
            # the machine, say); that failure is already recorded.
            continue
        job.failures += [(case.name, f"trace: {p}") for p in layers.reconcile(summary)]
        if job.fingerprint != plain[-1].fingerprint:
            job.failures.append((case.name, "traced outputs differ from untraced"))
        if "events_fired" in job.outputs and summary["events"] != job.outputs["events_fired"]:
            job.failures.append((case.name, f"trace saw {summary['events']} events, "
                                 f"the kernel fired {job.outputs['events_fired']}"))
        if summaries and _work(summary) != _work(summaries[0]):
            job.failures.append((case.name, "per-layer calls differ between traced jobs"))
        summaries.append(summary)
    check_repeats(plain + traced, case.name)
    write_trace(case.name, seed, summaries, tracer.job_samples, layers.SPAN_FIELDS)
    metrics = layer_metrics(case, plain, traced, summaries, setup)
    return {"jobs": plain + traced, "metrics": metrics}


def _work(summary: dict) -> tuple:
    """The deterministic part of a traced job's aggregates."""
    return (summary["calls"], summary["heap_pops"], summary["events"],
            summary["fanout_dests"])


def write_trace(name: str, seed: int, summaries, samples, fields) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": seed, "jobs": summaries,
           "span_fields": list(fields), "spans": sorted(samples)}
    with open(OUT_DIR / f"{name}-seed{seed}-trace.json", "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(case, plain, traced, summaries, setup) -> Dict[str, float]:
    """Every per-layer metric; layers a workload does not exercise read 0."""
    out = plain[0].outputs
    run_s = statistics.median(job.run_s for job in plain)
    # With no traced job that reached its root span, the split reads 0.
    summaries = summaries or [layers.LayerTracer().summary(0)]
    first = summaries[0]
    calls = first["calls"]
    layer_calls = first["layer_calls"]
    events = out.get("events_fired", 0)
    misses = out.get("l1_misses", 0)
    refs = getattr(case, "refs", 0)

    def self_s(layer: str) -> float:
        return statistics.median(s["self_ns"].get(layer, 0) for s in summaries) / 1e9

    def share(*names: str) -> float:
        """Share of the job's time less the tracer's own: the program's."""
        return statistics.median(
            _ratio(sum(s["self_ns"].get(n, 0) for n in names),
                   s["root_ns"] - s["self_ns"].get(layers.TRACE_LAYER, 0))
            for s in summaries)

    m: Dict[str, float] = {
        "sim.events": events,
        "sim.events_per_ref": _ratio(events, refs),
        "sim.events_per_s": _ratio(events, run_s),
        "sim.event_news": out.get("event_news", 0),
        # Kernel heap pops per fired event: lazily cancelled entries
        # are popped too, so this counts the kernel's wasted work.
        "sim.calls_per_event": _ratio(first["heap_pops"], events),
    }
    for layer in SIM_LAYERS:
        if layer != "sim":
            m[f"{layer}.calls_per_event"] = _ratio(layer_calls.get(layer, 0), events)
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in SELF_SHARE_LAYERS:
        m[f"{layer}.self_share"] = share(layer)
    persistent = out.get("persistent_requests", 0)
    m["core.transient_success_ratio"] = (
        1 - _ratio(persistent, misses) if out.get("token_family") else 0.0)
    m["core.retries_per_miss"] = _ratio(out.get("retries", 0), misses)
    m["core.persistent_per_miss"] = _ratio(persistent, misses)
    m["directory.forwards_per_miss"] = _ratio(out.get("dir_forwards", 0), misses)
    m["directory.deferred_per_miss"] = _ratio(out.get("dir_deferred", 0), misses)
    messages = calls.get("Network.send", 0) + first["fanout_dests"]
    m["interconnect.link_hops_per_message"] = _ratio(out.get("link_hops", 0), messages)
    m["interconnect.fanout_dests_per_call"] = _ratio(
        first["fanout_dests"], calls.get("Network.send_fanout", 0))
    m["interconnect.max_link_util_permille"] = out.get("max_link_util_permille", 0.0)
    acquires = out.get("pool_acquires", 0)
    m["message.reuse_ratio"] = 1 - _ratio(out.get("pool_news", 0), acquires) if acquires else 0.0
    hits = out.get("l1_hits", 0)
    m["memory.l1_hit_ratio"] = _ratio(hits, hits + misses)
    m["system.build_s"] = setup["build_s"]
    m["workloads.compile_s"] = setup["compile_s"]
    m["verification.states"] = out.get("states", 0)
    m["verification.transitions"] = out.get("transitions", 0)
    m["verification.states_per_s"] = _ratio(out.get("states", 0), run_s)
    for part in ("transitions", "canonicalize", "invariants", "checker"):
        m[f"verification.{part}_self_s"] = self_s(f"verification.{part}")
    m["run_s"] = run_s
    m["bench.ref_s"] = statistics.median(job.ref_s for job in plain)
    m["bench.trace_overhead"] = _ratio(statistics.median(job.run_s for job in traced), run_s)
    m["bench.trace_share"] = statistics.median(
        _ratio(s["self_ns"].get(layers.TRACE_LAYER, 0), s["root_ns"]) for s in summaries)
    m["bench.unattributed_share"] = share(layers.ROOT_LAYER, layers.UNATTRIBUTED)
    m["refs_per_s"] = _ratio(refs, run_s)
    m["sim_runtime_us"] = out.get("runtime_ps", 0) / 1e6
    m["sim_miss_p50_ns"] = out.get("miss_p50_ps", 0) / 1e3
    m["sim_miss_p99_ns"] = out.get("miss_p99_ps", 0) / 1e3
    m["sim_inter_cmp_bytes_per_miss"] = _ratio(out.get("inter_bytes", 0), misses)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"hostbench: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cases

    # The CPUs of a small cloud VM can differ in speed by a third: pin this
    # process, and the set-up probes that inherit its mask, to one CPU so
    # every sample of every run sees the same one.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    case = cases.CASES.get(args.workload)
    if case is None:
        print(f"hostbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(cases.CASES)})", file=sys.stderr)
        return 2
    pins = cases.load_pins()
    if args.trace:
        report = traced_run(case, args.seed, args.seconds, pins)
    else:
        report = untraced_run(case, args.seed, args.seconds, pins)

    jobs = report["jobs"]
    for job in jobs:
        for op, message in job.failures:
            print(f"FAILED {op}: {message}", file=sys.stderr)
    metrics = {}
    for spec in metric_specs("per_layer" if args.trace else "end_to_end"):
        name, unit = spec["name"], spec["unit"]
        value = report["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload} {name} = {value:.6g} {unit} ({spec['better']} is better)")
    failed = sum(job.failed for job in jobs)
    result = {
        "correct": failed == 0,
        "attempted": sum(job.operations for job in jobs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
