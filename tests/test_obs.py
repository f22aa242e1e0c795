"""Tests for the observability layer (repro.obs).

The load-bearing contracts:

* tracing never changes simulation results (on/off identical stats);
* traces are deterministic (two runs render byte-identical JSON);
* spans classify into the paper's three lifecycle shapes and report
  per-segment percentiles;
* exported traces pass the schema validator (and bad ones do not).
"""

import json
import os

import pytest

from repro.common.params import SystemParams
from repro.common.types import NodeId, NodeKind
from repro.exp.spec import Cell
from repro.exp.runner import run_cell
from repro.obs import (
    KernelProfiler,
    Span,
    SpanBuilder,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import METRICS_SCHEMA, validate_metrics
from repro.obs.trace import KINDS, TraceEvent


def _locking_cell(protocol="TokenCMP-dst1", seed=7, faults=None):
    params = SystemParams(num_chips=2, procs_per_chip=2)
    return Cell(
        protocol=protocol,
        workload="locking",
        seed=seed,
        params=params,
        faults=faults,
        workload_kwargs={"acquires_per_proc": 10, "num_locks": 2},
    )


@pytest.fixture(scope="module")
def traced_run():
    """One untraced + one traced run of the same contended-locking cell."""
    cell = _locking_cell()
    plain = run_cell(cell)
    tracer = Tracer()
    traced = run_cell(cell, tracer=tracer)
    return plain, traced, tracer


# ---------------------------------------------------------------------------
# The two core contracts: non-perturbation and determinism.
# ---------------------------------------------------------------------------
def test_tracing_does_not_change_results(traced_run):
    plain, traced, tracer = traced_run
    assert len(tracer.events) > 0
    assert plain.to_json() == traced.to_json()


def test_traces_are_byte_identical_across_runs(traced_run):
    _plain, _traced, tracer = traced_run
    tracer2 = Tracer()
    run_cell(_locking_cell(), tracer=tracer2)
    doc1 = chrome_trace(tracer.events, SpanBuilder().build(tracer.events))
    doc2 = chrome_trace(tracer2.events, SpanBuilder().build(tracer2.events))
    blob1 = json.dumps(doc1, sort_keys=True, separators=(",", ":"))
    blob2 = json.dumps(doc2, sort_keys=True, separators=(",", ":"))
    assert blob1 == blob2


def test_all_event_kinds_are_registered(traced_run):
    _plain, _traced, tracer = traced_run
    assert {ev.kind for ev in tracer.events} <= KINDS


# ---------------------------------------------------------------------------
# Span stitching on a real contended run.
# ---------------------------------------------------------------------------
def test_spans_cover_all_three_lifecycle_shapes(traced_run):
    _plain, traced, tracer = traced_run
    report = SpanBuilder().build(tracer.events)
    assert not report.open_spans  # quiesced run: every miss completed
    by_cat = report.by_category()
    assert by_cat["intra-hit"], "expected some intra-CMP hits"
    assert by_cat["escalated"], "expected inter-CMP escalations"
    assert by_cat["persistent"], "expected persistent-request completions"
    assert len(report.spans) == traced.get("l1.misses")


def test_span_segment_summaries_report_percentiles(traced_run):
    _plain, _traced, tracer = traced_run
    report = SpanBuilder().build(tracer.events)
    summaries = report.segment_summaries()
    for category in ("persistent", "escalated", "intra-hit"):
        streams = summaries[category]
        total = streams["total"]
        assert total.count > 0
        assert total.percentile(50) <= total.percentile(95) <= total.percentile(99)
    # Persistent spans went through the escalation milestone.
    assert any("escalate" in k for k in summaries["persistent"])
    rendered = report.render()
    assert "persistent" in rendered and "p95" in rendered


def test_span_builder_synthetic_lifecycle():
    node = NodeId(NodeKind.L1D, 0, 0)
    other = NodeId(NodeKind.L1D, 1, 0)
    events = [
        TraceEvent(100, "tx.issue", node, 64, {"write": True}),
        TraceEvent(110, "tx.transient", node, 64, {}),
        TraceEvent(150, "tx.retry", node, 64, {"retries": 1}),
        TraceEvent(200, "tx.escalate", node, 64, {"via": "l2"}),
        TraceEvent(400, "tx.data", node, 64, {"source": "mem"}),
        TraceEvent(450, "tx.complete", node, 64, {"source": "mem"}),
        # Orphan: completion for a transaction never issued.
        TraceEvent(500, "tx.complete", other, 128, {}),
        # Open: issued but never completed.
        TraceEvent(600, "tx.issue", other, 64, {"write": False}),
    ]
    report = SpanBuilder().build(events)
    assert report.orphan_events == 1
    assert len(report.open_spans) == 1
    (span,) = report.spans
    assert span.category == "escalated"
    assert span.write and span.retries == 1
    assert span.latency_ps == 350
    assert span.source == "mem"
    assert span.segments() == [
        ("issue->transient", 10),
        ("transient->escalate", 90),
        ("escalate->data", 200),
        ("data->complete", 50),
    ]


def test_span_category_precedence():
    base = dict(node=None, addr=0, start_ps=0)
    assert Span(milestones={"issue": 0}, **base).category == "intra-hit"
    assert Span(milestones={"issue": 0, "escalate": 1}, **base).category == "escalated"
    assert (
        Span(milestones={"issue": 0, "escalate": 1, "persistent": 2}, **base).category
        == "persistent"
    )


# ---------------------------------------------------------------------------
# Chrome trace export + validation.
# ---------------------------------------------------------------------------
def test_chrome_trace_validates_and_has_expected_shape(traced_run):
    _plain, _traced, tracer = traced_run
    report = SpanBuilder().build(tracer.events)
    doc = chrome_trace(tracer.events, report)
    count = validate_chrome_trace(doc)
    phases = {ev["ph"] for ev in doc["traceEvents"]}
    assert phases == {"M", "i", "X"}
    assert count == len(doc["traceEvents"])
    spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    assert len(spans) == len(report.spans)
    names = {ev["name"] for ev in spans}
    assert "miss persistent" in names and "miss escalated" in names


def test_validate_chrome_trace_rejects_bad_documents(traced_run):
    _plain, _traced, tracer = traced_run
    good = chrome_trace(tracer.events[:20])
    with pytest.raises(ValueError, match="schema"):
        validate_chrome_trace({**good, "schema": "nope"})
    bad_phase = json.loads(json.dumps(good))
    bad_phase["traceEvents"][-1]["ph"] = "Z"
    with pytest.raises(ValueError, match="phase"):
        validate_chrome_trace(bad_phase)
    bad_ts = json.loads(json.dumps(good))
    for ev in bad_ts["traceEvents"]:
        if ev["ph"] == "i":
            ev["ts"] = -1.0
            break
    with pytest.raises(ValueError, match="bad ts"):
        validate_chrome_trace(bad_ts)
    bad_kind = json.loads(json.dumps(good))
    for ev in bad_kind["traceEvents"]:
        if ev["ph"] == "i":
            ev["name"] = "not.a.kind"
            break
    with pytest.raises(ValueError, match="unknown kind"):
        validate_chrome_trace(bad_kind)


def test_write_chrome_trace_is_canonical(tmp_path, traced_run):
    _plain, _traced, tracer = traced_run
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    write_chrome_trace(str(path1), tracer.events)
    write_chrome_trace(str(path2), tracer.events)
    assert path1.read_bytes() == path2.read_bytes()
    validate_chrome_trace(json.loads(path1.read_text()))


# ---------------------------------------------------------------------------
# Scheme coverage: arbiter activation, directory transitions, fault events.
# ---------------------------------------------------------------------------
def test_arbiter_scheme_emits_arb_activations():
    tracer = Tracer()
    run_cell(_locking_cell(protocol="TokenCMP-arb0"), tracer=tracer)
    activates = [ev for ev in tracer.events if ev.kind == "persist.activate"]
    assert activates and all(ev.fields["scheme"] == "arb" for ev in activates)
    deactivates = [ev for ev in tracer.events if ev.kind == "persist.deactivate"]
    assert deactivates


def test_directory_protocol_emits_transitions():
    tracer = Tracer()
    run_cell(_locking_cell(protocol="DirectoryCMP"), tracer=tracer)
    transitions = [ev for ev in tracer.events if ev.kind == "dir.transition"]
    assert transitions
    for ev in transitions:
        assert ev.fields["old"] != ev.fields["new"]


def test_fault_injection_emits_fault_events():
    from repro.faults.injector import FaultConfig

    tracer = Tracer()
    run_cell(
        _locking_cell(faults=FaultConfig.adversarial(0.2)), tracer=tracer
    )
    actions = {ev.kind for ev in tracer.events if ev.kind.startswith("fault.")}
    assert "fault.drop" in actions
    assert actions & {"fault.delay", "fault.reorder", "fault.duplicate"}


# ---------------------------------------------------------------------------
# Profiler.
# ---------------------------------------------------------------------------
def test_profiler_attributes_wall_time_to_sites():
    profiler = KernelProfiler(rate_every_events=128)
    run_cell(_locking_cell(), profiler=profiler)
    assert profiler.events_profiled > 0
    assert profiler.total_wall_ns > 0
    sites = dict((site, count) for site, count, _t, _m in profiler.top_sites())
    assert any("TokenCacheController" in site for site in sites)
    report = profiler.report(top=3)
    assert "kernel profile" in report and "events/s" in report


def test_profiler_does_not_change_results(traced_run):
    plain, _traced, _tracer = traced_run
    profiled = run_cell(_locking_cell(), profiler=KernelProfiler())
    assert profiled.to_json() == plain.to_json()


def test_profiler_detaches_when_the_cell_deadlocks():
    import dataclasses
    import heapq

    from repro.common.errors import DeadlockError
    from repro.sim import kernel

    cell = dataclasses.replace(_locking_cell(), max_events=50)
    with pytest.raises(DeadlockError):
        run_cell(cell, profiler=KernelProfiler())
    assert kernel.heappop is heapq.heappop


def test_profiler_ignores_pops_from_another_simulator():
    from repro.sim.kernel import Simulator

    watched, other = Simulator(), Simulator()
    for sim in (watched, other):
        for delay in (1, 2, 3):
            sim.schedule(delay, lambda: None)
    profiler = KernelProfiler().attach(watched)
    try:
        other.run()
        assert profiler.events_profiled == 0
        watched.run()
    finally:
        profiler.detach()
    assert profiler.events_profiled == watched.events_fired == 3


def test_detach_removes_the_rate_watcher():
    from repro.sim.kernel import Simulator

    sim = Simulator()
    for delay in range(1, 11):
        sim.schedule(delay, lambda: None)
    profiler = KernelProfiler(rate_every_events=4).attach(sim)
    try:
        sim.run()
    finally:
        profiler.detach()
    rates = list(profiler._rates)
    assert len(rates) == 3  # attach, then counts 4 and 8
    for delay in range(1, 11):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert profiler._rates == rates
    assert sim._watchers == []
    with pytest.raises(ValueError):
        sim.remove_watcher(profiler._rate_tick)


# ---------------------------------------------------------------------------
# Metrics documents.
# ---------------------------------------------------------------------------
def test_cell_metrics_validates_and_roundtrips(traced_run):
    plain, _traced, _tracer = traced_run
    doc = plain.metrics()
    validate_metrics(doc)
    assert doc["schema"] == METRICS_SCHEMA
    assert doc["counters"] == plain.counters
    assert "l1.miss_latency_ps" in doc["summaries"]
    # A result parsed back from canonical JSON renders the same document.
    from repro.exp.result import CellResult

    reparsed = CellResult.from_json(plain.to_json())
    assert reparsed.metrics() == doc


def test_validate_metrics_rejects_bad_documents(traced_run):
    plain, _traced, _tracer = traced_run
    doc = plain.metrics()
    with pytest.raises(ValueError, match="schema"):
        validate_metrics({**doc, "schema": "bogus"})
    with pytest.raises(ValueError, match="runtime_ps"):
        validate_metrics({**doc, "runtime_ps": "soon"})
    broken = json.loads(json.dumps(doc))
    broken["summaries"]["l1.miss_latency_ps"].pop("p95")
    with pytest.raises(ValueError, match="p95"):
        validate_metrics(broken)


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------
def test_cli_trace_writes_valid_deterministic_file(tmp_path, capsys):
    from repro.__main__ import main

    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    argv = [
        "trace", "TokenCMP-dst1", "locking",
        "--chips", "2", "--procs", "2", "--ops", "5", "--locks", "2",
        "--spans", "--profile", "--validate",
    ]
    assert main(argv + ["--trace-out", str(out1)]) == 0
    stdout = capsys.readouterr().out
    assert "validated" in stdout
    assert "transaction spans" in stdout
    assert "kernel profile" in stdout
    assert main(argv + ["--trace-out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    validate_chrome_trace(json.loads(out1.read_text()))


# ---------------------------------------------------------------------------
# Trace-kind registry is closed: every emitted kind is registered, every
# registered kind has an emitter, and the exporter renders all of them.
# ---------------------------------------------------------------------------
def _emitted_kind_literals():
    """Every string literal passed to ``.emit("...")`` anywhere in src."""
    import re

    src_root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    kinds = set()
    for dirpath, _dirs, files in sorted(os.walk(src_root)):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            with open(os.path.join(dirpath, fname)) as fh:
                text = fh.read()
            kinds.update(re.findall(r'\.emit\(\s*"([a-z._]+)"', text))
            # The fault helper builds its kind from an action argument
            # (tracer.fault("drop", ...) -> "fault.drop").
            kinds.update(
                f"fault.{action}"
                for action in re.findall(r'\.fault\(\s*"([a-z]+)"', text)
            )
    return kinds


def test_every_emit_site_uses_a_registered_kind():
    emitted = _emitted_kind_literals()
    assert emitted, "expected emit sites in src/repro"
    unregistered = emitted - KINDS
    assert not unregistered, f"emit sites with unregistered kinds: {unregistered}"


def test_every_registered_kind_has_an_emit_site():
    # KINDS must not accrete dead entries: each registered kind is
    # produced somewhere (typed Tracer helper or direct emit).
    orphans = KINDS - _emitted_kind_literals()
    assert not orphans, f"registered kinds with no emitter: {orphans}"


def test_recovery_kinds_are_registered():
    # The kinds added with the recovery subsystem (crash injection and
    # token recreation) are first-class registry members.
    assert {
        "fault.crash", "tx.recreate", "recreate.epoch",
        "recreate.surrender", "recreate.stale", "recreate.done",
    } <= KINDS


def test_chrome_trace_renders_every_kind():
    # Synthetic one-event-per-kind trace: the exporter must type every
    # registered kind (no untyped fall-through) and validate cleanly.
    node = NodeId(NodeKind.L1D, 0, 0)
    events = [
        TraceEvent(ts_ps=1000 * i, kind=kind, node=node, addr=0x40,
                   fields={"i": i})
        for i, kind in enumerate(sorted(KINDS))
    ]
    doc = chrome_trace(events)
    validate_chrome_trace(doc)
    instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
    assert {ev["name"] for ev in instants} == KINDS
    for ev in instants:
        assert ev["cat"] == ev["name"].split(".", 1)[0]


def test_crash_run_traces_full_recovery_lifecycle():
    from repro.faults.crash import CrashSpec

    tracer = Tracer()
    cell = Cell(
        protocol="TokenCMP-dst1",
        workload="counter",
        seed=3,
        params=SystemParams(num_chips=2, procs_per_chip=2),
        crash=CrashSpec(level="l1", at_ps=500_000),
    )
    result = run_cell(cell, tracer=tracer)
    kinds = {ev.kind for ev in tracer.events}
    assert "fault.crash" in kinds
    assert "tx.recreate" in kinds or "recreate.epoch" in kinds
    assert "recreate.done" in kinds
    # The full trace (recovery kinds included) exports and validates.
    doc = chrome_trace(tracer.events)
    validate_chrome_trace(doc)
    assert result.get("crash.fired") == 1
