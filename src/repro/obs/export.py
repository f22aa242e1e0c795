"""Trace exporters: Chrome ``trace_event`` JSON and its validator.

:func:`chrome_trace` renders a tracer's event list (plus, optionally, the
spans stitched from it) into the Chrome Trace Event Format — the JSON
dialect Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
directly.  Layout:

* one *process* per chip (pid = chip + 1; pid 0 is the kernel/global
  track), one *thread* per coherence endpoint, named via ``M`` metadata
  events;
* every trace event becomes an instant (``"ph": "i"``) event carrying its
  payload in ``args``;
* every complete transaction span becomes a duration (``"ph": "X"``)
  event on the requesting node's track, so miss lifecycles appear as
  bars with their milestones attached.

Timestamps are microseconds (the format's unit); simulated picoseconds
divide exactly by 1e6 in binary-float-safe territory for any plausible
run length, and the conversion is deterministic.

:func:`write_chrome_trace` writes canonical JSON — sorted keys, compact
separators, trailing newline — so byte-identical files are a meaningful
determinism check.  :func:`validate_chrome_trace` is the schema gate CI
runs on emitted traces.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.common import dumps
from repro.obs.spans import SpanReport
from repro.obs.trace import KINDS, TraceEvent

#: Schema identifier embedded in exported traces (bump on layout changes).
TRACE_SCHEMA = "repro.trace/1"

_KERNEL_PID = 0


def _ts_us(ts_ps: int) -> float:
    return ts_ps / 1e6


def _tracks(events: Iterable[TraceEvent]):
    """Deterministic (pid, tid) assignment: first-appearance order."""
    tids: Dict[Optional[object], Tuple[int, int]] = {}
    meta: List[dict] = []
    chips_seen = set()

    def track(node) -> Tuple[int, int]:
        if node in tids:
            return tids[node]
        pid = _KERNEL_PID if node is None else node.chip + 1
        if pid not in chips_seen:
            chips_seen.add(pid)
            meta.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "name": "kernel" if pid == _KERNEL_PID else f"chip {pid - 1}"
                    },
                }
            )
        tid = sum(1 for (p, _t) in tids.values() if p == pid)
        tids[node] = (pid, tid)
        meta.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": "kernel" if node is None else str(node)},
            }
        )
        return pid, tid

    return track, meta


def chrome_trace(
    events: List[TraceEvent], spans: Optional[SpanReport] = None
) -> dict:
    """Render events (and optional spans) as a Chrome trace document.

    ``spans`` accepts a :class:`SpanReport` or a bare list of
    :class:`~repro.obs.spans.Span` objects.
    """
    if isinstance(spans, SpanReport):
        spans = spans.spans
    track, meta = _tracks(events)
    records: List[dict] = []
    for ev in events:
        pid, tid = track(ev.node)
        args = dict(ev.fields)
        if ev.addr is not None:
            args["addr"] = f"{ev.addr:#x}"
        records.append(
            {
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "name": ev.kind,
                "cat": ev.kind.split(".", 1)[0],
                "ts": _ts_us(ev.ts_ps),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    if spans is not None:
        for span in spans:
            pid, tid = track(span.node)
            records.append(
                {
                    "ph": "X",
                    "name": f"miss {span.category}",
                    "cat": "span",
                    "ts": _ts_us(span.start_ps),
                    "dur": _ts_us(span.latency_ps),
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "addr": f"{span.addr:#x}",
                        "write": span.write,
                        "retries": span.retries,
                        "source": span.source,
                        "milestones_ps": dict(span.milestones),
                    },
                }
            )
    return {
        "schema": TRACE_SCHEMA,
        "displayTimeUnit": "ns",
        "traceEvents": meta + records,
    }


def write_chrome_trace(
    path: str, events: List[TraceEvent], spans: Optional[SpanReport] = None
) -> dict:
    """Write the canonical-JSON Chrome trace for ``events`` to ``path``."""
    doc = chrome_trace(events, spans)
    with open(path, "w") as fh:
        fh.write(dumps(doc))
    return doc


# ----------------------------------------------------------------------
# Schema validation (the CI gate for emitted traces).
# ----------------------------------------------------------------------
_PHASES = {"M", "i", "X"}


def validate_chrome_trace(doc: dict) -> int:
    """Validate an exported trace document; return the event count.

    Raises :class:`ValueError` describing the first problem found.  The
    checks cover everything Perfetto needs to load the file plus this
    repository's own conventions (schema tag, known event kinds,
    non-negative monotone-safe timestamps).
    """

    def fail(why: str):
        raise ValueError(f"invalid chrome trace: {why}")

    if not isinstance(doc, dict):
        fail("document is not an object")
    if doc.get("schema") != TRACE_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {TRACE_SCHEMA!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents is not a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in _PHASES:
            fail(f"event {i} has unknown phase {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in ev:
                fail(f"event {i} ({ph}) lacks {key!r}")
        if not isinstance(ev.get("args", {}), dict):
            fail(f"event {i} args is not an object")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"event {i} has bad ts {ts!r}")
        if ph == "i" and ev["name"] not in KINDS:
            fail(f"event {i} has unknown kind {ev['name']!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"event {i} has bad dur {dur!r}")
    return len(events)
