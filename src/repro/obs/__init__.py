"""Observability layer: structured tracing, spans, metrics, profiling.

``repro.obs`` is the debugging substrate threaded through the kernel, the
interconnect, the coherence controllers and the experiment engine:

* :mod:`repro.obs.trace` — the structured trace bus.  A
  :class:`~repro.obs.trace.Tracer` attached to a simulator collects typed
  events (message send/recv, token movement, transaction lifecycle,
  persistent-request activity, directory transitions, injected faults).
  With no tracer attached (the default) every instrumentation site is a
  single ``is None`` check — tracing is zero-cost when off and changes
  nothing about the simulation when on.

* :mod:`repro.obs.spans` — stitches ``tx.*`` trace events into per-miss
  lifecycle spans (issue → intra-CMP broadcast → escalation → data/token
  arrival → completion) with p50/p95/p99 breakdowns by segment and
  category (intra-CMP hit, inter-CMP escalation, persistent completion).

* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (loadable in
  Perfetto / ``chrome://tracing``) plus a lightweight schema validator.

* :mod:`repro.obs.metrics` — the canonical metrics-JSON schema every
  :class:`~repro.exp.result.CellResult` can render to, so cached
  experiment cells carry their metrics.

* :mod:`repro.obs.profile` — a wall-clock kernel profiler (per-callback
  time, fired-event histograms) that observes dispatch by swapping the
  kernel's ``heappop`` and samples the rate on its watcher hook.

* :mod:`repro.obs.telemetry` — time-series telemetry: a sampler on the
  kernel watcher hook snapshots link/controller/recovery gauges into
  ring-buffered series (``repro.telemetry/1``) and a saturation detector
  flags sustained hot windows.

* :mod:`repro.obs.diff` — cross-run comparison of canonical JSON
  documents (metrics, telemetry, profiles) with per-counter deltas and
  ``GLOB:PCT`` regression gates (``python -m repro diff``).

See ``docs/observability.md`` for the trace schema and a Perfetto how-to.
"""

from repro.obs.diff import DIFF_SCHEMA, diff_report, render_diff_report
from repro.obs.export import chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.obs.metrics import METRICS_SCHEMA, cell_metrics, validate_metrics
from repro.obs.profile import KernelProfiler
from repro.obs.spans import Span, SpanBuilder, SpanReport
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    TelemetryConfig,
    TelemetrySampler,
    saturation_windows,
    validate_telemetry,
)
from repro.obs.trace import KINDS, TraceEvent, Tracer

__all__ = [
    "Tracer",
    "TraceEvent",
    "KINDS",
    "Span",
    "SpanBuilder",
    "SpanReport",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "METRICS_SCHEMA",
    "cell_metrics",
    "validate_metrics",
    "KernelProfiler",
    "TELEMETRY_SCHEMA",
    "TelemetryConfig",
    "TelemetrySampler",
    "saturation_windows",
    "validate_telemetry",
    "DIFF_SCHEMA",
    "diff_report",
    "render_diff_report",
]
