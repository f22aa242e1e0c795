"""Time-series telemetry: sampled gauges and saturation detection.

The trace bus (PR 3) records *every* event and the metrics document
records *end-of-run totals*; nothing in between explains a sustained
contention episode.  :class:`TelemetrySampler` fills that gap: it rides
the kernel's threshold-driven watcher hook (one integer compare per
event while idle — the same zero-cost-when-off contract as the tracer)
and, every ``sample_every_events`` fired events, snapshots a fixed
registry of probes into ring-buffered series keyed by simulated time:

* **interconnect** — per-link cumulative bytes carried, instantaneous
  egress backlog (``busy_until - now``) and, for :class:`BufferedLink`,
  cumulative overflow events;
* **token controllers** — per-level (L1/L2) token-state census (cached
  blocks, tokens held, owner blocks), persistent-table occupancy
  (total and the fullest single table), outstanding-transaction and
  persistent-transaction counts;
* **directory controllers** — L2 directory lines, outstanding external
  transactions, home directory lines;
* **recovery** — in-progress recreations and the ledger's residual
  token deficit;
* **cumulative counters** — retry/backoff and request activity from the
  shared :class:`~repro.common.stats.Stats` counters.

The exported document (:data:`TELEMETRY_SCHEMA`) is canonical JSON:
sorted keys, compact separators, integer gauges, no wall-clock content —
byte-identical across repeats, worker counts and ``PYTHONHASHSEED``
values.  :func:`saturation_windows` scans the collected series for
*sustained* trouble — link utilization above a threshold, monotone
backlog growth, a persistent table near capacity — and reports maximal
windows, which ``run_cell`` surfaces in the cell result and the campaign
engine folds into its verdict records.

Sampling is purely observational: the watcher reads controller state and
never schedules events, draws randomness or mutates anything, so a
sampled run produces byte-identical simulation results to an unsampled
one (enforced by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

#: Schema identifier (bump on layout changes).
TELEMETRY_SCHEMA = "repro.telemetry/1"

#: Cumulative stats counters sampled as ``ctr:<name>`` series (missing
#: counters read 0, so the probe list is identical for every family).
COUNTER_PROBES = (
    "l1.misses",
    "persistent.requests",
    "policy.retries",
    "policy.transient_requests",
    "recovery.escalations",
)

#: Saturation-window kinds (report ordering).
WINDOW_KINDS = ("backlog-growth", "link-utilization", "ptable-near-full")


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """Sampling cadence, ring capacity and saturation thresholds.

    Frozen and JSON-able so it can live inside a :class:`~repro.exp.spec
    .Cell` and participate in content-addressed caching: a cell with
    telemetry enabled is a *different* cell (its result carries the
    telemetry document), so the config is part of the cache key.
    """

    #: Watcher cadence: one sample every N fired kernel events.
    sample_every_events: int = 4096
    #: Ring capacity in rows; the oldest rows are dropped (and counted)
    #: once a run outlives the ring.
    ring_capacity: int = 1024
    #: A link tick is "hot" when its serialization busy time covers at
    #: least this fraction (in permille) of the tick's simulated span.
    util_threshold_permille: int = 750
    #: Minimum consecutive hot/growing/near-full ticks for a window.
    min_window_ticks: int = 8
    #: A persistent table is "near full" when its occupancy reaches this
    #: fraction (in permille) of its capacity (one entry per processor).
    table_frac_permille: int = 500

    def __post_init__(self) -> None:
        if self.sample_every_events < 1:
            raise ValueError("sample_every_events must be >= 1")
        if self.ring_capacity < 2:
            raise ValueError("ring_capacity must be >= 2")
        if self.min_window_ticks < 2:
            raise ValueError("min_window_ticks must be >= 2")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, record: dict) -> "TelemetryConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ValueError(
                f"unknown telemetry config keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**record)


class TelemetrySampler:
    """Samples a probe registry into ring-buffered time series.

    Usage::

        sampler = TelemetrySampler(TelemetryConfig())
        sampler.attach(machine)     # registers one kernel watcher
        machine.run(workload)
        doc = sampler.finalize()    # repro.telemetry/1 document

    ``attach`` walks the machine once and builds a *fixed*, sorted probe
    list (so series order never depends on dict/set hash order); each
    watcher tick evaluates every probe into one integer row.
    """

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config or TelemetryConfig()
        self._machine = None
        self._probes: List[Tuple[str, Callable[[], int]]] = []
        self._links: Dict[str, dict] = {}
        self._rows = deque(maxlen=self.config.ring_capacity)
        self.ticks = 0  # total ticks taken, including dropped ones
        self._doc: Optional[dict] = None

    # ------------------------------------------------------------------
    # Probe registry construction.
    # ------------------------------------------------------------------
    def attach(self, machine) -> "TelemetrySampler":
        """Build the probe registry for ``machine`` and start sampling."""
        if self._machine is not None:
            raise RuntimeError("sampler is already attached")
        self._machine = machine
        self._build_probes(machine)
        machine.sim.add_watcher(self._tick, self.config.sample_every_events)
        self._tick()  # baseline row at attach time (t = now)
        return self

    def _build_probes(self, machine) -> None:
        probes = self._probes
        sim = machine.sim
        net = machine.net  # may be a FaultyNetwork proxy (delegates)

        for name, link in sorted(net.links_by_name().items()):
            self._links[name] = {
                "scope": str(link.scope),
                "latency_ps": link.latency_ps,
                "bytes_per_ns": link.bytes_per_ns,
                "ser_num": link._ser_num,
                "ser_den": link._ser_den,
                "buffer_bytes": getattr(link, "buffer_bytes", None),
            }
            probes.append((f"link:{name}:bytes",
                           lambda link=link: link.bytes_carried))
            probes.append((f"link:{name}:backlog_ps",
                           lambda link=link, sim=sim:
                           max(0, link.busy_until - sim.now)))
            if hasattr(link, "overflow_events"):
                probes.append((f"link:{name}:overflows",
                               lambda link=link: link.overflow_events))

        if machine.cfg.family == "token":
            self._build_token_probes(machine)
        elif machine.cfg.family == "directory":
            self._build_directory_probes(machine)

        counters = machine.stats.counters
        for name in COUNTER_PROBES:
            probes.append((f"ctr:{name}",
                           lambda counters=counters, name=name:
                           counters.get(name, 0)))
        probes.sort(key=lambda pair: pair[0])

    def _build_token_probes(self, machine) -> None:
        from repro.core.base import TokenCacheController
        from repro.core.l1 import TokenL1Controller

        l1s, l2s, tables = [], [], []
        for ctrl in machine.controllers.values():
            if isinstance(ctrl, TokenL1Controller):
                l1s.append(ctrl)
            elif isinstance(ctrl, TokenCacheController):
                l2s.append(ctrl)
            if isinstance(ctrl, TokenCacheController):
                tables.append(ctrl.table)
        mems = list(machine.mems.values())
        tables.extend(mem.table for mem in mems)
        ledger = machine.recovery

        def census(ctrls, index):
            return sum(ctrl.token_census()[index] for ctrl in ctrls)

        probes = self._probes
        for level, ctrls in (("l1", l1s), ("l2", l2s)):
            probes.append((f"token.{level}.blocks",
                           lambda ctrls=ctrls: census(ctrls, 0)))
            probes.append((f"token.{level}.tokens",
                           lambda ctrls=ctrls: census(ctrls, 1)))
            probes.append((f"token.{level}.owners",
                           lambda ctrls=ctrls: census(ctrls, 2)))
        probes.append(("ptable.entries",
                       lambda: sum(len(t) for t in tables)))
        probes.append(("ptable.max",
                       lambda: max((len(t) for t in tables), default=0)))
        probes.append(("tx.outstanding",
                       lambda: sum(c.outstanding_tx()[0] for c in l1s)))
        probes.append(("tx.persistent",
                       lambda: sum(c.outstanding_tx()[1] for c in l1s)))
        probes.append(("recovery.pending",
                       lambda: sum(m.pending_recreations() for m in mems)))
        probes.append(("recovery.residual_tokens",
                       lambda: ledger.residual_tokens()
                       if ledger is not None else 0))

    def _build_directory_probes(self, machine) -> None:
        from repro.directory.intra import IntraDirL2Controller

        banks = [ctrl for ctrl in machine.controllers.values()
                 if isinstance(ctrl, IntraDirL2Controller)]
        homes = list(machine.mems.values())
        probes = self._probes
        probes.append(("dir.l2_lines",
                       lambda: sum(b.occupancy()[0] for b in banks)))
        probes.append(("dir.ext_tx",
                       lambda: sum(b.occupancy()[1] for b in banks)))
        probes.append(("dir.evicting",
                       lambda: sum(b.occupancy()[2] for b in banks)))
        probes.append(("dir.home_lines",
                       lambda: sum(h.occupancy() for h in homes)))

    # ------------------------------------------------------------------
    # Sampling.
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        sim = self._machine.sim
        row = [sim.now, sim.events_fired]
        row.extend(fn() for _name, fn in self._probes)
        self._rows.append(row)
        self.ticks += 1

    @property
    def dropped_ticks(self) -> int:
        return self.ticks - len(self._rows)

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def finalize(self) -> dict:
        """Take a final end-of-run sample and build the document.

        Idempotent: the first call closes the series; later calls return
        the same document (re-sampling a quiescent machine would append
        duplicate rows).
        """
        if self._doc is not None:
            return self._doc
        if self._machine is None:
            raise RuntimeError("sampler was never attached")
        last = self._rows[-1] if self._rows else None
        if last is None or last[0] != self._machine.sim.now:
            self._tick()
        self._doc = self._build_document()
        return self._doc

    def _build_document(self) -> dict:
        rows = list(self._rows)
        names = [name for name, _fn in self._probes]
        series = {
            name: [row[2 + i] for row in rows]
            for i, name in enumerate(names)
        }
        params = self._machine.params
        doc = {
            "schema": TELEMETRY_SCHEMA,
            "config": self.config.to_dict(),
            "meta": {
                "family": self._machine.cfg.family,
                "protocol": self._machine.cfg.name,
                "num_chips": params.num_chips,
                "num_procs": params.num_procs,
                "topology": params.topology.generator,
            },
            "links": {name: dict(meta) for name, meta in self._links.items()},
            "probes": names,
            "t_ps": [row[0] for row in rows],
            "events": [row[1] for row in rows],
            "series": series,
            "ticks": self.ticks,
            "dropped_ticks": self.dropped_ticks,
        }
        doc["saturation"] = saturation_windows(doc)
        return doc


# ---------------------------------------------------------------------------
# Saturation detection.
# ---------------------------------------------------------------------------
def _maximal_runs(flags: List[bool], min_len: int) -> List[Tuple[int, int]]:
    """Maximal [start, end] index runs of consecutive True flags."""
    runs = []
    start = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_len:
                runs.append((start, i - 1))
            start = None
    if start is not None and len(flags) - start >= min_len:
        runs.append((start, len(flags) - 1))
    return runs


def link_utilization_permille(t_ps: List[int], bytes_series: List[int],
                              ser_num: int, ser_den: int) -> List[int]:
    """Per-tick utilization in permille, from cumulative byte counts.

    Tick ``i`` (``i >= 1``) covers ``t_ps[i-1] .. t_ps[i]``; utilization
    is the exact integer ratio of the link's serialization busy time for
    the bytes carried in that span to the span itself.  Entry 0 is 0 (no
    preceding tick).  Values can exceed 1000: a burst injected late in
    one tick drains during the next, so instantaneous per-tick busy time
    may overlap tick boundaries.
    """
    out = [0]
    for i in range(1, len(t_ps)):
        span = t_ps[i] - t_ps[i - 1]
        if span <= 0:
            out.append(0)
            continue
        busy_ps = (bytes_series[i] - bytes_series[i - 1]) * ser_num // ser_den
        out.append(busy_ps * 1000 // span)
    return out


def saturation_windows(doc: dict,
                       config: Optional[TelemetryConfig] = None) -> List[dict]:
    """Scan a telemetry document's series for sustained saturation.

    Three detectors, each reporting maximal windows of at least
    ``min_window_ticks`` consecutive ticks:

    * ``link-utilization`` — the link's serialization busy time covered
      at least ``util_threshold_permille`` of every tick in the window
      (peak = highest per-tick permille);
    * ``backlog-growth`` — the link's egress backlog grew strictly
      monotonically across the window (peak = backlog in ps);
    * ``ptable-near-full`` — the fullest persistent table held at least
      ``table_frac_permille`` of its capacity (one entry per processor)
      throughout (peak = occupancy).

    Windows are sorted by (kind, subject, start_ps) so the report is
    deterministic regardless of discovery order.
    """
    if config is None:
        config = TelemetryConfig.from_dict(doc["config"])
    t_ps = doc["t_ps"]
    series = doc["series"]
    min_ticks = config.min_window_ticks
    windows: List[dict] = []

    def emit(kind: str, subject: str, start: int, end: int, peak: int) -> None:
        windows.append({
            "kind": kind,
            "subject": subject,
            "start_ps": t_ps[start],
            "end_ps": t_ps[end],
            "ticks": end - start + 1,
            "peak": peak,
        })

    for name in sorted(doc.get("links", {})):
        meta = doc["links"][name]
        util = link_utilization_permille(
            t_ps, series[f"link:{name}:bytes"],
            meta["ser_num"], meta["ser_den"],
        )
        hot = [u >= config.util_threshold_permille for u in util]
        for start, end in _maximal_runs(hot, min_ticks):
            emit("link-utilization", name, start, end,
                 max(util[start:end + 1]))
        backlog = series[f"link:{name}:backlog_ps"]
        growing = [False] + [
            backlog[i] > backlog[i - 1] for i in range(1, len(backlog))
        ]
        for start, end in _maximal_runs(growing, min_ticks):
            emit("backlog-growth", name, start, end,
                 max(backlog[start:end + 1]))

    ptable = series.get("ptable.max")
    if ptable is not None:
        capacity = doc["meta"]["num_procs"]
        near = [occ * 1000 >= config.table_frac_permille * capacity
                for occ in ptable]
        for start, end in _maximal_runs(near, min_ticks):
            emit("ptable-near-full", "ptable.max", start, end,
                 max(ptable[start:end + 1]))

    windows.sort(key=lambda w: (w["kind"], w["subject"], w["start_ps"]))
    return windows


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------
def validate_telemetry(doc: dict) -> int:
    """Raise :class:`ValueError` unless ``doc`` matches the schema;
    return the number of sampled rows.  Dependency-free, like
    :func:`repro.obs.metrics.validate_metrics`."""

    def fail(why: str):
        raise ValueError(f"invalid telemetry document: {why}")

    if not isinstance(doc, dict):
        fail("not an object")
    if doc.get("schema") != TELEMETRY_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {TELEMETRY_SCHEMA!r}")
    for key, types in (
        ("config", dict),
        ("meta", dict),
        ("links", dict),
        ("probes", list),
        ("t_ps", list),
        ("events", list),
        ("series", dict),
        ("ticks", int),
        ("dropped_ticks", int),
        ("saturation", list),
    ):
        if not isinstance(doc.get(key), types):
            fail(f"{key!r} missing or not {types.__name__}")
    TelemetryConfig.from_dict(doc["config"])  # raises on unknown keys
    rows = len(doc["t_ps"])
    if len(doc["events"]) != rows:
        fail("events length does not match t_ps")
    if sorted(doc["series"]) != sorted(doc["probes"]):
        fail("series keys do not match the probe list")
    for name in doc["probes"]:
        values = doc["series"][name]
        if len(values) != rows:
            fail(f"series {name!r} length does not match t_ps")
        for value in values:
            if not isinstance(value, int):
                fail(f"series {name!r} contains a non-integer")
    if any(b - a < 0 for a, b in zip(doc["t_ps"], doc["t_ps"][1:])):
        fail("t_ps is not monotonically non-decreasing")
    for i, window in enumerate(doc["saturation"]):
        if not isinstance(window, dict):
            fail(f"saturation window {i} is not an object")
        if window.get("kind") not in WINDOW_KINDS:
            fail(f"saturation window {i} has unknown kind "
                 f"{window.get('kind')!r}")
        for key in ("subject", "start_ps", "end_ps", "ticks", "peak"):
            if key not in window:
                fail(f"saturation window {i} lacks {key!r}")
    return rows


def render_saturation(doc: dict) -> str:
    """Human-readable saturation summary for one telemetry document."""
    windows = doc["saturation"]
    rows = len(doc["t_ps"])
    lines = [
        f"telemetry: {rows} samples over {doc['t_ps'][-1] if rows else 0} ps "
        f"({doc['dropped_ticks']} dropped), "
        f"{len(windows)} saturation window(s)"
    ]
    for w in windows:
        span_ns = (w["end_ps"] - w["start_ps"]) / 1000.0
        lines.append(
            f"  {w['kind']:18s} {w['subject']:32s} "
            f"{w['start_ps'] / 1000.0:12.1f} ns +{span_ns:10.1f} ns "
            f"({w['ticks']} ticks, peak {w['peak']})"
        )
    return "\n".join(lines)
