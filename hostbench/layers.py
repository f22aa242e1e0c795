"""The traced run: host time split across the repo's layers.

The tracer wraps the class attributes of each layer's public entry points
(:data:`SIM_ENTRY_POINTS`, :data:`VERIFY_ENTRY_POINTS`) with span-recording
wrappers, and restores the originals afterwards; no source under ``src/``
changes.  Install it *before* ``MachineSpec.build()``: controllers register
their handlers as bound methods at build time, so a wrapper installed after
the build would never be called.  It never sets ``sim.tracer``, which would
switch ``Network.send_fanout`` onto its per-clone path and so trace a
different program.

Kernel dispatch is observed by replacing ``repro.sim.kernel.heappop`` for
the run.  Each live event popped gets the next event id, which every span
it dispatches shares.  An event whose callback is not a wrapped entry
point (a thread resumption, a controller's private timer) is dispatched
inside a span charged to the layer of the callback's module.

A span's self time is its duration minus the time its child spans cover.
Self times are aggregated per layer as the run goes; the first
:data:`SAMPLE_LIMIT` raw spans are also kept.  The tracer's own work is
timed apart from the program's: a wrapper stamps the clock on entry and
on exit as well as around the wrapped call, and ``_pop`` stamps it after
the real ``heappop``.  The gaps are charged to :data:`TRACE_LAYER` and
counted as covered in the calling span, so the layer self times
approximate the untraced program's.  What no stamp can see, the calls
into and out of the wrapper frames, still lands in the caller.
``send_fanout`` inlines pool clones and kernel pushes, so that work
counts under ``interconnect``.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from heapq import heappop
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: (layer, module, class, methods) for every wrapped simulator entry point.
SIM_ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.kernel", "Simulator", ("run",)),
    ("core", "repro.core.l1", "TokenL1Controller", ("access",)),
    ("core", "repro.core.base", "TokenCacheController", ("handle",)),
    ("core", "repro.core.memctrl", "TokenMemController", ("handle",)),
    ("core", "repro.core.persistent", "Arbiter", ("handle",)),
    ("directory", "repro.directory.l1", "DirL1Controller", ("access", "handle")),
    ("directory", "repro.directory.intra", "IntraDirL2Controller", ("handle",)),
    ("directory", "repro.directory.inter", "InterDirController", ("handle",)),
    ("interconnect", "repro.interconnect.network", "Network",
     ("send", "send_fanout", "send_later")),
    ("message", "repro.interconnect.message", "MessagePool",
     ("acquire", "acquire_carrier", "clone", "release")),
    ("cpu", "repro.cpu.sequencer", "Sequencer", ("issue", "issue_batch")),
    ("memory", "repro.memory.cache", "CacheArray", ("lookup", "allocate")),
)

#: Model methods wrapped in the checker run, by the layer they count under.
MODEL_METHOD_LAYERS = {
    "transitions": "verification.transitions",
    "canonicalize": "verification.canonicalize",
    "check_invariants": "verification.invariants",
    "is_quiescent": "verification.invariants",
}
#: The checker's own entry point (a module function).
VERIFY_ENTRY_POINTS = (
    ("verification.checker", "repro.verification.checker", None, ("check",)),
)

#: Layer of a dispatched callback, by the module that defines it; the
#: first matching prefix wins.  Anything else is unattributed.
MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.core", "core"),
    ("repro.directory", "directory"),
    ("repro.interconnect.message", "message"),
    ("repro.interconnect", "interconnect"),
    ("repro.cpu", "cpu"),
    ("repro.workloads", "cpu"),
    ("repro.memory", "memory"),
)

ROOT_LAYER = "bench"
#: The tracer's own bookkeeping.
TRACE_LAYER = "bench.trace"
UNATTRIBUTED = "other"
SAMPLE_LIMIT = 20_000
_MARK = "_hostbench_layer"


def module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return UNATTRIBUTED


class LayerTracer:
    """Span recorder for one traced job (see the module docstring)."""

    def __init__(self) -> None:
        self._stack: List[list] = []  # open spans: [id, layer, name, start, child_ns, parent, event]
        self._dispatch_fn = None
        self._dispatch_cb = self._dispatch  # bound once: no allocation per event
        self._code_layers: Dict[object, str] = {}
        #: The last job's aggregates and raw spans (set when its root closes).
        self.job: dict = {}
        self.job_samples: List[tuple] = []
        self._reset()

    def _reset(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Entry-point calls, keyed ``Class.method``.
        self.calls: Dict[str, int] = defaultdict(int)
        self.layer_calls: Dict[str, int] = defaultdict(int)
        self.heap_pops = 0
        self.fanout_dests = 0
        self.event_id = 0
        self.samples: List[tuple] = []
        self._next_id = 0

    # -- spans ------------------------------------------------------------
    def _open(self, layer: str, name: str) -> list:
        """Push a span; the caller stamps its start (``span[3]``)."""
        stack = self._stack
        span = [self._next_id, layer, name, 0, 0,
                stack[-1][0] if stack else -1, self.event_id]
        self._next_id += 1
        stack.append(span)
        return span

    def _close(self, span: list, end: int, entered: Optional[int] = None) -> int:
        """Pop ``span``, which ended at ``end``.

        The callers stamp the start and ``end`` right around the wrapped
        call, so calling into this tracer stays out of the span.
        ``entered`` is when the span's wrapper was entered: the wrapper's
        time outside the span goes to :data:`TRACE_LAYER`, and the whole
        wrapper counts as covered in the parent span.
        """
        stack = self._stack
        stack.pop()
        duration = end - span[3]
        self_ns = self.self_ns
        self_ns[span[1]] += duration - span[4]
        if span[0] < SAMPLE_LIMIT:
            self.samples.append((span[0], span[5], span[6], span[1], span[2],
                                 span[3], end))
        covered = duration
        if entered is not None:
            covered = perf_counter_ns() - entered
            self_ns[TRACE_LAYER] += covered - duration
        if stack:
            stack[-1][4] += covered
        return duration

    @contextlib.contextmanager
    def root(self):
        """The benchmark's own span around one job.

        Aggregates restart when it opens and are frozen into :attr:`job`
        when it closes, so calls made while building the machine or
        checking its outputs afterwards are not counted.
        """
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        self._reset()
        span = self._open(ROOT_LAYER, "job")
        span[3] = perf_counter_ns()
        try:
            yield
        finally:
            self.job = self.summary(self._close(span, perf_counter_ns()))
            self.job_samples, self.samples = self.samples, []

    def summary(self, root_ns: int) -> dict:
        """The aggregates so far, for a root span of ``root_ns``."""
        return {
            "root_ns": root_ns,
            "open_spans": len(self._stack),
            "self_ns": dict(sorted(self.self_ns.items())),
            "calls": dict(sorted(self.calls.items())),
            "layer_calls": dict(sorted(self.layer_calls.items())),
            "heap_pops": self.heap_pops,
            "events": self.event_id,
            "fanout_dests": self.fanout_dests,
        }

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            self.calls[name] += 1
            self.layer_calls[layer] += 1
            span = open_(layer, name)
            span[3] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                close(span, perf_counter_ns(), entered)

        setattr(traced, _MARK, layer)
        traced.__wrapped__ = fn
        return traced

    def _wrap_fanout(self, layer: str, name: str, fn):
        traced = self._wrap(layer, name, fn)

        def fanout(net, template, dests):
            self.fanout_dests += len(dests)
            return traced(net, template, dests)

        setattr(fanout, _MARK, layer)
        fanout.__wrapped__ = fn
        return fanout

    def _pop(self, heap):
        event = heappop(heap)
        popped = perf_counter_ns()
        self.heap_pops += 1
        fn = event[2]
        if fn is not None:
            self.event_id += 1
            if getattr(fn, _MARK, None) is None:
                self._dispatch_fn = fn
                event[2] = self._dispatch_cb
        stack = self._stack
        if stack:
            # The kernel's own pop stays in its span; the rest is ours.
            gap = perf_counter_ns() - popped
            self.self_ns[TRACE_LAYER] += gap
            stack[-1][4] += gap
        return event

    def _dispatch(self, *args) -> None:
        entered = perf_counter_ns()
        fn = self._dispatch_fn
        span = self._open(self._layer_of(fn), "dispatch")
        span[3] = perf_counter_ns()
        try:
            fn(*args)
        finally:
            self._close(span, perf_counter_ns(), entered)

    def _layer_of(self, fn) -> str:
        fn = getattr(fn, "__func__", fn)
        fn = getattr(fn, "func", fn)  # functools.partial
        key = getattr(fn, "__code__", fn)
        layer = self._code_layers.get(key)
        if layer is None:
            layer = self._code_layers[key] = module_layer(
                getattr(fn, "__module__", None) or "")
        return layer

    @contextlib.contextmanager
    def installed(self, entry_points=SIM_ENTRY_POINTS, model_classes=()):
        """Wrap ``entry_points`` (and ``model_classes``' checker methods)."""
        targets = []
        for layer, module, owner, names in entry_points:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            targets += [(target, name, layer) for name in names]
        seen = set()
        for cls in model_classes:
            for name, layer in MODEL_METHOD_LAYERS.items():
                owner = next(k for k in cls.__mro__ if name in k.__dict__)
                if (owner, name) not in seen:
                    seen.add((owner, name))
                    targets.append((owner, name, layer))
        kernel = importlib.import_module("repro.sim.kernel")
        patched = []
        try:
            for target, name, layer in targets:
                original = target.__dict__[name]
                wrap = self._wrap_fanout if name == "send_fanout" else self._wrap
                label = f"{getattr(target, '__name__', target)}.{name}"
                setattr(target, name, wrap(layer, label, original))
                patched.append((target, name, original))
            patched.append((kernel, "heappop", kernel.heappop))
            kernel.heappop = self._pop
            yield self
        finally:
            for target, name, original in reversed(patched):
                setattr(target, name, original)


def reconcile(job: dict) -> List[str]:
    """Problems with one job's span accounting (empty when it reconciles).

    Self times of every layer, the unattributed ``bench`` and ``other``
    remainder included, must sum exactly to the root span's duration.
    """
    problems = []
    if job["open_spans"]:
        problems.append(f"{job['open_spans']} spans left open")
    negative = sorted(k for k, v in job["self_ns"].items() if v < 0)
    if negative:
        problems.append(f"negative self time in {negative}")
    total = sum(job["self_ns"].values())
    if total != job["root_ns"]:
        problems.append(f"layer self times sum to {total} ns, "
                        f"root span is {job['root_ns']} ns")
    return problems


#: Field names of the raw span records in :attr:`LayerTracer.job_samples`.
SPAN_FIELDS = ("id", "parent", "event", "layer", "name", "start_ns", "end_ns")
