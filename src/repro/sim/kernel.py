"""Discrete-event simulation kernel.

A minimal, deterministic event queue: events fire in (time, sequence)
order, so two events scheduled for the same picosecond fire in the order
they were scheduled.  Everything else in the simulator — networks, cache
controllers, processor threads — is built as callbacks on this kernel.

Hot-path design
---------------

The kernel is the innermost loop of every experiment, so the per-event
cost is kept to a handful of C-level operations:

* **Heap entries are flat ``[time, seq, fn, args]`` records.**
  :class:`Event` subclasses ``list`` so ``heapq`` compares entries with
  the C ``list`` comparison (time, then the unique sequence number —
  callables are never reached) instead of a Python-level ``__lt__``.
* **Cancellation is lazy.**  ``Event.cancel`` blanks the callback slot
  and fixes the live-event count; the dead entry stays in the heap and
  is discarded when it surfaces.  The common no-cancel path never pays
  for cancellation support beyond one ``is None`` check per event.
* **No-handle events are recycled.**  Most events in a simulation —
  message deliveries, lookup-latency hops, thread resumptions — are
  never cancelled, so their handles are never kept.  :meth:`Simulator.
  call_after` / :meth:`Simulator.call_at` schedule a single-argument
  callback as a plain ``[time, seq, fn, arg, relay, callee]`` list
  (``relay`` 0) drawn from a per-simulator freelist and returned to it
  right after firing: the steady state allocates no new heap entries
  and no ``args`` tuples.  The run loop tells the two shapes apart with
  one ``type(event) is list`` check (handle events are :class:`Event`
  instances).
* **The kernel relays lookup hops.**  A controller's network entry
  point typically does nothing but ``call_after(lookup, callee, msg)``.
  :meth:`Simulator.relay_at` schedules such a delivery as one record
  with ``relay = lookup`` and the real ``callee``.  When the run loop
  pops a record whose relay is non-zero, it moves the record to
  ``now + relay``, gives it the next sequence number, clears the relay,
  puts ``callee`` in the callback slot, re-pushes it and counts one
  fired event — exactly what the entry point's ``call_after`` would
  have done, in the same ``(time, seq)`` order, without a Python frame
  or a freelist round trip.  The callee is restored from its own slot,
  so an observer that swaps the callback slot on pop cannot leak into
  the relayed record.
* **Watchers are threshold-driven.**  Instead of a per-event
  ``events_fired % every`` scan over every registered watcher, the
  kernel keeps the next due cumulative event count per watcher and a
  single ``_watch_next`` minimum; the inner loop does one integer
  compare per event.
* **One run loop; the bounds are sentinels.**  ``max_events``
  bounds the events fired by *this* :meth:`Simulator.run` call and is
  one integer compare against a sentinel.  ``until`` is a blank
  ``[until, inf, None, None, 0, None]`` heap entry: it orders after
  every event at ``until`` and surfaces through the cancelled-entry
  branch, the only place that checks for it.  A run that ends any other
  way takes it back out of the heap.

``sim.tracer`` (``None`` by default) is the one observability hook: a
:class:`repro.obs.trace.Tracer` that instrumented components all over
the machine read at event time, emitting structured trace events only
when it is set.  The kernel profiler (:class:`repro.obs.profile.
KernelProfiler`) observes dispatch from outside the kernel by swapping
this module's ``heappop``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.common.errors import DeadlockError

_NEVER = float("inf")  # sentinel: compares greater than any event count/time


class Event(list):
    """Handle for a scheduled callback; supports cancellation.

    The event *is* its own heap entry: a ``[time_ps, seq, fn, args]``
    list (plus a ``sim`` back-reference for the live-event count), so
    scheduling allocates exactly one record and the heap orders entries
    with C-level list comparison.  ``seq`` is unique per simulator, so
    comparisons are always resolved by ``(time, seq)`` and never touch
    the callback.
    """

    __slots__ = ("sim",)

    # No __init__ override: entries are built with the C-level list
    # constructor (``Event((time, seq, fn, args))``) and ``schedule``
    # assigns the ``sim`` back-reference — one Python-level call fewer
    # per scheduled event.

    @property
    def time(self) -> int:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire (cancelled or fired)."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired).

        Lazy deletion: the heap entry is not removed, only its callback
        slot is blanked — the run loop discards blank entries as they
        surface.  The simulator's live-event count is fixed up here, and
        the blank slot makes a second ``cancel`` (or a cancel after
        firing — the run loop blanks the slot too) an exact no-op.
        """
        if self[2] is None:
            return
        self[2] = None
        self[3] = None  # drop the args reference promptly
        sim = self.sim
        if sim is not None:
            sim._pending -= 1
            self.sim = None


class Simulator:
    """Deterministic discrete-event scheduler with picosecond time."""

    __slots__ = (
        "_queue", "_now", "_seq", "_pending", "events_fired",
        "_watchers", "_watch_next", "tracer",
        "_free_events", "event_news",
    )

    def __init__(self) -> None:
        self._queue: list = []
        self._now: int = 0
        self._seq: int = 0
        self._pending: int = 0
        self.events_fired: int = 0
        self._watchers: list = []  # [every_events, fn, next_due] records
        self._watch_next = _NEVER  # min next_due over watchers
        self.tracer = None  # repro.obs.trace.Tracer (attach() sets this)
        # Freelist of recycled no-handle event records (call_after /
        # call_at).  ``event_news`` counts fresh record allocations — the
        # alloc benchmarks read it; in steady state it stops growing.
        self._free_events: list = []
        self.event_news: int = 0

    def add_watcher(self, fn: Callable[[], None], every_events: int = 1024) -> None:
        """Call ``fn()`` every ``every_events`` fired events.

        Watchers piggyback on the event loop instead of scheduling their
        own events, so they cannot keep an otherwise-drained queue alive
        (``expect_drain`` still works) and they run only while the
        simulation is actually making event progress.  A watcher that
        raises aborts the run with its exception — this is how liveness
        watchdogs and invariant monitors report violations.

        The cadence is anchored to the *cumulative* ``events_fired``
        count: a watcher with ``every_events=4`` fires at counts 4, 8,
        12, ... no matter how many ``run()`` calls those counts span.
        (Register watchers between runs or from another watcher; a plain
        event callback registering one mid-run anchors to the count as of
        the last watcher flush, since the run loop counts in a local.)
        """
        if every_events < 1:
            raise ValueError(f"every_events must be >= 1, got {every_events}")
        fired = self.events_fired
        next_due = fired - (fired % every_events) + every_events
        self._watchers.append([every_events, fn, next_due])
        if next_due < self._watch_next:
            self._watch_next = next_due

    def _fire_due_watchers(self) -> None:
        """Run watchers whose threshold was reached, in registration order."""
        fired = self.events_fired
        for record in self._watchers:
            if fired >= record[2]:
                record[2] += record[0]
                record[1]()
        self._watch_next = min(record[2] for record in self._watchers)

    def remove_watcher(self, fn: Callable[[], None]) -> None:
        """Stop calling ``fn`` (registered by :meth:`add_watcher`).

        Drops the first record whose callback equals ``fn`` (a bound
        method compares equal to a fresh one of the same object); raises
        :class:`ValueError` when ``fn`` is not registered.  Like
        :meth:`add_watcher`, call it between runs.
        """
        watchers = self._watchers
        for pos, record in enumerate(watchers):
            if record[1] == fn:
                del watchers[pos]
                self._watch_next = min((r[2] for r in watchers), default=_NEVER)
                return
        raise ValueError(f"not a registered watcher: {fn!r}")

    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    def schedule(self, delay_ps: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay_ps`` picoseconds; returns a handle."""
        if delay_ps < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay_ps})")
        self._seq = seq = self._seq + 1
        event = Event((self._now + delay_ps, seq, fn, args))
        event.sim = self
        self._pending += 1
        heappush(self._queue, event)
        return event

    def schedule_at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute time ``time_ps`` (>= now)."""
        return self.schedule(time_ps - self._now, fn, *args)

    def call_after(self, delay_ps: int, fn: Callable[[Any], Any], arg: Any) -> None:
        """Run ``fn(arg)`` after ``delay_ps``; no handle, entry recycled.

        The no-allocation fast path for the overwhelmingly common case —
        message deliveries, lookup-latency hops, thread resumptions —
        where the caller never cancels.  The heap entry is a plain
        ``[time, seq, fn, arg, relay, callee]`` list with ``relay`` 0
        (recycled records always have it cleared), drawn from the
        simulator's freelist and returned to it right after firing, and
        ``arg`` is stored directly (no ``args`` tuple).  Time/sequence
        semantics are identical to :meth:`schedule`, so swapping a
        ``schedule`` call site to ``call_after`` never changes simulated
        behaviour.
        """
        if delay_ps < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay_ps})")
        self._seq = seq = self._seq + 1
        free = self._free_events
        if free:
            event = free.pop()
            event[0] = self._now + delay_ps
            event[1] = seq
            event[2] = fn
            event[3] = arg
        else:
            self.event_news += 1
            event = [self._now + delay_ps, seq, fn, arg, 0, None]
        self._pending += 1
        heappush(self._queue, event)

    def call_at(self, time_ps: int, fn: Callable[[Any], Any], arg: Any) -> None:
        """Run ``fn(arg)`` at absolute ``time_ps`` (>= now); no handle.

        Open-coded rather than delegating to :meth:`call_after`: callers
        that already computed an absolute time (message deliveries) skip
        the round-trip through a relative delay.
        """
        if time_ps < self._now:
            raise ValueError(
                f"cannot schedule in the past (t={time_ps} < now={self._now})"
            )
        self._seq = seq = self._seq + 1
        free = self._free_events
        if free:
            event = free.pop()
            event[0] = time_ps
            event[1] = seq
            event[2] = fn
            event[3] = arg
        else:
            self.event_news += 1
            event = [time_ps, seq, fn, arg, 0, None]
        self._pending += 1
        heappush(self._queue, event)

    def relay_at(
        self,
        time_ps: int,
        fn: Callable[[Any], Any],
        arg: Any,
        relay_ps: int,
        callee: Callable[[Any], Any],
    ) -> None:
        """Deliver ``arg`` at ``time_ps`` to an entry point ``fn`` whose
        whole body is ``call_after(relay_ps, callee, arg)``; no handle.

        The kernel stands in for ``fn``: at ``time_ps`` the record is
        re-queued for ``time_ps + relay_ps`` under the next sequence
        number with ``callee`` in its callback slot, and that counts as
        one fired event — the same events in the same ``(time, seq)``
        order as calling ``fn``, minus its frame.  ``relay_ps == 0``
        means no relay: ``fn(arg)`` runs at ``time_ps`` like
        :meth:`call_at`.
        """
        if time_ps < self._now:
            raise ValueError(
                f"cannot schedule in the past (t={time_ps} < now={self._now})"
            )
        self._seq = seq = self._seq + 1
        free = self._free_events
        if free:
            event = free.pop()
            event[0] = time_ps
            event[1] = seq
            event[2] = fn
            event[3] = arg
            event[4] = relay_ps
            event[5] = callee
        else:
            self.event_news += 1
            event = [time_ps, seq, fn, arg, relay_ps, callee]
        self._pending += 1
        heappush(self._queue, event)

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1)).

        Maintained live — incremented on :meth:`schedule`, decremented on
        :meth:`Event.cancel` and on firing — so watchdogs and monitors can
        poll it every check interval without degrading large runs.
        """
        return self._pending

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        expect_drain: bool = False,
    ) -> int:
        """Fire events until the queue drains (or a bound is hit).

        ``until`` stops the clock at an absolute picosecond time (events
        at ``until`` still fire); ``max_events`` bounds the events this
        call fires (a runaway-protocol backstop).
        With ``expect_drain`` the caller asserts the workload should finish
        by itself; hitting ``max_events`` then raises :class:`DeadlockError`.
        An ``until`` before the current time raises :class:`ValueError`
        (the clock never runs backwards).  Returns the final simulated time.
        """
        if until is not None and until < self._now:
            raise ValueError(
                f"cannot run until the past (until={until} < now={self._now})"
            )
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("sim.run.begin", pending=self._pending)
        try:
            return self._run(until, max_events, expect_drain)
        finally:
            if tracer is not None:
                tracer.emit(
                    "sim.run.end",
                    events_fired=self.events_fired,
                    pending=self._pending,
                )

    def _run(
        self,
        until: Optional[int],
        max_events: Optional[int],
        expect_drain: bool,
    ) -> int:
        # Inner loop: everything variable is hoisted into locals, and the
        # only per-event costs beyond the heap pop are the blank-slot
        # check (lazy cancellation; it also finds the ``until`` stop
        # entry), the watcher threshold compare and the ``max_events``
        # compare against a +inf sentinel.
        #
        # ``events_fired`` is tracked in a local (``total``) and written
        # back before watchers fire and in the ``finally`` — watchers are
        # the only mid-run readers.  ``_pending`` stays live per event:
        # callbacks legitimately poll ``sim.pending``.
        queue = self._queue
        pop = heappop
        push = heappush
        total = self.events_fired
        end = total + (_NEVER if max_events is None else max_events)
        recycle = self._free_events.append
        stop = None
        if until is not None:
            stop = [until, _NEVER, None, None, 0, None]
            push(queue, stop)
        try:
            while queue:
                event = pop(queue)
                fn = event[2]
                if fn is None:
                    if event is stop:
                        stop = None
                        if queue:  # events remain past ``until``
                            self._now = until
                        return self._now
                    continue  # cancelled: uncounted by Event.cancel
                if type(event) is list:  # recyclable no-handle entry
                    relay = event[4]
                    if relay:
                        # Relayed lookup hop: the entry point's
                        # call_after, done in place (module docstring).
                        self._now = now = event[0]
                        event[0] = now + relay
                        self._seq = event[1] = self._seq + 1
                        event[2] = event[5]
                        event[4] = 0
                        push(queue, event)
                    else:
                        self._pending -= 1
                        self._now = event[0]
                        fn(event[3])
                        event[2] = None
                        event[3] = None  # drop the arg reference promptly
                        recycle(event)
                else:
                    self._pending -= 1
                    self._now = event[0]
                    event[2] = None  # mark fired: late cancel() no-ops
                    fn(*event[3])
                total += 1
                if total >= self._watch_next:
                    self.events_fired = total
                    self._fire_due_watchers()
                if total >= end:
                    if expect_drain:
                        raise DeadlockError(
                            f"simulation did not finish within "
                            f"{max_events} events (t={self._now} ps); "
                            f"likely protocol livelock"
                        )
                    return self._now
            return self._now
        finally:
            self.events_fired = total
            if stop is not None:  # ended before reaching ``until``
                queue.remove(stop)
                heapify(queue)
