"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common.errors import DeadlockError
from repro.sim.kernel import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(100, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.schedule(5, event.cancel)
    sim.run()
    assert fired == []


def test_schedule_during_run_extends_simulation():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 30


def test_schedule_at_absolute_time():
    sim = Simulator()
    times = []
    sim.schedule(10, lambda: sim.schedule_at(50, lambda: times.append(sim.now)))
    sim.run()
    assert times == [50]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, 1)
    sim.schedule(100, fired.append, 2)
    sim.run(until=50)
    assert fired == [1]
    assert sim.now == 50
    sim.run()
    assert fired == [1, 2]


def test_run_until_the_past_is_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.schedule(50, lambda: None)
    sim.run(until=20)
    with pytest.raises(ValueError, match="past"):
        sim.run(until=5)
    assert (sim.now, sim.pending, len(sim._queue)) == (20, 1, 1)
    assert sim.run(until=20) == 20  # until == now is still accepted
    assert sim.run() == 50


def test_max_events_with_expect_drain_raises():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(DeadlockError):
        sim.run(max_events=100, expect_drain=True)


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.pending == 2
    e1.cancel()
    assert sim.pending == 1


def test_pending_decrements_as_events_fire():
    sim = Simulator()
    seen = []
    for delay in (10, 20, 30):
        sim.schedule(delay, lambda: seen.append(sim.pending))
    sim.run()
    assert sim.pending == 0
    assert seen == [2, 1, 0]  # each callback sees the not-yet-fired rest


def test_cancel_after_fire_does_not_double_decrement():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    sim.run(until=15)  # first event fired, second still pending
    assert sim.pending == 1
    event.cancel()  # no-op: already fired
    assert sim.pending == 1


def test_double_cancel_decrements_once():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_watcher_cadence_spans_multiple_runs():
    sim = Simulator()
    ticks = []
    sim.add_watcher(lambda: ticks.append(sim.events_fired), every_events=4)
    for delay in range(1, 7):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.events_fired == 6
    assert ticks == [4]
    # The cadence is on the *cumulative* fired-event count, so a second
    # run() on the same kernel continues the rhythm instead of restarting.
    for delay in range(1, 7):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.events_fired == 12
    assert ticks == [4, 8, 12]


def test_watcher_cadence_does_not_drift_across_bounded_runs():
    # The threshold bookkeeping must behave exactly like the old
    # ``events_fired % every`` check even when the cumulative count is
    # chopped into many run() calls by ``until`` bounds that stop the
    # clock mid-window.
    sim = Simulator()
    ticks = []
    sim.add_watcher(lambda: ticks.append(sim.events_fired), every_events=4)
    for delay in range(1, 11):  # one event per ps, t=1..10
        sim.schedule(delay, lambda: None)
    sim.run(until=3)  # 3 events: inside the first window
    assert ticks == []
    sim.run(until=5)  # 5 events total: crossed 4
    assert ticks == [4]
    sim.run(until=7)  # 7 events: inside the second window
    assert ticks == [4]
    sim.run()  # 10 events: crossed 8
    assert sim.events_fired == 10
    assert ticks == [4, 8]


def test_watcher_cadence_with_max_events_bounds():
    sim = Simulator()
    ticks = []
    sim.add_watcher(lambda: ticks.append(sim.events_fired), every_events=3)
    for delay in range(1, 9):
        sim.schedule(delay, lambda: None)
    sim.run(max_events=2)
    sim.run(max_events=2)  # 4 events total: crossed 3
    assert ticks == [3]
    sim.run()
    assert sim.events_fired == 8
    assert ticks == [3, 6]


def test_multiple_watchers_fire_at_their_own_cadences():
    sim = Simulator()
    ticks = []
    sim.add_watcher(lambda: ticks.append(("a", sim.events_fired)), every_events=2)
    sim.add_watcher(lambda: ticks.append(("b", sim.events_fired)), every_events=3)
    for delay in range(1, 7):
        sim.schedule(delay, lambda: None)
    sim.run()
    # Both due at 6: registration order breaks the tie.
    assert ticks == [
        ("a", 2), ("b", 3), ("a", 4), ("a", 6), ("b", 6),
    ]


def test_watcher_added_between_runs_joins_cumulative_cadence():
    sim = Simulator()
    ticks = []
    for delay in range(1, 6):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.events_fired == 5
    # Registered at count 5 with every=4: the next multiple is 8, not 9.
    sim.add_watcher(lambda: ticks.append(sim.events_fired), every_events=4)
    for delay in range(1, 6):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.events_fired == 10
    assert ticks == [8]


def test_watcher_exception_leaves_event_count_consistent():
    sim = Simulator()

    def boom():
        raise RuntimeError("invariant violated")

    sim.add_watcher(boom, every_events=3)
    for delay in range(1, 6):
        sim.schedule(delay, lambda: None)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.events_fired == 3  # counted up to and including the trigger


def _run_n_events(sim, n):
    for delay in range(1, n + 1):
        sim.schedule(delay, lambda: None)
    sim.run()


def test_removed_watcher_stops_firing():
    sim = Simulator()
    ticks, other = [], []
    tick = lambda: ticks.append(sim.events_fired)  # noqa: E731
    sim.add_watcher(tick, every_events=2)
    sim.add_watcher(lambda: other.append(sim.events_fired), every_events=3)
    _run_n_events(sim, 6)
    sim.remove_watcher(tick)
    assert sim._watch_next == 9
    _run_n_events(sim, 6)
    assert ticks == [2, 4, 6]
    assert other == [3, 6, 9, 12]
    with pytest.raises(ValueError):
        sim.remove_watcher(tick)


def test_removing_the_last_watcher_clears_the_threshold():
    sim = Simulator()
    tick = lambda: None  # noqa: E731
    sim.add_watcher(tick, every_events=4)
    sim.remove_watcher(tick)
    assert sim._watchers == [] and sim._watch_next == float("inf")


def test_watcher_every_events_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.add_watcher(lambda: None, every_events=0)


def test_max_events_is_per_run_call():
    sim = Simulator()
    for delay in range(1, 6):
        sim.schedule(delay, lambda: None)
    sim.run(max_events=2)
    assert sim.events_fired == 2
    sim.run(max_events=2)
    assert sim.events_fired == 4
    sim.run()
    assert sim.events_fired == 5


def test_cancelled_event_is_marked_and_pending_drops():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    assert not event.cancelled
    event.cancel()
    assert event.cancelled
    assert sim.pending == 0
    sim.run()
    assert sim.events_fired == 0


# ---------------------------------------------------------------------------
# Relayed lookup hops (Simulator.relay_at).
# ---------------------------------------------------------------------------
def _relay_scenario(sim, relayed, log):
    """Deliveries whose entry point only re-schedules a callee after a
    lookup latency, interleaved with plain events at colliding times."""

    def callee(tag):
        log.append((sim.now, "callee", tag))
        if tag == "a":  # a callee scheduling more work mid-run
            sim.call_after(5, lambda t: log.append((sim.now, "late", t)), tag)

    def handle(tag):
        log.append((sim.now, "handle", tag))  # never reached when relayed
        sim.call_after(10, callee, tag)

    for when, tag in ((0, "a"), (5, "b"), (10, "c"), (10, "d")):
        if relayed:
            sim.relay_at(when, handle, tag, 10, callee)
        else:
            sim.call_at(when, handle, tag)
        sim.call_at(when + 10, lambda t: log.append((sim.now, "plain", t)), tag)


def test_relay_fires_the_same_events_in_the_same_order():
    results = []
    for relayed in (False, True):
        sim = Simulator()
        log = []
        _relay_scenario(sim, relayed, log)
        sim.run()
        results.append(([entry for entry in log if entry[1] != "handle"],
                        sim.events_fired, sim._seq, sim.now, sim.pending))
    assert results[0] == results[1]
    assert results[1][1] == 13  # 4 hops + 4 callees + 4 plain + 1 late


def test_relay_never_calls_the_entry_point():
    sim = Simulator()
    log = []
    _relay_scenario(sim, True, log)
    sim.run()
    assert [entry for entry in log if entry[1] == "handle"] == []


def test_relay_with_zero_delay_calls_the_entry_point():
    sim = Simulator()
    seen = []
    sim.relay_at(7, seen.append, "x", 0, None)
    sim.run()
    assert seen == ["x"] and sim.events_fired == 1


def test_relay_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.relay_at(5, print, None, 1, print)


def test_relay_survives_a_heappop_wrapper_that_swaps_the_callback(monkeypatch):
    # An observer may replace ``event[2]`` on every pop (the way a
    # layer-attributing benchmark tracer dispatches through a shim); the
    # relay restores the callee from its own slot, never from ``event[2]``.
    import repro.sim.kernel as kernel

    real_pop = kernel.heappop

    def swapping_pop(heap):
        event = real_pop(heap)
        fn = event[2]
        if fn is not None:
            event[2] = lambda *args, _fn=fn: _fn(*args)
        return event

    monkeypatch.setattr(kernel, "heappop", swapping_pop)
    results = []
    for relayed in (False, True):
        sim = Simulator()
        log = []
        _relay_scenario(sim, relayed, log)
        sim.run()
        results.append(([entry for entry in log if entry[1] != "handle"],
                        sim.events_fired))
    assert results[0] == results[1]


def test_bounded_run_relays_like_the_lean_loop():
    reference = Simulator()
    ref_log = []
    _relay_scenario(reference, True, ref_log)
    reference.run()
    sim = Simulator()
    log = []
    _relay_scenario(sim, True, log)
    for stop in (0, 5, 9, 10, 15, 19):
        sim.run(until=stop)
        assert sim.now == stop
    sim.run()
    assert (log, sim.events_fired, sim._seq) == (
        ref_log, reference.events_fired, reference._seq)


def test_profiler_hook_sees_each_relay_under_its_callee():
    from repro.obs.profile import KernelProfiler

    sim = Simulator()
    log = []
    _relay_scenario(sim, True, log)
    profiler = KernelProfiler().attach(sim)
    try:
        sim.run()
    finally:
        profiler.detach()
    relays = {site: cell[0] for site, cell in profiler.sites.items()
              if site.endswith(" [relay]")}
    assert list(relays.values()) == [4]
    assert next(iter(relays)).endswith(".callee [relay]")
    assert profiler.events_profiled == sim.events_fired


# ---------------------------------------------------------------------------
# The ``until`` sentinel: a blank heap entry that ends a bounded run.
# ---------------------------------------------------------------------------
def test_until_past_a_drained_queue_keeps_the_last_event_time():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    assert sim.run(until=100) == 10
    assert (sim.now, sim.pending, sim._queue) == (10, 0, [])


def test_until_with_only_cancelled_entries_past_it_stops_the_clock():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    late = sim.schedule(200, lambda: None)
    late.cancel()
    assert sim.run(until=100) == 100
    assert (sim.now, sim.pending, sim.events_fired) == (100, 0, 1)
    assert len(sim._queue) == 1 and sim._queue[0] is late


def _relay_twins(extra=lambda sim: None):
    """Two identical relay scenarios: one to bound, one as the reference."""
    twins = []
    for _ in range(2):
        sim = Simulator()
        log = []
        _relay_scenario(sim, True, log)
        extra(sim)
        twins.append((sim, log))
    return twins


def _assert_twins_agree(bounded, reference):
    (sim, log), (ref, ref_log) = bounded, reference
    assert (len(sim._queue), sim.pending, sim.now, sim.events_fired) == (
        len(ref._queue), ref.pending, ref.now, ref.events_fired)
    sim.run()
    ref.run()
    assert (log, sim.events_fired, sim._seq, sim.now, len(sim._queue)) == (
        ref_log, ref.events_fired, ref._seq, ref.now, len(ref._queue))


@pytest.mark.parametrize("expect_drain", [False, True])
def test_until_with_a_max_events_that_stops_first_matches_an_unbounded_run(
        expect_drain):
    bounded, reference = _relay_twins()
    reference[0].run(max_events=5)
    if expect_drain:
        with pytest.raises(DeadlockError):
            bounded[0].run(until=100, max_events=5, expect_drain=True)
    else:
        assert bounded[0].run(until=100, max_events=5) == reference[0].now
    _assert_twins_agree(bounded, reference)


def test_until_with_a_raising_callback_matches_an_unbounded_run():
    def add_boom(sim):
        def boom(_arg):
            raise RuntimeError("boom")

        sim.call_at(12, boom, None)

    bounded, reference = _relay_twins(add_boom)
    with pytest.raises(RuntimeError):
        reference[0].run()
    with pytest.raises(RuntimeError):
        bounded[0].run(until=100)
    _assert_twins_agree(bounded, reference)


def test_pending_read_during_a_bounded_run_never_counts_the_bound():
    sim = Simulator()
    seen = []
    for delay in (10, 20, 30):
        sim.schedule(delay, lambda: seen.append(sim.pending))
    sim.run(until=25)
    assert seen == [2, 1]
    assert sim.pending == 1
