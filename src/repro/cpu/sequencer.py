"""Per-processor sequencer: the boundary between threads and coherence.

The sequencer forwards one memory operation at a time to its L1 data
cache controller and samples completion latency.  The simplified core
model is blocking (one outstanding memory operation per processor); the
think-time directives in workloads model computation between references.
"""

from __future__ import annotations

from typing import Callable

from repro.common.stats import Stats
from repro.cpu.ops import Fetch
from repro.sim.kernel import Simulator


class Sequencer:
    """Issues memory operations for one processor.

    Data operations go to the L1 data cache; instruction fetches go to
    the L1 instruction cache (when the protocol build provides one —
    PerfectL2 builds a second magic L1 for code).
    """

    def __init__(self, sim: Simulator, proc: int, l1d, stats: Stats, l1i=None):
        self.sim = sim
        self.proc = proc
        self.l1d = l1d
        self.l1i = l1i if l1i is not None else l1d
        self.stats = stats
        self._busy = False
        # Per-processor progress, read by the liveness watchdog: a starved
        # processor is one whose ``last_complete_ps`` stops advancing.
        self.ops_completed = 0
        self.last_complete_ps = 0
        # The core is blocking (one outstanding op), so the completion
        # callback is one stable bound method with the per-op state held
        # on the sequencer — no closure per issued operation.
        self._start = 0
        self._done: Callable[[int], None] = lambda value: None
        self._complete = self._op_complete
        self._latency = stats.summaries["seq.latency_ps"]

    def issue(self, op, done: Callable[[int], None]) -> None:
        """Start ``op``; ``done(result)`` fires at completion time."""
        assert not self._busy, f"proc {self.proc}: second op while one outstanding"
        self._busy = True
        self._start = self.sim.now
        self._done = done
        self.stats.counters["seq.ops"] += 1
        target = self.l1i if isinstance(op, Fetch) else self.l1d
        target.access(op, self._complete)

    def _op_complete(self, value: int) -> None:
        self._busy = False
        self.ops_completed += 1
        now = self.sim.now
        self.last_complete_ps = now
        self._latency.add(now - self._start)
        self._done(value)

    def issue_batch(self, ops, done: Callable[[list], None]) -> None:
        """Issue independent ops concurrently; ``done(results)`` when all
        complete (results in op order).  Ops must hit distinct blocks."""
        assert not self._busy, f"proc {self.proc}: batch while op outstanding"
        blocks = [self.l1d.params.block_of(op.addr) for op in ops]
        if len(set(blocks)) != len(blocks):
            raise ValueError("batch operations must target distinct blocks")
        self._busy = True
        start = self.sim.now
        self.stats.bump("seq.ops", len(ops))
        self.stats.bump("seq.batches")
        results = [None] * len(ops)
        remaining = {"n": len(ops)}

        def _one(index: int):
            def _complete(value) -> None:
                results[index] = value
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    self._busy = False
                    self.ops_completed += 1
                    self.last_complete_ps = self.sim.now
                    self.stats.sample("seq.latency_ps", self.sim.now - start)
                    done(results)
            return _complete

        for index, op in enumerate(ops):
            target = self.l1i if isinstance(op, Fetch) else self.l1d
            target.access(op, _one(index))
