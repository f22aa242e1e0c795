"""Kernel profiler: where does wall-clock time go while simulating?

:class:`KernelProfiler` attaches to a :class:`~repro.sim.kernel.Simulator`
through two hooks:

* the **dispatch hook**: :meth:`KernelProfiler.attach` swaps
  ``repro.sim.kernel.heappop`` for a pop that, for the attached
  simulator's heap only, puts a timing trampoline in each live entry's
  callback slot, so every event callback is timed with
  :func:`time.perf_counter_ns` and aggregated per *callback site*
  (``module.qualname``) — fired-event counts and wall-time totals per
  handler.  A lookup hop the kernel relays (see
  :meth:`~repro.sim.kernel.Simulator.relay_at`) is an event with no
  handler frame; its record is counted, with no wall time, under the
  site ``<callee site> [relay]``, so the per-site counts still sum to
  the events fired.  :meth:`KernelProfiler.detach` restores the pop
  (and removes the rate watcher below);
* the **watcher hook** (:meth:`Simulator.add_watcher`): a periodic tick
  snapshots ``(simulated time, events fired, wall clock)`` so the report
  can show the simulation rate (events per wall-second, simulated ns per
  wall-second) over the run.

Wall-clock numbers are inherently nondeterministic, so profiler output is
never part of a trace file — the determinism contract covers traces and
simulation results only.  Attaching a profiler does not perturb the
simulation itself (no events, no RNG).
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Tuple

from repro.sim import kernel


def _site(fn) -> str:
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    return f"{module}.{qualname}"


class KernelProfiler:
    """Per-callback-site wall-time and event-count histograms."""

    def __init__(self, rate_every_events: int = 8192):
        # site -> [fired events, total wall ns, max wall ns]
        self.sites: Dict[str, List[int]] = {}
        self.rate_every_events = rate_every_events
        # (sim ps, fired, wall ns, allocated blocks)
        self._rates: List[Tuple[int, int, int, int]] = []
        self._sim = None
        self._saved_pop = None  # the heappop attach() replaced
        self._fn = None  # callback behind the trampoline being popped

    # ------------------------------------------------------------------
    def attach(self, sim) -> "KernelProfiler":
        """Observe ``sim``'s dispatch (until :meth:`detach`) and rate."""
        self._sim = sim
        sim.add_watcher(self._rate_tick, self.rate_every_events)
        self._rate_tick()
        self._saved_pop = inner = kernel.heappop
        heap = sim._queue
        count = self._count
        timed = self._timed

        def pop(queue):
            event = inner(queue)
            if queue is heap:
                fn = event[2]
                if fn is not None:
                    if event[4]:  # relayed hop
                        count(f"{_site(event[5])} [relay]", 0)
                    else:  # the kernel calls it right after this pop
                        self._fn = fn
                        event[2] = timed
            return event

        kernel.heappop = pop
        return self

    def detach(self) -> None:
        """Restore the kernel's ``heappop`` and remove the rate watcher;
        a no-op when not attached."""
        if self._saved_pop is not None:
            kernel.heappop = self._saved_pop
            self._saved_pop = None
            self._sim.remove_watcher(self._rate_tick)

    def _timed(self, *args) -> None:
        fn = self._fn
        start_ns = time.perf_counter_ns()
        fn(*args)
        self._count(_site(fn), time.perf_counter_ns() - start_ns)

    def _count(self, site: str, wall_ns: int) -> None:
        cell = self.sites.get(site)
        if cell is None:
            cell = self.sites[site] = [0, 0, 0]
        cell[0] += 1
        cell[1] += wall_ns
        if wall_ns > cell[2]:
            cell[2] = wall_ns

    def _rate_tick(self) -> None:
        sim = self._sim
        self._rates.append(
            (sim.now, sim.events_fired, time.perf_counter_ns(),
             sys.getallocatedblocks())
        )

    # ------------------------------------------------------------------
    @property
    def events_profiled(self) -> int:
        return sum(cell[0] for cell in self.sites.values())

    @property
    def total_wall_ns(self) -> int:
        return sum(cell[1] for cell in self.sites.values())

    def top_sites(self, n: int = 20) -> List[Tuple[str, int, int, int]]:
        """(site, events, total_wall_ns, max_wall_ns), by wall time."""
        rows = [
            (site, cell[0], cell[1], cell[2]) for site, cell in self.sites.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows[:n]

    def alloc_counters(self) -> Dict[str, int]:
        """The ``alloc.*`` probe family sampled at the rate ticks.

        ``alloc.blocks_delta`` (net ``sys.getallocatedblocks()`` growth
        between the first and last tick) depends on process history and
        gc timing, so it is observational only — like wall time, it never
        enters the deterministic projection.  See docs/observability.md.
        """
        if len(self._rates) < 2:
            return {"alloc.blocks_delta": 0}
        return {"alloc.blocks_delta": self._rates[-1][3] - self._rates[0][3]}

    def to_dict(self) -> dict:
        """Deterministic projection of the profile.

        Wall-clock and allocator-block fields (total/max ns per site,
        the rate snapshots' wall and blocks columns) are *excluded* —
        what remains (per-site fired-event counts and the ``(sim ps,
        events fired)`` rate checkpoints) is a pure function of the
        simulation, so the projection can ride the canonical-JSON path
        and be compared across runs with ``python -m repro diff``.
        """
        return {
            "schema": "repro.profile/1",
            "sites": {
                site: cell[0] for site, cell in sorted(self.sites.items())
            },
            "events_profiled": self.events_profiled,
            "rate_every_events": self.rate_every_events,
            "rates": [[sim_ps, fired]
                      for sim_ps, fired, _wall, _blocks in self._rates],
        }

    def report(self, top: int = 20) -> str:
        """Human-readable profile: hot callback sites + simulation rate."""
        lines = [
            f"kernel profile: {self.events_profiled} events, "
            f"{self.total_wall_ns / 1e6:.1f} ms handler wall time"
        ]
        lines.append(
            f"  {'callback site':52s} {'events':>9s} {'total ms':>9s}"
            f" {'avg us':>8s} {'max us':>8s}"
        )
        for site, count, total, peak in self.top_sites(top):
            lines.append(
                f"  {site[:52]:52s} {count:9d} {total / 1e6:9.2f}"
                f" {total / count / 1e3:8.2f} {peak / 1e3:8.2f}"
            )
        if len(self._rates) >= 2:
            sim0, fired0, wall0, blocks0 = self._rates[0]
            sim1, fired1, wall1, blocks1 = self._rates[-1]
            wall_s = max(1e-9, (wall1 - wall0) / 1e9)
            lines.append(
                f"  rate: {(fired1 - fired0) / wall_s:,.0f} events/s, "
                f"{(sim1 - sim0) / 1e3 / wall_s:,.0f} simulated ns/s "
                f"over {len(self._rates) - 1} watcher intervals"
            )
            lines.append(
                f"  alloc: {blocks1 - blocks0:+d} allocator blocks "
                f"across the profiled span"
            )
        return "\n".join(lines)
