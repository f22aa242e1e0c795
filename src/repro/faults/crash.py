"""Seeded controller-crash fault: wipe a cache's token soft-state.

The paper's robustness story (Section 7) covers more than a lossy
fabric: a controller that loses its soft state (soft error, reset) must
not wedge the system.  :class:`CrashInjector` models exactly that — at a
pinned simulated time it erases one L1/L2's entire token table (tokens,
owner bits, cached values, the lot).  The destroyed tokens are debited
in the machine's :class:`~repro.recovery.ledger.RecoveryLedger`, so the
epoch-aware conservation invariant keeps holding, and the recreation
tier (timeout-driven ``TOK_RECREATE_REQ`` to the ruler of tokens)
restores the block's full token set when somebody next starves on it.

Everything is seeded and pinned in picoseconds, so a crash campaign cell
is exactly reproducible — serially, under ``Runner --jobs N``, and from
the content-addressed cache.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.common.rng import substream


@dataclasses.dataclass(frozen=True)
class CrashSpec:
    """One controller crash: who (level + victim) and when (ps).

    ``victim`` indexes the level's controller list (L1 data caches in
    processor order, or L2 banks in chip/bank order); ``None`` picks one
    from the seeded substream.  The index is taken modulo the list length
    so campaign grids can sweep victims without knowing the topology.
    """

    level: str = "l1"  # "l1" | "l2"
    at_ps: int = 1_000_000
    victim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.level not in ("l1", "l2"):
            raise ValueError(f"crash level {self.level!r} not in ('l1', 'l2')")
        if self.at_ps <= 0:
            raise ValueError("crash time must be a positive ps instant")


class CrashInjector:
    """Wipes one cache controller's token soft-state at ``spec.at_ps``."""

    def __init__(self, machine, spec: CrashSpec, seed: int = 0):
        machine.enable_recovery()  # wiped tokens need the recreation tier
        self.machine = machine
        self.spec = spec
        self.stats = machine.stats
        self.fired = False
        targets = self._targets(machine, spec.level)
        if not targets:
            raise ValueError(f"no {spec.level} controllers to crash")
        if spec.victim is not None:
            index = spec.victim % len(targets)
        else:
            index = substream(seed, "crash", spec.level, spec.at_ps).randrange(
                len(targets)
            )
        self.victim = targets[index]
        machine.sim.call_at(spec.at_ps, self._fire, None)

    @staticmethod
    def _targets(machine, level: str):
        if level == "l1":
            return list(machine.l1ds)
        from repro.core.l2 import TokenL2Controller

        return [c for c in machine.controllers.values()
                if isinstance(c, TokenL2Controller)]

    # ------------------------------------------------------------------
    def _fire(self, _) -> None:
        ctrl = self.victim
        ledger = self.machine.recovery  # wired by enable_recovery() in ctor
        wiped_tokens = 0
        wiped_blocks = 0
        for addr, entry in list(ctrl.array.items()):
            if entry.empty:
                ctrl.array.deallocate(addr)
                continue
            # Tokens the victim knew to be stale (an epoch bump it has
            # already processed) are walking dead either way; only
            # current-epoch tokens are genuinely destroyed.
            stale = ctrl._block_epoch.get(addr, 0) < self.machine.block_epoch(addr)
            if stale:
                self.stats.bump("recovery.stale_tokens", entry.tokens)
            else:
                ledger.destroy(
                    addr, entry.tokens, entry.owner,
                    dirty=entry.owner and entry.dirty,
                )
            wiped_tokens += entry.tokens
            wiped_blocks += 1
            entry.take(entry.tokens, entry.owner)
            ctrl.array.deallocate(addr)
        self.fired = True
        self.stats.bump("crash.fired")
        self.stats.bump("crash.tokens_wiped", wiped_tokens)
        self.stats.bump("crash.blocks_wiped", wiped_blocks)
        tracer = self.machine.sim.tracer
        if tracer is not None:
            tracer.crash(ctrl.node, wiped_blocks, wiped_tokens)
