"""Token-coherence L1 controller: processor requests and the performance
policy's transient/persistent escalation ladder (Table 1 variants).

The L1 data cache is where processor misses turn into coherence activity:

1. broadcast a transient request within the CMP (the home L2 bank decides
   whether to escalate it off-chip),
2. on timeout, either retry (TokenCMP-dst4), or fall back to the
   correctness substrate's persistent request (everything else) —
   immediately for the ``*0`` variants, or preemptively when the
   contention predictor fires (TokenCMP-dst1-pred).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from repro.common.rng import substream
from repro.common.types import NodeId, NodeKind, classify_source
from repro.core.base import TokenCacheController, holders_and_home, home_banks
from repro.core.predictor import ContentionPredictor
from repro.core.timeout import TimeoutEstimator
from repro.cpu.ops import Load, Rmw, Store, is_write
from repro.interconnect.message import Message, MsgType


@dataclasses.dataclass
class Transaction:
    """One outstanding L1 miss."""

    op: object
    addr: int
    done: Callable[[int], None]
    start_ps: int
    is_write: bool
    retries: int = 0
    persistent: bool = False
    waiting_wave: bool = False  # blocked by the marking rule
    timer: Optional[list] = None  # kernel record (Simulator.cancel)
    data_source: Optional[str] = None  # who supplied the data (profiling)
    recreate_timer: Optional[list] = None  # recovery tier above persistent
    recreate_attempts: int = 0


class TokenL1Controller(TokenCacheController):
    """L1 cache (data or instruction) in the TokenCMP protocol."""

    # Recreation escalation is armed by Machine.enable_recovery() only on
    # machines with a lossy/crashy fault model: on a reliable fabric the
    # persistent tier already guarantees liveness, and arming the extra
    # timer would perturb event ordering of fault-free runs.
    recovery_enabled = False

    def __init__(self, *args, proc: int, seed: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.proc = proc
        self.prio = self.params.persistent_priority(proc)
        self.estimator = TimeoutEstimator()
        self.predictor = (
            ContentionPredictor(seed=seed + proc) if self.cfg.use_predictor else None
        )
        self.rng = substream(seed, "l1", self.node)
        self.destset = None  # per-chip predictor, wired by the builder
        self._tx: Dict[int, Transaction] = {}
        # Destination sets: the chip's other L1s are fixed, and the rest
        # is keyed by ``params.interleave_residue(addr)``: one tuple per
        # (residue, scope) instead of a rebuilt list on every miss,
        # derived from the machine-wide tables
        # (``holders_and_home``, ``home_banks``).  Each tuple is interned
        # by content through the network (``Network.intern_dests``), so
        # equal sets share one tuple and one fan-out plan.
        self._chip_peers: Tuple[NodeId, ...] = tuple(
            n for n in self.params.chip_l1s(self.chip) if n != self.node
        )
        self._dests_local: Dict[int, Tuple[NodeId, ...]] = {}
        self._dests_global: Dict[int, Tuple[NodeId, ...]] = {}
        self._pers_dests: Dict[int, Tuple[NodeId, ...]] = {}

    def _writeback_destination(self, addr: int) -> NodeId:
        return self.params.l2_bank(addr, self.chip)

    def outstanding_tx(self) -> Tuple[int, int]:
        """(outstanding transactions, of which persistent) — telemetry."""
        total = len(self._tx)
        persistent = sum(1 for tx in self._tx.values() if tx.persistent)
        return total, persistent

    # ------------------------------------------------------------------
    # Processor interface.
    # ------------------------------------------------------------------
    def access(self, op, done: Callable[[int], None]) -> None:
        """Perform a memory operation; ``done(result)`` at completion."""
        addr = self.params.block_of(op.addr)
        # One kernel record: the kernel passes a callback exactly one
        # argument, so op, addr and done ride in one tuple.
        self.sim.call_after(self.lookup_latency_ps, self._attempt, (op, addr, done))

    def _attempt(self, pack) -> None:
        op, addr, done = pack
        entry = self.array.lookup(addr)
        write = is_write(op)
        if entry is not None and (
            entry.can_write(self.params.tokens_per_block) if write else entry.can_read()
        ):
            self._counters["l1.hits"] += 1
            done(self._perform(op, addr))
            return
        self._counters["l1.misses"] += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.tx_issue(self.node, addr, write)
        tx = Transaction(
            op=op, addr=addr, done=done, start_ps=self.sim.now, is_write=write
        )
        self._tx[addr] = tx
        self._start_policy(tx)

    def _perform(self, op, addr: int) -> int:
        """Execute the operation against the (now permitted) entry."""
        entry = self.array.lookup(addr)
        old = entry.value
        if isinstance(op, Store):
            entry.value = op.value
        elif isinstance(op, Rmw):
            entry.value = op.fn(old)
        else:
            return old
        entry.dirty = True
        if self.cfg.response_delay:
            # Rajwar-style response delay: an atomic (lock acquire) arms a
            # bounded hold so the critical section completes before the
            # block can be stolen; a subsequent plain store to the same
            # block (the lock release) disarms it so hand-off is instant.
            if isinstance(op, Rmw):
                entry.hold_until = max(
                    entry.hold_until, self.sim.now + self.params.response_delay_ps
                )
            else:
                entry.hold_until = self.sim.now
                self._flush_deferred(addr)
        return old

    # ------------------------------------------------------------------
    # Performance policy: transient requests, retries, escalation.
    # ------------------------------------------------------------------
    def _start_policy(self, tx: Transaction) -> None:
        if self.cfg.max_transient == 0:
            self._go_persistent(tx)
            return
        if self.predictor is not None and self.predictor.predict_contended(tx.addr):
            self.stats.bump("policy.predicted_contended")
            self._go_persistent(tx)
            return
        self._send_transient(tx, global_=False)
        tx.timer = self.sim.call_after(self.estimator.threshold_ps(), self._on_timeout, tx)

    def _transient_destinations(self, addr: int, global_: bool) -> Tuple[NodeId, ...]:
        if self.cfg.flat_policy:
            # TokenB: flat broadcast to every other cache in the machine
            # and home memory, i.e. the persistent set.
            return self._persistent_broadcast_set(addr)
        key = self.params.interleave_residue(addr)
        cache = self._dests_global if global_ else self._dests_local
        cached = cache.get(key)
        if cached is not None:
            return cached
        banks = home_banks(self.net, self.params, addr)
        own_bank = banks[self.chip]
        dests = [*self._chip_peers, own_bank]
        if global_:
            dests.extend(bank for bank in banks if bank != own_bank)
            dests.append(self.params.home_mem(addr))
        cache[key] = cached = self.net.intern_dests(tuple(dests))
        return cached

    def _send_transient(self, tx: Transaction, global_: bool) -> None:
        mtype = MsgType.TOK_GETX if tx.is_write else MsgType.TOK_GETS
        self.stats.bump("policy.transient_requests")
        dests = self._transient_destinations(tx.addr, global_)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.tx_transient(self.node, tx.addr, global_, len(dests))
        self.net.send_fanout(
            Message(mtype, self.node, self.node, tx.addr, requestor=self.node), dests
        )

    def _on_timeout(self, tx: Transaction) -> None:
        if self._tx.get(tx.addr) is not tx:
            return  # completed meanwhile
        if self.predictor is not None:
            self.predictor.train_timeout(tx.addr)
        if tx.retries + 1 < self.cfg.max_transient:
            tx.retries += 1
            self.stats.bump("policy.retries")
            # Bounded exponential backoff with pseudo-random jitter avoids
            # lock-step retry storms (Section 4): the wait before the next
            # broadcast grows with the retry count, and the jitter spreads
            # colliding requestors apart.
            backoff = int(self.rng.random() * self.estimator.threshold_ps(tx.retries) / 2)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.tx_retry(self.node, tx.addr, tx.retries, backoff)
            tx.timer = self.sim.call_after(backoff, self._retry, tx)
        else:
            self._go_persistent(tx)

    def _retry(self, tx: Transaction) -> None:
        if self._tx.get(tx.addr) is not tx:
            return
        self._send_transient(tx, global_=True)
        tx.timer = self.sim.call_after(
            self.estimator.threshold_ps(tx.retries), self._on_timeout, tx
        )

    # ------------------------------------------------------------------
    # Persistent requests (the correctness substrate takes over).
    # ------------------------------------------------------------------
    def _go_persistent(self, tx: Transaction) -> None:
        tx.persistent = True
        read = not tx.is_write
        self.stats.bump("persistent.requests")
        if read:
            self.stats.bump("persistent.reads")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.tx_persistent(self.node, tx.addr, read, self.cfg.activation)
        if self.cfg.activation == "arb":
            self.net.send(
                Message(
                    mtype=MsgType.PERSIST_REQ,
                    src=self.node,
                    dst=self.params.home_arbiter(tx.addr),
                    addr=tx.addr,
                    requestor=self.node,
                    prio=self.prio,
                    read=read,
                    extra=self.proc,
                )
            )
        else:
            if self.table.has_marked_for(tx.addr):
                tx.waiting_wave = True  # wait for the current wave to drain
                self.stats.bump("persistent.wave_blocked")
            else:
                self._dst_activate(tx, read)
        if self.recovery_enabled and tx.recreate_timer is None:
            # Recovery tier above persistent requests: if even persistent
            # arbitration cannot complete this transaction, its tokens
            # were probably destroyed — ask the ruler to recreate them.
            tx.recreate_timer = self.sim.call_after(
                self.estimator.recreation_threshold_ps(), self._on_recreate_timeout, tx
            )

    def _on_recreate_timeout(self, tx: Transaction) -> None:
        if self._tx.get(tx.addr) is not tx:
            return  # completed meanwhile
        self.stats.bump("recovery.escalations")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.tx_recreate(self.node, tx.addr, tx.recreate_attempts)
        out = self.pool.acquire(
            MsgType.TOK_RECREATE_REQ, self.node, self.params.home_mem(tx.addr), tx.addr
        )
        out.requestor = self.node
        out.read = not tx.is_write
        self.net.send(out)
        tx.recreate_attempts += 1
        # Jittered exponential backoff, like the transient retry path: the
        # request (or the grant it produces) may itself be lost, so keep
        # retrying — but never in lock step with other starving requestors.
        wait = self.estimator.recreation_threshold_ps(tx.recreate_attempts)
        jitter = int(self.rng.random() * wait / 2)
        tx.recreate_timer = self.sim.call_after(
            wait + jitter, self._on_recreate_timeout, tx
        )

    def _dst_activate(self, tx: Transaction, read: bool) -> None:
        tx.waiting_wave = False
        from repro.core.persistent import PersistentEntry

        tracer = self.sim.tracer
        if tracer is not None:
            tracer.persist_activate(
                self.node, tx.addr, requestor=self.node, prio=self.prio, scheme="dst"
            )
        self.table.insert(
            PersistentEntry(
                proc=self.proc, requestor=self.node, addr=tx.addr, read=read, prio=self.prio
            )
        )
        template = Message(
            MsgType.PERSIST_ACTIVATE, self.node, self.node, tx.addr,
            requestor=self.node, prio=self.prio, read=read, extra=self.proc,
        )
        self.net.send_fanout(template, self._persistent_broadcast_set(tx.addr))
        self._token_state_changed(tx.addr)

    def _persistent_broadcast_set(self, addr: int) -> Tuple[NodeId, ...]:
        key = self.params.interleave_residue(addr)
        cached = self._pers_dests.get(key)
        if cached is not None:
            return cached
        holders = holders_and_home(self.net, self.params, addr)
        self._pers_dests[key] = cached = self.net.intern_dests(
            tuple(n for n in holders if n != self.node)
        )
        return cached

    def _deactivate(self, tx: Transaction) -> None:
        if self.cfg.activation == "arb":
            self.net.send(
                Message(
                    mtype=MsgType.PERSIST_DEACTIVATE,
                    src=self.node,
                    dst=self.params.home_arbiter(tx.addr),
                    addr=tx.addr,
                    requestor=self.node,
                    extra=self.proc,
                )
            )
            return
        # Distributed scheme: remove our entry locally, mark the wave,
        # and broadcast the deactivation; the next-highest request becomes
        # active everywhere and our own table forwards the block directly.
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.persist_deactivate(
                self.node, tx.addr, requestor=self.node, scheme="dst"
            )
        self.table.remove(self.proc, tx.addr)
        self.table.mark_all_for(tx.addr)
        template = Message(
            MsgType.PERSIST_DEACTIVATE, self.node, self.node, tx.addr,
            requestor=self.node, extra=self.proc,
        )
        self.net.send_fanout(template, self._persistent_broadcast_set(tx.addr))

    def _on_deactivate(self, msg: Message) -> None:
        super()._on_deactivate(msg)
        # The marking rule may now allow a deferred persistent request.
        for tx in list(self._tx.values()):
            if tx.waiting_wave and not self.table.has_marked_for(tx.addr):
                self._dst_activate(tx, read=not tx.is_write)

    # ------------------------------------------------------------------
    # Substrate hooks.
    # ------------------------------------------------------------------
    def _evictable(self, addr: int, entry) -> bool:
        return addr not in self._tx

    def _hook_absorbed(self, msg: Message) -> None:
        # TokenCMP estimates timeouts from memory responses only; TokenB
        # averaged ALL responses, which the paper found causes retry
        # bursts in an M-CMP (fast on-chip hits dominate the average).
        if self.cfg.flat_policy or msg.src.kind is NodeKind.MEM:
            tx = self._tx.get(msg.addr)
            if tx is not None:
                self.estimator.observe_memory_response(self.sim.now - tx.start_ps)
        if msg.data is not None:
            tx = self._tx.get(msg.addr)
            if tx is not None:
                tx.data_source = classify_source(msg.src, self.chip)
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.tx_data(self.node, msg.addr, tx.data_source)
        if (
            self.destset is not None
            and msg.src.chip != self.chip
            and msg.src.kind is not NodeKind.MEM
        ):
            # A remote chip supplied tokens: remember it as a likely holder.
            self.destset.train(msg.addr, msg.src.chip)

    def _maybe_complete(self, addr: int) -> None:
        tx = self._tx.get(addr)
        if tx is None:
            return
        entry = self.array.peek(addr)
        if entry is None:
            return
        satisfied = (
            entry.can_write(self.params.tokens_per_block)
            if tx.is_write
            else entry.can_read()
        )
        if not satisfied:
            return
        del self._tx[addr]
        if tx.timer is not None:
            self.sim.cancel(tx.timer)
        if tx.recreate_timer is not None:
            self.sim.cancel(tx.recreate_timer)
        result = self._perform(tx.op, addr)
        self.stats.sample("l1.miss_latency_ps", self.sim.now - tx.start_ps)
        source = tx.data_source or "tokens-only"
        if tx.persistent:
            source += "+persistent"
        self.stats.bump(f"miss.src.{source}")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.tx_complete(
                self.node, addr,
                latency_ps=self.sim.now - tx.start_ps,
                source=source, persistent=tx.persistent, retries=tx.retries,
            )
        if tx.persistent and not tx.waiting_wave:
            self._deactivate(tx)
            self._token_state_changed(addr)  # hand contended block onward
        tx.done(result)

