"""Token-coherence memory controller.

Memory is just another (very large) token holder: initially it owns all
``T`` tokens of every block homed at it.  It answers transient and
persistent requests by the same counting rules as the caches, with DRAM
latency added whenever it must read data.  Because the owner token always
travels with data, writing the image whenever the owner token returns is
sufficient to keep memory up to date.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId
from repro.core.base import holders_and_home
from repro.core.persistent import PersistentEntry, PersistentTable, persistent_read_share
from repro.interconnect.message import Message, MessagePool, MsgType
from repro.interconnect.network import Network
from repro.memory.dram import MemoryImage
from repro.sim.kernel import Simulator

# Hot dispatch ladders compare against module aliases: a global load
# instead of an enum-class attribute lookup per test.
_TOK_GETS = MsgType.TOK_GETS
_TOK_GETX = MsgType.TOK_GETX
_TOK_DATA = MsgType.TOK_DATA
_TOK_ACK = MsgType.TOK_ACK
_TOK_WB = MsgType.TOK_WB
_TOK_WB_DATA = MsgType.TOK_WB_DATA
_PERSIST_ACTIVATE = MsgType.PERSIST_ACTIVATE
_PERSIST_DEACTIVATE = MsgType.PERSIST_DEACTIVATE
_TOK_RECREATE_REQ = MsgType.TOK_RECREATE_REQ
_TOK_RECREATE_ACK = MsgType.TOK_RECREATE_ACK
_TOK_RECREATE_DATA = MsgType.TOK_RECREATE_DATA


class _Recreation:
    """One in-progress token recreation (epoch bump) at the home node."""

    __slots__ = ("epoch", "requestor", "read", "started_ps", "acked")

    def __init__(self, epoch: int, requestor: NodeId, read: bool, started_ps: int):
        self.epoch = epoch
        self.requestor = requestor
        self.read = read
        self.started_ps = started_ps
        self.acked: Set[NodeId] = set()


class TokenMemController:
    """Home memory controller in the TokenCMP protocol."""

    def __init__(
        self,
        node: NodeId,
        sim: Simulator,
        net: Network,
        params: SystemParams,
        stats: Stats,
        cfg,
    ):
        self.node = node
        self.sim = sim
        self.net = net
        self.params = params
        self.stats = stats
        self.cfg = cfg
        self.image = MemoryImage()
        self.table = PersistentTable()
        self._tokens: Dict[int, int] = {}
        self._owner: Dict[int, bool] = {}
        # Token recreation (recovery tier): memory is the ruler of tokens
        # and owns each home block's recreation epoch.  ``ledger`` is the
        # shared RecoveryLedger, wired by Machine.enable_recovery().
        self._epoch: Dict[int, int] = {}
        self._recreating: Dict[int, _Recreation] = {}
        self.ledger = None
        pool = getattr(net, "pool", None)
        self.pool: MessagePool = pool if pool is not None else MessagePool()
        # Hot-path bindings, resolved once instead of per message.
        self._call_after = sim.call_after
        self._process_cb = self._process
        # The kernel relays the lookup hop (``handle``'s whole body).
        net.register(node, self.handle, params.mem_ctrl_latency_ps, self._process_cb)

    # ------------------------------------------------------------------
    def tokens_of(self, addr: int) -> int:
        return self._tokens.get(addr, self.params.tokens_per_block)

    def is_owner(self, addr: int) -> bool:
        return self._owner.get(addr, True)

    def epoch_of(self, addr: int) -> int:
        """The block's current recreation epoch (0 = never recreated)."""
        return self._epoch.get(addr, 0)

    def is_recreating(self, addr: int) -> bool:
        return addr in self._recreating

    def pending_recreations(self) -> int:
        """Number of in-progress recreation epochs (telemetry gauge)."""
        return len(self._recreating)

    def recreating_blocks(self) -> Tuple[Tuple[int, int, int], ...]:
        """(addr, epoch, outstanding acks) per in-progress recreation."""
        return tuple(
            (addr, rec.epoch, self.params.num_caches - len(rec.acked))
            for addr, rec in sorted(self._recreating.items())
        )

    def _set(self, addr: int, tokens: int, owner: bool) -> None:
        self._tokens[addr] = tokens
        self._owner[addr] = owner

    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Network entry point: model the lookup latency, then act.

        Untraced, unfaulted deliveries skip this frame: the kernel
        relays the hop itself (registered in ``__init__``)."""
        self._call_after(self.params.mem_ctrl_latency_ps, self._process_cb, msg)

    def _process(self, msg: Message) -> None:
        t = msg.mtype
        if t in (_TOK_GETS, _TOK_GETX):
            self._on_transient(msg)
        elif t in (_TOK_DATA, _TOK_ACK, _TOK_WB, _TOK_WB_DATA):
            self._on_tokens(msg)
        elif t is _PERSIST_ACTIVATE:
            self.table.insert(
                PersistentEntry(
                    proc=msg.extra, requestor=msg.requestor, addr=msg.addr,
                    read=msg.read, prio=msg.prio,
                )
            )
            self._forward_check(msg.addr)
        elif t is _PERSIST_DEACTIVATE:
            self.table.remove(msg.extra, msg.addr)
            self._forward_check(msg.addr)
        elif t is _TOK_RECREATE_REQ:
            self._on_recreate_req(msg)
        elif t in (_TOK_RECREATE_ACK, _TOK_RECREATE_DATA):
            self._on_recreate_ack(msg)
        else:  # pragma: no cover - defensive
            raise ValueError(f"{self.node}: unexpected message {msg}")

    # ------------------------------------------------------------------
    # Token recreation: the ruler of tokens (Sections 3 & 7).
    #
    # A starving requestor whose persistent request has outlived even the
    # recreation timeout asks its home memory controller to *recreate*
    # the block's tokens.  Memory bumps the block's recreation epoch and
    # broadcasts the new epoch to every possible token holder; each cache
    # discards its (now stale) tokens and acks, the previous owner's data
    # riding along on the ack.  Once every holder has acked, no cache
    # holds or will ever absorb an old-epoch token (stale carriers are
    # discarded on arrival), so memory can safely reconstitute the full
    # token set — single-owner safety is preserved because old-epoch
    # owner tokens are dead on arrival everywhere.
    # ------------------------------------------------------------------
    def _on_recreate_req(self, msg: Message) -> None:
        addr = msg.addr
        rec = self._recreating.get(addr)
        if rec is not None:
            # A retry from a still-starving requestor: the bump or some
            # surrender acks were lost.  Re-broadcast to the holdouts.
            self._broadcast_epoch(addr, rec, only_unacked=True)
            return
        epoch = self.epoch_of(addr) + 1
        self._epoch[addr] = epoch
        rec = _Recreation(
            epoch=epoch, requestor=msg.requestor, read=msg.read,
            started_ps=self.sim.now,
        )
        self._recreating[addr] = rec
        self.stats.bump("recovery.recreations")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.recreate_epoch(self.node, addr, epoch, msg.requestor)
        self._broadcast_epoch(addr, rec)

    def _broadcast_epoch(self, addr: int, rec: _Recreation,
                         only_unacked: bool = False) -> None:
        template = Message(
            MsgType.TOK_RECREATE_EPOCH, self.node, self.node, addr, epoch=rec.epoch
        )
        holders = holders_and_home(self.net, self.params, addr)[:-1]  # not memory
        if only_unacked:
            holders = tuple(dst for dst in holders if dst not in rec.acked)
        self.net.send_fanout(template, holders)

    def _on_recreate_ack(self, msg: Message) -> None:
        addr = msg.addr
        rec = self._recreating.get(addr)
        if rec is None or msg.epoch != rec.epoch:
            return  # stale or duplicated ack from an already-closed epoch
        rec.acked.add(msg.src)
        if msg.mtype is MsgType.TOK_RECREATE_DATA:
            # The surrendering cache held the owner token: its copy is the
            # canonical value and must seed the recreated block.
            assert msg.data is not None, "owner surrender must carry data"
            self.image.write(addr, msg.data)
        if len(rec.acked) == self.params.num_caches:  # every token holder
            self._finish_recreation(addr, rec)

    def _finish_recreation(self, addr: int, rec: _Recreation) -> None:
        del self._recreating[addr]
        self._set(addr, self.params.tokens_per_block, True)
        if self.ledger is not None:
            self.ledger.recreated(addr)
        self.stats.bump("recovery.completed")
        self.stats.sample("recovery.recreation_ps", self.sim.now - rec.started_ps)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.recreate_done(self.node, addr, rec.epoch,
                                 latency_ps=self.sim.now - rec.started_ps)
        # Serve the starving initiator.  If a persistent request is active
        # the normal forwarding rules apply (arbitration stays fair);
        # otherwise — its activate may itself have been lost — grant the
        # full set directly (E-analogue) so the requestor finishes in one
        # transfer.
        if self.table.active_for(addr) is not None:
            self._forward_check(addr)
        else:
            self._respond(rec.requestor, addr,
                          give=self.params.tokens_per_block, give_owner=True)

    def _discard_stale(self, msg: Message) -> None:
        """An old-epoch token carrier arrived: it is dead on arrival."""
        self.net.token_absorbed(msg)
        self.stats.bump("recovery.stale_discarded")
        self.stats.bump("recovery.stale_tokens", msg.tokens)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.stale_discard(self.node, msg, self.epoch_of(msg.addr))

    # ------------------------------------------------------------------
    def _on_tokens(self, msg: Message) -> None:
        if msg.epoch < self.epoch_of(msg.addr):
            self._discard_stale(msg)
            return
        self.net.token_absorbed(msg)  # retire in-flight conservation tracking
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.token_absorb(self.node, msg)
        addr = msg.addr
        tokens = self.tokens_of(addr) + msg.tokens
        owner = self.is_owner(addr)
        if msg.owner:
            owner = True
            assert msg.data is not None, "owner token must carry data"
            self.image.write(addr, msg.data)
        self._set(addr, tokens, owner)
        self.stats.bump("mem.token_returns")
        self._forward_check(addr)

    def _on_transient(self, msg: Message) -> None:
        addr = msg.addr
        if addr in self._recreating:
            return  # tokens reserved until the epoch bump completes
        if self.table.active_for(addr) is not None:
            return  # tokens reserved for the active persistent request
        tokens = self.tokens_of(addr)
        owner = self.is_owner(addr)
        if msg.mtype is _TOK_GETX:
            if tokens > 0:
                self._respond(msg.requestor, addr, give=tokens, give_owner=owner)
            return
        # Read request: only the owner supplies data; include C tokens when
        # possible to seed the requesting chip (Section 4).  When memory
        # holds every token (block uncached anywhere) it gives them all —
        # the token-coherence analogue of an exclusive-clean (E) grant, so
        # a read-then-write first touch costs one miss, as in MOESI.
        if not owner:
            return
        if tokens == self.params.tokens_per_block:
            self._respond(msg.requestor, addr, give=tokens, give_owner=True)
            return
        want = self.params.caches_per_chip if self.cfg.read_tokens_c else 1
        give = min(want, tokens)
        if give == 0:
            return
        self._respond(msg.requestor, addr, give=give, give_owner=(give == tokens))

    def _forward_check(self, addr: int) -> None:
        if addr in self._recreating:
            return  # tokens reserved until the epoch bump completes
        active = self.table.active_for(addr)
        if active is None:
            return
        tokens = self.tokens_of(addr)
        owner = self.is_owner(addr)
        if active.read:
            if owner and tokens == self.params.tokens_per_block:
                # Uncached block: grant everything (E-analogue), so a
                # starving read-modify-write completes in one transfer.
                self._respond(active.requestor, addr, give=tokens, give_owner=True)
                return
            give = persistent_read_share(tokens, owner)
            if owner and give < tokens:
                # Memory keeps the owner token but must still supply data.
                if give == 0:
                    give_owner = False
                    # No spare tokens: nothing to send (some cache has >1).
                    return
                self._respond(active.requestor, addr, give=give, give_owner=False, force_data=True)
                return
        else:
            give = tokens
        if give == 0:
            return
        self._respond(active.requestor, addr, give=give, give_owner=owner)

    # ------------------------------------------------------------------
    def _respond(
        self,
        dst: NodeId,
        addr: int,
        give: int,
        give_owner: bool,
        force_data: bool = False,
    ) -> None:
        tokens = self.tokens_of(addr)
        assert give <= tokens, "memory cannot give tokens it does not hold"
        owner = self.is_owner(addr)
        send_data = give_owner or force_data or (owner and not give_owner and False)
        # Data is sent whenever the owner token moves, or when memory keeps
        # ownership but the requestor still needs a valid copy (reads).
        if owner and not give_owner:
            send_data = True
        delay = self.params.dram_latency_ps if send_data else 0
        if send_data:
            self.stats.bump("mem.dram_reads")
        data = self.image.read(addr) if send_data else None
        self._set(addr, tokens - give, owner and not give_owner)
        msg = self.pool.acquire_carrier(
            MsgType.TOK_DATA if send_data else MsgType.TOK_ACK, self.node, dst, addr,
            tokens=give, owner=give_owner, data=data, dirty=False,
            epoch=self.epoch_of(addr),
        )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.token_send(self.node, msg)
        # send_later (not a bare schedule of send) so fault-injection
        # wrappers count the tokens as in flight during the DRAM access.
        self.net.send_later(delay, msg)
