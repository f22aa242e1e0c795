"""Shared behaviour of token-coherence cache controllers (L1 and L2).

Every cache is a peer in the **flat** correctness substrate: it counts
tokens, remembers activated persistent requests in its own table, and
forwards tokens to active persistent requests.  The *hierarchical*
behaviour (where transient requests travel) lives entirely in the
performance-policy hooks of the L1/L2 subclasses — exactly the separation
the paper exploits.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId, NodeKind
from repro.core.persistent import PersistentEntry, PersistentTable, persistent_read_share
from repro.core.tokens import TokenEntry
from repro.interconnect.message import Message, MessagePool, MsgType
from repro.interconnect.network import Network
from repro.memory.cache import CacheArray
from repro.sim.kernel import Simulator
from repro.system.config import ProtocolConfig

# Hot dispatch ladders compare against module aliases: a global load
# instead of an enum-class attribute lookup per test.
_TOK_GETS = MsgType.TOK_GETS
_TOK_GETX = MsgType.TOK_GETX
_PERSIST_ACTIVATE = MsgType.PERSIST_ACTIVATE
_PERSIST_DEACTIVATE = MsgType.PERSIST_DEACTIVATE
_TOK_RECREATE_EPOCH = MsgType.TOK_RECREATE_EPOCH

_TOKEN_CARRIERS = (MsgType.TOK_DATA, MsgType.TOK_ACK, MsgType.TOK_WB, MsgType.TOK_WB_DATA)


class TokenCacheController:
    """A cache that obeys the token-coherence correctness substrate."""

    def __init__(
        self,
        node: NodeId,
        sim: Simulator,
        net: Network,
        params: SystemParams,
        stats: Stats,
        cfg: ProtocolConfig,
        array: CacheArray,
        lookup_latency_ps: int,
    ):
        self.node = node
        self.chip: int = node.chip
        self.sim = sim
        self.net = net
        self.params = params
        self.stats = stats
        self.cfg = cfg
        self.array = array
        self.lookup_latency_ps = lookup_latency_ps
        self.table = PersistentTable()
        self._hold_recheck: set = set()
        self._deferred: dict = {}  # addr -> [(event, fn, args)] parked on hold
        # Last recreation epoch seen per block (recovery tier).  Token
        # carriers are stamped with the sender's epoch; anything older
        # than what we know is stale and discarded, never absorbed.
        self._block_epoch: dict = {}
        # The machine's message constructor (owned by the network; fault
        # wrappers forward the attribute).  Ad-hoc test networks without
        # one get a private one.
        pool = getattr(net, "pool", None)
        self.pool: MessagePool = pool if pool is not None else MessagePool()
        # Hot-path bindings, resolved once instead of per message.
        self._call_after = sim.call_after
        self._process_cb = self._process
        self._counters = stats.counters  # defaultdict: bare += per bump
        # The kernel relays the lookup hop (``handle``'s whole body).
        net.register(node, self.handle, lookup_latency_ps, self._process_cb)

    # ------------------------------------------------------------------
    def peek_entry(self, addr: int) -> Optional[TokenEntry]:
        """Entry for ``addr`` without disturbing LRU (used by the ledger)."""
        return self.array.peek(addr)

    def token_census(self) -> Tuple[int, int, int]:
        """(cached blocks, tokens held, owner blocks) across the array.

        Observational only (no LRU touch, no state change) — the
        telemetry sampler aggregates these per cache level.
        """
        blocks = 0
        tokens = 0
        owners = 0
        for _addr, entry in self.array.items():
            blocks += 1
            tokens += entry.tokens
            if entry.owner:
                owners += 1
        return blocks, tokens, owners

    # ------------------------------------------------------------------
    # Message handling.
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Network entry point: model the tag-lookup latency, then act.

        Untraced, unfaulted deliveries skip this frame: the kernel
        relays the hop itself (registered in ``__init__``)."""
        self._call_after(self.lookup_latency_ps, self._process_cb, msg)

    def _process(self, msg: Message) -> None:
        t = msg.mtype
        if t in (_TOK_GETS, _TOK_GETX):
            self._on_transient(msg)
        elif t in _TOKEN_CARRIERS:
            self._on_tokens(msg)
        elif t is _PERSIST_ACTIVATE:
            self._on_activate(msg)
        elif t is _PERSIST_DEACTIVATE:
            self._on_deactivate(msg)
        elif t is _TOK_RECREATE_EPOCH:
            self._on_recreate_epoch(msg)
        else:  # pragma: no cover - defensive
            raise ValueError(f"{self.node}: unexpected message {msg}")

    # ------------------------------------------------------------------
    # Token arrival (responses, writebacks — all the same to the substrate).
    # ------------------------------------------------------------------
    def _on_tokens(self, msg: Message) -> None:
        if msg.epoch < self._block_epoch.get(msg.addr, 0):
            # Stale-epoch carrier: its tokens were invalidated by a
            # recreation bump and must not be absorbed (the home memory
            # controller has already reconstituted the full set).
            self.net.token_absorbed(msg)
            self.stats.bump("recovery.stale_discarded")
            self.stats.bump("recovery.stale_tokens", msg.tokens)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.stale_discard(self.node, msg, self._block_epoch[msg.addr])
            return
        self.net.token_absorbed(msg)  # retire in-flight conservation tracking
        if msg.tokens == 0 and not msg.owner:
            return
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.token_absorb(self.node, msg)
        entry = self._ensure_entry(msg.addr)
        # The dirty bit is deliberately NOT inherited from the sender: it
        # drives the migratory-sharing heuristic, which applies only when
        # the *responding* cache itself modified the block (Section 4).
        # Memory freshness needs no dirty bit — the owner token always
        # travels with data and memory updates its image on owner return.
        entry.absorb(msg.tokens, msg.owner, msg.data, dirty=False)
        self._hook_absorbed(msg)
        self._token_state_changed(msg.addr)

    def _ensure_entry(self, addr: int) -> TokenEntry:
        entry = self.array.lookup(addr)
        if entry is None:
            entry = TokenEntry()
            victim = self.array.allocate(addr, entry, evictable=self._evictable)
            if victim is not None:
                self._writeback(*victim)
        return entry

    def _evictable(self, addr: int, entry: TokenEntry) -> bool:
        return True  # L1 pins blocks with outstanding transactions

    def _writeback(self, addr: int, entry: TokenEntry) -> None:
        """Evicted tokens go down the hierarchy — no handshake needed."""
        if entry.tokens == 0:
            return
        self.stats.bump("token.writebacks")
        self._send_tokens(
            dst=self._writeback_destination(addr),
            addr=addr,
            entry=entry,
            give=entry.tokens,
            give_owner=entry.owner,
            include_data=entry.owner,
            writeback=True,
        )

    def _writeback_destination(self, addr: int) -> NodeId:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Substrate reaction to any token-state change.
    # ------------------------------------------------------------------
    def _token_state_changed(self, addr: int) -> None:
        entry = self.array.peek(addr)
        if entry is not None and entry.tokens == 0:
            self.array.deallocate(addr)
            entry = None
        if entry is not None and entry.tokens > 0:
            active = self.table.active_for(addr)
            if active is not None and active.requestor != self.node:
                self._forward_persistent(addr, entry, active)
                if entry.tokens == 0:
                    self.array.deallocate(addr)
        self._maybe_complete(addr)

    def _forward_persistent(self, addr: int, entry: TokenEntry, active: PersistentEntry) -> None:
        """Forward tokens to the active persistent request (Section 3.2)."""
        if entry.hold_until > self.sim.now:
            self._schedule_hold_recheck(addr, entry.hold_until)
            return
        if active.read:
            if (
                self.cfg.migratory
                and entry.owner
                and entry.dirty
                and entry.tokens == self.params.tokens_per_block
            ):
                # Migratory sharing applies to persistent reads too: a
                # locally-modified block moves whole, so the reader's
                # subsequent write hits (giving more than the required
                # all-but-one is always safe).
                give = entry.tokens
            else:
                give = persistent_read_share(entry.tokens, entry.owner)
        else:
            give = entry.tokens
        if give == 0:
            return
        give_owner = entry.owner  # the owner token (and data) always move first
        self.stats.bump("persistent.forwards")
        self._send_tokens(
            dst=active.requestor,
            addr=addr,
            entry=entry,
            give=give,
            give_owner=give_owner,
            include_data=give_owner,
        )

    def _schedule_hold_recheck(self, addr: int, when_ps: int) -> None:
        if addr in self._hold_recheck:
            return
        self._hold_recheck.add(addr)

        def _recheck() -> None:
            self._hold_recheck.discard(addr)
            self._token_state_changed(addr)

        self._defer(addr, when_ps, _recheck)

    # ------------------------------------------------------------------
    # Hold-window deferral: actions parked until the response-delay window
    # ends, released early when the hold is disarmed (lock release).
    # ------------------------------------------------------------------
    def _defer(self, addr: int, when_ps: int, fn, *args) -> None:
        holder = self._deferred.setdefault(addr, [])
        record = []

        def _fire(_) -> None:
            holder.remove(record[0])
            fn(*args)

        event = self.sim.call_at(when_ps, _fire, None)
        record.append((event, fn, args))
        holder.append(record[0])

    def _flush_deferred(self, addr: int) -> None:
        """Run all parked actions now (the hold window ended early)."""
        for event, fn, args in self._deferred.pop(addr, []):
            self.sim.cancel(event)
            fn(*args)
        self._hold_recheck.discard(addr)

    # ------------------------------------------------------------------
    # Transient-request response rules (Section 4).
    # ------------------------------------------------------------------
    def _on_transient(self, msg: Message) -> None:
        # Hoisted early-exit: most receivers of a broadcast transient hold
        # no tokens for the block, so skip the responder call entirely.
        addr = msg.addr
        requestor = msg.requestor
        entry = self.array.peek(addr)
        if entry is None or entry.tokens == 0 or requestor == self.node:
            return
        self._respond_transient(msg.mtype, addr, requestor)

    def _respond_transient(self, mtype: MsgType, addr: int, requestor: NodeId) -> None:
        # Scalar arguments by design: responding can be parked on a hold
        # window (``_defer`` below), and the continuation needs only these
        # three values, not the (possibly shared) request message.
        entry = self.array.peek(addr)
        if entry is None or entry.tokens == 0 or requestor == self.node:
            return  # a cache only responds when it actually has tokens
        if self.table.active_for(addr) is not None:
            # An activated persistent request reserves this block's tokens:
            # they are forwarded to its initiator, never to transients.
            return
        if entry.hold_until > self.sim.now:
            # Response-delay mechanism: finish the critical section first.
            self._defer(addr, entry.hold_until, self._respond_transient,
                        mtype, addr, requestor)
            return

        T = self.params.tokens_per_block
        local = requestor.chip == self.chip
        if mtype is _TOK_GETX:
            self._send_tokens(
                requestor, addr, entry,
                give=entry.tokens, give_owner=entry.owner, include_data=entry.owner,
            )
            return

        # Read request.
        if self.cfg.migratory and entry.owner and entry.dirty and entry.tokens == T:
            # Migratory sharing: hand over everything, reader will write.
            self._send_tokens(
                requestor, addr, entry,
                give=entry.tokens, give_owner=True, include_data=True,
            )
            self.stats.bump("token.migratory_transfers")
        elif local:
            if entry.valid_data and entry.tokens >= 2:
                self._send_tokens(
                    requestor, addr, entry, give=1, give_owner=False, include_data=True,
                )
        else:
            # A CMP responds to external reads only from the owner, and
            # sends C tokens when possible to seed future local sharing.
            if entry.owner:
                want = self.params.caches_per_chip if self.cfg.read_tokens_c else 1
                give = min(want, entry.tokens)
                if give == entry.tokens:
                    self._send_tokens(
                        requestor, addr, entry,
                        give=give, give_owner=True, include_data=True,
                    )
                else:
                    self._send_tokens(
                        requestor, addr, entry,
                        give=give, give_owner=False, include_data=True,
                    )

        if entry.tokens == 0:
            self.array.deallocate(addr)

    # ------------------------------------------------------------------
    # Token recreation (recovery tier): surrender on an epoch bump.
    # ------------------------------------------------------------------
    def _on_recreate_epoch(self, msg: Message) -> None:
        """The ruler of tokens bumped the block's epoch: discard every
        local token (they are now stale) and ack the surrender.  If we
        held the owner token our copy is the canonical value, so it rides
        along on the ack for memory to seed the recreated block."""
        addr = msg.addr
        epoch = msg.epoch
        if epoch < self._block_epoch.get(addr, 0):
            return  # reordered bump from an already-closed epoch
        self._block_epoch[addr] = epoch
        entry = self.array.peek(addr)
        reply_type = MsgType.TOK_RECREATE_ACK
        data = None
        dirty = False
        if entry is not None and not entry.empty:
            if entry.owner and entry.valid_data:
                reply_type = MsgType.TOK_RECREATE_DATA
                data = entry.value
                dirty = entry.dirty
            self.stats.bump("recovery.tokens_surrendered", entry.tokens)
            entry.take(entry.tokens, entry.owner)
            self.array.deallocate(addr)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.recreate_surrender(self.node, addr, epoch, with_data=data is not None)
        out = self.pool.acquire(reply_type, self.node, self.params.home_mem(addr), addr)
        out.data = data
        out.dirty = dirty
        out.epoch = epoch
        self.net.send(out)

    # ------------------------------------------------------------------
    # Persistent request table maintenance.
    # ------------------------------------------------------------------
    def _on_activate(self, msg: Message) -> None:
        self.table.insert(
            PersistentEntry(
                proc=msg.extra,
                requestor=msg.requestor,
                addr=msg.addr,
                read=msg.read,
                prio=msg.prio,
            )
        )
        self._token_state_changed(msg.addr)

    def _on_deactivate(self, msg: Message) -> None:
        self.table.remove(msg.extra, msg.addr)
        self._token_state_changed(msg.addr)

    # ------------------------------------------------------------------
    # Low-level send helper.
    # ------------------------------------------------------------------
    def _send_tokens(
        self,
        dst: NodeId,
        addr: int,
        entry: TokenEntry,
        give: int,
        give_owner: bool,
        include_data: bool,
        writeback: bool = False,
    ) -> None:
        tokens, owner, data, dirty = entry.take(give, give_owner)
        if not include_data and not owner:
            data, dirty = None, False
        if writeback:
            mtype = MsgType.TOK_WB_DATA if data is not None else MsgType.TOK_WB
        else:
            mtype = MsgType.TOK_DATA if data is not None else MsgType.TOK_ACK
        out = self.pool.acquire_carrier(
            mtype, self.node, dst, addr,
            tokens=tokens, owner=owner, data=data, dirty=dirty,
            epoch=self._block_epoch.get(addr, 0),
        )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.token_send(self.node, out)
        self.net.send(out)
        if entry.tokens == 0:
            self.array.deallocate(addr)  # no-op for already-evicted victims
        self._hook_gave_tokens(addr, dst)

    # ------------------------------------------------------------------
    # Subclass hooks.
    # ------------------------------------------------------------------
    def _maybe_complete(self, addr: int) -> None:
        """L1 checks outstanding transactions here."""

    def _hook_absorbed(self, msg: Message) -> None:
        """Called after tokens are absorbed (timeout estimator, filter)."""

    def _hook_gave_tokens(self, addr: int, dst: NodeId) -> None:
        """Called after tokens leave this cache (filter upkeep)."""


# Machine-wide broadcast tables (``Network.dest_table``), keyed by
# ``params.interleave_residue(addr)``: both depend only on the block's
# home chip and L2 bank.  Each controller derives its own fan-out sets
# from them, minus itself, and caches those per residue.
def holders_and_home(net: Network, params: SystemParams, addr: int) -> Tuple[NodeId, ...]:
    """Every cache that may hold tokens for ``addr``, then its home memory."""
    return net.dest_table(
        ("holders", params.interleave_residue(addr)),
        lambda: (*params.token_holders(addr), params.home_mem(addr)),
    )


def home_banks(net: Network, params: SystemParams, addr: int) -> Tuple[NodeId, ...]:
    """``addr``'s L2 bank on every chip, indexed by chip."""
    return net.dest_table(
        ("home_banks", params.interleave_residue(addr)),
        lambda: [params.l2_bank(addr, chip) for chip in range(params.num_chips)],
    )
