"""Token-coherence L2 bank: shared cache, on-chip gateway, request filter.

Besides acting as an ordinary token-holding cache, the home L2 bank plays
two performance-policy roles (Section 4):

* **Gateway** — when a local transient request is an L2-level miss (the
  chip collectively cannot satisfy it, judged via the chip token ledger),
  the bank broadcasts the request to the other CMPs' home banks and the
  home memory controller.
* **Ingress** — external transient requests arrive here and are
  re-broadcast to the local L1 caches, optionally through the approximate
  sharer filter (TokenCMP-dst1-filt) to save intra-CMP bandwidth.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.types import NodeId, NodeKind
from repro.core.base import TokenCacheController, home_banks
from repro.core.filter import SharerFilter
from repro.core.ledger import ChipTokenLedger
from repro.interconnect.message import Message, MsgType

# Per-request checks compare against a module alias: a global load
# instead of an enum-class attribute lookup per test.
_TOK_GETX = MsgType.TOK_GETX


class TokenL2Controller(TokenCacheController):
    """One L2 bank participating in TokenCMP."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ledger: Optional[ChipTokenLedger] = None  # wired by the builder
        self.filter = SharerFilter() if self.cfg.use_filter else None
        # Shared per-chip destination-set predictor (wired by the builder
        # when the variant uses multicast): the chip's L1s train it with
        # the responses they receive; the gateway consults it.
        self.destset = None
        # Fan-out sets: the chip's L1 population is fixed, and the
        # all-chips escalation set depends only on the block's home chip
        # and bank, so it is keyed by ``params.interleave_residue(addr)``,
        # derived from the machine's ``home_banks`` table and interned by
        # content (``Network.intern_dests``): equal sets share one tuple
        # and one fan-out plan.
        self._local_l1s: Tuple[NodeId, ...] = tuple(self.params.chip_l1s(self.chip))
        self._esc_dests: Dict[int, Tuple[NodeId, ...]] = {}

    def _writeback_destination(self, addr: int) -> NodeId:
        return self.params.home_mem(addr)

    # ------------------------------------------------------------------
    def _on_transient(self, msg: Message) -> None:
        if self.cfg.flat_policy:
            # TokenB addresses every cache directly: the L2 bank is just
            # another token holder — no gateway or ingress duties.
            self._respond_transient(msg.mtype, msg.addr, msg.requestor)
            return
        local = msg.requestor.chip == self.chip
        if local:
            # Decide escalation *before* responding so in-flight tokens
            # from our own response don't skew the ledger.
            if self._is_l2_miss(msg):
                self._escalate(msg)
            if self.filter is not None and msg.requestor.kind in (NodeKind.L1D, NodeKind.L1I):
                self.filter.note_holder(msg.addr, msg.requestor)
            self._respond_transient(msg.mtype, msg.addr, msg.requestor)
        else:
            if self.destset is not None:
                # The remote requestor is about to hold this block.
                self.destset.train(msg.addr, msg.requestor.chip)
            self._respond_transient(msg.mtype, msg.addr, msg.requestor)
            self._rebroadcast(msg)

    def _is_l2_miss(self, msg: Message) -> bool:
        assert self.ledger is not None, "ledger not wired"
        if msg.mtype is _TOK_GETX:
            return self.ledger.tokens_on_chip(msg.addr) < self.params.tokens_per_block
        return not self.ledger.can_satisfy_read(
            msg.addr, msg.requestor, self.params.tokens_per_block
        )

    def _escalate(self, msg: Message) -> None:
        """Send an L2-level miss to the other CMPs (all of them, or the
        predicted destination set) plus home memory."""
        self.stats.bump("l2.escalations")
        addr = msg.addr
        dests = None
        multicast = False
        if self.destset is not None:
            predicted = self.destset.predict(addr, self.params.all_chips(), self.chip)
            if predicted is not None:
                multicast = True
                self.stats.bump("l2.multicasts")
                banks = home_banks(self.net, self.params, addr)
                dests = [banks[chip] for chip in predicted]
                dests.append(self.params.home_mem(addr))
        if dests is None:
            dests = self._escalation_destinations(addr)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.tx_escalate(
                msg.requestor, addr,
                via=self.node, ndests=len(dests), multicast=multicast,
            )
        self.net.send_fanout(self._forward_template(msg), dests)

    def _escalation_destinations(self, addr: int) -> Tuple[NodeId, ...]:
        """Every other CMP's home bank for ``addr``, then home memory."""
        key = self.params.interleave_residue(addr)
        cached = self._esc_dests.get(key)
        if cached is None:
            banks = home_banks(self.net, self.params, addr)
            dests = [bank for bank in banks if bank.chip != self.chip]
            dests.append(self.params.home_mem(addr))
            self._esc_dests[key] = cached = self.net.intern_dests(tuple(dests))
        return cached

    def _rebroadcast(self, msg: Message) -> None:
        """Deliver an external transient request to (filtered) local L1s."""
        l1s = self._local_l1s
        if self.filter is not None:
            dests = self.filter.destinations(msg.addr, l1s)
            self.stats.bump("l2.filter_suppressed", len(l1s) - len(dests))
        else:
            dests = l1s
        if not dests:
            return
        self.net.send_fanout(self._forward_template(msg), dests)

    def _forward_template(self, msg: Message) -> Message:
        """The template for fanning ``msg`` out, handed to ``send_fanout``."""
        return Message(msg.mtype, self.node, self.node, msg.addr, requestor=msg.requestor)

    # ------------------------------------------------------------------
    def _hook_absorbed(self, msg: Message) -> None:
        if (
            self.filter is not None
            and msg.mtype in (MsgType.TOK_WB, MsgType.TOK_WB_DATA)
            and msg.src.chip == self.chip
            and msg.src.kind in (NodeKind.L1D, NodeKind.L1I)
        ):
            # A local L1 wrote its tokens back: it no longer holds the block.
            self.filter.note_release(msg.addr, msg.src)
        if self.destset is not None and msg.src.chip != self.chip:
            # Tokens arrived from a remote chip: it held the block.
            self.destset.train(msg.addr, msg.src.chip)
