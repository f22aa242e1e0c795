"""Coherence message definitions shared by all protocols.

A :class:`MsgType` fixes a message's traffic class and whether it carries
a data payload (and therefore its size: 72-byte data messages vs 8-byte
control messages, Section 8).  The :class:`Message` dataclass carries the
union of fields the protocols need; unused fields stay ``None``.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Any, Optional

from repro.common.types import NodeId
from repro.interconnect.traffic import TrafficClass

_K = TrafficClass


class MsgType(enum.Enum):
    """All message types, each tagged (traffic class, carries data).

    The first tuple element repeats the member name so every enum value is
    unique — otherwise members with equal (class, has_data) pairs would
    silently become aliases of each other.
    """

    # ---- Token coherence (TokenCMP) ----
    TOK_GETS = ("TOK_GETS", _K.REQUEST, False)  # transient read request
    TOK_GETX = ("TOK_GETX", _K.REQUEST, False)  # transient write request
    TOK_DATA = ("TOK_DATA", _K.RESPONSE_DATA, True)  # tokens + data response
    TOK_ACK = ("TOK_ACK", _K.INV_FWD_ACK_TOKEN, False)  # tokens without data
    TOK_WB_DATA = ("TOK_WB_DATA", _K.WRITEBACK_DATA, True)  # writeback with data
    TOK_WB = ("TOK_WB", _K.WRITEBACK_CONTROL, False)  # writeback, tokens only
    PERSIST_REQ = ("PERSIST_REQ", _K.PERSISTENT, False)  # to arbiter (arb scheme)
    PERSIST_ACTIVATE = ("PERSIST_ACTIVATE", _K.PERSISTENT, False)
    PERSIST_DEACTIVATE = ("PERSIST_DEACTIVATE", _K.PERSISTENT, False)
    # Token recreation (recovery tier above persistent requests): a starving
    # requestor asks the block's home memory controller -- the ruler of
    # tokens -- to bump the block's recreation epoch, invalidate every
    # stale token, and reconstitute the full token set at memory.
    TOK_RECREATE_REQ = ("TOK_RECREATE_REQ", _K.PERSISTENT, False)  # to home mem
    TOK_RECREATE_EPOCH = ("TOK_RECREATE_EPOCH", _K.PERSISTENT, False)  # epoch bump
    TOK_RECREATE_ACK = ("TOK_RECREATE_ACK", _K.PERSISTENT, False)  # surrendered, clean
    TOK_RECREATE_DATA = ("TOK_RECREATE_DATA", _K.PERSISTENT, True)  # surrendered owner data

    # ---- Hierarchical directory (DirectoryCMP) ----
    DIR_GETS = ("DIR_GETS", _K.REQUEST, False)
    DIR_GETX = ("DIR_GETX", _K.REQUEST, False)
    DIR_FWD_GETS = ("DIR_FWD_GETS", _K.INV_FWD_ACK_TOKEN, False)
    DIR_FWD_GETX = ("DIR_FWD_GETX", _K.INV_FWD_ACK_TOKEN, False)
    DIR_INV = ("DIR_INV", _K.INV_FWD_ACK_TOKEN, False)
    DIR_ACK = ("DIR_ACK", _K.INV_FWD_ACK_TOKEN, False)
    DIR_DATA = ("DIR_DATA", _K.RESPONSE_DATA, True)
    DIR_WB_REQ = ("DIR_WB_REQ", _K.WRITEBACK_CONTROL, False)  # 3-phase WB: 1
    DIR_WB_GRANT = ("DIR_WB_GRANT", _K.WRITEBACK_CONTROL, False)  # 3-phase WB: 2
    DIR_WB_DATA = ("DIR_WB_DATA", _K.WRITEBACK_DATA, True)  # 3-phase WB: 3
    DIR_WB_TOKEN = ("DIR_WB_TOKEN", _K.WRITEBACK_CONTROL, False)  # clean WB notice
    DIR_UNBLOCK = ("DIR_UNBLOCK", _K.UNBLOCK, False)
    DIR_RECALL = ("DIR_RECALL", _K.INV_FWD_ACK_TOKEN, False)  # inclusion recall

    def __init__(self, _name: str, klass: TrafficClass, has_data: bool) -> None:
        self.klass = klass
        self.has_data = has_data


_msg_ids = itertools.count()


@dataclasses.dataclass
class Message:
    """One coherence message in flight.

    ``addr`` is always block-aligned.  Protocol-specific payload fields:

    * ``tokens`` / ``owner`` — token transfer (token protocol).
    * ``data`` — the block's modelled data value (one int per block).
    * ``requestor`` — the node the response should ultimately serve.
    * ``req_type`` — for forwarded requests, the original request kind.
    * ``acks`` — number of acknowledgements the receiver should expect.
    * ``serial`` — requestor-local transaction id (stale-response filter).
    * ``prio`` — persistent-request priority (smaller wins).
    * ``epoch`` — the block's recreation epoch as known by the sender;
      token carriers stamped with an older epoch than the receiver's are
      stale and must be discarded, never absorbed.
    * ``extra`` — anything else (kept rare).
    """

    mtype: MsgType
    src: NodeId
    dst: NodeId
    addr: int
    tokens: int = 0
    owner: bool = False
    dirty: bool = False
    data: Optional[int] = None
    read: bool = False  # persistent-read flag (Section 3.2)
    requestor: Optional[NodeId] = None
    req_type: Optional[MsgType] = None
    acks: int = 0
    serial: int = 0
    prio: int = 0
    epoch: int = 0
    extra: Any = None
    uid: int = dataclasses.field(default_factory=lambda: next(_msg_ids))

    def size_bytes(self, data_bytes: int, control_bytes: int) -> int:
        return data_bytes if self.mtype.has_data else control_bytes

    def clone_to(self, dst: NodeId) -> "Message":
        """A copy of this message addressed to ``dst``, with a fresh uid.

        Broadcast fan-out builds one template message and clones it per
        destination — a dict copy plus two field writes instead of a
        full 16-field dataclass construction per destination.  The fresh
        ``uid`` keeps per-message identity (in-flight token tracking,
        trace message ids) intact.
        """
        clone = Message.__new__(Message)
        clone.__dict__.update(self.__dict__)
        clone.dst = dst
        clone.uid = next(_msg_ids)
        return clone

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        bits = [f"{self.mtype.name} {self.src}->{self.dst} @{self.addr:#x}"]
        if self.tokens:
            bits.append(f"tok={self.tokens}{'+O' if self.owner else ''}")
        if self.data is not None:
            bits.append(f"data={self.data}")
        return " ".join(bits)


class MessagePool:
    """The machine's message constructor: builds fresh messages and counts them.

    Controllers build their point-to-point messages through the machine's
    one instance (``Network.pool``); broadcast templates are plain
    :class:`Message` constructions handed to ``Network.send_fanout``,
    which clones them here when traced or faulted.  Every call builds a
    new :class:`Message` and draws exactly one uid.

    ``news`` and ``release`` exist only for the host-time harness
    (``hostbench/``), which reads ``net.pool.news`` and wraps ``release``
    by name: every message is new, so ``news`` is ``acquires``, and
    ``release`` does nothing.
    """

    __slots__ = ("acquires",)

    def __init__(self) -> None:
        self.acquires = 0  # total messages built

    @property
    def news(self) -> int:
        """Messages built by fresh construction: all of them."""
        return self.acquires

    def acquire(
        self,
        mtype: MsgType,
        src: NodeId,
        dst: NodeId,
        addr: int,
    ) -> Message:
        """A message with all payload fields at their defaults."""
        self.acquires += 1
        return Message(mtype, src, dst, addr)

    def acquire_carrier(
        self,
        mtype: MsgType,
        src: NodeId,
        dst: NodeId,
        addr: int,
        tokens: int,
        owner: bool,
        data: Optional[int],
        dirty: bool,
        epoch: int,
    ) -> Message:
        """A token-carrier message with its payload stamped.

        Carrier construction is concentrated here so the
        ``token-mutation`` staticcheck keeps flagging stray carrier
        rewrites at controller level.
        """
        self.acquires += 1
        return Message(
            mtype, src, dst, addr,
            tokens=tokens, owner=owner, dirty=dirty, data=data, epoch=epoch,
        )

    def clone(self, template: Message, dst: NodeId) -> Message:
        """:meth:`Message.clone_to`, counted: ``template`` bound to ``dst``."""
        self.acquires += 1
        return template.clone_to(dst)

    def release(self, msg: Message) -> None:
        """No-op: every message is built fresh (kept for the harness)."""
