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
# Sanctioned impurity: the pooling kill-switch is read once per pool from
# the environment (debug/equivalence-testing aid); it never feeds
# simulated state.  See docs/static-analysis.md.
import os  # staticcheck: ignore[purity-import]
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


# Field defaults stamped into a pooled instance on acquire.  ``uid`` is
# excluded on purpose: the caller always assigns it from ``_msg_ids`` so
# the uid draw sequence is identical with pooling on or off.
_DEFAULTS = {
    "tokens": 0,
    "owner": False,
    "dirty": False,
    "data": None,
    "read": False,
    "requestor": None,
    "req_type": None,
    "acks": 0,
    "serial": 0,
    "prio": 0,
    "epoch": 0,
    "extra": None,
}


def pooling_enabled() -> bool:
    """Whether message pooling is on (default) — ``REPRO_POOLING=0`` disables.

    The off switch exists only for the on/off equivalence test and for
    debugging aliasing suspicions; both modes draw uids in the same order,
    so all experiment outputs are byte-identical either way.
    """
    return os.environ.get("REPRO_POOLING", "1") != "0"


class MessagePool:
    """Freelist of recyclable :class:`Message` instances.

    The steady-state lifecycle is: a controller *acquires* a message, the
    network routes it, and the receiving controller *releases* it once
    its ``_process`` dispatch returns.  A released instance goes back on
    the freelist and is reused by a later acquire — so in steady state
    point-to-point messages are serviced with zero pool constructions.
    Broadcast templates are not pooled: a controller builds a plain
    :class:`Message` and hands it to ``Network.send_fanout``, which
    delivers that one object to every destination untraced (and refuses
    a pooled one), or stamps it into pooled *clones* (:meth:`clone`)
    when traced or faulted.

    Discipline (checked by the ``pool-discipline`` staticcheck pass and
    the aliasing tests):

    * never store a handled message on ``self`` or capture it in a
      deferred callback — copy the scalars you need instead;
    * release exactly once, at final delivery (``release`` tolerates a
      second call on an instance that was already recycled *and not yet
      reissued*, but that is a safety net, not a contract);
    * messages absorbed by the fault injector's in-flight ledger are
      released by the injector, not the controller.

    With pooling disabled every acquire constructs a fresh instance, and
    release is a no-op; uid draws are identical in both modes.
    """

    __slots__ = ("enabled", "_free", "acquires", "news", "releases")

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.enabled = pooling_enabled() if enabled is None else enabled
        self._free: list = []
        self.acquires = 0  # total messages handed out
        self.news = 0  # handed out by fresh construction (freelist empty)
        self.releases = 0  # returned to the freelist

    def acquire(
        self,
        mtype: MsgType,
        src: NodeId,
        dst: NodeId,
        addr: int,
    ) -> Message:
        """A message with all payload fields at their defaults."""
        self.acquires += 1
        free = self._free
        if free:
            msg = free.pop()
            d = msg.__dict__
            d.update(_DEFAULTS)
            d["mtype"] = mtype
            d["src"] = src
            d["dst"] = dst
            d["addr"] = addr
            d["uid"] = next(_msg_ids)
            d["_pooled"] = True
            return msg
        self.news += 1
        msg = Message(mtype, src, dst, addr)
        if self.enabled:
            msg.__dict__["_pooled"] = True
        return msg

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
        """Acquire a token-carrier message with its payload stamped.

        Token/owner stores are concentrated here (and audited once) so the
        ``token-mutation`` staticcheck keeps flagging stray carrier
        rewrites at controller level — a freshly acquired message is the
        pooled equivalent of a ``Message(tokens=..., owner=...)``
        construction, not a token-state mutation.
        """
        msg = self.acquire(mtype, src, dst, addr)
        d = msg.__dict__
        d["tokens"] = tokens
        d["owner"] = owner
        d["data"] = data
        d["dirty"] = dirty
        d["epoch"] = epoch
        return msg

    def clone(self, template: Message, dst: NodeId) -> Message:
        """Stamp ``template``'s fields into a pooled instance bound to ``dst``.

        The pooled equivalent of :meth:`Message.clone_to` — broadcast
        fan-out builds one template and clones it per destination.
        """
        self.acquires += 1
        free = self._free
        if free:
            msg = free.pop()
            d = msg.__dict__
            # No clear() needed: a recycled dict holds exactly the message
            # fields (pool discipline forbids ad-hoc attributes), and the
            # template update overwrites every one of them.
            d.update(template.__dict__)
            d["dst"] = dst
            d["uid"] = next(_msg_ids)
            d["_pooled"] = True
            return msg
        self.news += 1
        msg = template.clone_to(dst)
        if self.enabled:
            msg.__dict__["_pooled"] = True
        return msg

    def release(self, msg: Message) -> None:
        """Return ``msg`` to the freelist (no-op unless pool-owned).

        The ``_pooled`` marker is popped first, so double releases and
        releases of caller-constructed messages are both safe no-ops.
        """
        if not self.enabled:
            return
        if msg.__dict__.pop("_pooled", None):
            self.releases += 1
            self._free.append(msg)

    def stats(self) -> dict:
        """Deterministic counters for telemetry / the alloc gate."""
        return {
            "acquires": self.acquires,
            "news": self.news,
            "releases": self.releases,
            "free_end": len(self._free),
        }
