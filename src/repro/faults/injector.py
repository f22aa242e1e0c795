"""Adversarial network: fault injection over the interconnect.

The paper's central correctness argument (Sections 3 & 7) is that the
token-coherence substrate is *flat for correctness*: token counting plus
persistent requests keep the system safe and live **regardless of how
transient requests and responses are delayed, reordered, or dropped**.
:class:`FaultyNetwork` lets us demonstrate that claim instead of merely
asserting it: it decorates a :class:`~repro.interconnect.network.Network`
and, at delivery time, subjects messages to seeded-random **drop**,
**duplicate**, **reorder** (jitter within a window) and **delay** faults,
with a distinct :class:`ClassPolicy` per message class.

The fault model is honest about what the substrate does and does not
tolerate (see docs/robustness.md):

* **transient requests** (GETS/GETX) are hints — they may be dropped,
  duplicated, delayed and reordered freely;
* **token carriers** (data/ack/writeback responses) may be delayed and
  reordered arbitrarily, but never dropped or duplicated: token counting
  assumes tokens are neither destroyed nor forged.  The paper makes the
  same non-lossy-fabric assumption for responses;
* **persistent messages** may be delayed (and activates/deactivates even
  duplicated) but are delivered FIFO per (source, destination) pair and
  never dropped — dropping an activate starves the initiator, which the
  paper's arbiter scheme explicitly assumes cannot happen.  A duplicated
  ``PERSIST_REQ`` is indistinguishable from a fresh arbitration request,
  so it is also suppressed;
* every other class (directory-protocol messages) is fault-free unless a
  policy is explicitly configured — the directory baselines assume a
  reliable network and are outside the robustness claim.

Violating the clamps on purpose (``allow_unsafe=True``) is how the tests
prove the invariant monitor and watchdog actually catch token destruction
and starvation.

Every random decision draws from one :func:`repro.common.rng.substream`,
so a faulty run is exactly reproducible from its seed.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.rng import substream
from repro.common.stats import Stats
from repro.common.types import NodeId
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Handler, Network

TRANSIENT_REQUESTS = (MsgType.TOK_GETS, MsgType.TOK_GETX)
TOKEN_CARRIERS = (
    MsgType.TOK_DATA, MsgType.TOK_ACK, MsgType.TOK_WB, MsgType.TOK_WB_DATA
)
PERSISTENT = (
    MsgType.PERSIST_REQ, MsgType.PERSIST_ACTIVATE, MsgType.PERSIST_DEACTIVATE
)
# Recovery-tier messages share the persistent class's policies and clamps:
# they are the mechanism that makes token loss survivable, so the fault
# model never drops them (they may be delayed, reordered or duplicated —
# every recreation message is idempotent at its receiver).
RECREATION = (
    MsgType.TOK_RECREATE_REQ, MsgType.TOK_RECREATE_EPOCH,
    MsgType.TOK_RECREATE_ACK, MsgType.TOK_RECREATE_DATA,
)


@dataclasses.dataclass(frozen=True)
class ClassPolicy:
    """Fault rates for one message class (all probabilities in [0, 1])."""

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0  # probability of jitter within the reorder window
    delay: float = 0.0  # probability of a long random extra delay
    reorder_window_ps: int = 2_000
    delay_ps: int = 10_000  # maximum extra delay when a delay fault fires
    fifo: bool = False  # preserve per-(src, dst) delivery order

    def __post_init__(self) -> None:
        for field in ("drop", "duplicate", "reorder", "delay"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} rate {value} outside [0, 1]")


NO_FAULTS = ClassPolicy()


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """Per-message-class fault policies for one :class:`FaultyNetwork`.

    ``lossy`` lifts the "never drop token carriers" clamp *with recovery*:
    dropped carriers genuinely destroy their tokens, and the destruction
    is recorded in the machine's :class:`RecoveryLedger` so the
    epoch-aware conservation invariant stays checkable and the token
    recreation tier can restore the block.  A ``lossy`` machine must have
    recovery enabled (``Machine`` arms it automatically).

    ``allow_unsafe`` disables *all* safety clamps with no ledger and no
    recovery (forged tokens, dropped persistent messages).  It exists so
    tests can *induce* the failures the watchdog and invariant monitor
    are meant to detect.
    """

    request: ClassPolicy = NO_FAULTS
    response: ClassPolicy = NO_FAULTS
    persistent: ClassPolicy = NO_FAULTS
    other: ClassPolicy = NO_FAULTS
    allow_unsafe: bool = False
    lossy: bool = False

    @staticmethod
    def adversarial(rate: float, delay_ps: int = 10_000,
                    reorder_window_ps: int = 2_000,
                    lossy: bool = False) -> "FaultConfig":
        """The robustness sweep's adversary at one fault ``rate``:
        drop + duplicate + reorder + delay transient requests, reorder +
        delay token carriers, duplicate + delay persistent messages.
        With ``lossy=True`` token carriers are additionally *dropped* at
        ``rate`` — tokens are genuinely destroyed and must be recreated
        by the recovery tier."""
        return FaultConfig(
            request=ClassPolicy(
                drop=rate, duplicate=rate, reorder=rate, delay=rate / 2,
                reorder_window_ps=reorder_window_ps, delay_ps=delay_ps,
            ),
            response=ClassPolicy(
                drop=rate if lossy else 0.0,
                reorder=rate, delay=rate / 2,
                reorder_window_ps=reorder_window_ps, delay_ps=delay_ps,
            ),
            persistent=ClassPolicy(
                duplicate=rate, delay=rate / 2,
                reorder_window_ps=reorder_window_ps, delay_ps=delay_ps,
                fifo=True,
            ),
            lossy=lossy,
        )


class FaultyNetwork:
    """Decorator over :class:`Network` that injects delivery faults.

    Wraps each registered endpoint handler: the inner network models
    nominal latency and bandwidth as usual, and faults are applied at the
    nominal arrival instant — a message can be dropped, duplicated, or
    rescheduled later (reorder jitter / long delay), but never delivered
    early.  Persistent messages additionally pass a per-(src, dst) FIFO
    clamp so activates and deactivates from one source are never observed
    out of order (the point-to-point ordering the paper assumes for the
    persistent-request channels).

    The wrapper also tracks every token-carrying message from ``send`` to
    the instant a controller absorbs its tokens
    (:meth:`token_absorbed`), so token conservation can be checked
    *continuously* — not just at quiescence — by including the in-flight
    tokens in the census.
    """

    def __init__(self, inner: Network, config: FaultConfig, seed: int, stats: Stats):
        self._inner = inner
        self.config = config
        self.stats = stats
        self.sim = inner.sim
        self.params = inner.params
        self.meter = inner.meter
        self._rng = substream(seed, "faults")
        self._in_flight: Dict[int, Message] = {}
        self._fifo_last: Dict[Tuple[NodeId, NodeId], int] = {}
        # Recovery wiring (Machine.enable_recovery): the shared ledger of
        # destroyed-then-recreated tokens, and a callback returning a
        # block's current recreation epoch at its home controller.
        self.ledger = None
        self.epoch_of = None

    # ------------------------------------------------------------------
    # Network interface (controllers are oblivious to the wrapper).
    # ------------------------------------------------------------------
    def register(self, node: NodeId, handler: Handler, relay_ps: int = 0,
                 callee: Optional[Handler] = None) -> None:
        # Faults are decided at the nominal arrival, so the endpoint is
        # the wrapped ``handler`` itself: no kernel-relayed lookup hop.
        self._inner.register(node, lambda msg: self._on_arrival(handler, msg))

    def send_fanout(self, template: Message, dests) -> None:
        # One addressed clone per destination: ``_on_arrival`` keys the
        # persistent FIFO clamp on ``msg.dst``.
        self._inner.send_clones(template, dests)

    def send(self, msg: Message) -> None:
        self._track(msg)
        self._inner.send(msg)

    def send_later(self, delay_ps: int, msg: Message) -> None:
        self._track(msg)  # the sender already gave its tokens up
        self.sim.call_after(delay_ps, self._inner.send, msg)

    def token_absorbed(self, msg: Message) -> None:
        self._in_flight.pop(msg.uid, None)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    # ------------------------------------------------------------------
    # In-flight token tracking (continuous conservation checking).
    # ------------------------------------------------------------------
    def _track(self, msg: Message) -> None:
        if msg.tokens > 0 or msg.owner:
            self._in_flight[msg.uid] = msg

    def in_flight_tokens(self) -> Iterator[Tuple[int, Tuple[int, bool, object]]]:
        """(addr, (tokens, owner, data)) for every undelivered carrier."""
        for msg in self._in_flight.values():
            yield msg.addr, (msg.tokens, msg.owner, msg.data)

    def in_flight_token_epochs(
        self,
    ) -> Iterator[Tuple[int, int, Tuple[int, bool, object]]]:
        """(addr, epoch, (tokens, owner, data)) for every undelivered
        carrier — the epoch-aware census: carriers stamped with an older
        epoch than their block's current one are walking dead and must be
        excluded from conservation."""
        for msg in self._in_flight.values():
            yield msg.addr, msg.epoch, (msg.tokens, msg.owner, msg.data)

    def in_flight_messages(self) -> List[str]:
        return [str(msg) for msg in self._in_flight.values()]

    # ------------------------------------------------------------------
    # Fault application (runs at each message's nominal arrival time).
    # ------------------------------------------------------------------
    def _policy_for(self, msg: Message) -> Tuple[str, ClassPolicy]:
        if msg.mtype in TRANSIENT_REQUESTS:
            return "request", self.config.request
        if msg.mtype in TOKEN_CARRIERS:
            return "response", self.config.response
        if msg.mtype in PERSISTENT or msg.mtype in RECREATION:
            return "persistent", self.config.persistent
        return "other", self.config.other

    def _on_arrival(self, handler: Handler, msg: Message) -> None:
        klass, policy = self._policy_for(msg)
        carries_tokens = msg.tokens > 0 or msg.owner
        unsafe = self.config.allow_unsafe
        tracer = self.sim.tracer

        # ---- drop ----------------------------------------------------
        if policy.drop > 0.0 and self._rng.random() < policy.drop:
            # Safety clamp: persistent messages must always arrive, and
            # tokens may only be destroyed when the recovery subsystem is
            # there to recreate them (``lossy``) or the caller explicitly
            # asked for unrecoverable destruction (``allow_unsafe``).
            lossy = self.config.lossy and msg.mtype in TOKEN_CARRIERS
            if klass != "request" and not unsafe and not lossy:
                self.stats.bump("faults.suppressed")
                self.stats.bump(f"faults.suppressed.drop.{klass}")
            else:
                self.stats.bump("faults.dropped")
                self.stats.bump(f"faults.dropped.{klass}")
                if tracer is not None:
                    tracer.fault("drop", msg, klass)
                if carries_tokens:
                    self._in_flight.pop(msg.uid, None)
                    self.stats.bump("faults.tokens_destroyed", msg.tokens)
                    if self.ledger is not None:
                        if (self.epoch_of is not None
                                and msg.epoch < self.epoch_of(msg.addr)):
                            # A stale-epoch carrier was already walking
                            # dead — dropping it destroys nothing live.
                            self.stats.bump("recovery.stale_discarded")
                            self.stats.bump("recovery.stale_tokens", msg.tokens)
                        else:
                            self.ledger.destroy(
                                msg.addr, msg.tokens, msg.owner, dirty=msg.dirty
                            )
                return

        # ---- extra latency: long delay and/or reorder jitter ---------
        extra = 0
        if policy.delay > 0.0 and self._rng.random() < policy.delay:
            delay_ps = 1 + self._rng.randrange(max(1, policy.delay_ps))
            extra += delay_ps
            self.stats.bump("faults.delayed")
            if tracer is not None:
                tracer.fault("delay", msg, klass, extra_ps=delay_ps)
        if policy.reorder > 0.0 and self._rng.random() < policy.reorder:
            jitter_ps = self._rng.randrange(policy.reorder_window_ps + 1)
            extra += jitter_ps
            self.stats.bump("faults.reordered")
            if tracer is not None:
                tracer.fault("reorder", msg, klass, extra_ps=jitter_ps)

        # Persistent channels are FIFO per (src, dst) no matter what the
        # jitter drew: activate/deactivate order is load-bearing.
        fifo = policy.fifo or klass == "persistent"
        deliver_at = self.sim.now + extra
        if fifo:
            key = (msg.src, msg.dst)
            deliver_at = max(deliver_at, self._fifo_last.get(key, 0))
            self._fifo_last[key] = deliver_at

        # ---- duplicate ----------------------------------------------
        if policy.duplicate > 0.0 and self._rng.random() < policy.duplicate:
            forge = carries_tokens  # a duplicated carrier forges tokens
            fresh_req = msg.mtype is MsgType.PERSIST_REQ  # looks like a new request
            if (forge or fresh_req) and not unsafe:
                self.stats.bump("faults.suppressed")
                self.stats.bump(f"faults.suppressed.duplicate.{klass}")
            else:
                copy = dataclasses.replace(msg)
                copy_at = deliver_at + self._rng.randrange(
                    policy.reorder_window_ps + 1
                )
                if fifo:
                    key = (msg.src, msg.dst)
                    copy_at = max(copy_at, self._fifo_last.get(key, 0))
                    self._fifo_last[key] = copy_at
                self.stats.bump("faults.duplicated")
                self.stats.bump(f"faults.duplicated.{klass}")
                if tracer is not None:
                    tracer.fault(
                        "duplicate", msg, klass, extra_ps=copy_at - self.sim.now
                    )
                if forge:
                    self.stats.bump("faults.tokens_created", msg.tokens)
                self.sim.call_at(copy_at, handler, copy)

        if deliver_at == self.sim.now:
            handler(msg)
        else:
            self.sim.call_at(deliver_at, handler, msg)
