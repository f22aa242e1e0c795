"""Inter-CMP directory at each home memory controller (DirectoryCMP).

Tracks which *chips* cache a block (owner chip + sharer chips), not which
caches within a chip — that is the intra-CMP directory's job.  Transactions
serialize per block behind a busy bit; requesting chips send a final
unblock (carrying the state they installed) that both releases the block
and teaches the directory the transaction's outcome, which lets the owner
chip make the migratory-sharing decision locally.

Directory state lives in DRAM: every request pays a directory access
latency (``dram_latency``) before any forward/invalidate is sent, unless
the unrealistic zero-cycle variant (DirectoryCMP-zero) is configured.
Data reads from memory proceed in parallel with the directory access.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId, NodeKind
from repro.directory.states import GRANT_E, GRANT_M, GRANT_S, HomeLine
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Network
from repro.memory.dram import MemoryImage
from repro.sim.kernel import Simulator

# Hot dispatch ladders compare against module aliases: a global load
# instead of an enum-class attribute lookup per test.
_DIR_GETS = MsgType.DIR_GETS
_DIR_GETX = MsgType.DIR_GETX
_DIR_WB_REQ = MsgType.DIR_WB_REQ
_DIR_UNBLOCK = MsgType.DIR_UNBLOCK
_DIR_WB_DATA = MsgType.DIR_WB_DATA
_DIR_WB_TOKEN = MsgType.DIR_WB_TOKEN


class InterDirController:
    """Home memory controller with the inter-CMP directory."""

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
        self.lines: Dict[int, HomeLine] = {}
        self.dir_latency_ps = 0 if cfg.dir_zero_cycle else params.dram_latency_ps
        # Hot-path bindings, resolved once instead of per message.
        self._latency_ps = params.mem_ctrl_latency_ps
        # DRAM data reads overlap the directory access: only the rest waits.
        self._data_extra_ps = max(0, params.dram_latency_ps - self.dir_latency_ps)
        self._call_after = sim.call_after
        self._receive_cb = self._receive
        self._execute_cb = self._execute
        # The kernel relays the lookup hop (``handle``'s whole body).
        net.register(node, self.handle, self._latency_ps, self._receive_cb)

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of home directory lines ever touched — telemetry."""
        return len(self.lines)

    def _line(self, addr: int) -> HomeLine:
        line = self.lines.get(addr)
        if line is None:
            line = HomeLine()
            self.lines[addr] = line
        return line

    def _chip_l2(self, addr: int, chip: int) -> NodeId:
        return self.params.l2_bank(addr, chip)

    def _send(self, mtype: MsgType, dst: NodeId, addr: int, **kw) -> None:
        self.net.send(Message(mtype=mtype, src=self.node, dst=dst, addr=addr, **kw))

    def handle(self, msg: Message) -> None:
        """Network entry point: model the lookup latency, then act.

        Untraced, unfaulted deliveries skip this frame: the kernel
        relays the hop itself (registered in ``__init__``)."""
        self._call_after(self._latency_ps, self._receive_cb, msg)

    def _receive(self, msg: Message) -> None:
        t = msg.mtype
        if t in (_DIR_GETS, _DIR_GETX, _DIR_WB_REQ):
            line = self._line(msg.addr)
            if line.busy:
                line.queue.append(msg)
                self.stats.bump("interdir.deferred_requests")
            else:
                self._begin(msg, line)
        elif t is _DIR_UNBLOCK:
            self._on_unblock(msg)
        elif t in (_DIR_WB_DATA, _DIR_WB_TOKEN):
            self._on_writeback_phase3(msg)
        else:  # pragma: no cover - defensive
            raise ValueError(f"{self.node}: unexpected message {msg}")

    def _begin(self, msg: Message, line: HomeLine) -> None:
        line.busy = True
        # The directory lookup itself costs a DRAM access (or nothing in
        # the zero-cycle variant) before any action can be taken.
        self._call_after(self.dir_latency_ps, self._execute_cb, (msg, line))

    # ------------------------------------------------------------------
    def _execute(self, pack) -> None:
        msg, line = pack
        t = msg.mtype
        if t is _DIR_WB_REQ:
            self._send(MsgType.DIR_WB_GRANT, msg.src, msg.addr)
            return  # stays busy until phase 3 arrives
        req_chip = msg.src.chip
        if t is _DIR_GETS:
            self._execute_gets(msg, line, req_chip)
        else:
            self._execute_getx(msg, line, req_chip)

    def _memory_data_send(self, dst: NodeId, addr: int, grant: str, acks: int) -> None:
        """Send data read from DRAM; the read overlaps the directory access."""
        msg = Message(
            mtype=MsgType.DIR_DATA, src=self.node, dst=dst, addr=addr,
            data=self.image.read(addr), dirty=False, acks=acks, extra=grant,
        )
        self.stats.bump("interdir.dram_reads")
        self._call_after(self._data_extra_ps, self.net.send, msg)

    def _execute_gets(self, msg: Message, line: HomeLine, req_chip: int) -> None:
        addr = msg.addr
        if line.state == "I":
            self._memory_data_send(msg.src, addr, GRANT_E, acks=0)
        elif line.state == "S":
            self._memory_data_send(msg.src, addr, GRANT_S, acks=0)
        else:  # M or O: forward to the owner chip (it decides migratory).
            self.stats.bump("interdir.forwards")
            self._send(
                MsgType.DIR_FWD_GETS,
                self._chip_l2(addr, line.owner_chip),
                addr,
                requestor=msg.src,
            )

    def _execute_getx(self, msg: Message, line: HomeLine, req_chip: int) -> None:
        addr = msg.addr
        inv_chips = {c for c in line.sharer_chips if c != req_chip}
        for chip in sorted(inv_chips):
            self._send(
                MsgType.DIR_INV, self._chip_l2(addr, chip), addr, requestor=msg.src
            )
        self.stats.bump("interdir.invalidations", len(inv_chips))
        if line.state in ("I", "S"):
            self._memory_data_send(msg.src, addr, GRANT_M, acks=len(inv_chips))
        else:  # M or O: owner chip supplies data (possibly the requestor).
            self.stats.bump("interdir.forwards")
            self._send(
                MsgType.DIR_FWD_GETX,
                self._chip_l2(addr, line.owner_chip),
                addr,
                requestor=msg.src,
                acks=len(inv_chips),
            )

    # ------------------------------------------------------------------
    def _on_unblock(self, msg: Message) -> None:
        line = self._line(msg.addr)
        assert line.busy, f"{self.node}: unblock while idle ({msg})"
        chip = msg.src.chip
        granted = msg.extra
        old = line.state
        if granted in (GRANT_M, GRANT_E):
            line.state = "M"
            line.owner_chip = chip
            line.sharer_chips = set()
        else:  # GRANT_S
            line.sharer_chips.add(chip)
            line.state = "O" if line.owner_chip is not None else "S"
        line.busy = False
        tracer = self.sim.tracer
        if tracer is not None and line.state != old:
            tracer.dir_transition(
                self.node, msg.addr, old=old, new=line.state,
                cause=f"unblock:{granted}",
            )
        self._drain(msg.addr, line)

    def _on_writeback_phase3(self, msg: Message) -> None:
        addr = msg.addr
        line = self._line(addr)
        chip = msg.src.chip
        old_state = line.state
        if msg.mtype is MsgType.DIR_WB_TOKEN and msg.extra == "notice":
            # Spontaneous clean-shared eviction notice; no handshake.
            line.sharer_chips.discard(chip)
            if line.state == "S" and not line.sharer_chips:
                line.state = "I"
            elif line.state == "O" and not line.sharer_chips:
                line.state = "M"
            tracer = self.sim.tracer
            if tracer is not None and line.state != old_state:
                tracer.dir_transition(
                    self.node, addr, old=old_state, new=line.state,
                    cause="wb-notice",
                )
            return
        assert line.busy, f"{self.node}: WB data while idle ({msg})"
        if msg.mtype is MsgType.DIR_WB_DATA:
            self.image.write(addr, msg.data)
            if line.owner_chip == chip:
                line.owner_chip = None
                line.state = "S" if line.sharer_chips else "I"
        else:  # cancelled: ownership moved while the WB raced a forward
            line.sharer_chips.discard(chip)
            if line.owner_chip == chip:
                line.owner_chip = None
                line.state = "S" if line.sharer_chips else "I"
        line.busy = False
        tracer = self.sim.tracer
        if tracer is not None and line.state != old_state:
            tracer.dir_transition(
                self.node, addr, old=old_state, new=line.state, cause="writeback"
            )
        self._drain(addr, line)

    def _drain(self, addr: int, line: HomeLine) -> None:
        if line.queue and not line.busy:
            self._begin(line.queue.pop(0), line)


def coherent_value(machine, addr: int) -> int:
    """Architecturally current value of ``addr`` in a DirectoryCMP machine."""
    from repro.directory.intra import IntraDirL2Controller
    from repro.directory.l1 import DirL1Controller
    from repro.directory.states import M as _M, O as _O

    addr = machine.params.block_of(addr)
    for ctrl in machine.controllers.values():
        if isinstance(ctrl, DirL1Controller):
            entry = ctrl.array.peek(addr)
            if entry is not None and entry.state in (_M, _O):
                return entry.value
            buf = ctrl._evicting.get(addr)
            if buf is not None and not buf.cancelled:
                return buf.value
    for ctrl in machine.controllers.values():
        if isinstance(ctrl, IntraDirL2Controller):
            line = ctrl.array.peek(addr)
            if line is not None and line.l2_data and line.gstate in ("M", "E", "O"):
                return line.value
            buf = ctrl._evicting.get(addr)
            if buf is not None and not buf.cancelled:
                return buf.value
    return machine.mems[machine.params.home_chip(addr)].image.read(addr)
