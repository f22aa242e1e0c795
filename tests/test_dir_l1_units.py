"""Focused unit tests for the DirectoryCMP L1 controller's racier paths."""

import pytest

from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId, NodeKind
from repro.directory.l1 import DirL1Controller
from repro.directory.states import E, EvictBuf, GRANT_M, GRANT_S, L1Entry, M, O, S
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Network
from repro.interconnect.traffic import TrafficMeter
from repro.memory.cache import CacheArray
from repro.sim.kernel import Simulator
from repro.system.config import protocol


BLOCK = 0x4000


@pytest.fixture
def rig():
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    sim = Simulator()
    net = Network(sim, params, TrafficMeter())
    l1 = DirL1Controller(
        params.l1d_of(0), sim, net, params, Stats(), protocol("DirectoryCMP"),
        CacheArray(params.l1_size, params.l1_assoc, params.block_size),
    )
    inboxes = {}
    peer = params.l1d_of(1)
    inboxes["peer"] = []
    net.register(peer, inboxes["peer"].append)
    home = params.l2_bank(BLOCK, 0)
    inboxes["l2"] = []
    net.register(home, inboxes["l2"].append)
    return params, sim, net, l1, inboxes, peer, home


def install(l1, state, value=5, dirty=False):
    l1.array.allocate(BLOCK, L1Entry(state=state, value=value, dirty=dirty))


def test_fwd_gets_share_downgrades_owner(rig):
    params, sim, net, l1, inboxes, peer, home = rig
    install(l1, M, value=9, dirty=True)
    net.send(Message(MsgType.DIR_FWD_GETS, home, l1.node, BLOCK,
                     requestor=peer, extra="share"))
    sim.run()
    (data,) = inboxes["peer"]
    assert data.mtype is MsgType.DIR_DATA and data.extra == GRANT_S
    assert data.data == 9
    assert l1.array.peek(BLOCK).state == O


def test_fwd_gets_migrate_surrenders_block(rig):
    params, sim, net, l1, inboxes, peer, home = rig
    install(l1, M, value=9, dirty=True)
    net.send(Message(MsgType.DIR_FWD_GETS, home, l1.node, BLOCK,
                     requestor=peer, extra="migrate"))
    sim.run()
    (data,) = inboxes["peer"]
    assert data.extra == GRANT_M and data.dirty
    assert l1.array.peek(BLOCK) is None


def test_fwd_getx_carries_ack_count(rig):
    params, sim, net, l1, inboxes, peer, home = rig
    install(l1, O, value=3)
    net.send(Message(MsgType.DIR_FWD_GETX, home, l1.node, BLOCK,
                     requestor=peer, acks=2))
    sim.run()
    (data,) = inboxes["peer"]
    assert data.extra == GRANT_M and data.acks == 2
    assert l1.array.peek(BLOCK) is None


def test_inv_acks_even_without_entry(rig):
    params, sim, net, l1, inboxes, peer, home = rig
    net.send(Message(MsgType.DIR_INV, home, l1.node, BLOCK, requestor=peer))
    sim.run()
    (ack,) = inboxes["peer"]
    assert ack.mtype is MsgType.DIR_ACK


def test_recall_inv_returns_data_from_exclusive(rig):
    params, sim, net, l1, inboxes, peer, home = rig
    install(l1, E, value=4)
    net.send(Message(MsgType.DIR_RECALL, home, l1.node, BLOCK, extra="inv"))
    sim.run()
    (resp,) = inboxes["l2"]
    assert resp.mtype is MsgType.DIR_WB_DATA and resp.extra == "recall"
    assert resp.data == 4
    assert l1.array.peek(BLOCK) is None


def test_recall_copy_keeps_ownership_as_O(rig):
    params, sim, net, l1, inboxes, peer, home = rig
    install(l1, M, value=6, dirty=True)
    net.send(Message(MsgType.DIR_RECALL, home, l1.node, BLOCK, extra="copy"))
    sim.run()
    (resp,) = inboxes["l2"]
    assert resp.mtype is MsgType.DIR_WB_DATA and resp.data == 6
    assert l1.array.peek(BLOCK).state == O


def test_eviction_buffer_answers_forward_and_cancels_wb(rig):
    params, sim, net, l1, inboxes, peer, home = rig
    # Mid-writeback: buffer holds the data, WB_REQ already sent.
    l1._evicting[BLOCK] = EvictBuf(7, True, M)
    net.send(Message(MsgType.DIR_FWD_GETX, home, l1.node, BLOCK,
                     requestor=peer, acks=0))
    sim.run()
    (data,) = inboxes["peer"]
    assert data.data == 7 and data.extra == GRANT_M
    # The writeback grant now elicits a cancellation, not data.
    net.send(Message(MsgType.DIR_WB_GRANT, home, l1.node, BLOCK))
    sim.run()
    cancels = [m for m in inboxes["l2"] if m.mtype is MsgType.DIR_WB_TOKEN]
    assert cancels and cancels[0].extra == "cancelled"


def test_hold_window_defers_forward_until_release(rig):
    params, sim, net, l1, inboxes, peer, home = rig
    install(l1, M, value=1)
    entry = l1.array.peek(BLOCK)
    entry.hold_until = sim.now + 100_000  # 100 ns critical section
    net.send(Message(MsgType.DIR_FWD_GETX, home, l1.node, BLOCK,
                     requestor=peer, acks=0))
    sim.run(until=50_000)
    assert inboxes["peer"] == []  # still parked
    sim.run()
    assert inboxes["peer"]  # served at hold expiry
    assert sim.now >= 100_000


def test_store_disarms_hold_and_flushes(rig):
    params, sim, net, l1, inboxes, peer, home = rig
    from repro.cpu.ops import Store

    install(l1, M, value=1)
    entry = l1.array.peek(BLOCK)
    entry.hold_until = sim.now + 500_000
    net.send(Message(MsgType.DIR_FWD_GETX, home, l1.node, BLOCK,
                     requestor=peer, acks=0))
    sim.run(until=20_000)
    assert inboxes["peer"] == []
    done = []
    l1.access(Store(BLOCK, 2), done.append)  # the "release" store
    sim.run(until=40_000)
    assert done and inboxes["peer"]  # flushed well before 500 us
    assert inboxes["peer"][0].data == 2  # and with the released value
