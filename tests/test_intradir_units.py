"""Focused unit tests for the intra-CMP directory (L2 bank) controller.

These drive the bank through real networks with scripted peer endpoints,
pinning down the trickier mechanics: busy queueing, external-request
deferral rules, recall evictions, and the L1 writeback handshake.
"""

import pytest

from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.common.types import NodeId, NodeKind
from repro.directory.intra import IntraDirL2Controller
from repro.directory.states import GRANT_E, GRANT_M, GRANT_S, L2Line
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Network
from repro.interconnect.traffic import TrafficMeter
from repro.memory.cache import CacheArray
from repro.sim.kernel import Simulator
from repro.system.config import protocol


@pytest.fixture
def rig():
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    sim = Simulator()
    net = Network(sim, params, TrafficMeter())
    stats = Stats()
    node = NodeId(NodeKind.L2, 0, 0)
    bank = IntraDirL2Controller(
        node, sim, net, params, stats, protocol("DirectoryCMP"),
        CacheArray(params.l2_bank_size, params.l2_assoc, params.block_size),
    )
    inboxes = {}
    for l1 in params.chip_l1s(0, include_icache=False):
        inboxes[l1] = []
        net.register(l1, inboxes[l1].append)
    inboxes["mem"] = []
    net.register(NodeId(NodeKind.MEM, 0), inboxes["mem"].append)
    inboxes["remote"] = []
    net.register(params.l2_bank(0, 1), inboxes["remote"].append)
    return params, sim, net, stats, bank, inboxes


BLOCK = 0  # maps to l2[0.0] on chip 0, homed at mem[0]


def _local_gets(net, sim, params, proc=0):
    l1 = params.l1d_of(proc)
    net.send(Message(MsgType.DIR_GETS, l1, params.l2_bank(BLOCK, 0), BLOCK,
                     requestor=l1))
    sim.run()


def test_local_miss_goes_global(rig):
    params, sim, net, stats, bank, inboxes = rig
    _local_gets(net, sim, params)
    (msg,) = inboxes["mem"]
    assert msg.mtype is MsgType.DIR_GETS
    line = bank.array.peek(BLOCK)
    assert line.busy and line.pending is not None


def test_global_grant_flows_to_l1_and_unblocks_home(rig):
    params, sim, net, stats, bank, inboxes = rig
    _local_gets(net, sim, params)
    net.send(Message(MsgType.DIR_DATA, NodeId(NodeKind.MEM, 0), bank.node,
                     BLOCK, data=5, acks=0, extra=GRANT_E))
    sim.run()
    l1 = params.l1d_of(0)
    grants = [m for m in inboxes[l1] if m.mtype is MsgType.DIR_DATA]
    assert grants and grants[0].data == 5 and grants[0].extra == GRANT_E
    unblocks = [m for m in inboxes["mem"] if m.mtype is MsgType.DIR_UNBLOCK]
    assert unblocks and unblocks[0].extra == GRANT_E


def test_second_local_request_queues_behind_busy(rig):
    params, sim, net, stats, bank, inboxes = rig
    _local_gets(net, sim, params, proc=0)
    _local_gets(net, sim, params, proc=1)
    assert stats.get("l2.deferred_requests") == 1
    line = bank.array.peek(BLOCK)
    assert len(line.queue) == 1


def test_external_inv_with_no_line_acks_immediately(rig):
    params, sim, net, stats, bank, inboxes = rig
    remote = params.l2_bank(0, 1)
    net.send(Message(MsgType.DIR_INV, remote, bank.node, BLOCK, requestor=remote))
    sim.run()
    acks = [m for m in inboxes["remote"] if m.mtype is MsgType.DIR_ACK]
    assert len(acks) == 1


def test_external_inv_invalidates_local_sharers_first(rig):
    params, sim, net, stats, bank, inboxes = rig
    line = L2Line(gstate="S", l2_data=True, value=3)
    line.sharers = {params.l1d_of(0), params.l1d_of(1)}
    bank.array.allocate(BLOCK, line)
    remote = params.l2_bank(0, 1)
    net.send(Message(MsgType.DIR_INV, remote, bank.node, BLOCK, requestor=remote))
    sim.run()
    # Both local L1s got invalidations; no ack to the requestor yet.
    for proc in (0, 1):
        invs = [m for m in inboxes[params.l1d_of(proc)] if m.mtype is MsgType.DIR_INV]
        assert len(invs) == 1
    assert not [m for m in inboxes["remote"] if m.mtype is MsgType.DIR_ACK]
    # Local acks arrive -> chip-level ack goes out.
    for proc in (0, 1):
        net.send(Message(MsgType.DIR_ACK, params.l1d_of(proc), bank.node, BLOCK))
    sim.run()
    assert [m for m in inboxes["remote"] if m.mtype is MsgType.DIR_ACK]


def test_external_fwd_defers_behind_local_grant(rig):
    params, sim, net, stats, bank, inboxes = rig
    # A purely local transaction in flight: line busy, pending None.
    line = L2Line(gstate="M", l2_data=True, value=7)
    bank.array.allocate(BLOCK, line)
    _local_gets(net, sim, params, proc=0)  # grants locally, busy till unblock
    remote = params.l2_bank(0, 1)
    net.send(Message(MsgType.DIR_FWD_GETX, remote, bank.node, BLOCK,
                     requestor=remote, acks=0))
    sim.run()
    assert not [m for m in inboxes["remote"] if m.mtype is MsgType.DIR_DATA]
    # The local unblock releases the queue; the forward then proceeds.
    l1 = params.l1d_of(0)
    net.send(Message(MsgType.DIR_UNBLOCK, l1, bank.node, BLOCK, requestor=l1))
    sim.run()
    # The forward recalls the new local owner (proc 0) ...
    recalls = [m for m in inboxes[l1] if m.mtype is MsgType.DIR_RECALL]
    assert recalls


def test_l1_writeback_three_phase(rig):
    params, sim, net, stats, bank, inboxes = rig
    l1 = params.l1d_of(0)
    line = L2Line(gstate="M", owner_l1=l1, owner_state="M")
    bank.array.allocate(BLOCK, line)
    net.send(Message(MsgType.DIR_WB_REQ, l1, bank.node, BLOCK, requestor=l1))
    sim.run()
    grants = [m for m in inboxes[l1] if m.mtype is MsgType.DIR_WB_GRANT]
    assert grants
    net.send(Message(MsgType.DIR_WB_DATA, l1, bank.node, BLOCK,
                     requestor=l1, data=11, dirty=True))
    sim.run()
    line = bank.array.peek(BLOCK)
    assert line.owner_l1 is None and line.l2_data and line.value == 11
    assert not line.busy


def test_recall_eviction_frees_the_set(rig):
    params, sim, net, stats, bank, inboxes = rig
    sets = bank.array.num_sets
    # Fill one set with lines that all have local L1 owners.
    owner = params.l1d_of(0)
    base = BLOCK
    blocks = [base + k * sets * params.block_size for k in range(4)]
    for addr in blocks:
        bank.array.allocate(addr, L2Line(gstate="M", owner_l1=owner, owner_state="M"))
    # A request for a 5th conflicting block forces a recall eviction.
    fifth = base + 4 * sets * params.block_size
    l1 = params.l1d_of(1)
    net.send(Message(MsgType.DIR_GETS, l1, bank.node, fifth, requestor=l1))
    sim.run()
    assert stats.get("l2.recall_evictions") == 1
    recalls = [m for m in inboxes[owner] if m.mtype is MsgType.DIR_RECALL]
    assert recalls and recalls[0].extra == "inv"
    # Owner returns the data; the eviction proceeds to a chip writeback.
    victim = recalls[0].addr
    net.send(Message(MsgType.DIR_WB_DATA, owner, bank.node, victim,
                     requestor=owner, data=9, dirty=True, extra="recall"))
    sim.run()
    wb_reqs = [m for m in inboxes["mem"]
               if m.mtype is MsgType.DIR_WB_REQ and m.addr == victim]
    assert wb_reqs


def test_clean_eviction_notice_drops_the_sharer(rig):
    # An L1's clean eviction sends DIR_WB_TOKEN with extra="notice": the
    # bank forgets that sharer and sends nothing back.
    params, sim, net, stats, bank, inboxes = rig
    l1, other = params.l1d_of(0), params.l1d_of(1)
    line = L2Line(gstate="S", l2_data=True, value=3)
    line.sharers = {l1, other}
    bank.array.allocate(BLOCK, line)
    net.send(Message(MsgType.DIR_WB_TOKEN, l1, bank.node, BLOCK,
                     requestor=l1, extra="notice"))
    sim.run()
    assert line.sharers == {other}
    assert not line.busy
    assert not inboxes[l1] and not inboxes["mem"]


def test_cancelled_l1_writeback_unblocks_and_drains(rig):
    # Phase 3 of an L1 writeback may be a cancelled DIR_WB_TOKEN (the
    # eviction buffer lost ownership while the grant was in flight): it
    # must clear the busy bit and serve the request queued behind it.
    params, sim, net, stats, bank, inboxes = rig
    l1, other = params.l1d_of(0), params.l1d_of(1)
    line = L2Line(gstate="M", l2_data=True, value=7, owner_l1=l1,
                  owner_state="M")
    bank.array.allocate(BLOCK, line)
    net.send(Message(MsgType.DIR_WB_REQ, l1, bank.node, BLOCK, requestor=l1))
    sim.run()
    assert [m.mtype for m in inboxes[l1]] == [MsgType.DIR_WB_GRANT]
    assert line.busy
    _local_gets(net, sim, params, proc=1)
    assert len(line.queue) == 1
    net.send(Message(MsgType.DIR_WB_TOKEN, l1, bank.node, BLOCK,
                     requestor=l1, extra="cancelled"))
    sim.run()
    # The queued read was granted from the L2's copy; the line is busy
    # again only for that grant's unblock.
    assert not line.queue
    grants = [m for m in inboxes[other] if m.mtype is MsgType.DIR_DATA]
    assert len(grants) == 1 and grants[0].data == 7
    assert line.owner_l1 == other
