"""Unit tests for the interconnect model: latency, bandwidth, traffic."""

import hashlib
import json

import pytest

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.common.types import NodeId, NodeKind, ns
from repro.interconnect.message import Message, MessagePool, MsgType
from repro.interconnect.network import Network
from repro.interconnect.traffic import Scope, TrafficClass, TrafficMeter
from repro.sim.kernel import Simulator


def build(params=None):
    params = params or SystemParams()
    sim = Simulator()
    meter = TrafficMeter()
    net = Network(sim, params, meter)
    return sim, meter, net, params


def deliver(sim, net, msg, sink):
    net.register(msg.dst, sink) if msg.dst not in net._endpoints else None
    net.send(msg)
    sim.run()


def test_intra_chip_latency():
    sim, meter, net, p = build()
    src, dst = p.l1d_of(0), p.l1d_of(1)
    arrivals = []
    net.register(dst, lambda m: arrivals.append(sim.now))
    net.send(Message(MsgType.TOK_ACK, src, dst, 0))
    sim.run()
    # 8 bytes / 64 GB/s = 125 ps serialization + 2 ns link.
    assert arrivals == [ns(2) + 125]


def test_cross_chip_latency_includes_both_intra_hops():
    sim, meter, net, p = build()
    src, dst = p.l1d_of(0), p.l1d_of(4)  # chip 0 -> chip 1
    arrivals = []
    net.register(dst, lambda m: arrivals.append(sim.now))
    net.send(Message(MsgType.TOK_ACK, src, dst, 0))
    sim.run()
    # intra 2ns + inter 20ns + intra 2ns plus serialization on each link.
    assert arrivals[0] == ns(24) + 125 + 500 + 125


def test_memory_link_latency():
    sim, meter, net, p = build()
    src = p.l1d_of(0)
    dst = NodeId(NodeKind.MEM, 0)
    arrivals = []
    net.register(dst, lambda m: arrivals.append(sim.now))
    net.send(Message(MsgType.TOK_ACK, src, dst, 0))
    sim.run()
    # intra 2ns + mem link 20ns + serialization on both.
    assert arrivals[0] == ns(22) + 125 + 125


def test_fifo_per_path():
    sim, meter, net, p = build()
    src, dst = p.l1d_of(0), p.l1d_of(4)
    seen = []
    net.register(dst, lambda m: seen.append(m.serial))
    for i in range(10):
        net.send(Message(MsgType.TOK_DATA, src, dst, 0, serial=i))
    sim.run()
    assert seen == list(range(10))


def test_bandwidth_serialization_queues_messages():
    sim, meter, net, p = build()
    src, dst = p.l1d_of(0), p.l1d_of(1)
    arrivals = []
    net.register(dst, lambda m: arrivals.append(sim.now))
    for _ in range(3):
        net.send(Message(MsgType.TOK_DATA, src, dst, 0))  # 72B @ 64GB/s = 1125ps
    sim.run()
    assert arrivals[1] - arrivals[0] == 1125
    assert arrivals[2] - arrivals[1] == 1125


def test_traffic_accounting_by_scope_and_class():
    sim, meter, net, p = build()
    src, dst = p.l1d_of(0), p.l1d_of(4)
    net.register(dst, lambda m: None)
    net.send(Message(MsgType.TOK_DATA, src, dst, 0))
    sim.run()
    # One 72-byte message crossed two intra links and one inter link.
    assert meter.scope_bytes(Scope.INTER) == 72
    assert meter.scope_bytes(Scope.INTRA) == 144
    assert meter.breakdown(Scope.INTER)[TrafficClass.RESPONSE_DATA] == 72
    assert meter.breakdown(Scope.INTER)[TrafficClass.REQUEST] == 0


def test_control_vs_data_message_sizes():
    sim, meter, net, p = build()
    src, dst = p.l1d_of(0), p.l1d_of(4)
    net.register(dst, lambda m: None)
    net.send(Message(MsgType.TOK_GETS, src, dst, 0))
    sim.run()
    assert meter.scope_bytes(Scope.INTER) == 8


def test_unregistered_destination_rejected():
    sim, meter, net, p = build()
    with pytest.raises(ConfigError):
        net.send(Message(MsgType.TOK_ACK, p.l1d_of(0), p.l1d_of(1), 0))


def test_duplicate_registration_rejected():
    sim, meter, net, p = build()
    net.register(p.l1d_of(0), lambda m: None)
    with pytest.raises(ConfigError):
        net.register(p.l1d_of(0), lambda m: None)


def test_mem_to_remote_chip_path():
    sim, meter, net, p = build()
    src = NodeId(NodeKind.MEM, 0)
    dst = p.l1d_of(4)  # chip 1
    arrivals = []
    net.register(dst, lambda m: arrivals.append(sim.now))
    net.send(Message(MsgType.TOK_ACK, src, dst, 0))
    sim.run()
    # mem link 20 + inter 20 + intra 2 (+ serialization x3).
    assert arrivals[0] == ns(42) + 125 + 500 + 125


def test_zero_cost_serialization_clamped_to_one_ps():
    from repro.interconnect.network import Link

    link = Link("x", Scope.INTRA, 0, 1e9)  # absurdly fast link
    assert link.traverse(100, 8) == 101  # not 100: serialization >= 1 ps


def test_same_cycle_sends_keep_fifo_order_on_one_link():
    from repro.interconnect.network import Link

    link = Link("x", Scope.INTRA, ns(2), 1e9)
    arrivals = [link.traverse(0, 0) for _ in range(5)]
    assert arrivals == sorted(arrivals)
    assert len(set(arrivals)) == 5  # strictly increasing, no ties to resolve


def test_serialization_times_pinned_for_table3_links():
    """Regression pins for the integer serialization arithmetic.

    These are the exact delays every experiment's timing is built from
    (Table 3 bandwidths x Section 8 message sizes); any change here
    shifts *all* runtimes and breaks byte-identical reproduction.
    """
    from repro.interconnect.network import Link

    intra = Link("intra", Scope.INTRA, 0, 64.0)  # 64 GB/s on-chip
    inter = Link("inter", Scope.INTER, 0, 16.0)  # 16 GB/s global
    assert intra.serialization_ps(8) == 125  # control message
    assert intra.serialization_ps(72) == 1125  # data message
    assert inter.serialization_ps(8) == 500
    assert inter.serialization_ps(72) == 4500


def test_serialization_is_exact_ceiling_not_float_round():
    from repro.interconnect.network import Link

    # 1 byte at 16 bytes/ns is 62.5 ps: float round() banker's-rounds
    # down to 62; the link must charge the full ceiling, 63 ps.
    link = Link("x", Scope.INTRA, 0, 16.0)
    assert link.serialization_ps(1) == 63
    # Inexact quotient: 8000/3 ps must ceil to 2667.
    assert Link("y", Scope.INTRA, 0, 3.0).serialization_ps(8) == 2667
    # Fractional bandwidths expand to an exact integer ratio.
    assert Link("z", Scope.INTRA, 0, 2.5).serialization_ps(8) == 3200


def test_serialization_clamped_to_one_ps():
    from repro.interconnect.network import Link

    link = Link("x", Scope.INTRA, 0, 1e9)
    assert link.serialization_ps(0) == 1
    assert link.serialization_ps(8) == 1


def test_traverse_matches_serialization_ps():
    from repro.interconnect.network import Link

    link = Link("x", Scope.INTRA, ns(2), 16.0)
    assert link.traverse(0, 72) == link.serialization_ps(72) + ns(2)
    # Back-to-back messages queue by exactly the serialization delay.
    second = link.traverse(0, 72)
    assert second == 2 * link.serialization_ps(72) + ns(2)


def test_intern_dests_returns_one_tuple_per_content():
    _sim, _meter, net, p = build()
    first = net.intern_dests((p.l1d_of(0), p.l1d_of(1)))
    again = net.intern_dests(tuple([p.l1d_of(0), p.l1d_of(1)]))
    assert again is first
    assert net.intern_dests((p.l1d_of(1), p.l1d_of(0))) is not first


def test_fanout_plans_are_built_once_per_destination_set(monkeypatch):
    # ``send_fanout`` caches plans by destination-tuple identity, so the
    # broadcasting controllers must hand it interned tuples: without
    # interning, equal sets built for different blocks each miss the
    # cache (3,229 plan builds on this cell instead of 236).
    from repro.exp.library import fig6_smoke_cell
    from repro.exp.runner import run_cell

    counts = {"plans": 0, "fanouts": 0}
    build_plan = Network._build_fanout_plan
    send_fanout = Network.send_fanout

    def counted_plan(self, src, dests):
        counts["plans"] += 1
        return build_plan(self, src, dests)

    def counted_fanout(self, template, dests):
        counts["fanouts"] += 1
        return send_fanout(self, template, dests)

    monkeypatch.setattr(Network, "_build_fanout_plan", counted_plan)
    monkeypatch.setattr(Network, "send_fanout", counted_fanout)
    result = run_cell(fig6_smoke_cell())
    assert result.raw.machine.sim.events_fired == 163255
    assert counts["fanouts"] == 10107
    assert counts["plans"] <= 300
    # The cell's simulated outcome, pinned on every interpreter the
    # suite runs on (BENCH_work.json carries the same two values).
    blob = json.dumps(result.metrics(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "8d0b568583625eb4a005fd9ee1c569bfb7a87a9375adc2c9400de423863d6031")
    assert result.runtime_ps == 20_234_772


# ---------------------------------------------------------------------------
# MessagePool: the machine's counting message constructor.
# ---------------------------------------------------------------------------
A, B = 10, 11  # arbitrary node ids


def test_pool_clone_stamps_template_and_draws_fresh_uid():
    pool = MessagePool()
    template = pool.acquire_carrier(
        MsgType.TOK_DATA, A, B, 0x40,
        tokens=3, owner=True, data=0x77, dirty=True, epoch=2,
    )
    clone = pool.clone(template, dst=B + 1)
    assert clone is not template
    assert clone.dst == B + 1 and clone.uid == template.uid + 1
    assert (clone.tokens, clone.owner, clone.data, clone.dirty, clone.epoch) \
        == (3, True, 0x77, True, 2)
    assert template.dst == B  # the template itself is untouched


def test_pool_builds_fresh_messages_and_draws_one_uid_each():
    # The uid counter is global: a constructor that drew extra (or
    # fewer) uids per message would shift every later uid.
    pool = MessagePool()
    msgs = [pool.acquire(MsgType.TOK_GETS, A, B, 0x100)]
    msgs.append(pool.acquire_carrier(
        MsgType.TOK_ACK, A, B, 0x100,
        tokens=1, owner=False, data=None, dirty=False, epoch=0,
    ))
    msgs.append(pool.clone(msgs[0], B + 1))
    pool.release(msgs[0])  # a no-op: nothing is recycled
    msgs.append(pool.acquire(MsgType.TOK_GETS, A, B, 0x100))
    uids = [m.uid for m in msgs]
    assert uids == list(range(uids[0], uids[0] + 4))
    assert len({id(m) for m in msgs}) == 4
    assert pool.acquires == pool.news == 4
    assert msgs[3] == Message(MsgType.TOK_GETS, A, B, 0x100, uid=uids[3])
