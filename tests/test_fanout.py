"""Broadcast fan-out: the template contract, plans and stored serialization.

``Network.send_fanout`` takes its template: untraced, every destination
receives that very object, so no receiver may mutate it.
``_build_fanout_plan`` resolves a destination set with C-level passes;
:func:`_oracle_plan` is the per-destination loop it replaced, and the
reference it must equal on every set the token controllers build.  Each
link stores its serialization delay for the machine's two wire sizes;
the checks below hold those values to ``Link.serialization_ps``.
"""

import pytest

from repro.common.params import SystemParams
from repro.common.types import NodeId, NodeKind, ns
from repro.core.base import holders_and_home
from repro.core.l1 import TokenL1Controller
from repro.core.l2 import TokenL2Controller
from repro.exp.library import mesh_params
from repro.exp.runner import run_cell
from repro.exp.spec import Cell
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import BufferedLink, Link, Network
from repro.interconnect.topology import GENERATORS, Topology
from repro.interconnect.traffic import Scope, TrafficMeter
from repro.sim.kernel import Simulator
from repro.system import MachineSpec


def _oracle_plan(net, src, dests):
    """``(pairs, scope_links, first)`` by the per-destination loop."""
    by_dst = net._route_row(src)
    if by_dst is None:
        return None
    endpoint_of = net._endpoint_of
    pairs = []
    counts = {}
    for dst in dests:
        route = by_dst.get(dst)
        endpoint = endpoint_of(dst)
        if route is None or endpoint is None:
            return None
        pairs.append((endpoint, route))
        for link in route:
            scope = link.scope
            counts[scope] = counts.get(scope, 0) + 1
    first = pairs[0][1][0] if pairs and pairs[0][1] else None
    if first is not None and not (first.plain and all(
        route and route[0] is first and first not in route[1:]
        for _endpoint, route in pairs
    )):
        first = None
    return tuple(pairs), tuple(counts.items()), first


def _assert_plan_matches_oracle(net, src, dests):
    plan = net._build_fanout_plan(src, dests)
    want = _oracle_plan(net, src, dests)
    if want is None:
        assert plan is None
        return None
    got_dests, pairs, scope_links, first = plan
    assert got_dests is dests
    assert pairs == want[0]
    assert scope_links == want[1]
    assert first is want[2]
    return first


def _small_net(**kwargs):
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16, **kwargs)
    sim = Simulator()
    return sim, Network(sim, params, TrafficMeter()), params


# ---------------------------------------------------------------------------
# The template is the delivered message.
# ---------------------------------------------------------------------------
def test_untraced_delivery_is_the_template_itself():
    sim, net, p = _small_net()
    src = p.l1d_of(0)
    dests = net.intern_dests(tuple(n for n in p.token_holders(0) if n != src))
    received = []
    for node in dests:
        net.register(node, received.append)
    template = Message(MsgType.TOK_GETS, src, src, 0, requestor=src)
    net.send_fanout(template, dests)
    sim.run()
    assert len(received) == len(dests)
    assert all(msg is template for msg in received)


@pytest.mark.parametrize("protocol", ("TokenCMP-dst1", "TokenB"))
def test_no_receiver_mutates_a_shared_template(monkeypatch, protocol):
    # Untraced, every receiver of a broadcast holds the same template
    # object, so one receiver's write would show in every other's view.
    # Snapshot each template as it is handed over; none may change.
    sent = []
    send_fanout = Network.send_fanout

    def snapshot_fanout(self, template, dests):
        sent.append((template, dict(template.__dict__)))
        return send_fanout(self, template, dests)

    monkeypatch.setattr(Network, "send_fanout", snapshot_fanout)
    run_cell(Cell(
        protocol=protocol, workload="oltp",
        workload_kwargs=(("refs_per_proc", 40),), seed=3,
        params=SystemParams(num_chips=2, procs_per_chip=2,
                            tokens_per_block=16),
    ))
    assert len(sent) > 100
    changed = [(before, template.__dict__) for template, before in sent
               if template.__dict__ != before]
    assert changed == []


def test_generator_dests_fan_out_like_their_tuple():
    deliveries = []
    for as_generator in (False, True):
        sim, net, p = _small_net()
        src = p.l2_bank(0, 0)
        dests = tuple(n for n in p.token_holders(0) if n != src)
        seen = []
        for node in dests:
            net.register(node, lambda msg, node=node: seen.append((sim.now, node)))
        template = Message(MsgType.TOK_GETX, src, src, 0, requestor=src)
        net.send_fanout(template, (d for d in dests) if as_generator else dests)
        sim.run()
        links = {name: (link.busy_until, link.bytes_carried)
                 for name, link in net.links_by_name().items()}
        deliveries.append((seen, links, dict(net.meter.bytes)))
    assert deliveries[0] == deliveries[1]
    assert len(deliveries[0][0]) == len(dests)


# ---------------------------------------------------------------------------
# Plans against the per-destination oracle.
# ---------------------------------------------------------------------------
MACHINES = {
    "ptp-4x4": SystemParams(),
    "mesh-16x2": mesh_params(16, 2),
    "torus-8x2": SystemParams(num_chips=8, procs_per_chip=2, topology=Topology.torus()),
    "fattree-8x2": SystemParams(num_chips=8, procs_per_chip=2, topology=Topology.fattree()),
    # The sender's first hop is buffered, so no plan has a ``first``.
    "ptp-4x4-buffered-intra": SystemParams(
        topology=Topology().with_override("intra:*", buffer_bytes=64)),
}


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_plans_equal_the_per_destination_loop(name):
    params = MACHINES[name]
    machine = MachineSpec(params=params, protocol="TokenCMP-dst1").build()
    net = machine.net
    addrs = [r * params.block_size
             for r in range(params.num_chips * params.l2_banks_per_chip)]
    sets = []
    for ctrl in machine.controllers.values():
        if isinstance(ctrl, TokenL1Controller):
            for addr in addrs:
                sets.append((ctrl.node, ctrl._transient_destinations(addr, False)))
                sets.append((ctrl.node, ctrl._transient_destinations(addr, True)))
                sets.append((ctrl.node, ctrl._persistent_broadcast_set(addr)))
        elif isinstance(ctrl, TokenL2Controller):
            sets.append((ctrl.node, ctrl._local_l1s))
            for addr in addrs:
                sets.append((ctrl.node, ctrl._escalation_destinations(addr)))
    for mem in machine.mems.values():
        for addr in addrs:
            sets.append((mem.node, holders_and_home(net, params, addr)[:-1]))
    firsts = [_assert_plan_matches_oracle(net, src, dests) for src, dests in sets]
    if name.endswith("buffered-intra"):
        # Caches and memory leave on their own links; only the buffered
        # intra-chip ones are refused a closed-form first hop.
        cache_firsts = [first for (src, _dests), first in zip(sets, firsts)
                        if src.kind is not NodeKind.MEM]
        assert cache_firsts and not any(cache_firsts)
    else:
        assert all(first is not None for first in firsts)


def test_plan_is_none_without_a_route_or_an_endpoint():
    _sim, net, p = _small_net()
    src = p.l1d_of(0)
    stray = NodeId(NodeKind.L1D, 0, 99)  # outside the topology graph
    unregistered = p.l1d_of(1)
    for node in (src, stray, p.l2_bank(0, 0)):
        net.register(node, lambda msg: None)
    assert net._build_fanout_plan(src, (p.l2_bank(0, 0), stray)) is None
    assert net._build_fanout_plan(src, (p.l2_bank(0, 0), unregistered)) is None
    assert net._build_fanout_plan(stray, (src,)) is None
    assert _assert_plan_matches_oracle(net, src, (p.l2_bank(0, 0),)) is not None
    # An empty route (the sender among its destinations) has no first hop.
    assert _assert_plan_matches_oracle(net, src, (p.l2_bank(0, 0), src)) is None
    assert _assert_plan_matches_oracle(net, src, ()) is None


def test_no_closed_form_first_hop_for_a_route_that_meets_it_again():
    _sim, net, p = _small_net()
    src = p.l1d_of(0)
    dests = (p.l1d_of(1), p.l2_bank(0, 0))
    for node in dests:
        net.register(node, lambda msg: None)
    row = net._route_row(src)
    head = row[dests[1]][0]
    assert _assert_plan_matches_oracle(net, src, dests) is head
    # Rig one route to cross the sender's egress link a second time.
    row[dests[1]] = row[dests[1]] + (head,)
    assert _assert_plan_matches_oracle(net, src, dests) is None


# ---------------------------------------------------------------------------
# Serialization stored per wire size.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_links_store_serialization_for_both_wire_sizes(generator):
    topology = (Topology.named(generator)
                .with_override("intra:*", buffer_bytes=64)
                .with_override("mem-*", bytes_per_ns=3.0))
    params = SystemParams(num_chips=4, procs_per_chip=2, topology=topology)
    net = Network(Simulator(), params, TrafficMeter())
    links = net.links_by_name().values()
    assert any(isinstance(link, BufferedLink) for link in links)
    assert any(link.plain for link in links)
    for link in links:
        assert link.ser_ctrl == link.serialization_ps(params.control_msg_bytes)
        assert link.ser_data == link.serialization_ps(params.data_msg_bytes)


def test_standalone_link_traverses_without_stored_serialization():
    link = Link("x", Scope.INTRA, ns(2), 3.0)
    assert link.ser_ctrl is None and link.ser_data is None
    assert link.traverse(0, 8) == 2667 + ns(2)
    assert link.traverse(0, 8) == 2 * 2667 + ns(2)
    assert link.bytes_carried == 16
