"""Route tests: the graph-built routes vs the Table-3 branch ladder.

``Network.register`` takes each endpoint's origin from the compiled
topology graph (``TopologyGraph.origin``: the link leaving its free-edge
closure onto its routing site, the site's row of routes, and the
endpoints of the closure), so ``send`` never routes per message;
``Network.route(src, dst)`` joins a pair on first use.
The graph is the only routing mechanism in the program; the paper's
Table-3 routing rules survive here as :func:`_path`, a branch ladder
over link names that these tests replay exhaustively against
``Network.route`` on 1-, 2-, 4- and 8-chip ``ptp`` machines — including
the IFACE/MEM/ARB corner cases the ladder special-cases.  They also pin
that routing is independent of ``PYTHONHASHSEED`` for every generator
and that a pair outside the graph is a :class:`ConfigError`.

One shortest-path search runs per routing site, not per endpoint, and a
site is searched when a controller registers on it: a built machine,
whose controllers all route from their chip's hub, runs one search per
chip, and ``TopologyGraph.routes()`` two (hub and interface).  The
per-endpoint search survives here as :func:`_per_endpoint_routes`, the
reference that the joined table (``TopologyGraph.routes()``) and every
built machine's routes must equal on every generator, and the work and
sharing of the build are pinned.
"""

import dataclasses
import gc
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.common.types import NodeId, NodeKind
from repro.exp.library import fig6_smoke_cell, mesh_params
from repro.exp.runner import run_cell
from repro.exp.spec import Cell
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Network
from repro.interconnect.topology import GENERATORS, Topology, TopologyGraph
from repro.interconnect.traffic import TrafficMeter
from repro.sim.kernel import Simulator
from repro.system import MachineSpec
from repro.system.machine import Machine

CONFIGS = {
    "1-chip": dict(num_chips=1, procs_per_chip=4),
    "2-chip": dict(num_chips=2, procs_per_chip=2),
    "4x4": dict(num_chips=4, procs_per_chip=4),
    "8-chip": dict(num_chips=8, procs_per_chip=2),
}


def build(**kwargs):
    params = SystemParams(**kwargs)
    return Network(Simulator(), params, TrafficMeter()), params


def _path(net, src, dst):
    """Link names a message crosses from ``src`` to ``dst`` on ``ptp``.

    The Table-3 branch ladder: the executable statement of the paper's
    routing rules (intra egress -> inter egress of the source chip ->
    intra egress of the destination chip's interface, with memory-site
    and interface corner cases), the oracle for the graph-built table.
    """
    if src == dst:
        return []
    p = net.params
    src_mem = src.kind in (NodeKind.MEM, NodeKind.ARB)
    dst_mem = dst.kind in (NodeKind.MEM, NodeKind.ARB)

    if src_mem and dst_mem:
        if src.chip == dst.chip:  # arbiter <-> memory controller, same site
            names = []
        else:
            names = [f"mem-in:{src.chip}", f"inter:{src.chip}",
                     f"mem-out:{dst.chip}"]
    elif src_mem:
        names = [f"mem-in:{src.chip}"]
        if src.chip != dst.chip:
            names.append(f"inter:{src.chip}")
            # The interface sits on the fabric, so delivery to it never
            # re-crosses its own intra egress link.
            if dst.kind is not NodeKind.IFACE:
                names.append(f"intra:{p.iface_of(dst.chip)}")
    elif dst_mem:
        names = [] if src.kind is NodeKind.IFACE else [f"intra:{src}"]
        if src.chip != dst.chip:
            names.append(f"inter:{src.chip}")
        names.append(f"mem-out:{dst.chip}")
    elif src.chip == dst.chip:  # chip component to chip component
        names = [f"intra:{src}"]
    else:
        names = [] if src.kind is NodeKind.IFACE else [f"intra:{src}"]
        names.append(f"inter:{src.chip}")
        if dst.kind is not NodeKind.IFACE:
            names.append(f"intra:{p.iface_of(dst.chip)}")
    links = net.links_by_name()
    missing = [name for name in names if name not in links]
    assert not missing, (src, dst, missing)
    return names


def route_names(net, src, dst):
    return [link.name for link in net.route(src, dst)]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_route_cache_matches_path_ladder_for_every_pair(config):
    net, params = build(**CONFIGS[config])
    nodes = list(net.graph.endpoints)
    for src in nodes:
        for dst in nodes:
            assert route_names(net, src, dst) == _path(net, src, dst), (src, dst)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_route_cache_covers_exactly_the_node_pair_square(config):
    net, _params = build(**CONFIGS[config])
    nodes = set(net.graph.endpoints)
    origins = net.graph.origins()
    assert set(origins) == nodes
    for src, (_head, row, local) in origins.items():
        assert src in local
        assert set(row) | local == nodes
    stray = NodeId(NodeKind.L1D, 0, 99)
    assert stray not in nodes
    for src in nodes:
        for dst in nodes:
            assert isinstance(net.route(src, dst), tuple), (src, dst)
        for pair in ((src, stray), (stray, src)):
            with pytest.raises(ConfigError):
                net.route(*pair)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_all_machine_endpoints_are_in_the_enumeration(config):
    net, params = build(**CONFIGS[config])
    nodes = set(net.graph.endpoints)
    for chip in range(params.num_chips):
        for node in params.chip_l1s(chip) + params.chip_l2_banks(chip):
            assert node in nodes
        assert params.iface_of(chip) in nodes
        assert NodeId(NodeKind.MEM, chip) in nodes
        assert NodeId(NodeKind.ARB, chip) in nodes


def test_self_route_is_empty():
    net, params = build(**CONFIGS["4x4"])
    for node in net.graph.endpoints:
        assert net.route(node, node) == ()


def test_arbiter_and_memory_colocated_route_is_empty():
    # The persistent-request arbiter sits at the memory controller site:
    # messages between them cross no links (the ladder's first corner).
    net, params = build(**CONFIGS["4x4"])
    for chip in range(params.num_chips):
        mem = NodeId(NodeKind.MEM, chip)
        arb = NodeId(NodeKind.ARB, chip)
        assert net.route(mem, arb) == ()
        assert net.route(arb, mem) == ()


def test_cross_chip_arbiter_route_uses_mem_and_inter_links():
    net, params = build(**CONFIGS["4x4"])
    arb0 = NodeId(NodeKind.ARB, 0)
    mem1 = NodeId(NodeKind.MEM, 1)
    assert route_names(net, arb0, mem1) == ["mem-in:0", "inter:0", "mem-out:1"]


def test_iface_egress_skips_its_own_intra_link():
    # A message leaving from the chip interface is already at the global
    # network boundary: no intra hop on the source side.
    net, params = build(**CONFIGS["4x4"])
    iface0 = params.iface_of(0)
    l1_remote = params.l1d_of(params.procs_per_chip)  # first proc on chip 1
    assert route_names(net, iface0, l1_remote)[0] == "inter:0"
    # ... and a message *to* an interface stops at the inter link.
    l1_local = params.l1d_of(0)
    assert route_names(net, l1_local, params.iface_of(1))[-1] == "inter:0"


def test_send_uses_cached_route(monkeypatch):
    # Once its endpoints are registered, the hot path must never route
    # on the graph.
    net, params = build(**CONFIGS["2-chip"])
    sim = net.sim
    src, dst = params.l1d_of(0), params.l1d_of(params.procs_per_chip)
    seen = []
    net.register(src, lambda msg: None)
    net.register(dst, seen.append)
    monkeypatch.setattr(TopologyGraph, "_sssp", _no_search)
    net.send(Message(MsgType.TOK_ACK, src, dst, 0))
    sim.run()
    assert len(seen) == 1


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_self_send_arrives_after_the_relay_and_charges_nothing(generator):
    # A message to its own sender crosses no link: it arrives at once,
    # and the receiver's lookup latency (its relay) is all it waits.
    params = SystemParams(num_chips=4, procs_per_chip=2,
                          topology=Topology.named(generator))
    sim, meter = Simulator(), TrafficMeter()
    net = Network(sim, params, meter)
    relay = 700
    arrived = []

    def callee(msg):
        arrived.append((sim.now, msg.src))

    nodes = list(net.graph.endpoints)
    for node in nodes:
        net.register(node, lambda msg: sim.call_after(relay, callee, msg),
                     relay, callee)
    sim.call_after(1234, lambda _arg: [
        net.send(Message(MsgType.TOK_ACK, node, node, 0)) for node in nodes
    ], None)
    sim.run()
    assert arrived == [(1234 + relay, node) for node in nodes]
    assert not any(link.busy_until or link.bytes_carried
                   for link in net.links_by_name().values())
    assert not any(meter.bytes.values()) and not any(meter.messages.values())


def test_a_real_self_send_is_delivered(monkeypatch):
    # DirectoryCMP's intra-chip L2 answers its own external request
    # (``IntraDirL2Controller._finish_ext``) with a message to itself.
    selfs = []
    send = Network.send

    def spy(self, msg):
        if msg.src == msg.dst:
            selfs.append((msg.mtype, str(msg.src)))
        return send(self, msg)

    monkeypatch.setattr(Network, "send", spy)
    result = run_cell(Cell(protocol="DirectoryCMP-zero", workload="locking",
                           seed=1, params=SystemParams(num_chips=2,
                                                       procs_per_chip=2)))
    assert selfs == [(MsgType.DIR_DATA, "l2[1.2]")]
    assert result.runtime_ps > 0


def _joined_pairs(net):
    # The memo ``send`` fills (private: no public view of it exists).
    return {(src, dst) for src, row in net._routes_from.items() for dst in row}


@pytest.mark.parametrize("cell,pairs", [
    (fig6_smoke_cell(), 436),
    (Cell(protocol="TokenCMP-dst1", workload="oltp", seed=1,
          workload_kwargs={"refs_per_proc": 30}, params=mesh_params(8, 2)),
     297),
], ids=["fig6-smoke", "mesh-8x2"])
def test_send_joins_only_the_pairs_it_uses(monkeypatch, cell, pairs):
    # Construction joins no pair; afterwards the table holds exactly the
    # pairs ``send`` carried (of 3,600 and 7,744 on these machines).
    built = []
    used = set()
    init, send = Network.__init__, Network.send

    def spy_init(self, *args):
        init(self, *args)
        built.append(_joined_pairs(self))

    def spy_send(self, msg):
        used.add((msg.src, msg.dst))
        return send(self, msg)

    monkeypatch.setattr(Network, "__init__", spy_init)
    monkeypatch.setattr(Network, "send", spy_send)
    result = run_cell(cell)
    assert built == [set()]
    assert _joined_pairs(result.raw.machine.net) == used
    assert len(used) == pairs


@pytest.mark.parametrize("procs,bound_mb", [(2, 1.2), (8, 2.5)])
def test_network_construction_retains_little_memory(procs, bound_mb):
    # With every controller endpoint registered, a Network keeps one
    # row per hub; the full per-pair table held 2.35 MB (16x2) and
    # 8.09 MB (16x8).
    Network(Simulator(), SystemParams(num_chips=2, procs_per_chip=2),
            TrafficMeter())  # imports and lazy caches outside the window
    params = mesh_params(16, procs)
    sim, meter = Simulator(), TrafficMeter()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net = Network(sim, params, meter)
        for node in net.graph.endpoints:
            if node.kind is not NodeKind.IFACE:
                net.register(node, print)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(net.graph.endpoints) == 16 * (2 * procs + 7)
    assert retained <= bound_mb * 10 ** 6, retained


def test_unknown_pair_raises_config_error():
    # An endpoint outside the topology graph has no route: ``send`` and
    # the ``send_fanout`` per-destination fallback both refuse the pair
    # by name instead of inventing a route.
    net, params = build(**CONFIGS["2-chip"])
    src = params.l1d_of(0)
    stray = NodeId(NodeKind.L1D, 0, 99)
    assert stray not in net.graph.endpoints
    for node in (src, stray):
        net.register(node, lambda msg: None)
    with pytest.raises(ConfigError, match=re.escape(f"{src} -> {stray}")):
        net.send(Message(MsgType.TOK_ACK, src, stray, 0))
    with pytest.raises(ConfigError, match=re.escape(f"{stray} -> {src}")):
        net.send(Message(MsgType.TOK_ACK, stray, src, 0))
    with pytest.raises(ConfigError, match=re.escape(f"{src} -> {stray}")):
        net.send_fanout(Message(MsgType.TOK_ACK, src, src, 0), (stray,))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_message_size_table_matches_payload_rule(config):
    # What ``send`` charges: every hop of the route, and the traffic
    # meter once per hop, grow by the data or control message size.
    net, params = build(**CONFIGS[config])
    src = params.l1d_of(0)
    dst = NodeId(NodeKind.MEM, params.num_chips - 1)
    net.register(dst, lambda msg: None)
    route = net.route(src, dst)
    assert route and len(set(route)) == len(route)
    for mtype in MsgType:
        expected = (params.data_msg_bytes if mtype.has_data
                    else params.control_msg_bytes)
        carried = [link.bytes_carried for link in route]
        metered = sum(net.meter.bytes.values())
        net.send(Message(mtype, src, dst, 0))
        net.sim.run()
        assert [link.bytes_carried - b for link, b in zip(route, carried)] == (
            [expected] * len(route)), mtype
        assert sum(net.meter.bytes.values()) - metered == expected * len(route)


# ---------------------------------------------------------------------------
# Graph routing vs the ladder, and non-default topologies.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_graph_route_names_equal_ladder_names_for_every_pair(config):
    # Belt and braces over the table test above: the compiled graph's
    # link-name routes equal the ladder's, for every ordered pair.
    net, _params = build(**CONFIGS[config])
    for src, row in net.graph.routes().items():
        for dst, names in row.items():
            assert list(names) == _path(net, src, dst), (src, dst)


def test_mem_to_remote_iface_stops_at_the_inter_link():
    # The dst-IFACE exception applies from memory-site sources too: the
    # interface sits on the fabric, so delivery to it never re-crosses
    # its own intra egress link (ladder and graph agree).
    net, params = build(**CONFIGS["4x4"])
    mem0 = NodeId(NodeKind.MEM, 0)
    assert route_names(net, mem0, params.iface_of(1)) == ["mem-in:0", "inter:0"]


def test_mesh_routes_take_multiple_inter_hops():
    params = SystemParams(num_chips=8, procs_per_chip=2,
                          topology=Topology.mesh())
    net = Network(Simulator(), params, TrafficMeter())
    # Mesh corners (2x4 grid: chips 0 and 7) are several hops apart.
    names = route_names(net, params.l1d_of(0), params.l1d_of(15))
    inter_hops = [n for n in names if n.startswith("inter:")]
    assert len(inter_hops) >= 3
    # Every hop goes router-to-adjacent-router (a>b edge labels).
    for hop in inter_hops:
        a, b = hop.split(":")[1].split(">")
        assert abs(int(a) - int(b)) in (1, 4)


_DIGEST_SNIPPET = """
import hashlib, json
from repro.common.params import SystemParams
from repro.interconnect.topology import Topology
params = SystemParams(num_chips=6, procs_per_chip=2,
                      topology=Topology.named(%(gen)r))
graph = params.topology.build(params)
routes = {str(src) + '->' + str(dst): list(names)
          for src, row in graph.routes().items()
          for dst, names in row.items()}
blob = json.dumps(routes, sort_keys=True)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


@pytest.mark.parametrize("gen", ["fattree", "mesh", "ptp", "torus"])
def test_routes_are_stable_across_hash_seeds(gen):
    # Route construction must not depend on dict/set hash order: the
    # same topology must route identically under different
    # PYTHONHASHSEED values (and therefore across worker processes).
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    digests = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ,
                   PYTHONHASHSEED=seed,
                   PYTHONPATH=src_dir + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SNIPPET % {"gen": gen}],
            capture_output=True, text=True, env=env, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests


# ---------------------------------------------------------------------------
# One search per routing site vs the per-endpoint reference.
# ---------------------------------------------------------------------------


def _per_endpoint_routes(graph):
    """One shortest-path search per endpoint: the reference table."""
    endpoints = graph.endpoints
    return {src: {dst: paths[dst_v] for dst, dst_v in endpoints.items()}
            for src, paths in ((src, graph._sssp(src_v))
                               for src, src_v in endpoints.items())}


def _sixteen_chip(topology):
    return dataclasses.replace(mesh_params(16, 2), topology=topology)


ORACLE_CONFIGS = {
    "ptp-1": lambda: SystemParams(**CONFIGS["1-chip"]),
    "ptp-2": lambda: SystemParams(**CONFIGS["2-chip"]),
    "ptp-4x4": lambda: SystemParams(**CONFIGS["4x4"]),
    "ptp-8": lambda: SystemParams(**CONFIGS["8-chip"]),
    "mesh-8x2": lambda: mesh_params(8, 2),
    "mesh-16x2": lambda: mesh_params(16, 2),
    "torus-16x2": lambda: _sixteen_chip(Topology.torus()),
    "fattree-16x2": lambda: _sixteen_chip(Topology.fattree()),
    "mesh-8x2-fast-inter": lambda: dataclasses.replace(
        mesh_params(8, 2),
        topology=Topology.mesh().with_override("inter:*", latency_ns=5.0)),
}


@pytest.mark.parametrize("config", sorted(ORACLE_CONFIGS))
def test_site_routes_equal_per_endpoint_search(config):
    params = ORACLE_CONFIGS[config]()
    graph = params.topology.build(params)
    assert graph.routes() == _per_endpoint_routes(graph)


@pytest.mark.parametrize("config", ["mesh-16x2", "ptp-4x4"])
def test_network_routes_are_the_named_links(config):
    net = Network(Simulator(), ORACLE_CONFIGS[config](), TrafficMeter())
    links = net.links_by_name()
    names = net.graph.routes()
    nodes = set(net.graph.endpoints)
    assert set(names) == nodes
    for src, row in names.items():
        assert set(row) == nodes
        for dst, route_names_ in row.items():
            route = net.route(src, dst)
            assert route == tuple(links[n] for n in route_names_), (src, dst)


def test_disconnected_graph_names_the_first_missing_pair():
    # Chip 1's interface loses its fabric egress: chip 1 can no longer
    # reach chip 0, and the error names the first pair the per-endpoint
    # search misses.
    params = SystemParams(**CONFIGS["2-chip"])
    graph = params.topology.build(params)
    iface = str(params.iface_of(1))
    graph.adj[iface] = [(v, link) for v, link in graph.adj[iface]
                        if link != "inter:1"]
    src, dst = next(
        (src, dst)
        for src, src_v in graph.endpoints.items()
        for dst, dst_v in graph.endpoints.items()
        if dst_v not in graph._sssp(src_v)
    )
    assert src.chip == 1 and dst.chip == 0
    with pytest.raises(ConfigError, match=re.escape(f"no route {src} -> {dst}")):
        graph.routes()


def _count_sssp(monkeypatch):
    calls = []
    search = TopologyGraph._sssp

    def counted(self, src_vertex):
        calls.append(src_vertex)
        return search(self, src_vertex)

    monkeypatch.setattr(TopologyGraph, "_sssp", counted)
    return calls


def _no_search(self, src_vertex):  # pragma: no cover - failure path
    raise AssertionError(f"graph searched from {src_vertex}")


@pytest.mark.parametrize("config", [
    "ptp-4x4", "mesh-16x2", "torus-16x2", "fattree-16x2",
])
def test_one_search_per_routing_site(monkeypatch, config):
    # Two routing sites per chip: the crossbar hub (every L1 and L2 bank
    # has one egress link onto it, and MEM and ARB leave their memory
    # site only over ``mem-in``, onto it) and the chip interface
    # (several exits).
    params = ORACLE_CONFIGS[config]()
    graph = params.topology.build(params)
    calls = _count_sssp(monkeypatch)
    graph.routes()
    assert len(calls) == 2 * params.num_chips
    assert set(calls) == {
        vertex for chip in range(params.num_chips)
        for vertex in (f"hub:{chip}", str(params.iface_of(chip)))}


@pytest.mark.parametrize("protocol", ["TokenCMP-dst1", "DirectoryCMP"])
@pytest.mark.parametrize("config", ["ptp-4x4", "mesh-16x2"])
def test_a_built_machine_searches_once_per_chip(monkeypatch, config, protocol):
    # Every controller routes from its chip's hub, and no controller
    # registers on the interface, so building a machine searches each
    # hub once, when the first controller of its chip registers.
    params = ORACLE_CONFIGS[config]()
    calls = _count_sssp(monkeypatch)
    net = MachineSpec(params=params, protocol=protocol).build().net
    assert len(calls) == params.num_chips
    assert set(calls) == {f"hub:{chip}" for chip in range(params.num_chips)}
    assert set(net._site_rows) == set(calls)


@pytest.mark.parametrize("config", sorted(ORACLE_CONFIGS))
def test_registered_routes_equal_per_endpoint_search(monkeypatch, config):
    # A built machine routes every pair of its registered endpoints as
    # the per-endpoint search does, and without searching again.
    params = ORACLE_CONFIGS[config]()
    want = _per_endpoint_routes(params.topology.build(params))
    for protocol in ("TokenCMP-dst1", "DirectoryCMP"):
        net = MachineSpec(params=params, protocol=protocol).build().net
        nodes = list(net._endpoints)
        assert set(nodes) <= set(want)
        assert NodeId(NodeKind.MEM, 0) in nodes
        assert not any(node.kind is NodeKind.IFACE for node in nodes)
        with monkeypatch.context() as patch:
            patch.setattr(TopologyGraph, "_sssp", _no_search)
            for src in nodes:
                for dst in nodes:
                    names = tuple(link.name for link in net.route(src, dst))
                    assert names == want[src][dst], (protocol, src, dst)


@pytest.mark.parametrize("protocol", ["TokenCMP-dst1", "DirectoryCMP"])
def test_no_search_while_a_mesh_machine_runs(monkeypatch, protocol):
    # Every sender registered before the run, so routing the run's
    # traffic joins origins and never searches the graph.
    machine_run = Machine.run
    runs = []

    def guarded_run(self, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(TopologyGraph, "_sssp", _no_search)
            runs.append(machine_run(self, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(Machine, "run", guarded_run)
    result = run_cell(Cell(protocol=protocol, workload="oltp", seed=1,
                           workload_kwargs={"refs_per_proc": 30},
                           params=mesh_params(8, 2)))
    assert len(runs) == 1 and result.runtime_ps > 0


@pytest.mark.parametrize("config,distinct", [
    ("ptp-4x4", 36), ("mesh-16x2", 752),
])
def test_equal_routes_share_one_link_tuple(config, distinct):
    # What stays resident is one row per routing site searched, shared
    # by the site's endpoints: on a built machine, one per chip.  Within
    # a row, destinations reached over one path share one tail tuple.
    # The pin is the rows' distinct tails summed over sites.  (The full
    # joined table held 501 and 7,505 distinct routes; the Network joins
    # only the pairs it sends on.)
    params = ORACLE_CONFIGS[config]()
    net = MachineSpec(params=params, protocol="TokenCMP-dst1").build().net
    rows = [row for row, _missing in net._site_rows.values()]
    assert len(rows) == params.num_chips
    shared = 0
    for row in rows:
        tails = row.values()
        assert len({id(tail) for tail in tails}) == len(set(tails))
        shared += len(set(tails))
    assert shared == distinct


def test_mesh_16x2_graph_shape_is_pinned():
    params = mesh_params(16, 2)
    stats = params.topology.build(params).describe()["stats"]
    assert stats == {
        "endpoints": 176,
        "vertices": 224,
        "links": 224,
        "diameter_hops": 8,
        "mean_hops": 4.268595041322314,
    }
