"""Route tests: the graph-built route table vs the Table-3 branch ladder.

``Network._build_routes`` resolves the compiled topology graph's routes
into ``_routes_from`` (``src -> dst -> tuple[Link, ...]``) for every
endpoint pair at construction, so ``send`` never routes per message.
The graph is the only routing mechanism in the program; the paper's
Table-3 routing rules survive here as :func:`_path`, a branch ladder
over link names that these tests replay exhaustively against the table
on 1-, 2-, 4- and 8-chip ``ptp`` machines — including the IFACE/MEM/ARB
corner cases the ladder special-cases.  They also pin that routing is
independent of ``PYTHONHASHSEED`` for every generator and that a pair
outside the table is a :class:`ConfigError`.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.common.types import NodeId, NodeKind
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Network
from repro.interconnect.topology import Topology, TopologyGraph
from repro.interconnect.traffic import TrafficMeter
from repro.sim.kernel import Simulator

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
    return [link.name for link in net._routes_from[src][dst]]


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
    assert set(net._routes_from) == nodes
    for row in net._routes_from.values():
        assert set(row) == nodes
    assert sum(map(len, net._routes_from.values())) == len(nodes) ** 2


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
        assert net._routes_from[node][node] == ()


def test_arbiter_and_memory_colocated_route_is_empty():
    # The persistent-request arbiter sits at the memory controller site:
    # messages between them cross no links (the ladder's first corner).
    net, params = build(**CONFIGS["4x4"])
    for chip in range(params.num_chips):
        mem = NodeId(NodeKind.MEM, chip)
        arb = NodeId(NodeKind.ARB, chip)
        assert net._routes_from[mem][arb] == ()
        assert net._routes_from[arb][mem] == ()


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
    # After construction, the hot path must never route on the graph.
    net, params = build(**CONFIGS["2-chip"])
    sim = net.sim

    def fail(self, src_vertex):  # pragma: no cover - failure path
        raise AssertionError(f"graph re-routed from {src_vertex}")

    monkeypatch.setattr(TopologyGraph, "_sssp", fail)
    src, dst = params.l1d_of(0), params.l1d_of(params.procs_per_chip)
    seen = []
    net.register(dst, seen.append)
    net.send(Message(MsgType.TOK_ACK, src, dst, 0))
    sim.run()
    assert len(seen) == 1


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
    net, params = build(**CONFIGS[config])
    for mtype in MsgType:
        expected = (params.data_msg_bytes if mtype.has_data
                    else params.control_msg_bytes)
        assert net._msg_size[mtype] == expected


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
