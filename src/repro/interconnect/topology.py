"""Declarative interconnect topologies and graph-based routing.

The paper's Table-3 machine hard-wires one fabric shape: a per-chip
crossbar ("every on-chip component has one egress link"), a directly
connected point-to-point global network, and one memory link per CMP.
This module generalizes that into a declarative :class:`Topology` spec —
a named *generator* plus frozen kwargs and per-link overrides — that
compiles against a :class:`~repro.common.params.SystemParams` into a
:class:`TopologyGraph`: a directed link graph over which deterministic
shortest-path routes are computed for every endpoint pair.

Generators (the inter-CMP fabric; the on-chip crossbar and the memory
links are common scaffolding):

``ptp``
    The paper's directly connected global network: every chip interface
    has one egress link onto the fabric (star through a zero-cost hub).
    The graph is the only statement of its routing; the Table-3 branch
    ladder survives only as the oracle in ``tests/test_routes.py``.
``mesh``
    2D mesh of chips (near-square by default, ``rows``/``cols`` kwargs
    override); each directed neighbor hop is its own link.
``torus``
    The mesh with wrap-around links in both dimensions.
``fattree``
    Chips grouped ``arity``-at-a-time under leaf switches, recursively
    up to a single root; uplinks get ``up_bw_factor`` more bandwidth per
    level (fatter toward the root).

Determinism
-----------

Route construction must be byte-stable across processes and
``PYTHONHASHSEED`` values: two runs of the same cell must route — and
therefore time — every message identically.  All graph vertices are
strings, adjacency lists are built in deterministic construction order,
and the shortest-path search orders its frontier by the fully comparable
tuple ``(link count, total latency, link-name path, vertex)``, so ties
are broken lexicographically, never by hash order.

The search runs once per *routing site*, not once per endpoint
(:meth:`TopologyGraph.origin`).  An endpoint ``v`` whose free-edge
closure (``v`` and every vertex it reaches over free edges) has exactly
one distinct link leaving it, ``c -> b`` over link ``L``, routes from
``b``: its route to an endpoint inside the closure is ``()``, and to any
other endpoint it is ``L`` (the *head*) followed by ``b``'s route.
Every L1 and L2 bank has one ``intra:`` egress to its chip's hub; MEM
and ARB reach each other over free edges and leave their memory site
only over ``mem-in``, to the same hub.  This is exact, not an
approximation.  Every candidate path from ``v`` to a vertex outside the
closure leaves it over ``L``, so each one's frontier key is ``b``'s key
shifted by a constant (one more link, ``L``'s latency, the common name
prefix), and ties break in the same order as from ``b``; no shortest
path from ``b`` re-enters the closure, whose only way out leads back to
``b``.  An endpoint whose closure has several exits (the chip
interface) is its own site, so the whole graph needs two searches per
chip, hub and interface, and a machine, whose controllers all route
from their chip's hub, one.

Routes are stored by site as well: each endpoint's *origin* is its head
link (or ``None``), its site's one row of routes, the *tails*, shared
by every endpoint of the site, and the endpoints of its closure.  A
route is joined as ``(head,) + tail`` only where a pair is used; the
network takes an endpoint's origin when a controller registers on it,
and joins a pair on its first send.

Buffering overrides are *diagnostic*: links model unbounded
store-and-forward queues, and a ``buffer_bytes`` capacity marks where
backlog beyond the configured buffer would have overflowed (reported by
:meth:`repro.interconnect.network.Network.buffer_report`), without
changing message timing.
"""

from __future__ import annotations

import dataclasses
import heapq
from fnmatch import fnmatch
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.types import NodeId, NodeKind, ns
from repro.interconnect.traffic import Scope

#: Canonical JSON schema tag for the ``topo`` CLI link-table document.
TOPOLOGY_SCHEMA = "repro.topology/1"

#: An endpoint's origin (:meth:`TopologyGraph.origin`): ``(head, row,
#: local)``.
Origin = Tuple[Optional[object], Dict[NodeId, tuple], FrozenSet[NodeId]]


@dataclasses.dataclass
class LinkSpec:
    """One physical link: name, network scope, latency, bandwidth.

    ``buffer_bytes`` is an optional egress-queue capacity used for
    overflow diagnostics (see module docstring); ``None`` = unbounded.
    """

    name: str
    scope: Scope
    latency_ps: int
    bytes_per_ns: float
    buffer_bytes: Optional[int] = None

    def validate(self) -> None:
        if self.bytes_per_ns <= 0:
            raise ConfigError(f"link {self.name!r}: bandwidth must be positive")
        if self.latency_ps < 0:
            raise ConfigError(f"link {self.name!r}: latency must be >= 0")
        if self.buffer_bytes is not None and self.buffer_bytes <= 0:
            raise ConfigError(f"link {self.name!r}: buffer_bytes must be positive")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scope": self.scope.value,
            "latency_ps": self.latency_ps,
            "bytes_per_ns": self.bytes_per_ns,
            "buffer_bytes": self.buffer_bytes,
        }


class GraphBuilder:
    """Accumulates vertices, links and directed edges for one topology.

    Edges are ``(next_vertex, link_name | None)``; a ``None`` link is a
    zero-cost hand-off inside a routing site (e.g. crossbar delivery to
    the destination port), which is how the paper's per-source-egress
    bandwidth accounting is expressed as a graph.
    """

    def __init__(self, params) -> None:
        self.params = params
        self.links: Dict[str, LinkSpec] = {}
        self.adj: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        self.endpoints: Dict[NodeId, str] = {}
        self._overrides: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = ()

    # ------------------------------------------------------------------
    def endpoint(self, node: NodeId) -> str:
        """Register ``node`` as an addressable endpoint; returns its vertex."""
        vertex = str(node)
        self.endpoints[node] = vertex
        return vertex

    def link(self, name: str, scope: Scope, latency_ps: int, bytes_per_ns: float,
             buffer_bytes: Optional[int] = None) -> str:
        """Declare (or re-reference) the link ``name``; returns the name.

        One name = one physical link: routes that share a name share its
        serialization queue.  Per-link overrides from the topology spec
        are applied here, at declaration time.
        """
        if name in self.links:
            return name
        spec = LinkSpec(name, scope, latency_ps, bytes_per_ns, buffer_bytes)
        for pattern, fields in self._overrides:
            if fnmatch(name, pattern):
                for field_name, value in fields:
                    if field_name == "latency_ns":
                        spec.latency_ps = ns(value)
                    elif field_name == "bytes_per_ns":
                        spec.bytes_per_ns = value
                    elif field_name == "buffer_bytes":
                        spec.buffer_bytes = value
                    else:
                        raise ConfigError(
                            f"unknown link override field {field_name!r} "
                            f"(want latency_ns, bytes_per_ns or buffer_bytes)"
                        )
        spec.validate()
        self.links[name] = spec
        return name

    def edge(self, src: str, dst: str, link: Optional[str] = None) -> None:
        """Add the directed edge ``src -> dst`` (free hop unless ``link``)."""
        self.adj.setdefault(src, []).append((dst, link))
        self.adj.setdefault(dst, [])


# ---------------------------------------------------------------------------
# Common scaffolding: the on-chip crossbar and the per-CMP memory site.
# ---------------------------------------------------------------------------

def _build_chip(b: GraphBuilder, chip: int) -> None:
    """One CMP: crossbar star over L1s/L2 banks/interface + memory site.

    The Table-3 on-chip shapes: every on-chip component owns one intra
    egress link onto the chip crossbar (``hub``), delivery from the
    crossbar is free, and the co-located memory controller +
    persistent-request arbiter (``memsite``) hang off dedicated
    ``mem-in``/``mem-out`` links.  The chip *interface*
    additionally gets a direct ``mem-out`` edge: it sits at the fabric
    boundary, one hop from the memory port.
    """
    p = b.params
    hub = f"hub:{chip}"
    memsite = f"memsite:{chip}"
    for node in p.chip_l1s(chip) + p.chip_l2_banks(chip):
        v = b.endpoint(node)
        b.edge(v, hub, b.link(f"intra:{v}", Scope.INTRA,
                              p.intra_link_latency_ps, p.intra_link_bw))
        b.edge(hub, v)
    iface = b.endpoint(p.iface_of(chip))
    b.edge(iface, hub, b.link(f"intra:{iface}", Scope.INTRA,
                              p.intra_link_latency_ps, p.intra_link_bw))
    b.edge(hub, iface)
    mem = b.endpoint(NodeId(NodeKind.MEM, chip))
    arb = b.endpoint(NodeId(NodeKind.ARB, chip))
    b.edge(mem, memsite)
    b.edge(memsite, mem)
    b.edge(arb, memsite)
    b.edge(memsite, arb)
    b.edge(memsite, hub, b.link(f"mem-in:{chip}", Scope.MEM,
                                p.mem_link_latency_ps, p.mem_link_bw))
    mem_out = b.link(f"mem-out:{chip}", Scope.MEM,
                     p.mem_link_latency_ps, p.mem_link_bw)
    b.edge(hub, memsite, mem_out)
    b.edge(iface, memsite, mem_out)


def _attach_gateways(b: GraphBuilder, gateways: Dict[int, str]) -> None:
    """Wire each chip's fabric gateway: free delivery to the chip
    interface, plus the chip's ``mem-out`` link to its memory site
    (inbound memory traffic never crosses the on-chip crossbar)."""
    p = b.params
    for chip in range(p.num_chips):
        gw = gateways[chip]
        b.edge(gw, str(p.iface_of(chip)))
        b.edge(gw, f"memsite:{chip}", f"mem-out:{chip}")


# ---------------------------------------------------------------------------
# Inter-CMP fabric generators.
# ---------------------------------------------------------------------------

def _gen_ptp(b: GraphBuilder) -> Dict[int, str]:
    """Directly connected global network (the paper's Table-3 fabric)."""
    p = b.params
    hub = "ghub"
    gateways = {}
    for chip in range(p.num_chips):
        b.edge(str(p.iface_of(chip)), hub,
               b.link(f"inter:{chip}", Scope.INTER,
                      p.inter_link_latency_ps, p.inter_link_bw))
        gateways[chip] = hub
    return gateways


def grid_dims(num_chips: int, rows: Optional[int] = None,
              cols: Optional[int] = None) -> Tuple[int, int]:
    """Near-square grid for ``num_chips``; explicit dims must factor it."""
    if rows is not None or cols is not None:
        if rows is None:
            rows = num_chips // cols if cols else 0
        if cols is None:
            cols = num_chips // rows if rows else 0
        if rows < 1 or cols < 1 or rows * cols != num_chips:
            raise ConfigError(
                f"mesh dims {rows}x{cols} do not tile {num_chips} chips"
            )
        return rows, cols
    rows = int(num_chips ** 0.5)
    while rows > 1 and num_chips % rows:
        rows -= 1
    return rows, num_chips // rows


def _gen_grid(b: GraphBuilder, wrap: bool, rows: Optional[int] = None,
              cols: Optional[int] = None,
              link_latency_ns: Optional[float] = None,
              link_bw: Optional[float] = None) -> Dict[int, str]:
    """2D mesh (``wrap=False``) or torus (``wrap=True``) of chips."""
    p = b.params
    rows, cols = grid_dims(p.num_chips, rows, cols)
    latency = p.inter_link_latency_ps if link_latency_ns is None else ns(link_latency_ns)
    bw = p.inter_link_bw if link_bw is None else link_bw

    def chip_at(r: int, c: int) -> int:
        return r * cols + c

    gateways = {}
    for chip in range(p.num_chips):
        router = f"r:{chip}"
        b.edge(str(p.iface_of(chip)), router)
        gateways[chip] = router
    for r in range(rows):
        for c in range(cols):
            here = chip_at(r, c)
            neighbors = []
            if c + 1 < cols:
                neighbors.append(chip_at(r, c + 1))
            elif wrap and cols > 2:
                neighbors.append(chip_at(r, 0))
            if r + 1 < rows:
                neighbors.append(chip_at(r + 1, c))
            elif wrap and rows > 2:
                neighbors.append(chip_at(0, c))
            for there in neighbors:
                for a, z in ((here, there), (there, here)):
                    b.edge(f"r:{a}", f"r:{z}",
                           b.link(f"inter:{a}>{z}", Scope.INTER, latency, bw))
    return gateways


def _gen_mesh(b: GraphBuilder, **kwargs) -> Dict[int, str]:
    return _gen_grid(b, wrap=False, **kwargs)


def _gen_torus(b: GraphBuilder, **kwargs) -> Dict[int, str]:
    return _gen_grid(b, wrap=True, **kwargs)


def _gen_fattree(b: GraphBuilder, arity: int = 4,
                 up_bw_factor: float = 2.0,
                 link_latency_ns: Optional[float] = None,
                 link_bw: Optional[float] = None) -> Dict[int, str]:
    """Chips under leaf switches, recursively aggregated to one root.

    Each level multiplies link bandwidth by ``up_bw_factor`` (fat links
    toward the root); both directions of every switch-to-switch trunk
    are modeled so down-traffic serializes too.
    """
    if arity < 2:
        raise ConfigError(f"fat-tree arity must be >= 2 (got {arity})")
    p = b.params
    latency = p.inter_link_latency_ps if link_latency_ns is None else ns(link_latency_ns)
    bw = p.inter_link_bw if link_bw is None else link_bw

    gateways = {}
    level = 0
    members: List[str] = []
    for chip in range(p.num_chips):
        leaf = f"sw:0:{chip // arity}"
        b.edge(str(p.iface_of(chip)), leaf,
               b.link(f"fat:up:{chip}", Scope.INTER, latency, bw))
        gateways[chip] = leaf
    width = (p.num_chips + arity - 1) // arity
    members = [f"sw:0:{i}" for i in range(width)]
    while len(members) > 1:
        level += 1
        trunk_bw = bw * (up_bw_factor ** level)
        width = (len(members) + arity - 1) // arity
        parents = [f"sw:{level}:{i}" for i in range(width)]
        for i, child in enumerate(members):
            parent = parents[i // arity]
            b.edge(child, parent,
                   b.link(f"fat:up:{child}", Scope.INTER, latency, trunk_bw))
            b.edge(parent, child,
                   b.link(f"fat:down:{child}", Scope.INTER, latency, trunk_bw))
        members = parents
    return gateways


#: Registered generators: name -> (builder fn, one-line description).
GENERATORS = {
    "ptp": (_gen_ptp, "directly connected point-to-point fabric (paper Table 3)"),
    "mesh": (_gen_mesh, "2D mesh of chips (kwargs: rows, cols, link_latency_ns, link_bw)"),
    "torus": (_gen_torus, "2D torus (mesh with wrap-around links)"),
    "fattree": (_gen_fattree,
                "fat-tree of switches (kwargs: arity, up_bw_factor, "
                "link_latency_ns, link_bw)"),
}


# ---------------------------------------------------------------------------
# The compiled graph.
# ---------------------------------------------------------------------------

class TopologyGraph:
    """A compiled topology: link specs, adjacency, and shortest routes."""

    def __init__(self, builder: GraphBuilder, generator: str) -> None:
        self.generator = generator
        self.params = builder.params
        self.links: Dict[str, LinkSpec] = builder.links
        self.adj: Dict[str, List[Tuple[str, Optional[str]]]] = builder.adj
        self.endpoints: Dict[NodeId, str] = builder.endpoints
        self._vertex_nodes: Dict[str, NodeId] = {
            vertex: node for node, vertex in builder.endpoints.items()}

    # ------------------------------------------------------------------
    def _sssp(self, src_vertex: str) -> Dict[str, Tuple[str, ...]]:
        """Deterministic single-source shortest paths from ``src_vertex``.

        Minimizes (link count, total latency) with ties broken by the
        lexicographically smallest link-name path — a total order over
        candidate routes, so the result is independent of dict/set hash
        order and of ``PYTHONHASHSEED``.

        The free-edge closure of a popped vertex is settled at once, at
        the popped key, instead of being pushed: every vertex in it has
        that same key, and no smaller key is left in the heap.
        """
        out: Dict[str, Tuple[str, ...]] = {}
        heap: List[Tuple[int, int, Tuple[str, ...], str]] = [(0, 0, (), src_vertex)]
        links = self.links
        adj = self.adj
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            nlinks, latency, names, vertex = heappop(heap)
            if vertex in out:
                continue
            out[vertex] = names
            closure = [vertex]
            while closure:
                for nxt, link_name in adj[closure.pop()]:
                    if nxt in out:
                        continue
                    if link_name is None:
                        out[nxt] = names
                        closure.append(nxt)
                    else:
                        heappush(heap, (nlinks + 1,
                                        latency + links[link_name].latency_ps,
                                        names + (link_name,), nxt))
        return out

    def origin(self, node: NodeId, links: Optional[Dict[str, object]] = None,
               rows: Optional[Dict[str, tuple]] = None) -> Origin:
        """Endpoint ``node``'s *origin*: ``(head, row, local)``.

        ``local`` is the set of endpoints in ``node``'s free-edge closure
        (``node`` itself included); the route to each of them is ``()``.
        ``row`` is ``node``'s routing site's row: each destination
        endpoint the site reaches, mapped to the site's route to it (the
        *tail*).  ``head`` is the one link leaving the closure, onto the
        site, or ``None`` when ``node`` is its own site.  The route from
        ``node`` to any ``dst`` outside ``local`` is ``(head,) + tail``
        (just the tail without a head).  Links are named, or
        ``links[name]`` when a ``links`` mapping is given (the Network
        passes its :class:`Link` objects).

        A site's row is searched once per ``rows`` mapping, which the
        caller owns (one per Network, or per :meth:`origins` call), and
        shared by the origins taken with it (exact; see the module
        docstring).  Within a row, destinations reached over one path
        share its tail tuple, and no tail contains the head of an
        endpoint on that site: crossing the head means re-entering the
        endpoint's closure, whose only way out leads back to the site.
        A destination ``node`` cannot reach raises :class:`ConfigError`
        naming the first such pair.
        """
        src_v = self.endpoints[node]
        adj = self.adj
        closure = {src_v}
        stack = [src_v]
        exits = []
        while stack:
            for nxt, link_name in adj[stack.pop()]:
                if link_name is not None:
                    exits.append((nxt, link_name))
                elif nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        exits = {edge for edge in exits if edge[0] not in closure}
        if len(exits) == 1:
            (site, head), = exits
        else:
            site, head = src_v, None
        vertex_nodes = self._vertex_nodes
        local = frozenset(vertex_nodes[v] for v in closure if v in vertex_nodes)
        if rows is None:
            rows = {}
        entry = rows.get(site)
        if entry is None:
            entry = rows[site] = self._site_row(site, links)
        row, missing = entry
        for dst in missing:
            if dst not in local:
                raise ConfigError(
                    f"topology {self.generator!r} is not connected: "
                    f"no route {node} -> {dst}"
                )
        return (head if head is None or links is None else links[head],
                row, local)

    def origins(self) -> Dict[NodeId, Origin]:
        """Every endpoint's origin over link names (:meth:`origin`), one
        search per site."""
        rows: Dict[str, tuple] = {}
        return {node: self.origin(node, rows=rows) for node in self.endpoints}

    def _site_row(self, site: str, links: Optional[Dict[str, object]]
                  ) -> Tuple[Dict[NodeId, tuple], List[NodeId]]:
        """One search from ``site``: its row (each route resolved through
        ``links`` when given, once per distinct path) and the endpoints it
        does not reach."""
        paths = self._sssp(site)
        tails: Dict[int, tuple] = {}  # id(names) -> tail; ``paths`` pins the names
        row: Dict[NodeId, tuple] = {}
        missing: List[NodeId] = []
        for dst, dst_v in self.endpoints.items():
            names = paths.get(dst_v)
            if names is None:
                missing.append(dst)
                continue
            tail = tails.get(id(names))
            if tail is None:
                tail = tails[id(names)] = (
                    names if links is None
                    else tuple(map(links.__getitem__, names)))
            row[dst] = tail
        return row, missing

    def routes(self) -> Dict[NodeId, Dict[NodeId, Tuple[str, ...]]]:
        """Link names for every ordered endpoint pair, nested ``src ->
        dst -> names``: every origin joined in full.

        The Network joins only the pairs its traffic uses (see
        :meth:`origin`); this full table serves :meth:`validate` and the
        route tests.
        """
        table: Dict[NodeId, Dict[NodeId, Tuple[str, ...]]] = {}
        for src, (head, row, local) in self.origins().items():
            joined = table[src] = (
                dict(row) if head is None
                else {dst: (head,) + tail for dst, tail in row.items()})
            joined.update(dict.fromkeys(local, ()))
        return table

    # ------------------------------------------------------------------
    def validate(self) -> dict:
        """Check connectivity + link sanity; return summary statistics."""
        for spec in self.links.values():
            spec.validate()
        hops = [len(names) for row in self.routes().values()
                for names in row.values()]
        return {
            "endpoints": len(self.endpoints),
            "vertices": len(self.adj),
            "links": len(self.links),
            "diameter_hops": max(hops),
            "mean_hops": sum(hops) / len(hops),
        }

    def link_table(self) -> List[dict]:
        """The canonical (name-sorted) link table."""
        return [self.links[name].to_dict() for name in sorted(self.links)]

    def describe(self) -> dict:
        """The canonical ``repro.topology/1`` document."""
        stats = self.validate()
        return {
            "schema": TOPOLOGY_SCHEMA,
            "generator": self.generator,
            "num_chips": self.params.num_chips,
            "stats": stats,
            "links": self.link_table(),
        }


# ---------------------------------------------------------------------------
# The declarative spec.
# ---------------------------------------------------------------------------

def _freeze(value):
    """Deep-freeze dicts/lists into sorted tuples (hashable, canonical)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclasses.dataclass(frozen=True)
class Topology:
    """Declarative interconnect spec: generator name + kwargs + overrides.

    Pure data — frozen, hashable, picklable, and JSON-representable via
    :func:`dataclasses.asdict` — so it rides inside
    :class:`~repro.common.params.SystemParams` and is content-addressed
    by the experiment cache exactly like every other machine knob.

    ``overrides`` is a tuple of ``(link-name glob, ((field, value), ...))``
    pairs applied to matching links at compile time; fields are
    ``latency_ns``, ``bytes_per_ns`` and ``buffer_bytes``.
    """

    generator: str = "ptp"
    kwargs: Tuple[Tuple[str, object], ...] = ()
    overrides: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ConfigError(
                f"unknown topology generator {self.generator!r}; "
                f"known: {', '.join(sorted(GENERATORS))}"
            )
        object.__setattr__(self, "kwargs", _freeze(dict(self.kwargs)))
        object.__setattr__(
            self, "overrides",
            tuple((pattern, _freeze(dict(fields)))
                  for pattern, fields in self.overrides),
        )

    # ------------------------------------------------------------------
    @classmethod
    def named(cls, generator: str, **kwargs) -> "Topology":
        return cls(generator=generator, kwargs=_freeze(kwargs))

    @classmethod
    def mesh(cls, **kwargs) -> "Topology":
        return cls.named("mesh", **kwargs)

    @classmethod
    def torus(cls, **kwargs) -> "Topology":
        return cls.named("torus", **kwargs)

    @classmethod
    def fattree(cls, **kwargs) -> "Topology":
        return cls.named("fattree", **kwargs)

    def with_override(self, pattern: str, **fields) -> "Topology":
        """A copy with ``fields`` applied to links matching ``pattern``."""
        return dataclasses.replace(
            self, overrides=self.overrides + ((pattern, _freeze(fields)),)
        )

    # ------------------------------------------------------------------
    def build(self, params) -> TopologyGraph:
        """Compile against ``params`` into a routed link graph."""
        gen, _desc = GENERATORS[self.generator]
        builder = GraphBuilder(params)
        builder._overrides = self.overrides
        for chip in range(params.num_chips):
            _build_chip(builder, chip)
        gateways = gen(builder, **dict(self.kwargs))
        _attach_gateways(builder, gateways)
        return TopologyGraph(builder, self.generator)
