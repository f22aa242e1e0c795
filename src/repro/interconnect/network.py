"""Point-to-point interconnect model with latency and bandwidth.

The target machine (Table 3) has three networks:

* **intra-CMP**: directly connected on-chip network, 2 ns one-way links at
  64 GB/s;
* **inter-CMP**: directly connected global network between chip
  interfaces, 20 ns links (including interface/wire/sync) at 16 GB/s;
* **memory links**: each CMP to its off-chip memory controller, 20 ns.

We model each network as per-source egress links with store-and-forward
semantics: a message occupies a link for ``bytes / bandwidth`` and arrives
after the link latency; back-to-back messages on one link queue behind
each other.  A cross-chip message traverses (intra egress) -> (inter
egress of the source chip) -> (intra egress of the destination chip's
interface), so it consumes bandwidth on every network it crosses, which
is what the paper's traffic figures measure.

Topologies
----------

The link structure is not hard-coded: ``params.topology`` (a
declarative :class:`~repro.interconnect.topology.Topology` spec) compiles
to a link graph, and routes are deterministic shortest paths over it.
The default ``ptp`` topology compiles to exactly the Table-3 machine
above.  For every generator — ptp, mesh, torus, fat-tree — the graph is
the only statement of the routing (the route tests replay the Table-3
branch ladder against it as an oracle).

Hot-path design
---------------

``send`` sits under every coherence message, so its per-message work is
precomputed at construction time:

* **routes by routing site** — the compiled topology graph gives each
  endpoint its *origin* (:meth:`TopologyGraph.origins`): the link onto
  its routing site (the *head*, if any) and the site's row of shared
  route tuples (the *tails*), one search and one row per site.  A
  point-to-point pair is joined to ``(head,) + tail`` on its first
  ``send`` and memoised in a ``src -> dst -> tuple[Link, ...]`` table,
  so the table holds only the pairs the traffic uses; a pair outside
  the graph is a :class:`ConfigError`, never a re-route;
* **two wire sizes** — a message is ``data_msg_bytes`` if its type
  carries data, else ``control_msg_bytes``, read from two ints stored
  at construction;
* **integer link serialization** — each :class:`Link` folds its
  bandwidth into an exact integer numerator/denominator pair at
  construction, so ``traverse`` is pure integer arithmetic (no float
  rounding, no platform-dependent timing), and the network stores each
  link's delay for its two wire sizes (``ser_ctrl``/``ser_data``, from
  :meth:`Link.serialization_ps`), so an inlined hop reads it instead of
  dividing;
* **relayed lookup hops** — an endpoint registered with a relay
  (``register(node, handle, relay_ps, callee)``) is delivered through
  :meth:`Simulator.relay_at`: the kernel performs the entry point's
  ``call_after(relay_ps, callee, msg)`` itself, so a delivered message
  costs one Python frame (the callee's) with the same events in the
  same ``(time, seq)`` order;
* **one shared broadcast message** — untraced and unfaulted,
  ``send_fanout`` delivers its template itself, read-only, to every
  destination instead of one clone each;
* **column fan-out plans** — a broadcast's plan, cached per sender and
  destination set, stores its endpoints and routes as two tuples that
  ``send_fanout`` walks with ``zip``, so a plan holds no tuple per
  destination and its loop allocates none;
* **a closed-form first hop** — every route of a broadcast from an
  endpoint with a head leaves on that head, so ``send_fanout`` charges
  it once per fan-out: copy *k* (from 0) leaves it at ``max(now,
  busy_until) + (k+1)·ser``, exactly what *k+1* back-to-back traversals
  give, and ``busy_until``/``bytes_carried`` are written once.  Only
  the tails are charged per destination (41,698 of 191,758 hops on
  the 4x4 OLTP cell), buffered hops included.  Without a plain head
  (a buffered one, or a sender that is its own site or reaches it
  over a free edge), every hop is charged per destination.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappush
from itertools import chain, islice
from operator import attrgetter
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.common.types import NodeId
from repro.interconnect.message import Message, MessagePool, _msg_ids
from repro.interconnect.topology import LinkSpec, TopologyGraph
from repro.interconnect.traffic import Scope, TrafficClass, TrafficMeter
from repro.sim.kernel import Simulator


class Link:
    """One egress link: fixed latency plus serialization at a bandwidth."""

    __slots__ = (
        "name", "scope", "latency_ps", "bytes_per_ns", "busy_until",
        "bytes_carried", "_ser_num", "_ser_den", "plain", "ser_ctrl", "ser_data",
    )

    def __init__(self, name: str, scope: Scope, latency_ps: int, bytes_per_ns: float):
        self.name = name
        self.scope = scope
        self.latency_ps = latency_ps
        self.bytes_per_ns = bytes_per_ns
        self.busy_until = 0
        self.bytes_carried = 0
        # True for exactly this class: ``Network.send`` inlines the plain
        # traverse arithmetic and dispatches to :meth:`traverse` only for
        # subclasses that override it (BufferedLink diagnostics).
        self.plain = type(self) is Link
        # Serialization is ``nbytes / bytes_per_ns`` ns = ``nbytes * 1000
        # / bytes_per_ns`` ps.  Expand the (possibly fractional) bandwidth
        # into an exact integer ratio once, so ``traverse`` computes an
        # exact integer ceiling — float ``round()`` banker's-rounds and
        # risks platform-dependent timing on inexact quotients.
        num, den = float(bytes_per_ns).as_integer_ratio()
        self._ser_num = 1000 * den
        self._ser_den = num
        # ``serialization_ps`` of the machine's control and data wire
        # sizes, stored by the owning :class:`Network` (None on a
        # standalone link, whose ``traverse`` never reads them).
        self.ser_ctrl: Optional[int] = None
        self.ser_data: Optional[int] = None

    def serialization_ps(self, nbytes: int) -> int:
        """Exact integer serialization delay for ``nbytes`` on this link.

        Computed as ``ceil(nbytes * 1000 / bytes_per_ns)`` in integer
        arithmetic, clamped to >= 1 ps: zero-byte/control messages on a
        fast link must still advance ``busy_until``, so same-cycle
        messages on one link keep strict FIFO order.
        """
        ser = -(-nbytes * self._ser_num // self._ser_den)
        return ser if ser > 1 else 1

    def traverse(self, start_ps: int, nbytes: int) -> int:
        """Occupy the link for one message; return its arrival time."""
        ser = -(-nbytes * self._ser_num // self._ser_den)
        if ser < 1:
            ser = 1
        begin = self.busy_until
        if start_ps > begin:
            begin = start_ps
        self.busy_until = begin + ser
        self.bytes_carried += nbytes
        return begin + ser + self.latency_ps


class BufferedLink(Link):
    """A link with a *diagnostic* egress-buffer capacity.

    Queues stay unbounded (timing is identical to :class:`Link`); the
    capacity only marks where backlog beyond the configured buffer would
    have overflowed, surfaced via :meth:`Network.buffer_report`.
    """

    __slots__ = ("buffer_bytes", "peak_backlog_bytes", "overflow_events")

    def __init__(self, name: str, scope: Scope, latency_ps: int,
                 bytes_per_ns: float, buffer_bytes: int):
        super().__init__(name, scope, latency_ps, bytes_per_ns)
        self.buffer_bytes = buffer_bytes
        self.peak_backlog_bytes = 0
        self.overflow_events = 0

    def traverse(self, start_ps: int, nbytes: int) -> int:
        backlog_ps = self.busy_until - start_ps
        if backlog_ps > 0:
            # Bytes still queued ahead of this message, inferred from the
            # time the link needs to drain them (serialization inverse).
            backlog = backlog_ps * self._ser_den // self._ser_num + nbytes
        else:
            backlog = nbytes
        if backlog > self.peak_backlog_bytes:
            self.peak_backlog_bytes = backlog
        if backlog > self.buffer_bytes:
            self.overflow_events += 1
        return super().traverse(start_ps, nbytes)


Handler = Callable[[Message], None]
#: An endpoint registration: ``(handler, relay_ps, callee)``.
Endpoint = Tuple[Handler, int, Optional[Handler]]


class Network:
    """Routes messages between registered endpoints, collecting traffic."""

    def __init__(self, sim: Simulator, params: SystemParams, meter: TrafficMeter):
        self.sim = sim
        self.params = params
        self.meter = meter
        self._endpoints: Dict[NodeId, Endpoint] = {}
        # Prebound dict.get of the endpoint table (mutated in place by
        # ``register``, so the bound method stays valid).
        self._endpoint_of = self._endpoints.get
        self.topology = params.topology
        self.graph: TopologyGraph = self.topology.build(params)
        self._links: Dict[str, Link] = {}
        self._build_links()
        # Each endpoint's origin, ``(head Link or None, its site's row of
        # shared tails)``, resolved by the graph itself (see
        # ``TopologyGraph.origins``), so nothing routes per message.
        self._origins: Dict[NodeId, Tuple[Optional[Link], Dict[NodeId, Tuple[Link, ...]]]] = (
            self.graph.origins(self._links)
        )
        # src -> dst -> tuple of links, joined from the origins by
        # ``route`` on a pair's first send.  Nested so the hot ``send``
        # path needs no per-message (src, dst) key tuple.  Empty routes
        # (src == dst) are valid entries, hence the ``is None`` probes.
        self._routes_from: Dict[NodeId, Dict[NodeId, Tuple[Link, ...]]] = {}
        self._route_row = self._routes_from.get  # prebound
        # Wire size in bytes (Section 8 sizes from params): a message
        # carrying data costs ``data_msg_bytes``, any other
        # ``control_msg_bytes``.
        self._data_bytes: int = params.data_msg_bytes
        self._ctrl_bytes: int = params.control_msg_bytes
        for link in self._links.values():
            link.ser_ctrl = link.serialization_ps(self._ctrl_bytes)
            link.ser_data = link.serialization_ps(self._data_bytes)
        # Interned (scope, class) metering keys plus direct views of the
        # meter's counter dicts: the per-link charge in ``send`` becomes
        # two dict bumps with no tuple construction per message.
        self._meter_keys: Dict[TrafficClass, Dict[Scope, Tuple[Scope, TrafficClass]]] = {
            klass: {scope: (scope, klass) for scope in Scope}
            for klass in TrafficClass
        }
        self._meter_bytes = meter.bytes
        self._meter_msgs = meter.messages
        # The machine's message constructor; controllers build their
        # point-to-point messages through it (see MessagePool).
        self.pool = MessagePool()
        # Fan-out plans, keyed by destination-tuple identity: broadcasts
        # pass tuples interned through ``intern_dests``, so the
        # endpoint and route columns and the per-scope link counts of a
        # fan-out are resolved once per (src, dest set) instead of per
        # message.  Each entry keeps a strong reference to its dests
        # tuple, so the id key cannot be reused while the entry lives;
        # the identity re-check catches a same-src fan-out to a different
        # (non-interned) tuple.
        self._fanout_plans: Dict[NodeId, Dict[int, tuple]] = {}
        # Destination set -> the one equal tuple every caller shares.
        self._dest_sets: Dict[Tuple[NodeId, ...], Tuple[NodeId, ...]] = {}
        # Caller key -> a destination tuple built once per machine
        # (``dest_table``).
        self._dest_tables: Dict[Hashable, Tuple[NodeId, ...]] = {}

    def _build_links(self) -> None:
        """Instantiate one :class:`Link` per compiled :class:`LinkSpec`."""
        for name, spec in self.graph.links.items():
            self._links[name] = self._make_link(spec)

    @staticmethod
    def _make_link(spec: LinkSpec) -> Link:
        if spec.buffer_bytes is None:
            return Link(spec.name, spec.scope, spec.latency_ps, spec.bytes_per_ns)
        return BufferedLink(spec.name, spec.scope, spec.latency_ps,
                            spec.bytes_per_ns, spec.buffer_bytes)

    def intern_dests(self, dests: Tuple[NodeId, ...]) -> Tuple[NodeId, ...]:
        """The machine's one tuple equal to ``dests``.

        Broadcasting controllers intern their destination sets here, so
        equal sets built for different blocks (or by different
        controllers) are one object and share one ``send_fanout`` plan.
        """
        return self._dest_sets.setdefault(dests, dests)

    def dest_table(self, key: Hashable,
                   build: Callable[[], Iterable[NodeId]]) -> Tuple[NodeId, ...]:
        """The machine's destination tuple for ``key``, built on first use.

        Controllers that derive their own sets from one machine-wide set
        (every token holder of a block, its home banks across chips)
        share it here, so ``build()`` runs once per key per machine
        instead of once per controller.
        """
        dests = self._dest_tables.get(key)
        if dests is None:
            dests = self._dest_tables[key] = tuple(build())
        return dests

    # ------------------------------------------------------------------
    def register(self, node: NodeId, handler: Handler, relay_ps: int = 0,
                 callee: Optional[Handler] = None) -> None:
        """Attach a controller callback as the endpoint for ``node``.

        A ``handler`` whose whole body is ``sim.call_after(relay_ps,
        callee, msg)`` (a controller's lookup-latency entry point) may
        declare that with ``relay_ps > 0`` and ``callee``: untraced
        deliveries then let the kernel relay the hop
        (:meth:`Simulator.relay_at`) instead of calling ``handler``.
        Traced deliveries, and fault wrappers, still call ``handler``.
        """
        if node in self._endpoints:
            raise ConfigError(f"endpoint {node} registered twice")
        if relay_ps < 0 or (relay_ps > 0 and callee is None):
            raise ConfigError(
                f"endpoint {node}: a relay needs relay_ps >= 0 and a callee"
            )
        self._endpoints[node] = (handler, relay_ps, callee if relay_ps else None)

    def send(self, msg: Message) -> None:
        """Route ``msg`` from ``msg.src`` to ``msg.dst`` and deliver it."""
        dst = msg.dst
        endpoint = self._endpoint_of(dst)
        if endpoint is None:
            raise ConfigError(f"no endpoint registered for {dst}")
        mtype = msg.mtype
        data = mtype.has_data
        nbytes = self._data_bytes if data else self._ctrl_bytes
        src = msg.src
        by_dst = self._route_row(src)
        route = None if by_dst is None else by_dst.get(dst)
        if route is None:  # the pair's first send
            route = self.route(src, dst)
        sim = self.sim
        arrival = sim._now
        keys = self._meter_keys[mtype.klass]
        mbytes = self._meter_bytes
        mmsgs = self._meter_msgs
        for link in route:
            if link.plain:
                # Inlined Link.traverse, with the serialization stored
                # per wire size: the plain link is the whole fabric in
                # steady state, and skipping the method call pays on
                # every hop.
                ser = link.ser_data if data else link.ser_ctrl
                begin = link.busy_until
                if arrival > begin:
                    begin = arrival
                link.busy_until = begin + ser
                link.bytes_carried += nbytes
                arrival = begin + ser + link.latency_ps
            else:
                arrival = link.traverse(arrival, nbytes)
            scope = link.scope
            mbytes[keys[scope]] += nbytes
            mmsgs[scope] += 1
        tracer = sim.tracer
        if tracer is None:
            handler, relay_ps, callee = endpoint
            sim.relay_at(arrival, handler, msg, relay_ps, callee)
        else:
            # Same event count and (time, seq) order as the untraced path:
            # the delivery shim only adds the msg.recv emission.
            tracer.msg_send(msg, nbytes=nbytes, hops=len(route), arrival_ps=arrival)
            sim.call_at(arrival, self._deliver_traced, msg)

    def send_fanout(self, template: Message, dests) -> None:
        """Deliver ``template`` to every destination in ``dests``.

        The caller hands the template over: it builds a plain
        :class:`Message` (drawing one uid) and never touches it again.
        Untraced, every destination receives the template itself,
        read-only: its ``dst`` and ``uid`` are the sender's.  Receivers
        never read ``dst``/``uid`` or mutate a message, so sharing is
        invisible (``tests/test_fanout.py`` checks that no template
        changes).  One ``uid`` is still drawn per destination, as a
        per-destination clone would, so every later uid is unchanged.

        Traced, each destination gets its own clone so the
        tracer sees per-message ids (:meth:`send_clones`).  Fault
        wrappers use :meth:`send_clones` too: the messages that fan out
        (transient requests, persistent activates/deactivates, epoch
        bumps) never carry tokens, but the fault injector keys its
        persistent FIFO clamp on each message's ``dst``.
        """
        sim = self.sim
        if sim.tracer is not None:
            self.send_clones(template, dests)
            return
        if dests.__class__ is not tuple:
            dests = tuple(dests)  # a generator can be read only once
        # Every destination shares the template's src/mtype, so the route
        # row, wire size and metering keys are resolved once for the
        # whole fan-out instead of per destination, and the endpoint and
        # route columns plus per-scope link counts come from a plan cached
        # by destination-tuple identity (broadcast dest tuples are
        # interned per machine, see ``intern_dests``).  Link busy_until
        # values and event (time, seq) order are identical to a
        # per-destination ``send`` loop; metering is applied as one
        # aggregate bump per scope — same final counters, addition is
        # commutative and the meter is only read between events.
        src = template.src
        row = self._fanout_plans.get(src)
        if row is None:
            row = self._fanout_plans[src] = {}
        entry = row.get(id(dests))
        if entry is None or entry[0] is not dests:
            entry = self._build_fanout_plan(src, dests)
            if entry is None:  # per-destination send raises the error
                self.send_clones(template, dests)
                return
            if len(row) >= 64:
                # Callers are expected to intern their destination tuples;
                # a caller that does not would otherwise grow the cache
                # (and pin its tuples) without bound.
                row.clear()
            row[id(dests)] = entry
        _dests, endpoints, routes, scope_links, first = entry
        n = len(endpoints)
        if not n:
            return
        mtype = template.mtype
        data = mtype.has_data
        nbytes = self._data_bytes if data else self._ctrl_bytes
        keys = self._meter_keys[mtype.klass]
        mbytes = self._meter_bytes
        mmsgs = self._meter_msgs
        for scope, nlinks in scope_links:
            mbytes[keys[scope]] += nbytes * nlinks
            mmsgs[scope] += nlinks
        # One uid per destination, drawn at once (a per-destination clone
        # would draw the same ``n``).
        next(islice(_msg_ids, n - 1, None))
        now = sim._now
        # Kernel internals hoisted for the inlined no-handle scheduling
        # below (the exact ``relay_at`` body; arrivals can never precede
        # ``now`` — serialization is >= 1 ps — so the past-check is
        # statically satisfied).  ``seq`` stays local until the end: no
        # callback runs inside the loop.
        queue = sim._queue
        seq = sim._seq
        if first is None:  # every copy starts at ``now``
            hop = now
            ser = 0
        else:
            # Every route leaves on ``first`` (the sender's head), so its
            # n back-to-back copies are charged in closed form: copy k
            # (from 0) starts serializing at begin + k*ser and reaches the
            # next node at begin + (k+1)*ser + latency, exactly what n
            # inlined traversals would compute.  The plan holds only the
            # tails, and no tail contains its head, so charging it up
            # front changes no tail hop.
            ser = first.ser_data if data else first.ser_ctrl
            begin = first.busy_until
            if now > begin:
                begin = now
            first.busy_until = begin + n * ser
            first.bytes_carried += n * nbytes
            hop = begin + first.latency_ps
        # ``zip`` reuses its result tuple when the loop drops it, so walking
        # the two columns allocates nothing per destination.
        for endpoint, route in zip(endpoints, routes):
            hop += ser
            arrival = hop
            for link in route:
                if link.plain:
                    ser_l = link.ser_data if data else link.ser_ctrl
                    start = link.busy_until
                    if arrival > start:
                        start = arrival
                    link.busy_until = start + ser_l
                    link.bytes_carried += nbytes
                    arrival = start + ser_l + link.latency_ps
                else:
                    arrival = link.traverse(arrival, nbytes)
            handler, relay_ps, callee = endpoint
            seq += 1
            heappush(queue, [arrival, seq, handler, template, relay_ps, callee])
        sim._seq = seq
        sim.event_news += n

    def send_clones(self, template: Message, dests) -> None:
        """Send a clone of ``template`` to each of ``dests``."""
        clone = self.pool.clone
        send = self.send
        for dst in dests:
            send(clone(template, dst))

    def route(self, src: NodeId, dst: NodeId) -> Tuple[Link, ...]:
        """The links a message from ``src`` to ``dst`` crosses, in order.

        Joined from ``src``'s origin on the pair's first use, ``(head,) +
        tail`` (see :meth:`TopologyGraph.origins`), and memoised for
        ``send``; ``()`` when ``src == dst``.  A pair outside the topology
        graph raises :class:`ConfigError`.
        """
        by_dst = self._route_row(src)
        route = None if by_dst is None else by_dst.get(dst)
        if route is not None:
            return route
        origin = self._origins.get(src)
        if origin is None or (dst != src and dst not in origin[1]):
            raise ConfigError(
                f"topology {self.topology.generator!r} has no route {src} -> {dst}"
            )
        head, row = origin
        if dst == src:
            route = ()
        elif head is None:
            route = row[dst]
        else:
            route = (head,) + row[dst]
        self._routes_from.setdefault(src, {})[dst] = route
        return route

    def _build_fanout_plan(self, src: NodeId, dests: Tuple[NodeId, ...]):
        """Resolve a broadcast's per-destination endpoints and routes.

        Returns ``(dests, endpoints, routes, scope_links, first)`` — the
        dests tuple itself (kept so the identity-keyed cache holds its key
        alive), two columns in destination order (each destination's
        endpoint record and its route), the total link count per scope for
        aggregate metering, and ``first``: the sender's head when it is a
        plain :class:`Link`, which ``send_fanout`` charges in closed form,
        each route then being only the site's shared tail; or None, each
        route then being the full one (the sender has no head, its head
        is buffered, or it is among its own destinations).  The columns
        are the tuples the resolving passes build; no per-destination
        pair tuple is stored.  Tails may hold any link,
        :class:`BufferedLink` included.  Routes are the origin's own
        tuples wherever no head is joined on, so a plan holds no per-hop
        records of its own and joins nothing into ``send``'s table.  The
        whole result is ``None`` when any destination lacks a route or a
        registered endpoint (the caller falls back to per-destination
        ``send``, which raises :class:`ConfigError` naming the offending
        pair).  Every pass over the destinations runs in C (``map``,
        ``zip``, ``Counter``) unless a head must be joined on.
        """
        origin = self._origins.get(src)
        if origin is None:
            return None
        head, row = origin
        endpoints = tuple(map(self._endpoint_of, dests))
        routes = tuple(map(row.get, dests))
        if None in endpoints or None in routes:
            return None
        first = head
        if head is not None and (not head.plain or not dests or src in dests):
            first = None
            routes = tuple(() if dst == src else (head,) + tail
                           for dst, tail in zip(dests, routes))
        # Links per scope, in the order a per-hop walk first meets them.
        counts = Counter() if first is None else Counter({first.scope: len(dests)})
        counts.update(map(attrgetter("scope"), chain.from_iterable(routes)))
        return (dests, endpoints, routes, tuple(counts.items()), first)

    def _deliver_traced(self, msg: Message) -> None:
        """Delivery shim used while tracing: emit ``msg.recv``, then act.

        ``msg.recv`` marks the *nominal* arrival at the endpoint; on a
        fault-injected machine the injector's ``fault.*`` events follow it
        when the delivery is then dropped, duplicated or rescheduled.
        """
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.msg_recv(msg)
        self._endpoints[msg.dst][0](msg)

    def send_later(self, delay_ps: int, msg: Message) -> None:
        """Send ``msg`` after a local processing delay (e.g. DRAM access).

        Fault-injection wrappers override this so a token-carrying message
        counts as in flight from the moment its sender gave the tokens up,
        not from when it finally enters the interconnect.
        """
        self.sim.call_after(delay_ps, self.send, msg)

    def token_absorbed(self, msg: Message) -> None:
        """A controller folded ``msg``'s tokens into its state (no-op here;
        fault-injection wrappers use it to retire in-flight tracking)."""

    # ------------------------------------------------------------------
    def links_by_name(self) -> Dict[str, Link]:
        """Read-only view of every physical link, keyed by name.

        The canonical enumeration surface for observers (the telemetry
        sampler probes each link's counters through this); callers must
        not mutate the returned links.
        """
        return dict(self._links)

    def buffer_report(self) -> Dict[str, Dict[str, int]]:
        """Overflow diagnostics for links declared with ``buffer_bytes``."""
        out: Dict[str, Dict[str, int]] = {}
        for name in sorted(self._links):
            link = self._links[name]
            if isinstance(link, BufferedLink):
                out[name] = {
                    "buffer_bytes": link.buffer_bytes,
                    "peak_backlog_bytes": link.peak_backlog_bytes,
                    "overflow_events": link.overflow_events,
                }
        return out
