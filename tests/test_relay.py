"""Message delivery at one Python frame per message, with identical results.

Untraced and unfaulted, the kernel relays each controller's lookup hop
(``Simulator.relay_at``) instead of calling its ``handle`` trampoline,
and ``Network.send_fanout`` delivers one shared message per broadcast
instead of a clone per destination.  These tests pin both the saved
work and the contract that nothing observable moves: the same events
fire in the same order, so every ``CellResult`` is byte-identical across
the tracer, the profiler, split runs and the fault injector's two-event
path.
"""

import pytest

from repro.common.params import SystemParams
from repro.core.base import TokenCacheController
from repro.exp.library import fig6_smoke_cell, mesh_params
from repro.exp.runner import run_cell
from repro.exp.spec import Cell
from repro.faults.injector import FaultConfig, FaultyNetwork
from repro.interconnect.message import MessagePool, _msg_ids
from repro.interconnect.network import Network
from repro.interconnect.topology import Topology
from repro.obs import KernelProfiler, Tracer
from repro.sim.kernel import Simulator


def _small_cell(**overrides):
    base = dict(
        protocol="TokenCMP-dst1",
        workload="oltp",
        workload_kwargs=(("refs_per_proc", 40),),
        seed=3,
        params=SystemParams(num_chips=2, procs_per_chip=2,
                            tokens_per_block=16),
    )
    base.update(overrides)
    return Cell(**base)


# ---------------------------------------------------------------------------
# Saved work.
# ---------------------------------------------------------------------------
def test_pool_acquires_one_per_fanout_plus_carriers(monkeypatch):
    # A broadcast's template is a plain message delivered as is, so the
    # pool builds only the token carriers: 2,318 acquires on this cell
    # (12,425 with a pool-built template per fan-out, 88,389 with clones).
    counts = {"fanouts": 0, "carriers": 0}
    send_fanout = Network.send_fanout
    acquire_carrier = MessagePool.acquire_carrier

    def counted_fanout(self, template, dests):
        counts["fanouts"] += 1
        return send_fanout(self, template, dests)

    def counted_carrier(self, *args, **kwargs):
        counts["carriers"] += 1
        return acquire_carrier(self, *args, **kwargs)

    monkeypatch.setattr(Network, "send_fanout", counted_fanout)
    monkeypatch.setattr(MessagePool, "acquire_carrier", counted_carrier)
    result = run_cell(fig6_smoke_cell())
    machine = result.raw.machine
    assert machine.sim.events_fired == 163255
    assert counts["fanouts"] == 10107
    assert machine.net.pool.acquires == counts["carriers"]


def _count_handle_calls(monkeypatch, cell, **run_kwargs):
    calls = [0]
    handle = TokenCacheController.handle

    def counted(self, msg):
        calls[0] += 1
        return handle(self, msg)

    # Patched before the build: controllers register bound methods.
    monkeypatch.setattr(TokenCacheController, "handle", counted)
    result = run_cell(cell, **run_kwargs)
    return calls[0], result


def test_untraced_delivery_skips_the_handle_trampoline(monkeypatch):
    calls, result = _count_handle_calls(monkeypatch, _small_cell())
    assert calls == 0
    assert result.raw.machine.sim.events_fired == 4554


def test_traced_and_faulted_delivery_keep_the_two_event_form(monkeypatch):
    # The tracer emits msg.recv and the injector decides faults at the
    # nominal arrival, before the lookup hop: both still call ``handle``.
    traced, _ = _count_handle_calls(monkeypatch, _small_cell(), tracer=Tracer())
    assert traced > 0
    faulted, _ = _count_handle_calls(
        monkeypatch, _small_cell(faults=FaultConfig.adversarial(0.05)))
    assert faulted > 0


def test_fanned_out_messages_under_faults_are_addressed_clones(monkeypatch):
    # The injector's persistent FIFO clamp keys on ``msg.dst``, so under
    # faults every delivery is a per-destination clone.
    seen = []
    on_arrival = FaultyNetwork._on_arrival

    def checked(self, handler, msg):
        seen.append((handler.__self__.node, msg.dst, msg.mtype.name))
        return on_arrival(self, handler, msg)

    monkeypatch.setattr(FaultyNetwork, "_on_arrival", checked)
    run_cell(_small_cell(faults=FaultConfig.adversarial(0.05)))
    assert {mtype for _, _, mtype in seen} >= {"TOK_GETS", "TOK_GETX"}
    assert all(node == dst for node, dst, _ in seen)


# ---------------------------------------------------------------------------
# Identity: nothing observable moves.
# ---------------------------------------------------------------------------
def _uid_draws(**run_kwargs):
    first = next(_msg_ids)
    run_cell(_small_cell(), **run_kwargs)
    return next(_msg_ids) - first


def test_shared_fanout_draws_one_uid_per_destination():
    # A traced run clones per destination; the shared message must draw
    # the same uids, so every later uid (trace ids, in-flight tracking of
    # a later run in the process) is unchanged.
    assert _uid_draws() == _uid_draws(tracer=Tracer())


PROTOCOLS = ("TokenCMP-dst1", "TokenCMP-arb0", "DirectoryCMP")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_result_identical_with_tracer_on_and_off(protocol):
    plain = run_cell(_small_cell(protocol=protocol))
    traced = run_cell(_small_cell(protocol=protocol), tracer=Tracer())
    assert traced.to_json() == plain.to_json()


def _link_state(machine):
    net = machine.net
    links = {name: (link.busy_until, link.bytes_carried)
             for name, link in net.links_by_name().items()}
    return (links, dict(net.meter.bytes), dict(net.meter.messages),
            net.buffer_report())


# ``send_fanout`` charges a plan's shared first link in closed form and
# walks only the remaining hops (multi-hop tails on the mesh, buffered
# inter-CMP tails); a plan whose first link is a BufferedLink charges
# every hop per destination.  The tracer's per-destination ``send`` is
# the reference for both.
FABRICS = {
    "mesh-8x2": mesh_params(8, 2),
    "ptp-buffered-inter": SystemParams(
        num_chips=2, procs_per_chip=2, tokens_per_block=16,
        topology=Topology().with_override("inter:*", buffer_bytes=64)),
    "ptp-buffered-intra": SystemParams(
        num_chips=2, procs_per_chip=2, tokens_per_block=16,
        topology=Topology().with_override("intra:*", buffer_bytes=64)),
}


def _plan_paths(machine):
    """(closed-form plans with a buffered hop, plans without ``first``)."""
    plans = [entry for row in machine.net._fanout_plans.values()
             for entry in row.values()]
    buffered_tail = sum(
        1 for _dests, pairs, _scopes, first in plans if first is not None
        and any(not link.plain for _endpoint, route in pairs for link in route))
    per_hop = sum(1 for entry in plans if entry[3] is None)
    return buffered_tail, per_hop


@pytest.mark.parametrize("protocol", ("TokenCMP-dst1", "TokenCMP-arb0"))
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_fanout_link_state_identical_with_tracer_on_and_off(protocol, fabric):
    cell = _small_cell(protocol=protocol, params=FABRICS[fabric])
    plain = run_cell(cell)
    traced = run_cell(cell, tracer=Tracer())
    assert traced.to_json() == plain.to_json()
    state = _link_state(plain.raw.machine)
    assert state == _link_state(traced.raw.machine)
    if fabric == "ptp-buffered-inter":
        assert state[3] and all(r["peak_backlog_bytes"] for r in state[3].values())
    elif fabric == "ptp-buffered-intra":
        assert state[3] and any(r["peak_backlog_bytes"] for r in state[3].values())
    if protocol == "TokenCMP-dst1":  # arb0 sends no transient broadcasts
        buffered_tail, per_hop = _plan_paths(plain.raw.machine)
        if fabric == "ptp-buffered-inter":
            assert buffered_tail and not per_hop
        elif fabric == "ptp-buffered-intra":
            assert per_hop


def test_profiler_counts_every_relayed_event():
    plain = run_cell(_small_cell())
    profiler = KernelProfiler(rate_every_events=512)
    profiled = run_cell(_small_cell(), profiler=profiler)
    assert profiled.to_json() == plain.to_json()
    fired = profiled.raw.machine.sim.events_fired
    assert profiler.events_profiled == fired
    relays = {site: count for site, count in profiler.to_dict()["sites"].items()
              if site.endswith(" [relay]")}
    assert relays["repro.core.base.TokenCacheController._process [relay]"] > 0
    # Every relayed hop is followed by its callee's own event.
    callee = profiler.sites["repro.core.base.TokenCacheController._process"][0]
    assert callee == relays["repro.core.base.TokenCacheController._process [relay]"]


def test_run_split_by_until_matches_one_run(monkeypatch):
    # A run split at ``until`` stops relays exactly like one run.
    plain = run_cell(_small_cell())
    run = Simulator.run
    stops = (400_000, 2_000_000, 2_000_001, 5_000_000)

    def split_run(self, until=None, max_events=None, expect_drain=False):
        if until is None:
            for stop in stops:
                run(self, until=stop)
                assert self.now == stop
        return run(self, until=until, max_events=max_events,
                   expect_drain=expect_drain)

    monkeypatch.setattr(Simulator, "run", split_run)
    split = run_cell(_small_cell())
    assert split.runtime_ps > stops[-1]
    assert split.to_json() == plain.to_json()
