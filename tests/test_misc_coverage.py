"""Gap-filling tests for smaller behaviours across the library."""

import pytest

from repro.common.params import SystemParams
from repro.common.rng import substream
from repro.common.types import NodeId, NodeKind, ns, to_ns
from repro.interconnect.message import Message, MsgType
from repro.interconnect.traffic import Scope, TrafficClass, TrafficMeter
from repro.system import MachineSpec
from repro.workloads.sharing import CounterWorkload


def test_rng_substreams_are_deterministic_and_independent():
    a1 = substream(42, "x").random()
    a2 = substream(42, "x").random()
    b = substream(42, "y").random()
    c = substream(43, "x").random()
    assert a1 == a2
    assert a1 != b and a1 != c


def test_time_units_roundtrip_fractional():
    assert to_ns(ns(0.125)) == 0.125
    assert ns(0.0004) == 0  # sub-picosecond rounds away


def test_message_repr_mentions_tokens_and_data():
    msg = Message(MsgType.TOK_DATA, NodeId(NodeKind.L1D, 0, 0),
                  NodeId(NodeKind.L1D, 0, 1), 0x40, tokens=3, owner=True, data=7)
    text = str(msg)
    assert "tok=3+O" in text and "data=7" in text


def test_traffic_meter_counts_messages_per_scope():
    meter = TrafficMeter()
    meter.record(Scope.INTER, TrafficClass.REQUEST, 8)
    meter.record(Scope.INTER, TrafficClass.RESPONSE_DATA, 72)
    meter.record(Scope.INTRA, TrafficClass.REQUEST, 8)
    assert meter.messages[Scope.INTER] == 2
    assert meter.scope_bytes(Scope.INTER) == 80
    assert meter.breakdown(Scope.INTRA)[TrafficClass.REQUEST] == 8


def test_network_link_utilization_reports_bytes():
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol="TokenCMP-dst1", seed=1).build()
    machine.run(CounterWorkload(params, increments=3, seed=1), max_events=5_000_000)
    util = {name: link.bytes_carried
            for name, link in machine.net.links_by_name().items()}
    assert any(v > 0 for v in util.values())
    assert any(name.startswith("inter:") and v > 0 for name, v in util.items())


def test_kernel_counts_fired_events():
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol="PerfectL2", seed=1).build()
    machine.run(CounterWorkload(params, increments=2, seed=1))
    assert machine.sim.events_fired > 50


def test_touched_blocks_reports_workload_footprint():
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol="TokenCMP-dst1", seed=1).build()
    wl = CounterWorkload(params, increments=3, seed=1)
    machine.run(wl, max_events=5_000_000)
    touched = machine.touched_blocks()
    assert wl.counter in touched and wl.lock in touched


def test_machine_accepts_config_objects_directly():
    import dataclasses
    from repro.system.config import PROTOCOLS

    cfg = dataclasses.replace(PROTOCOLS["TokenCMP-dst1"], name="custom")
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol=cfg, seed=1).build()
    result = machine.run(CounterWorkload(params, increments=2, seed=1),
                         max_events=5_000_000)
    assert result.protocol == "custom"


def test_check_token_invariants_rejected_for_other_families():
    from repro.common.errors import ProtocolError

    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol="DirectoryCMP", seed=1).build()
    with pytest.raises(ProtocolError):
        machine.check_token_invariants()


def test_version_and_public_exports():
    import repro

    assert repro.__version__
    assert "TokenCMP-dst1" in repro.PROTOCOLS
    assert repro.protocol("PerfectL2").family == "perfect"


def test_miss_source_classifier():
    from repro.core.l1 import classify_source

    assert classify_source(NodeId(NodeKind.MEM, 1), 0) == "memory"
    assert classify_source(NodeId(NodeKind.L1D, 0, 1), 0) == "local-l1"
    assert classify_source(NodeId(NodeKind.L1D, 2, 1), 0) == "remote-l1"
    assert classify_source(NodeId(NodeKind.L2, 3, 0), 0) == "remote-l2"


def test_miss_source_profile_collected():
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    for proto in ("TokenCMP-dst1", "DirectoryCMP"):
        machine = MachineSpec(params=params, protocol=proto, seed=1).build()
        machine.run(CounterWorkload(params, increments=4, seed=1),
                    max_events=10_000_000)
        sources = {k: v for k, v in machine.stats.counters.items()
                   if k.startswith("miss.src.")}
        assert sources, proto
        assert sum(sources.values()) <= machine.stats.get("l1.misses")
