"""Tests for the CPU layer (sequencer, threads, ops) and system wiring."""

import pytest

from repro.common.params import SystemParams
from repro.common.stats import Stats
from repro.cpu.ops import Load, Rmw, Store, Think, is_write
from repro.cpu.sequencer import Sequencer
from repro.cpu.thread import ProcThread
from repro.sim.kernel import Simulator
from repro.system.config import PROTOCOLS, ProtocolConfig, protocol
from repro.system import MachineSpec
from repro.common.errors import ConfigError


# ---------------------------------------------------------------------------
# Ops.
# ---------------------------------------------------------------------------
def test_is_write_classification():
    assert not is_write(Load(0))
    assert is_write(Store(0, 1))
    assert is_write(Rmw(0, lambda v: v))
    assert not is_write(Think(1.0))


# ---------------------------------------------------------------------------
# Sequencer.
# ---------------------------------------------------------------------------
class FakeL1:
    def __init__(self, sim, latency=1000):
        self.sim = sim
        self.latency = latency

    def access(self, op, done):
        self.sim.call_after(self.latency, done, 42)


def test_sequencer_measures_latency():
    sim = Simulator()
    stats = Stats()
    seq = Sequencer(sim, 0, FakeL1(sim, 5000), stats)
    got = []
    seq.issue(Load(0), got.append)
    sim.run()
    assert got == [42]
    assert stats.summaries["seq.latency_ps"].mean == 5000


def test_sequencer_rejects_overlapping_ops():
    sim = Simulator()
    seq = Sequencer(sim, 0, FakeL1(sim), Stats())
    seq.issue(Load(0), lambda v: None)
    with pytest.raises(AssertionError):
        seq.issue(Load(0), lambda v: None)


# ---------------------------------------------------------------------------
# Thread driver.
# ---------------------------------------------------------------------------
def test_thread_resumes_generator_with_results():
    sim = Simulator()
    seq = Sequencer(sim, 0, FakeL1(sim), Stats())
    seen = []

    def gen():
        value = yield Load(0)
        seen.append(value)
        yield Think(3.0)
        seen.append("thought")

    done = []
    thread = ProcThread(sim, seq, gen(), done.append)
    thread.start()
    sim.run()
    assert seen == [42, "thought"]
    assert thread.finished and done


def test_thread_rejects_unknown_yields():
    sim = Simulator()
    seq = Sequencer(sim, 0, FakeL1(sim), Stats())

    def gen():
        yield "nonsense"

    thread = ProcThread(sim, seq, gen(), lambda t: None)
    thread.start()
    with pytest.raises(TypeError):
        sim.run()


def test_think_time_advances_clock():
    sim = Simulator()
    seq = Sequencer(sim, 0, FakeL1(sim), Stats())

    def gen():
        yield Think(123.0)

    thread = ProcThread(sim, seq, gen(), lambda t: None)
    thread.start()
    sim.run()
    assert thread.finish_time == 123_000  # ps


# ---------------------------------------------------------------------------
# Protocol registry / machine wiring.
# ---------------------------------------------------------------------------
def test_protocol_lookup_errors_are_helpful():
    with pytest.raises(ConfigError, match="unknown protocol"):
        protocol("TokenCMP-dst9")


def test_registry_matches_table1():
    # Table 1 variants plus baselines and extensions.
    for name in ("TokenCMP-arb0", "TokenCMP-dst0", "TokenCMP-dst4",
                 "TokenCMP-dst1", "TokenCMP-dst1-pred", "TokenCMP-dst1-filt"):
        cfg = PROTOCOLS[name]
        assert cfg.family == "token"
    assert PROTOCOLS["TokenCMP-arb0"].activation == "arb"
    assert PROTOCOLS["TokenCMP-dst0"].max_transient == 0
    assert PROTOCOLS["TokenCMP-dst4"].max_transient == 4
    assert PROTOCOLS["TokenCMP-dst1-pred"].use_predictor
    assert PROTOCOLS["TokenCMP-dst1-filt"].use_filter
    assert PROTOCOLS["DirectoryCMP-zero"].dir_zero_cycle


def test_config_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(name="x", family="quantum")
    with pytest.raises(ConfigError):
        ProtocolConfig(name="x", family="token", activation="psychic")
    with pytest.raises(ConfigError):
        ProtocolConfig(name="x", family="token", max_transient=3)


@pytest.mark.parametrize("proto,kinds", [
    ("TokenCMP-dst1", {"l1d", "l1i", "l2", "mem"}),
    ("TokenCMP-arb0", {"l1d", "l1i", "l2", "mem", "arb"}),
    ("DirectoryCMP", {"l1d", "l1i", "l2", "mem"}),
    ("PerfectL2", {"l1d", "l1i"}),
])
def test_builder_wires_expected_controllers(proto, kinds):
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol=proto).build()
    built = {node.kind.value for node in machine.controllers}
    assert built == kinds
    assert len(machine.l1ds) == params.num_procs
    assert len(machine.sequencers) == params.num_procs


def test_token_machine_wires_ledgers_and_predictors():
    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol="TokenCMP-dst1-mcast").build()
    from repro.core.l2 import TokenL2Controller

    l2s = [c for c in machine.controllers.values() if isinstance(c, TokenL2Controller)]
    assert all(l2.ledger is not None for l2 in l2s)
    assert all(l2.destset is not None for l2 in l2s)
    # L1s on the same chip share that chip's predictor.
    a = machine.controllers[params.l1d_of(0)]
    b = machine.controllers[params.l1d_of(1)]
    c = machine.controllers[params.l1d_of(2)]
    assert a.destset is b.destset
    assert a.destset is not c.destset


# ---------------------------------------------------------------------------
# Batched (memory-level-parallel) operations.
# ---------------------------------------------------------------------------
def _run_batch(proto, ops):
    from repro.cpu.ops import Batch

    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol=proto, seed=7).build()
    results = []
    machine.sequencers[0].issue_batch(ops, results.append)
    machine.sim.run(max_events=2_000_000)
    assert len(results) == 1
    return machine, results[0]


@pytest.mark.parametrize("proto", ["TokenCMP-dst1", "DirectoryCMP", "PerfectL2"])
def test_batch_results_arrive_in_op_order(proto):
    from repro.cpu.ops import Store

    ops = [Store(0x1000 + i * 64, 10 + i) for i in range(4)]
    machine, results = _run_batch(proto, ops)
    assert results == [0, 0, 0, 0]  # previous values
    for i in range(4):
        assert machine.coherent_value(0x1000 + i * 64) == 10 + i


def test_batch_overlaps_misses():
    """Four concurrent misses finish far sooner than four serial ones."""
    from repro.cpu.ops import Load

    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    serial = MachineSpec(params=params, protocol="TokenCMP-dst1", seed=7).build()
    t = {"serial": 0, "batch": 0}
    addrs = [0x2000 + i * 64 for i in range(4)]

    def go(i=0):
        if i < 4:
            serial.sequencers[0].issue(Load(addrs[i]), lambda v: go(i + 1))
    go()
    serial.sim.run(max_events=2_000_000)
    t["serial"] = serial.sim.now

    batch = MachineSpec(params=params, protocol="TokenCMP-dst1", seed=7).build()
    batch.sequencers[0].issue_batch([Load(a) for a in addrs], lambda r: None)
    batch.sim.run(max_events=2_000_000)
    t["batch"] = batch.sim.now
    assert t["batch"] < 0.6 * t["serial"]


def test_batch_rejects_same_block_ops():
    from repro.cpu.ops import Load, Store

    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol="TokenCMP-dst1", seed=7).build()
    with pytest.raises(ValueError, match="distinct blocks"):
        machine.sequencers[0].issue_batch(
            [Load(0x3000), Store(0x3010, 1)], lambda r: None
        )


def test_batch_via_workload_generator():
    from repro.cpu.ops import Batch, Load
    from repro.workloads.base import Workload

    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)

    class BatchyWorkload(Workload):
        def __init__(self, p):
            super().__init__(p)
            self.blocks = self.alloc.blocks(4)
            self.got = None

        def generators(self):
            def thread0():
                self.got = yield Batch([Load(b) for b in self.blocks])
            def idle():
                from repro.cpu.ops import Think
                yield Think(1.0)
            return [thread0()] + [idle() for _ in range(params.num_procs - 1)]

    machine = MachineSpec(params=params, protocol="DirectoryCMP", seed=7).build()
    wl = BatchyWorkload(params)
    machine.run(wl, max_events=2_000_000)
    assert wl.got == [0, 0, 0, 0]


def test_run_measured_reports_phase_deltas():
    from repro.workloads.sharing import CounterWorkload

    params = SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=params, protocol="TokenCMP-dst1", seed=3).build()
    warm = CounterWorkload(params, increments=4, seed=3)
    measured = CounterWorkload(params, increments=4, seed=4)
    result = machine.run_measured(warm, measured)
    # The measured phase is shorter than total simulated time...
    assert 0 < result.runtime_ps < machine.sim.now
    # ... and its miss count excludes the warm-up's cold misses.
    cold = MachineSpec(params=params, protocol="TokenCMP-dst1", seed=3).build()
    cold_result = cold.run(CounterWorkload(params, increments=4, seed=3))
    assert result.stats.get("l1.misses") <= cold_result.stats.get("l1.misses")
    machine.check_token_invariants()
