"""Tests of workload generators: semantics independent of protocols.

A tiny sequential interpreter executes the generators against a flat
memory with interleaving, verifying the synchronization idioms themselves
(test-and-test-and-set really excludes, the barrier really synchronizes)
before any cache coherence gets involved.
"""

import pytest

from repro.common.params import SystemParams
from repro.cpu.ops import Load, Rmw, Store, Think, is_write
from repro.workloads.barrier import BarrierWorkload
from repro.workloads.commercial import PROFILES, make_commercial
from repro.workloads.locking import LockingWorkload
from repro.workloads.sharing import CounterWorkload


def interpret_round_robin(generators, max_steps=2_000_000):
    """Run generators against a flat memory, one op per turn, atomically."""
    from repro.cpu.ops import Fetch

    memory = {}
    live = {i: g for i, g in enumerate(generators)}
    pending = {i: None for i in live}
    steps = 0
    while live:
        for i in list(live):
            gen = live[i]
            try:
                item = gen.send(pending[i])
            except StopIteration:
                del live[i]
                continue
            if isinstance(item, Think):
                pending[i] = None
            elif isinstance(item, (Load, Fetch)):
                pending[i] = memory.get(item.addr, 0)
            elif isinstance(item, Store):
                pending[i] = memory.get(item.addr, 0)
                memory[item.addr] = item.value
            elif isinstance(item, Rmw):
                old = memory.get(item.addr, 0)
                memory[item.addr] = item.fn(old)
                pending[i] = old
            steps += 1
            if steps > max_steps:
                raise AssertionError("workload did not terminate")
    return memory


@pytest.fixture
def params():
    return SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)


def test_locking_workload_mutual_exclusion_semantics(params):
    wl = LockingWorkload(params, num_locks=3, acquires_per_proc=10, seed=3)
    memory = interpret_round_robin(wl.generators())
    assert wl.acquired_counts == [10] * params.num_procs
    for lock in wl.locks:
        assert memory.get(lock, 0) == 0  # all released


def test_locking_never_picks_same_lock_twice(params):
    wl = LockingWorkload(params, num_locks=8, acquires_per_proc=50, seed=5)
    # Reconstruct the pick sequence by reading the generator's RNG draw.
    from repro.common.rng import substream

    rng = substream(5, "locking", 0)
    last = -1
    for _ in range(50):
        pick = rng.randrange(7)
        if pick >= last:
            pick += 1
        assert pick != last
        last = pick


def test_counter_workload_totals(params):
    wl = CounterWorkload(params, increments=7)
    memory = interpret_round_robin(wl.generators())
    assert memory[wl.counter] == wl.expected_total


def test_barrier_workload_synchronizes(params):
    wl = BarrierWorkload(params, phases=5, work_ns=1.0, seed=2)
    memory = interpret_round_robin(wl.generators())
    assert wl.completed_phases == [5] * params.num_procs
    assert memory.get(wl.counter, 0) == 0
    assert memory.get(wl.lock, 0) == 0


def test_barrier_flag_alternates(params):
    wl = BarrierWorkload(params, phases=4, work_ns=1.0)
    memory = interpret_round_robin(wl.generators())
    assert memory.get(wl.flag) == 0  # even number of phases: back to 0


def test_commercial_profiles_exist_and_run(params):
    for name in PROFILES:
        wl = make_commercial(params, name, refs_per_proc=30)
        interpret_round_robin(wl.generators())
        assert wl.completed_refs == [30] * params.num_procs


def test_commercial_stream_blocks_conflict_in_l2(params):
    wl = make_commercial(params, "oltp", refs_per_proc=10)
    sets = params.l2_bank_size // (params.block_size * params.l2_assoc)
    a0 = wl._stream_block(0)
    blocks = [wl._stream_block(0) for _ in range(5)]
    indexes = [b // params.block_size for b in [a0] + blocks]
    lanes = {i % sets for i in indexes}
    assert len(lanes) == 2  # two lanes, each repeatedly conflicting


# sha256 over every compiled commercial program, read on the per-reference
# ``rng.randrange`` implementation: the inlined draw rule must not move a byte.
COMMERCIAL_STREAMS_SHA256 = (
    "b85bfc87260991c1a9737cc45e8bb981002b30ba402f13dc8b6d22742418a61d"
)


def test_commercial_compiled_streams_are_pinned():
    import hashlib

    from repro.exp.library import mesh_params
    from repro.workloads import make_workload

    digest = hashlib.sha256()
    for machine in (SystemParams(), mesh_params(16, 2), mesh_params(8, 2)):
        for name in ("oltp", "apache", "specjbb"):
            for seed in range(1, 9):
                for refs in (40, 250):
                    wl = make_workload(name, machine, seed=seed, refs_per_proc=refs)
                    for prog in wl._programs:
                        digest.update(prog.tobytes())
    assert digest.hexdigest() == COMMERCIAL_STREAMS_SHA256


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_inlined_randrange_rule_matches_cpython(seed):
    """The pick ``CommercialWorkload._compile`` inlines is ``randrange(n)``."""
    import random

    for n in (1, 2, 3, 4, 5, 12, 16, 24, 64, 96, 256, 384, 65536):
        oracle = random.Random(seed)
        inlined = random.Random(seed)
        getrandbits = inlined.getrandbits
        k = n.bit_length()
        for _ in range(200):
            while (i := getrandbits(k)) >= n:
                pass
            assert i == oracle.randrange(n)
        assert inlined.getstate() == oracle.getstate()


def test_commercial_compile_draw_budget(monkeypatch):
    """Set-up work as call counts: no ``randrange`` frame, the same draws."""
    import random

    from repro.workloads import make_workload

    counts = dict.fromkeys(("randrange", "random", "getrandbits"), 0)

    def counting(name):
        method = getattr(random.Random, name)

        def wrapper(self, *args):
            counts[name] += 1
            return method(self, *args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(random.Random, name, counting(name))
    make_workload("oltp", SystemParams(), seed=1, refs_per_proc=250)
    # The per-reference generator's draws: 10,063 random() and 7,961
    # getrandbits() calls, the latter all inside its 4,702 randrange().
    assert counts == {"randrange": 0, "random": 10_063, "getrandbits": 7_961}


def test_commercial_workloads_distinct_address_spaces(params):
    wl = make_commercial(params, "apache", refs_per_proc=10)
    shared = set(wl.locks) | set(wl.migratory) | set(wl.read_shared)
    for priv in wl.private:
        assert not (shared & set(priv))


def test_block_allocator_distinct_blocks(params):
    from repro.workloads.base import BlockAllocator

    alloc = BlockAllocator(params)
    blocks = alloc.blocks(100)
    assert len(set(blocks)) == 100
    assert all(b % params.block_size == 0 for b in blocks)
    # One range, the same addresses as one ``block()`` call per block,
    # and the allocator continues after them.
    one_by_one = BlockAllocator(params)
    assert blocks == [one_by_one.block() for _ in range(100)]
    assert alloc.blocks(0) == []
    assert alloc.block() == one_by_one.block()


def test_workload_requires_matching_proc_count(params):
    from repro.system import MachineSpec

    wl = LockingWorkload(params, num_locks=2, acquires_per_proc=1)
    other = SystemParams(num_chips=1, procs_per_chip=2, tokens_per_block=16)
    machine = MachineSpec(params=other, protocol="PerfectL2").build()
    with pytest.raises(ValueError):
        machine.run(wl)


def test_fetch_ops_route_to_l1i(params):
    from repro.cpu.ops import Fetch
    from repro.system import MachineSpec

    for proto in ("TokenCMP-dst1", "DirectoryCMP", "PerfectL2"):
        m = MachineSpec(params=params, protocol=proto, seed=2).build()
        done = []
        m.sequencers[0].issue(Fetch(0x9000_0000), done.append)
        m.sim.run(max_events=500_000)
        assert done == [0]
        l1i = m.l1is[0]
        assert l1i.array.peek(0x9000_0000) is not None


def test_code_sharing_across_l1is(params):
    """Two processors fetch the same code block: both keep readable copies."""
    from repro.cpu.ops import Fetch
    from repro.system import MachineSpec

    m = MachineSpec(params=params, protocol="TokenCMP-dst1", seed=2).build()
    for proc in (0, 2):
        done = []
        m.sequencers[proc].issue(Fetch(0x9000_0000), done.append)
        m.sim.run(max_events=500_000)
        assert done == [0]
    e0 = m.l1is[0].array.peek(0x9000_0000)
    e2 = m.l1is[2].array.peek(0x9000_0000)
    assert e0.can_read() and e2.can_read()
    m.check_token_invariants()


def test_commercial_workloads_issue_fetches(params):
    from repro.system import MachineSpec

    m = MachineSpec(params=params, protocol="TokenCMP-dst1", seed=4).build()
    wl = make_commercial(params, "apache", seed=4, refs_per_proc=60)
    m.run(wl, max_events=20_000_000)
    fetched = sum(
        1 for l1i in m.l1is for _a, _e in l1i.array.items()
    )
    assert fetched > 0
    m.check_token_invariants()
