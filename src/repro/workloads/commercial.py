"""Synthetic commercial-workload generators (paper Table 2 substitutes).

The paper runs Apache, DB2/TPC-C (OLTP) and SPECjbb2000 on a simulated
SPARC/Solaris system.  Full-system workloads are out of scope for a pure
Python reproduction, so each workload is modelled as a per-processor
reference stream whose *sharing-miss mix* matches the published
characterizations (Barroso et al. [4]; paper Sections 1, 8):

* **OLTP** — dominated by read-modify-write (migratory) sharing of
  database records and hot locks; this is where directory indirections
  hurt most and TokenCMP wins biggest (paper: 50%).
* **Apache** — moderate migratory sharing plus a larger read-shared set
  (metadata, caches); intermediate win (paper: 29%).
* **SPECjbb** — mostly thread-private heap with light sharing; smallest
  win (paper: 10%).

Each stream mixes four access classes: private blocks, read-only shared
blocks, migratory records (load + store, read-modify-write), and
lock-protected critical sections.  See DESIGN.md for why this substitution
preserves the paper's comparison.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Dict, Generator, List

from repro.common.rng import substream
from repro.cpu.ops import Fetch, Load, Rmw, Store, Think
from repro.workloads.base import Workload
from repro.workloads.locking import LOCK_FREE, LOCK_HELD


@dataclasses.dataclass(frozen=True)
class CommercialProfile:
    """Mix parameters for one synthetic commercial workload."""

    name: str
    refs_per_proc: int = 400
    think_ns: float = 10.0  # non-memory work between references
    # Access-class probabilities (remainder = private references).
    p_lock: float = 0.05
    p_migratory: float = 0.15
    p_read_shared: float = 0.15
    # Capacity-pressure stream: dirty references that conflict in the L2
    # so they produce the steady capacity misses + dirty L2 writebacks of
    # the real workloads' multi-GB footprints (see DESIGN.md).
    p_stream: float = 0.05
    # Instruction fetches: shared read-only code, hot-skewed.  (Only the
    # potentially-missing fraction of fetches is issued; L1I hits on the
    # hot loop body are folded into think time.)
    p_fetch: float = 0.15
    code_blocks: int = 24
    # Footprints (blocks).
    private_blocks: int = 256
    migratory_blocks: int = 32
    read_shared_blocks: int = 64
    lock_blocks: int = 16
    store_fraction_private: float = 0.3


OLTP = CommercialProfile(
    name="oltp",
    p_lock=0.08,
    p_migratory=0.30,
    p_read_shared=0.10,
    p_stream=0.15,  # OLTP's large buffer pool: heavy L2 capacity traffic
    migratory_blocks=24,
    lock_blocks=12,
)

APACHE = CommercialProfile(
    name="apache",
    p_lock=0.04,
    p_migratory=0.12,
    p_read_shared=0.25,
    p_stream=0.12,
    migratory_blocks=32,
    read_shared_blocks=96,
)

SPECJBB = CommercialProfile(
    name="specjbb",
    p_lock=0.015,
    p_migratory=0.05,
    p_read_shared=0.10,
    p_stream=0.10,  # garbage-collected heap churn
    private_blocks=384,
    migratory_blocks=16,
)

PROFILES = {"oltp": OLTP, "apache": APACHE, "specjbb": SPECJBB}


class CommercialWorkload(Workload):
    """Synthetic reference stream with a commercial sharing profile.

    The stream is **vectorized**: every per-processor rng decision
    (access class, block picks, store values) is made once at
    construction and compiled into a flat ``array('q')`` program of
    4-int records, so steady-state generation is array reads plus
    interned op objects instead of per-reference object churn.  Only the
    genuinely runtime-dependent parts stay in the generator: the
    test-and-test-and-set spin (which consumes no rng — its trip count
    depends on other processors) and the migratory read-modify-write
    values.  :meth:`_compile` replicates the old per-reference
    generator's rng calls exactly, with each ``randrange`` inlined as
    CPython's draw rule, so streams are bit-identical to the
    pre-vectorized implementation (``tests/test_workloads.py`` pins a
    sha256 of the compiled programs).
    """

    # Program record: (body opcode, fetch addr or -1, a, b).
    _LOCK, _MIG, _RO, _STREAM, _PRIV_STORE, _PRIV_LOAD = range(6)

    def __init__(self, params, profile: CommercialProfile, seed: int = 0):
        super().__init__(params, seed)
        self.profile = profile
        self.name = profile.name
        self.locks = self.alloc.blocks(profile.lock_blocks)
        self.migratory = self.alloc.blocks(profile.migratory_blocks)
        self.read_shared = self.alloc.blocks(profile.read_shared_blocks)
        self.code = self.alloc.blocks(profile.code_blocks)
        self.private = [
            self.alloc.blocks(profile.private_blocks) for _ in range(params.num_procs)
        ]
        self.completed_refs = [0] * params.num_procs
        self._stream_counters = [0] * params.num_procs
        # Interned immutable op objects, shared across yields and procs.
        self._think = Think(profile.think_ns)
        self._loads: Dict[int, Load] = {}
        self._fetches: Dict[int, Fetch] = {}
        self._tas: Dict[int, Rmw] = {}
        self._unlocks: Dict[int, Store] = {}
        self._programs = [self._compile(p) for p in range(params.num_procs)]

    def _stream_block(self, proc: int) -> int:
        """Next block of this processor's capacity stream.

        Consecutive stream blocks of one processor map to the same L1/L2
        set (stride = one full L2-bank wrap), so a modest reference count
        reproduces the capacity misses and dirty writebacks that the real
        workloads' multi-GB footprints cause.
        """
        k = self._stream_counters[proc]
        self._stream_counters[proc] += 1
        p = self.params
        l2_sets = p.l2_bank_size // (p.block_size * p.l2_assoc)
        # Each processor round-robins over 2 private L2 sets; a stride of
        # l2_sets blocks keeps the set index constant within each lane, so
        # the stream steadily conflicts (and evicts dirty lines) without
        # pinning any single set while L1 writebacks are still in flight.
        base_index = 0x800_0000 // p.block_size + 16
        lane = proc * 2 + (k % 2)
        return (base_index + lane + (k // 2) * l2_sets) * p.block_size

    def _compile(self, proc: int) -> array:
        """Precompute this processor's reference stream as a flat program.

        Draws from the rng in exactly the per-reference order of the old
        generator (the spin loop consumed no rng, and the lock path's
        record pick came after an rng-free acquire), so the compiled
        stream is draw-for-draw identical.  Each ``rng.randrange(n)`` is
        inlined as CPython's own rule (``Random._randbelow`` with
        ``getrandbits``, the same on 3.8-3.13): draw ``n.bit_length()``
        bits and redraw while the result is ``>= n``.  That makes the
        same ``getrandbits`` calls, so every pick and the rng's final
        state are unchanged, without two Python frames per pick.  The
        records go into one list, turned into the array once.
        """
        prof = self.profile
        rng = substream(self.seed, "commercial", prof.name, proc)
        random = rng.random
        getrandbits = rng.getrandbits
        p_fetch = prof.p_fetch
        p_store = prof.store_fraction_private
        p_lock = prof.p_lock
        p_mig = p_lock + prof.p_migratory
        p_ro = p_mig + prof.p_read_shared
        p_str = p_ro + prof.p_stream
        code, locks, migratory = self.code, self.locks, self.migratory
        read_shared, private = self.read_shared, self.private[proc]
        # Each pick's range n and its draw width k = n.bit_length().
        n_code, n_lock, n_mig = len(code), len(locks), len(migratory)
        n_ro, n_priv = len(read_shared), len(private)
        k_code, k_lock, k_mig, k_ro, k_priv = (
            n.bit_length() for n in (n_code, n_lock, n_mig, n_ro, n_priv)
        )
        stream_block = self._stream_block
        LOCK, MIG, RO, STREAM, PRIV_STORE, PRIV_LOAD = (
            self._LOCK, self._MIG, self._RO,
            self._STREAM, self._PRIV_STORE, self._PRIV_LOAD,
        )
        out: List[int] = []
        for _ in range(prof.refs_per_proc):
            fetch_addr = -1
            if random() < p_fetch:
                # Hot-skewed instruction fetch: most go to a few blocks.
                if random() < 0.7:
                    while (i := getrandbits(3)) >= 4:  # randrange(4)
                        pass
                else:
                    while (i := getrandbits(k_code)) >= n_code:
                        pass
                fetch_addr = code[i]
            r = random()
            if r < p_lock:
                while (i := getrandbits(k_lock)) >= n_lock:
                    pass
                while (j := getrandbits(k_mig)) >= n_mig:
                    pass
                out += (LOCK, fetch_addr, locks[i], migratory[j])
            elif r < p_mig:
                while (i := getrandbits(k_mig)) >= n_mig:
                    pass
                out += (MIG, fetch_addr, migratory[i], 0)
            elif r < p_ro:
                while (i := getrandbits(k_ro)) >= n_ro:
                    pass
                out += (RO, fetch_addr, read_shared[i], 0)
            elif r < p_str:
                out += (STREAM, fetch_addr, stream_block(proc), 0)
            else:
                while (i := getrandbits(k_priv)) >= n_priv:
                    pass
                if random() < p_store:
                    while (j := getrandbits(17)) >= 65536:  # randrange(1 << 16)
                        pass
                    out += (PRIV_STORE, fetch_addr, private[i], j)
                else:
                    out += (PRIV_LOAD, fetch_addr, private[i], 0)
        return array("q", out)

    # Interned-op helpers: one immutable op object per distinct address.
    def _load(self, addr: int) -> Load:
        op = self._loads.get(addr)
        if op is None:
            self._loads[addr] = op = Load(addr)
        return op

    def _fetch(self, addr: int) -> Fetch:
        op = self._fetches.get(addr)
        if op is None:
            self._fetches[addr] = op = Fetch(addr)
        return op

    def _tas_op(self, addr: int) -> Rmw:
        op = self._tas.get(addr)
        if op is None:
            self._tas[addr] = op = Rmw(addr, lambda v: LOCK_HELD)
        return op

    def _unlock(self, addr: int) -> Store:
        op = self._unlocks.get(addr)
        if op is None:
            self._unlocks[addr] = op = Store(addr, LOCK_FREE)
        return op

    def generators(self) -> List[Generator]:
        return [self._run(p) for p in range(self.params.num_procs)]

    def _run(self, proc: int) -> Generator:
        """Replay the compiled program (the runtime half of the stream)."""
        prog = self._programs[proc]
        think = self._think
        completed = self.completed_refs
        LOCK, MIG, RO, STREAM, PRIV_STORE, PRIV_LOAD = (
            self._LOCK, self._MIG, self._RO,
            self._STREAM, self._PRIV_STORE, self._PRIV_LOAD,
        )
        n = len(prog)
        i = 0
        while i < n:
            body = prog[i]
            fetch_addr = prog[i + 1]
            a = prog[i + 2]
            b = prog[i + 3]
            i += 4
            yield think
            if fetch_addr >= 0:
                yield self._fetch(fetch_addr)
            if body == PRIV_LOAD:
                yield self._load(a)
            elif body == MIG:
                # Unsynchronized read-modify-write sharing (migratory).
                value = yield self._load(a)
                yield Store(a, value + 1)
            elif body == STREAM:
                # Capacity stream: write a fresh conflicting block (it will
                # come back out of the L2 as a dirty writeback).
                yield Store(a, proc)
            elif body == RO:
                yield self._load(a)
            elif body == PRIV_STORE:
                yield Store(a, b)
            else:  # LOCK
                lock_load = self._load(a)
                lock_tas = self._tas_op(a)
                while True:
                    if (yield lock_load) == LOCK_FREE:
                        if (yield lock_tas) == LOCK_FREE:
                            break
                # Short critical section: update a migratory record.
                value = yield self._load(b)
                yield Store(b, value + 1)
                yield self._unlock(a)
            completed[proc] += 1


def make_commercial(params, name: str, seed: int = 0, **overrides) -> CommercialWorkload:
    """Build one of the three named workloads (optionally tweaked)."""
    profile = PROFILES[name.lower()]
    if overrides:
        profile = dataclasses.replace(profile, **overrides)
    return CommercialWorkload(params, profile, seed=seed)
