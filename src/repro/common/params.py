"""Target system parameters (paper Table 3) and address mapping helpers.

Every latency is stored in picoseconds (see :mod:`repro.common.types`);
the constructor accepts nanoseconds for readability.  The defaults encode
the 4-CMP x 4-processor target machine evaluated in the paper.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import ConfigError
from repro.common.types import NodeId, NodeKind, ns
from repro.interconnect.topology import Topology


@dataclasses.dataclass(frozen=True)
class SystemParams:
    """Machine-level configuration shared by all protocols.

    The defaults reproduce paper Table 3.  Construct with keyword
    arguments in *nanoseconds* / bytes / counts; latencies are converted
    to picoseconds on construction and exposed through ``*_ps`` fields.
    """

    # Topology.
    num_chips: int = 4
    procs_per_chip: int = 4
    l2_banks_per_chip: int = 4
    # Interconnect fabric shape (declarative; see repro.interconnect.topology).
    # The default compiles to exactly the paper's Table-3 star/point-to-point
    # machine; mesh/torus/fattree generators scale past it.
    topology: Topology = dataclasses.field(default_factory=Topology)

    # Geometry.
    block_size: int = 64
    l1_size: int = 128 * 1024
    l1_assoc: int = 4
    l2_bank_size: int = 2 * 1024 * 1024  # 8 MB shared L2 in 4 banks
    l2_assoc: int = 4

    # Latencies (nanoseconds as given in Table 3).
    l1_latency_ns: float = 2.0
    l2_latency_ns: float = 7.0
    mem_ctrl_latency_ns: float = 6.0
    dram_latency_ns: float = 80.0
    intra_link_latency_ns: float = 2.0
    inter_link_latency_ns: float = 20.0
    mem_link_latency_ns: float = 20.0

    # Bandwidths (bytes per nanosecond == GB/s).
    intra_link_bw: float = 64.0
    inter_link_bw: float = 16.0
    mem_link_bw: float = 64.0

    # Message sizes (Section 8: data 72 bytes, control 8 bytes).
    data_msg_bytes: int = 72
    control_msg_bytes: int = 8

    # Token coherence knobs.
    tokens_per_block: int = 64
    response_delay_ns: float = 80.0  # bounded hold window (Section 3.2)

    def __post_init__(self) -> None:
        if self.num_chips < 1 or self.procs_per_chip < 1:
            raise ConfigError("need at least one chip and one processor")
        if self.block_size & (self.block_size - 1):
            raise ConfigError("block_size must be a power of two")
        if self.l2_banks_per_chip < 1:
            raise ConfigError("need at least one L2 bank per chip")
        if not isinstance(self.topology, Topology):
            raise ConfigError(
                "topology must be a repro.interconnect.topology.Topology "
                "(e.g. Topology.mesh()); got "
                f"{type(self.topology).__name__}"
            )
        min_tokens = self.num_caches + 1
        if self.tokens_per_block < min_tokens:
            raise ConfigError(
                f"tokens_per_block={self.tokens_per_block} must exceed the "
                f"number of caches ({self.num_caches}) for persistent reads"
            )

    # ------------------------------------------------------------------
    # Derived counts.
    # ------------------------------------------------------------------
    @property
    def num_procs(self) -> int:
        return self.num_chips * self.procs_per_chip

    @property
    def num_caches(self) -> int:
        """Caches that may hold tokens for one block.

        Per chip: every L1D, every L1I, and the single home L2 bank the
        block maps to.
        """
        return self.num_chips * (2 * self.procs_per_chip + 1)

    @property
    def caches_per_chip(self) -> int:
        """C in Section 4: caches on one CMP that can hold a given block."""
        return 2 * self.procs_per_chip + 1

    # ------------------------------------------------------------------
    # Latency accessors in picoseconds.
    # ------------------------------------------------------------------
    @property
    def l1_latency_ps(self) -> int:
        return ns(self.l1_latency_ns)

    @property
    def l2_latency_ps(self) -> int:
        return ns(self.l2_latency_ns)

    @property
    def mem_ctrl_latency_ps(self) -> int:
        return ns(self.mem_ctrl_latency_ns)

    @property
    def dram_latency_ps(self) -> int:
        return ns(self.dram_latency_ns)

    @property
    def intra_link_latency_ps(self) -> int:
        return ns(self.intra_link_latency_ns)

    @property
    def inter_link_latency_ps(self) -> int:
        return ns(self.inter_link_latency_ns)

    @property
    def mem_link_latency_ps(self) -> int:
        return ns(self.mem_link_latency_ns)

    @property
    def response_delay_ps(self) -> int:
        return ns(self.response_delay_ns)

    # ------------------------------------------------------------------
    # Address mapping.
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        """Return the block-aligned address containing ``addr``."""
        return addr & ~(self.block_size - 1)

    def block_index(self, addr: int) -> int:
        return addr // self.block_size

    def home_chip(self, addr: int) -> int:
        """Chip whose memory controller is home for ``addr`` (interleaved)."""
        return self.block_index(addr) % self.num_chips

    def home_mem(self, addr: int) -> NodeId:
        return NodeId(NodeKind.MEM, self.home_chip(addr))

    def home_arbiter(self, addr: int) -> NodeId:
        return NodeId(NodeKind.ARB, self.home_chip(addr))

    def l2_bank(self, addr: int, chip: int) -> NodeId:
        """The L2 bank on ``chip`` responsible for ``addr`` (interleaved)."""
        bank = (self.block_index(addr) // self.num_chips) % self.l2_banks_per_chip
        return NodeId(NodeKind.L2, chip, bank)

    def interleave_residue(self, addr: int) -> int:
        """The block index modulo ``num_chips * l2_banks_per_chip``.

        It fixes both :meth:`home_chip` and the bank of :meth:`l2_bank`,
        so blocks with one residue map to the same home and banks; the
        token controllers key their broadcast destination sets by it.
        Keep it in step with those two methods.
        """
        return addr // self.block_size % (self.num_chips * self.l2_banks_per_chip)

    def proc_chip(self, proc: int) -> int:
        return proc // self.procs_per_chip

    def l1d_of(self, proc: int) -> NodeId:
        return NodeId(NodeKind.L1D, self.proc_chip(proc), proc % self.procs_per_chip)

    def l1i_of(self, proc: int) -> NodeId:
        return NodeId(NodeKind.L1I, self.proc_chip(proc), proc % self.procs_per_chip)

    def iface_of(self, chip: int) -> NodeId:
        return NodeId(NodeKind.IFACE, chip)

    # ------------------------------------------------------------------
    # Enumerations used by builders and broadcast logic.
    # ------------------------------------------------------------------
    def chip_l1s(self, chip: int, include_icache: bool = True):
        """All L1 cache node ids on ``chip``."""
        out = []
        for i in range(self.procs_per_chip):
            out.append(NodeId(NodeKind.L1D, chip, i))
            if include_icache:
                out.append(NodeId(NodeKind.L1I, chip, i))
        return out

    def chip_l2_banks(self, chip: int):
        return [NodeId(NodeKind.L2, chip, b) for b in range(self.l2_banks_per_chip)]

    def all_chips(self):
        return list(range(self.num_chips))

    def token_holders(self, addr: int, include_icache: bool = True):
        """Every cache node that may hold tokens for ``addr``."""
        out = []
        for chip in range(self.num_chips):
            out.extend(self.chip_l1s(chip, include_icache))
            out.append(self.l2_bank(addr, chip))
        return out

    # Fixed persistent-request priority (Section 3.2): low bits vary within
    # a CMP, high bits across CMPs, so contended hand-offs favour locality.
    def persistent_priority(self, proc: int) -> int:
        """Smaller value = higher priority."""
        chip = self.proc_chip(proc)
        local = proc % self.procs_per_chip
        return chip * self.procs_per_chip + local
