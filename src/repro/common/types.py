"""Core identifier and unit types shared across the simulator.

Time is kept internally in integer **picoseconds** so that bandwidth
serialization delays (fractions of a nanosecond) stay exact and event
ordering is deterministic.  Public configuration is written in nanoseconds
and converted with :func:`ns`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

PS_PER_NS = 1000


def ns(value: float) -> int:
    """Convert a duration in nanoseconds to integer picoseconds."""
    return round(value * PS_PER_NS)


def to_ns(value_ps: int) -> float:
    """Convert integer picoseconds back to (possibly fractional) nanoseconds."""
    return value_ps / PS_PER_NS


class NodeKind(str, enum.Enum):
    """The kind of coherence endpoint a :class:`NodeId` names.

    ``str`` is mixed in purely for speed: :class:`NodeId` tuples key the
    interconnect's route and endpoint tables, and the mixin gives members
    the C-level ``str.__hash__``/``str.__eq__`` instead of the
    Python-level ``enum`` ones — the hot ``send`` path hashes millions of
    these per run.  Values and identity semantics are unchanged.
    """

    L1D = "l1d"
    L1I = "l1i"
    L2 = "l2"
    IFACE = "iface"  # a chip's global interconnect interface
    MEM = "mem"  # a chip's off-chip memory/directory controller
    ARB = "arb"  # persistent-request arbiter (co-located with MEM)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeKind.{self.name}"


class NodeId(NamedTuple):
    """Globally unique name of a coherence endpoint.

    ``chip`` is the CMP index the endpoint belongs to (memory controllers
    are per-CMP in the target system, Table 3).  ``index`` distinguishes
    endpoints of the same kind on one chip: the processor number for L1
    caches, the bank number for L2 banks, and 0 otherwise.
    """

    kind: NodeKind
    chip: int
    index: int = 0

    def __str__(self) -> str:
        return f"{self.kind.value}[{self.chip}.{self.index}]"


class Address(int):
    """A physical byte address.  Plain ``int`` with a nicer repr."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Address({int(self):#x})"


def classify_source(src: NodeId, own_chip: int) -> str:
    """Profile label for where a miss's data came from."""
    if src.kind is NodeKind.MEM:
        return "memory"
    local = "local" if src.chip == own_chip else "remote"
    kind = "l2" if src.kind is NodeKind.L2 else "l1"
    return f"{local}-{kind}"
