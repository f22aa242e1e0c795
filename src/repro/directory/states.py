"""State definitions for the hierarchical MOESI directory protocol.

DirectoryCMP (paper Section 2) keeps coherence with two coupled
directories:

* the **intra-CMP directory** at each L2 bank tracks which local L1s hold
  a block (owner + sharer vector) along with the chip-level permission;
* the **inter-CMP directory** at each home memory controller tracks which
  *chips* hold the block, not individual caches.

Both levels use per-block busy states to serialize transactions (deferred
requests queue at the directory) and three-phase writebacks — the choices
the paper describes as moderating DirectoryCMP's complexity.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Set

from repro.common.types import NodeId

# Stable L1 cache states (MOESI; I = no entry).
M, O, E, S = "M", "O", "E", "S"

# Grant kinds carried in DIR_DATA.extra / DIR_UNBLOCK.extra.
GRANT_M, GRANT_E, GRANT_S = "M", "E", "S"

# State a cache (L1) or chip (L2 gstate) installs for each grant kind.
GRANT_STATE = {GRANT_M: M, GRANT_E: E, GRANT_S: S}


@dataclasses.dataclass
class L1Entry:
    """One block in an L1 cache under DirectoryCMP."""

    state: str  # M / O / E / S
    value: int = 0
    dirty: bool = False
    hold_until: int = 0  # response-delay window (ps)


@dataclasses.dataclass
class L1Tx:
    """Outstanding L1 miss (IS = read, IM = write)."""

    op: object
    addr: int
    done: object
    start_ps: int
    is_write: bool
    data: Optional[int] = None
    granted: Optional[str] = None
    dirty: bool = False
    acks_expected: Optional[int] = None
    acks_received: int = 0
    data_source: Optional[str] = None  # who supplied the data (profiling)


@dataclasses.dataclass
class EvictBuf:
    """Dirty/ownership data parked during a three-phase writeback."""

    value: int
    dirty: bool
    state: str  # M or O (ownership states need the handshake)
    cancelled: bool = False  # lost ownership to a forwarded request


@dataclasses.dataclass
class L2Line:
    """Intra-CMP directory record for one block at the home L2 bank."""

    gstate: str = "I"  # chip-level permission: I/S/E/M/O
    owner_l1: Optional[NodeId] = None
    owner_state: str = "M"  # local owner's state (M or O)
    sharers: Set[NodeId] = dataclasses.field(default_factory=set)
    l2_data: bool = False
    value: int = 0
    dirty: bool = False
    busy: bool = False
    queue: List = dataclasses.field(default_factory=list)
    pending: Optional[object] = None  # outstanding global transaction

    @property
    def has_local_data(self) -> bool:
        return self.l2_data or self.owner_l1 is not None

    def evictable(self) -> bool:
        return not self.busy and self.pending is None


@dataclasses.dataclass
class HomeLine:
    """Inter-CMP directory record for one block at its home controller."""

    state: str = "I"  # I (memory owner) / S / O / M
    owner_chip: Optional[int] = None
    sharer_chips: Set[int] = dataclasses.field(default_factory=set)
    busy: bool = False
    queue: List = dataclasses.field(default_factory=list)
