"""Per-chip token ledger used by the hierarchical performance policy.

The home L2 bank must decide whether a transient request can be satisfied
on-chip (no escalation) or constitutes an L2-level miss (broadcast to the
other CMPs and the home memory controller).  The ledger models the L2's
on-chip token tracking by summing the live token state of the chip's
caches; it is strictly a performance-policy input — a wrong answer can
only cost traffic or a retry, never correctness (see DESIGN.md).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.types import NodeId


class ChipTokenLedger:
    """Live view of how many tokens of a block reside on one chip."""

    def __init__(self, controllers: List):
        # ``controllers``: the TokenCacheControllers on this chip.  Each
        # cache's bound ``CacheArray.peek`` is an untouched probe with no
        # Python frame of its own.
        self._peeks = tuple(ctrl.array.peek for ctrl in controllers)
        self._nodes = tuple(ctrl.node for ctrl in controllers)

    def tokens_on_chip(self, addr: int) -> int:
        total = 0
        for peek in self._peeks:
            entry = peek(addr)
            if entry is not None:
                total += entry.tokens
        return total

    def can_satisfy_read(self, addr: int, requestor: NodeId, total_tokens: int) -> bool:
        """Would any on-chip cache respond to a local read request?

        Mirrors the local-read response rules: migratory owner with all
        tokens, or any cache with valid data and at least two tokens.
        """
        for node, peek in zip(self._nodes, self._peeks):
            if node == requestor:
                continue
            entry = peek(addr)
            if entry is None:
                continue
            if entry.owner and entry.dirty and entry.tokens == total_tokens:
                return True
            if entry.valid_data and entry.tokens >= 2:
                return True
        return False
