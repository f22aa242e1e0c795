"""Set-associative cache arrays with LRU replacement.

The array stores protocol-specific entry objects keyed by block address.
Protocols mark entries un-evictable while a transaction is in flight via
the ``evictable`` predicate passed to :meth:`CacheArray.allocate`.

Layout
------

Two views of the same entries:

* a **flat index** ``addr -> entry`` over the whole array, whose bound
  ``get`` is exposed as :attr:`CacheArray.peek`: an untouched probe (a
  broadcast receiver checking for tokens, a ledger summing a chip's
  holdings) is one C-level dict lookup with no Python frame;
* **per-set LRU order** in plain insertion-ordered dicts, oldest first:
  :meth:`CacheArray.lookup` refreshes an entry by deleting and
  re-inserting it.  Plain dicts are smaller than ``OrderedDict``, which
  pays for the flat index.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

from repro.common.errors import ConfigError

E = TypeVar("E")


class CacheArray:
    """A set-associative array mapping block addresses to entries."""

    def __init__(self, size_bytes: int, assoc: int, block_size: int, name: str = "cache"):
        if size_bytes % (assoc * block_size) != 0:
            raise ConfigError(f"{name}: size must be a multiple of assoc*block_size")
        self.name = name
        self.assoc = assoc
        self.block_size = block_size
        self.num_sets = size_bytes // (assoc * block_size)
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(f"{name}: number of sets must be a power of two")
        self._set_mask = self.num_sets - 1
        self._sets: Dict[int, Dict[int, E]] = {}
        self._index: Dict[int, E] = {}
        #: ``peek(addr)``: the entry for ``addr`` or None, leaving LRU order
        #: alone.  The flat index's bound ``get`` (never rebound: the index
        #: is only mutated in place).
        self.peek: Callable[[int], Optional[E]] = self._index.get

    def _set_of(self, addr: int) -> int:
        return (addr // self.block_size) & self._set_mask

    def lookup(self, addr: int) -> Optional[E]:
        """Return the entry for ``addr`` or None, making it most recent."""
        entry = self._index.get(addr)
        if entry is not None:
            # Inlined _set_of; delete + reinsert moves ``addr`` to the
            # MRU end of its set's insertion order.
            bucket = self._sets[(addr // self.block_size) & self._set_mask]
            del bucket[addr]
            bucket[addr] = entry
        return entry

    def allocate(
        self,
        addr: int,
        entry: E,
        evictable: Callable[[int, E], bool] = lambda a, e: True,
    ) -> Optional[Tuple[int, E]]:
        """Insert ``entry`` for ``addr``, evicting the LRU entry if needed.

        Returns the evicted ``(addr, entry)`` pair, or None if no eviction
        was necessary.  Raises :class:`ConfigError` if the set is full and
        nothing is evictable (callers should size MSHRs/sets to avoid it).
        """
        index = self._set_of(addr)
        bucket = self._sets.setdefault(index, {})
        if addr in bucket:
            del bucket[addr]
            bucket[addr] = self._index[addr] = entry
            return None
        victim = None
        if len(bucket) >= self.assoc:
            for vaddr in bucket:  # LRU order: oldest first
                if evictable(vaddr, bucket[vaddr]):
                    victim = (vaddr, bucket[vaddr])
                    break
            if victim is None:
                raise ConfigError(f"{self.name}: set {index} full of un-evictable blocks")
            del bucket[victim[0]]
            del self._index[victim[0]]
        bucket[addr] = self._index[addr] = entry
        return victim

    def deallocate(self, addr: int) -> Optional[E]:
        """Remove and return the entry for ``addr`` (None if absent)."""
        entry = self._index.pop(addr, None)
        if entry is not None:
            del self._sets[self._set_of(addr)][addr]
        return entry

    def __contains__(self, addr: int) -> bool:
        return addr in self._index

    def __len__(self) -> int:
        return len(self._index)

    def items(self) -> Iterator[Tuple[int, E]]:
        """Every entry, set by set in first-allocation order, each set in
        LRU order (oldest first)."""
        for bucket in self._sets.values():
            yield from bucket.items()

    def entries_in_set(self, addr: int) -> Iterator[Tuple[int, E]]:
        """Entries of the set ``addr`` maps to, in LRU order (oldest first)."""
        bucket = self._sets.get(self._set_of(addr))
        if bucket is not None:
            yield from bucket.items()
