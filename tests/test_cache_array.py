"""Unit tests for the set-associative cache array."""

import random
from collections import OrderedDict

import pytest

from repro.common.errors import ConfigError
from repro.memory.cache import CacheArray


def tiny(assoc=2, sets=2, block=64):
    return CacheArray(assoc * sets * block, assoc, block, "tiny")


def addr_for_set(array, set_index, tag):
    return (tag * array.num_sets + set_index) * array.block_size


def test_lookup_miss_returns_none():
    c = tiny()
    assert c.lookup(0) is None
    assert 0 not in c


def test_allocate_and_lookup():
    c = tiny()
    c.allocate(0, "entry")
    assert c.lookup(0) == "entry"
    assert len(c) == 1


def test_lru_eviction_order():
    c = tiny(assoc=2)
    a0 = addr_for_set(c, 0, 0)
    a1 = addr_for_set(c, 0, 1)
    a2 = addr_for_set(c, 0, 2)
    c.allocate(a0, "A")
    c.allocate(a1, "B")
    victim = c.allocate(a2, "C")
    assert victim == (a0, "A")  # oldest evicted
    assert c.lookup(a1) == "B" and c.lookup(a2) == "C"


def test_lookup_touch_refreshes_lru():
    c = tiny(assoc=2)
    a0 = addr_for_set(c, 0, 0)
    a1 = addr_for_set(c, 0, 1)
    a2 = addr_for_set(c, 0, 2)
    c.allocate(a0, "A")
    c.allocate(a1, "B")
    c.lookup(a0)  # touch A: B becomes LRU
    victim = c.allocate(a2, "C")
    assert victim == (a1, "B")


def test_untouched_lookup_does_not_refresh():
    c = tiny(assoc=2)
    a0 = addr_for_set(c, 0, 0)
    a1 = addr_for_set(c, 0, 1)
    a2 = addr_for_set(c, 0, 2)
    c.allocate(a0, "A")
    c.allocate(a1, "B")
    for _ in range(3):  # however often the oldest entry is peeked at
        assert c.peek(a1) == "B"
        assert c.peek(a0) == "A"
    victim = c.allocate(a2, "C")
    assert victim == (a0, "A")


def test_evictable_predicate_skips_pinned():
    c = tiny(assoc=2)
    a0 = addr_for_set(c, 0, 0)
    a1 = addr_for_set(c, 0, 1)
    a2 = addr_for_set(c, 0, 2)
    c.allocate(a0, "pinned")
    c.allocate(a1, "B")
    victim = c.allocate(a2, "C", evictable=lambda a, e: e != "pinned")
    assert victim == (a1, "B")
    assert c.peek(a0) == "pinned"


def test_full_set_of_unevictable_raises():
    c = tiny(assoc=2)
    c.allocate(addr_for_set(c, 0, 0), "A")
    c.allocate(addr_for_set(c, 0, 1), "B")
    with pytest.raises(ConfigError):
        c.allocate(addr_for_set(c, 0, 2), "C", evictable=lambda a, e: False)


def test_reallocate_same_address_updates_entry():
    c = tiny()
    c.allocate(0, "old")
    assert c.allocate(0, "new") is None
    assert c.lookup(0) == "new"
    assert len(c) == 1


def test_deallocate():
    c = tiny()
    c.allocate(0, "X")
    assert c.deallocate(0) == "X"
    assert c.deallocate(0) is None
    assert len(c) == 0


def test_different_sets_do_not_conflict():
    c = tiny(assoc=2, sets=2)
    for tag in range(2):
        c.allocate(addr_for_set(c, 0, tag), f"s0-{tag}")
        c.allocate(addr_for_set(c, 1, tag), f"s1-{tag}")
    assert len(c) == 4  # no evictions


def test_geometry_validation():
    with pytest.raises(ConfigError):
        CacheArray(1000, 4, 64)  # not a multiple
    with pytest.raises(ConfigError):
        CacheArray(3 * 4 * 64, 4, 64)  # sets not a power of two


class _ReferenceArray:
    """The array's contract written the plain way: one ``OrderedDict``
    per set in LRU order, no flat index."""

    def __init__(self, assoc, num_sets, block):
        self.assoc, self.num_sets, self.block = assoc, num_sets, block
        self.sets = {}

    def _bucket(self, addr):
        return self.sets.get((addr // self.block) % self.num_sets)

    def lookup(self, addr, touch):
        bucket = self._bucket(addr)
        entry = None if bucket is None else bucket.get(addr)
        if entry is not None and touch:
            bucket.move_to_end(addr)
        return entry

    def allocate(self, addr, entry, evictable):
        bucket = self.sets.setdefault((addr // self.block) % self.num_sets, OrderedDict())
        if addr in bucket:
            bucket[addr] = entry
            bucket.move_to_end(addr)
            return None
        victim = None
        if len(bucket) >= self.assoc:
            victim = next(((a, e) for a, e in bucket.items() if evictable(a, e)), None)
            if victim is None:
                raise ConfigError("full")
            del bucket[victim[0]]
        bucket[addr] = entry
        return victim

    def deallocate(self, addr):
        bucket = self._bucket(addr)
        return None if bucket is None else bucket.pop(addr, None)

    def items(self):
        return [item for bucket in self.sets.values() for item in bucket.items()]

    def entries_in_set(self, addr):
        bucket = self._bucket(addr)
        return [] if bucket is None else list(bucket.items())


@pytest.mark.parametrize("seed", range(6))
def test_matches_an_ordered_dict_reference_under_random_operations(seed):
    rng = random.Random(seed)
    assoc, sets = 4, 4
    array = tiny(assoc=assoc, sets=sets)
    ref = _ReferenceArray(assoc, sets, array.block_size)
    addrs = [addr_for_set(array, s, tag) for s in range(sets) for tag in range(9)]
    pinned = set(rng.sample(addrs, 6))
    predicates = (
        lambda a, e: True,
        lambda a, e: a not in pinned,
        lambda a, e: not e.endswith("0"),
    )
    for step in range(3000):
        addr = rng.choice(addrs)
        op = rng.randrange(5)
        if op == 0:
            assert array.lookup(addr) == ref.lookup(addr, touch=True)
        elif op == 1:
            assert array.peek(addr) == ref.lookup(addr, touch=False)
        elif op == 2:
            entry = f"e{step}"
            evictable = rng.choice(predicates)
            try:
                expected = ref.allocate(addr, entry, evictable)
            except ConfigError:
                with pytest.raises(ConfigError):
                    array.allocate(addr, entry, evictable)
            else:
                assert array.allocate(addr, entry, evictable) == expected
        elif op == 3:
            assert array.deallocate(addr) == ref.deallocate(addr)
        else:
            assert list(array.entries_in_set(addr)) == ref.entries_in_set(addr)
        assert (addr in array) == (ref.lookup(addr, touch=False) is not None)
        assert len(array) == len(ref.items())
    assert list(array.items()) == ref.items()
