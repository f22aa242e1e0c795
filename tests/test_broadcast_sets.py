"""Broadcast destination sets keyed by residue, and the probe budgets.

The token controllers cache their fan-out destination tuples by the
block's residue, ``block_index % (num_chips * l2_banks_per_chip)``: it
fixes the home chip and the L2 bank, which are all a set depends on.
These tests rebuild every set per address from ``SystemParams`` and
compare, then pin the work the residue keys, the machine-wide tables
and ``CacheArray.peek`` save on the fig6 smoke cell.
"""

import pytest

from repro.common.params import SystemParams
from repro.core.l1 import TokenL1Controller
from repro.core.l2 import TokenL2Controller
from repro.exp.library import fig6_smoke_cell, mesh_params
from repro.exp.runner import run_cell
from repro.memory.cache import CacheArray
from repro.system import MachineSpec


def _local(p, node, addr):
    return [n for n in p.chip_l1s(node.chip) if n != node] + [p.l2_bank(addr, node.chip)]


def _global(p, node, addr):
    return (_local(p, node, addr)
            + [p.l2_bank(addr, c) for c in p.all_chips() if c != node.chip]
            + [p.home_mem(addr)])


def _flat(p, node, addr):
    return [n for n in p.token_holders(addr) if n != node] + [p.home_mem(addr)]


def _escalation(p, node, addr):
    return [p.l2_bank(addr, c) for c in p.all_chips() if c != node.chip] + [p.home_mem(addr)]


MACHINES = {
    "ptp-4x4": ("TokenCMP-dst1", SystemParams()),
    "mesh-16x2": ("TokenCMP-dst1", mesh_params(16, 2)),
    "ptp-4x4-flat": ("TokenB", SystemParams()),
}


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_cached_destination_sets_equal_the_per_address_sets(name):
    protocol, params = MACHINES[name]
    machine = MachineSpec(params=params, protocol=protocol).build()
    residues = params.num_chips * params.l2_banks_per_chip
    # Three blocks of every residue, the last ones far apart.
    blocks = list(range(2 * residues)) + [(7919 * k + 13) for k in range(residues)]
    addrs = [b * params.block_size for b in blocks]
    l1s = [c for c in machine.controllers.values() if isinstance(c, TokenL1Controller)]
    l2s = [c for c in machine.controllers.values() if isinstance(c, TokenL2Controller)]
    assert l1s and l2s
    flat = machine.cfg.flat_policy
    for addr in addrs:
        for l1 in l1s:
            node = l1.node
            if flat:
                want = _flat(params, node, addr)
                assert list(l1._transient_destinations(addr, False)) == want
                assert list(l1._transient_destinations(addr, True)) == want
            else:
                assert list(l1._transient_destinations(addr, False)) == _local(params, node, addr)
                assert list(l1._transient_destinations(addr, True)) == _global(params, node, addr)
            assert list(l1._persistent_broadcast_set(addr)) == _flat(params, node, addr)
        for l2 in l2s:
            assert list(l2._escalation_destinations(addr)) == _escalation(params, l2.node, addr)
    # One cached tuple per residue and scope, however many blocks asked.
    for l1 in l1s:
        for cache in (l1._dests_local, l1._dests_global, l1._pers_dests):
            assert len(cache) in (0, residues)
    assert all(len(l2._esc_dests) == residues for l2 in l2s)


# ---------------------------------------------------------------------------
# Budgets on the fig6 smoke cell (163,255 events).
# ---------------------------------------------------------------------------
def _counted_run(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    result = run_cell(fig6_smoke_cell())
    assert result.raw.machine.sim.events_fired == 163255
    return calls[0]


def test_chip_l1s_budget(monkeypatch):
    # Destination sets are built once per residue: 444 calls (set-up, the
    # local sets and the machine's holder table), against 1,853 when
    # they were keyed by block and 560 when each L1 built its own
    # holder list.
    assert _counted_run(monkeypatch, SystemParams, "chip_l1s") <= 500


def test_machine_table_budgets(monkeypatch):
    # The holder and home-bank tables are built once per residue per
    # machine, not per controller: 14 ``token_holders`` calls (43 when
    # every L1 built its own) and 293 ``l2_bank`` calls (905).
    assert _counted_run(monkeypatch, SystemParams, "token_holders") <= 16
    monkeypatch.undo()
    assert _counted_run(monkeypatch, SystemParams, "l2_bank") <= 350


def test_cache_lookup_budget(monkeypatch):
    # Only touching accesses call ``lookup`` (9,566); untouched probes go
    # through ``peek``, a bound dict get.  Before, 102,287 of 111,853
    # lookups were untouched probes.
    assert _counted_run(monkeypatch, CacheArray, "lookup") <= 12_000
