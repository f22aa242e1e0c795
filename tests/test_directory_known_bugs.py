"""The two live DirectoryCMP bugs, as executable reproducers.

Each is an open item of ROADMAP.md (the recall-eviction race and the
DirectoryCMP-zero busy-line deadlock), marked ``xfail(strict=True)``
with the exception it raises today: a fix makes its test pass, which
fails the suite until the fix removes the mark.  Both cells run in
milliseconds.
"""

import dataclasses

import pytest

from repro.common.errors import DeadlockError
from repro.common.params import SystemParams
from repro.exp.library import GRID_MAX_EVENTS
from repro.exp.runner import run_cell
from repro.exp.spec import Cell

#: Caches small enough that L2 recalls are common.
RECALL_PARAMS = SystemParams(
    num_chips=1, procs_per_chip=2, l2_banks_per_chip=1, l2_bank_size=4096,
    l2_assoc=1, l1_size=1024, l1_assoc=1)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="recall-eviction race: a recall crosses the owner "
                          "L1's own writeback, which reaches a deallocated "
                          "line")
def test_recall_crossing_a_writeback_completes():
    # Fails today with ``l2[0.0]: WB request for unknown line
    # DIR_WB_REQ l1d[0.0]->l2[0.0] @0x10002dc0``.
    result = run_cell(Cell(protocol="DirectoryCMP", workload="oltp", seed=24,
                           workload_kwargs={"refs_per_proc": 31},
                           params=RECALL_PARAMS))
    assert result.runtime_ps > 0


def _fig2_zero_locking(l2_latency_ns):
    # Figure 2's DirectoryCMP-zero cell at 4 locks, seed 2, 4x4 machine.
    return run_cell(Cell(
        protocol="DirectoryCMP-zero", workload="locking", seed=2,
        workload_kwargs={"num_locks": 4, "acquires_per_proc": 12},
        params=dataclasses.replace(SystemParams(), l2_latency_ns=l2_latency_ns),
        max_events=GRID_MAX_EVENTS))


@pytest.mark.xfail(strict=True, raises=DeadlockError,
                   reason="busy-line deadlock: busy chip L2s and a busy "
                          "home line wait on each other at quiescence")
def test_zero_directory_locking_completes_at_8ns_l2():
    assert _fig2_zero_locking(8.0).runtime_ps > 0


def test_zero_directory_locking_completes_at_7ns_l2():
    # The control: the committed latency completes.
    assert _fig2_zero_locking(7.0).runtime_ps > 0
