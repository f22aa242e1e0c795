"""DirectoryCMP end-to-end determinism anchors and its kernel-event budget.

The DirectoryCMP cells below are the baseline every Figure 6/7 number is
normalised to, so their outcome is pinned exactly: the fired-event count
and the sha256 of the canonical :meth:`CellResult.to_dict` record, for
both directory variants on ``oltp`` (120 refs/proc) and ``locking``
(which exercises the response-delay hold window), at seed 1.

The budget test is a deterministic work counter for the controllers'
scheduling idiom: every latency hop and delivery rides the kernel's
recycled no-handle path (``call_after``); only the L1's cancellable
hold-window deferral takes an :class:`~repro.sim.kernel.Event` handle.
"""

import hashlib
import json

import pytest

from repro.directory.l1 import DirL1Controller
from repro.exp.runner import run_cell
from repro.exp.spec import Cell
from repro.sim.kernel import Simulator

OLTP = ("oltp", (("refs_per_proc", 120),))
LOCKING = ("locking", ())

#: (protocol, workload) -> (events_fired, sha256 of the to_dict record).
PINS = {
    ("DirectoryCMP", OLTP): (
        40250, "03a2fbc45c2e8fe9cf13679c33ea432aeb24baf8976d2719fc98f8392475c5b0"),
    ("DirectoryCMP", LOCKING): (
        10613, "227445dede1f37f85aef7fe9dd046113d69690a5a1a0b610d2c462edd6fee65a"),
    ("DirectoryCMP-zero", OLTP): (
        39155, "ff65576706dcbed8780edc9bd54eab956e102e93df30027cc25fbd0e798f134b"),
    ("DirectoryCMP-zero", LOCKING): (
        11002, "a7bdeea30928493e0b18d15f14e8e8960797fe2ee275be1c8f400d4f90de8b2c"),
}


def _cell(protocol, workload):
    name, kwargs = workload
    return Cell(protocol=protocol, workload=name, workload_kwargs=kwargs, seed=1)


def _digest(result):
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize(
    "protocol,workload", sorted(PINS), ids=lambda v: v if isinstance(v, str) else v[0]
)
def test_directory_cell_pinned(protocol, workload):
    result = run_cell(_cell(protocol, workload))
    assert (result.raw.machine.sim.events_fired, _digest(result)) \
        == PINS[(protocol, workload)]


@pytest.mark.parametrize("protocol,defers", [
    ("DirectoryCMP", 70),
    ("DirectoryCMP-zero", 78),
])
def test_only_hold_window_deferrals_take_event_handles(monkeypatch, protocol, defers):
    calls = {"schedule": 0, "schedule_at": 0, "_defer": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Simulator, "schedule")
    counting(Simulator, "schedule_at")
    counting(DirL1Controller, "_defer")
    result = run_cell(_cell(protocol, LOCKING))
    assert result.raw.machine.sim.events_fired == PINS[(protocol, LOCKING)][0]
    # schedule_at delegates to schedule, so each deferral enters both once.
    assert calls == {"schedule": defers, "schedule_at": defers, "_defer": defers}
