"""DirectoryCMP end-to-end determinism anchors and its kernel-event budget.

The DirectoryCMP cells below are the baseline every Figure 6/7 number is
normalised to, so their outcome is pinned exactly: the fired-event count
and the sha256 of the canonical :meth:`CellResult.to_dict` record, for
both directory variants on ``oltp`` (120 refs/proc) and ``locking``
(which exercises the response-delay hold window), at seed 1.

The budget test is a deterministic work counter for the controllers'
scheduling idiom: every latency hop and delivery is a relayed record or
a ``call_after``; only the L1's hold-window deferral goes through
``call_at`` and keeps its record, and a lock release cancels each one.
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
        40250, "e51717f221437e6be8083039bfc2ca8c36f6678b73d9b417ad88a31619288d57"),
    ("DirectoryCMP", LOCKING): (
        10613, "d6d88da30ce044151e2ad83f7234e7ee38ac688485bebb05a2caa1d0db496767"),
    ("DirectoryCMP-zero", OLTP): (
        39155, "d6b0db8dc6dae0fa3937af0ab638825199819b07fe6045ca64de58f9cce1cdda"),
    ("DirectoryCMP-zero", LOCKING): (
        11002, "b81df37a817495d3aaa383fafd79f7486e620080130a45e1e71ed7916f56b1c6"),
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
    calls = {"call_at": 0, "cancel": 0, "_defer": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Simulator, "call_at")
    counting(Simulator, "cancel")
    counting(DirL1Controller, "_defer")
    result = run_cell(_cell(protocol, LOCKING))
    assert result.raw.machine.sim.events_fired == PINS[(protocol, LOCKING)][0]
    # Each deferral enters call_at once, and on this cell every one is
    # flushed early by a lock release, which cancels its record.
    assert calls == {"call_at": defers, "cancel": defers, "_defer": defers}
