"""Robustness experiment tests: the fault sweep completes, asserts, and
reproduces, through both of its entry points (``python -m repro faults``
and the ``robustness`` entry of :mod:`repro.exp.library`).

The full sweep is tier-2 (slow); tier-1 keeps a tiny-scale smoke subset so
the default test run still exercises the sweep end to end.
"""

import os

import pytest

from repro.__main__ import main as cli_main
from repro.exp import Runner
from repro.exp.library import (
    EXPERIMENTS,
    RobustnessFailure,
    render_text,
    robustness_spec,
)

COMMITTED = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                         "results", "robustness_battery.txt")


def _run(**spec_kwargs):
    return Runner(cache=False).run(robustness_spec(**spec_kwargs))


def _faults(out, *flags) -> str:
    assert cli_main(["faults", "--no-cache", "--out", str(out), *flags]) == 0
    return out.read_text()


def test_battery_smoke_tiny(tmp_path, capsys):
    """Tier-1 smoke: two rates, shrunken workloads, via the CLI preset."""
    text = _faults(tmp_path / "battery.txt",
                   "--rates", "0,0.1", "--scale", "0.25", "--seed", "1")
    # One writer: the CLI file holds exactly the library's rendering, and
    # the run header goes to stdout only.
    result = _run(scale=0.25, seed=1, rates=(0.0, 0.1))
    assert text == render_text(EXPERIMENTS["robustness"].render(result))
    assert not text.startswith("Robustness battery")
    assert "Robustness battery" in capsys.readouterr().out
    assert "violations" in text and "watchdog trips" in text
    assert "locking under fault injection" in text
    assert "barrier under fault injection" in text


def test_battery_smoke_is_deterministic(tmp_path):
    flags = ("--rates", "0,0.1", "--scale", "0.25", "--seed", "7")
    a = _faults(tmp_path / "a.txt", *flags)
    b = _faults(tmp_path / "b.txt", *flags)
    assert a == b  # byte-identical report for a fixed seed


def test_renderer_enforces_slowdown_bound_and_zero_trips():
    render = EXPERIMENTS["robustness"].render
    result = _run(scale=0.25, seed=1, rates=(0.0, 0.1))
    render(result)  # the real sweep passes
    slow = result.results[1]  # arb0 locking at 10%
    runtime = slow.runtime_ps
    slow.runtime_ps = 51 * result.results[0].runtime_ps
    with pytest.raises(RobustnessFailure, match="exceeds the 50x bound"):
        render(result)
    slow.runtime_ps = runtime
    slow.counters["watchdog.trips"] = 1
    with pytest.raises(RobustnessFailure, match="watchdog tripped 1 times"):
        render(result)


@pytest.mark.tier2
def test_battery_full_sweep_reproduces_byte_identical(tmp_path):
    """At 10% transient drop+dup+reorder all contention micro-benchmarks
    complete on both arb and dst activation with zero conservation
    violations and zero watchdog trips, a fixed seed gives byte-identical
    reports across two runs, and the CLI preset reproduces the committed
    artifact."""
    a = _faults(tmp_path / "a.txt", "--seed", "1")
    b = _faults(tmp_path / "b.txt", "--seed", "1")
    assert a == b
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    with open(COMMITTED, "rb") as fh:
        assert (tmp_path / "a.txt").read_bytes() == fh.read()


@pytest.mark.tier2
def test_battery_summary_counts_runs():
    tables = EXPERIMENTS["robustness"].render(
        _run(rates=(0.0, 0.20), scale=0.5, seed=2))
    summary = tables[-1]
    runs, completed, checks, violations, trips, _spurious = summary.rows[0]
    assert runs == completed
    assert int(runs) == 2 * 3 * 2  # workloads x protocols x rates
    assert violations == "0" and trips == "0"
    assert int(checks) >= int(runs)  # at least the quiescent re-check each
