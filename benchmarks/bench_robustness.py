"""Robustness bench: the correctness substrate under an adversary.

Not a figure from the paper; it measures the claim behind all of them
(Sections 3 & 7): token counting plus persistent requests keep TokenCMP
safe and live no matter how the interconnect delays, reorders, duplicates,
or drops transient traffic.  The bench sweeps fault rates over the
contention micro-benchmarks with the liveness watchdog and the continuous
token-conservation monitor armed, and reports the slowdown faults cost —
retries and persistent escalations, never correctness.

The grid is the ``robustness`` entry of :mod:`repro.exp.library`, also
runnable as ``python -m repro faults`` (which writes the same bytes to
``benchmarks/results/robustness_battery.txt``); the slow pytest variants
live in ``tests/test_robustness_battery.py`` behind ``-m tier2``.
"""

from __future__ import annotations

import pytest

from bench_common import emit, run_library


def run_experiment():
    return run_library("robustness")[1]


@pytest.mark.benchmark(group="robustness")
def test_robustness_battery(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("robustness_battery", tables)

    # The renderer itself raises on any completion / conservation /
    # bounded-slowdown / watchdog failure; assert the summary shape on top.
    summary = tables[-1]
    runs, completed, _checks, violations, trips, _spurious = summary.rows[0]
    assert runs == completed
    assert violations == "0" and trips == "0"
