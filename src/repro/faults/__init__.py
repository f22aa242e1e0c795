"""Fault injection and liveness checking for the correctness substrate.

The paper argues (Sections 3 & 7) that token counting plus persistent
requests keep TokenCMP safe and live no matter how the interconnect
delays, reorders, or drops transient traffic.  This package makes that
claim testable:

* :mod:`repro.faults.injector` — :class:`FaultyNetwork`, an adversarial
  decorator over the interconnect with seeded, per-message-class fault
  policies;
* :mod:`repro.faults.watchdog` — :class:`LivenessWatchdog` (starvation /
  quiescence detection with structured diagnostics) and
  :class:`InvariantMonitor` (continuous token-conservation checking);
* the fault-rate sweep that arms them is the ``robustness`` experiment
  of :mod:`repro.exp.library`, run by ``python -m repro faults`` and
  ``benchmarks/bench_robustness.py``;
* :mod:`repro.faults.crash` — :class:`CrashInjector`, a seeded kernel
  fault that wipes an L1/L2's token soft-state mid-run (recovered by the
  token-recreation tier, see :mod:`repro.recovery`).
"""

from repro.faults.crash import CrashInjector, CrashSpec
from repro.faults.injector import ClassPolicy, FaultConfig, FaultyNetwork
from repro.faults.watchdog import (
    InvariantMonitor,
    LivenessDiagnostics,
    LivenessWatchdog,
    collect_diagnostics,
)

__all__ = [
    "ClassPolicy",
    "CrashInjector",
    "CrashSpec",
    "FaultConfig",
    "FaultyNetwork",
    "InvariantMonitor",
    "LivenessDiagnostics",
    "LivenessWatchdog",
    "collect_diagnostics",
]
