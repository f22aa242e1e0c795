"""Protocol-aware static analysis over the simulator's own source.

The paper's simplicity argument (Section 5) is that TokenCMP's flat
correctness substrate is easy to *check*.  The model checker verifies
down-scaled models; this package guards the full-size controllers against
the bug classes the reproduction cares most about:

* **determinism** — no unordered ``set`` iteration, wall-clock reads, or
  unseeded randomness feeding simulation behaviour (PR 2-4 made
  byte-identical output load-bearing: content-addressed caching, trace
  comparison, perf-stat gating all depend on it);
* **token-discipline** — token-count state changes only through the
  approved ledger helpers (``TokenEntry.absorb``/``take``,
  ``TokenMemController._set``);
* **purity** — simulation packages import no ambient-state stdlib
  modules (os/time/random/threading);
* **protocol-model** — the controllers' guarded-transition graph and the
  checker models' ``transitions()`` graph are extracted from the AST and
  cross-checked (missing transitions, token-delta sign flips, unguarded
  stale-epoch carriers, entry ladders without a default arm, typo'd
  ``MsgType`` members), with a canonical ``repro.protomodel/1``
  artifact;
* **suppressions** — every ``# staticcheck: ignore[...]`` comment still
  suppresses at least one finding (the inventory cannot rot).

Entry points: :func:`repro.staticcheck.runner.run_passes` and the
``python -m repro lint`` CLI.  See ``docs/static-analysis.md``.
"""

from repro.staticcheck.base import PASSES, Pass, explain_rule
from repro.staticcheck.findings import Finding, render_json, render_text
from repro.staticcheck.protomodel import build_model
from repro.staticcheck.runner import run_passes
from repro.staticcheck.source import SourceFile, load_tree

__all__ = [
    "Finding",
    "Pass",
    "PASSES",
    "SourceFile",
    "build_model",
    "explain_rule",
    "load_tree",
    "render_json",
    "render_text",
    "run_passes",
]
