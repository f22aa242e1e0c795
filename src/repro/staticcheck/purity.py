"""Simulation-purity pass (rule ``purity-import``).

The simulation packages must be closed over (seed, config) — no ambient
process state.  Importing ``os``/``time``/``random``/``threading`` (and
friends) into them is how ambient state leaks in: an env-var default, a
wall-clock timestamp, the global RNG, a background thread racing the
event loop.  The determinism pass catches specific *uses*; this pass
draws the coarser line at the import, which is also the cheapest place
to review an exception.  There is none: no module in ``src/repro``
suppresses this rule, and ``tests/test_staticcheck.py`` keeps it so.
"""

from __future__ import annotations

import ast
from typing import List

from repro.staticcheck.base import Pass, module_in
from repro.staticcheck.findings import Finding
from repro.staticcheck.source import SourceFile

#: Packages that must stay pure.
SCOPE = (
    "repro.sim",
    "repro.core",
    "repro.directory",
    "repro.interconnect",
    "repro.snooping",
    "repro.perfect",
    "repro.memory",
    "repro.cpu",
    "repro.system",
)

#: Stdlib modules that carry ambient process state.
FORBIDDEN = {
    "os",
    "time",
    "random",
    "datetime",
    "threading",
    "multiprocessing",
    "socket",
    "subprocess",
}


class PurityPass(Pass):
    id = "purity"
    description = "simulation packages import no ambient-state stdlib modules"
    rules = ("purity-import",)
    rule_docs = {
        "purity-import": (
            "A simulation package imports an ambient-state stdlib module "
            "(os, time, random, datetime, threading, ...).  Simulation "
            "must be a function of (seed, config); ambient process state "
            "is how nondeterminism sneaks in.  The sanctioned exceptions "
            "carry inline suppressions."
        ),
    }
    rule_examples = {
        "purity-import": (
            "repro/core/l1.py:12: error[purity-import] simulation "
            "package imports 'random' (ambient process state)"
        ),
    }

    def check(self, files: List[SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        for src in files:
            if src.module != "<fixture>" and not module_in(src, SCOPE):
                continue
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        top = alias.name.split(".")[0]
                        if top in FORBIDDEN:
                            findings.append(
                                self.finding(
                                    src, node, "purity-import",
                                    f"import of ambient-state module "
                                    f"'{alias.name}' in simulation package "
                                    f"{src.module}",
                                )
                            )
                elif isinstance(node, ast.ImportFrom):
                    top = (node.module or "").split(".")[0]
                    if node.level == 0 and top in FORBIDDEN:
                        names = ", ".join(a.name for a in node.names)
                        findings.append(
                            self.finding(
                                src, node, "purity-import",
                                f"from-import of ambient-state module "
                                f"'{node.module}' ({names}) in simulation "
                                f"package {src.module}",
                            )
                        )
        return findings
