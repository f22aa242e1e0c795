"""Pass interface, shared AST helpers, and the pass registry.

A pass consumes the full list of :class:`SourceFile` objects (so it can
correlate across files — the protocol-model pass cross-references
controller ladders in one package against checker models in another)
and returns findings.  Suppressed findings are filtered centrally in
:meth:`Pass.run`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.findings import Finding
from repro.staticcheck.source import SourceFile


class Pass:
    """One analysis pass.  Subclasses set ``id`` and implement ``check``."""

    id = "pass"
    description = ""
    #: rule ids this pass can emit (documented; used by reporters/tests)
    rules: Sequence[str] = ()
    #: rule id -> prose explanation (``python -m repro lint --explain RULE``)
    rule_docs: Dict[str, str] = {}
    #: rule id -> an example finding line, for the same report
    rule_examples: Dict[str, str] = {}

    def check(self, files: List[SourceFile]) -> List[Finding]:
        raise NotImplementedError

    def run(
        self,
        files: List[SourceFile],
        used: Optional[Set[Tuple[str, int]]] = None,
    ) -> List[Finding]:
        """Run ``check`` and drop inline-suppressed findings.

        Each dropped finding credits the ``(path, comment line)`` that
        consumed it into ``used`` — the ``unused-suppression`` pass then
        flags every suppression comment that earned no credit.
        """
        by_path: Dict[str, SourceFile] = {f.path: f for f in files}
        out = []
        for finding in self.check(files):
            src = by_path.get(finding.path)
            if src is not None:
                site = src.suppression_site(finding.line, finding.rule)
                if site is not None:
                    if used is not None:
                        used.add((src.path, site))
                    continue
            out.append(finding)
        return sorted(out)

    def finding(
        self, src: SourceFile, node: ast.AST, rule: str, message: str,
        severity: str = "error",
    ) -> Finding:
        line = getattr(node, "lineno", 0)
        return Finding(
            path=src.path, line=line, rule=rule, severity=severity,
            message=message, snippet=src.line_at(line),
        )


#: The simulation packages: behaviour here is simulation-visible, so they
#: must stay deterministic and free of ambient process state.
SIM_SCOPE = (
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


def module_in(src: SourceFile, packages: Sequence[str]) -> bool:
    """True when ``src`` belongs to one of the dotted ``packages``."""
    return any(
        src.module == pkg or src.module.startswith(pkg + ".") for pkg in packages
    )


def attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute/name chain (``self.params.home_mem``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Trailing name of the called function (``home_mem`` for any chain)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def make_registry():
    """Instantiate the standard pass list (import here to avoid cycles)."""
    from repro.staticcheck.determinism import DeterminismPass
    from repro.staticcheck.protomodel import ProtocolModelPass
    from repro.staticcheck.purity import PurityPass
    from repro.staticcheck.suppressions import UnusedSuppressionPass
    from repro.staticcheck.tokens import TokenDisciplinePass

    return [
        ProtocolModelPass(),
        DeterminismPass(),
        TokenDisciplinePass(),
        PurityPass(),
        UnusedSuppressionPass(),
    ]


#: The standard passes, in report order.
PASSES = make_registry()


def explain_rule(rule: str) -> Optional[str]:
    """The ``--explain RULE`` report: doc plus example, or None if unknown."""
    for p in PASSES:
        if rule not in p.rules:
            continue
        doc = p.rule_docs.get(rule, p.description)
        lines = [f"{rule} (pass: {p.id})", "", doc]
        example = p.rule_examples.get(rule)
        if example:
            lines += ["", "Example finding:", f"  {example}"]
        return "\n".join(lines) + "\n"
    return None
