"""Protocol transition-graph extraction and controller<->model conformance.

Every protocol here exists twice: executable controllers
(``repro.core``/``repro.directory``) and hand-written checker models
(``repro.verification``).  This pass extracts a guarded-transition
summary from *both* sides of that divide and cross-checks them:

* **controller side** — per controller role (``ROLE_BY_CLASS``), every
  ``if/elif MsgType.X`` arm of the entry ladder (``_process``/
  ``_receive``) becomes one guarded transition: the guard predicate, the
  handler it delegates to, its token-delta effect (absorb/take/``±
  tokens`` arithmetic), the state fields it writes, and whether a
  stale-epoch guard protects it;
* **model side** — the ``transitions()`` methods of the checker models
  append ``(label, state)`` pairs; labels are normalized into *families*
  (``f"send{i}->{dst}"`` -> ``send*->*``) and classified with the same
  token-delta rules, scanning only the straight-line statements that
  feed each ``append``.

The two graphs meet in ``CORRESPONDENCE``, a reviewed table mapping each
message type to the controller roles that handle it and the model
transition families that represent it.  Drift on either side surfaces as
a finding:

* ``model-missing-transition`` (error) — a controller handles a message
  type but a required model family is gone;
* ``controller-missing-transition`` (error) — a model family exists but
  the corresponding controller arm does not (also: a model family the
  table cannot map at all — the table must stay complete);
* ``token-delta-mismatch`` (error) — controller and model disagree on
  the sign of the token-count change for a message type;
* ``recreation-epoch-unguarded`` (error) — a token controller handles a
  stale-epoch carrier without comparing message epoch to block epoch.

The pass also owns two ladder-hygiene rules:

* ``dispatch-no-default`` (warning) — a role's entry ladder has no
  default arm, so an unexpected type falls through silently;
* ``dispatch-unknown-mtype`` (error) — a ``MsgType.X`` reference names
  no member: a typo'd arm can never match.

The merged extraction is also serialized as a canonical, byte-
deterministic ``repro.protomodel/1`` JSON artifact
(``python -m repro lint --pass protocol-model --model-out PATH``) whose
per-role transition counts are pinned in tests and gated byte-wise
against ``protomodel-baseline.json`` by ``python -m repro golden``.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.staticcheck.base import Pass, attr_chain, call_name
from repro.staticcheck.findings import Finding
from repro.staticcheck.source import SourceFile

PROTOMODEL_SCHEMA = "repro.protomodel/1"

#: MsgType name prefix -> protocol family.
FAMILY_BY_PREFIX = {"TOK": "token", "PERSIST": "token", "DIR": "directory"}

#: Concrete controller class -> (family, role).  Fixture copies used in
#: tests resolve through the same table by class name.
ROLE_BY_CLASS: Dict[str, Tuple[str, str]] = {
    "TokenL1Controller": ("token", "l1"),
    "TokenL2Controller": ("token", "l2"),
    "TokenMemController": ("token", "mem"),
    "Arbiter": ("token", "arb"),
    "DirL1Controller": ("directory", "l1"),
    "IntraDirL2Controller": ("directory", "l2"),
    "InterDirController": ("directory", "mem"),
}

#: Checker-model class -> display name (the model's own ``name`` field).
MODEL_CLASSES: Dict[str, str] = {
    "TokenSafetyModel": "TokenCMP-safety",
    "TokenDstModel": "TokenCMP-dst",
    "TokenArbModel": "TokenCMP-arb",
    "TokenRecreateModel": "TokenCMP-recreate",
    "DirFlatModel": "DirectoryCMP-flat",
}

_TOKEN_MODELS = (
    "TokenCMP-safety", "TokenCMP-dst", "TokenCMP-arb", "TokenCMP-recreate",
)

#: (mtype, controller roles, model names, model families, check token delta).
#: Semantics: if any listed role handles the mtype, every listed family
#: must appear in at least one listed model (else model-missing); if any
#: listed model carries a listed family, every listed role must handle
#: the mtype (else controller-missing); with check_delta, the
#: controller's token-delta sign set must intersect each listed model's
#: (both sides non-empty).
CORRESPONDENCE: Sequence[Tuple[str, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...], bool]] = (
    ("TOK_GETS", ("l1", "l2", "mem"), _TOKEN_MODELS, ("send*->*", "mem->*"), True),
    ("TOK_GETX", ("l1", "l2", "mem"), _TOKEN_MODELS, ("send*->*", "mem->*"), True),
    ("TOK_DATA", ("l1", "l2", "mem"), _TOKEN_MODELS, ("deliver*", "deliver_mem"), True),
    ("TOK_ACK", ("l1", "l2", "mem"), _TOKEN_MODELS, ("deliver*", "deliver_mem"), True),
    ("TOK_WB", ("l1", "l2", "mem"), _TOKEN_MODELS, ("deliver*", "deliver_mem"), True),
    ("TOK_WB_DATA", ("l1", "l2", "mem"), _TOKEN_MODELS, ("deliver*", "deliver_mem"), True),
    # Stale-epoch discard paths exist only in the recreation model.
    ("TOK_DATA", ("l1", "l2", "mem"), ("TokenCMP-recreate",), ("stale*", "stale_mem"), False),
    ("PERSIST_REQ", ("arb",), ("TokenCMP-dst", "TokenCMP-arb"), ("persist*", "arb_enqueue*"), False),
    ("PERSIST_ACTIVATE", ("l1", "l2", "mem"), ("TokenCMP-dst", "TokenCMP-arb"), ("act@*",), False),
    ("PERSIST_DEACTIVATE", ("l1", "l2", "mem"), ("TokenCMP-dst",), ("deact@*",), False),
    ("PERSIST_DEACTIVATE", ("arb",), ("TokenCMP-arb",), ("arb_deactivate*", "clear@*"), False),
    ("TOK_RECREATE_REQ", ("mem",), ("TokenCMP-recreate",), ("recreate",), False),
    ("TOK_RECREATE_EPOCH", ("l1", "l2"), ("TokenCMP-recreate",), ("surrender*", "epoch_dup*"), False),
    ("TOK_RECREATE_ACK", ("mem",), ("TokenCMP-recreate",), ("ack*", "ack_stale", "recreate_done"), False),
    ("TOK_RECREATE_DATA", ("mem",), ("TokenCMP-recreate",), ("ack*",), False),
    ("DIR_GETS", ("l2", "mem"), ("DirectoryCMP-flat",), ("gets*", "dir_*"), False),
    ("DIR_GETX", ("l2", "mem"), ("DirectoryCMP-flat",), ("getx*", "dir_*"), False),
    ("DIR_DATA", ("l1", "l2"), ("DirectoryCMP-flat",), ("deliver_data",), False),
    ("DIR_ACK", ("l1", "l2"), ("DirectoryCMP-flat",), ("deliver_ack",), False),
    ("DIR_INV", ("l1", "l2"), ("DirectoryCMP-flat",), ("deliver_inv",), False),
    ("DIR_FWD_GETS", ("l1", "l2"), ("DirectoryCMP-flat",), ("deliver_*",), False),
    ("DIR_FWD_GETX", ("l1", "l2"), ("DirectoryCMP-flat",), ("deliver_*",), False),
    ("DIR_WB_REQ", ("l2", "mem"), ("DirectoryCMP-flat",), ("dir_*", "evict_dirty*"), False),
    ("DIR_WB_GRANT", ("l1", "l2"), ("DirectoryCMP-flat",), ("deliver_wb_grant",), False),
    ("DIR_WB_DATA", ("l2", "mem"), ("DirectoryCMP-flat",), ("dir_wb_data",), False),
    ("DIR_UNBLOCK", ("l2", "mem"), ("DirectoryCMP-flat",), ("dir_unblock",), False),
)

#: Message types handled by controllers but deliberately absent from the
#: flat checker models (hierarchy-internal plumbing) — documented in
#: docs/static-analysis.md, exempt from cross-checking.
UNMAPPED_MTYPES: Tuple[str, ...] = ("DIR_RECALL", "DIR_WB_TOKEN")

#: Model transition families with no message arm: processor-initiated
#: (want/read/write/evict_clean), fault-injected (lose/crash), or
#: model-internal bookkeeping (fwd redirects, arbiter grant scheduling).
MODEL_ONLY_FAMILIES: Tuple[str, ...] = (
    "want_*", "read*", "write*", "read_hit*", "write_hit*",
    "lose", "lose_stale", "crash*",
    "fwd*->*", "fwdmem->*",
    "arb_cancel*", "arb_activate",
    "defer_*", "evict_clean*",
)

#: Stale-epoch token carriers: handling one without an epoch guard
#: breaks token recreation (a pre-crash message resurrects tokens).
EPOCH_CARRIERS = frozenset({
    "TOK_DATA", "TOK_ACK", "TOK_WB", "TOK_WB_DATA",
    "TOK_RECREATE_EPOCH", "TOK_RECREATE_ACK", "TOK_RECREATE_DATA",
})

_PLUS_CALLS = frozenset({"absorb", "_absorb"})
_MINUS_CALLS = frozenset({"take", "_take", "_send_tokens", "_respond"})
_SIMPLE_STMTS = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr)
_EPOCH_RE = re.compile(r"\bep\b|epoch")
_CALL_DEPTH = 3


# ---------------------------------------------------------------------------
# Ladder readers: which MsgType members an ``if``-arm's test matches.
# ---------------------------------------------------------------------------
#: A module-level MsgType alias: one member name (``NAME = MsgType.X``)
#: or a set of them (``NAME = (MsgType.A, MsgType.B, ...)``).
MtypeConstants = Dict[str, Union[str, Set[str]]]


def _member_of(expr: ast.AST, constants: MtypeConstants) -> Optional[str]:
    """The MsgType member ``expr`` denotes: ``MsgType.X`` or a scalar alias."""
    if isinstance(expr, ast.Name):
        value = constants.get(expr.id)
        return value if isinstance(value, str) else None
    chain = attr_chain(expr)
    if chain and chain.startswith("MsgType."):
        return chain.split(".", 1)[1]
    return None


def _module_mtype_constants(src: SourceFile) -> MtypeConstants:
    """Module-level MsgType aliases, in definition order.

    ``NAME = MsgType.X`` (or another scalar alias) maps to ``"X"``;
    ``NAME = (MsgType.A, ALIAS, ...)`` maps to the set of member names.
    A ladder arm may test against either, like the members themselves.
    """
    out: MtypeConstants = {}
    for stmt in src.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            tgt = stmt.targets[0]
            if not isinstance(tgt, ast.Name):
                continue
            if isinstance(stmt.value, (ast.Tuple, ast.List, ast.Set)):
                members = {_member_of(elt, out) for elt in stmt.value.elts}
                value = members if members and None not in members else None
            else:
                value = _member_of(stmt.value, out)
            if value is None:
                out.pop(tgt.id, None)  # rebound to something else
            else:
                out[tgt.id] = value
    return out


def _mtype_subjects(fn: ast.AST) -> Set[str]:
    """Unparsed expressions that denote the dispatched-on message type."""
    subjects = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr == "mtype":
            chain = attr_chain(node)
            if chain:
                subjects.add(chain)
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if (
                isinstance(tgt, ast.Name)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "mtype"
            ):
                subjects.add(tgt.id)
    return subjects


def _test_mtypes(
    test: ast.AST, subjects: Set[str], constants: MtypeConstants
) -> Set[str]:
    """MsgType members a ladder arm's test matches (empty: not an arm)."""
    out: Set[str] = set()
    if isinstance(test, ast.BoolOp):
        for value in test.values:
            out |= _test_mtypes(value, subjects, constants)
        return out
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return out
    if isinstance(test.left, ast.Name):
        left_name = test.left.id
    else:
        left_name = attr_chain(test.left)
    if left_name not in subjects:
        return out
    op = test.ops[0]
    comp = test.comparators[0]
    if isinstance(op, (ast.Is, ast.Eq)):
        member = _member_of(comp, constants)
        if member is not None:
            out.add(member)
    elif isinstance(op, ast.In):
        if isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
            for elt in comp.elts:
                member = _member_of(elt, constants)
                if member is not None:
                    out.add(member)
        elif isinstance(comp, ast.Name):
            value = constants.get(comp.id)
            if isinstance(value, set):
                out |= value
    return out


# ---------------------------------------------------------------------------
# Class/method resolution over the merged realm.  Fixture copies (module
# "<fixture>") override real classes of the same name so seeded-drift
# tests exercise the exact production cross-check.
# ---------------------------------------------------------------------------
class _Realm:
    def __init__(self, files: List[SourceFile]):
        self.files = files
        self.classes: Dict[str, List[Tuple[ast.ClassDef, SourceFile]]] = {}
        for src in files:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, []).append((node, src))

    def lookup(
        self, name: str, prefer_path: Optional[str] = None
    ) -> Optional[Tuple[ast.ClassDef, SourceFile]]:
        cands = self.classes.get(name, [])
        if not cands:
            return None
        if prefer_path is not None:
            same = [c for c in cands if c[1].path == prefer_path]
            if same:
                return same[0]
        fixture = [c for c in cands if c[1].module == "<fixture>"]
        if fixture:
            return fixture[-1]
        return cands[0]

    def resolve_method(
        self, clsname: str, method: str, prefer_path: Optional[str] = None
    ) -> Optional[Tuple[ast.FunctionDef, SourceFile, ast.ClassDef]]:
        """Nearest-first lookup of ``method`` through the base chain."""
        seen: Set[str] = set()
        queue: List[Tuple[str, Optional[str]]] = [(clsname, prefer_path)]
        while queue:
            name, pref = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            found = self.lookup(name, pref)
            if found is None:
                continue
            node, src = found
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == method:
                    return stmt, src, node
            for base in node.bases:
                bname = attr_chain(base)
                if bname:
                    queue.append((bname.split(".")[-1], src.path))
        return None


# ---------------------------------------------------------------------------
# Shared classifiers.
# ---------------------------------------------------------------------------
def _delta_of(nodes: Sequence[ast.AST]) -> str:
    """Token-delta sign set of a statement scope: "", "+", "-", or "+-"."""
    plus = minus = False
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in _PLUS_CALLS:
                    plus = True
                elif name in _MINUS_CALLS:
                    minus = True
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                if "tok" in ast.unparse(node).lower():
                    if isinstance(node.op, ast.Add):
                        plus = True
                    else:
                        minus = True
    return ("+" if plus else "") + ("-" if minus else "")


def _writes_of(nodes: Sequence[ast.AST]) -> List[str]:
    """Names of ``self.X`` attributes stored to anywhere in the scope."""
    out: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for tgt in targets:
                if isinstance(tgt, ast.Subscript):
                    tgt = tgt.value
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    out.add(tgt.attr)
    return sorted(out)


def _has_epoch_compare(nodes: Sequence[ast.AST]) -> bool:
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Compare):
                if _EPOCH_RE.search(ast.unparse(node)):
                    return True
    return False


def _self_call_names(root: ast.AST) -> List[str]:
    """Names of ``self._x(...)`` calls in source order (deduplicated)."""
    out: List[str] = []
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            and node.func.attr not in out
        ):
            out.append(node.func.attr)
    return out


# ---------------------------------------------------------------------------
# Controller-side extraction.
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Arm:
    mtypes: List[str]
    line: int
    guard: str
    handler: Optional[str]
    handler_line: int  # def line of the resolved handler (or the arm line)
    handler_path: str
    handler_resolved: bool
    delta: str
    writes: List[str]
    epoch_guarded: Optional[bool]  # None: handler unresolved, check skipped


@dataclasses.dataclass
class ControllerInfo:
    key: str  # "family/role"
    class_name: str
    path: str
    entry: str
    ladder_path: str
    ladder_line: int
    owner: str  # class defining the entry method (may be a base class)
    has_default: bool  # the entry ladder ends in a bare ``else``
    arms: List[Arm]


#: One if/elif chain: its head, its mtype-matching arms, and whether it
#: ends in a non-empty ``else``.
Chain = Tuple[ast.If, List[Tuple[ast.If, Set[str]]], bool]


def _arm_chains(
    fn: ast.FunctionDef, subjects: Set[str], constants: MtypeConstants
) -> List[Chain]:
    """The if/elif chains of ``fn`` that have mtype-matching arms."""
    chains: List[Chain] = []
    seen: Set[int] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.If) or id(node) in seen:
            continue
        arms: List[Tuple[ast.If, Set[str]]] = []
        cursor: Optional[ast.If] = node
        has_default = False
        while cursor is not None:
            seen.add(id(cursor))
            matched = _test_mtypes(cursor.test, subjects, constants)
            if matched:
                arms.append((cursor, matched))
            orelse = cursor.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                cursor = orelse[0]
            else:
                has_default = bool(orelse)
                cursor = None
        if arms:
            chains.append((node, arms, has_default))
    return chains


class _AliasExpander(ast.NodeTransformer):
    """Spell scalar MsgType aliases as ``MsgType.X`` (guard rendering)."""

    def __init__(self, constants: MtypeConstants):
        self.constants = constants

    def visit_Name(self, node: ast.Name) -> ast.AST:
        member = self.constants.get(node.id)
        if isinstance(member, str):
            return ast.Attribute(
                value=ast.Name(id="MsgType", ctx=ast.Load()),
                attr=member, ctx=ast.Load(),
            )
        return node


def _guard_text(test: ast.AST, constants: MtypeConstants) -> str:
    """An arm's guard as source, with scalar aliases spelled out, so an
    alias on the hot path reads the same as the member it stands for."""
    return ast.unparse(_AliasExpander(constants).visit(copy.deepcopy(test)))


def _build_arm(
    ifnode: ast.If,
    matched: Set[str],
    esrc: SourceFile,
    clsname: str,
    realm: _Realm,
    constants: MtypeConstants,
) -> Arm:
    handler: Optional[str] = None
    for name in _self_call_names(ast.Module(body=list(ifnode.body), type_ignores=[])):
        handler = name
        break
    handler_fn = handler_src = None
    if handler is not None:
        resolved = realm.resolve_method(clsname, handler)
        if resolved is not None:
            handler_fn, handler_src, _ = resolved
    scope: List[ast.AST] = [ast.Module(body=list(ifnode.body), type_ignores=[])]
    if handler_fn is not None:
        scope.append(ast.Module(body=list(handler_fn.body), type_ignores=[]))
    epoch_guarded: Optional[bool]
    if handler is not None and handler_fn is None:
        epoch_guarded = None  # can't see the handler: no verdict
    else:
        epoch_guarded = _has_epoch_compare([ifnode.test] + scope)
    return Arm(
        mtypes=sorted(matched),
        line=ifnode.lineno,
        guard=_guard_text(ifnode.test, constants),
        handler=handler,
        handler_line=handler_fn.lineno if handler_fn is not None else ifnode.lineno,
        handler_path=handler_src.path if handler_src is not None else esrc.path,
        handler_resolved=handler is None or handler_fn is not None,
        delta=_delta_of(scope),
        writes=_writes_of(scope),
        epoch_guarded=epoch_guarded,
    )


def extract_controllers(files: List[SourceFile]) -> Dict[str, ControllerInfo]:
    realm = _Realm(files)
    out: Dict[str, ControllerInfo] = {}
    for clsname in sorted(ROLE_BY_CLASS):
        family, role = ROLE_BY_CLASS[clsname]
        found = realm.lookup(clsname)
        if found is None:
            continue
        node, src = found
        entry = None
        for mname in ("_process", "_receive"):
            resolved = realm.resolve_method(clsname, mname, src.path)
            if resolved is not None:
                entry = (mname, resolved)
                break
        if entry is None:
            continue
        mname, (fn, esrc, owner) = entry
        subjects = _mtype_subjects(fn)
        constants = _module_mtype_constants(esrc)
        chains = _arm_chains(fn, subjects, constants)
        if not chains:
            continue
        arms: List[Arm] = []
        for _head, chain_arms, _default in chains:
            for ifnode, matched in chain_arms:
                arms.append(_build_arm(ifnode, matched, esrc, clsname, realm,
                                       constants))
        arms.sort(key=lambda a: (a.line, a.mtypes))
        head, _arms, has_default = min(chains, key=lambda c: c[0].lineno)
        out[f"{family}/{role}"] = ControllerInfo(
            key=f"{family}/{role}", class_name=clsname, path=src.path,
            entry=mname, ladder_path=esrc.path, ladder_line=head.lineno,
            owner=owner.name, has_default=has_default, arms=arms,
        )
    return out


# ---------------------------------------------------------------------------
# Model-side extraction.
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class FamilyInfo:
    count: int
    line: int  # first append site
    path: str
    delta: str
    epoch_guarded: bool


@dataclasses.dataclass
class ModelInfo:
    name: str
    class_name: str
    path: str
    line: int  # transitions() def line
    families: Dict[str, FamilyInfo]
    total: int


def _label_family(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        parts = []
        for value in expr.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("*")
        return re.sub(r"\*+", "*", "".join(parts))
    return None


def _blocks_of(stmt: ast.stmt) -> List[List[ast.stmt]]:
    out = []
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if block:
            out.append(block)
    for handler in getattr(stmt, "handlers", None) or []:
        out.append(handler.body)
    return out


def _stmt_path(
    block: Sequence[ast.stmt], target: ast.AST,
    path: List[Tuple[Sequence[ast.stmt], int, ast.stmt]],
) -> bool:
    """Chain of (block, index, stmt) from ``block`` down to ``target``."""
    for idx, stmt in enumerate(block):
        if any(node is target for node in ast.walk(stmt)):
            path.append((block, idx, stmt))
            for sub in _blocks_of(stmt):
                if _stmt_path(sub, target, path):
                    break
            return True
    return False


def _transition_functions(
    clsname: str, realm: _Realm
) -> List[Tuple[ast.FunctionDef, SourceFile]]:
    """``transitions()`` plus the self-methods it calls, depth-limited."""
    root = realm.resolve_method(clsname, "transitions")
    if root is None:
        return []
    out: List[Tuple[ast.FunctionDef, SourceFile]] = []
    seen: Set[Tuple[str, int]] = set()
    frontier: List[Tuple[ast.FunctionDef, SourceFile]] = [(root[0], root[1])]
    for _ in range(_CALL_DEPTH + 1):
        nxt: List[Tuple[ast.FunctionDef, SourceFile]] = []
        for fn, src in frontier:
            key = (src.path, fn.lineno)
            if key in seen:
                continue
            seen.add(key)
            out.append((fn, src))
            for name in _self_call_names(fn):
                resolved = realm.resolve_method(clsname, name, src.path)
                if resolved is not None:
                    nxt.append((resolved[0], resolved[1]))
        frontier = nxt
        if not frontier:
            break
    return out


def extract_models(files: List[SourceFile]) -> Dict[str, ModelInfo]:
    realm = _Realm(files)
    out: Dict[str, ModelInfo] = {}
    for clsname in sorted(MODEL_CLASSES):
        name = MODEL_CLASSES[clsname]
        root = realm.resolve_method(clsname, "transitions")
        if root is None:
            continue
        root_fn, root_src, _ = root
        families: Dict[str, FamilyInfo] = {}
        total = 0
        for fn, src in _transition_functions(clsname, realm):
            for call in ast.walk(fn):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "append"
                    and call.args
                    and isinstance(call.args[0], ast.Tuple)
                    and call.args[0].elts
                ):
                    continue
                fam = _label_family(call.args[0].elts[0])
                if fam is None:
                    continue
                path: List[Tuple[Sequence[ast.stmt], int, ast.stmt]] = []
                _stmt_path(fn.body, call, path)
                # Delta scope: the append statement itself plus the
                # *simple* statements ahead of it in each enclosing
                # block.  Compound siblings (other transition sections'
                # loops/branches) are deliberately excluded.
                delta_nodes: List[ast.AST] = []
                guards: List[str] = []
                for block, idx, stmt in path:
                    delta_nodes.extend(
                        s for s in block[:idx] if isinstance(s, _SIMPLE_STMTS)
                    )
                    if isinstance(stmt, ast.If) and stmt is not path[-1][2]:
                        guards.append(ast.unparse(stmt.test))
                if path:
                    delta_nodes.append(path[-1][2])
                delta = _delta_of(delta_nodes)
                epoch = any(_EPOCH_RE.search(g) for g in guards)
                total += 1
                info = families.get(fam)
                if info is None:
                    families[fam] = FamilyInfo(
                        count=1, line=call.lineno, path=src.path,
                        delta=delta, epoch_guarded=epoch,
                    )
                else:
                    info.count += 1
                    info.line = min(info.line, call.lineno)
                    info.delta = "".join(sorted(set(info.delta) | set(delta)))
                    info.epoch_guarded = info.epoch_guarded or epoch
        if total:
            out[name] = ModelInfo(
                name=name, class_name=clsname, path=root_src.path,
                line=root_fn.lineno, families=families, total=total,
            )
    return out


# ---------------------------------------------------------------------------
# The artifact.
# ---------------------------------------------------------------------------
def build_model(files: List[SourceFile]) -> Dict[str, object]:
    """The ``repro.protomodel/1`` document, from real files only."""
    real = [f for f in files if f.module != "<fixture>"]
    controllers = extract_controllers(real)
    models = extract_models(real)
    cdoc: Dict[str, object] = {}
    for key in sorted(controllers):
        info = controllers[key]
        cdoc[key] = {
            "class": info.class_name,
            "path": info.path,
            "entry": info.entry,
            "ladder_path": info.ladder_path,
            "ladder_line": info.ladder_line,
            "transitions": len(info.arms),
            "arms": [
                {
                    "mtypes": arm.mtypes,
                    "line": arm.line,
                    "guard": arm.guard,
                    "handler": arm.handler,
                    "delta": arm.delta,
                    "writes": arm.writes,
                    "epoch_guarded": arm.epoch_guarded,
                }
                for arm in info.arms
            ],
        }
    mdoc: Dict[str, object] = {}
    for name in sorted(models):
        info = models[name]
        mdoc[name] = {
            "class": info.class_name,
            "path": info.path,
            "line": info.line,
            "transitions": info.total,
            "families": {
                fam: {
                    "count": f.count,
                    "line": f.line,
                    "delta": f.delta,
                    "epoch_guarded": f.epoch_guarded,
                }
                for fam, f in sorted(models[name].families.items())
            },
        }
    return {
        "schema": PROTOMODEL_SCHEMA,
        "controllers": cdoc,
        "models": mdoc,
        "counts": {
            "controllers": {k: len(v.arms) for k, v in sorted(controllers.items())},
            "models": {k: v.total for k, v in sorted(models.items())},
        },
    }


# ---------------------------------------------------------------------------
# The pass.
# ---------------------------------------------------------------------------
class ProtocolModelPass(Pass):
    id = "protocol-model"
    description = "controller transition arms and checker-model transitions agree"
    rules = (
        "model-missing-transition",
        "controller-missing-transition",
        "token-delta-mismatch",
        "recreation-epoch-unguarded",
        "dispatch-no-default",
        "dispatch-unknown-mtype",
    )
    rule_docs = {
        "model-missing-transition": (
            "A controller handles a message type whose required checker-"
            "model transition family (per the protocol-model "
            "CORRESPONDENCE table) is absent: the model checker would "
            "silently stop covering that protocol path."
        ),
        "controller-missing-transition": (
            "A checker model defines a transition family whose "
            "corresponding controller arm is missing — or a family the "
            "correspondence table cannot map at all.  Either the "
            "controller lost an arm or the table needs review."
        ),
        "token-delta-mismatch": (
            "Controller and checker model disagree on the sign of the "
            "token-count change for a message type (absorb/take and "
            "'± tokens' arithmetic are classified on both sides).  "
            "Token conservation is the safety substrate; a sign flip in "
            "either artifact is protocol drift."
        ),
        "recreation-epoch-unguarded": (
            "A token controller handles a stale-epoch carrier (token "
            "data/acks or recreation messages) without comparing the "
            "message epoch against the block epoch.  After token "
            "recreation, an unguarded handler resurrects destroyed "
            "tokens from pre-crash messages."
        ),
        "dispatch-no-default": (
            "A controller's entry ladder (_process/_receive) has no "
            "default arm, so an unexpected message type falls through "
            "without a trace.  Add an 'else: raise' (the repo's idiom) "
            "so drift fails loudly."
        ),
        "dispatch-unknown-mtype": (
            "The code references a MsgType member that does not exist.  "
            "A typo'd ladder arm can never match; a typo'd send can "
            "never be constructed.  Usually a rename that missed a site."
        ),
    }
    rule_examples = {
        "model-missing-transition": (
            "repro/verification/token_model.py:1: error[model-missing-"
            "transition] model 'TokenCMP-recreate' lacks transition "
            "family 'stale_mem' required for MsgType.TOK_DATA"
        ),
        "controller-missing-transition": (
            "repro/core/memctrl.py:106: error[controller-missing-"
            "transition] TokenMemController (token mem) has no arm for "
            "MsgType.TOK_RECREATE_REQ though model 'TokenCMP-recreate' "
            "defines family 'recreate'"
        ),
        "token-delta-mismatch": (
            "repro/verification/token_model.py:150: error[token-delta-"
            "mismatch] token delta for MsgType.TOK_DATA: controller "
            "'+' vs model 'TokenCMP-safety' family 'deliver*' '-'"
        ),
        "recreation-epoch-unguarded": (
            "repro/core/base.py:123: error[recreation-epoch-unguarded] "
            "handler '_on_tokens' handles stale-epoch carrier(s) "
            "TOK_ACK, TOK_DATA without an epoch guard"
        ),
        "dispatch-no-default": (
            "repro/core/base.py:112: warning[dispatch-no-default] "
            "TokenCacheController._process: message-type ladder has no "
            "default arm — unexpected types are silently dropped"
        ),
        "dispatch-unknown-mtype": (
            "repro/core/l2.py:88: error[dispatch-unknown-mtype] "
            "MsgType.TOK_GETZ is not a member of MsgType (typo'd arm "
            "can never match)"
        ),
    }

    def check(self, files: List[SourceFile]) -> List[Finding]:
        findings: Set[Finding] = set(self._unknown_mtypes(files))
        controllers = extract_controllers(files)
        self._defaults(controllers, findings)
        models = extract_models(files)
        if controllers and models:
            self._cross_check(controllers, models, findings)
            self._unmapped_families(models, findings)
            self._epoch_guards(controllers, findings)
        return sorted(findings)

    # -- ladder hygiene -------------------------------------------------
    def _unknown_mtypes(self, files: List[SourceFile]) -> List[Finding]:
        found = _Realm(files).lookup("MsgType")
        if found is None:
            return []  # no enum in scope: nothing to check
        members = {
            tgt.id
            for stmt in found[0].body if isinstance(stmt, ast.Assign)
            for tgt in stmt.targets if isinstance(tgt, ast.Name)
        }
        out: List[Finding] = []
        for src in files:
            if src.module.startswith("repro.staticcheck"):
                continue  # this package names members in tables/docs
            for node in ast.walk(src.tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "MsgType"
                    and node.attr.isupper()
                    and node.attr not in members
                ):
                    out.append(self.finding(
                        src, node, "dispatch-unknown-mtype",
                        f"MsgType.{node.attr} is not a member of MsgType "
                        f"(typo'd arm can never match)",
                    ))
        return out

    @staticmethod
    def _defaults(
        controllers: Dict[str, ControllerInfo], findings: Set[Finding]
    ) -> None:
        for c in controllers.values():
            if c.has_default:
                continue
            findings.add(Finding(
                path=c.ladder_path, line=c.ladder_line,
                rule="dispatch-no-default", severity="warning",
                message=(
                    f"{c.owner}.{c.entry}: message-type ladder has no "
                    f"default arm — unexpected types are silently dropped"
                ),
                snippet="",
            ))

    # -- correspondence-table checks ------------------------------------
    def _cross_check(
        self,
        controllers: Dict[str, ControllerInfo],
        models: Dict[str, ModelInfo],
        findings: Set[Finding],
    ) -> None:
        missing_model: Dict[Tuple[str, str], Set[str]] = {}
        missing_ctrl: Dict[Tuple[str, str], Set[str]] = {}
        for mtype, roles, model_names, fams, check_delta in CORRESPONDENCE:
            family = FAMILY_BY_PREFIX.get(mtype.split("_")[0])
            if family is None:
                continue
            present = [
                controllers[f"{family}/{r}"]
                for r in roles
                if f"{family}/{r}" in controllers
            ]
            handled = [
                c for c in present
                if any(mtype in arm.mtypes for arm in c.arms)
            ]
            live_models = [models[n] for n in model_names if n in models]
            fam_owner: Dict[str, ModelInfo] = {}
            for fam in fams:
                for m in live_models:
                    if fam in m.families:
                        fam_owner[fam] = m
                        break
            if handled and live_models:
                for fam in fams:
                    if fam not in fam_owner:
                        anchor = live_models[0]
                        missing_model.setdefault(
                            (anchor.name, fam), set()
                        ).add(mtype)
            if fam_owner:
                witness = sorted(fam_owner)[0]
                for c in present:
                    if c not in handled:
                        missing_ctrl.setdefault(
                            (c.key, mtype), set()
                        ).add(f"{fam_owner[witness].name}:{witness}")
            if check_delta and handled:
                self._delta_check(mtype, handled, live_models, fams, findings)
        by_name = {m.name: m for m in models.values()}
        for (name, fam), mtypes in sorted(missing_model.items()):
            m = by_name[name]
            findings.add(Finding(
                path=m.path, line=m.line,
                rule="model-missing-transition", severity="error",
                message=(
                    f"model '{name}' lacks transition family '{fam}' "
                    f"required for "
                    + ", ".join(f"MsgType.{t}" for t in sorted(mtypes))
                ),
                snippet="",
            ))
        for (key, mtype), witnesses in sorted(missing_ctrl.items()):
            c = controllers[key]
            family, role = key.split("/")
            findings.add(Finding(
                path=c.ladder_path, line=c.ladder_line,
                rule="controller-missing-transition", severity="error",
                message=(
                    f"{c.class_name} ({family} {role}) has no arm for "
                    f"MsgType.{mtype} though the checker model defines "
                    + ", ".join(sorted(witnesses))
                ),
                snippet="",
            ))

    def _delta_check(
        self,
        mtype: str,
        handled: List[ControllerInfo],
        live_models: List[ModelInfo],
        fams: Tuple[str, ...],
        findings: Set[Finding],
    ) -> None:
        cdelta: Set[str] = set()
        for c in handled:
            for arm in c.arms:
                if mtype in arm.mtypes:
                    cdelta |= set(arm.delta)
        if not cdelta:
            return
        for m in live_models:
            for fam in fams:
                info = m.families.get(fam)
                if info is None or not info.delta:
                    continue
                mdelta = set(info.delta)
                if cdelta & mdelta:
                    continue
                findings.add(Finding(
                    path=info.path, line=info.line,
                    rule="token-delta-mismatch", severity="error",
                    message=(
                        f"token delta for MsgType.{mtype}: controller "
                        f"'{''.join(sorted(cdelta))}' vs model '{m.name}' "
                        f"family '{fam}' '{''.join(sorted(mdelta))}'"
                    ),
                    snippet="",
                ))

    # -- completeness: every model family must be mapped ---------------
    def _unmapped_families(
        self, models: Dict[str, ModelInfo], findings: Set[Finding]
    ) -> None:
        mapped: Set[str] = set(MODEL_ONLY_FAMILIES)
        for _mtype, _roles, _models, fams, _delta in CORRESPONDENCE:
            mapped |= set(fams)
        for name in sorted(models):
            m = models[name]
            for fam in sorted(m.families):
                if fam in mapped:
                    continue
                info = m.families[fam]
                findings.add(Finding(
                    path=info.path, line=info.line,
                    rule="controller-missing-transition", severity="error",
                    message=(
                        f"model '{name}' transition family '{fam}' has no "
                        f"entry in the protocol-model correspondence table "
                        f"(and is not a known model-only family)"
                    ),
                    snippet="",
                ))

    # -- epoch guards on stale carriers --------------------------------
    def _epoch_guards(
        self, controllers: Dict[str, ControllerInfo], findings: Set[Finding]
    ) -> None:
        for key in sorted(controllers):
            family, role = key.split("/")
            if family != "token" or role == "arb":
                continue
            for arm in controllers[key].arms:
                carriers = sorted(set(arm.mtypes) & EPOCH_CARRIERS)
                if not carriers or arm.epoch_guarded is not False:
                    continue
                handler = arm.handler or controllers[key].entry
                findings.add(Finding(
                    path=arm.handler_path, line=arm.handler_line,
                    rule="recreation-epoch-unguarded", severity="error",
                    message=(
                        f"handler '{handler}' handles stale-epoch "
                        f"carrier(s) "
                        + ", ".join(carriers)
                        + " without an epoch guard (token recreation "
                        "requires pre-crash messages to be discarded)"
                    ),
                    snippet="",
                ))
