"""Dispatch-exhaustiveness pass (rule family ``dispatch-*``).

The hazard: every controller receives coherence messages through an
``if/elif MsgType.X`` ladder (``_process``/``_receive``).  Removing or
forgetting an arm does not fail loudly at the send site — the message is
built, routed, delivered, and then silently dropped (or, where the ladder
keeps its defensive ``else: raise``, crashes a run only when that message
type actually arrives).  This pass cross-references three sources, all
recovered from the AST:

1. the :class:`MsgType` enum (``interconnect/message.py``);
2. every **send site** — direct ``Message(...)`` constructions,
   ``template.clone_to(dst)`` fan-outs, and the known send wrappers
   (``_send``, ``_send_tokens``, ``_respond``, ``_broadcast``) — with the
   destination expression mapped to controller *roles* through a routing
   model (``self.params.home_mem(...)`` is a memory controller,
   ``msg.requestor`` is a cache, a loop over ``chip_l1s(...)`` is an L1,
   and so on);
3. every controller's **handled set** — the message types named in its
   ladders (inherited ladders included) or used as handler-map keys.

A message type that routing can deliver to a role but that the role's
controller never names is reported at the ladder, with the send site that
proves reachability.

Rules:

* ``dispatch-unhandled`` (error) — receivable but unhandled MsgType;
* ``dispatch-no-default`` (warning) — a ladder with >= 3 arms and no
  default arm at all (unexpected types fall through silently);
* ``dispatch-unknown-mtype`` (error) — reference to a ``MsgType`` member
  that does not exist (typo'd arm: it can never match).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.staticcheck.base import Pass, attr_chain, call_name, enum_members
from repro.staticcheck.findings import Finding
from repro.staticcheck.source import SourceFile

# ---------------------------------------------------------------------------
# Protocol model: controller roles and the destination-expression routing
# table.  This is the "protocol-aware" part — it encodes how the repo
# names destinations, not per-controller expected sets (those are derived
# from the send sites themselves, so the check cannot go stale).
# ---------------------------------------------------------------------------

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

#: Destination helper call -> roles it can address.
DEST_CALLS: Dict[str, Set[str]] = {
    "home_mem": {"mem"},
    "_home_mem": {"mem"},
    "home_arbiter": {"arb"},
    "l2_bank": {"l2"},
    "_chip_l2": {"l2"},
    "_home_l2": {"l2"},
    "iface_of": set(),  # interconnect route point, not a dispatch endpoint
    "chip_l1s": {"l1"},
    "token_holders": {"l1", "l2"},
    "_transient_destinations": {"l1", "l2", "mem"},
    "_persistent_broadcast_set": {"l1", "l2", "mem"},
    "destinations": {"l1"},  # SharerFilter.destinations: filtered local L1s
    "_writeback_destination": {"l2", "mem"},  # L1 -> its L2 bank; L2 -> home mem
}

#: Destination attribute (trailing name) -> roles.  ``requestor`` fields
#: name caches at both levels; replies to ``msg.src`` occur only in the
#: writeback handshake, whose initiators are L2 banks.
DEST_ATTRS: Dict[str, Set[str]] = {
    "requestor": {"l1", "l2"},
    "owner_l1": {"l1"},
    "proc": {"l1"},
    "src": {"l2"},
    "sharers": {"l1"},
}

#: Send wrappers: how to recover (mtypes, dst expression) at call sites.
#: dst is the given positional index or the ``dst`` keyword.
_SEND_TOKENS_PLAIN = frozenset({"TOK_DATA", "TOK_ACK"})
_SEND_TOKENS_WB = frozenset({"TOK_WB", "TOK_WB_DATA"})

_MAX_DEPTH = 6

Roles = Set[str]


@dataclasses.dataclass
class SendSite:
    mtypes: Set[str]
    roles: Roles
    src: SourceFile
    line: int

    @property
    def location(self) -> str:
        return f"{self.src.path}:{self.line}"


@dataclasses.dataclass
class Ladder:
    """One mtype if/elif chain (or handler map) in one method."""

    handled: Set[str]
    arms: int
    has_default: bool
    src: SourceFile
    line: int
    method: str


@dataclasses.dataclass
class ClassInfo:
    node: ast.ClassDef
    src: SourceFile
    bases: List[str]
    ladders: List[Ladder]


# ---------------------------------------------------------------------------
# Expression -> roles resolution.
# ---------------------------------------------------------------------------
class _FnEnv:
    """Per-function name environment: assignments, loop targets, appends."""

    def __init__(self, fn: ast.AST):
        self.assign: Dict[str, ast.AST] = {}
        self.loops: Dict[str, ast.AST] = {}
        self.appends: Dict[str, List[ast.AST]] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                if isinstance(tgt, ast.Name):
                    self.assign[tgt.id] = node.value
            elif isinstance(node, (ast.For, ast.comprehension)):
                tgt = node.target
                if isinstance(tgt, ast.Name):
                    self.loops[tgt.id] = node.iter
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "append"
                    and isinstance(func.value, ast.Name)
                    and node.args
                ):
                    self.appends.setdefault(func.value.id, []).append(node.args[0])


def _roles_of(expr: ast.AST, env: _FnEnv, depth: int = _MAX_DEPTH) -> Roles:
    """Conservatively map a destination expression to controller roles.

    Unknown expressions map to the empty set (no obligation created): the
    pass prefers missing an exotic send over inventing false receivables.
    """
    if depth <= 0 or expr is None:
        return set()
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in DEST_CALLS:
            return set(DEST_CALLS[name])
        if name in ("set", "sorted", "list", "tuple", "frozenset") and expr.args:
            return _roles_of(expr.args[0], env, depth - 1)
        return set()
    if isinstance(expr, ast.Attribute):
        return set(DEST_ATTRS.get(expr.attr, set()))
    if isinstance(expr, ast.Name):
        out: Roles = set()
        if expr.id in env.loops:
            out |= _roles_of(env.loops[expr.id], env, depth - 1)
        elif expr.id in env.assign:
            out |= _roles_of(env.assign[expr.id], env, depth - 1)
        for appended in env.appends.get(expr.id, ()):
            out |= _roles_of(appended, env, depth - 1)
        return out
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        out = set()
        for elt in expr.elts:
            out |= _roles_of(elt, env, depth - 1)
        return out
    if isinstance(expr, ast.BinOp):
        return _roles_of(expr.left, env, depth - 1) | _roles_of(expr.right, env, depth - 1)
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return _roles_of(expr.generators[0].iter, env, depth - 1)
    if isinstance(expr, ast.IfExp):
        return _roles_of(expr.body, env, depth - 1) | _roles_of(expr.orelse, env, depth - 1)
    return set()


def _mtypes_of(expr: ast.AST, env: _FnEnv, depth: int = _MAX_DEPTH) -> Optional[Set[str]]:
    """Message types an mtype expression can evaluate to (None = dynamic)."""
    if depth <= 0 or expr is None:
        return None
    if isinstance(expr, ast.Attribute):
        chain = attr_chain(expr)
        if chain and chain.startswith("MsgType."):
            return {expr.attr}
        return None  # e.g. msg.mtype forwarded verbatim: dynamic
    if isinstance(expr, ast.IfExp):
        body = _mtypes_of(expr.body, env, depth - 1)
        orelse = _mtypes_of(expr.orelse, env, depth - 1)
        if body is None or orelse is None:
            return None
        return body | orelse
    if isinstance(expr, ast.Name) and expr.id in env.assign:
        return _mtypes_of(env.assign[expr.id], env, depth - 1)
    return None


# ---------------------------------------------------------------------------
# Send-site collection.
# ---------------------------------------------------------------------------
def _kwarg(call: ast.Call, name: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _arg(call: ast.Call, index: int, name: str) -> Optional[ast.AST]:
    if len(call.args) > index:
        return call.args[index]
    return _kwarg(call, name)


def _collect_send_sites(files: List[SourceFile]) -> List[SendSite]:
    sites: List[SendSite] = []
    for src in files:
        for fn in ast.walk(src.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            env = _FnEnv(fn)
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                site = _send_site_of(call, env, src)
                if site is not None and site.mtypes and site.roles:
                    sites.append(site)
    return sites


def _send_site_of(call: ast.Call, env: _FnEnv, src: SourceFile) -> Optional[SendSite]:
    name = call_name(call)
    if name == "Message":
        mtypes = _mtypes_of(_kwarg(call, "mtype") or _arg(call, 0, "mtype"), env)
        dst = _kwarg(call, "dst")
        if mtypes is None or dst is None:
            return None
        return SendSite(mtypes, _roles_of(dst, env), src, call.lineno)
    if name == "clone_to":
        func = call.func
        template_mtypes: Optional[Set[str]] = None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in env.assign:
                value = env.assign[base.id]
                if isinstance(value, ast.Call) and call_name(value) == "Message":
                    template_mtypes = _mtypes_of(
                        _kwarg(value, "mtype") or _arg(value, 0, "mtype"), env
                    )
        if template_mtypes is None or not call.args:
            return None
        return SendSite(template_mtypes, _roles_of(call.args[0], env), src, call.lineno)
    if name == "_send":
        mtypes = _mtypes_of(_arg(call, 0, "mtype"), env)
        dst = _arg(call, 1, "dst")
        if mtypes is None or dst is None:
            return None
        return SendSite(mtypes, _roles_of(dst, env), src, call.lineno)
    if name == "_send_tokens":
        wb = _kwarg(call, "writeback")
        is_wb = isinstance(wb, ast.Constant) and bool(wb.value)
        mtypes = set(_SEND_TOKENS_WB if is_wb else _SEND_TOKENS_PLAIN)
        dst = _arg(call, 0, "dst")
        if dst is None:
            return None
        return SendSite(mtypes, _roles_of(dst, env), src, call.lineno)
    if name == "_respond":
        dst = _arg(call, 0, "dst")
        if dst is None:
            return None
        return SendSite(
            set(_SEND_TOKENS_PLAIN), _roles_of(dst, env), src, call.lineno
        )
    if name == "_broadcast":
        # Arbiter._broadcast: activate/deactivate to every token holder
        # plus home memory.
        mtypes = _mtypes_of(_arg(call, 0, "mtype"), env)
        if mtypes is None:
            return None
        return SendSite(mtypes, {"l1", "l2", "mem"}, src, call.lineno)
    return None


# ---------------------------------------------------------------------------
# Ladder extraction.
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
    left_name = None
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


def _ladders_in_method(
    fn: ast.FunctionDef, src: SourceFile, constants: MtypeConstants
) -> List[Ladder]:
    subjects = _mtype_subjects(fn)
    if not subjects:
        return []
    ladders: List[Ladder] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        if getattr(node, "_staticcheck_seen", False):
            continue
        handled: Set[str] = set()
        arms = 0
        cursor: Optional[ast.If] = node
        has_default = False
        while cursor is not None:
            cursor._staticcheck_seen = True  # type: ignore[attr-defined]
            matched = _test_mtypes(cursor.test, subjects, constants)
            if matched:
                handled |= matched
                arms += 1
            orelse = cursor.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                cursor = orelse[0]
            else:
                has_default = bool(orelse)
                cursor = None
        if handled:
            ladders.append(
                Ladder(
                    handled=handled, arms=arms, has_default=has_default,
                    src=src, line=node.lineno, method=fn.name,
                )
            )
    # Handler maps: {MsgType.X: self._on_x, ...}
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            keys = set()
            for key in node.keys:
                chain = attr_chain(key) if key is not None else None
                if chain and chain.startswith("MsgType."):
                    keys.add(chain.split(".", 1)[1])
            if keys and len(keys) == len([k for k in node.keys if k is not None]):
                ladders.append(
                    Ladder(
                        handled=keys, arms=len(keys), has_default=True,
                        src=src, line=node.lineno, method=fn.name,
                    )
                )
    return ladders


def _collect_classes(files: List[SourceFile]) -> List[ClassInfo]:
    out: List[ClassInfo] = []
    for src in files:
        constants = _module_mtype_constants(src)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            ladders: List[Ladder] = []
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    ladders.extend(_ladders_in_method(stmt, src, constants))
            bases = []
            for base in node.bases:
                name = attr_chain(base)
                if name:
                    bases.append(name.split(".")[-1])
            out.append(ClassInfo(node=node, src=src, bases=bases, ladders=ladders))
    return out


# ---------------------------------------------------------------------------
# The pass.
# ---------------------------------------------------------------------------
class DispatchPass(Pass):
    id = "dispatch"
    description = "controller MsgType ladders handle every receivable type"
    rules = ("dispatch-unhandled", "dispatch-no-default", "dispatch-unknown-mtype")
    rule_docs = {
        "dispatch-unhandled": (
            "A send site can deliver this MsgType to the controller's "
            "role (per the routing model), but no arm of its dispatch "
            "ladder names it: the message would be built, routed, "
            "delivered, and silently dropped (or hit the defensive "
            "raise only on the configs that exercise it)."
        ),
        "dispatch-no-default": (
            "A message-type ladder with three or more arms has no "
            "default arm, so an unexpected type falls through without a "
            "trace.  Add an 'else: raise' (the repo's idiom) so drift "
            "fails loudly."
        ),
        "dispatch-unknown-mtype": (
            "The code references a MsgType member that does not exist.  "
            "A typo'd ladder arm can never match; a typo'd send can "
            "never be constructed.  Usually a rename that missed a site."
        ),
    }
    rule_examples = {
        "dispatch-unhandled": (
            "repro/core/memctrl.py:108: error[dispatch-unhandled] "
            "TokenMemController (token mem) can receive "
            "MsgType.TOK_RECREATE_REQ (sent at repro/core/l1.py:210) "
            "but its dispatch ladder never handles it"
        ),
        "dispatch-no-default": (
            "repro/core/base.py:105: warning[dispatch-no-default] "
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
        findings: List[Finding] = []
        members = enum_members(files, "MsgType")
        if not members:
            return findings  # no enum in scope: nothing to check

        findings.extend(self._unknown_mtypes(files, members))

        classes = _collect_classes(files)
        by_name: Dict[str, List[ClassInfo]] = {}
        for info in classes:
            by_name.setdefault(info.node.name, []).append(info)

        # Receivable map from send sites: (family, role) -> {mtype: site}.
        receivable: Dict[Tuple[str, str], Dict[str, SendSite]] = {}
        for site in _collect_send_sites(files):
            for mtype in site.mtypes:
                family = FAMILY_BY_PREFIX.get(mtype.split("_")[0])
                if family is None:
                    continue
                for role in site.roles:
                    receivable.setdefault((family, role), {}).setdefault(mtype, site)

        for info in classes:
            role = ROLE_BY_CLASS.get(info.node.name)
            ladders = self._resolved_ladders(info, by_name)
            for ladder in ladders:
                if ladder.src.path != info.src.path:
                    continue  # inherited ladder: report once, at its own class
                if ladder.arms >= 3 and not ladder.has_default:
                    findings.append(
                        Finding(
                            path=ladder.src.path, line=ladder.line,
                            rule="dispatch-no-default", severity="warning",
                            message=(
                                f"{info.node.name}.{ladder.method}: message-type "
                                f"ladder has no default arm — unexpected types "
                                f"are silently dropped"
                            ),
                            snippet=ladder.src.line_at(ladder.line),
                        )
                    )
            if role is None:
                continue
            handled: Set[str] = set()
            for ladder in ladders:
                handled |= ladder.handled
            if not ladders:
                continue  # role class with no visible ladder: out of scope
            family = role[0]
            anchor = self._entry_ladder(ladders)
            for mtype, site in sorted(receivable.get(role, {}).items()):
                if mtype in handled:
                    continue
                findings.append(
                    Finding(
                        path=anchor.src.path, line=anchor.line,
                        rule="dispatch-unhandled", severity="error",
                        message=(
                            f"{info.node.name} ({family} {role[1]}) can receive "
                            f"MsgType.{mtype} (sent at {site.location}) but its "
                            f"dispatch ladder never handles it"
                        ),
                        snippet=anchor.src.line_at(anchor.line),
                    )
                )
        return findings

    def _resolved_ladders(
        self, info: ClassInfo, by_name: Dict[str, List[ClassInfo]]
    ) -> List[Ladder]:
        """The class's ladders plus inherited ones (nearest-first DFS)."""
        out: List[Ladder] = []
        seen: Set[str] = set()
        stack = [info]
        while stack:
            cur = stack.pop(0)
            if cur.node.name in seen:
                continue
            seen.add(cur.node.name)
            out.extend(cur.ladders)
            for base in cur.bases:
                candidates = by_name.get(base, [])
                # Prefer a base defined in the same file (fixture copies).
                same = [c for c in candidates if c.src.path == cur.src.path]
                for chosen in same or candidates[:1]:
                    stack.append(chosen)
        return out

    @staticmethod
    def _entry_ladder(ladders: List[Ladder]) -> Ladder:
        """The dispatch entry: prefer _process/_receive, else widest."""
        for name in ("_process", "_receive"):
            for ladder in ladders:
                if ladder.method == name:
                    return ladder
        return max(ladders, key=lambda lad: len(lad.handled))

    def _unknown_mtypes(
        self, files: List[SourceFile], members: Set[str]
    ) -> List[Finding]:
        out: List[Finding] = []
        for src in files:
            if src.module.startswith("repro.staticcheck"):
                continue  # this package names members in tables/docs
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Attribute):
                    chain = attr_chain(node)
                    if (
                        chain
                        and chain.startswith("MsgType.")
                        and chain.count(".") == 1
                    ):
                        name = node.attr
                        if name not in members and name.isupper():
                            out.append(
                                self.finding(
                                    src, node, "dispatch-unknown-mtype",
                                    f"MsgType.{name} is not a member of MsgType "
                                    f"(typo'd arm can never match)",
                                )
                            )
        return out
