"""Determinism lint (rule family ``det-*``).

Byte-identical reruns are load-bearing in this repo: the experiment
engine's content-addressed result cache (PR 2), the Chrome-trace
comparison (PR 3), and the perf-regression gate (PR 4) all diff outputs
directly.  The classic ways a Python simulator silently loses that
property:

* ``det-set-iter`` — iterating a ``set``/``frozenset`` where order
  reaches behaviour.  ``NodeId`` is a NamedTuple of (str-enum, int, int);
  its hash — and therefore raw set order — varies per process under hash
  randomization, so a fan-out loop over a sharer *set* delivers
  invalidations in a different order on every run.
* ``det-wallclock`` — ``time.time()`` / ``datetime.now()`` inside code
  whose outputs are compared across runs.  (``perf_counter`` /
  ``perf_counter_ns`` are fine: they are used for *measuring*, and the
  reporters exclude elapsed time from comparable projections.)
* ``det-unseeded-random`` — the ``random`` module's global generator, or
  ``Random()`` constructed without a seed.  All simulation randomness
  must flow from the seeded per-run RNG.
* ``det-float-time`` — ``round()``/``float()`` applied to picosecond
  quantities inside the simulation core; timestamps are integers end to
  end and float rounding reintroduces platform drift.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.staticcheck.base import (
    SIM_SCOPE, Pass, attr_chain, call_name, module_in,
)
from repro.staticcheck.findings import Finding
from repro.staticcheck.source import SourceFile

#: set-iteration also corrupts the model checker's transition order.
SET_ITER_SCOPE = SIM_SCOPE + ("repro.verification",)

#: wall-clock reads additionally poison report/battery comparability.
WALLCLOCK_SCOPE = SET_ITER_SCOPE + ("repro.analysis",)

FLOAT_TIME_SCOPE = (
    "repro.sim",
    "repro.core",
    "repro.directory",
    "repro.interconnect",
)

#: Consumers that erase iteration order; a set feeding these is fine.
_ORDER_INSENSITIVE = {
    "sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset",
}

_WALLCLOCK_CHAINS = {
    "time.time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
}

_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "seed",
}

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}


class _Env:
    """Per-function name bindings, for set-typedness resolution."""

    def __init__(self, fn: ast.AST):
        self.assign: Dict[str, ast.AST] = {}
        self.loops: Dict[str, ast.AST] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                if isinstance(tgt, ast.Name):
                    self.assign[tgt.id] = node.value
            elif isinstance(node, (ast.For, ast.comprehension)):
                tgt = node.target
                if isinstance(tgt, ast.Name):
                    self.loops[tgt.id] = node.iter


def _set_attrs_of_file(src: SourceFile) -> Set[str]:
    """``self.X`` attribute names assigned a set anywhere in the file."""
    attrs: Set[str] = set()
    for node in ast.walk(src.tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            is_set = (
                isinstance(value, (ast.Set, ast.SetComp))
                or (isinstance(value, ast.Call) and call_name(value) in ("set", "frozenset"))
            )
            if not is_set:
                continue
            for tgt in targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    attrs.add(tgt.attr)
    return attrs


def _is_setlike(
    expr: ast.AST, env: _Env, set_attrs: Set[str], depth: int = 6
) -> bool:
    if depth <= 0 or expr is None:
        return False
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in ("set", "frozenset"):
            return True
        func = expr.func
        if isinstance(func, ast.Attribute):
            if name == "copy":
                return _is_setlike(func.value, env, set_attrs, depth - 1)
            if name in _SET_METHODS:
                return _is_setlike(func.value, env, set_attrs, depth - 1)
            if name == "get" and len(expr.args) >= 2:
                return _is_setlike(expr.args[1], env, set_attrs, depth - 1)
        return False
    if isinstance(expr, ast.Name):
        if expr.id in env.assign:
            return _is_setlike(env.assign[expr.id], env, set_attrs, depth - 1)
        return False
    if isinstance(expr, ast.Attribute):
        return (
            isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in set_attrs
        )
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return _is_setlike(expr.left, env, set_attrs, depth - 1) or _is_setlike(
            expr.right, env, set_attrs, depth - 1
        )
    if isinstance(expr, ast.IfExp):
        return _is_setlike(expr.body, env, set_attrs, depth - 1) or _is_setlike(
            expr.orelse, env, set_attrs, depth - 1
        )
    return False


class DeterminismPass(Pass):
    id = "determinism"
    description = "no unordered iteration, wall-clock, or unseeded randomness"
    rules = (
        "det-set-iter",
        "det-wallclock",
        "det-unseeded-random",
        "det-float-time",
    )
    rule_docs = {
        "det-set-iter": (
            "A for-loop or comprehension iterates a set-typed expression "
            "in simulation/verification code.  NodeId hashes vary per "
            "process under hash randomization, so raw set order reorders "
            "the event stream and breaks byte-identical reruns.  Iterate "
            "sorted(...) instead; feeding a set to an order-insensitive "
            "consumer (sorted, min, sum, ...) is fine."
        ),
        "det-wallclock": (
            "time.time()/datetime.now() in compared code.  Wall-clock "
            "values differ across runs, so they must never reach a "
            "comparable projection; use time.perf_counter() for "
            "measurement and keep elapsed time out of outputs."
        ),
        "det-unseeded-random": (
            "The random module's process-global generator (or Random() "
            "without a seed) feeds simulation state; reruns diverge.  "
            "Thread an explicitly seeded Random through instead."
        ),
        "det-float-time": (
            "round()/float() applied to a picosecond quantity in the "
            "simulation core.  Simulated time is integral end to end; "
            "float rounding reintroduces platform drift."
        ),
    }
    rule_examples = {
        "det-set-iter": (
            "repro/sim/machine.py:88: error[det-set-iter] loop iterates "
            "a set ('self._dirty'): order varies under hash "
            "randomization — iterate sorted(...)"
        ),
        "det-wallclock": (
            "repro/exp/engine.py:31: error[det-wallclock] time.time() "
            "in compared code: use perf_counter for measurement and "
            "keep wall-clock out of outputs"
        ),
        "det-unseeded-random": (
            "repro/workloads/oltp.py:12: error[det-unseeded-random] "
            "module-level random.choice(): seeded Random required"
        ),
        "det-float-time": (
            "repro/core/timeout.py:55: error[det-float-time] round() on "
            "a picosecond quantity (self._avg_ps * ...): simulated time "
            "must stay integral"
        ),
    }

    def check(self, files: List[SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        for src in files:
            if src.module == "<fixture>" or module_in(src, SET_ITER_SCOPE):
                findings.extend(self._set_iteration(src))
            if src.module == "<fixture>" or module_in(src, WALLCLOCK_SCOPE):
                findings.extend(self._wallclock(src))
            if src.module.startswith("repro") or src.module == "<fixture>":
                findings.extend(self._unseeded_random(src))
            if src.module == "<fixture>" or module_in(src, FLOAT_TIME_SCOPE):
                findings.extend(self._float_time(src))
        return findings

    # -- det-set-iter -----------------------------------------------------
    def _set_iteration(self, src: SourceFile) -> List[Finding]:
        out: List[Finding] = []
        set_attrs = _set_attrs_of_file(src)
        # Comprehensions wrapped directly in an order-insensitive consumer
        # are fine; collect them so the walk below can skip them.
        blessed: Set[int] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call) and call_name(node) in _ORDER_INSENSITIVE:
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                        blessed.add(id(arg))
        for fn in ast.walk(src.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            env = _Env(fn)
            for node in ast.walk(fn):
                iters = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(
                    node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
                ):
                    if id(node) in blessed or isinstance(node, (ast.SetComp, ast.DictComp)):
                        continue  # building a set/dict is not iteration order
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if _is_setlike(it, env, set_attrs):
                        out.append(
                            self.finding(
                                src, node, "det-set-iter",
                                "iteration over an unordered set: order is "
                                "hash-randomized per process — iterate "
                                "sorted(...) instead",
                            )
                        )
        return out

    # -- det-wallclock ----------------------------------------------------
    def _wallclock(self, src: SourceFile) -> List[Finding]:
        out: List[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain in _WALLCLOCK_CHAINS:
                    out.append(
                        self.finding(
                            src, node, "det-wallclock",
                            f"wall-clock read ({chain}) makes output "
                            f"run-dependent — use time.perf_counter() for "
                            f"measurement and exclude it from comparable "
                            f"projections",
                        )
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                if any(alias.name == "time" for alias in node.names):
                    out.append(
                        self.finding(
                            src, node, "det-wallclock",
                            "importing time.time into deterministic code — "
                            "use time.perf_counter() instead",
                        )
                    )
        return out

    # -- det-unseeded-random ----------------------------------------------
    def _unseeded_random(self, src: SourceFile) -> List[Finding]:
        out: List[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if (
                chain
                and chain.startswith("random.")
                and chain.split(".", 1)[1] in _GLOBAL_RANDOM_FNS
            ):
                out.append(
                    self.finding(
                        src, node, "det-unseeded-random",
                        f"{chain}() uses the process-global generator — draw "
                        f"from the seeded per-run RNG instead",
                    )
                )
            elif (
                chain in ("Random", "random.Random")
                and not node.args
                and not node.keywords
            ):
                out.append(
                    self.finding(
                        src, node, "det-unseeded-random",
                        "Random() without a seed is seeded from the OS — pass "
                        "an explicit seed",
                    )
                )
        return out

    # -- det-float-time ---------------------------------------------------
    def _float_time(self, src: SourceFile) -> List[Finding]:
        out: List[Finding] = []
        for node in ast.walk(src.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("round", "float")
                and node.args
            ):
                continue
            try:
                arg_text = ast.unparse(node.args[0])
            except Exception:  # pragma: no cover - unparse is total on 3.9+
                continue
            if "_ps" in arg_text or arg_text.endswith("ps"):
                out.append(
                    self.finding(
                        src, node, "det-float-time",
                        f"{node.func.id}() on a picosecond quantity "
                        f"({arg_text}): simulated time must stay integral",
                    )
                )
        return out
