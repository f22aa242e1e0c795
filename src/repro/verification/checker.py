"""Explicit-state model checker (the reproduction's stand-in for TLC).

Section 5 of the paper model-checks TLA+ descriptions of the TokenCMP
correctness substrate and a flat simplification of DirectoryCMP.  This
module provides the same technique class: exhaustive breadth-first
enumeration of a down-scaled protocol model's state space, checking

* **safety** — a model-supplied invariant on every reachable state
  (token conservation, single-writer/multi-reader, value coherence);
* **deadlock freedom** — every non-quiescent state has at least one
  enabled transition;
* **liveness under fairness** — every reachable state can reach a
  quiescent state (no pending requests, empty network).  In a finite
  graph this implies that under strong fairness no request starves,
  which matches the paper's "eventually satisfies all requests, under
  certain fairness constraints".

Models are pure-Python objects over hashable states; see
:mod:`repro.verification.token_model` and
:mod:`repro.verification.dir_model`.

Apart from the states themselves, the explored graph is stored as flat
int32 arrays indexed by a dense state id: parent ids and, when liveness
is checked, successor ids in compressed sparse rows (CSR) and the
reversed edges in a second CSR.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from array import array
from itertools import accumulate
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.common.errors import VerificationError

State = Hashable
Transition = Tuple[str, State]


class Model:
    """Interface a protocol model implements for the checker."""

    name = "model"

    def initial_states(self) -> Iterable[State]:
        raise NotImplementedError

    def transitions(self, state: State) -> List[Transition]:
        """All enabled ``(label, successor)`` pairs from ``state``."""
        raise NotImplementedError

    def check_invariants(self, state: State) -> None:
        """Raise :class:`VerificationError` if ``state`` is inconsistent."""

    def is_quiescent(self, state: State) -> bool:
        """True when nothing is pending (used for deadlock + liveness)."""
        raise NotImplementedError

    def canonicalize(self, state: State) -> State:
        """Symmetry reduction hook (paper Section 5's technique list).

        Return a canonical representative of ``state``'s symmetry orbit
        (e.g. the lexicographic minimum over processor permutations).
        The default is the identity — no reduction.  Soundness requires
        the model to actually be symmetric under the applied permutations
        (invariants and quiescence must be permutation-invariant).
        """
        return state


@dataclasses.dataclass
class CheckResult:
    """Statistics from one exhaustive exploration."""

    model: str
    states: int
    transitions: int
    diameter: int
    quiescent_states: int
    elapsed_s: float
    liveness_checked: bool

    def to_dict(self) -> Dict[str, object]:
        """Deterministic projection: everything except wall time.

        ``elapsed_s`` is a measurement of the checking machine, not of
        the model, so it is excluded from any output that gets compared
        across runs (result caching, CI diffs, pinned-count tests).
        """
        return {
            "model": self.model,
            "states": self.states,
            "transitions": self.transitions,
            "diameter": self.diameter,
            "quiescent_states": self.quiescent_states,
            "liveness_checked": self.liveness_checked,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.model}: {self.states} states, {self.transitions} transitions, "
            f"diameter {self.diameter}, {self.elapsed_s:.2f}s"
        )


def check(
    model: Model,
    max_states: Optional[int] = None,
    check_liveness: bool = True,
) -> CheckResult:
    """Exhaustively explore ``model``; raise on any property violation.

    Raises :class:`VerificationError` with a shortest-path counterexample
    trace for safety violations and deadlocks, and with a culprit state
    for liveness violations.

    Every edge hashes its canonical target once: one ``setdefault``
    finds its int id or interns it as the next dense id.  The graph is
    kept in flat ``array('i')`` columns indexed by id: parent ids and,
    for the liveness pass, the successor ids of every state concatenated
    in BFS order with per-state end offsets (CSR).  Labels are an
    id-indexed list, quiescence a ``bytearray``, and the diameter is the
    BFS level of the last state discovered.  A model that keeps the
    inherited identity :meth:`Model.canonicalize` is not called for it.
    The cyclic garbage collector is off for the run: states and the id
    store are acyclic, so its passes over them would find nothing.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _check(model, max_states, check_liveness)
    finally:
        if gc_was_enabled:
            gc.enable()


def _check(model: Model, max_states: Optional[int], check_liveness: bool) -> CheckResult:
    start = time.perf_counter()
    canonicalize = model.canonicalize
    if getattr(canonicalize, "__func__", None) is Model.canonicalize:
        canonicalize = None  # the identity: no reduction to apply
    index: Dict[State, int] = {}
    states: List[State] = []  # id -> state; doubles as the BFS queue
    parent = array("i")  # id -> predecessor id (-1 for initial states)
    label: List[Optional[str]] = []  # id -> label of the discovering edge
    succ = array("i")  # successor ids of every state, concatenated
    succ_end = array("i")  # id -> end of its successors in ``succ``
    quiescent = bytearray()
    succ_append = succ.append
    nstates = 0
    for s in model.initial_states():
        if canonicalize is not None:
            s = canonicalize(s)
        if index.setdefault(s, nstates) == nstates:
            nstates += 1
            states.append(s)
            parent.append(-1)
            label.append(None)

    transitions = 0
    level = 0  # BFS depth of ``sid``
    level_end = nstates  # first id one level deeper
    sid = 0
    while sid < nstates:
        if sid == level_end:
            level += 1
            level_end = nstates
        state = states[sid]
        try:
            model.check_invariants(state)
        except VerificationError as err:
            raise VerificationError(
                f"{model.name}: invariant violated: {err}\n"
                + _trace(states, parent, label, sid)
            ) from err
        succs = model.transitions(state)
        transitions += len(succs)
        quiet = 1 if model.is_quiescent(state) else 0
        quiescent.append(quiet)
        if not quiet and not succs:
            raise VerificationError(
                f"{model.name}: deadlock (non-quiescent state with no transitions)\n"
                + _trace(states, parent, label, sid)
            )
        for lbl, nxt in succs:
            if canonicalize is not None:
                nxt = canonicalize(nxt)
            nid = index.setdefault(nxt, nstates)
            if nid == nstates:
                nstates += 1
                states.append(nxt)
                parent.append(sid)
                label.append(lbl)
                if max_states is not None and nid >= max_states:
                    raise VerificationError(
                        f"{model.name}: state space exceeds {max_states} states"
                    )
            succ_append(nid)
        if check_liveness:
            succ_end.append(len(succ))
        else:
            del succ[:]  # only the liveness pass reads the edges
        sid += 1

    if check_liveness:
        del index, parent, label  # only ``states`` is left to name a culprit
        _check_liveness(model, states, succ, succ_end, quiescent)

    return CheckResult(
        model=model.name,
        states=nstates,
        transitions=transitions,
        diameter=level,  # BFS discovers in depth order: the last state's level
        quiescent_states=sum(quiescent),
        elapsed_s=time.perf_counter() - start,
        liveness_checked=check_liveness,
    )


def _check_liveness(model: Model, states, succ, succ_end, quiescent) -> None:
    """Every reachable state must be able to reach a quiescent state."""
    # Backward reachability from quiescent states over reversed edges,
    # kept as a reverse CSR built by counting sort: the predecessors of
    # ``v`` are ``preds[first[v]:first[v + 1]]``.  The per-edge counts and
    # cursors live in a list, which reads items without boxing new ints.
    first = [0] * len(states)
    for nid in succ:
        first[nid] += 1
    first = list(accumulate(first))  # id -> end of its predecessors
    preds = array("i", bytes(4 * len(succ)))
    lo = 0
    for src, hi in enumerate(succ_end):
        for nid in succ[lo:hi]:
            pos = first[nid] - 1
            first[nid] = pos  # ends step back to starts
            preds[pos] = src
        lo = hi
    first = array("i", first)
    first.append(len(succ))
    can_quiesce = bytearray(quiescent)
    good = [sid for sid, quiet in enumerate(quiescent) if quiet]
    while good:
        nid = good.pop()
        for pred in preds[first[nid]:first[nid + 1]]:
            if not can_quiesce[pred]:
                can_quiesce[pred] = 1
                good.append(pred)
    stuck = can_quiesce.count(0)
    if stuck:
        raise VerificationError(
            f"{model.name}: liveness violated — {stuck} states cannot reach "
            f"quiescence, e.g. {states[can_quiesce.index(0)]!r}"
        )


def _trace(states, parent, label, sid) -> str:
    """Shortest counterexample trace from an initial state to ``sid``."""
    steps = []
    while parent[sid] >= 0:
        steps.append(f"  {label[sid]} -> {states[sid]!r}")
        sid = parent[sid]
    steps.append(f"  initial: {states[sid]!r}")
    return "counterexample (most recent last):\n" + "\n".join(reversed(steps))


def spec_size(obj) -> int:
    """Non-blank source lines of a model that are neither comments nor
    docstrings — the analogue of the paper's TLA+ line-count complexity
    metric."""
    import ast
    import inspect
    import textwrap

    source = textwrap.dedent(inspect.getsource(obj))
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    count = 0
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#") and number not in docs:
            count += 1
    return count
