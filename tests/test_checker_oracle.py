"""Oracle test for the model checker's graph store.

:func:`repro.verification.checker.check` keeps the explored graph in flat
``array('i')`` columns (parent ids, a successor CSR, a reverse CSR for the
liveness pass) and takes the diameter from a BFS level counter.  The
reference below is the earlier list-based checker — id-indexed lists, a
tuple of successor ids per state, a list of predecessors per state and a
per-state depth list — copied verbatim.  Both run on seeded random
labelled digraphs, and every result or error text must agree: counts and
diameter, invariant and deadlock traces, the state-budget error, and the
liveness stuck count with its first stuck state.
"""

import random
import time
from typing import Dict, List, Optional, Tuple

import pytest

from repro.common.errors import VerificationError
from repro.verification.checker import CheckResult, Model, State, check


# ---------------------------------------------------------------------------
# The list-based reference checker, verbatim.
# ---------------------------------------------------------------------------
def _check(model: Model, max_states: Optional[int], check_liveness: bool) -> CheckResult:
    start = time.perf_counter()
    canonicalize = model.canonicalize
    if getattr(canonicalize, "__func__", None) is Model.canonicalize:
        canonicalize = None  # the identity: no reduction to apply
    index: Dict[State, int] = {}
    states: List[State] = []  # id -> state; doubles as the BFS queue
    parent: List[int] = []  # id -> predecessor id (-1 for initial states)
    label: List[Optional[str]] = []  # id -> label of the discovering edge
    depth: List[int] = []
    successors: List[Tuple[int, ...]] = []
    quiescent = bytearray()
    for s in model.initial_states():
        if canonicalize is not None:
            s = canonicalize(s)
        if s not in index:
            index[s] = len(states)
            states.append(s)
            parent.append(-1)
            label.append(None)
            depth.append(0)

    transitions = 0
    sid = 0
    while sid < len(states):
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
        next_ids = []
        for lbl, nxt in succs:
            if canonicalize is not None:
                nxt = canonicalize(nxt)
            nid = index.get(nxt)
            if nid is None:
                nid = index[nxt] = len(states)
                states.append(nxt)
                parent.append(sid)
                label.append(lbl)
                depth.append(depth[sid] + 1)
                if max_states is not None and nid >= max_states:
                    raise VerificationError(
                        f"{model.name}: state space exceeds {max_states} states"
                    )
            next_ids.append(nid)
        if check_liveness:
            successors.append(tuple(next_ids))  # smaller than the list, kept to the end
        sid += 1

    if check_liveness:
        _check_liveness(model, states, successors, quiescent)

    return CheckResult(
        model=model.name,
        states=len(states),
        transitions=transitions,
        diameter=depth[-1] if depth else 0,  # BFS discovers in depth order
        quiescent_states=sum(quiescent),
        elapsed_s=time.perf_counter() - start,
        liveness_checked=check_liveness,
    )


def _check_liveness(model: Model, states, successors, quiescent) -> None:
    """Every reachable state must be able to reach a quiescent state."""
    # Backward reachability from quiescent states over reversed edges.
    preds: List[List[int]] = [[] for _ in states]
    for src, next_ids in enumerate(successors):
        for nid in next_ids:
            preds[nid].append(src)
    can_quiesce = bytearray(quiescent)
    good = [sid for sid, quiet in enumerate(quiescent) if quiet]
    while good:
        for pred in preds[good.pop()]:
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



# ---------------------------------------------------------------------------
# Random labelled digraphs.
# ---------------------------------------------------------------------------
class RandomGraph(Model):
    """A seeded random labelled digraph over ints.

    Successor lists repeat edges and labels and contain self-loops;
    several initial states may coincide; a few states are absorbing,
    non-quiescent traps (a cycle of them, entered from the rest of the
    graph), and a few fail the invariant.
    """

    name = "toy-random"

    def __init__(self, seed):
        rng = random.Random(seed)
        n = rng.choice([1, 2, 3, 5, 8, 13, 40, 120])
        quiet = rng.choice([0.05, 0.2, 0.5])
        self.edges = {}
        for v in range(n):
            targets = [rng.randrange(n) for _ in range(rng.choice([0, 1, 2, 3, 6]))]
            if targets and rng.random() < 0.3:
                targets.append(targets[0])  # a duplicate edge
            if rng.random() < 0.2:
                targets.append(v)  # a self-loop
            self.edges[v] = [(rng.choice("abc"), t) for t in targets]
        self.quiet = {v for v in range(n) if rng.random() < quiet}
        # Out-degree 0 is a deadlock unless quiescent: keep most of them quiet.
        self.quiet |= {v for v, out in self.edges.items()
                       if not out and rng.random() < 0.9}
        if n > 3 and rng.random() < 0.5:
            trap = [n + i for i in range(rng.randint(1, 3))]
            for i, t in enumerate(trap):
                self.edges[t] = [("spin", trap[(i + 1) % len(trap)])]
            for _ in range(rng.randint(1, 3)):
                self.edges[rng.randrange(n)].append(("fall", rng.choice(trap)))
        self.bad = {v for v in range(n) if rng.random() < 0.03}
        self.initial = [rng.randrange(n) for _ in range(rng.randint(1, 4))]

    def initial_states(self):
        return list(self.initial)

    def transitions(self, state):
        return list(self.edges[state])

    def check_invariants(self, state):
        if state in self.bad:
            raise VerificationError(f"reached {state}")

    def is_quiescent(self, state):
        return state in self.quiet


class MergedGraph(RandomGraph):
    """The same graph under a symmetry reduction that merges states."""

    name = "toy-merged"

    def __init__(self, seed):
        super().__init__(seed)
        self.merge = 2 + seed % 3

    def canonicalize(self, state):
        rep = state - state % self.merge
        return rep if rep in self.edges else state


def _outcome(run, model, max_states, liveness):
    try:
        return run(model, max_states, liveness).to_dict()
    except VerificationError as err:
        return str(err)


@pytest.mark.parametrize("graph", [RandomGraph, MergedGraph])
def test_flat_checker_matches_the_list_based_reference(graph):
    kinds = set()
    for seed in range(400):
        max_states = random.Random(-seed).choice([None, None, None, 1, 4, 30])
        for liveness in (True, False):
            want = _outcome(_check, graph(seed), max_states, liveness)
            got = _outcome(check, graph(seed), max_states, liveness)
            assert got == want, (graph.__name__, seed, max_states, liveness)
            kinds.add("ok" if isinstance(want, dict) else want.split(": ")[1].split()[0])
    # Every outcome the checker can report was exercised.
    assert kinds == {"ok", "invariant", "deadlock", "liveness", "state"}
