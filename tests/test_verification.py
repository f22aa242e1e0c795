"""Tests for the model checker and the protocol models.

Besides checking that the shipped models verify, these tests *seed bugs*
into the models and assert the checker catches them — the checker itself
is load-bearing for the Section 5 reproduction, so it must demonstrably
find violations, not just report success.
"""

import hashlib
import itertools
import tracemalloc

import pytest

from repro.common.errors import VerificationError
from repro.verification.checker import Model, check, spec_size
from repro.verification.dir_model import DirFlatModel
from repro.verification.token_model import (
    TokenArbModel,
    TokenDstModel,
    TokenRecreateModel,
    TokenSafetyModel,
    _add,
)


def _text_digest(err) -> str:
    """sha256 of an error's text: pins a counterexample trace byte for byte."""
    return hashlib.sha256(str(err.value).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Checker mechanics on toy models.
# ---------------------------------------------------------------------------
class CounterModel(Model):
    """Counts 0..3 with wraparound: quiescent at 0."""

    name = "toy-counter"

    def initial_states(self):
        return [0]

    def transitions(self, state):
        return [("inc", (state + 1) % 4)]

    def is_quiescent(self, state):
        return state == 0


def test_checker_explores_and_counts():
    result = check(CounterModel())
    assert result.states == 4
    assert result.transitions == 4
    assert result.diameter == 3


def test_checker_detects_deadlock():
    class Dead(CounterModel):
        name = "toy-deadlock"

        def transitions(self, state):
            return [] if state == 2 else [("inc", state + 1)]

    with pytest.raises(VerificationError, match="deadlock"):
        check(Dead())


def test_checker_detects_invariant_violation_with_trace():
    class Bad(CounterModel):
        name = "toy-bad"

        def check_invariants(self, state):
            if state == 3:
                raise VerificationError("state three reached")

    with pytest.raises(VerificationError) as err:
        check(Bad())
    assert "counterexample" in str(err.value)


def test_checker_detects_livelock():
    class Livelock(Model):
        name = "toy-livelock"

        def initial_states(self):
            return ["start"]

        def transitions(self, state):
            # 'spin' can never get back to the quiescent 'start'.
            return [("go", "spin"), ("stay", "spin")] if state == "start" else [
                ("stay", "spin")
            ]

        def is_quiescent(self, state):
            return state == "start"

    with pytest.raises(VerificationError, match="liveness"):
        check(Livelock())


def test_checker_state_budget():
    class Big(Model):
        name = "toy-big"

        def initial_states(self):
            return [0]

        def transitions(self, state):
            return [("inc", state + 1)]

        def is_quiescent(self, state):
            return True

    with pytest.raises(VerificationError, match="exceeds"):
        check(Big(), max_states=100)


# ---------------------------------------------------------------------------
# The shipped protocol models verify.
# ---------------------------------------------------------------------------
def test_token_safety_model_verifies():
    result = check(TokenSafetyModel(), max_states=100_000, check_liveness=False)
    assert result.states > 1_000  # a real exploration, not a trivial one


def test_token_dst_model_verifies_with_liveness():
    result = check(
        TokenDstModel(coarse_sends=True, atomic_broadcasts=True),
        max_states=500_000,
    )
    assert result.liveness_checked
    assert result.states > 5_000


def test_token_arb_model_verifies_with_liveness():
    # values=1 keeps this fast for the unit suite; the full 2-value
    # configuration runs in benchmarks/bench_sec5_modelcheck.py.
    result = check(
        TokenArbModel(values=1, coarse_sends=True, atomic_broadcasts=True),
        max_states=1_500_000,
    )
    assert result.liveness_checked


def test_token_recreate_model_verifies_with_pinned_counts():
    """The recreation recovery tier is safe under loss, crash and epoch bumps.

    Counts are pinned exactly: any change to the recovery model's
    reachable space (new transitions, changed stamping, a different
    canonicalization) must be a conscious decision.
    """
    result = check(TokenRecreateModel(), max_states=100_000, check_liveness=False)
    assert result.states == 17_640
    assert result.transitions == 102_036
    assert result.diameter == 31


def test_seeded_bug_premature_recreation_completion_caught():
    """Reconstituting tokens before every holder acked must be caught.

    The safety argument for recreation is that memory waits for surrender
    acks from *all* caches; completing one ack early leaves a laggard
    holding live tokens next to the freshly minted full set.
    """

    class Broken(TokenRecreateModel):
        name = "TokenCMP-recreate-premature"

        def transitions(self, state):
            out = []
            for label, nxt in super().transitions(state):
                if label.startswith("ack"):
                    caches, mem, net, wants, ceps, epoch, rec, lost = nxt
                    # BUG: declare victory once n-1 acks arrived.
                    if rec is not None and len(rec) == self.n - 1:
                        nxt = (caches, (self.T, True, mem[2]), net, wants,
                               ceps, epoch, None, (0, False))
                        label = "bad_done"
                out.append((label, nxt))
            return out

    with pytest.raises(VerificationError, match="conservation") as err:
        check(Broken(), max_states=500_000, check_liveness=False)
    assert _text_digest(err) == "c1f638d9fdb638bb4f10f6e9f2fd77c453f5037e5f12cf620a230fb54466ab81"


def test_seeded_bug_memory_granting_during_recreation_caught():
    """Memory must stay mute while a recreation is in flight.

    Tokens granted mid-recreation carry the already-bumped epoch, survive
    the reconstitution, and inflate the post-recovery census.
    """

    class Broken(TokenRecreateModel):
        name = "TokenCMP-recreate-chatty-mem"

        def transitions(self, state):
            out = super().transitions(state)
            caches, mem, net, wants, ceps, epoch, rec, lost = state
            mtok, mown, mval = mem
            # BUG: keep serving transient requests during recreation.
            if rec is not None and mtok > 0 and len(net) < self.net_cap:
                for dst in range(self.n):
                    msg = ("tok", dst, mtok, mown,
                           mval if mown else None, epoch)
                    out.append((
                        f"bad_mem->{dst}",
                        self._mk(state, mem=(0, False, mval),
                                 net=_add(net, msg)),
                    ))
            return out

    with pytest.raises(VerificationError, match="conservation") as err:
        check(Broken(), max_states=500_000, check_liveness=False)
    assert _text_digest(err) == "e7e8926109b4bc7347e70460ea9693f22c1f5b0268da0e23a479391476b843de"


def test_flat_directory_model_verifies():
    result = check(DirFlatModel(), max_states=200_000)
    assert result.states > 1_000


def test_flat_directory_model_verifies_without_migratory():
    """Covers the O/S sharing paths the migratory optimization bypasses."""
    result = check(DirFlatModel(migratory=False), max_states=500_000)
    assert result.states > 1_000


# ---------------------------------------------------------------------------
# Seeded bugs are caught.
# ---------------------------------------------------------------------------
def test_seeded_bug_premature_write_caught():
    """A write with fewer than all tokens must violate value coherence."""

    class Broken(TokenSafetyModel):
        name = "TokenCMP-broken-write"

        def _complete_transitions(self, state, make, on_complete=None):
            out = super()._complete_transitions(state, make, on_complete)
            caches, mem, net, wants = state[:4]
            for i in range(self.n):
                ctok, cown, cval, cdata = caches[i]
                # BUG: allow a write with just one token.
                if wants[i] == "w" and ctok >= 1 and cval:
                    ncache = (ctok, cown, True, (cdata + 1) % self.D)
                    nc = caches[:i] + (ncache,) + caches[i + 1:]
                    nw = wants[:i] + (None,) + wants[i + 1:]
                    out.append((f"bad_write{i}", make(state, caches=nc, wants=nw)))
            return out

    with pytest.raises(VerificationError) as err:
        check(Broken(), max_states=500_000, check_liveness=False)
    assert _text_digest(err) == "89a6c0f71832c06fb7e75f80dd5903568a50f9b8a6e7597352925ccff644ac5a"


def test_seeded_bug_token_duplication_caught():
    """Minting an extra token must violate conservation."""

    class Broken(TokenSafetyModel):
        name = "TokenCMP-broken-mint"

        def _transfer_transitions(self, state, make):
            out = super()._transfer_transitions(state, make)
            caches, mem, net, wants = state[:4]
            ctok, cown, cval, cdata = caches[0]
            if ctok >= 1:
                nc = ((ctok + 1, cown, cval, cdata),) + caches[1:]
                out.append(("mint", make(state, caches=nc)))
            return out

    with pytest.raises(VerificationError, match="conservation") as err:
        check(Broken(), max_states=500_000, check_liveness=False)
    assert _text_digest(err) == "933ab144cb7de9e8e0b26f72fe03ab65956b3a0dad4cfca68bb92fb8a71cc438"


def test_seeded_bug_directory_stale_sharer_caught():
    """A write satisfied from S without invalidations must be caught."""

    class Broken2(DirFlatModel):
        name = "Directory-broken-writeS"

        def _want_and_issue(self, state):
            out = super()._want_and_issue(state)
            caches, directory, mem, net, wants = state
            for i in range(self.n):
                cstate, value, pend = caches[i]
                if wants[i] == "w" and cstate == "S":
                    from repro.verification.dir_model import M, _set

                    nc = _set(caches, i, (M, (value + 1) % self.D, None))
                    nw = wants[:i] + (None,) + wants[i + 1:]
                    out.append((f"bad_write{i}",
                                self._make(state, caches=nc, wants=nw)))
            return out

    # Shared (S) copies only arise without the migratory optimization
    # (with it, a read of a modified block takes the whole block).
    with pytest.raises(VerificationError) as err:
        check(Broken2(migratory=False), max_states=500_000, check_liveness=False)
    assert _text_digest(err) == "85926ac78deb2302e2e42f1aa57b5ec4a18b362a3f01ba7cca9be34500c0bac6"


def test_spec_size_counts_code_lines():
    lines = spec_size(CounterModel)
    assert 5 < lines < 20


class DocstringTailModel(CounterModel):
    """A model whose method docstring closes on a text line."""

    def transitions(self, state):
        """Count up; this docstring closes at the end
        of a text line, not on a line of its own."""
        nxt = (state + 1) % 4
        return [("inc", nxt)]

    def is_quiescent(self, state):
        return state == 0


def test_spec_size_counts_code_after_a_docstring_closing_on_a_text_line():
    # class, def transitions, its two statements, def is_quiescent, return.
    assert spec_size(DocstringTailModel) == 6


# ---------------------------------------------------------------------------
# Symmetry reduction.
# ---------------------------------------------------------------------------
def test_symmetry_reduction_shrinks_safety_model():
    reduced = check(TokenSafetyModel(), max_states=200_000, check_liveness=False)

    class NoSym(TokenSafetyModel):
        name = "TokenCMP-safety-nosym"

        def canonicalize(self, state):
            return state

    full = check(NoSym(), max_states=200_000, check_liveness=False)
    # Near the theoretical 2x for two symmetric processors.
    assert reduced.states < full.states
    assert full.states / reduced.states > 1.8


def test_canonicalize_is_idempotent_and_orbit_stable():
    model = TokenSafetyModel()
    from repro.verification.token_model import _relabel_core, _relabeled

    (state,) = model.initial_states()
    # Walk a few transitions to a non-trivial state.
    for _ in range(4):
        state = model.transitions(state)[0][1]
    canon = model.canonicalize(state)
    assert model.canonicalize(canon) == canon
    for perm in itertools.permutations(range(model.n)):
        relabeled = _relabeled(state, perm, _relabel_core, (2, 3))
        assert model.canonicalize(relabeled) == canon


# ---------------------------------------------------------------------------
# Checker regressions: traces, liveness report, state budget, call counts,
# and the models' memoized repr ordering.
# ---------------------------------------------------------------------------
class GraphModel(Model):
    """An explicit labelled graph from ``"q"``, its only quiescent state."""

    name = "toy-graph"

    def __init__(self, edges, bad=()):
        self.edges = edges
        self.bad = set(bad)

    def initial_states(self):
        return ["q"]

    def transitions(self, state):
        return list(self.edges.get(state, ()))

    def check_invariants(self, state):
        if state in self.bad:
            raise VerificationError(f"reached {state}")

    def is_quiescent(self, state):
        return state == "q"


#: Two routes to ``x``: the BFS-shortest one (q -a-> s1 -c-> x) is found
#: before the longer q -b-> s2 -d-> s3 -e-> x, and s1's own edge to x wins
#: over s2's equally short one because s1 is expanded first.
DIAMOND = {
    "q": [("a", "s1"), ("b", "s2")],
    "s1": [("c", "x"), ("back", "q")],
    "s2": [("d", "s3"), ("f", "x")],
    "s3": [("e", "x")],
}


def test_invariant_counterexample_is_the_bfs_shortest_trace():
    with pytest.raises(VerificationError) as err:
        check(GraphModel(DIAMOND, bad={"x"}))
    assert str(err.value) == (
        "toy-graph: invariant violated: reached x\n"
        "counterexample (most recent last):\n"
        "  initial: 'q'\n"
        "  a -> 's1'\n"
        "  c -> 'x'"
    )


def test_deadlock_counterexample_is_the_bfs_shortest_trace():
    with pytest.raises(VerificationError) as err:
        check(GraphModel(DIAMOND))  # x is the only dead end
    assert str(err.value) == (
        "toy-graph: deadlock (non-quiescent state with no transitions)\n"
        "counterexample (most recent last):\n"
        "  initial: 'q'\n"
        "  a -> 's1'\n"
        "  c -> 'x'"
    )


def test_liveness_reports_stuck_count_and_first_stuck_state():
    # t2 is discovered before t1 (both from s2), and {t2, t1, t3} is a trap
    # the quiescent q can never be reached from again.
    edges = {
        "q": [("a", "s1"), ("b", "s2")],
        "s1": [("back", "q")],
        "s2": [("in2", "t2"), ("in1", "t1"), ("back", "q")],
        "t1": [("spin", "t3")],
        "t2": [("spin", "t1")],
        "t3": [("spin", "t2")],
    }
    messages = set()
    for _ in range(2):
        with pytest.raises(VerificationError) as err:
            check(GraphModel(edges))
        messages.add(str(err.value))
    assert messages == {
        "toy-graph: liveness violated — 3 states cannot reach quiescence, "
        "e.g. 't2'"
    }


class Chain(Model):
    """0 -> 1 -> ... -> length-1, counting ``transitions`` calls."""

    name = "toy-chain"

    def __init__(self, length):
        self.length = length
        self.expanded = 0

    def initial_states(self):
        return [0]

    def transitions(self, state):
        self.expanded += 1
        return [("inc", state + 1)] if state + 1 < self.length else []

    def is_quiescent(self, state):
        return True


@pytest.mark.parametrize("k", [1, 2, 7])
def test_state_budget_raises_exactly_when_state_k_plus_1_is_discovered(k):
    assert check(Chain(k), max_states=k).states == k
    model = Chain(k + 1)
    with pytest.raises(VerificationError, match=f"exceeds {k} states"):
        check(model, max_states=k)
    # State k+1 (id k) is discovered while expanding state k (id k-1).
    assert model.expanded == k


def test_is_quiescent_runs_once_per_state():
    class Counting(CounterModel):
        def __init__(self):
            self.calls = {}

        def is_quiescent(self, state):
            self.calls[state] = self.calls.get(state, 0) + 1
            return super().is_quiescent(state)

    for liveness in (True, False):
        model = Counting()
        result = check(model, check_liveness=liveness)
        assert model.calls == {0: 1, 1: 1, 2: 1, 3: 1}
        assert result.quiescent_states == 1


def test_checker_skips_only_the_inherited_identity_canonicalize(monkeypatch):
    calls = []

    def counting(self, state):
        calls.append(state)
        return state

    monkeypatch.setattr(Model, "canonicalize", counting)
    check(CounterModel())
    assert calls == []  # the inherited identity is never called

    class Overriding(CounterModel):
        def canonicalize(self, state):
            return counting(self, state)

    check(Overriding())
    assert len(calls) == 5  # the initial state and four successors
    model = CounterModel()
    model.canonicalize = lambda state: counting(model, state)
    check(model)
    assert len(calls) == 10


@pytest.mark.parametrize("make_model", [CounterModel, lambda: Chain(3)])
def test_checker_restores_the_garbage_collector(make_model):
    import gc

    seen = []

    class Watching(Model):
        def __init__(self):
            self.inner = make_model()

        def initial_states(self):
            return self.inner.initial_states()

        def transitions(self, state):
            seen.append(gc.isenabled())
            return self.inner.transitions(state)

        def is_quiescent(self, state):
            return False  # Chain(3) then deadlocks: the error path

    assert gc.isenabled()
    try:
        check(Watching(), check_liveness=False)
    except VerificationError:
        pass
    assert gc.isenabled() and seen and not any(seen)
    gc.disable()
    try:
        check(CounterModel())
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_checker_graph_store_peak_memory_on_token_dst():
    """The explored graph lives in flat int32 arrays, not per-state tuples
    and predecessor lists, and each state slot is stored once per distinct
    value at its position: the ``tracemalloc`` peak of the TokenCMP-dst
    liveness check (model memos included) stays at or under 16 MB.  The
    list-based store peaked at about 30 MB, the int32 store with a fresh
    copy of every slot at about 18.5 MB."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = check(TokenDstModel(coarse_sends=True, atomic_broadcasts=True),
                       check_liveness=True)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()
    assert result.states == 49464
    assert peak <= 16_000_000, f"peak {peak / 1e6:.2f} MB"


class FreshSlotsModel(Model):
    """Two counters (mod 4 and mod 3) kept in one-item slot tuples that
    every transition builds afresh; records each state the checker
    stores, as ``check_invariants`` receives it."""

    name = "toy-fresh-slots"

    def __init__(self):
        self.stored = []

    def initial_states(self):
        return [((0,), (0,))]

    def transitions(self, state):
        (a,), (b,) = state
        return [("a", (((a + 1) % 4,), (b,))), ("b", ((a,), ((b + 1) % 3,)))]

    def check_invariants(self, state):
        self.stored.append(state)

    def is_quiescent(self, state):
        return state == ((0,), (0,))


def test_checker_stores_one_object_per_distinct_slot_value_per_position():
    model = FreshSlotsModel()
    result = check(model)
    assert result.states == len(model.stored) == 12
    for pos, distinct in ((0, 4), (1, 3)):
        assert len({state[pos] for state in model.stored}) == distinct
        assert len({id(state[pos]) for state in model.stored}) == distinct


class EqualButDistinctModel(Model):
    """Position 0 holds ``(n, False)`` and position 1 ``(n, 0)``: equal
    slot values that print differently.  The invariant fails at n = 2."""

    name = "toy-equal-slots"

    def initial_states(self):
        return [((0, False), (0, 0))]

    def transitions(self, state):
        n = (state[1][0] + 1) % 3
        return [("step", ((n, False), (n, 0)))]

    def check_invariants(self, state):
        if state[1][0] == 2:
            raise VerificationError("n reached 2")

    def is_quiescent(self, state):
        return True


def test_interned_slots_keep_their_own_reprs_in_a_trace():
    """Slot tables are per position: one shared table would store the
    initial state's ``(0, 0)`` as the equal ``(0, False)`` before it."""
    with pytest.raises(VerificationError) as err:
        check(EqualButDistinctModel())
    assert str(err.value) == (
        "toy-equal-slots: invariant violated: n reached 2\n"
        "counterexample (most recent last):\n"
        "  initial: ((0, False), (0, 0))\n"
        "  step -> ((1, False), (1, 0))\n"
        "  step -> ((2, False), (2, 0))"
    )


def test_checker_stores_non_tuple_states_as_they_are():
    class Recording(CounterModel):
        def __init__(self):
            self.stored = []

        def check_invariants(self, state):
            self.stored.append(state)

    model = Recording()
    assert check(model).states == 4
    assert model.stored == [0, 1, 2, 3]


def _sample_states(model, limit=400):
    """The first ``limit`` canonical states in BFS order."""
    seen = {}
    frontier = [model.canonicalize(s) for s in model.initial_states()]
    while frontier and len(seen) < limit:
        state = frontier.pop(0)
        if state in seen:
            continue
        seen[state] = None
        frontier.extend(model.canonicalize(n) for _l, n in model.transitions(state))
    return list(seen)


def test_memoized_repr_matches_repr_on_real_states():
    """The memos serve every model in one process, so sample all of them
    before checking any: a value one model memoizes must not change the
    key another model's equal-but-differently-typed value gets."""
    from repro.verification.token_model import _state_repr

    samples = [
        (_sample_states(model), net_slot) for model, net_slot in (
            (TokenSafetyModel(), 2),
            (TokenDstModel(coarse_sends=True), 2),
            (TokenArbModel(coarse_sends=True), 2),
            (TokenRecreateModel(), 2),
            (DirFlatModel(), 3),
        )
    ]
    for states, net_slot in samples:
        for state in states:
            _state_repr(state)
    for states, net_slot in samples:
        messages = {m for s in states for m in s[net_slot]}
        assert len(states) == 400 and messages
        for state in states:
            assert _state_repr(state) == repr(state)
            net = state[net_slot]
            for msg in messages:
                assert _add(net, msg) == tuple(sorted(net + (msg,), key=repr))
