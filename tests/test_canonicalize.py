"""Symmetry-reduction (Model.canonicalize) coverage.

Three angles, per the paper's Section 5 technique list:

* a toy fully-symmetric model where the quotient is computable by hand:
  reduction shrinks the reachable set by the expected factor and
  preserves every verdict (safety, deadlock freedom, liveness) and the
  BFS diameter;
* sound reduction preserves *violation* detection on a seeded bug;
* a soundness regression: an unsound canonicalizer (one that folds
  inequivalent states together) hides the seeded bug, and the
  reduced-vs-full verdict cross-check detects the disagreement.

Plus pinned state/transition counts for the real protocol models, so an
accidental change to transition enumeration (e.g. a nondeterministic
iteration order creeping back in) fails loudly, and pinned transition
streams: a sha256 over ``repr(model.transitions(state))`` for every state
in the checker's BFS order, which also catches a change of successor
order, label or printed form that leaves the counts alone.
"""

import hashlib
import itertools

import pytest

from repro.common.errors import VerificationError
from repro.verification.checker import Model, check
from repro.verification.dir_model import DirFlatModel
from repro.verification.token_model import (
    TokenArbModel,
    TokenDstModel,
    TokenRecreateModel,
    TokenSafetyModel,
    _canonical,
    _relabel_core,
    _relabeled,
    _state_repr,
)


# ---------------------------------------------------------------------------
# Toy model: N symmetric processes passing T conserved tokens.
# ---------------------------------------------------------------------------
class ToyTokenRing(Model):
    """State: per-process token counts.  Fully symmetric by construction.

    ``leak=True`` seeds a conservation bug: a process holding >= 3 tokens
    can drop one (reachable only at depth >= 1 from the initial state).
    """

    name = "toy-ring"

    def __init__(self, n: int = 3, t: int = 4, leak: bool = False):
        self.n = n
        self.t = t
        self.leak = leak

    def initial_states(self):
        yield (self.t,) + (0,) * (self.n - 1)

    def transitions(self, state):
        out = []
        for i, held in enumerate(state):
            if held == 0:
                continue
            for j in range(self.n):
                if j == i:
                    continue
                nxt = list(state)
                nxt[i] -= 1
                nxt[j] += 1
                out.append((f"pass{i}->{j}", tuple(nxt)))
            if self.leak and held >= 3:
                nxt = list(state)
                nxt[i] -= 1  # token destroyed: breaks conservation
                out.append((f"leak{i}", tuple(nxt)))
        return out

    def check_invariants(self, state):
        if sum(state) != self.t:
            raise VerificationError(
                f"conservation violated: {sum(state)} != {self.t} in {state}"
            )

    def is_quiescent(self, state):
        return max(state) == self.t  # permutation-invariant


class ToyTokenRingReduced(ToyTokenRing):
    name = "toy-ring-reduced"

    def canonicalize(self, state):
        return tuple(sorted(state))


class ToyTokenRingUnsound(ToyTokenRing):
    """Deliberately unsound: folds conservation-violating states onto the
    initial state, so the checker can never see them."""

    name = "toy-ring-unsound"

    def canonicalize(self, state):
        if sum(state) != self.t:
            return (self.t,) + (0,) * (self.n - 1)
        return tuple(sorted(state))


def _verdict(model, **kw):
    """The cross-check key for reduction soundness: the verdict alone.

    (Diameter is *not* preserved by a quotient — a far orbit can have a
    near representative — so only the ok/violation outcome is compared.)
    """
    try:
        check(model, **kw)
        return "ok"
    except VerificationError:
        return "violation"


def test_toy_reduction_shrinks_and_preserves_verdicts():
    full = check(ToyTokenRing())
    reduced = check(ToyTokenRingReduced())
    # Compositions of 4 into 3 parts vs partitions of 4 into <= 3 parts.
    assert full.states == 15
    assert reduced.states == 4
    assert full.quiescent_states == 3  # (4,0,0) in each position
    assert reduced.quiescent_states == 1
    assert full.liveness_checked and reduced.liveness_checked


def test_toy_reduction_preserves_violation_detection():
    with pytest.raises(VerificationError):
        check(ToyTokenRing(leak=True))
    with pytest.raises(VerificationError):
        check(ToyTokenRingReduced(leak=True))


def test_unsound_canonicalizer_detected_by_cross_check():
    # The unsound reduction silently hides the seeded bug...
    assert _verdict(ToyTokenRingUnsound(leak=True)) == "ok"
    # ...and the reduced-vs-full cross-check is what catches it.
    assert _verdict(ToyTokenRing(leak=True)) != _verdict(
        ToyTokenRingUnsound(leak=True)
    )
    # A sound reduction passes the same cross-check.
    assert _verdict(ToyTokenRing(leak=True)) == _verdict(
        ToyTokenRingReduced(leak=True)
    )
    assert _verdict(ToyTokenRing()) == _verdict(ToyTokenRingReduced())


def test_toy_canonicalize_is_idempotent_and_orbit_stable():
    model = ToyTokenRingReduced()
    state = (1, 3, 0)
    canon = model.canonicalize(state)
    assert model.canonicalize(canon) == canon
    for perm in itertools.permutations(range(model.n)):
        permuted = tuple(state[p] for p in perm)
        assert model.canonicalize(permuted) == canon


# ---------------------------------------------------------------------------
# The real models' canonicalizer against its definition.
# ---------------------------------------------------------------------------
def _brute_force(state, relabel, slots):
    """The canonical form by definition: the relabeling that prints least."""
    perms = itertools.permutations(range(len(state[0])))
    return min((_relabeled(state, perm, relabel, slots) for perm in perms),
               key=_state_repr)


def _safety_oracle(model, state):
    return _brute_force(state, _relabel_core, (2, 3))


def _arb_oracle(model, state):
    return _brute_force(state, model._relabel, (2, 3, 4, 5, 6, 7))


def _reached(model, limit=None):
    """Every state the checker hands to ``canonicalize`` while exploring
    the first ``limit`` canonical states (all of them by default): the
    initial states and their successors, in BFS order, each once."""
    seen, known, order, sid = set(), set(), [], 0
    batch = list(model.initial_states())
    while True:
        for state in batch:
            if state not in seen:
                seen.add(state)
                yield state
            canon = model.canonicalize(state)
            if canon not in known:
                known.add(canon)
                order.append(canon)
        if sid == len(order) or sid == limit:
            return
        batch = [nxt for _label, nxt in model.transitions(order[sid])]
        sid += 1


def _assert_matches_oracle(model, oracle, states):
    count = 0
    for state in states:
        fast, slow = model.canonicalize(state), oracle(model, state)
        assert fast == slow and repr(fast) == repr(slow), state
        count += 1
    return count


def _three_caches():
    return TokenSafetyModel(n_caches=3, total_tokens=4)


@pytest.mark.parametrize("make_model, oracle, limit", [
    (TokenSafetyModel, _safety_oracle, None),
    (_three_caches, _safety_oracle, 5_000),
    pytest.param(_three_caches, _safety_oracle, None, marks=pytest.mark.tier2),
    (lambda: TokenArbModel(coarse_sends=True, atomic_broadcasts=True),
     _arb_oracle, 20_000),
], ids=["safety", "safety-3-caches-first-5k", "safety-3-caches", "arb-first-20k"])
def test_canonicalize_matches_the_brute_force_minimum(make_model, oracle, limit):
    """Every state a check reaches (``limit`` bounds the canonical states
    explored) against the brute-force minimum; the full three-cache run
    takes about 20 s."""
    model = make_model()
    assert _assert_matches_oracle(model, oracle, _reached(model, limit)) > 1000


_IDLE = (0, False, False, 0)


@pytest.mark.parametrize("net, wants", [
    ((), ("w", None)),
    ((), (None, "w")),
    ((), ("r", "w")),
    ((), ("r", "r")),
    ((("tok", 0, 3, True, 0),), (None, None)),
    ((("tok", 1, 3, True, 0),), ("r", None)),
    ((("tok", 0, 1, False, None), ("tok", 1, 2, True, 1)), ("w", None)),
    ((("tok", 1, 1, False, None), ("tok", "mem", 2, True, 1)), (None, "r")),
])
def test_canonicalize_breaks_cache_ties_on_net_then_wants(net, wants):
    model = TokenSafetyModel()
    net = tuple(sorted(net, key=repr))  # as the model keeps it
    state = ((_IDLE, _IDLE), (3 - sum(m[2] for m in net), not net, 0), net, wants)
    canon = model.canonicalize(state)
    assert canon == _safety_oracle(model, state)
    assert repr(canon) == repr(_safety_oracle(model, state))


@pytest.mark.parametrize("site_act, arb, chan, pr", [
    ((None, None, None), ((), None), ((("req", True),), ()), ("req", None)),
    ((None, None, None), ((), None), ((), (("req", True),)), (None, "req")),
    (((1, False),) * 3, (((0, True),), (1, False)), ((), ()), ("req", "req")),
    (((0, False),) * 3, (((1, True),), (0, False)), ((), ()), ("req", "req")),
    ((None, None, None), (((1, True), (0, False)), None), ((), ()), ("req", "req")),
    ((None, None, None), ((), None), ((("deact",),), (("deact",),)), (None, None)),
])
def test_arb_canonicalize_breaks_ties_on_the_arbiter_slots(site_act, arb, chan, pr):
    model = TokenArbModel(coarse_sends=True, atomic_broadcasts=True)
    state = ((_IDLE, _IDLE), (3, True, 0), (), ("r", "r"), site_act, arb, chan, pr)
    canon = model.canonicalize(state)
    assert canon == _arb_oracle(model, state)
    assert repr(canon) == repr(_arb_oracle(model, state))


# ---------------------------------------------------------------------------
# Message mode: in-flight persistent-request messages name processors too.
# ---------------------------------------------------------------------------
def _arb_orbit(state):
    """Every processor relabeling of an arbiter-model state, written out
    here from the model's state layout alone (none of the model's
    relabeling helpers): the orbit the canonical form must come from."""
    caches, mem, net, wants, site_act, arb, chan, pr = state
    n = len(caches)

    def site(s, perm):
        return perm[s] if s < n else s

    def msg(m, perm):
        if m[0] == "tok":
            return m[:1] + (m[1] if m[1] == "mem" else perm[m[1]],) + m[2:]
        if m[0] == "act":
            return ("act", site(m[1], perm), perm[m[2]], m[3])
        assert m[0] == "clear", m
        return ("clear", site(m[1], perm))

    def moved(entries, perm):
        out = [None] * n
        for old, new in enumerate(perm):
            out[new] = entries[old]
        return tuple(out)

    def active(entry, perm):
        return None if entry is None else (perm[entry[0]], entry[1])

    for perm in itertools.permutations(range(n)):
        queue, act = arb
        yield (
            moved(caches, perm),
            mem,
            tuple(sorted((msg(m, perm) for m in net), key=repr)),
            moved(wants, perm),
            tuple(active(e, perm) for e in moved(site_act[:n], perm) + site_act[n:]),
            (tuple((perm[p], r) for p, r in queue), active(act, perm)),
            moved(chan, perm),
            moved(pr, perm),
        )


def _assert_least_in_orbit(model, state):
    canon = model.canonicalize(state)
    orbit = list(_arb_orbit(state))
    assert canon in orbit, state
    assert repr(canon) == min(repr(s) for s in orbit), state


def test_arb_message_mode_relabels_processors_inside_act_messages():
    """A reachable message-mode state whose ``act`` messages all name
    processor 0: relabeling must rename them with the arbiter's active
    request, or the result leaves the state's orbit (``arb`` and ``pr``
    say processor 1 while every ``act`` still says 0)."""
    model = TokenArbModel(values=1, coarse_sends=True)
    state = (
        ((0, False, False, 0), (0, False, False, 0)), (3, True, 0),
        (("act", 0, 0, False), ("act", 1, 0, False), ("act", 2, 0, False)),
        ("w", "r"), (None, None, None), ((), (0, False)), ((), ()), ("req", None),
    )
    assert model.canonicalize(state) == state
    swapped = list(_arb_orbit(state))[1]
    assert swapped[2] == (
        ("act", 0, 1, False), ("act", 1, 1, False), ("act", 2, 1, False))
    assert model.canonicalize(swapped) == state
    _assert_least_in_orbit(model, state)


def test_arb_message_mode_canonical_forms_are_least_in_their_orbit():
    """The first 20,000 canonical states of the message-mode arbiter
    model (``examples/verify_protocols.py`` checks it; the whole space is
    past 3M states), each state reached checked against its orbit."""
    model = TokenArbModel(values=1, coarse_sends=True)
    count = 0
    kinds = set()
    for state in _reached(model, 20_000):
        _assert_least_in_orbit(model, state)
        kinds.update(m[0] for m in state[2])
        count += 1
    assert count > 20_000 and kinds == {"tok", "act", "clear"}


@pytest.mark.parametrize("caches, wants", [
    (((0, False, False, 0), (3, True, True, 1)), (None, "w")),
    ((_IDLE, _IDLE), ("w", None)),  # a cache tie, decided by wants
])
def test_canonicalize_returns_the_state_itself_when_it_is_canonical(caches, wants):
    model = TokenSafetyModel()
    state = (caches, (0, False, 0), (), wants)
    assert model.canonicalize(state) is state
    swapped = _relabeled(state, (1, 0), _relabel_core, (2, 3))
    assert swapped != state and model.canonicalize(swapped) == state


class _Printed(str):
    """A string that prints bare, so one value's repr can be a proper
    prefix of another's."""

    __repr__ = str.__str__


def test_canonicalize_compares_whole_reprs_when_a_slot_changes_length():
    """A slot whose candidate reprs differ in length cannot decide alone:
    ``A`` sorts before ``A(``, yet ``(..., A)`` sorts after ``(..., A()``.
    The candidates left are then compared whole."""
    names = ("A", "A(")

    def relabel(state, perm, slot):  # slot 2 names a processor
        return _Printed(names[perm[names.index(state[2])]])

    for name in names:
        state = ((_IDLE, _IDLE), "mem", _Printed(name))
        fast = _canonical(state, relabel, (2,))
        slow = _brute_force(state, relabel, (2,))
        assert fast == slow and repr(fast) == repr(slow)
        assert fast[2] == "A("


# ---------------------------------------------------------------------------
# Pinned exploration sizes for the real models.
# ---------------------------------------------------------------------------
def _checked_stream(model, **kw):
    """``check(model, **kw)`` plus the sha256 of its transition stream."""
    digest = hashlib.sha256()
    transitions = model.transitions

    def hashed(state):
        out = transitions(state)
        digest.update(repr(out).encode())
        return out

    model.transitions = hashed
    return check(model, **kw), digest.hexdigest()


@pytest.mark.parametrize("make_model, liveness, sha", [
    (TokenSafetyModel, False,
     "31030337e1ce005c617ac8d9c59cec029275e0613dc0d30e46b260e9ff254bd3"),
    (lambda: TokenDstModel(coarse_sends=True, atomic_broadcasts=True), True,
     "01268608e9a6f03edfe20cf4879026b8e4aaaa6a08906bb08dfb4661014140cf"),
    (TokenRecreateModel, False,
     "787fba947d2a14c3e20c1c042d7365437b57b21c7e7fceb831b94ca086ea195b"),
    (DirFlatModel, True,
     "ef55b17b6c3d7e45645e57debcf72611df203c670fd3653234bf10453941ff9b"),
], ids=["safety", "dst", "recreate", "dir-flat"])
def test_transition_stream_pinned_verify_fast(make_model, liveness, sha):
    """The ``verify --fast`` models' successor lists, byte for byte."""
    _result, stream = _checked_stream(make_model(), check_liveness=liveness)
    assert stream == sha


def test_checker_counts_pinned_token_safety():
    result = check(TokenSafetyModel(), check_liveness=False)
    assert result.to_dict() == {
        "model": "TokenCMP-safety",
        "states": 6168,
        "transitions": 30082,
        "diameter": 20,
        "quiescent_states": 52,
        "liveness_checked": False,
    }


def test_checker_counts_pinned_dir_flat():
    result = check(DirFlatModel())
    assert result.to_dict() == {
        "model": "DirectoryCMP-flat",
        "states": 3490,
        "transitions": 8952,
        "diameter": 28,
        "quiescent_states": 10,
        "liveness_checked": True,
    }


def test_checker_counts_pinned_token_dst():
    result = check(TokenDstModel(coarse_sends=True, atomic_broadcasts=True))
    assert result.to_dict() == {
        "model": "TokenCMP-dst",
        "states": 49464,
        "transitions": 235912,
        "diameter": 34,
        "quiescent_states": 98,
        "liveness_checked": True,
    }


@pytest.mark.tier2
def test_checker_counts_pinned_token_arb_full():
    """The full ``python -m repro verify`` arb model (about two minutes)."""
    result, stream = _checked_stream(
        TokenArbModel(coarse_sends=True, atomic_broadcasts=True))
    assert stream == "e4e9a131a61fee12de92f70b2c6f705dc7ad8a16718d163e8c910373293cbffb"
    assert result.to_dict() == {
        "model": "TokenCMP-arb",
        "states": 444360,
        "transitions": 2886922,
        "diameter": 45,
        "quiescent_states": 52,
        "liveness_checked": True,
    }


@pytest.mark.tier2
def test_checker_counts_pinned_token_safety_three_caches():
    """The Section 5 bench's wider safety configuration (about 15 s)."""
    result, stream = _checked_stream(
        TokenSafetyModel(n_caches=3, total_tokens=4), check_liveness=False)
    assert stream == "446f6ff935f5e173de1426996205f6cd2d26ed32faad0c4da25815fbde9a2f6c"
    assert result.to_dict() == {
        "model": "TokenCMP-safety",
        "states": 71276,
        "transitions": 496798,
        "diameter": 23,
        "quiescent_states": 140,
        "liveness_checked": False,
    }


def test_to_dict_excludes_elapsed_time():
    result = check(ToyTokenRingReduced())
    assert "elapsed_s" not in result.to_dict()
    assert result.elapsed_s >= 0.0
