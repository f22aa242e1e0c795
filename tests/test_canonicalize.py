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
