"""The token models' move memos: less work, per-instance, free to build.

Each move group of a token model (want, transfer, completion, dst
persist/forward, recreation recovery) is computed once per distinct value
of the state slots it reads and spliced into every state sharing that
value.  The transition stream itself is pinned in ``test_canonicalize``;
these tests pin the work saved and the memos' scope.
"""

import pytest

from repro.verification import token_model
from repro.verification.checker import check
from repro.verification.dir_model import DirFlatModel
from repro.verification.token_model import (
    TokenDstModel,
    TokenRecreateModel,
    TokenSafetyModel,
)


def _fast_models():
    """The ``python -m repro verify --fast`` model set."""
    return [
        TokenSafetyModel(),
        TokenDstModel(coarse_sends=True, atomic_broadcasts=True),
        TokenRecreateModel(),
        DirFlatModel(),
    ]


def test_dst_check_absorbs_once_per_distinct_transfer_key(monkeypatch):
    """Deliveries are computed per distinct ``(caches, mem, net)`` (1,340
    of them), not per state (49,464 states, 46,240 ``_absorb`` calls)."""
    calls = []
    absorb = token_model._absorb

    def counting(*args):
        calls.append(args)
        return absorb(*args)

    monkeypatch.setattr(token_model, "_absorb", counting)
    result = check(TokenDstModel(coarse_sends=True, atomic_broadcasts=True))
    assert result.states == 49_464
    assert len(calls) <= 1_300


def test_dst_forward_memo_keys_on_active_entries():
    """Forwarding reads only each site's active persistent entry, so its
    memo is keyed on those (13 distinct tables, all but one with an
    active entry), not on the whole tables: 2,552 keys, where keying on
    the tables held 17,384."""
    model = TokenDstModel(coarse_sends=True, atomic_broadcasts=True)
    assert check(model).states == 49_464
    assert len(model._memo["_forward_moves"]) <= 3_400


def _walk(model):
    """Breadth-first exploration yielding once per state; its return
    value is ``(states, transitions)``, as :func:`check` counts them."""
    canonicalize = model.canonicalize
    states = [canonicalize(s) for s in model.initial_states()]
    seen = set(states)
    transitions = 0
    for state in states:
        succs = model.transitions(state)
        transitions += len(succs)
        for _label, nxt in succs:
            nxt = canonicalize(nxt)
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
        yield
    return len(states), transitions


@pytest.mark.parametrize("make_pair", [
    lambda: (TokenSafetyModel(), TokenSafetyModel(net_cap=1)),
    lambda: (TokenRecreateModel(), TokenRecreateModel(net_cap=1)),
], ids=["safety", "recreate"])
def test_interleaved_instances_keep_their_own_memos(make_pair):
    """Two instances with different parameters, explored one state each
    in turn, count exactly what each counts when checked alone."""
    walks = list(make_pair())
    alone = [check(m, check_liveness=False) for m in make_pair()]
    walks = [_walk(m) for m in walks]
    counts = [None, None]
    while None in counts:
        for k, walk in enumerate(walks):
            if counts[k] is None:
                try:
                    next(walk)
                except StopIteration as done:
                    counts[k] = done.value
    assert counts == [(r.states, r.transitions) for r in alone]
    assert counts[0] != counts[1]


def test_fresh_models_allocate_no_memo():
    """Memos are created on first use: building the fast model set (the
    benchmark's set-up) allocates nothing beyond the parameters."""
    params = ["D", "T", "atomic_broadcasts", "coarse_sends", "n", "net_cap"]
    assert [sorted(m.__dict__) for m in _fast_models()] == [
        params, params, params, ["D", "migratory", "n", "net_cap"],
    ]


def test_memo_is_created_on_first_transitions_call():
    model = TokenSafetyModel()
    (state,) = model.initial_states()
    first = model.transitions(state)
    assert "_memo" in model.__dict__
    assert model.transitions(state) == first
    assert model.transitions(state) is not first
