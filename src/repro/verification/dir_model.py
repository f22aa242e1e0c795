"""Down-scaled flat directory-protocol model (Section 5 comparison).

The paper compares TokenCMP's model-checking effort against "a simplified,
non-hierarchical version of DirectoryCMP in which all intra-CMP details
are omitted": a flat MOSI directory with per-block busy states, forwarded
requests, invalidation acks collected at the requestor, unblock messages,
three-phase writebacks and the migratory-sharing optimization.  This
module is that model.

Even flattened, the directory protocol needs many more moving parts than
the token substrate — transient cache states (IS, IM, IMo, WB), a busy
bit with a request queue at the directory, ack counting, and
writeback-race cancellation — which is exactly the complexity asymmetry
the paper's TLA+ line counts (383-396 vs 1025) capture.

State encoding (hashable tuples):
  cache = (state, value, pend)       state in I,S,O,M,IS,IM,IMo,WB
                                     pend: IM/IMo -> (has_data, data, acks_left)
                                           WB     -> (value, cancelled)
  dir   = (state, owner, sharers, busy, queue)   state in I,S,O,M
  mem   = value
  net   = sorted tuple of in-flight messages
  wants = per-proc pending op: None | 'r' | 'w'
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.errors import VerificationError
from repro.verification.checker import Model
from repro.verification.token_model import _add, _remove

I, S, O, M = "I", "S", "O", "M"
IS, IM, IMO, WB = "IS", "IM", "IMo", "WB"


class DirFlatModel(Model):
    """Flat MOSI directory with busy states and three-phase writebacks."""

    name = "DirectoryCMP-flat"

    def __init__(self, n_caches: int = 2, values: int = 2, net_cap: int = 3,
                 migratory: bool = True):
        self.n = n_caches
        self.D = values
        self.net_cap = net_cap
        self.migratory = migratory

    def initial_states(self):
        caches = tuple((I, 0, None) for _ in range(self.n))
        directory = (I, None, (), False, ())
        wants = tuple(None for _ in range(self.n))
        return [(caches, directory, 0, (), wants)]

    @staticmethod
    def _make(state, caches=None, directory=None, mem=None, net=None, wants=None):
        c, d, m, n, w = state
        return (
            caches if caches is not None else c,
            directory if directory is not None else d,
            mem if mem is not None else m,
            net if net is not None else n,
            wants if wants is not None else w,
        )

    # ------------------------------------------------------------------
    def transitions(self, state) -> List[Tuple[str, object]]:
        caches, directory, mem, net, wants = state
        out = []
        out += self._want_and_issue(state)
        out += self._dir_transitions(state)
        out += self._cache_deliveries(state)
        out += self._evictions(state)
        return out

    # -- processor side ----------------------------------------------------
    def _want_and_issue(self, state):
        caches, directory, mem, net, wants = state
        out = []
        for i in range(self.n):
            cstate, value, pend = caches[i]
            if wants[i] is None:
                if cstate in (I, S, O, M):  # no new want mid-transaction
                    for op in ("r", "w"):
                        nw = wants[:i] + (op,) + wants[i + 1:]
                        out.append((f"want_{op}{i}", self._make(state, wants=nw)))
                continue
            # Hits complete immediately.
            if wants[i] == "r" and cstate in (S, O, M):
                nw = wants[:i] + (None,) + wants[i + 1:]
                out.append((f"read_hit{i}", self._make(state, wants=nw)))
            elif wants[i] == "w" and cstate == M:
                nc = _set(caches, i, (M, (value + 1) % self.D, None))
                nw = wants[:i] + (None,) + wants[i + 1:]
                out.append((f"write_hit{i}", self._make(state, caches=nc, wants=nw)))
            # Misses issue requests to the directory.
            elif wants[i] == "r" and cstate == I and len(net) < self.net_cap:
                nc = _set(caches, i, (IS, 0, None))
                out.append((f"gets{i}", self._make(
                    state, caches=nc, net=_add(net, ("gets", i)))))
            elif wants[i] == "w" and cstate in (I, S, O) and len(net) < self.net_cap:
                nstate = IMO if cstate == O else IM
                # pend = (has_data, data, acks_expected, acks_got)
                pend = (cstate == O, value if cstate == O else 0, None, 0)
                nc = _set(caches, i, (nstate, value, pend))
                out.append((f"getx{i}", self._make(
                    state, caches=nc, net=_add(net, ("getx", i)))))
        return out

    # -- directory side ------------------------------------------------------
    def _dir_transitions(self, state):
        caches, directory, mem, net, wants = state
        dstate, owner, sharers, busy, queue = directory
        out = []
        # dict.fromkeys: dedup like set() but in net's sorted-by-repr order,
        # so transition enumeration is reproducible across processes.
        for msg in dict.fromkeys(net):
            kind = msg[0]
            if kind in ("gets", "getx", "wb_req"):
                if busy:
                    ndir = (dstate, owner, sharers, busy, queue + (msg,))
                    out.append((f"defer_{kind}", self._make(
                        state, directory=ndir, net=_remove(net, msg))))
                else:
                    out.append((f"dir_{kind}", self._dir_process(
                        state, msg, _remove(net, msg))))
            elif kind == "unblock":
                _k, i, granted = msg
                ns = sharers
                nowner, nstate = owner, dstate
                if granted == M:
                    nowner, ns, nstate = i, (), M
                else:
                    ns = tuple(sorted(set(sharers) | {i}))
                    nstate = O if nowner is not None else S
                ndir = (nstate, nowner, ns, False, queue)
                out.append(("dir_unblock", self._pop_queue(self._make(
                    state, directory=ndir, net=_remove(net, msg)))))
            elif kind == "wb_data":
                _k, i, value, cancelled = msg
                nmem, nowner, ns, nstate = mem, owner, sharers, dstate
                if not cancelled:
                    nmem = value
                if nowner == i:
                    nowner = None
                    nstate = S if ns else I
                ns = tuple(x for x in ns if x != i)
                if nstate == S and not ns:
                    nstate = I
                ndir = (nstate, nowner, ns, False, queue)
                out.append(("dir_wb_data", self._pop_queue(self._make(
                    state, directory=ndir, mem=nmem, net=_remove(net, msg)))))
        return out

    def _dir_process(self, state, msg, net):
        """Start one transaction at the (idle) directory: become busy."""
        caches, directory, mem, _old_net, wants = state
        dstate, owner, sharers, busy, queue = directory
        kind = msg[0]
        if kind == "wb_req":
            i = msg[1]
            net = _add(net, ("wb_grant", i))
            ndir = (dstate, owner, sharers, True, queue)
            return self._make(state, directory=ndir, net=net)
        i = msg[1]
        if kind == "gets":
            if dstate == I:
                net = _add(net, ("data", i, mem, M, 0))  # exclusive grant
            elif dstate == S:
                net = _add(net, ("data", i, mem, S, 0))
            else:  # M or O: forward to owner; migratory hand-off if dirty-M
                migrate = self.migratory and dstate == M
                net = _add(net, ("fwd_s", owner, i, migrate))
        else:  # getx
            others = tuple(x for x in sharers if x != i)
            for j in others:
                net = _add(net, ("inv", j, i))
            if dstate in (I, S):
                net = _add(net, ("data", i, mem, M, len(others)))
            else:
                net = _add(net, ("fwd_x", owner, i, len(others)))
        ndir = (dstate, owner, sharers, True, queue)
        return self._make(state, directory=ndir, net=net)

    def _pop_queue(self, state):
        """After unbusying, restart the oldest deferred request, if any."""
        caches, directory, mem, net, wants = state
        dstate, owner, sharers, busy, queue = directory
        if busy or not queue:
            return state
        nxt, rest = queue[0], queue[1:]
        ndir = (dstate, owner, sharers, False, rest)
        return self._dir_process(self._make(state, directory=ndir), nxt, net)

    # -- cache side ------------------------------------------------------
    def _cache_deliveries(self, state):
        caches, directory, mem, net, wants = state
        out = []
        # dict.fromkeys: dedup like set() but in net's sorted-by-repr order,
        # so transition enumeration is reproducible across processes.
        for msg in dict.fromkeys(net):
            kind = msg[0]
            if kind in ("gets", "getx", "unblock", "wb_req", "wb_data"):
                continue  # directory-side messages
            nnet = _remove(net, msg)
            if kind == "data":
                out.append(("deliver_data", self._on_data(state, msg, nnet)))
            elif kind == "ack":
                out.append(("deliver_ack", self._on_ack(state, msg, nnet)))
            elif kind == "inv":
                out.append(("deliver_inv", self._on_inv(state, msg, nnet)))
            elif kind in ("fwd_s", "fwd_x"):
                out.append((f"deliver_{kind}", self._on_fwd(state, msg, nnet)))
            elif kind == "wb_grant":
                out.append(("deliver_wb_grant", self._on_wb_grant(state, msg, nnet)))
        return [t for t in out if t[1] is not None]

    def _on_data(self, state, msg, net):
        caches, directory, mem, _n, wants = state
        _k, i, value, grant, acks = msg
        cstate, cvalue, pend = caches[i]
        if cstate == IS:
            nc = _set(caches, i, (grant, value, None))
            nw = wants[:i] + (None,) + wants[i + 1:]
            net = _add(net, ("unblock", i, grant))
            return self._make(state, caches=nc, net=net, wants=nw)
        # IM / IMo: record data + expected ack count (acks may have raced
        # ahead of the data message — they were counted in acks_got).
        has_data, data, expected, got = pend
        pend = (True, value, acks, got)
        return self._finish_write(state, i, (cstate, cvalue, pend), net, wants)

    def _on_ack(self, state, msg, net):
        caches, directory, mem, _n, wants = state
        _k, i = msg[:2]
        cstate, cvalue, pend = caches[i]
        has_data, data, expected, got = pend
        pend = (has_data, data, expected, got + 1)
        return self._finish_write(state, i, (cstate, cvalue, pend), net, wants)

    def _finish_write(self, state, i, cache, net, wants):
        caches, directory, mem, _n, _w = state
        cstate, cvalue, pend = cache
        has_data, data, expected, got = pend
        if has_data and expected is not None and got >= expected:
            nc = _set(caches, i, (M, (data + 1) % self.D, None))
            nw = wants[:i] + (None,) + wants[i + 1:]
            net = _add(net, ("unblock", i, M))
            return self._make(state, caches=nc, net=net, wants=nw)
        nc = _set(caches, i, (cstate, cvalue, pend))
        return self._make(state, caches=nc, net=net, wants=wants)

    def _on_inv(self, state, msg, net):
        caches, directory, mem, _n, wants = state
        _k, j, req = msg
        cstate, cvalue, pend = caches[j]
        net = _add(net, ("ack", req))
        if cstate == S:
            nc = _set(caches, j, (I, 0, None))
        elif cstate == WB:
            value, _cancelled = pend
            nc = _set(caches, j, (WB, cvalue, (value, True)))
        elif cstate in (M, O):
            raise VerificationError("directory invalidated the owner")
        else:
            nc = caches  # IS/IM/I: ack and carry on
        return self._make(state, caches=nc, net=net)

    def _on_fwd(self, state, msg, net):
        caches, directory, mem, _n, wants = state
        if msg[0] == "fwd_s":
            _k, j, req, migrate = msg
            acks = 0
        else:
            _k, j, req, acks = msg
            migrate = True  # fwd_x always takes the whole block
        cstate, cvalue, pend = caches[j]
        if cstate == M or cstate == O:
            value = cvalue
            if migrate:
                nc = _set(caches, j, (I, 0, None))
                net = _add(net, ("data", req, value, M, acks))
            else:
                nc = _set(caches, j, (O, cvalue, None))
                net = _add(net, ("data", req, value, S, 0))
        elif cstate == IMO:
            has_data, data, expected, got = pend
            value = data
            if migrate:
                # We surrender our owner data; the getx must now wait for a
                # fresh data grant like any other IM requestor.
                nc = _set(caches, j, (IM, cvalue, (False, 0, expected, got)))
                net = _add(net, ("data", req, value, M, acks))
            else:
                nc = caches
                net = _add(net, ("data", req, value, S, 0))
        elif cstate == WB:
            value, cancelled = pend
            if migrate:
                nc = _set(caches, j, (WB, cvalue, (value, True)))
                net = _add(net, ("data", req, value, M, acks))
            else:
                nc = caches
                net = _add(net, ("data", req, value, S, 0))
        else:
            raise VerificationError(f"forward to a cache in state {cstate}")
        return self._make(state, caches=nc, net=net)

    def _on_wb_grant(self, state, msg, net):
        caches, directory, mem, _n, wants = state
        _k, i = msg
        cstate, cvalue, pend = caches[i]
        if cstate != WB:
            raise VerificationError("writeback grant to a non-WB cache")
        value, cancelled = pend
        net = _add(net, ("wb_data", i, value, cancelled))
        nc = _set(caches, i, (I, 0, None))
        return self._make(state, caches=nc, net=net)

    # -- spontaneous evictions ---------------------------------------------
    def _evictions(self, state):
        caches, directory, mem, net, wants = state
        out = []
        if len(net) >= self.net_cap:
            return out
        for i in range(self.n):
            cstate, cvalue, pend = caches[i]
            if wants[i] is not None:
                continue
            if cstate in (M, O):
                nc = _set(caches, i, (WB, cvalue, (cvalue, False)))
                out.append((f"evict_dirty{i}", self._make(
                    state, caches=nc, net=_add(net, ("wb_req", i)))))
            elif cstate == S:
                nc = _set(caches, i, (I, 0, None))
                out.append((f"evict_clean{i}", self._make(state, caches=nc)))
        return out

    # ------------------------------------------------------------------
    def check_invariants(self, state) -> None:
        caches, directory, mem, net, wants = state
        owners = []
        for i, (cstate, value, pend) in enumerate(caches):
            if cstate == M:
                owners.append(value)
            elif cstate == O:
                owners.append(value)
            elif cstate == WB and pend is not None and not pend[1]:
                owners.append(pend[0])
            elif cstate in (IM, IMO) and pend is not None and pend[0]:
                owners.append(pend[1])  # holds the granted (or O) data
        for msg in net:
            if msg[0] == "data" and msg[3] == M:
                owners.append(msg[2])
            if msg[0] == "wb_data" and not msg[3]:
                owners.append(msg[2])
        if len(owners) > 1:
            raise VerificationError(f"multiple owners: {owners}")
        authoritative = owners[0] if owners else mem
        writers = sum(1 for c in caches if c[0] == M)
        if writers > 1:
            raise VerificationError("two caches writable")
        if writers:
            for cstate, value, _p in caches:
                if cstate in (S, O) and value != authoritative:
                    raise VerificationError("writable block also cached shared")
        for cstate, value, _p in caches:
            if cstate in (S, O, M) and value != authoritative:
                raise VerificationError(
                    f"stale copy {value} != authoritative {authoritative}"
                )

    def is_quiescent(self, state) -> bool:
        caches, directory, mem, net, wants = state
        dstate, owner, sharers, busy, queue = directory
        return (
            not net
            and not busy
            and not queue
            and all(w is None for w in wants)
            and all(c[0] in (I, S, O, M) for c in caches)
        )


def _set(caches, i, entry):
    return caches[:i] + (entry,) + caches[i + 1:]
