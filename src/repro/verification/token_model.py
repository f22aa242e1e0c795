"""Down-scaled models of the TokenCMP correctness substrate (Section 5).

Four models, mirroring the paper's verification targets:

* :class:`TokenSafetyModel` — token counting only, no starvation
  prevention ("TokenCMP-safety"): used to verify safety cheaply.
* :class:`TokenDstModel` — adds persistent requests with **distributed
  activation** (tables at every site, fixed priority, marking rule).
* :class:`TokenArbModel` — persistent requests with the **arbiter-based**
  activation mechanism (fair FIFO at the home arbiter).
* :class:`TokenRecreateModel` — token counting plus the **recreation
  recovery tier**: an adversary destroys in-flight carriers and crashes
  caches, and the home memory (ruler of tokens) bumps a per-block epoch,
  collects surrender acks and reconstitutes the full token set.

Standard down-scaling is applied (paper Section 5): one block, two
processor caches plus memory, a small token count, values from a 2-value
data-independent domain, and a small bound on in-flight messages.  The
performance policy is left completely nondeterministic: any cache may
spontaneously send any legal combination of tokens anywhere, which means
a successful check covers *every* performance policy, hierarchical ones
included — the paper's key verification argument.

State encoding (hashable tuples):
  cache  = (tokens, owner, valid, value)
  mem    = (tokens, owner, value)
  net    = sorted tuple of messages
  wants  = per-proc pending operation: None | 'r' | 'w'
"""

from __future__ import annotations

import functools
import itertools
from typing import List, Tuple

from repro.common.errors import VerificationError
from repro.verification.checker import Model

MEM = "mem"


def _absorb(cache, tokens, owner, value):
    ctok, cown, cval, cdata = cache
    ntok = ctok + tokens
    nown = cown or owner
    if value is not None:
        return (ntok, nown, True, value)
    return (ntok, nown, cval if ntok > 0 else False, cdata if ntok > 0 else 0)


def _take(cache, tokens, with_owner):
    ctok, cown, cval, cdata = cache
    rest = ctok - tokens
    value = cdata if (with_owner or cval) else None
    if rest == 0:
        return (0, False, False, 0), value
    return (rest, cown and not with_owner, cval, cdata), value


# ---------------------------------------------------------------------------
# Move memos: a move group's moves, by the state slots the group reads.
# ---------------------------------------------------------------------------
def _memoized(moves):
    """Decorate a model method ``moves(self, key)`` that lists one move
    group's moves from the state slots the group reads (``key``): each
    result is computed once per model and key.

    The memo lives on the model but is created on first use, not in
    ``__init__``, so constructing a model costs what it did before.  Keys
    compare by equality: like :class:`_ReprMemo`, this relies on each
    slot value being built by one code path, so that equal values print
    the same (the transition-stream pin tests check it).
    """
    name = moves.__name__

    @functools.wraps(moves)
    def memoized(self, key):
        try:
            return self._memo[name][key]
        except AttributeError:
            self._memo = {}
        except KeyError:
            pass
        result = self._memo.setdefault(name, {})[key] = moves(self, key)
        return result

    return memoized


def _splice(state: Tuple, lo: int, hi: int, moves) -> List:
    """Successors of ``state``: each move's slots replace ``state[lo:hi]``."""
    head, tail = state[:lo], state[hi:]
    return [(label, head + slots + tail) for label, slots in moves]


def _splice_completions(state: Tuple, moves, can_complete, on_complete) -> List:
    """Completion successors from the moves on ``(caches, wants)``, gated
    per processor by ``can_complete`` and passed through ``on_complete``."""
    mid, tail = state[1:3], state[4:]
    out = []
    for label, i, caches, wants in moves:
        if can_complete(state, i):
            nxt = (caches,) + mid + (wants,) + tail
            out.append((label, nxt if on_complete is None else on_complete(nxt, i)))
    return out


def _splice_persist(state: Tuple, moves) -> List:
    """Successors of the dst model's persistent-request issue moves; in
    per-site message mode their activates join ``net`` here."""
    caches, mem, net, wants, _tables, _pr = state
    out = []
    for label, acts, tables, pr in moves:
        nnet = net
        for msg in acts:
            nnet = _add(nnet, msg)
        out.append((label, (caches, mem, nnet, wants, tables, pr)))
    return out


def _restore_wants(state: Tuple, moves) -> List:
    """Successors from moves whose states carry ``None`` for ``wants``."""
    w = (state[3],)
    return [(label, nxt[:3] + w + nxt[4:]) for label, nxt in moves]


class _TokenBase(Model):
    """Shared mechanics: token transfers, memory, invariants."""

    def __init__(self, n_caches: int = 2, total_tokens: int = 3, values: int = 2,
                 net_cap: int = 2, coarse_sends: bool = False,
                 atomic_broadcasts: bool = False):
        self.n = n_caches
        self.T = total_tokens
        self.D = values
        self.net_cap = net_cap
        # Down-scaling levers: with coarse_sends the nondeterministic policy
        # moves whole token holdings (the shape transient responses take);
        # with atomic_broadcasts persistent activates/deactivates update all
        # tables in one step (the atomic-broadcast abstraction).  Both keep
        # the persistent-request models' state spaces tractable.
        self.coarse_sends = coarse_sends
        self.atomic_broadcasts = atomic_broadcasts

    # -- state helpers ---------------------------------------------------
    def _initial_core(self):
        caches = tuple((0, False, False, 0) for _ in range(self.n))
        mem = (self.T, True, 0)
        net = ()
        wants = tuple(None for _ in range(self.n))
        return caches, mem, net, wants

    # -- shared transitions ----------------------------------------------
    # Each move group reads only a few state slots, so its moves are
    # computed once per distinct value of those slots (@_memoized) and
    # spliced into every state that shares it.  The hooks keep ``make``
    # for overrides that add moves of their own.
    def _want_transitions(self, state, make):
        return _splice(state, 3, 4, self._want_moves(state[3]))

    @_memoized
    def _want_moves(self, wants):
        out = []
        for i in range(self.n):
            if wants[i] is None:
                for op in ("r", "w"):
                    out.append((f"want_{op}{i}", (_set_entry(wants, i, op),)))
        return out

    def _transfer_transitions(self, state, make):
        """Nondeterministic performance policy: any legal token movement."""
        return _splice(state, 0, 3, self._transfer_moves(state[:3]))

    @_memoized
    def _transfer_moves(self, core):
        caches, mem, net = core
        out = []
        if len(net) >= self.net_cap:
            pass
        else:
            for i, cache in enumerate(caches):
                ctok, cown, cval, cdata = cache
                if ctok == 0:
                    continue
                for give in ((ctok,) if self.coarse_sends else sorted({1, ctok})):
                    for with_owner in (sorted({False, cown}) if give < ctok else (cown,)):
                        ncache, value = _take(cache, give, with_owner)
                        if with_owner and value is None:
                            continue
                        msg_val = value if (with_owner or cval) else None
                        for dst in list(range(self.n)) + [MEM]:
                            if dst == i:
                                continue
                            msg = ("tok", dst, give, with_owner, msg_val)
                            nc = caches[:i] + (ncache,) + caches[i + 1:]
                            out.append((f"send{i}->{dst}", (nc, mem, _add(net, msg))))
            # Memory responds (nondeterministically) with one or all tokens.
            mtok, mown, mval = mem
            if mtok > 0:
                for give in ((mtok,) if self.coarse_sends else sorted({1, mtok})):
                    with_owner = mown and give == mtok
                    for dst in range(self.n):
                        msg = ("tok", dst, give, with_owner,
                               mval if (mown or with_owner) else None)
                        nmem = (mtok - give, mown and not with_owner, mval)
                        out.append((f"mem->{dst}", (caches, nmem, _add(net, msg))))
        # Deliveries.
        # dict.fromkeys: dedup like set() but in net's sorted-by-repr order,
        # so transition enumeration is reproducible across processes.
        for msg in dict.fromkeys(net):
            if msg[0] != "tok":
                continue
            _kind, dst, tokens, owner, value = msg
            nnet = _remove(net, msg)
            if dst == MEM:
                mtok, mown, mval = mem
                nmem = (mtok + tokens, mown or owner, value if owner else mval)
                out.append(("deliver_mem", (caches, nmem, nnet)))
            else:
                nc = list(caches)
                nc[dst] = _absorb(caches[dst], tokens, owner, value)
                out.append((f"deliver{dst}", (tuple(nc), mem, nnet)))
        return out

    def _can_complete(self, state, i) -> bool:
        """Hook: models may gate completion (e.g. channel back-pressure)."""
        return True

    def _complete_transitions(self, state, make, on_complete=None):
        moves = self._complete_moves((state[0], state[3]))
        return _splice_completions(state, moves, self._can_complete, on_complete)

    @_memoized
    def _complete_moves(self, key):
        """Per proc that can retire: (label, proc, caches, wants) after it."""
        caches, wants = key
        out = []
        for i in range(self.n):
            ctok, cown, cval, cdata = caches[i]
            nw = _set_entry(wants, i, None)
            if wants[i] == "r" and ctok >= 1 and cval:
                out.append((f"read{i}", i, caches, nw))
            elif wants[i] == "w" and ctok == self.T:
                ncache = (ctok, True, True, (cdata + 1) % self.D)
                out.append((f"write{i}", i, _set_entry(caches, i, ncache), nw))
        return out

    # -- invariants --------------------------------------------------------
    def check_invariants(self, state) -> None:
        caches, mem, net, wants = state[:4]
        total = mem[0]
        owners = 1 if mem[1] else 0
        owner_value = mem[2] if mem[1] else None
        for tok, own, valid, value in caches:
            total += tok
            if own:
                owners += 1
                owner_value = value
                if not valid:
                    raise VerificationError("owner without valid data")
            if valid and tok == 0:
                raise VerificationError("valid data without tokens")
        for msg in net:
            if msg[0] == "tok":
                total += msg[2]
                if msg[3]:
                    owners += 1
                    owner_value = msg[4]
        if total != self.T:
            raise VerificationError(f"token conservation broken: {total} != {self.T}")
        if owners != 1:
            raise VerificationError(f"{owners} owner tokens")
        for tok, own, valid, value in caches:
            if valid and tok >= 1 and value != owner_value:
                raise VerificationError(
                    f"stale reader: {value} != owner {owner_value} "
                    "(single-writer/multi-reader violated)"
                )


class TokenSafetyModel(_TokenBase):
    """Token counting alone — verifies safety for ANY performance policy."""

    name = "TokenCMP-safety"

    def initial_states(self):
        return [self._initial_core()]

    @staticmethod
    def _make(state, caches=None, mem=None, net=None, wants=None):
        c, m, n, w = state
        return (
            caches if caches is not None else c,
            mem if mem is not None else m,
            net if net is not None else n,
            wants if wants is not None else w,
        )

    def transitions(self, state):
        out = []
        out += self._want_transitions(state, self._make)
        out += self._transfer_transitions(state, self._make)
        out += self._complete_transitions(state, self._make)
        return out

    def is_quiescent(self, state):
        _caches, _mem, net, wants = state
        return not net and all(w is None for w in wants)

    def canonicalize(self, state):
        """Processors are fully symmetric in the safety model: fold each
        state onto the lexicographically smallest processor relabeling
        (the paper's symmetry-reduction technique)."""
        return _canonical(state, _relabel_core, (2, 3))


class TokenDstModel(_TokenBase):
    """Substrate with distributed-activation persistent requests.

    Extends the base state with persistent-request tables at every site
    (both caches and memory) and activate/deactivate messages:

      tables = per site, per proc: 0 absent | (1, read, marked)
      pr     = per proc: None | 'req' (persistent request outstanding)
    """

    name = "TokenCMP-dst"

    def initial_states(self):
        caches, mem, net, wants = self._initial_core()
        tables = tuple(tuple(0 for _ in range(self.n)) for _ in range(self.n + 1))
        pr = tuple(None for _ in range(self.n))
        return [(caches, mem, net, wants, tables, pr)]

    @staticmethod
    def _make(state, caches=None, mem=None, net=None, wants=None, tables=None, pr=None):
        c, m, n, w, t, p = state
        return (
            caches if caches is not None else c,
            mem if mem is not None else m,
            net if net is not None else n,
            wants if wants is not None else w,
            tables if tables is not None else t,
            pr if pr is not None else p,
        )

    # Site indexes: 0..n-1 = caches, n = memory.
    def _active(self, table):
        """Highest-priority (lowest proc id) present entry at one site."""
        for proc in range(self.n):
            if table[proc] != 0:
                return proc, table[proc][1]
        return None

    def transitions(self, state):
        caches, mem, net, wants, tables, pr = state
        out = []
        out += self._want_transitions(state, self._make)
        out += self._transfer_transitions(state, self._make)
        out += self._complete_transitions(state, self._make, self._on_complete)
        out += _splice_persist(state, self._persist_moves(state[3:]))

        # Deliver activates/deactivates (per-site message mode only).
        # dict.fromkeys: dedup like set() but in net's sorted-by-repr order,
        # so transition enumeration is reproducible across processes.
        for msg in dict.fromkeys(net):
            if msg[0] == "act":
                _k, site, proc, read = msg
                ntables = list(tables)
                ntables[site] = _set_entry(tables[site], proc, (1, read, False))
                out.append((
                    f"act@{site}",
                    self._make(state, net=_remove(net, msg), tables=tuple(ntables)),
                ))
            elif msg[0] == "deact":
                _k, site, proc = msg
                ntables = list(tables)
                ntables[site] = _set_entry(tables[site], proc, 0)
                out.append((
                    f"deact@{site}",
                    self._make(state, net=_remove(net, msg), tables=tuple(ntables)),
                ))

        # Forward tokens to the active persistent request at each site.
        out += _splice(state, 0, 3, self._forward_moves(state[:3] + (tables,)))
        return out

    @_memoized
    def _persist_moves(self, key):
        """Issue a persistent request (gated by the local marking rule):
        (label, activates to send, tables, pr) per proc that may."""
        wants, tables, pr = key
        out = []
        for i in range(self.n):
            if wants[i] is None or pr[i] is not None:
                continue
            if any(e != 0 and e[2] for e in tables[i]):
                continue  # wave rule: marked entries block re-issue
            read = wants[i] == "r"
            ntables = list(tables)
            npr = pr[:i] + ("req",) + pr[i + 1:]
            if self.atomic_broadcasts:
                for site in range(self.n + 1):
                    ntables[site] = _set_entry(tables[site], i, (1, read, False))
                out.append((f"persist{i}", (), tuple(ntables), npr))
            else:
                ntables[i] = _set_entry(tables[i], i, (1, read, False))
                acts = tuple(("act", site, i, read) for site in range(self.n + 1) if site != i)
                out.append((f"persist{i}", acts, tuple(ntables), npr))
        return out

    @_memoized
    def _forward_moves(self, key):
        caches, mem, net, tables = key
        out = []
        if len(net) < self.net_cap:
            for site in range(self.n):
                act = self._active(tables[site])
                if act is None or act[0] == site:
                    continue
                proc, read = act
                ctok, cown, cval, cdata = caches[site]
                if ctok == 0:
                    continue
                if read:
                    # All-but-one; a lone owner token moves whole (with data).
                    give = 1 if (cown and ctok == 1) else ctok - 1
                else:
                    give = ctok
                if give <= 0:
                    continue
                ncache, value = _take(caches[site], give, cown)
                msg = ("tok", proc, give, cown, value if (cown or cval) else None)
                nc = caches[:site] + (ncache,) + caches[site + 1:]
                out.append((f"fwd{site}->{proc}", (nc, mem, _add(net, msg))))
            act = self._active(tables[self.n])
            if act is not None:
                proc, read = act
                mtok, mown, mval = mem
                give = mtok if not read else (mtok if mown else max(0, mtok - 1))
                if mtok > 0 and give > 0:
                    with_owner = mown and give == mtok
                    msg = ("tok", proc, give, with_owner, mval if mown else None)
                    nmem = (mtok - give, mown and not with_owner, mval)
                    out.append((f"fwdmem->{proc}", (caches, nmem, _add(net, msg))))
        return out

    def _on_complete(self, state, i):
        """Completion under an outstanding persistent request deactivates it:
        remove the local entry, mark the local wave, broadcast deactivates."""
        caches, mem, net, wants, tables, pr = state
        if pr[i] is None:
            return state
        ntables = list(tables)
        local = _set_entry(tables[i], i, 0)
        local = tuple(
            (1, e[1], True) if e != 0 else 0 for e in local
        )
        ntables[i] = local
        npr = pr[:i] + (None,) + pr[i + 1:]
        if self.atomic_broadcasts:
            for site in range(self.n + 1):
                if site != i:
                    ntables[site] = _set_entry(ntables[site], i, 0)
            return self._make(state, tables=tuple(ntables), pr=npr)
        nnet = net
        for site in range(self.n + 1):
            if site != i:
                nnet = _add(nnet, ("deact", site, i))
        return self._make(state, net=nnet, tables=tuple(ntables), pr=npr)

    def is_quiescent(self, state):
        caches, mem, net, wants, tables, pr = state
        return (
            not net
            and all(w is None for w in wants)
            and all(e == 0 for t in tables for e in t)
            and all(p is None for p in pr)
        )


class TokenArbModel(_TokenBase):
    """Substrate with arbiter-based persistent request activation.

    The arbiter (at memory) fair-queues requests and activates one at a
    time; sites record only the single active request.  Control messages
    between a processor and the arbiter travel on a per-processor FIFO
    channel — matching real implementations, where requests and
    deactivations share an ordered path.  (Checking an early fully
    unordered version of this model produced a counterexample: a
    deactivation reordered around its own request leaves a stale request
    that activates with nobody to deactivate it.  See EXPERIMENTS.md.)

      site_act = per site: None | (proc, read)
      arb      = (queue tuple of (proc, read), active or None)
      chan     = per proc FIFO to the arbiter: ('req', read) | ('deact',)
      pr       = per proc: None | 'req'
    """

    name = "TokenCMP-arb"

    def initial_states(self):
        caches, mem, net, wants = self._initial_core()
        site_act = tuple(None for _ in range(self.n + 1))
        arb = ((), None)
        chan = tuple(() for _ in range(self.n))
        pr = tuple(None for _ in range(self.n))
        return [(caches, mem, net, wants, site_act, arb, chan, pr)]

    @staticmethod
    def _make(state, caches=None, mem=None, net=None, wants=None, site_act=None,
              arb=None, chan=None, pr=None):
        c, m, n, w, s, a, ch, p = state
        return (
            caches if caches is not None else c,
            mem if mem is not None else m,
            net if net is not None else n,
            wants if wants is not None else w,
            site_act if site_act is not None else s,
            arb if arb is not None else a,
            chan if chan is not None else ch,
            pr if pr is not None else p,
        )

    def transitions(self, state):
        caches, mem, net, wants, site_act, arb, chan, pr = state
        out = []
        out += self._want_transitions(state, self._make)
        out += self._transfer_transitions(state, self._make)
        out += self._complete_transitions(state, self._make, self._on_complete)

        queue, active = arb
        # Issue a persistent request (FIFO channel to the home arbiter;
        # channel length is capped at 2, modelling queue back-pressure —
        # and keeping the state space finite).
        for i in range(self.n):
            if wants[i] is not None and pr[i] is None and len(chan[i]) < 2:
                nchan = _set_entry(chan, i, chan[i] + (("req", wants[i] == "r"),))
                npr = pr[:i] + ("req",) + pr[i + 1:]
                out.append((f"persist{i}", self._make(state, chan=nchan, pr=npr)))

        # Arbiter consumes channel heads.
        for i in range(self.n):
            if not chan[i]:
                continue
            head, rest = chan[i][0], chan[i][1:]
            nchan = _set_entry(chan, i, rest)
            if head[0] == "req":
                narb = (queue + ((i, head[1]),), active)
                out.append((f"arb_enqueue{i}", self._make(
                    state, chan=nchan, arb=narb)))
            else:  # deactivation from processor i
                if active is not None and active[0] == i:
                    if self.atomic_broadcasts:
                        nsa = tuple(None for _ in range(self.n + 1))
                        out.append((f"arb_deactivate{i}", self._make(
                            state, chan=nchan, site_act=nsa, arb=(queue, None))))
                    else:
                        nnet = net
                        for site in range(self.n + 1):
                            nnet = _add(nnet, ("clear", site))
                        out.append((f"arb_deactivate{i}", self._make(
                            state, chan=nchan, net=nnet, arb=(queue, None))))
                else:
                    # Request was satisfied by stray tokens while still
                    # queued: cancel it before it ever activates.
                    for qi, entry in enumerate(queue):
                        if entry[0] == i:
                            nq = queue[:qi] + queue[qi + 1:]
                            out.append((f"arb_cancel{i}", self._make(
                                state, chan=nchan, arb=(nq, active))))
                            break

        # Per-site activation delivery (message mode only).
        # dict.fromkeys: dedup like set() but in net's sorted-by-repr order,
        # so transition enumeration is reproducible across processes.
        for msg in dict.fromkeys(net):
            if msg[0] == "act":
                _k, site, proc, read = msg
                nsa = site_act[:site] + ((proc, read),) + site_act[site + 1:]
                out.append((f"act@{site}", self._make(
                    state, net=_remove(net, msg), site_act=nsa)))
            elif msg[0] == "clear":
                _k, site = msg
                nsa = site_act[:site] + (None,) + site_act[site + 1:]
                out.append((f"clear@{site}", self._make(
                    state, net=_remove(net, msg), site_act=nsa)))

        if active is None and queue:
            (proc, read), rest = queue[0], queue[1:]
            if self.atomic_broadcasts:
                nsa = tuple((proc, read) for _ in range(self.n + 1))
                out.append(("arb_activate", self._make(
                    state, site_act=nsa, arb=(rest, (proc, read)))))
            else:
                nnet = net
                for site in range(self.n + 1):
                    nnet = _add(nnet, ("act", site, proc, read))
                out.append(("arb_activate", self._make(
                    state, net=nnet, arb=(rest, (proc, read)))))

        # Sites forward tokens to the recorded active request.
        if len(net) < self.net_cap:
            for site in range(self.n):
                if site_act[site] is None or site_act[site][0] == site:
                    continue
                proc, read = site_act[site]
                ctok, cown, cval, cdata = caches[site]
                if ctok == 0:
                    continue
                if read:
                    give = 1 if (cown and ctok == 1) else ctok - 1
                else:
                    give = ctok
                if give <= 0:
                    continue
                ncache, value = _take(caches[site], give, cown)
                msg = ("tok", proc, give, cown, value if (cown or cval) else None)
                nc = caches[:site] + (ncache,) + caches[site + 1:]
                out.append((f"fwd{site}->{proc}",
                            self._make(state, caches=nc, net=_add(net, msg))))
            if site_act[self.n] is not None:
                proc, read = site_act[self.n]
                mtok, mown, mval = mem
                give = mtok if not read else (mtok if mown else max(0, mtok - 1))
                if mtok > 0 and give > 0:
                    with_owner = mown and give == mtok
                    msg = ("tok", proc, give, with_owner, mval if mown else None)
                    nmem = (mtok - give, mown and not with_owner, mval)
                    out.append((f"fwdmem->{proc}",
                                self._make(state, mem=nmem, net=_add(net, msg))))
        return out

    def _can_complete(self, state, i) -> bool:
        # Channel back-pressure: a processor with an outstanding persistent
        # request retires only when its arbiter channel has drained (the
        # deactivation needs the slot).  Keeps channels - and the state
        # space - small without losing any interleaving that matters.
        caches, mem, net, wants, site_act, arb, chan, pr = state
        return pr[i] is None or not chan[i]

    def _on_complete(self, state, i):
        caches, mem, net, wants, site_act, arb, chan, pr = state
        if pr[i] is None:
            return state
        npr = pr[:i] + (None,) + pr[i + 1:]
        nchan = _set_entry(chan, i, chan[i] + (("deact",),))
        return self._make(state, chan=nchan, pr=npr)

    def is_quiescent(self, state):
        caches, mem, net, wants, site_act, arb, chan, pr = state
        return (
            not net
            and all(w is None for w in wants)
            and all(s is None for s in site_act)
            and arb == ((), None)
            and all(not c for c in chan)
            and all(p is None for p in pr)
        )

    def canonicalize(self, state):
        """The arbiter treats processors uniformly (FIFO, no priorities),
        so processor relabeling is a sound symmetry reduction here —
        unlike the dst model, whose fixed priorities break it."""
        return _canonical(state, self._relabel, (2, 3, 4, 5, 6, 7))

    def _relabel(self, state, perm, slot):
        """Slot ``slot`` of ``state`` with processor ``i`` renamed ``perm[i]``."""
        if slot < 4:
            return _relabel_core(state, perm, slot)
        value = state[slot]
        if slot == 4:  # site_act: per site, naming the active processor
            nsa = _relabel_procs(value[:self.n], perm) + value[self.n:]
            return tuple(None if e is None else (perm[e[0]], e[1]) for e in nsa)
        if slot == 5:  # arb: (queue, active)
            queue, active = value
            return (tuple((perm[p], r) for p, r in queue),
                    None if active is None else (perm[active[0]], active[1]))
        return _relabel_procs(value, perm)  # chan, pr


class TokenRecreateModel(_TokenBase):
    """Safety model of the token-recreation recovery tier.

    Extends the safety model's state with the recovery machinery:

      ceps  = per-cache known recreation epoch
      epoch = memory's current epoch
      rec   = None, or the frozenset of caches that have acked the
              in-progress recreation
      lost  = (tokens, owner) destroyed in the *current* epoch (the
              model's recovery ledger)

    Only epoch *comparisons* matter, so :meth:`canonicalize` rebases every
    stamp relative to memory's current epoch (and merges stale carrier
    stamps older than two epochs, which behave identically everywhere).
    That folds an unbounded sequence of recreations into a finite state
    space without capping the epoch counter.

    Token carriers are stamped with the sender's epoch; stale-epoch
    carriers are discarded on arrival everywhere.  The adversary may
    destroy any in-flight carrier (``lose``) or wipe any cache's soft
    state (``crash``) at any time — recreation control messages are never
    lost, matching the injector's never-drop clamp for the recreation
    message class.  Memory sends nothing while a recreation is active
    (the implementation's ``_on_transient``/``_forward_check`` guards);
    completion requires surrender acks from *every* cache, which is the
    safety argument: no cache can still absorb a pre-bump carrier after
    memory reconstitutes the full set.

    The invariant is the epoch-aware conservation check: current-epoch
    live tokens plus the ledger deficit equal ``T`` with exactly one
    owner, relaxed to structural checks while a recreation is in flight —
    exactly mirroring ``repro.core.tokens.check_conservation``.
    """

    name = "TokenCMP-recreate"

    FIELDS = ("caches", "mem", "net", "wants", "ceps", "epoch", "rec", "lost")

    def __init__(self, n_caches: int = 2, total_tokens: int = 3, values: int = 2,
                 net_cap: int = 2):
        super().__init__(n_caches, total_tokens, values, net_cap,
                         coarse_sends=True, atomic_broadcasts=False)

    def initial_states(self):
        caches, mem, net, wants = self._initial_core()
        ceps = tuple(0 for _ in range(self.n))
        return [(caches, mem, net, wants, ceps, 0, None, (0, False))]

    def _mk(self, state, **kw):
        slots = list(state)
        for field, value in kw.items():
            slots[self.FIELDS.index(field)] = value
        return tuple(slots)

    def transitions(self, state):
        out = []
        out += self._want_transitions(state, self._mk)
        out += self._complete_transitions(state, self._mk)
        # The other moves read every slot but ``wants``, and of ``wants``
        # only whether any processor wants something.
        wants = state[3]
        key = state[:3] + state[4:] + (wants.count(None) < len(wants),)
        out += _restore_wants(state, self._recovery_moves(key))
        return out

    @_memoized
    def _recovery_moves(self, key):
        caches, mem, net, ceps, epoch, rec, lost, wanting = key
        state = (caches, mem, net, None, ceps, epoch, rec, lost)
        mk = self._mk
        out = []

        # Nondeterministic performance policy, epoch-stamped carriers.
        if len(net) < self.net_cap:
            for i, cache in enumerate(caches):
                ctok, cown, cval, _cdata = cache
                if ctok == 0:
                    continue
                ncache, value = _take(cache, ctok, cown)
                msg_val = value if (cown or cval) else None
                for dst in list(range(self.n)) + [MEM]:
                    if dst == i:
                        continue
                    msg = ("tok", dst, ctok, cown, msg_val, ceps[i])
                    nc = caches[:i] + (ncache,) + caches[i + 1:]
                    out.append((
                        f"send{i}->{dst}",
                        mk(state, caches=nc, net=_add(net, msg)),
                    ))
            mtok, mown, mval = mem
            if mtok > 0 and rec is None:
                # Memory is mute while recreating (the implementation's
                # guards) — otherwise it could emit current-epoch tokens
                # that survive the reconstitution and break conservation.
                for dst in range(self.n):
                    msg = ("tok", dst, mtok, mown,
                           mval if mown else None, epoch)
                    out.append((
                        f"mem->{dst}",
                        mk(state, mem=(0, False, mval), net=_add(net, msg)),
                    ))

        # Deliveries; stale-epoch carriers are discarded on arrival.
        # dict.fromkeys: dedup in sorted order for reproducibility.
        for msg in dict.fromkeys(net):
            if msg[0] != "tok":
                continue
            _k, dst, tokens, owner, value, ep = msg
            nnet = _remove(net, msg)
            if dst == MEM:
                if ep < epoch:
                    out.append(("stale_mem", mk(state, net=nnet)))
                else:
                    mtok, mown, mval = mem
                    nmem = (mtok + tokens, mown or owner,
                            value if owner else mval)
                    out.append(("deliver_mem", mk(state, mem=nmem, net=nnet)))
            elif ep < ceps[dst]:
                out.append((f"stale{dst}", mk(state, net=nnet)))
            else:
                nc = list(caches)
                nc[dst] = _absorb(caches[dst], tokens, owner, value)
                out.append((
                    f"deliver{dst}", mk(state, caches=tuple(nc), net=nnet),
                ))

        # Adversary: destroy an in-flight carrier / wipe a cache.
        for msg in dict.fromkeys(net):
            if msg[0] != "tok":
                continue
            nnet = _remove(net, msg)
            if msg[5] == epoch:
                nlost = (lost[0] + msg[2], lost[1] or msg[3])
                out.append(("lose", mk(state, net=nnet, lost=nlost)))
            else:
                out.append(("lose_stale", mk(state, net=nnet)))
        for i, (ctok, cown, _cval, _cdata) in enumerate(caches):
            if ctok == 0 and not cown:
                continue
            nc = caches[:i] + ((0, False, False, 0),) + caches[i + 1:]
            nlost = lost
            if ceps[i] == epoch:
                nlost = (lost[0] + ctok, lost[1] or cown)
            out.append((f"crash{i}", mk(state, caches=nc, lost=nlost)))

        # Recreation tier.  A starving processor escalates; memory bumps
        # the epoch and broadcasts (control messages bypass the cap and
        # are never lost, like the injector's recreation-class clamp).
        if rec is None and wanting:
            nnet = net
            for site in range(self.n):
                nnet = _add(nnet, ("epoch", site, epoch + 1))
            out.append((
                "recreate",
                mk(state, net=nnet, epoch=epoch + 1, rec=frozenset()),
            ))
        for msg in dict.fromkeys(net):
            if msg[0] == "epoch":
                _k, site, ep = msg
                nnet = _remove(net, msg)
                if ep <= ceps[site]:
                    out.append((f"epoch_dup{site}", mk(state, net=nnet)))
                    continue
                ctok, cown, cval, cdata = caches[site]
                nc = caches[:site] + ((0, False, False, 0),) + caches[site + 1:]
                nceps = ceps[:site] + (ep,) + ceps[site + 1:]
                # Surrender: local destruction plus an ack; the owner's
                # data rides on the ack (TOK_RECREATE_DATA).
                ack = ("ack", site, ep, cdata if (cown and cval) else None)
                out.append((
                    f"surrender{site}",
                    mk(state, caches=nc, net=_add(nnet, ack), ceps=nceps),
                ))
            elif msg[0] == "ack":
                _k, site, ep, value = msg
                nnet = _remove(net, msg)
                if rec is None or ep != epoch:
                    out.append(("ack_stale", mk(state, net=nnet)))
                    continue
                nmem = mem if value is None else (mem[0], mem[1], value)
                nacked = rec | {site}
                if len(nacked) == self.n:
                    # Every cache surrendered: reconstitute the full set
                    # and clear the ledger.
                    nmem = (self.T, True, nmem[2])
                    out.append((
                        "recreate_done",
                        mk(state, mem=nmem, net=nnet, rec=None,
                           lost=(0, False)),
                    ))
                else:
                    out.append((
                        f"ack{site}",
                        mk(state, mem=nmem, net=nnet, rec=nacked),
                    ))
        return out

    # ------------------------------------------------------------------
    def check_invariants(self, state) -> None:
        caches, mem, net, wants, ceps, epoch, rec, lost = state
        # Structural per-cache checks hold unconditionally.
        for tok, own, valid, _value in caches:
            if own and not valid:
                raise VerificationError("owner without valid data")
            if valid and tok == 0:
                raise VerificationError("valid data without tokens")
        if rec is not None:
            return  # conservation is relaxed while recreating
        total = mem[0] + lost[0]
        owners = (1 if mem[1] else 0) + (1 if lost[1] else 0)
        owner_value = mem[2] if mem[1] else None
        for tok, own, _valid, value in caches:
            total += tok
            if own:
                owners += 1
                owner_value = value
        for msg in net:
            if msg[0] == "tok" and msg[5] == epoch:
                total += msg[2]
                if msg[3]:
                    owners += 1
                    owner_value = msg[4]
        if total != self.T:
            raise VerificationError(
                f"token conservation broken: {total} != {self.T} "
                f"(ledger {lost[0]})"
            )
        if owners != 1:
            raise VerificationError(f"{owners} owner tokens")
        if not lost[1]:  # a destroyed owner's unwritten value is gone
            for tok, _own, valid, value in caches:
                if valid and tok >= 1 and value != owner_value:
                    raise VerificationError(
                        f"stale reader: {value} != owner {owner_value}"
                    )

    def is_quiescent(self, state):
        _caches, _mem, net, wants, _ceps, _epoch, rec, _lost = state
        return not net and all(w is None for w in wants) and rec is None

    def canonicalize(self, state):
        """Rebase all epoch stamps relative to memory's current epoch.

        ``ceps`` can lag by at most one (a new recreation starts only
        after the previous one collected every ack), so cache lag clamps
        at 1.  Carrier stamps two or more epochs old are behaviourally
        identical — stale at memory, stale at every cache — so their age
        clamps at 2.  Recreation control messages always carry the
        current epoch.  After rebasing, memory's epoch is always 0 and
        the space is closed under unbounded recreations.
        """
        caches, mem, net, wants, ceps, epoch, rec, lost = state
        if epoch == 0:
            return state
        nceps = tuple(-min(epoch - e, 1) for e in ceps)
        nnet = []
        for msg in net:
            if msg[0] == "tok":
                nnet.append(msg[:5] + (-min(epoch - msg[5], 2),))
            elif msg[0] == "epoch":
                nnet.append((msg[0], msg[1], msg[2] - epoch))
            else:  # ack
                nnet.append((msg[0], msg[1], msg[2] - epoch, msg[3]))
        return (caches, mem, tuple(sorted(nnet, key=_repr)), wants,
                nceps, 0, rec, lost)


# ---------------------------------------------------------------------------
# Multiset helpers for the in-flight message pool (unordered network).
# Shared with dir_model.
# ---------------------------------------------------------------------------
class _ReprMemo(dict):
    """``repr`` of each value seen so far; the models' alphabets are finite.

    Equal values share an entry, so one memo must never see two equal
    values that print differently, such as ``(0, 0)`` and ``(0, False)``.
    Messages can share one memo: a message kind has the same field types
    in every model.  State components cannot (a recreation state holds
    ``(0, 0)`` epochs next to a ``(0, False)`` ledger), hence
    :class:`_SlotReprs`.
    """

    def __missing__(self, x):
        r = self[x] = repr(x)
        return r


class _SlotReprs(dict):
    """State length -> one :class:`_ReprMemo` per state slot."""

    def __missing__(self, n):
        memos = self[n] = tuple(_ReprMemo() for _ in range(n))
        return memos


_repr = _ReprMemo().__getitem__
_SLOT_REPRS = _SlotReprs()


def _state_repr(state: Tuple) -> str:
    """``repr(state)`` for a state of two or more slots, memoized per
    component: the symmetry-reduction sort key."""
    memos = _SLOT_REPRS[len(state)]
    return "(" + ", ".join([m[c] for m, c in zip(memos, state)]) + ")"


def _add(net: Tuple, msg) -> Tuple:
    return tuple(sorted(net + (msg,), key=_repr))


def _remove(net: Tuple, msg) -> Tuple:
    lst = list(net)
    lst.remove(msg)
    return tuple(lst)


def _set_entry(table: Tuple, proc: int, entry) -> Tuple:
    return table[:proc] + (entry,) + table[proc + 1:]


# ---------------------------------------------------------------------------
# Symmetry reduction helpers (processor permutations).
# ---------------------------------------------------------------------------
def _permute_msg(msg, perm):
    """``msg`` with processor ``i`` renamed ``perm[i]``.

    Token carriers name their destination processor; the arbiter
    model's message-mode ``act``/``clear`` messages name a site and
    (``act``) the active processor.  Site ``i < n`` is processor ``i``'s
    cache, so it is renamed with it; site ``n`` (memory) is not.
    """
    kind = msg[0]
    if kind == "tok":
        _k, dst, tokens, owner, value = msg
        if dst != MEM:
            dst = perm[dst]
        return ("tok", dst, tokens, owner, value)
    if kind in ("act", "clear"):
        site = msg[1]
        if site < len(perm):
            site = perm[site]
        if kind == "clear":
            return ("clear", site)
        return ("act", site, perm[msg[2]], msg[3])
    return msg


def _relabel_procs(entries: Tuple, perm) -> Tuple:
    """Per-processor ``entries`` with entry ``i`` moved to ``perm[i]``."""
    out = [None] * len(entries)
    for old, new in enumerate(perm):
        out[new] = entries[old]
    return tuple(out)


def _relabel_core(state, perm, slot):
    """Slot ``slot`` of ``state`` (``net``, or a per-processor tuple such
    as ``wants``) with processor ``i`` renamed ``perm[i]``."""
    if slot == 2:
        return tuple(sorted([_permute_msg(m, perm) for m in state[2]], key=_repr))
    return _relabel_procs(state[slot], perm)


def _relabeled(state, perm, relabel, slots):
    """``state`` with processor ``i`` renamed ``perm[i]``: ``caches`` and
    each slot in ``slots`` go through ``relabel(state, perm, slot)``."""
    out = list(state)
    out[0] = _relabel_procs(state[0], perm)
    for slot in slots:
        out[slot] = relabel(state, perm, slot)
    return tuple(out)


class _Candidates(dict):
    """``caches`` -> the processor relabelings that sort it by cache repr,
    each a ``perm`` list or ``None`` for the identity.  The stable sort
    comes first, so the identity, when it is one of them, leads.  Keyed
    by value, so like :class:`_ReprMemo` it relies on equal caches
    printing the same."""

    def __missing__(self, caches):
        keys = [repr(c) for c in caches]
        n = len(keys)
        order = sorted(range(n), key=keys.__getitem__)
        groups = [list(g) for _k, g in itertools.groupby(order, key=keys.__getitem__)]
        perms = []
        for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
            perm = [0] * n
            for new, old in enumerate(itertools.chain.from_iterable(parts)):
                perm[old] = new
            perms.append(None if perm == list(range(n)) else perm)
        self[caches] = perms
        return perms


_CANDIDATES = _Candidates()


def _canonical(state, relabel, slots):
    """The symmetry-reduction representative of ``state``, found without
    building every relabeling: ``min((_relabeled(state, p, relabel, slots)
    for p in itertools.permutations(range(n))), key=_state_repr)``.

    ``slots`` lists, in order, the slots after ``caches`` that a
    relabeling can change; ``relabel(state, perm, slot)`` builds one, and
    gives ``state[slot]`` back for the identity (``net`` is kept sorted).

    ``caches`` is the first slot of ``_state_repr`` a relabeling changes,
    and every relabeling's ``caches`` repr has the same length (the same
    cache reprs, reordered).  So the minimum sorts the caches by repr; as
    one 4-tuple repr is never a proper prefix of another, that is the
    order of the joined string.  Pairwise-distinct caches fix the winner:
    ``state`` itself when they are sorted already, otherwise the one
    relabeling that sorts them.  Equal caches leave every relabeling that
    sorts them; the next slot in ``slots`` decides between those, built
    for each alone, then the next.  A slot decides only while its
    candidates' reprs have equal lengths, so that the first differing
    character lies inside it; otherwise the remaining candidates are
    compared whole.  Candidates that tie on every slot print the same, so
    the first is taken: ``state`` itself whenever it is among them.
    """
    perms = _CANDIDATES[state[0]]
    if len(perms) > 1:
        memos = _SLOT_REPRS[len(state)]
        for slot in slots:
            memo = memos[slot]
            reprs = [memo[state[slot] if perm is None else relabel(state, perm, slot)]
                     for perm in perms]
            if len({len(r) for r in reprs}) > 1:
                return min((state if perm is None else _relabeled(state, perm, relabel, slots)
                            for perm in perms), key=_state_repr)
            best = min(reprs)
            perms = [perm for perm, r in zip(perms, reprs) if r == best]
            if len(perms) == 1:
                break
    perm = perms[0]
    return state if perm is None else _relabeled(state, perm, relabel, slots)
