"""Short-message broadcast/agreement oracles.

Every kind of ``simnet.ORACLE_KINDS`` exists as an ideal trusted
functionality (see simnet.Engine) charged at its model cost. This module
adds the concrete constructions, one ``CONCRETE`` entry per kind, and the
front doors protocols call, so a session can swap implementations per kind:

- sync_bb: one slot of the signature-chain routine (t+1 relay rounds,
  any t < n).
- sync_ba: the same routine with n slots, one per sender, plus strict
  majority (t < n/2).
- async_rb: echo/ready reliable broadcast (t < n/3).
- async_ba_bit: round-based binary agreement with broadcast-justified value
  sets, coin-matched deciding, and a round-independent ready layer for
  propagation and halting (t < n/3).
- async_ba_kbit: ideal only (no entry).

The front doors name an instance, read its kind and sender from the
session's declaration (``session.oracles``) and are the only code that reads
its ideal/concrete choice: ``ba_oracle`` and ``bcast_oracle`` run one
instance (through ``CONCRETE``), ``bb_slots`` and ``RbSlots`` run the n slots
that ``slot_instances`` declares (party j the sender of slot j). A
``CONCRETE`` entry calls its construction by its module-level name, so a
rebinding of that name (a tracer's wrapper, a test's spy) sees every call.

In both chain kinds a party sends at most one "ds" record per instance and
round: a tuple of (slot, value, sig) triples, metered as one relay per
triple (see ``parallel_chain_bcast``). Every party of a chain signs and
checks the same tags, so the session hashes each distinct (instance, slot,
value) once, in the bounded table ``ChainTags`` (``session.chain_tags``),
as the multisig authority checks each distinct aggregate once; a relay
adds the party's signature with ``MsigAuthority.cosign``.

The binary agreement keeps one ``_AbaRound`` per round it has heard of,
its tallies indexed by vote (sets of sources), and one pair of ready
tallies for all rounds. A vote costs constant work: it updates one tally
and re-checks only that tally's thresholds (an estimate: relay at t+1 and
candidate at 2t+1; a confirmation: the full quorum of n; a ready vote:
amplification at t+1 and decision at 2t+1), and an aux vote for a
candidate joins a running union, the n - t quorum. A party may join a
binary agreement after its peers' first messages of it (``ba_happy``
starts once ``ba_commit`` has ended): its ``("aba", instance)`` list opened
at engine start from ``wire``'s key rule, so that mail is filed there.

The constructions read "ds", "rb" and "aba" mail as ``wire`` shapes it,
since the engine parses a corrupt party's envelope before filing it; they
check only ranges and signatures.

Concrete oracles meter their real traffic, sized by ``wire``; the common
coin is an ideal source revealing a round's bit to the adversary only after
the first honest query.
"""

from __future__ import annotations

import hashlib

from .multisig import MsigAuthority
from .simnet import BOT, Ctx, NEXT_ROUND, OracleInstance, value_to_bytes


class CoinOracle:
    """Per-round shared random bits, weakly adaptive toward the adversary."""

    def __init__(self, seed: int):
        self.seed = seed
        self._revealed: set[tuple[str, int]] = set()

    def _bit(self, instance: str, rnd: int) -> int:
        h = hashlib.sha256(f"coin/{self.seed}/{instance}/{rnd}".encode()).digest()
        return h[0] & 1

    def query(self, instance: str, rnd: int, honest: bool = True) -> int:
        if honest:
            self._revealed.add((instance, rnd))
        return self._bit(instance, rnd)

    def adversary_peek(self, instance: str, rnd: int) -> int | None:
        if (instance, rnd) in self._revealed:
            return self._bit(instance, rnd)
        return None


def _chain_tag(instance: str, value) -> bytes:
    return hashlib.sha256(f"ds/{instance}/".encode() + value_to_bytes(value)).digest()


def _slot_tag(instance: str, slot: int, value) -> bytes:
    """What each signer of a chain for value in one slot of instance signs."""
    return _chain_tag(f"{instance}/s{slot}", value)


TAG_ENTRIES = 1024


class ChainTags:
    """One session's slot tags (``session.chain_tags``, made by
    ``runner.run``): every party of a chain signs and checks the same
    (instance, slot, value) triples, so each distinct triple's tag is hashed
    once, by ``_slot_tag``, while it stays among the `TAG_ENTRIES` most
    recent. Values are those ``wire`` admits (exact ``int`` or ``bytes``) or
    an honest party's own, so equal keys have equal tags."""

    def __init__(self):
        self._tags: dict[tuple[str, int, object], bytes] = {}

    def __call__(self, instance: str, slot: int, value) -> bytes:
        key = (instance, slot, value)
        tag = self._tags.get(key)
        if tag is None:
            tag = self._tags[key] = _slot_tag(instance, slot, value)
            if len(self._tags) > TAG_ENTRIES:
                del self._tags[next(iter(self._tags))]
        return tag


# --- synchronous broadcast via signature chains -------------------------------


def parallel_chain_bcast(ctx: Ctx, instance: str, my_value, senders=None):
    """Signature-chain broadcasts, one slot per sender (every party by
    default), run in the same t+1 relay rounds; a sender puts my_value in
    its own slot. A party accepts a slot's value at round r on a chain of r
    distinct signers that includes the slot's sender, then relays (slot,
    value, sig) once with its own signature added.

    Wire format: a party sends at most one ``"ds"`` record per round, a
    tuple of (slot, value, sig) triples: at round 0 its own slot, at rounds
    1..t every relay it accepted that round, in acceptance order (metered
    per triple, see ``wire.scale``). A receiver reads records in arrival
    order and triples in batch order, so it accepts in the same order as if
    each relay were a record of its own, and skips a triple that fails a
    check. Returns {slot: the unique accepted value, BOT otherwise}.

    Most triples after round 1 relay a value already accepted, so a triple
    is tested for a known value of its slot first, and only a new value
    reaches the signature checks."""
    n, t = ctx.params.n, ctx.params.t
    auth: MsigAuthority = ctx.session.msig
    tags: ChainTags = ctx.session.chain_tags
    slots = range(1, n + 1) if senders is None else senders
    extracted: dict[int, list] = {s: [] for s in slots}
    if ctx.pid in extracted and my_value is not None:
        sig = auth.sign(ctx.pid, tags(instance, ctx.pid, my_value))
        ctx.broadcast("ds", ((ctx.pid, my_value, sig),), instance=instance)
        extracted[ctx.pid].append(my_value)
    mail = ctx.reader("ds", instance)
    for r in range(1, t + 2):
        yield NEXT_ROUND
        accepted = []
        for record in mail.new():
            for slot, value, sig in record.payload:
                got = extracted.get(slot)
                if got is None or value in got or len(got) >= 2:
                    continue
                if slot not in sig.signers or len(sig.signers) < r or ctx.pid in sig.signers:
                    continue
                tag = tags(instance, slot, value)
                if not auth.verify(sig, tag):
                    continue
                got.append(value)
                if r <= t:
                    accepted.append((slot, value, auth.cosign(sig, ctx.pid, tag)))
        if accepted:
            ctx.broadcast("ds", tuple(accepted), instance=instance)
    return {s: (got[0] if len(got) == 1 else BOT) for s, got in extracted.items()}


def dolev_strong(ctx: Ctx, instance: str, sender: int, my_value):
    """Authenticated broadcast (Dolev-Strong): the one-slot chain broadcast
    of ``sender``. Outputs the unique accepted value, BOT otherwise."""
    out = yield from parallel_chain_bcast(ctx, instance, my_value, senders=(sender,))
    return out[sender]


def sync_ba_majority(ctx: Ctx, instance: str, my_value):
    """Agreement for t < n/2: everyone broadcasts via a signature chain in
    parallel slots, then takes the strict majority of the n slot outputs."""
    n = ctx.params.n
    slot_out = yield from parallel_chain_bcast(ctx, instance, my_value)
    counts: dict[bytes, tuple[int, object]] = {}
    for v in slot_out.values():
        key = value_to_bytes(v)
        cnt, _ = counts.get(key, (0, v))
        counts[key] = (cnt + 1, v)
    best = max(counts.values(), key=lambda cv: cv[0])
    return best[1] if best[0] > n // 2 else BOT


# --- asynchronous reliable broadcast ------------------------------------------


class BrachaMachine:
    """Reactive echo/ready broadcast core, so several instances can share one
    party loop. Feed it the instance's envelopes; read .delivered."""

    def __init__(self, ctx: Ctx, instance: str, sender: int):
        self.ctx = ctx
        self.instance = instance
        self.sender = sender
        n, t = ctx.params.n, ctx.params.t
        self.echo_thresh = (n + t + 2) // 2  # ceil((n+t+1)/2)
        self.ready_amplify = t + 1
        self.ready_deliver = 2 * t + 1
        self.echoes: dict[bytes, set[int]] = {}
        self.readies: dict[bytes, set[int]] = {}
        self.values: dict[bytes, object] = {}
        self.sent_echo = False
        self.sent_ready = False
        self.delivered: object = None
        self.has_delivered = False

    def _bcast(self, tag: str, value):
        self.ctx.broadcast("rb", (tag, value), instance=self.instance)

    def start(self, my_value) -> None:
        if self.ctx.pid == self.sender and my_value is not None:
            self._bcast("send", my_value)
            key = value_to_bytes(my_value)
            self.values[key] = my_value
            self.sent_echo = True
            self.echoes.setdefault(key, set()).add(self.ctx.pid)
            self._bcast("echo", my_value)
            self._progress(key)

    def feed(self, env) -> None:
        """Count one vote; echo and ready, n of each per instance, are
        tested before the one send."""
        tag, value = env.payload
        key = value_to_bytes(value)
        self.values[key] = value
        if tag == "echo":
            self.echoes.setdefault(key, set()).add(env.src)
        elif tag == "ready":
            self.readies.setdefault(key, set()).add(env.src)
        elif tag == "send" and env.src == self.sender and not self.sent_echo:
            self.sent_echo = True
            self.echoes.setdefault(key, set()).add(self.ctx.pid)
            self._bcast("echo", value)
        self._progress(key)

    def _progress(self, key: bytes) -> None:
        """Send ready and deliver on the thresholds key now meets. Each call
        follows a change to key's counts alone, and every earlier call left
        no key at a threshold it acts on, so key is the only one to check."""
        if not self.sent_ready and (len(self.echoes.get(key, ())) >= self.echo_thresh
                                    or len(self.readies.get(key, ())) >= self.ready_amplify):
            self.sent_ready = True
            self.readies.setdefault(key, set()).add(self.ctx.pid)
            self._bcast("ready", self.values[key])
        if not self.has_delivered and len(self.readies.get(key, ())) >= self.ready_deliver:
            self.has_delivered = True
            self.delivered = self.values[key]


def bracha_rb(ctx: Ctx, instance: str, sender: int, my_value):
    """Echo/ready reliable broadcast for t < n/3; delivers eventually for an
    honest sender, all-or-none otherwise."""
    machine = BrachaMachine(ctx, instance, sender)
    machine.start(my_value)
    mail = ctx.reader("rb", instance)
    while not machine.has_delivered:
        for env in mail.new():
            machine.feed(env)
        if machine.has_delivered:
            break
        yield mail
    return machine.delivered


# --- asynchronous binary agreement --------------------------------------------


class _AbaRound:
    """One round's tallies, each indexed by vote: ``est``, ``aux`` and
    ``conf`` hold the sources of each vote (own included; a "none"
    confirmation only joins ``conf_srcs``), ``aux_in`` the sources of aux
    votes for a value in ``bin``, and ``sent``/``relayed`` whether this
    party broadcast or relayed each estimate."""

    __slots__ = ("est", "sent", "relayed", "bin", "aux", "aux_in", "conf", "conf_srcs")

    def __init__(self):
        self.est = (set(), set())
        self.sent = [False, False]
        self.relayed = [False, False]
        self.bin: list[int] = []  # the justified values, in the order they were justified
        self.aux = (set(), set())
        self.aux_in: set[int] = set()
        self.conf = (set(), set())
        self.conf_srcs: set[int] = set()


CONF_NONE = 2  # confirmation vote carrying no unanimous value


def aba_binary(ctx: Ctx, instance: str, my_bit: int):
    """Binary agreement with justified broadcast waves, a coin-matched
    estimate rule, and a round-independent ready layer.

    Per round: a relay-amplified estimate wave fixes the candidate set, a
    justified auxiliary wave exposes it, and every party casts one
    confirmation vote (the unanimous candidate, or "none"). A party becomes
    ready for v on a confirmation quorum of ALL n parties (then every honest
    party voted v, so every honest next-round estimate is v and the other
    value is starved forever - this is the coinless fast path on unanimous
    input), or on deciding classically when its vote matches the common
    coin (which aligns the undecided estimates with v). Ready messages
    amplify at t+1 and the output fires at 2t+1, so the decision reaches
    parties in any round without further round progress, and finished
    parties may halt immediately.

    Work per message is constant: each round keeps its tallies in an
    ``_AbaRound``, the ready votes sit in one pair of source sets, and a
    vote re-checks only the thresholds of the one tally it changed (every
    earlier change was checked when it happened): an estimate the relay at
    t+1 and the candidate set at 2t+1, a confirmation the full quorum, a
    ready vote amplification and the decision; an aux vote for a candidate
    joins the running union whose size is the n - t quorum. A vote already
    counted, an unknown tag, a round below 1 and a vote out of range change
    nothing. The party waits in one loop: after each batch of new mail it
    takes every round step whose quorum is met, and yields its reader when
    none is."""
    n, t = ctx.params.n, ctx.params.t
    pid = ctx.pid
    broadcast = ctx.broadcast
    votes = (0, 1, CONF_NONE)
    rounds: dict[int, _AbaRound] = {}
    readies = (set(), set())  # sources of each ready vote, in any round
    ready_sent = False
    decided = None  # (value, round of the vote that decided)

    def bcast(tag: str, r: int, v: int):
        broadcast("aba", (tag, r, v), instance=instance)

    def send_ready(v: int, r: int):
        nonlocal ready_sent, decided
        if not ready_sent:
            ready_sent = True
            seen = readies[v]
            seen.add(pid)
            bcast("ready", r, v)
            if decided is None and len(seen) > 2 * t:
                decided = (v, r)

    def justify(st: _AbaRound, r: int, v: int):
        """Relay and admit v on its estimate tally, which exceeds t."""
        seen = st.est[v]
        if not (st.relayed[v] or st.sent[v]):
            st.relayed[v] = True
            seen.add(pid)
            bcast("est", r, v)
        if len(seen) > 2 * t and v not in st.bin:
            st.bin.append(v)
            st.aux_in |= st.aux[v]

    def send_est(st: _AbaRound, r: int, v: int):
        # tests sent alone, so an estimate relayed before the party entered
        # the round goes out again (a metered duplicate, kept as it is)
        if not st.sent[v]:
            st.sent[v] = True
            seen = st.est[v]
            seen.add(pid)
            bcast("est", r, v)
            if len(seen) > t:
                justify(st, r, v)

    mail = ctx.reader("aba", instance)
    est = my_bit & 1
    r = 1
    st = rounds[r] = _AbaRound()
    send_est(st, r, est)
    waiting = "bin"  # the quorum the current round waits for: bin, aux, conf
    while True:
        for env in mail.new():
            tag, vr, v = env.payload
            if vr < 1 or v not in votes:
                continue
            src = env.src
            if tag == "ready":
                if v != CONF_NONE and src not in (seen := readies[v]):
                    seen.add(src)
                    if len(seen) > t:
                        if not ready_sent:
                            send_ready(v, vr)
                        if decided is None and len(seen) > 2 * t:
                            decided = (v, vr)
                continue
            vst = rounds.get(vr)
            if vst is None:
                vst = rounds[vr] = _AbaRound()
            if tag == "est" and v != CONF_NONE:
                if src not in (seen := vst.est[v]):
                    seen.add(src)
                    if len(seen) > t:
                        justify(vst, vr, v)
            elif tag == "aux" and v != CONF_NONE:
                vst.aux[v].add(src)
                if v in vst.bin:
                    vst.aux_in.add(src)
            elif tag == "conf":
                vst.conf_srcs.add(src)
                if v != CONF_NONE:
                    seen = vst.conf[v]
                    seen.add(src)
                    if len(seen) >= n:
                        send_ready(v, vr)
        while decided is None:
            if waiting == "bin":
                if not st.bin:
                    break
                w = st.bin[0]
                st.aux[w].add(pid)
                st.aux_in.add(pid)
                bcast("aux", r, w)
                waiting = "aux"
            elif waiting == "aux":
                if len(st.aux_in) < n - t:
                    break
                vals = [v for v in (0, 1) if v in st.bin and st.aux[v]]
                vote = vals[0] if len(vals) == 1 else CONF_NONE
                st.conf_srcs.add(pid)
                bcast("conf", r, vote)
                if vote != CONF_NONE:
                    st.conf[vote].add(pid)
                    if len(st.conf[vote]) >= n:
                        send_ready(vote, r)
                waiting = "conf"
            else:
                if len(st.conf_srcs) < n - t:
                    break
                # the estimate binds to the cast vote so a full confirmation
                # quorum certifies every honest next-round estimate
                coin = ctx.coin(instance, r)
                if vote != CONF_NONE:
                    est = vote
                    if coin == vote:
                        send_ready(vote, r)
                else:
                    est = coin
                if decided is not None:
                    break
                r += 1
                st = rounds.get(r)
                if st is None:
                    st = rounds[r] = _AbaRound()
                send_est(st, r, est)
                waiting = "bin"
        if decided is not None:
            break
        yield mail

    value, dec_round = decided
    ctx.engine.metrics.extra[f"aba_round/{instance}/{pid}"] = dec_round
    return value


# --- dispatch ------------------------------------------------------------------


# kind -> construction(ctx, instance, sender, value); sender None for agreement
CONCRETE = {
    "sync_bb": lambda ctx, inst, sender, v: dolev_strong(ctx, inst, sender, v),
    "sync_ba": lambda ctx, inst, sender, v: sync_ba_majority(ctx, inst, v),
    "async_rb": lambda ctx, inst, sender, v: bracha_rb(ctx, inst, sender, v),
    "async_ba_bit": lambda ctx, inst, sender, v: aba_binary(ctx, inst, v),
}


def _run_instance(ctx: Ctx, instance: str, value):
    """The generator both front doors return: two names, not one aliased, so
    that rebinding either name (a tracer's wrapper) wraps its own calls."""
    decl = ctx.session.oracles[instance]
    if ctx.session.oracle_impl[decl.kind] == "ideal":
        return ctx.ideal_oracle(instance, value)
    return CONCRETE[decl.kind](ctx, instance, decl.sender, value)


def ba_oracle(ctx: Ctx, instance: str, value):
    """Run one agreement oracle instance (ideal or concrete) to completion."""
    return _run_instance(ctx, instance, value)


def bcast_oracle(ctx: Ctx, instance: str, value):
    """Run one broadcast oracle instance; non-senders pass value=None."""
    return _run_instance(ctx, instance, value)


def slot_instances(prefix: str, kind: str, width: int, n: int) -> dict[str, OracleInstance]:
    """n broadcasts of one kind, instance ``<prefix>/<j>`` sent by party j."""
    return {f"{prefix}/{j}": OracleInstance(kind, j, width) for j in range(1, n + 1)}


def bb_slots(ctx: Ctx, prefix: str, my_value):
    """n concurrent sync_bb broadcasts, party j the sender of slot j, with
    my_value in one's own slot; returns {slot: output}.

    Ideal: one instance ``<prefix>/<j>`` per slot. Concrete:
    ``parallel_chain_bcast`` over the one instance name prefix."""
    names = {j: f"{prefix}/{j}" for j in range(1, ctx.params.n + 1)}
    kind = ctx.session.oracles[names[ctx.pid]].kind
    if ctx.session.oracle_impl[kind] == "concrete":
        return (yield from parallel_chain_bcast(ctx, prefix, my_value))
    for j, name in names.items():
        ctx.oracle_submit(name, my_value if j == ctx.pid else None)
    outputs = yield from ctx.wait_oracle(*names.values())
    return dict(zip(names, outputs))


class RbSlots:
    """n concurrent async_rb broadcasts inside one party loop, party j the
    sender of slot j under instance ``<prefix>/<j>``.

    The loop passes every envelope it reads to ``feed``, which takes only the
    mail of the session's implementation: the engine's outputs when ideal,
    ``rb`` mail to one ``BrachaMachine`` per slot when concrete. ``ones``
    lists the slots delivered as 1, in delivery order."""

    def __init__(self, ctx: Ctx, prefix: str):
        self.ctx = ctx
        self._names = {j: f"{prefix}/{j}" for j in range(1, ctx.params.n + 1)}
        kind = ctx.session.oracles[self._names[ctx.pid]].kind
        self._ideal = ctx.session.oracle_impl[kind] == "ideal"
        self._slots = {name: j for j, name in self._names.items()}
        self._machines: dict[int, BrachaMachine] = {}
        self._delivered: set[int] = set()
        self.ones: list[int] = []

    def _machine(self, j: int) -> BrachaMachine:
        machine = self._machines.get(j)
        if machine is None:
            machine = self._machines[j] = BrachaMachine(self.ctx, self._names[j], j)
        return machine

    def _note(self, j: int, value) -> None:
        # the engine fires an ideal instance once; a machine keeps its
        # delivered value, so note it once
        if j not in self._delivered:
            self._delivered.add(j)
            if value == 1:
                self.ones.append(j)

    def start(self, my_value) -> None:
        """Broadcast my_value in one's own slot."""
        pid = self.ctx.pid
        if self._ideal:
            self.ctx.oracle_submit(self._names[pid], my_value)
            return
        machine = self._machine(pid)
        machine.start(my_value)
        if machine.has_delivered:
            self._note(pid, machine.delivered)

    def feed(self, env) -> None:
        if env.kind != ("oracle_out" if self._ideal else "rb"):
            return
        j = self._slots.get(env.instance)
        if j is None:
            return
        if self._ideal:
            self._note(j, env.payload)
            return
        machine = self._machine(j)
        machine.feed(env)
        if machine.has_delivered:
            self._note(j, machine.delivered)
