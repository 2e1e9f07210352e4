"""Short-message broadcast/agreement oracles.

Every oracle kind exists as an ideal trusted functionality (see
simnet.Engine) charged at its model cost. This module adds the concrete
constructions and a dispatcher that protocols call, so a session can swap
implementations per kind:

- sync_bb: signature-chain broadcast (t+1 relay rounds, any t < n).
- sync_ba: n parallel signature-chain broadcasts plus strict majority
  (t < n/2).
- async_rb: echo/ready reliable broadcast (t < n/3).
- async_ba_bit: round-based binary agreement with broadcast-justified value
  sets, coin-matched deciding, and a round-independent ready layer for
  propagation and halting (t < n/3).
- async_ba_kbit: ideal only.

Concrete oracles meter their real traffic; the common coin is an ideal
source revealing a round's bit to the adversary only after the first honest
query.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .multisig import MsigAuthority, MultiSig, msig_combine
from .simnet import BOT, Ctx, NEXT_ROUND, _encodable, value_to_bytes


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


# --- synchronous broadcast via signature chains -------------------------------


def dolev_strong(ctx: Ctx, instance: str, sender: int, my_value, value_bits: int):
    """Authenticated broadcast: accept at round r on a chain of r distinct
    signers that includes the sender; relay once with own signature added.
    Outputs the unique accepted value, BOT otherwise."""
    n, t = ctx.params.n, ctx.params.t
    auth: MsigAuthority = ctx.session.msig
    step = f"oracle:{instance}"
    relay_bits = value_bits + MultiSig.nominal_bits(n, ctx.params.k)
    extracted: list = []

    if ctx.pid == sender and my_value is not None:
        sig = auth.sign(ctx.pid, _chain_tag(instance, my_value))
        ctx.broadcast("ds", (my_value, sig), bits=relay_bits, step=step,
                      instance=instance, oracle="sync_bb")
        extracted.append(my_value)
    mail = ctx.reader("ds", instance)
    for r in range(1, t + 2):
        yield NEXT_ROUND
        for env in mail.new():
            try:
                value, sig = env.payload
            except (TypeError, ValueError):
                continue
            # the cheap filters first: the type check runs once per new value
            if len(extracted) >= 2 or value in extracted or not _encodable(value):
                continue
            if not isinstance(sig, MultiSig) or sender not in sig.signers:
                continue
            if len(sig.signers) < r or ctx.pid in sig.signers:
                continue
            tag = _chain_tag(instance, value)
            if not auth.verify(sig, tag):
                continue
            extracted.append(value)
            if r <= t:
                combined = msig_combine(sig, auth.sign(ctx.pid, tag))
                ctx.broadcast("ds", (value, combined), bits=relay_bits, step=step,
                              instance=instance, oracle="sync_bb")
    return extracted[0] if len(extracted) == 1 else BOT


def parallel_chain_bcast(ctx: Ctx, instance: str, my_value, value_bits: int,
                         oracle_label: str):
    """n concurrent signature-chain broadcasts, party j the sender of slot j.

    Returns the per-slot outputs as a dict {slot: value-or-BOT}. Slots run in
    the same t+1 relay rounds so chain lengths line up across slots.
    """
    n, t = ctx.params.n, ctx.params.t
    auth: MsigAuthority = ctx.session.msig
    step = f"oracle:{instance}"
    relay_bits = 16 + value_bits + MultiSig.nominal_bits(n, ctx.params.k)
    extracted: dict[int, list] = {s: [] for s in range(1, n + 1)}

    def tag(slot: int, value) -> bytes:
        return _chain_tag(f"{instance}/s{slot}", value)

    if my_value is not None:
        sig = auth.sign(ctx.pid, tag(ctx.pid, my_value))
        ctx.broadcast("ds", (ctx.pid, my_value, sig), bits=relay_bits, step=step,
                      instance=instance, oracle=oracle_label)
        extracted[ctx.pid].append(my_value)
    mail = ctx.reader("ds", instance)
    for r in range(1, t + 2):
        yield NEXT_ROUND
        for env in mail.new():
            try:
                slot, value, sig = env.payload
            except (TypeError, ValueError):
                continue
            if not isinstance(slot, int) or slot not in extracted:
                continue
            # the cheap filters first: the type check runs once per new
            # (slot, value), not once per relay
            got = extracted[slot]
            if len(got) >= 2 or value in got or not _encodable(value):
                continue
            if not isinstance(sig, MultiSig) or slot not in sig.signers:
                continue
            if len(sig.signers) < r or ctx.pid in sig.signers:
                continue
            slot_tag = tag(slot, value)
            if not auth.verify(sig, slot_tag):
                continue
            extracted[slot].append(value)
            if r <= t:
                combined = msig_combine(sig, auth.sign(ctx.pid, slot_tag))
                ctx.broadcast("ds", (slot, value, combined), bits=relay_bits, step=step,
                              instance=instance, oracle=oracle_label)
    return {s: (extracted[s][0] if len(extracted[s]) == 1 else BOT) for s in range(1, n + 1)}


def sync_ba_majority(ctx: Ctx, instance: str, my_value, value_bits: int):
    """Agreement for t < n/2: everyone broadcasts via a signature chain in
    parallel slots, then takes the strict majority of the n slot outputs."""
    n = ctx.params.n
    slot_out = yield from parallel_chain_bcast(ctx, instance, my_value, value_bits, "sync_ba")
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

    def __init__(self, ctx: Ctx, instance: str, sender: int, value_bits: int):
        self.ctx = ctx
        self.instance = instance
        self.sender = sender
        self.value_bits = value_bits
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
        self.ctx.broadcast("rb", (tag, value), bits=self.value_bits,
                           step=f"oracle:{self.instance}", instance=self.instance,
                           oracle="async_rb")

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
        try:
            tag, value = env.payload
        except (TypeError, ValueError):
            return
        try:
            key = value_to_bytes(value)
        except TypeError:
            return
        self.values[key] = value
        if tag == "send" and env.src == self.sender and not self.sent_echo:
            self.sent_echo = True
            self.echoes.setdefault(key, set()).add(self.ctx.pid)
            self._bcast("echo", value)
        elif tag == "echo":
            self.echoes.setdefault(key, set()).add(env.src)
        elif tag == "ready":
            self.readies.setdefault(key, set()).add(env.src)
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


def bracha_rb(ctx: Ctx, instance: str, sender: int, my_value, value_bits: int):
    """Echo/ready reliable broadcast for t < n/3; delivers eventually for an
    honest sender, all-or-none otherwise."""
    machine = BrachaMachine(ctx, instance, sender, value_bits)
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


@dataclass
class _AbaRound:
    est_seen: dict[int, set[int]] = field(default_factory=dict)
    est_relayed: set[int] = field(default_factory=set)
    bin_values: list[int] = field(default_factory=list)
    aux_seen: dict[int, set[int]] = field(default_factory=dict)
    conf_seen: dict[int, set[int]] = field(default_factory=dict)
    conf_srcs: set[int] = field(default_factory=set)
    est_sent: set[int] = field(default_factory=set)


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
    parties may halt immediately."""
    n, t = ctx.params.n, ctx.params.t
    step = f"oracle:{instance}"
    bits = 1 + 8
    rounds: dict[int, _AbaRound] = {}
    ready_seen: dict[int, set[int]] = {}
    ready_sent: list = []
    decided: list = []
    mail = ctx.reader("aba", instance)

    def rnd(r: int) -> _AbaRound:
        if r not in rounds:
            rounds[r] = _AbaRound()
        return rounds[r]

    def bcast(tag: str, r: int, v: int):
        ctx.broadcast("aba", (tag, r, v), bits=bits, step=step,
                      instance=instance, oracle="async_ba_bit")

    def send_ready(v: int, r: int):
        if not ready_sent:
            ready_sent.append(v)
            ready_seen.setdefault(v, set()).add(ctx.pid)
            bcast("ready", r, v)
            _check_output(r)

    def _check_output(r: int):
        if not decided:
            for v in (0, 1):
                if len(ready_seen.get(v, ())) >= 2 * t + 1:
                    decided.append((v, r))
                    return

    def send_est(r: int, v: int):
        st = rnd(r)
        if v not in st.est_sent:
            st.est_sent.add(v)
            st.est_seen.setdefault(v, set()).add(ctx.pid)
            bcast("est", r, v)
            _check_bin(r)

    def _check_bin(r: int):
        st = rnd(r)
        for v in (0, 1):
            seen = st.est_seen.get(v, set())
            if len(seen) >= t + 1 and v not in st.est_relayed and v not in st.est_sent:
                st.est_relayed.add(v)
                st.est_seen.setdefault(v, set()).add(ctx.pid)
                bcast("est", r, v)
            if len(seen) >= 2 * t + 1 and v not in st.bin_values:
                st.bin_values.append(v)

    def pump():
        for env in mail.new():
            try:
                tag, r, v = env.payload
            except (TypeError, ValueError):
                continue
            if not isinstance(r, int) or r < 1 or v not in (0, 1, CONF_NONE):
                continue
            st = rnd(r)
            if tag == "est" and v in (0, 1):
                st.est_seen.setdefault(v, set()).add(env.src)
                _check_bin(r)
            elif tag == "aux" and v in (0, 1):
                st.aux_seen.setdefault(v, set()).add(env.src)
            elif tag == "conf":
                st.conf_seen.setdefault(v, set()).add(env.src)
                st.conf_srcs.add(env.src)
                if v in (0, 1) and len(st.conf_seen.get(v, ())) >= n:
                    send_ready(v, r)
            elif tag == "ready" and v in (0, 1):
                ready_seen.setdefault(v, set()).add(env.src)
                if len(ready_seen[v]) >= t + 1:
                    send_ready(v, r)
                _check_output(r)

    def wait(pred):
        while True:
            pump()
            if pred() or decided:
                return
            yield mail

    est = my_bit & 1
    r = 1
    while not decided:
        st = rnd(r)
        send_est(r, est)
        yield from wait(lambda: st.bin_values)
        if decided:
            break
        w = st.bin_values[0]
        st.aux_seen.setdefault(w, set()).add(ctx.pid)
        bcast("aux", r, w)

        def aux_quorum():
            srcs = set()
            for v in st.bin_values:
                srcs |= st.aux_seen.get(v, set())
            return len(srcs) >= n - t

        yield from wait(aux_quorum)
        if decided:
            break
        vals = [v for v in (0, 1) if v in st.bin_values and st.aux_seen.get(v, set())]
        vote = vals[0] if len(vals) == 1 else CONF_NONE
        st.conf_seen.setdefault(vote, set()).add(ctx.pid)
        st.conf_srcs.add(ctx.pid)
        bcast("conf", r, vote)
        if vote in (0, 1) and len(st.conf_seen.get(vote, ())) >= n:
            send_ready(vote, r)
        yield from wait(lambda: len(st.conf_srcs) >= n - t)
        if decided:
            break
        # the estimate binds to the cast vote so a full confirmation quorum
        # certifies every honest next-round estimate
        coin = ctx.coin(instance, r)
        if vote in (0, 1):
            est = vote
            if coin == vote:
                send_ready(vote, r)
        else:
            est = coin
        r += 1

    value, dec_round = decided[0]
    ctx.engine.metrics.extra[f"aba_round/{instance}/{ctx.pid}"] = dec_round
    return value


# --- dispatch ------------------------------------------------------------------


def ba_oracle(ctx: Ctx, kind: str, instance: str, value, value_bits: int):
    """Run one agreement oracle instance (ideal or concrete) to completion."""
    impl = ctx.session.oracle_impl.get(kind, "ideal")
    if impl == "ideal":
        return (yield from ctx.ideal_oracle(kind, value, value_bits, instance=instance))
    if kind == "sync_ba":
        return (yield from sync_ba_majority(ctx, instance, value, value_bits))
    if kind == "async_ba_bit":
        return (yield from aba_binary(ctx, instance, value))
    raise ValueError(f"no concrete implementation for oracle kind {kind!r}")


def bcast_oracle(ctx: Ctx, kind: str, instance: str, sender: int, value, value_bits: int):
    """Run one broadcast oracle instance; non-senders pass value=None."""
    impl = ctx.session.oracle_impl.get(kind, "ideal")
    if impl == "ideal":
        return (
            yield from ctx.ideal_oracle(kind, value, value_bits, instance=instance, sender=sender)
        )
    if kind == "sync_bb":
        return (yield from dolev_strong(ctx, instance, sender, value, value_bits))
    if kind == "async_rb":
        return (yield from bracha_rb(ctx, instance, sender, value, value_bits))
    raise ValueError(f"no concrete implementation for oracle kind {kind!r}")
