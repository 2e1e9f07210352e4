"""Black-box behavior of the concrete oracle constructions."""

import hashlib
import json
from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbext import multisig, oracles, wire
from bbext.adversary import (
    AdversaryScript,
    Equivocator,
    JunkInjector,
    ScheduledHonest,
    Silent,
    adversary_battery,
    hooked,
)
from bbext.checks import battery_configs, build_inputs, evaluate_run, explore_schedules
from bbext.multisig import MsigAuthority, MultiSig, msig_combine
from bbext.oracles import BrachaMachine, _chain_tag, _slot_tag, value_to_bytes
from bbext.protocols import PROTOCOLS, SessionParams
from bbext.protocols.base import ProtocolSpec
from bbext.runner import run
from bbext.simnet import BOT, Engine, Envelope, OracleInstance, RandomPolicy, Reader


def chain_bb_spec():
    def party(ctx, my_input, sender):
        from bbext.oracles import dolev_strong
        out = yield from dolev_strong(ctx, "bb0", sender, my_input)
        return out

    return ProtocolSpec(name="h-ds", mode="rounds", kind="bb", regime="one_minus_eps",
                        party=party, oracles=lambda params, sender: {
                            "bb0": OracleInstance("sync_bb", sender, params.k)})


def chain_params(n: int, t: int) -> SessionParams:
    return SessionParams(n=n, t=t, l=128, k=128,
                         threshold_regime="one_minus_eps", epsilon=1.0 / n)


@pytest.mark.parametrize("n,t", [(4, 1), (4, 3), (7, 6)])
def test_chain_broadcast_honest_sender_all_thresholds(n, t):
    res = run(chain_bb_spec(), chain_params(n, t), {1: b"value"}, seed=0)
    assert all(res.outputs[p] == b"value" for p in res.honest)


class EquivocatingChainSender(AdversaryScript):
    """Sender signs two values and splits recipients between them."""

    name = "ds_equivocator"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender})

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            auth = ctx.session.msig
            for value in (b"left", b"right"):
                sig = auth.sign(ctx.pid, _slot_tag("bb0", ctx.pid, value))
                for dst in range(1, ctx.params.n + 1):
                    if dst == ctx.pid:
                        continue
                    if (dst % 2 == 0) == (value == b"left"):
                        ctx.send(dst, "ds", ((ctx.pid, value, sig),), instance="bb0")
            return None
            yield  # pragma: no cover

        return party


class LateReleaseChain(AdversaryScript):
    """Coalition withholds a second signed chain until its length matches the
    round number, releasing it to a single target."""

    name = "ds_late_release"

    def corrupt_set(self, n, t, sender):
        out = {sender}
        pid = n
        while len(out) < t:
            out.add(pid)
            pid -= 1
        return frozenset(out)

    def make_party(self, pid, honest_factory, env):
        if pid != env.sender:
            return None

        def party(ctx):
            auth = ctx.session.msig
            n = ctx.params.n
            sig_a = auth.sign(ctx.pid, _slot_tag("bb0", ctx.pid, b"public"))
            ctx.broadcast("ds", ((ctx.pid, b"public", sig_a),), instance="bb0")
            cert = None
            for signer in sorted(env.corrupt):
                s = auth.sign(signer, _slot_tag("bb0", ctx.pid, b"hidden"))
                cert = s if cert is None else msig_combine(cert, s)
            target = min(p for p in range(1, n + 1) if p not in env.corrupt)
            for r in range(1, len(env.corrupt)):
                yield from ctx.wait_rounds(1)
            ctx.send(target, "ds", ((ctx.pid, b"hidden", cert),), instance="bb0")
            return None

        return party


# three honest relays, each to n-1 = 3 parties at width + k + n = 260 bits
# (no slot id in a one-sender chain): the scripts' mail was parsed
THREE_RELAYS_BITS = 3 * 3 * (128 + 128 + 4)


def test_chain_broadcast_equivocating_sender_agrees():
    for seed in range(20):
        res = run(chain_bb_spec(), chain_params(4, 1), {1: b"x"},
                  adversary=EquivocatingChainSender(), seed=seed)
        outs = {p: res.outputs[p] for p in res.honest}
        assert set(outs) == set(res.honest)
        assert len({repr(v) for v in outs.values()}) == 1
        assert next(iter(outs.values())) in (b"left", b"right", BOT)
        # each honest party accepts its half's value in round 1 and relays it
        assert res.metrics.honest_bits_total == THREE_RELAYS_BITS


def test_chain_broadcast_late_release_still_agrees():
    res = run(chain_bb_spec(), chain_params(4, 2), {1: b"x"},
              adversary=LateReleaseChain(), seed=0)
    outs = {p: res.outputs[p] for p in res.honest}
    assert len({repr(v) for v in outs.values()}) == 1
    # both honest parties relay the public value, the target the hidden one
    assert res.metrics.honest_bits_total == THREE_RELAYS_BITS


def test_chain_broadcast_cost_within_twice_model():
    n, k = 7, 256
    params = SessionParams(n=n, t=n - 1, l=k, k=k,
                           threshold_regime="one_minus_eps", epsilon=1.0 / n)
    res = run(chain_bb_spec(), params, {1: bytes(32)}, seed=0,
              oracle_impl={"sync_bb": "concrete"})
    model = (k + n) * n * n + n**3
    assert res.metrics.honest_bits_total <= 2 * model


def majority_ba_spec():
    def party(ctx, my_input, sender):
        from bbext.oracles import sync_ba_majority
        out = yield from sync_ba_majority(ctx, "ba0", my_input)
        return out

    return ProtocolSpec(name="h-sbm", mode="rounds", kind="ba", regime="half",
                        party=party, oracles=lambda params, sender: {
                            "ba0": OracleInstance("sync_ba", None, params.k)})


def test_majority_agreement_validity_and_forced_majority():
    params = SessionParams(n=5, t=2, l=128, k=128, threshold_regime="half")
    res = run(majority_ba_spec(), params, {i: b"v" for i in range(1, 6)},
              adversary=Silent(), seed=0)
    assert all(res.outputs[p] == b"v" for p in res.honest)
    # three honest share a value; silent corrupt parties cannot prevent it
    inputs = {1: b"a", 2: b"a", 3: b"a", 4: b"z", 5: b"z"}
    res = run(majority_ba_spec(), params, inputs, adversary=Silent(), seed=1)
    assert all(res.outputs[p] == b"a" for p in res.honest)


def bracha_spec():
    def party(ctx, my_input, sender):
        from bbext.oracles import bracha_rb
        out = yield from bracha_rb(ctx, "rb0", sender, my_input)
        return out

    return ProtocolSpec(name="h-bracha", mode="events", kind="rb",
                        regime="third_async", party=party, oracles=lambda params, sender: {
                            "rb0": OracleInstance("async_rb", sender, params.k)})


class SplitEchoSender(AdversaryScript):
    """Byzantine sender: different value to each half of the parties."""

    name = "rb_split"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender})

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            for dst in range(1, ctx.params.n + 1):
                if dst != ctx.pid:
                    value = b"one" if dst % 2 else b"two"
                    ctx.send(dst, "rb", ("send", value), instance="rb0")
            return None
            yield  # pragma: no cover

        return party


def test_bracha_honest_sender_under_schedule_policies():
    params = SessionParams(n=4, t=1, l=128, k=128, threshold_regime="third_async")
    for adv in (AdversaryScript(), Silent(), ScheduledHonest("lifo"),
                ScheduledHonest("random")):
        for seed in range(15):
            res = run(bracha_spec(), params, {1: b"val"}, adversary=adv, seed=seed)
            assert all(res.outputs[p] == b"val" for p in res.honest), adv.name


class EchoReadyPoisoner(AdversaryScript):
    """Byzantine non-senders equivocate echo and ready votes per recipient."""

    name = "rb_poisoner"

    def corrupt_set(self, n, t, sender):
        return frozenset(range(n, n - t, -1))

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            for dst in range(1, ctx.params.n + 1):
                if dst == ctx.pid:
                    continue
                value = b"one" if dst % 2 else b"two"
                ctx.send(dst, "rb", ("echo", value), instance="rb0")
                ctx.send(dst, "rb", ("ready", value), instance="rb0")
            return None
            yield  # pragma: no cover

        return party


def test_bracha_poisoned_votes_keep_agreement():
    for n in (4, 7):
        params = SessionParams(n=n, t=(n - 1) // 3, l=128, k=128,
                               threshold_regime="third_async")
        for seed in range(40):
            res = run(bracha_spec(), params, {1: b"real"},
                      adversary=EchoReadyPoisoner(), seed=seed)
            outs = {p: res.outputs[p] for p in res.honest if p in res.outputs}
            if outs:
                assert len({repr(v) for v in outs.values()}) == 1, (n, seed, outs)
                # an honest sender's value always wins
                assert next(iter(outs.values())) == b"real"


def test_bracha_split_sender_all_or_none_over_schedules():
    params = SessionParams(n=4, t=1, l=128, k=128, threshold_regime="third_async")
    adv = SplitEchoSender()
    delivered_some = 0

    def run_one(policy):
        return run(bracha_spec(), params, {1: b"ignored"}, adversary=adv, seed=7,
                   policy=policy)

    for prefix, res in explore_schedules(run_one, max_depth=6, branch_cap=3,
                                         max_traces=200):
        outs = {p: res.outputs[p] for p in res.honest if p in res.outputs}
        if outs:
            delivered_some += 1
            assert set(outs) == set(res.honest), (prefix, outs)
            assert len({repr(v) for v in outs.values()}) == 1, (prefix, outs)
    assert delivered_some >= 0  # all-or-none held on every explored schedule


def aba_spec():
    def party(ctx, my_input, sender):
        from bbext.oracles import aba_binary
        out = yield from aba_binary(ctx, "aba0", my_input)
        return out

    return ProtocolSpec(name="h-aba", mode="events", kind="ba",
                        regime="third_async", party=party, oracles=lambda params, sender: {
                            "aba0": OracleInstance("async_ba_bit", None, 1)})


def test_aba_unanimous_decides_in_round_one_regardless_of_coin():
    params = SessionParams(n=4, t=1, l=1, k=128, threshold_regime="third_async")
    for value in (0, 1):
        for seed in range(10):  # both coin draws occur across seeds
            res = run(aba_spec(), params, {i: value for i in range(1, 5)}, seed=seed)
            assert all(res.outputs[p] == value for p in res.honest)
            rounds = [v for key, v in res.metrics.extra.items()
                      if key.startswith("aba_round/")]
            assert rounds and max(rounds) == 1


def test_aba_mixed_inputs_agree_across_schedules():
    params = SessionParams(n=4, t=1, l=1, k=128, threshold_regime="third_async")
    for seed in range(100):
        adv = [AdversaryScript(), Silent(), ScheduledHonest("lifo"),
               ScheduledHonest("random")][seed % 4]
        inputs = {i: (seed >> i) & 1 for i in range(1, 5)}
        res = run(aba_spec(), params, inputs, adversary=adv, seed=seed)
        outs = {p: res.outputs[p] for p in res.honest}
        assert set(outs) == set(res.honest)
        assert len(set(outs.values())) == 1
        decided = next(iter(outs.values()))
        assert decided in {inputs[p] for p in res.honest}


def test_aba_mixed_inputs_exhaustive_small_schedules():
    params = SessionParams(n=4, t=1, l=1, k=128, threshold_regime="third_async")
    inputs = {1: 0, 2: 1, 3: 1, 4: 0}

    def run_one(policy):
        return run(aba_spec(), params, inputs, seed=3, policy=policy)

    for prefix, res in explore_schedules(run_one, max_depth=5, branch_cap=3,
                                         max_traces=120):
        outs = {p: res.outputs[p] for p in res.honest}
        assert set(outs) == set(res.honest), prefix
        assert len(set(outs.values())) == 1, prefix


class AbaPoisoner(AdversaryScript):
    """Injects per-recipient conflicting est/aux/conf votes for many rounds,
    the strongest scripted message-level attack on the binary agreement."""

    name = "aba_poisoner"

    def __init__(self, flavor: int):
        self.flavor = flavor
        self.name = f"aba_poisoner{flavor}"

    def corrupt_set(self, n, t, sender):
        return frozenset(range(n, n - t, -1))

    def make_party(self, pid, honest_factory, env):
        import random as _random

        rng = _random.Random((self.name, env.seed, pid).__repr__())

        def party(ctx):
            n = ctx.params.n
            for r in range(1, 8):
                for dst in range(1, n + 1):
                    if dst == ctx.pid:
                        continue
                    if self.flavor == 0:
                        est, aux, conf = dst & 1, (dst >> 1) & 1, 2 if dst & 1 else 1
                    else:
                        est, aux, conf = (rng.randrange(2), rng.randrange(2),
                                          rng.choice([0, 1, 2]))
                    ctx.send(dst, "aba", ("est", r, est), instance="aba0")
                    ctx.send(dst, "aba", ("aux", r, aux), instance="aba0")
                    ctx.send(dst, "aba", ("conf", r, conf), instance="aba0")
            return None
            yield  # pragma: no cover

        return party


@pytest.mark.parametrize("flavor", [0, 1])
def test_aba_agreement_under_message_poisoning(flavor):
    for n in (4, 7):
        params = SessionParams(n=n, t=(n - 1) // 3, l=1, k=128,
                               threshold_regime="third_async")
        for seed in range(60):
            adv = AbaPoisoner(flavor)
            inputs = {i: (seed >> (i % 5)) & 1 for i in range(1, n + 1)}
            res = run(aba_spec(), params, inputs, adversary=adv, seed=seed)
            outs = {p: res.outputs[p] for p in res.honest}
            assert set(outs) == set(res.honest), (n, seed)
            assert len(set(outs.values())) == 1, (n, seed, outs)
            assert next(iter(outs.values())) in {inputs[p] for p in res.honest}


def test_aba_poisoned_schedule_exploration():
    params = SessionParams(n=4, t=1, l=1, k=128, threshold_regime="third_async")
    inputs = {1: 0, 2: 1, 3: 0, 4: 1}
    adv = AbaPoisoner(0)

    def run_one(policy):
        return run(aba_spec(), params, inputs, adversary=adv, seed=9, policy=policy)

    for prefix, res in explore_schedules(run_one, max_depth=6, branch_cap=3,
                                         max_traces=200):
        outs = {p: res.outputs[p] for p in res.honest}
        assert set(outs) == set(res.honest), prefix
        assert len(set(outs.values())) == 1, prefix
        assert next(iter(outs.values())) in {inputs[p] for p in res.honest}, prefix


# --- the binary agreement against its reference ---------------------------------


@dataclass
class _RefAbaRound:
    est_seen: dict[int, set[int]] = field(default_factory=dict)
    est_relayed: set[int] = field(default_factory=set)
    bin_values: list[int] = field(default_factory=list)
    aux_seen: dict[int, set[int]] = field(default_factory=dict)
    conf_seen: dict[int, set[int]] = field(default_factory=dict)
    conf_srcs: set[int] = field(default_factory=set)
    est_sent: set[int] = field(default_factory=set)


def reference_aba_binary(ctx, instance: str, my_bit: int):
    """Reference for ``oracles.aba_binary``, the same agreement written
    plainly: tallies in dicts of sets made on first use, both values of a
    round re-checked after every estimate and ready vote, the aux quorum
    recomputed as a union at each check, and each wait a generator that
    pumps all new mail, then tests its predicate."""
    n, t = ctx.params.n, ctx.params.t
    rounds: dict[int, _RefAbaRound] = {}
    ready_seen: dict[int, set[int]] = {}
    ready_sent: list = []
    decided: list = []
    mail = ctx.reader("aba", instance)

    def rnd(r: int) -> _RefAbaRound:
        if r not in rounds:
            rounds[r] = _RefAbaRound()
        return rounds[r]

    def bcast(tag: str, r: int, v: int):
        ctx.broadcast("aba", (tag, r, v), instance=instance)

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
        state = rnd(r)
        if v not in state.est_sent:
            state.est_sent.add(v)
            state.est_seen.setdefault(v, set()).add(ctx.pid)
            bcast("est", r, v)
            _check_bin(r)

    def _check_bin(r: int):
        state = rnd(r)
        for v in (0, 1):
            seen = state.est_seen.get(v, set())
            if len(seen) >= t + 1 and v not in state.est_relayed and v not in state.est_sent:
                state.est_relayed.add(v)
                state.est_seen.setdefault(v, set()).add(ctx.pid)
                bcast("est", r, v)
            if len(seen) >= 2 * t + 1 and v not in state.bin_values:
                state.bin_values.append(v)

    def pump():
        for env in mail.new():
            tag, r, v = env.payload
            if r < 1 or v not in (0, 1, oracles.CONF_NONE):
                continue
            state = rnd(r)
            if tag == "est" and v in (0, 1):
                state.est_seen.setdefault(v, set()).add(env.src)
                _check_bin(r)
            elif tag == "aux" and v in (0, 1):
                state.aux_seen.setdefault(v, set()).add(env.src)
            elif tag == "conf":
                state.conf_seen.setdefault(v, set()).add(env.src)
                state.conf_srcs.add(env.src)
                if v in (0, 1) and len(state.conf_seen.get(v, ())) >= n:
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
        state = rnd(r)
        send_est(r, est)
        yield from wait(lambda: state.bin_values)
        if decided:
            break
        w = state.bin_values[0]
        state.aux_seen.setdefault(w, set()).add(ctx.pid)
        bcast("aux", r, w)

        def aux_quorum():
            srcs = set()
            for v in state.bin_values:
                srcs |= state.aux_seen.get(v, set())
            return len(srcs) >= n - t

        yield from wait(aux_quorum)
        if decided:
            break
        vals = [v for v in (0, 1) if v in state.bin_values and state.aux_seen.get(v, set())]
        vote = vals[0] if len(vals) == 1 else oracles.CONF_NONE
        state.conf_seen.setdefault(vote, set()).add(ctx.pid)
        state.conf_srcs.add(ctx.pid)
        bcast("conf", r, vote)
        if vote in (0, 1) and len(state.conf_seen.get(vote, ())) >= n:
            send_ready(vote, r)
        yield from wait(lambda: len(state.conf_srcs) >= n - t)
        if decided:
            break
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


class _AbaCtx:
    """What a binary agreement reads of its party's context: the party's id,
    the session sizes, a reader over one list that `_drive_aba` fills, a broadcast
    that logs, a coin read from a drawn list, and the metrics' extra dict."""

    def __init__(self, pid: int, n: int, t: int, coins: list[int], log: list):
        self.pid = pid
        self.params = SessionParams(n=n, t=t, l=1, threshold_regime="third_async")
        self.box: list[Envelope] = []
        self.coins = coins
        self.log = log
        self.engine = SimpleNamespace(metrics=SimpleNamespace(extra={}))

    def reader(self, kind, instance):
        return Reader(self.box)

    def broadcast(self, kind, payload, instance=None):
        self.log.append((kind, payload, instance))

    def coin(self, instance, rnd):
        self.log.append(("coin", rnd))
        return self.coins[rnd % len(self.coins)]


def _drive_aba(construction, pid, n, t, my_bit, coins, preload, batches):
    """Run one party's agreement as the events engine would: preload is
    filed before the party starts; after that each batch is filed, then the
    party resumes while its reader has mail past the cursor. Returns the
    log of broadcasts and coin reads, each batch marked where it was
    filed, the output (None while undecided) and the metrics' extra dict."""
    log: list = []
    ctx = _AbaCtx(pid, n, t, coins, log)
    ctx.box.extend(preload)
    gen = construction(ctx, "aba0", my_bit)
    output = None

    def resume():
        nonlocal output
        try:
            return gen.send(None)
        except StopIteration as stop:
            output = stop.value
            return None

    waiting = resume()
    for i, batch in enumerate(batches):
        if waiting is None:
            break
        log.append(("batch", i))
        ctx.box.extend(batch)
        while waiting is not None and len(waiting._box) > waiting._pos:
            waiting = resume()
    return log, output, ctx.engine.metrics.extra


def _aba_env(src, tag, r, v):
    return Envelope(src, "aba", (tag, r, v), 9, "aba0")


_ABA_TAGS = st.sampled_from(["est", "est", "aux", "aux", "conf", "conf", "ready", "ready",
                             "echo"])
_ABA_ROUNDS = st.one_of(st.integers(1, 3), st.sampled_from([-1, 0, 4, 60]))
_ABA_VOTES = st.one_of(st.sampled_from([0, 1, 0, 1, oracles.CONF_NONE]), st.sampled_from([-1, 3]))


def _aba_waves(others: list[int]):
    """Consecutive rounds as peers cast them: in each, an estimate, an aux
    and a confirmation vote from each other party, unanimous or mixed."""
    def votes(choices):
        each = st.lists(st.sampled_from(choices), min_size=len(others), max_size=len(others))
        return st.one_of(st.sampled_from(choices).map(lambda v: [v] * len(others)), each)

    wave = st.tuples(votes([0, 1]), votes([0, 1]), votes([0, 1, oracles.CONF_NONE]))

    def cast(waves):
        first, rounds = waves
        return [(src, tag, r, v) for r, by_tag in enumerate(rounds, first)
                for tag, vs in zip(("est", "aux", "conf"), by_tag)
                for src, v in zip(others, vs)]

    return st.tuples(st.integers(1, 3), st.lists(wave, min_size=1, max_size=3)).map(cast)


@st.composite
def _aba_streams(draw):
    """One party's view of a session: (pid, n, t, bit, coins, preload,
    batches). The mail mixes single random votes (duplicate sources,
    out-of-range rounds and votes, unknown tags), floods in which every
    other party casts the same vote (often for a future round, or ready),
    and whole rounds of peer votes; it is shuffled or not, then cut into
    batches at random points."""
    n, t = draw(st.sampled_from([(4, 1), (7, 2)]))
    pid = draw(st.integers(1, n))
    others = [p for p in range(1, n + 1) if p != pid]
    vote = st.tuples(st.sampled_from(others), _ABA_TAGS, _ABA_ROUNDS, _ABA_VOTES)
    flood = st.tuples(_ABA_TAGS, _ABA_ROUNDS, _ABA_VOTES).map(
        lambda tv: [(src, *tv) for src in others])
    chunks = draw(st.lists(st.one_of(vote.map(lambda m: [m]), flood, _aba_waves(others)),
                           max_size=16))
    mail = [m for chunk in chunks for m in chunk]
    if draw(st.booleans()):
        mail = draw(st.permutations(mail))
    envs = [_aba_env(*m) for m in mail]
    cuts = sorted(draw(st.lists(st.integers(0, len(envs)), max_size=30)))
    pieces = [envs[a:b] for a, b in zip([0, *cuts], [*cuts, len(envs)])]
    coins = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    return pid, n, t, draw(st.integers(0, 3)), coins, pieces[0], pieces[1:]


# the ready vote of party 3 decides mid-batch; the estimates after it in the
# same batch still cross t + 1 and are relayed
@example((1, 4, 1, 0, [0], [_aba_env(2, "ready", 1, 0), _aba_env(3, "ready", 1, 0),
                            _aba_env(2, "est", 2, 1), _aba_env(3, "est", 2, 1)], []))
@given(_aba_streams())
def test_aba_binary_matches_its_reference(stream):
    # the same broadcasts and coin reads in the same order, batch by batch,
    # the same decision and the same decided round
    got = _drive_aba(oracles.aba_binary, *stream)
    ref = _drive_aba(reference_aba_binary, *stream)
    assert got == ref


@pytest.mark.parametrize("flavor", [0, 1])
def test_aba_binary_sessions_match_its_reference(monkeypatch, flavor):
    # whole sessions under the poisoner, which drives parties past round 1:
    # the same trace, metrics and outputs with the reference swapped in
    views = []
    for construction in (oracles.aba_binary, reference_aba_binary):
        monkeypatch.setattr(oracles, "aba_binary", construction)
        view = []
        for n in (4, 7):
            params = SessionParams(n=n, t=(n - 1) // 3, l=1, k=128,
                                   threshold_regime="third_async")
            for seed in range(20):
                inputs = {i: (seed >> (i % 5)) & 1 for i in range(1, n + 1)}
                res = run(aba_spec(), params, inputs, adversary=AbaPoisoner(flavor), seed=seed,
                          trace=True)
                view.append((res.trace, res.metrics.to_json(), res.outputs))
        views.append(view)
    assert views[0] == views[1]


# --- values of different types must not share an encoding ----------------------

# int 1's untyped 9-byte encoding, sent as a bytes value
ONE_AS_BYTES = b"\x00" * 8 + b"\x01"


def test_value_encoding_is_type_tagged():
    assert value_to_bytes(1) != value_to_bytes(ONE_AS_BYTES)
    assert value_to_bytes(0) != value_to_bytes(b"\x00" * 9)
    assert value_to_bytes(BOT) != value_to_bytes(b"<bot>")
    assert _chain_tag("ba_happy/s2", 1) != _chain_tag("ba_happy/s2", ONE_AS_BYTES)
    with pytest.raises(TypeError):
        value_to_bytes("text")


class ChainRelayOneAsBytes(AdversaryScript):
    """Party 1 runs the honest code but relays every chain value 1 as the
    nine bytes above, keeping the signatures it received and added."""

    name = "chain_one_as_bytes"

    def corrupt_set(self, n, t, sender):
        return frozenset({1})

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind == "ds":
                payload = tuple((slot, ONE_AS_BYTES if type(value) is int and value == 1
                                 else value, sig) for slot, value, sig in payload)
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


@pytest.mark.parametrize("n", [4, 7])
def test_chain_relay_of_retyped_value_keeps_validity(n):
    # before values were type-tagged, the relayed bytes verified under the
    # signatures on 1, every honest happy slot extracted two values, and every
    # honest party output BOT on unanimous inputs
    params = SessionParams(n=n, t=(n - 1) // 2, l=96, k=128, threshold_regime="half")
    for seed in range(3):
        inputs = build_inputs("ba", params, seed, "all")
        res = run("sync-ba-half", params, inputs, adversary=ChainRelayOneAsBytes(),
                  seed=seed, oracle_impl={"sync_ba": "concrete"})
        assert evaluate_run("ba", inputs, None, res) == [], (n, seed)


class Twin(bytes):
    """Bytes that compare unequal to everything, itself included."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    __hash__ = bytes.__hash__


class ChainRelayTwin(AdversaryScript):
    """Party 4 runs the honest code but relays every chain value as a Twin
    of itself, under the chain it received with its own signature added:
    the chain verifies, since the tag encodes the twin's bytes."""

    name = "chain_twin"

    def corrupt_set(self, n, t, sender):
        return frozenset({4})

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind == "ds":
                payload = tuple((slot, Twin(value) if type(value) is bytes else value, sig)
                                for slot, value, sig in payload)
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


def test_chain_relay_of_a_twin_value_keeps_validity():
    # a twin passed the duplicate check (``in`` uses ==) while its chain
    # verified, so every honest party extracted two values and output BOT
    params = SessionParams(n=4, t=1, l=256, k=128, threshold_regime="half")
    inputs = build_inputs("bb", params, 0, "random")
    res = run("sync-bb-half", params, inputs, adversary=ChainRelayTwin(), seed=0,
              oracle_impl={"sync_bb": "concrete"})
    assert res.honest == frozenset({1, 2, 3})
    assert evaluate_run("bb", inputs, 1, res) == []
    assert all(res.outputs[p] == inputs[1] for p in res.honest)


# --- chain records: a party's relays of a round travel as one batch ----------


class ChainBatchSender(AdversaryScript):
    """The last party sends one hand-built "ds" record to everyone under
    ba_commit before the chain starts; ``build(good)`` makes its payload
    from a triple every honest party accepts: its own slot, b"x" and its
    signature."""

    name = "chain_batch"

    placement = "tail_but_sender"

    def __init__(self, build):
        self.build = build

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            sig = ctx.session.msig.sign(ctx.pid, _slot_tag("ba_commit", ctx.pid, b"x"))
            ctx.broadcast("ds", self.build((ctx.pid, b"x", sig)), instance="ba_commit")
            return None
            yield  # pragma: no cover

        return party


def _ba_commit_run(adversary):
    params = SessionParams(n=4, t=1, l=96, k=128, threshold_regime="half")
    return run("sync-ba-half", params, build_inputs("ba", params, 0, "all"),
               adversary=adversary, seed=0, oracle_impl={"sync_ba": "concrete"})


def _honest_view(res):
    return res.metrics.honest_bits_total, {p: res.outputs[p] for p in res.honest}


# triples that fail a structural check, each built from the good one
_BAD_TRIPLES = {
    "short triple": lambda good: good[:2],
    "long triple": lambda good: good + (0,),
    "no triple": lambda good: 7,
    "str slot": lambda good: ("4",) + good[1:],
    "unhashable slot": lambda good: ([1], b"x", None),
    "unhashable slot, real sig": lambda good: ([4],) + good[1:],
    "no sig": lambda good: good[:2] + (None,),
    "bytes sig": lambda good: good[:2] + (b"sig",),
}
_MALFORMED_BATCHES = {
    "list payload": lambda good: [good],
    "bytes payload": lambda good: b"abc",
    "no payload": lambda good: None,
    **{name: (lambda good, bad=bad: (bad(good),)) for name, bad in _BAD_TRIPLES.items()},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_BATCHES))
def test_malformed_chain_batches_are_skipped(case):
    # a record nobody may act on leaves the honest parties as if its sender
    # were silent; an unhashable slot must not reach a dict lookup
    res = _ba_commit_run(ChainBatchSender(_MALFORMED_BATCHES[case]))
    assert _honest_view(res) == _honest_view(_ba_commit_run(Silent()))


def test_valid_triple_in_a_junk_batch_is_relayed_and_the_junk_costs_nothing(monkeypatch):
    verifies = []
    verify = MsigAuthority.verify

    def counting_verify(auth, sig, tag):
        verifies.append(tag)
        return verify(auth, sig, tag)

    monkeypatch.setattr(MsigAuthority, "verify", counting_verify)
    bad = list(_BAD_TRIPLES.values())

    def junk_around(good, k):
        junk = tuple(bad[i % len(bad)](good) for i in range(k))
        return junk[:k // 2] + (good,) + junk[k // 2:]

    seen = {}
    for k in (0, 300):
        verifies.clear()
        res = _ba_commit_run(ChainBatchSender(lambda good, k=k: junk_around(good, k)))
        seen[k] = (_honest_view(res), res.metrics.bits_by_step, len(verifies))
    assert seen[0] == seen[300]
    verifies.clear()
    silent = _ba_commit_run(Silent())
    # each of the 3 honest parties verifies the good triple once and relays
    # it once to the other 3 parties
    relay_bits = 128 + MultiSig.nominal_bits(4, 128) + 16
    (_, bits_by_step, n_verifies) = seen[0]
    assert n_verifies == len(verifies) + 3
    assert (bits_by_step["oracle:ba_commit"]
            == silent.metrics.bits_by_step["oracle:ba_commit"] + 3 * 3 * relay_bits)


@pytest.mark.parametrize("protocol,regime,t", [
    ("sync-ba-half", "half", 3),
    ("sync-bb-half", "half", 3),
    ("ef-sync-ba-third", "third_sync_ef", 2),
])
def test_honest_parties_send_one_chain_record_per_instance_and_round(monkeypatch, protocol,
                                                                      regime, t):
    records = []
    enqueue = Engine._enqueue

    def spy(engine, src, dsts, kind, payload, instance):
        if kind == "ds" and src in engine.honest:
            records.append(((src, instance, engine.tick), len(payload)))
        return enqueue(engine, src, dsts, kind, payload, instance)

    monkeypatch.setattr(Engine, "_enqueue", spy)
    params = SessionParams(n=7, t=t, l=96, k=128, threshold_regime=regime)
    concrete = {"sync_bb": "concrete", "sync_ba": "concrete"}
    sizes = []
    for adversary in (AdversaryScript(), Equivocator(), JunkInjector()):
        records.clear()
        run(protocol, params, build_inputs(PROTOCOLS[protocol].kind, params, 4, "majority"),
            adversary=adversary, seed=4, oracle_impl=concrete)
        keys = [key for key, _ in records]
        assert keys and len(keys) == len(set(keys)), adversary.name
        sizes += [size for _, size in records]
    # with n slots a party accepts several relays in a round, and batches them
    if protocol != "sync-bb-half":
        assert max(sizes) > 1


# --- chain signing: work per distinct signature, in bounded tables ------------


def test_honest_chains_check_each_signature_and_hash_each_tag_once(monkeypatch):
    # every receiver of a round's broadcast triple checks the same aggregate
    # on the same tag; the session computes each verdict and each tag once
    # and keeps its golden digests
    from tests.test_golden import GOLDEN, ORACLES, UNANIMITY

    checks, tags, verifies = [], [], []
    check, slot_tag, verify = MsigAuthority._check, oracles._slot_tag, MsigAuthority.verify
    monkeypatch.setattr(MsigAuthority, "_check",
                        lambda auth, *key: checks.append(key) or check(auth, *key))
    monkeypatch.setattr(MsigAuthority, "verify",
                        lambda auth, sig, tag: verifies.append(tag) or verify(auth, sig, tag))
    monkeypatch.setattr(oracles, "_slot_tag", lambda *key: tags.append(key) or slot_tag(*key))
    params = battery_configs("sync-ba-half")[-1]
    honest = next(s for s in adversary_battery() if s.name == "honest")
    res = run("sync-ba-half", params, build_inputs("ba", params, 0, UNANIMITY[0]),
              adversary=honest, seed=0, oracle_impl=ORACLES["concrete"])
    n = params.n
    assert n == 10
    # two chain instances of n slots; in round 1 each party checks the n - 1
    # triples of its peers, and relays each with its own signature added
    assert len(verifies) == 2 * n * (n - 1)
    assert len(checks) == len(set(checks)) == 2 * n
    assert len(tags) == len(set(tags)) == 2 * n
    golden = json.loads(GOLDEN.read_text())[
        f"sync-ba-half n={n} t={params.t} eps=None honest concrete seed=0"]
    assert [hashlib.sha256(res.metrics.to_json().encode()).hexdigest(),
            res.metrics.outputs_digest] == golden


class ChainFlood(AdversaryScript):
    """The last party runs the honest code and adds k forged ba_commit
    triples to each "ds" record it sends, distinct per record and receiver:
    its own slot, a fresh value, and a zero aggregate over itself and enough
    other parties for the round, the receiver not among them. Each forgery
    passes every check but the signature's, so every one takes a tag and a
    verdict. Records the session and both table sizes at each send."""

    name = "chain_flood"

    placement = "tail_but_sender"

    def __init__(self, k: int):
        self.k = k
        self.session = None
        self.sizes = set()

    def make_party(self, pid, honest_factory, env):
        self.session = env.session
        records = dict.fromkeys(range(1, env.params.n + 1), 0)

        def send_hook(ctx, dst, kind, payload):
            if kind != "ds" or type(payload[0][1]) is not bytes:
                return kind, payload
            records[dst] += 1
            r = records[dst]
            others = [p for p in range(1, ctx.params.n + 1) if p not in (pid, dst)]
            signers = frozenset([pid, *others[:r - 1]])
            forged = tuple((pid, b"flood/%d/%d/%d" % (dst, r, i),
                            MultiSig(signers, bytes(16 * len(signers))))
                           for i in range(self.k))
            self.sizes.add((len(self.session.chain_tags._tags),
                            len(self.session.msig._verdicts)))
            return kind, payload + forged

        return hooked(honest_factory, send_hook=send_hook)


def test_forged_chain_floods_keep_both_tables_bounded():
    views = {}
    for k in (0, 300):
        flood = ChainFlood(k)
        res = _ba_commit_run(flood)
        assert res.corrupt == frozenset({4})
        views[k] = _honest_view(res), res.metrics.bits_by_step
        session = flood.session
        flood.sizes.add((len(session.chain_tags._tags), len(session.msig._verdicts)))
        tag_sizes, verdict_sizes = zip(*flood.sizes)
        assert max(tag_sizes) <= oracles.TAG_ENTRIES
        assert max(verdict_sizes) <= multisig.VERDICT_ENTRIES
    # 2 records x 300 forgeries x 3 receivers overflow both tables
    assert (len(session.chain_tags._tags), len(session.msig._verdicts)) == (
        oracles.TAG_ENTRIES, multisig.VERDICT_ENTRIES)
    assert views[0] == views[300]


class ReadyOneAsBytes(AdversaryScript):
    """The last party answers every flag/j message with a ready vote for the
    nine bytes above, under random delivery."""

    name = "ready_one_as_bytes"

    def corrupt_set(self, n, t, sender):
        return frozenset({n})

    def scheduler_policy(self, corrupt, seed):
        return RandomPolicy()

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            mail = ctx.reader("rb")
            while True:
                for e in mail.new():
                    if (e.instance or "").startswith("flag/"):
                        ctx.broadcast("rb", ("ready", ONE_AS_BYTES), instance=e.instance)
                yield mail

        return party


def test_ready_votes_for_retyped_flag_keep_termination():
    # before values were type-tagged, the bytes shared the flag's vote key and
    # replaced the value 1 that honest readies delivered, so flags read as
    # not-1 and the broadcast stalled on some schedules
    for n in (4, 7, 10):
        params = SessionParams(n=n, t=(n - 1) // 3, l=96, k=128,
                               threshold_regime="third_async")
        for seed in range(10):
            inputs = build_inputs("rb", params, seed, "all")
            res = run("ef-async-rb-third", params, inputs, adversary=ReadyOneAsBytes(),
                      seed=seed, oracle_impl={"async_rb": "concrete"})
            assert evaluate_run("rb", inputs, 1, res) == [], (n, seed)


# --- BrachaMachine: thresholds checked on the fed key only -------------------


class _FakeCtx:
    """The parts of a party context a BrachaMachine reads: its id, the
    session sizes, and a broadcast that records (kind, payload)."""

    def __init__(self, pid: int, n: int, t: int):
        self.pid = pid
        self.params = SessionParams(n=n, t=t, l=8, threshold_regime="third_async")
        self.sent: list = []

    def broadcast(self, kind, payload, **_):
        self.sent.append((kind, payload))


class _Env:
    def __init__(self, src, payload):
        self.src = src
        self.payload = payload


class _SortedScanBracha(BrachaMachine):
    """Reference: every distinct value seen, in sorted key order, checked
    against both thresholds after each step."""

    def _progress(self, key=None) -> None:
        if not self.sent_ready:
            for k in sorted(self.values):
                if (len(self.echoes.get(k, ())) >= self.echo_thresh
                        or len(self.readies.get(k, ())) >= self.ready_amplify):
                    self.sent_ready = True
                    self.readies.setdefault(k, set()).add(self.ctx.pid)
                    self._bcast("ready", self.values[k])
                    break
        if not self.has_delivered:
            for k in sorted(self.values):
                if len(self.readies.get(k, ())) >= self.ready_deliver:
                    self.has_delivered = True
                    self.delivered = self.values[k]
                    break


_VALUES = st.sampled_from([b"", b"a", b"b", b"ab", 0, 1, 7, -1, BOT, "text", 2**80])
_PAYLOADS = st.one_of(
    # a few values, often repeated, so the thresholds are reached
    st.tuples(st.sampled_from(["send", "echo", "ready"]), st.sampled_from([b"a", b"b", 1])),
    st.tuples(st.sampled_from(["send", "echo", "ready", "other"]), _VALUES),
    st.sampled_from([None, 3, ("echo",), ("a", "b", "c")]),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(4, 1), (7, 2), (10, 3)]), st.integers(1, 3), st.booleans(),
       st.lists(st.tuples(st.integers(1, 10), _PAYLOADS), min_size=20, max_size=80))
def test_bracha_machine_matches_sorted_scan(nt, sender, start_as_sender, feeds):
    n, t = nt
    pid = sender if start_as_sender else 1 + sender % n
    machines = []
    for cls in (BrachaMachine, _SortedScanBracha):
        ctx = _FakeCtx(pid, n, t)
        m = cls(ctx, "rb0", sender)
        m.start(b"mine" if pid == sender else None)
        for src, payload in feeds:
            # the engine parses a corrupt party's payload before it is filed
            payload = wire.parse("rb", payload, 8)
            if payload is not wire.REFUSED:
                m.feed(_Env(1 + (src - 1) % n, payload))
        machines.append((m, ctx))
    (got, got_ctx), (ref, ref_ctx) = machines
    assert got_ctx.sent == ref_ctx.sent
    assert (got.sent_ready, got.has_delivered) == (ref.sent_ready, ref.has_delivered)
    assert got.delivered == ref.delivered and type(got.delivered) is type(ref.delivered)


class _CountingDict(dict):
    """A dict that counts the keys looked up in it."""

    looked_up = 0

    def get(self, key, default=None):
        _CountingDict.looked_up += 1
        return super().get(key, default)

    def __getitem__(self, key):
        _CountingDict.looked_up += 1
        return super().__getitem__(key)


def test_bracha_machine_work_per_junk_value_is_constant():
    # a corrupt party floods distinct echo values: each feed inspects a
    # constant number of keys, not every value seen so far
    floods = 400
    m = BrachaMachine(_FakeCtx(2, 10, 3), "rb0", 1)
    m.echoes, m.readies = _CountingDict(), _CountingDict()
    _CountingDict.looked_up = 0
    for i in range(floods):
        m.feed(_Env(10, ("echo", i.to_bytes(4, "big"))))
    assert _CountingDict.looked_up <= 3 * floods
    assert not m.sent_ready and not m.has_delivered


def test_front_doors_call_each_construction_by_its_module_name(monkeypatch):
    # a layer tracer times a construction by rebinding its name in the
    # module; the front doors must look that name up at every call
    from bbext import oracles
    from bbext.checks import _oracle_harness_spec, _oracle_params, _oracle_value

    calls = dict.fromkeys(["dolev_strong", "sync_ba_majority", "bracha_rb", "aba_binary"], 0)
    for name in calls:
        def spy(*args, _name=name, _original=getattr(oracles, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracles, name, spy)
    for kind in oracles.CONCRETE:
        spec = _oracle_harness_spec(kind, "concrete")
        params = _oracle_params(kind, 4)
        bit = kind == "async_ba_bit"
        inputs = {p: _oracle_value(0, p, params.k, "all", bit) for p in range(1, 5)}
        res = run(spec, params, inputs, seed=0, oracle_impl={kind: "concrete"})
        assert len(res.outputs) == 4, kind
    assert all(calls.values()), calls


# --- equivocation inside the concrete constructions ---------------------------


def _flip(value):
    return 1 - value if type(value) is int else bytes(b ^ 0xFF for b in value)


class OracleEquivocator(AdversaryScript):
    """The sender (when there is one) and the tail run the honest code, but
    equivocate inside the concrete constructions toward even-numbered
    parties: each echo/ready value and binary agreement bit is flipped, and
    a chain slot's own round-0 value is flipped and signed anew. Delivery is
    FIFO or uniformly random. Not in ``adversary_battery()``."""

    name = "oracle_equivocator"
    placement = "sender_and_tail"

    def __init__(self, random_delivery: bool):
        self.random_delivery = random_delivery

    def scheduler_policy(self, corrupt, seed):
        return RandomPolicy() if self.random_delivery else super().scheduler_policy(corrupt, seed)

    def make_party(self, pid, honest_factory, env):
        auth = env.session.msig
        chains = wire.instances(env.session.oracles)  # every name a chain runs under

        def resign(triple):
            slot, value, sig = triple
            if slot != pid or sig.signers != {pid}:
                return triple  # another slot's chain: not the party's to forge
            name = next(name for name in chains if auth.verify(sig, _slot_tag(name, slot, value)))
            return slot, _flip(value), auth.sign(pid, _slot_tag(name, slot, _flip(value)))

        def send_hook(ctx, dst, kind, payload):
            if dst % 2 == 0:
                if kind == "rb":
                    payload = (payload[0], _flip(payload[1]))
                elif kind == "aba" and payload[2] in (0, 1):
                    payload = (*payload[:2], _flip(payload[2]))
                elif kind == "ds":
                    payload = tuple(map(resign, payload))
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


ALL_CONCRETE = {"sync_bb": "concrete", "sync_ba": "concrete",
                "async_rb": "concrete", "async_ba_bit": "concrete"}


def _equivocation_violations(protocol: str, random_delivery: bool, seeds):
    """(n, seed, violations) of every broken run of protocol, all oracles
    concrete, at the battery's sizes."""
    from bbext.checks import battery_configs, judged_run

    spec = PROTOCOLS[protocol]
    broken = []
    for params in battery_configs(protocol):
        for seed in seeds:
            inputs = build_inputs(spec.kind, params, seed, "majority")
            _, violations = judged_run(protocol, params, inputs, seed=seed,
                                       adversary=OracleEquivocator(random_delivery),
                                       oracle_impl=ALL_CONCRETE)
            if violations:
                broken.append((params.n, seed, violations))
    return broken


@pytest.mark.parametrize("protocol,random_delivery", [
    (protocol, random_delivery) for protocol in sorted(PROTOCOLS)
    # rounds mode has no delivery policy
    for random_delivery in ((False, True) if PROTOCOLS[protocol].mode == "events" else (False,))])
def test_equivocation_inside_the_constructions_breaks_nothing(protocol, random_delivery):
    assert _equivocation_violations(protocol, random_delivery, range(5)) == []


@pytest.mark.parametrize("random_delivery", [False, True], ids=["fifo", "random"])
def test_equivocation_catches_lowered_echo_ready_thresholds(monkeypatch, random_delivery):
    # with echo and delivery at t + 1, the flipped echoes and readies split
    # the honest parties of async-rb-third: all-or-none delivery breaks (in
    # 20 of these 60 runs under FIFO delivery and 30 under random delivery)
    init = BrachaMachine.__init__

    def lowered(machine, ctx, *args):
        init(machine, ctx, *args)
        machine.echo_thresh = machine.ready_deliver = ctx.params.t + 1

    monkeypatch.setattr(BrachaMachine, "__init__", lowered)
    broken = _equivocation_violations("async-rb-third", random_delivery, range(20))
    assert broken
    assert all(v.startswith("termination: partial output") for _, _, vs in broken for v in vs)
