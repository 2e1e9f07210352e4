import itertools
from collections import Counter

import pytest

from bbext.adversary import (
    AdversaryScript,
    CorruptShareSender,
    Equivocator,
    ForgedWitness,
    JunkInjector,
    OracleLiar,
    PushyChoice,
    Silent,
    WithholdCertificate,
    WrongHappy,
    _tail_corrupt,
    adversary_battery,
    hooked,
)
from bbext.accumulator import Witness
from bbext.blocks import CodecMemo, IndexedShare, SharePackage, verify_package
from bbext.checks import build_inputs, evaluate_run
from bbext.protocols import SessionParams, crypto_sync
from bbext.runner import RunResult, run
from bbext.simnet import BOT, NEXT_ROUND, RunMetrics


def p_half(n=4, l=96):
    return SessionParams(n=n, t=(n - 1) // 2, l=l, k=128, threshold_regime="half")


def p_eps(n=4, eps=0.5, l=96):
    return SessionParams(n=n, t=int((1 - eps) * n), l=l, k=128,
                         threshold_regime="one_minus_eps", epsilon=eps)


M = bytes(range(12))


class SilentSender(AdversaryScript):
    name = "silent_sender"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender} if sender else ())


def test_agreement_unanimous_inputs():
    params = p_half()
    res = run("sync-ba-half", params, {i: M for i in range(1, 5)}, seed=0)
    assert all(res.outputs[p] == M for p in res.honest)


def test_agreement_commitment_never_held_yields_bottom():
    params = p_half()
    inputs = {i: bytes([i]) * 12 for i in range(1, 5)}
    res = run("sync-ba-half", params, inputs, adversary=OracleLiar(), seed=1)
    assert all(res.outputs[p] is BOT for p in res.honest)


def test_agreement_three_of_four_share_input():
    params = p_half()
    inputs = {1: M, 2: M, 3: M, 4: b"x" * 12}
    for script in (Silent(), PushyChoice(), WrongHappy()):
        res = run("sync-ba-half", params, inputs, adversary=script, seed=2)
        outs = [res.outputs[p] for p in sorted(res.honest)]
        assert len({repr(v) for v in outs}) == 1, script.name


def test_reconstruction_path_matches_direct_output():
    # pushy oracle choice adopts a held commitment on split inputs, forcing
    # the unhappy parties through reconstruction
    params = p_half()
    inputs = {1: M, 2: M, 3: M, 4: b"y" * 12}
    res = run("sync-ba-half", params, inputs, adversary=PushyChoice(), seed=5)
    assert all(res.outputs[p] == M for p in res.honest)


def test_broadcast_honest_sender():
    params = p_half()
    res = run("sync-bb-half", params, {1: M}, seed=0)
    assert all(res.outputs[p] == M for p in res.honest)


def test_broadcast_silent_sender_all_bottom():
    params = p_half()
    res = run("sync-bb-half", params, {1: M}, adversary=SilentSender(), seed=0)
    assert all(res.outputs[p] is BOT for p in res.honest)


def test_broadcast_equivocating_payload_converges():
    params = p_half()
    for seed in range(10):
        res = run("sync-bb-half", params, {1: M}, adversary=Equivocator(), seed=seed)
        outs = [res.outputs[p] for p in sorted(res.honest)]
        assert len({repr(v) for v in outs}) == 1


@pytest.mark.parametrize("script", [CorruptShareSender(), ForgedWitness()])
def test_tampered_packages_are_erased_not_believed(script):
    params = p_half(n=7)
    inputs = {i: M for i in range(1, 8)}
    res = run("sync-ba-half", params, inputs, adversary=script, seed=3)
    assert all(res.outputs[p] == M for p in res.honest)


def test_high_threshold_honest_sender_all_epsilons():
    for n, eps in [(4, 0.5), (4, 0.25), (7, 0.5), (10, 0.25)]:
        params = p_eps(n=n, eps=eps)
        res = run("sync-bb-highthresh", params, {1: M}, seed=0)
        assert all(res.outputs[p] == M for p in res.honest), (n, eps)


def test_high_threshold_silent_sender_bottom():
    params = p_eps()
    res = run("sync-bb-highthresh", params, {1: M}, adversary=SilentSender(), seed=0)
    assert all(res.outputs[p] is BOT for p in res.honest)


def test_high_threshold_withholder_accepts_in_final_iteration():
    params = p_eps(n=4, eps=0.5)  # t = 2, iterations 1..3
    adv = WithholdCertificate()
    res = run("sync-bb-highthresh", params, {1: M}, adversary=adv, seed=0, trace=True)
    assert all(res.outputs[p] == M for p in res.honest)
    iters = {int(k.split("/")[1]): v for k, v in res.metrics.extra.items()
             if k.startswith("happy_iter/")}
    honest_iters = {p: r for p, r in iters.items() if p in res.honest}
    assert honest_iters, "no honest party recorded a happy iteration"
    assert max(honest_iters.values()) == params.t + 1
    assert min(honest_iters.values()) == len(res.corrupt)


def test_withholder_commits_through_the_concrete_broadcast():
    # the corrupt sender commits through Dolev-Strong as an honest sender
    # would, so the honest parties output its message as under ideal oracles
    params = p_eps(n=7, eps=0.25)
    ideal = run("sync-bb-highthresh", params, {1: M}, adversary=WithholdCertificate(), seed=0)
    concrete = run("sync-bb-highthresh", params, {1: M}, adversary=WithholdCertificate(),
                   seed=0, oracle_impl={"sync_bb": "concrete"})
    assert all(concrete.outputs[p] == M for p in concrete.honest)
    assert concrete.outputs == ideal.outputs


def test_high_threshold_one_shot_steps():
    # every party's distribution / sharing traffic appears at most once
    params = p_eps(n=7, eps=0.5)
    res = run("sync-bb-highthresh", params, {1: M}, seed=1, trace=True)
    per_party_pkg = Counter()
    per_party_fwd = Counter()
    per_party_cert = Counter()
    for rec in res.trace:
        if rec["msg_kind"] == "share_pkg":
            per_party_pkg[rec["from"]] += 1
        elif rec["msg_kind"] == "share_fwd":
            per_party_fwd[rec["from"]] += 1
        elif rec["msg_kind"] == "happy_cert":
            per_party_cert[rec["from"]] += 1
    n = params.n
    assert all(v <= n - 1 for v in per_party_pkg.values())
    assert all(v <= n - 1 for v in per_party_fwd.values())
    assert all(v <= n - 1 for v in per_party_cert.values())


class JunkSender(JunkInjector):
    """The junk injector with the sender among its corrupt parties. The
    sender also sends every party, in each of the t+1 iterations, a
    well-formed package for its index under a zero witness. The commitment
    is never agreed, so every honest party rejects every package it
    receives and keeps looking through all t+1 iterations."""

    name = "junk_sender"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender}) | _tail_corrupt(n, t - 1, exclude=frozenset({sender}))

    def make_party(self, pid, honest_factory, env):
        junk = super().make_party(pid, honest_factory, env)
        if pid != env.sender:
            return junk

        def party(ctx):
            yield from junk(ctx)
            n = ctx.params.n
            for _ in range(ctx.params.t + 1):
                for dst in range(1, n + 1):
                    if dst != ctx.pid:
                        pkg = SharePackage(IndexedShare(dst, bytes(2)), Witness(bytes(8)))
                        ctx.send(dst, "share_pkg", pkg)
                yield NEXT_ROUND
                yield NEXT_ROUND

        return party


@pytest.mark.parametrize("script", [JunkInjector(), JunkSender()])
def test_high_threshold_checks_each_own_package_once(monkeypatch, script):
    # first_valid_own_package verifies each share_pkg envelope a party has
    # received at most once, across all iterations until it shares. It
    # reads ("share_pkg", None), so no package it checks names an instance.
    # The junk injector tags most of its packages with one: of seeds 0-4,
    # only seed 3 brings untagged junk to the check
    checked = Counter()
    rejected = set()
    rejected_any = False
    active: list[int] = []
    orig_first, orig_verify = crypto_sync.first_valid_own_package, CodecMemo.verify

    def first_valid(ctx, z, envs):
        assert all(env.instance is None for env in envs)
        active.append(ctx.pid)
        try:
            return orig_first(ctx, z, envs)
        finally:
            active.pop()

    def verify(memo, z, pkg, index):
        ok = orig_verify(memo, z, pkg, index)
        if active:
            checked[active[-1], id(pkg)] += 1
            if not ok:
                rejected.add((active[-1], id(pkg)))
        return ok

    monkeypatch.setattr(crypto_sync, "first_valid_own_package", first_valid)
    monkeypatch.setattr(CodecMemo, "verify", verify)
    params = p_eps(n=7, eps=0.5)
    for seed in range(5 if script.name == "junk_injector" else 3):
        checked.clear()
        rejected.clear()
        res = run("sync-bb-highthresh", params, {1: M}, adversary=script, seed=seed)
        assert not evaluate_run("bb", {1: M}, 1, res), (script.name, seed)
        assert checked and max(checked.values()) == 1, (script.name, seed)
        rejected_any |= bool(rejected)
        # with a junk sender nothing is accepted
        if script.name == "junk_sender":
            assert rejected == set(checked)
    # instance-free junk reaches the check and is rejected
    assert rejected_any


class PlantedPackage(AdversaryScript):
    """Every corrupt party but the sender sends each honest party, as it
    starts, a well-formed package for that party's index under a zero
    witness, tagged with ``instance`` (None: untagged)."""

    name = "planted_package"

    def __init__(self, instance):
        self.instance = instance
        self.planted: list[SharePackage] = []

    def corrupt_set(self, n, t, sender):
        return _tail_corrupt(n, t, exclude=frozenset({sender}))

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            for dst in range(1, ctx.params.n + 1):
                if dst not in env.corrupt:
                    pkg = SharePackage(IndexedShare(dst, bytes(2)), Witness(bytes(8)))
                    self.planted.append(pkg)
                    ctx.send(dst, "share_pkg", pkg, instance=self.instance)
            return None
            yield  # pragma: no cover

        return party


@pytest.mark.parametrize("instance", [None, "bb_commit", "junk"])
def test_a_package_tagged_with_an_instance_reaches_no_check(monkeypatch, instance):
    # honest parties read ("share_pkg", None): a corrupt package naming an
    # instance, declared or not, is verified by no honest party, and the
    # same package sent untagged arrives before the sender's and is checked
    # and rejected by each party it was sent to that checks its mail
    calls = []
    orig_verify = CodecMemo.verify

    def verify(memo, z, pkg, index):
        ok = orig_verify(memo, z, pkg, index)
        calls.append((pkg, ok))
        return ok

    monkeypatch.setattr(CodecMemo, "verify", verify)
    script = PlantedPackage(instance)
    params = p_eps(n=7, eps=0.5)
    res = run("sync-bb-highthresh", params, {1: M}, adversary=script, seed=0)
    assert not evaluate_run("bb", {1: M}, 1, res)
    assert len(script.planted) == 3 * len(res.honest)
    planted = {id(pkg) for pkg in script.planted}
    verdicts = [ok for pkg, ok in calls if id(pkg) in planted]
    if instance is None:
        assert verdicts and not any(verdicts)
    else:
        assert verdicts == []


def test_full_battery_spot_check_n7():
    # one seed through every script at n=7 for each synchronous protocol
    for protocol, params in [("sync-ba-half", p_half(n=7)),
                             ("sync-bb-half", p_half(n=7)),
                             ("sync-bb-highthresh", p_eps(n=7, eps=0.5))]:
        kind = "ba" if protocol.endswith("ba-half") else "bb"
        for script in adversary_battery():
            inputs = build_inputs(kind, params, 9, "majority")
            res = run(protocol, params, inputs, adversary=script, seed=9)
            sender = None if kind == "ba" else 1
            assert not evaluate_run(kind, inputs, sender, res), (protocol, script.name)


class CertGames(AdversaryScript):
    """Coalition sender plays readiness-certificate games: rotating single
    targets, per-recipient equivocation, or a full-length chain up front."""

    def __init__(self, mode):
        self.mode = mode
        self.name = f"certgames_{mode}"

    def corrupt_set(self, n, t, sender):
        base = {sender} if sender else set()
        return frozenset(base) | _tail_corrupt(n, max(t - len(base), 0),
                                               exclude=frozenset(base))

    def make_party(self, pid, honest_factory, env):
        if pid != env.sender:
            return None
        mode = self.mode

        def party(ctx):
            from bbext import blocks
            from bbext.multisig import msig_combine

            params = ctx.params
            m = env.inputs.get(env.sender, b"")
            shares = blocks.encode(m, params.b, params.n, bit_len=params.l)
            rich = blocks.eval_shares(ctx.session.ak, shares)
            ctx.oracle_submit("bb_commit", rich.data)
            yield from ctx.wait_oracle("bb_commit")
            tag = b"HAPPY/" + ctx.session.session_id.encode()
            sigs = {s: ctx.session.msig.sign(s, tag) for s in sorted(env.corrupt)}
            packages = blocks.make_packages(shares, ctx.session.ak, rich)
            honest = [p for p in range(1, params.n + 1) if p not in env.corrupt]
            for r in range(1, params.t + 2):
                if r == 1 and mode != "nodistribute":
                    for j, pkg in sorted(packages.items()):
                        if j != ctx.pid:
                            ctx.send(j, "share_pkg", pkg)
                cert = None
                for s in sorted(env.corrupt)[: min(r, len(env.corrupt))]:
                    cert = sigs[s] if cert is None else msig_combine(cert, sigs[s])
                if mode == "rotate":
                    ctx.send(honest[(r - 1) % len(honest)], "happy_cert", cert)
                elif mode == "equivocate":
                    for i, h in enumerate(honest):
                        c2 = cert if i % 2 == 0 else sigs[sorted(env.corrupt)[0]]
                        ctx.send(h, "happy_cert", c2)
                elif mode == "nodistribute":
                    for h in honest:
                        ctx.send(h, "happy_cert", cert)
                yield from ctx.wait_rounds(2)

        return party


@pytest.mark.parametrize("mode", ["rotate", "equivocate", "nodistribute"])
def test_high_threshold_certificate_games_keep_agreement(mode):
    for n, eps in [(4, 0.5), (7, 0.25)]:
        params = p_eps(n=n, eps=eps)
        for seed in range(15):
            res = run("sync-bb-highthresh", params, {1: M},
                      adversary=CertGames(mode), seed=seed)
            assert not evaluate_run("bb", {1: M}, 1, res), (n, eps, mode, seed)
            outs = [res.outputs[p] for p in sorted(res.honest)]
            assert len({repr(v) for v in outs}) == 1
            if mode == "nodistribute":
                assert outs[0] is BOT  # certificates alone never convince


def test_ideal_and_concrete_oracles_output_equivalent():
    params = p_half()
    inputs = {i: M for i in range(1, 5)}
    ideal = run("sync-ba-half", params, inputs, adversary=Silent(), seed=4)
    concrete = run("sync-ba-half", params, inputs, adversary=Silent(), seed=4,
                   oracle_impl={"sync_ba": "concrete"})
    assert ideal.outputs == concrete.outputs
    bb_ideal = run("sync-bb-half", params, {1: M}, adversary=Silent(), seed=4)
    bb_concrete = run("sync-bb-half", params, {1: M}, adversary=Silent(), seed=4,
                      oracle_impl={"sync_bb": "concrete", "sync_ba": "concrete"})
    assert bb_ideal.outputs == bb_concrete.outputs


def _judged(outputs: dict) -> list[str]:
    """evaluate_run over these agreement outputs; the inputs differ, so only
    termination and agreement are judged."""
    res = RunResult(outputs=outputs, metrics=RunMetrics(), honest=frozenset(outputs),
                    corrupt=frozenset())
    return evaluate_run("ba", {p: bytes([p]) for p in outputs}, None, res)


def test_agreement_flags_one_byte_of_a_long_output():
    long = bytes(range(256)) * 512
    last = long[:-1] + bytes([long[-1] ^ 1])
    assert _judged({1: long, 2: bytes(bytearray(long)), 3: long}) == []
    assert _judged({1: long, 2: last, 3: long}) == [f"agreement: {({1: long, 2: last, 3: long})}"]


@pytest.mark.parametrize("a, b", list(itertools.combinations([1, b"\x01", True, BOT, None], 2)))
def test_agreement_tells_apart_what_repr_tells_apart(a, b):
    assert repr(a) != repr(b)
    assert len(_judged({1: a, 2: b})) == 1
    assert _judged({1: a, 2: a, 3: a}) == [] == _judged({1: b, 2: b})


class JunkThenForward(PushyChoice):
    """Corrupt parties run the honest code but send each recipient their own
    package with every share byte flipped just before its forward; oracle
    slack goes to the largest value, so the happy vote carries and the
    unhappy honest parties reconstruct."""

    name = "junk_then_forward"

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind == "share_fwd":
                share = payload.indexed_share
                flipped = bytes(x ^ 0xFF for x in share.share)
                junk = SharePackage(IndexedShare(share.index, flipped), payload.witness)
                ctx.engine.submit_send(ctx.pid, dst, kind, junk, None)
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


def test_forwarded_table_keeps_the_first_valid_package(monkeypatch):
    # a forwarder's junk arriving first must not erase its valid share
    tables = []
    orig = CodecMemo.reconstruct

    def reconstruct(memo, packages, z, d0, b):
        tables.append((memo, dict(packages), z))
        return orig(memo, packages, z, d0, b)

    monkeypatch.setattr(CodecMemo, "reconstruct", reconstruct)
    params = p_half(n=5)
    inputs = {pid: M if pid != 2 else M[::-1] for pid in range(1, 6)}
    res = run("sync-ba-half", params, inputs, adversary=JunkThenForward(), seed=0)
    assert not evaluate_run("ba", inputs, None, res)
    assert tables
    for memo, table, z in tables:
        for pid in res.corrupt:
            assert verify_package(memo.ak, z, table[pid], expect_index=pid)
