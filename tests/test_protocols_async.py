from bbext.adversary import (
    AdversaryScript,
    OracleLiar,
    PartialPayloadSender,
    ScheduledHonest,
    Silent,
    StarvingScheduler,
    adversary_battery,
)
from bbext.checks import build_inputs, evaluate_run, explore_schedules
from bbext.protocols import SessionParams
from bbext.runner import run
from bbext.simnet import BOT

M = bytes(range(12))


def p_third(n=4, l=96):
    return SessionParams(n=n, t=(n - 1) // 3, l=l, k=128,
                         threshold_regime="third_async")


class SilentSender(AdversaryScript):
    name = "silent_sender"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender} if sender else ())


def test_agreement_unanimous_under_schedules():
    params = p_third()
    for adv in (AdversaryScript(), ScheduledHonest("lifo"), ScheduledHonest("random"),
                StarvingScheduler()):
        for seed in range(10):
            res = run("async-ba-third", params, {i: M for i in range(1, 5)},
                      adversary=adv, seed=seed)
            assert all(res.outputs[p] == M for p in res.honest), adv.name


def test_agreement_abort_branch_skips_package_wait():
    params = p_third()
    inputs = {i: bytes([i]) * 12 for i in range(1, 5)}
    res = run("async-ba-third", params, inputs, adversary=OracleLiar(), seed=0)
    assert all(res.outputs[p] is BOT for p in res.honest)


def test_agreement_delayed_packages_still_terminate():
    params = p_third(n=7)
    inputs = {i: M for i in range(1, 8)}
    res = run("async-ba-third", params, inputs, adversary=StarvingScheduler(), seed=1)
    assert all(res.outputs[p] == M for p in res.honest)


def test_reliable_broadcast_honest_sender():
    params = p_third()
    for seed in range(10):
        res = run("async-rb-third", params, {1: M}, seed=seed)
        assert all(res.outputs[p] == M for p in res.honest)


def test_reliable_broadcast_single_recipient_bootstraps_everyone():
    params = p_third()
    res = run("async-rb-third", params, {1: M}, adversary=PartialPayloadSender(),
              seed=0)
    assert all(res.outputs[p] == M for p in res.honest)


def test_reliable_broadcast_withheld_commitment_no_output():
    params = p_third()
    res = run("async-rb-third", params, {1: M}, adversary=SilentSender(), seed=0)
    assert not any(p in res.outputs for p in res.honest)


def test_reliable_broadcast_schedule_exploration():
    params = p_third()
    for adv in (AdversaryScript(), PartialPayloadSender()):
        def run_one(policy):
            return run("async-rb-third", params, {1: M}, adversary=adv, seed=6,
                       policy=policy)

        for prefix, res in explore_schedules(run_one, max_depth=5, branch_cap=3,
                                             max_traces=100):
            outs = {p: res.outputs.get(p) for p in res.honest}
            assert all(v == M for v in outs.values()), (adv.name, prefix, outs)


def test_battery_spot_check_async():
    for protocol in ("async-ba-third", "async-rb-third"):
        kind = "ba" if protocol == "async-ba-third" else "rb"
        params = p_third(n=7)
        for script in adversary_battery():
            inputs = build_inputs(kind, params, 13, "majority")
            res = run(protocol, params, inputs, adversary=script, seed=13)
            sender = None if kind == "ba" else 1
            assert not evaluate_run(kind, inputs, sender, res), (protocol, script.name)


def test_ideal_and_concrete_oracles_output_equivalent():
    params = p_third()
    inputs = {i: M for i in range(1, 5)}
    ideal = run("async-ba-third", params, inputs, adversary=Silent(), seed=7)
    concrete = run("async-ba-third", params, inputs, adversary=Silent(), seed=7,
                   oracle_impl={"async_ba_bit": "concrete"})
    assert ideal.outputs == concrete.outputs
    rb_ideal = run("async-rb-third", params, {1: M}, adversary=Silent(), seed=7)
    rb_concrete = run("async-rb-third", params, {1: M}, adversary=Silent(), seed=7,
                      oracle_impl={"async_rb": "concrete"})
    assert rb_ideal.outputs == rb_concrete.outputs


class NoncanonicalCommitter(AdversaryScript):
    """Byzantine sender commits to a share set that decodes cleanly but is
    padded with extra zero stripes, so it is not the canonical encoding of
    any message. Honest parties must neither crash nor output."""

    name = "noncanonical_committer"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender} if sender else ())

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            import numpy as np

            from bbext import blocks, rs

            params = ctx.params
            b = params.b
            m = env.inputs.get(env.sender, b"")
            canonical = rs.padded_bits(params.l, b) // (16 * b)
            stripes = canonical + 2  # longer buffer, trailer still last
            buf = bytearray(2 * b * stripes)
            buf[: len(m)] = m
            buf[-8:] = params.l.to_bytes(8, "big")
            arr = np.frombuffer(bytes(buf), dtype=">u2").astype(np.uint16)
            data = rs.DataBlocks(
                blocks=tuple(arr[i * stripes:(i + 1) * stripes].copy() for i in range(b)),
                original_bit_length=params.l,
            )
            cw = rs.rs_encode(data, params.n)
            shares = [blocks.IndexedShare(j, rs.pack_symbols(cw.symbols[j - 1]))
                      for j in range(1, params.n + 1)]
            z = blocks.eval_shares(ctx.session.ak, shares)
            ctx.oracle_submit("rb_commit", z.data)
            ctx.broadcast("payload", m)
            packages = blocks.make_packages(shares, ctx.session.ak, z)
            for j, pkg in sorted(packages.items()):
                if j != ctx.pid:
                    ctx.send(j, "share_pkg", pkg)
            return None
            yield  # pragma: no cover

        return party


def test_noncanonical_commitment_yields_no_output_and_no_crash():
    params = p_third()
    for seed in range(20):
        res = run("async-rb-third", params, {1: M},
                  adversary=NoncanonicalCommitter(), seed=seed)
        outs = {p: res.outputs[p] for p in res.honest if p in res.outputs}
        # all-or-none with one common value; here the canonical re-encoding
        # check blocks every output
        assert not outs, (seed, outs)


def test_happy_party_forwards_before_output():
    # the happy fast path must still complete the forwarding duty; without it
    # the unhappy parties could starve, so check everyone outputs
    params = p_third(n=4)
    inputs = {1: M, 2: M, 3: M, 4: b"w" * 12}
    from bbext.adversary import PushyChoice

    res = run("async-ba-third", params, inputs, adversary=PushyChoice(), seed=2)
    assert all(res.outputs[p] == M for p in res.honest)
