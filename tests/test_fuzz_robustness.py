"""Malformed-message robustness: junk payloads must never crash an honest
party or break termination/agreement/validity."""

import itertools

import pytest

from bbext import blocks
from bbext.adversary import AdversaryScript, JunkInjector
from bbext.checks import battery_configs, build_inputs, evaluate_run, judged_run
from bbext.oracles import bcast_oracle
from bbext.protocols import PROTOCOLS
from bbext.runner import run


def test_junk_injection_across_all_protocols():
    for protocol in sorted(PROTOCOLS):
        spec = PROTOCOLS[protocol]
        params = battery_configs(protocol, sizes=(4,))[0]
        impls = [None]
        if spec.mode == "rounds":
            impls.append({"sync_bb": "concrete", "sync_ba": "concrete"})
        else:
            impls.append({"async_rb": "concrete", "async_ba_bit": "concrete"})
        for impl, seed in itertools.product(impls, range(10)):
            inputs = build_inputs(spec.kind, params, seed,
                                  "majority" if seed % 2 else "all")
            _, violations = judged_run(protocol, params, inputs, adversary=JunkInjector(),
                                       seed=seed, oracle_impl=impl)
            assert not violations, (protocol, impl, seed, violations)


def test_junk_injection_at_seven_parties():
    for protocol in ("sync-bb-highthresh", "ef-async-rb-third", "async-ba-third"):
        spec = PROTOCOLS[protocol]
        params = battery_configs(protocol, sizes=(7,))[0]
        for seed in range(10):
            inputs = build_inputs(spec.kind, params, seed, "all")
            _, violations = judged_run(protocol, params, inputs, adversary=JunkInjector(),
                                       seed=seed)
            assert not violations, (protocol, seed, violations)


class OddLengthShareSender(AdversaryScript):
    """A corrupt sender that commits to 1-byte shares, which no decoder can
    read as 16-bit symbol-blocks, and sends each party its witnessed share;
    in the high-threshold protocol it also sends its own signature on the
    HAPPY marker, so the honest parties reconstruct in the first iteration."""

    name = "odd_length_shares"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender})

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            params, ak = ctx.params, ctx.session.ak
            shares = [blocks.IndexedShare(j, bytes([j])) for j in range(1, params.n + 1)]
            z = blocks.eval_shares(ak, shares)
            packages = blocks.make_packages(shares, ak, z)
            if env.spec.mode == "rounds":
                yield from bcast_oracle(ctx, "bb_commit", z.data)
                sig = ctx.session.msig.sign(ctx.pid, b"HAPPY/" + ctx.session.session_id.encode())
                ctx.broadcast("happy_cert", sig)
            else:
                yield from bcast_oracle(ctx, "rb_commit", z.data)
            for j, pkg in sorted(packages.items()):
                if j != ctx.pid:
                    ctx.send(j, "share_pkg", pkg)

        return party


@pytest.mark.parametrize("protocol", ["async-rb-third", "sync-bb-highthresh"])
def test_committed_odd_length_shares_crash_no_honest_party(protocol):
    for params, seed in itertools.product(battery_configs(protocol, sizes=(4,)), range(3)):
        inputs = build_inputs("bb", params, seed, "all")
        res = run(protocol, params, inputs, adversary=OddLengthShareSender(), seed=seed)
        assert evaluate_run(PROTOCOLS[protocol].kind, inputs, 1, res) == [], (params, seed)
