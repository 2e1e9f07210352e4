"""Malformed-message robustness: junk payloads must never crash an honest
party or break termination/agreement/validity."""

import itertools

from bbext.adversary import JunkInjector
from bbext.checks import battery_configs, build_inputs, judged_run
from bbext.protocols import PROTOCOLS


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
