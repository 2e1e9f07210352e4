import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbext.adversary import (AdversaryScript, CorruptChoice, Equivocator, OracleLiar,
                             PushyChoice, Silent)
from bbext.checks import build_inputs, judged_run
from bbext.oracles import CoinOracle
from bbext.protocols import PROTOCOLS, SessionParams, max_t
from bbext.protocols.base import ProtocolSpec
from bbext.runner import run
from bbext.simnet import BOT, OracleInstance, default_output


def harness(kind: str, bit: bool = False):
    def party(ctx, my_input, sender):
        out = yield from ctx.ideal_oracle("h", my_input)
        return out

    def oracles(params, sender):
        return {"h": OracleInstance(kind, sender, 1 if bit else params.k)}

    mode = "rounds" if kind.startswith("sync") else "events"
    regime = "half" if kind.startswith("sync") else "third_async"
    if kind in ("sync_bb", "async_rb"):
        problem = "bb" if kind == "sync_bb" else "rb"
    else:
        problem = "ba"
    return ProtocolSpec(name=f"h-{kind}", mode=mode, kind=problem, regime=regime, party=party,
                        oracles=oracles)


def params_for(kind: str, n: int = 4) -> SessionParams:
    if kind.startswith("sync"):
        return SessionParams(n=n, t=(n - 1) // 2, l=128, k=128, threshold_regime="half")
    return SessionParams(n=n, t=(n - 1) // 3, l=128, k=128,
                         threshold_regime="third_async")


def test_sync_ba_unanimous_validity():
    spec = harness("sync_ba")
    params = params_for("sync_ba")
    res = run(spec, params, {i: b"same" for i in range(1, 5)}, seed=0)
    assert all(v == b"same" for v in res.outputs.values())


def test_sync_ba_divergent_defaults_to_lexicographic_min():
    spec = harness("sync_ba")
    params = params_for("sync_ba")
    inputs = {1: b"bb", 2: b"aa", 3: b"cc", 4: b"dd"}
    res = run(spec, params, inputs, seed=0)
    assert all(v == b"aa" for v in res.outputs.values())


def test_sync_bb_honest_sender():
    spec = harness("sync_bb")
    params = params_for("sync_bb")
    res = run(spec, params, {1: b"msg"}, seed=0)
    assert all(v == b"msg" for v in res.outputs.values())


class SilentSender(AdversaryScript):
    name = "silent_sender"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender})


class ByzSenderPicksValue(SilentSender):
    name = "byz_sender_value"

    def pick_oracle_output(self, inst, submitted, engine):
        return b"chosen"


def test_sync_bb_byzantine_sender_terminates_with_common_value():
    spec = harness("sync_bb")
    params = params_for("sync_bb")
    res = run(spec, params, {1: b"msg"}, adversary=SilentSender(), seed=0)
    outs = {p: res.outputs[p] for p in res.honest}
    assert set(outs) == set(res.honest)
    assert len({repr(v) for v in outs.values()}) == 1
    assert next(iter(outs.values())) is BOT  # default adversary choice
    res2 = run(spec, params, {1: b"msg"}, adversary=ByzSenderPicksValue(), seed=0)
    assert all(res2.outputs[p] == b"chosen" for p in res2.honest)


def test_async_rb_byzantine_sender_may_never_fire():
    spec = harness("async_rb")
    params = params_for("async_rb")
    res = run(spec, params, {1: b"msg"}, adversary=SilentSender(), seed=0)
    assert not any(p in res.outputs for p in res.honest)


class PickBit(AdversaryScript):
    def __init__(self, bit: int):
        self.bit = bit
        self.name = f"pick_{bit}"

    def corrupt_set(self, n, t, sender):
        return frozenset()

    def pick_oracle_output(self, inst, submitted, engine):
        assert self.bit in submitted
        return self.bit

    def oracle_submissions(self, inst, engine):
        return {}


@pytest.mark.parametrize("bit", [0, 1])
def test_async_bit_ba_adversary_choice_enumerated(bit):
    spec = harness("async_ba_bit", bit=True)
    params = params_for("async_ba_bit")
    inputs = {1: 0, 2: 1, 3: 0, 4: 1}
    res = run(spec, params, inputs, adversary=PickBit(bit), seed=0)
    assert all(v == bit for v in res.outputs.values())


def test_ideal_oracle_charges_model_cost_pro_rata():
    spec = harness("sync_ba")
    params = params_for("sync_ba")
    full = run(spec, params, {i: b"same" for i in range(1, 5)}, seed=0)
    model = (params.k + params.k) * 16 + 64
    assert full.metrics.bits_by_oracle["sync_ba"] == model
    part = run(spec, params, {i: b"same" for i in range(1, 5)},
               adversary=Silent(), seed=0)
    assert part.metrics.bits_by_oracle["sync_ba"] == model * 3 // 4


@pytest.mark.parametrize("kind", ["sync_bb", "async_rb"])
def test_honest_ideal_submission_to_a_concrete_kind_is_refused(kind):
    # an instance of a kind the session runs concretely is not built
    with pytest.raises(ValueError, match="no ideal oracle instance 'h'"):
        run(harness(kind), params_for(kind), {1: b"msg"}, seed=0,
            oracle_impl={kind: "concrete"})


def test_out_of_domain_byzantine_submission_ignored():
    spec = harness("async_ba_bit", bit=True)
    params = params_for("async_ba_bit")
    res = run(spec, params, {1: 1, 2: 1, 3: 1, 4: 0}, adversary=OracleLiar(), seed=1)
    # honest (1,2,3) are unanimous; the liar's submissions cannot override
    assert all(res.outputs[p] == 1 for p in res.honest)


class OracleForger(AdversaryScript):
    """Tries to plant fake trusted-functionality outputs."""

    name = "oracle_forger"

    def corrupt_set(self, n, t, sender):
        return frozenset({n})

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            for dst in range(1, ctx.params.n + 1):
                if dst != ctx.pid:
                    ctx.send(dst, "oracle_out", b"forged", instance="h")
            return None
            yield  # pragma: no cover

        return party


def test_forged_oracle_outputs_are_dropped():
    spec = harness("sync_ba")
    params = params_for("sync_ba")
    res = run(spec, params, {i: b"same" for i in range(1, 5)},
              adversary=OracleForger(), seed=0)
    assert all(res.outputs[p] == b"same" for p in res.honest)


class Twin(bytes):
    """Bytes that equal everything, so the twin of any honest value."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = bytes.__hash__


class TwinSubmitter(Equivocator, CorruptChoice):
    """The equivocator, whose parties also submit a twin of every multi-bit
    oracle input, and which resolves oracle slack toward a corrupt
    submission."""

    name = "twin_submitter"

    def make_party(self, pid, honest_factory, env):
        equivocator = super().make_party(pid, honest_factory, env)

        def factory(ctx):
            gen = equivocator(ctx)
            ctx.oracle_hook = lambda ctx, instance, v: Twin(v) if type(v) is bytes else v
            return gen

        return factory


@pytest.mark.parametrize("protocol,n", [("sync-bb-half", 5), ("async-rb-third", 4),
                                        ("sync-ba-half", 5), ("async-ba-third", 4)])
def test_a_bytes_subclass_is_no_oracle_input(protocol, n):
    spec = PROTOCOLS[protocol]
    params = SessionParams(n=n, t=max_t(spec.regime, n), l=2**10, k=128,
                           threshold_regime=spec.regime)
    for seed in range(10):
        inputs = build_inputs(spec.kind, params, seed, "none")
        _, violations = judged_run(protocol, params, inputs, adversary=TwinSubmitter(),
                                   seed=seed)
        assert violations == [], seed


@given(st.lists(st.binary(max_size=6), min_size=1), st.lists(st.sampled_from([0, 1]),
                                                              min_size=1))
def test_default_output_is_the_least_submitted_value(values, bits):
    # bytes lexicographically, bits 0 before 1, BOT when nothing came in;
    # the pushy adversary takes the other end of the same order
    assert default_output(values) == min(values)
    assert default_output(bits) == min(bits)
    assert default_output([]) is BOT
    assert PushyChoice().pick_oracle_output(None, [], None) is BOT
    assert AdversaryScript().pick_oracle_output(None, values, None) == min(values)
    assert PushyChoice().pick_oracle_output(None, values, None) == max(values)
    assert PushyChoice().pick_oracle_output(None, bits, None) == max(bits)


def test_coin_oracle_consistency_and_adaptivity_gate():
    coin = CoinOracle(seed=9)
    assert coin.adversary_peek("inst", 1) is None
    b1 = coin.query("inst", 1, honest=True)
    assert coin.query("inst", 1, honest=True) == b1
    assert coin.adversary_peek("inst", 1) == b1
    assert coin.adversary_peek("inst", 2) is None
    bits = [coin.query("inst", r) for r in range(2, 40)]
    assert set(bits) == {0, 1}
