from types import SimpleNamespace

import pytest

from bbext import blocks
from bbext.accumulator import Witness
from bbext.adversary import (
    AdversaryScript,
    CorruptShareSender,
    Equivocator,
    OracleLiar,
    WrongHappy,
    _tail_corrupt,
    adversary_battery,
    hooked,
)
from bbext.simnet import BOT, Ctx, InvariantViolation, StopProtocol

PAYLOADS = [b"", b"\x00", b"\xff\xa5\x5a", bytes(range(256)), bytes(range(255, -1, -3)) * 40]
PAYLOAD_IDS = ["empty", "zero", "mixed", "every-byte", "long"]


class RecordingEngine:
    """Just enough engine for a Ctx: records what reaches the network."""

    def __init__(self, n):
        self.params = SimpleNamespace(n=n)
        self.honest = frozenset(range(2, n + 1))
        self.sent = []
        self.submitted = []

    def submit_send(self, src, dst, kind, payload, instance):
        self.sent.append((dst, kind, payload))

    def oracle_submit(self, pid, instance, value):
        self.submitted.append((pid, instance, value))


def sends_through(script, kind, payload, dst=2):
    """What the corrupt party actually sends when its honest code sends payload."""
    engine = RecordingEngine(n=4)

    def honest(ctx):
        ctx.send(dst, kind, payload)

    script.make_party(1, honest, env=None)(Ctx(engine, 1))
    [(_, sent_kind, sent)] = engine.sent
    assert sent_kind == kind
    return sent


@pytest.mark.parametrize("payload", PAYLOADS, ids=PAYLOAD_IDS)
def test_equivocator_flips_every_byte(payload):
    assert sends_through(Equivocator(), "payload", payload) == bytes(b ^ 0xFF for b in payload)
    assert sends_through(Equivocator(), "payload", payload, dst=3) == payload


@pytest.mark.parametrize("payload", PAYLOADS, ids=PAYLOAD_IDS)
def test_corrupt_share_sender_flips_every_byte(payload):
    pkg = blocks.SharePackage(indexed_share=blocks.IndexedShare(index=1, share=payload),
                              witness=Witness(b"w"))
    sent = sends_through(CorruptShareSender(), "share_pkg", pkg)
    assert sent.indexed_share == blocks.IndexedShare(1, bytes(b ^ 0xA5 for b in payload))
    assert sent.witness == pkg.witness


def test_hooks_rewrite_the_corrupt_partys_own_ctx():
    engine = RecordingEngine(n=4)
    ctx = Ctx(engine, 1)
    hooked(lambda c: None, send_hook=lambda c, dst, kind, payload: None,
           oracle_hook=lambda c, inst, value: 1, crash_after_steps=1)(ctx)
    ctx.broadcast("payload", b"m")
    assert engine.sent == []
    ctx.oracle_submit("ba_happy", 0)
    assert engine.submitted == [(1, "ba_happy", 1)]
    ctx.set_happy(True)
    ctx.set_happy(False)  # corrupt parties may flap the flag
    ctx.set_step("first")
    with pytest.raises(StopProtocol):
        ctx.set_step("second")
    assert ctx.step == "first"


def test_honest_happy_flag_only_rises():
    ctx = Ctx(RecordingEngine(n=4), 2)
    ctx.set_happy(True)
    with pytest.raises(InvariantViolation, match="monotone"):
        ctx.set_happy(False)


@pytest.mark.parametrize("script", [WrongHappy(), OracleLiar()], ids=lambda s: s.name)
def test_oracle_slack_goes_to_the_first_corrupt_submission(script):
    engine = RecordingEngine(n=4)  # party 1 is corrupt
    inst = SimpleNamespace(submissions={3: b"c", 1: b"z", 2: b"b"})
    assert script.pick_oracle_output(inst, [b"z", b"b", b"c"], engine) == b"z"
    # without a corrupt submission the base rule picks the smallest value
    inst = SimpleNamespace(submissions={3: b"c", 2: b"b"})
    assert script.pick_oracle_output(inst, [b"b", b"c"], engine) == b"b"
    assert script.pick_oracle_output(SimpleNamespace(submissions={}), [], engine) is BOT


# reference: each battery script's corrupt set, spelled out with
# _tail_corrupt rule by rule (tail, tail avoiding the sender, sender plus tail)
_TAIL = {"crash_early", "crash_mid", "wrong_happy", "conflicting_views"}
_TAIL_BUT_SENDER = {"silent", "oracle_liar", "junk_injector", "pushy_choice", "sched_starve"}
_SENDER_AND_TAIL = {"equivocator", "corrupt_share", "forge_witness", "withhold_cert"}
_NONE = {"honest", "sched_lifo", "sched_random"}


def _expected_corrupt(name, n, t, sender):
    if name in _NONE:
        return frozenset()
    if name in _TAIL:
        return _tail_corrupt(n, t)
    if name in _TAIL_BUT_SENDER:
        return _tail_corrupt(n, t, exclude=frozenset({sender} if sender else ()))
    if name in _SENDER_AND_TAIL:
        base = {sender} if sender else set()
        return frozenset(base) | _tail_corrupt(n, t - len(base), exclude=frozenset(base))
    assert name == "partial_payload"
    return frozenset({sender}) if sender else _tail_corrupt(n, t)


def test_battery_placements_match_each_scripts_rule():
    scripts = adversary_battery()
    assert {s.name for s in scripts} == (_TAIL | _TAIL_BUT_SENDER | _SENDER_AND_TAIL | _NONE
                                         | {"partial_payload"})
    for script in scripts:
        for n in range(1, 11):
            for t in range(1, n):
                for sender in (None, 1, 2, n):
                    assert (script.corrupt_set(n, t, sender)
                            == _expected_corrupt(script.name, n, t, sender)), (script.name, n, t,
                                                                              sender)


def test_unknown_placement_is_rejected():
    script = AdversaryScript()
    script.placement = "head"
    with pytest.raises(ValueError, match="placement"):
        script.corrupt_set(4, 1, None)
