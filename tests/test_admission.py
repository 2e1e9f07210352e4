"""Values of a non-exact type from corrupt parties: one admission rule.

A corrupt party may hand honest code a value whose type only resembles the
one expected: a ``bytes`` subclass whose ``==`` and hash claim an honest
value, an int subclass with its own operators, ``True`` or ``1.0`` for a
bit, a tag whose ``==`` raises. The engine parses every corrupt envelope
and submission through ``wire``, so the oracle constructions, the protocols
and the codec memo see such a value nowhere. These tests depend on
``hash()``, so CI also runs them under other ``PYTHONHASHSEED`` values.
"""

import numpy as np
import pytest

from bbext import wire
from bbext.accumulator import Witness
from bbext.adversary import AdversaryScript, hooked
from bbext.blocks import IndexedShare, SharePackage
from bbext.checks import (SENDER, _oracle_harness_spec, _oracle_params, _oracle_value,
                          build_inputs, judged_run)
from bbext.multisig import MultiSig
from bbext.oracles import _slot_tag
from bbext.protocols import PROTOCOLS, SessionParams, max_t
from bbext.runner import run
from bbext.simnet import BOT, NEXT_ROUND, RandomPolicy, SchedulerPolicy
from tests.test_oracles_concrete import chain_bb_spec, chain_params


class AlwaysEqual(bytes):
    """Bytes that claim to equal every value, hashing as the bytes they hold
    or, when given, as the value they impersonate."""

    def __new__(cls, data: bytes, impersonated: bytes | None = None):
        obj = super().__new__(cls, data)
        obj._hash = hash(data if impersonated is None else impersonated)
        return obj

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    def __hash__(self):
        return self._hash


def _params(protocol: str, n: int) -> SessionParams:
    spec = PROTOCOLS[protocol]
    return SessionParams(n=n, t=max_t(spec.regime, n), l=96, k=128,
                         threshold_regime=spec.regime)


def _flip(m: bytes) -> bytes:
    return bytes(b ^ 0xFF for b in m)


# --- echo/ready broadcast: always-equal twins of the commitment ----------------


class NonPayloadFirst(SchedulerPolicy):
    """Uniformly random delivery among the pending envelopes of every kind
    but ``payload``; a payload goes only when nothing else is pending."""

    def pick(self, pending, rng):
        others = [i for i, (env, _) in enumerate(pending) if env.kind != "payload"]
        return rng.choice(others) if others else rng.randrange(len(pending))


class BrachaTwinEchoer(AdversaryScript):
    """The tail parties echo and ready an always-equal twin of each value
    they see under ``rb_commit``, and send every party the package of
    another message for its index under an all-zero witness of the right
    length."""

    name = "bracha_twin"
    placement = "tail"

    def scheduler_policy(self, corrupt, seed):
        return NonPayloadFirst()

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            params = ctx.params
            codec = ctx.session.codec
            shares, z = codec.commit(_flip(env.inputs[SENDER]), params.b, params.l)
            for j, pkg in sorted(codec.packages(shares, z).items()):
                if j != ctx.pid:
                    zeroed = Witness(bytes(len(pkg.witness.data)))
                    ctx.send(j, "share_pkg", SharePackage(pkg.indexed_share, zeroed))
            mail = ctx.reader("rb", "rb_commit")
            seen = set()
            while True:
                for got in mail.new():
                    try:
                        _, value = got.payload
                    except (TypeError, ValueError):
                        continue
                    if type(value) is bytes and value not in seen:
                        seen.add(value)
                        for tag in ("echo", "ready"):
                            ctx.broadcast("rb", (tag, AlwaysEqual(value)), instance="rb_commit")
                yield mail

        return party


def test_always_equal_echoes_keep_reliable_broadcast_in_agreement():
    # the machine took a twin's key as the commitment's and kept the twin as
    # the value to deliver; the twin then verified every package and payload,
    # and 11 of these 20 runs broke agreement
    params = _params("async-rb-third", 7)
    for seed in range(20):
        inputs = build_inputs("rb", params, seed, "all")
        res, violations = judged_run("async-rb-third", params, inputs,
                                     adversary=BrachaTwinEchoer(), seed=seed,
                                     oracle_impl={"async_rb": "concrete"})
        assert violations == [], seed
        outs = {p: res.outputs.get(p) for p in res.honest}
        assert all(type(out) is bytes and out == inputs[SENDER] for out in outs.values()), seed


# --- the codec memo: a payload that hashes and compares as the message --------


class HashTwinSender(AdversaryScript):
    """The corrupt sender runs the honest code, so it commits to its message
    M through ``bb_commit``; it sends M to party 2 and, to every other
    party, an always-equal twin of other bytes whose hash is hash(M)."""

    name = "hash_twin"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender})

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind == "payload" and dst != 2:
                payload = AlwaysEqual(_flip(payload), impersonated=payload)
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


@pytest.mark.parametrize("n", [4, 7])
def test_a_payload_twin_does_not_find_the_committed_message_in_the_memo(n):
    # the twin's memo key found the entry of M, so parties 3..n held the
    # twin as a message that commits to z and output the other bytes
    params = _params("sync-bb-half", n)
    inputs = build_inputs("bb", params, 0, "all")
    res, violations = judged_run("sync-bb-half", params, inputs, adversary=HashTwinSender(),
                                 seed=0)
    assert violations == []
    # only party 2 is happy, so the happy vote fails
    assert all(res.outputs[p] is BOT for p in res.honest)


# --- an oracle output the adversary picks ------------------------------------------


class TwinPicker(AdversaryScript):
    """Where an ideal agreement leaves its output open, picks an
    always-equal twin of zero bytes."""

    name = "twin_picker"
    placement = "tail"

    def pick_oracle_output(self, inst, submitted, engine):
        if inst.value_bits == 1:
            return super().pick_oracle_output(inst, submitted, engine)
        return AlwaysEqual(bytes(inst.value_bits // 8))


@pytest.mark.parametrize("n", [4, 7])
def test_a_picked_twin_output_is_bot(n):
    # the twin equalled every honest commitment, so every honest party was
    # happy with its own message and output it: agreement broke
    params = _params("sync-ba-half", n)
    inputs = build_inputs("ba", params, 0, "none")
    res, violations = judged_run("sync-ba-half", params, inputs, adversary=TwinPicker(), seed=0)
    assert violations == []
    assert all(res.outputs[p] is BOT for p in res.honest)


# --- each admission site refuses each hostile value -----------------------------


class SubInt(int):
    pass


class SubPackage(SharePackage):
    pass


class SubIndexedShare(IndexedShare):
    pass


class SubWitness(Witness):
    pass


_SHARE = IndexedShare(index=1, share=b"\x00\x01")
_WITNESS = Witness(data=bytes(8))

HOSTILE = {
    "float": 1.0,
    "bool": True,
    "numpy-int": np.int64(1),
    "BOT": BOT,
    "str": "\x00\x01",
    "bytes-subclass": AlwaysEqual(b"\x00\x01"),
    "int-subclass": SubInt(1),
    "package-subclass": SubPackage(_SHARE, _WITNESS),
    "share-subclass": SubIndexedShare(index=1, share=b"\x00\x01"),
    "witness-subclass": SubWitness(data=bytes(8)),
}


def _packages_holding(value) -> list:
    """value as a package, and in each field of a package that passes."""
    return [
        value,
        SharePackage(IndexedShare(value, _SHARE.share), _WITNESS),
        SharePackage(IndexedShare(_SHARE.index, value), _WITNESS),
        SharePackage(_SHARE, Witness(value)),
        SharePackage(value, _WITNESS),
        SharePackage(_SHARE, value),
    ]


_SIG = MultiSig(frozenset({1, 2}), bytes(32))


def _carriers(value) -> dict[str, list]:
    """Payloads of each kind with value at one of their leaves; every other
    leaf is of the shape the kind's parser admits."""
    sigs = [MultiSig(value, _SIG.aggregate), MultiSig(frozenset({2, value}), _SIG.aggregate),
            MultiSig(_SIG.signers, value), value]
    return {
        **{kind: [value] for kind in ("payload", "sym_self", "sym_priv", "maj_val",
                                      "v_vec", "e_vec")},
        "share_pkg": _packages_holding(value),
        "share_fwd": _packages_holding(value),
        "happy_cert": sigs,
        "ok": [(value, 1), (1, value)],
        "aba": [("est", value, 1), ("est", 1, value)],
        "rb": [("echo", value)],
        "ds": [((value, b"v", _SIG),), ((1, value, _SIG),)] + [((1, b"v", sig),) for sig in sigs],
    }


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE.keys())
def test_each_admission_site_refuses_a_value_of_another_type(value):
    good = {"share_pkg": SharePackage(_SHARE, _WITNESS), "happy_cert": _SIG,
            "rb": ("echo", b"v"), "ds": ((1, b"v", _SIG),)}
    for kind, payload in good.items():
        assert wire.parse(kind, payload, 128) is payload
    for width in (1, 128):
        assert not wire.value_ok(value, width)
        for kind, payloads in _carriers(value).items():
            for payload in payloads:
                # a wrong symbol vote, a record without the triple, or nothing;
                # the type first, as a hostile value's == may lie
                want = {"maj_val": b"", "ds": ()}.get(kind, wire.REFUSED)
                got = wire.parse(kind, payload, width)
                assert type(got) is type(want) and got == want, (kind, payload)


@pytest.mark.parametrize("fields", [(), (_SIG.signers,), (*_SIG, 5)],
                         ids=["no-field", "one-field", "three-fields"])
def test_a_multisig_of_another_length_is_refused(fields):
    # a MultiSig is a named tuple, which tuple.__new__ builds with any number
    # of fields; the gate refuses it before reading a field
    sig = tuple.__new__(MultiSig, fields)
    assert wire.parse("happy_cert", sig, None) is wire.REFUSED
    assert wire.parse("ds", ((1, b"v", sig), (1, b"v", _SIG)), 128) == ((1, b"v", _SIG),)


# --- error-free protocols: subclassed vectors, acknowledgements and symbols ----


class Hostile(int):
    """An int whose bit operators return a str."""

    def __and__(self, other):
        return "x"

    __rand__ = __or__ = __ror__ = __lshift__ = __rshift__ = __sub__ = __rsub__ = __and__


class HostileErrorFree(AdversaryScript):
    """The tail parties run the honest code but send every consistency
    vector, core set and acknowledgement as Hostile ints, and every symbol
    and symbol vote as an always-equal twin of zero bytes."""

    name = "hostile_error_free"
    placement = "tail"

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind in ("v_vec", "e_vec"):
                payload = Hostile(payload)
            elif kind == "ok":
                payload = tuple(Hostile(x) for x in payload)
            elif kind in ("sym_self", "sym_priv", "maj_val"):
                payload = AlwaysEqual(bytes(len(payload)))
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


@pytest.mark.parametrize("protocol", ["ef-sync-ba-third", "ef-async-rb-third"])
def test_error_free_protocols_take_no_subclassed_vectors_or_symbols(protocol):
    # both protocols raised TypeError in a party that did bit operations on
    # a Hostile vector or acknowledgement
    params = _params(protocol, 7)
    for seed in range(3):
        inputs = build_inputs(PROTOCOLS[protocol].kind, params, seed, "none")
        _, violations = judged_run(protocol, params, inputs, adversary=HostileErrorFree(),
                                   seed=seed)
        assert violations == [], seed


# --- binary agreement: always-equal ints as votes -------------------------------


class EqualsAnyInt(int):
    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = int.__hash__


class AbaTwins(AdversaryScript):
    """The tail parties run the concrete binary agreement but send every
    estimate, auxiliary, confirmation and ready value as an EqualsAnyInt,
    under random delivery."""

    name = "aba_twins"
    placement = "tail"

    def scheduler_policy(self, corrupt, seed):
        return RandomPolicy()

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind == "aba":
                tag, r, v = payload
                payload = (tag, r, EqualsAnyInt(v))
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


def test_always_equal_votes_keep_binary_agreement_live():
    # such a vote passed the value check into the tallies, and the run of
    # seed 27 hit the event limit
    spec = _oracle_harness_spec("async_ba_bit", "concrete")
    params = _oracle_params("async_ba_bit", 4)
    for seed in range(30):
        inputs = {p: _oracle_value(seed, p, 1, "none", True) for p in range(1, 5)}
        res, violations = judged_run(spec, params, inputs, adversary=AbaTwins(), seed=seed,
                                     oracle_impl={"async_ba_bit": "concrete"})
        assert violations == [], seed
        assert all(type(res.outputs[p]) is int for p in res.honest), seed


# --- signature chains: signer sets of another type -------------------------------


class LongSet(frozenset):
    """A signer set that reports 64 members whatever it holds."""

    def __len__(self):
        return 64


class LateTwin(int):
    """An int that hashes as the id it twins and compares as its own value
    until armed; armed, it equals the id."""

    def __new__(cls, value: int, twin: int):
        obj = super().__new__(cls, value)
        obj.twin, obj.armed = twin, False
        return obj

    def __eq__(self, other):
        return other == self.twin if self.armed else int.__eq__(self, other)

    def __hash__(self):
        return hash(self.twin)


def _twin_set(pid: int, t: int) -> frozenset:
    """An exact frozenset of pid and t armed twins of it."""
    twins = [LateTwin(1000 + j, pid) for j in range(t)]
    signers = frozenset([pid, *twins])
    for twin in twins:
        twin.armed = True
    return signers


class ChainForger(AdversaryScript):
    """The sender is corrupt and signs nothing in round 0. A late form
    sends party 2 alone, in round t, a chain for b"late" that carries only
    its own signature: under a LongSet, with its MAC padded to 64, or under
    a frozenset of its id and t twins of it, with its MAC repeated t+1
    times. The int-set form sends every party in round 0 a triple whose
    signer set is an int."""

    name = "chain_forger"

    def __init__(self, form: str):
        self.form = form

    def corrupt_set(self, n, t, sender):
        return frozenset({sender})

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            t = ctx.params.t
            if self.form == "int-set":
                sig, dsts = MultiSig(5, b""), range(2, ctx.params.n + 1)
            else:
                for _ in range(t):
                    yield NEXT_ROUND
                own = ctx.session.msig.sign(pid, _slot_tag("bb0", pid, b"late"))
                if self.form == "long-set":
                    sig = MultiSig(LongSet({pid}), own.aggregate * 64)
                else:
                    sig = MultiSig(_twin_set(pid, t), own.aggregate * (t + 1))
                dsts = [2]
            for dst in dsts:
                ctx.send(dst, "ds", ((pid, b"late", sig),), instance="bb0")
            yield NEXT_ROUND

        return party


@pytest.mark.parametrize("form", ["long-set", "int-set", "twin-set"],
                         ids=["late-long-set", "int-set", "late-twin-set"])
@pytest.mark.parametrize("n,t", [(4, 1), (7, 3), (7, 6)])
def test_a_signer_set_of_another_type_carries_no_chain(form, n, t):
    # the LongSet chain verified with its aggregate padded to 64 MACs, and
    # the twin set, of exact type, with its MAC repeated: each twin found the
    # sender's key, so party 2 alone accepted b"late" in the last round; the
    # int signer set raised TypeError at the membership check
    res = run(chain_bb_spec(), chain_params(n, t), {SENDER: b"m" * 16},
              adversary=ChainForger(form), seed=0, oracle_impl={"sync_bb": "concrete"})
    assert all(res.outputs[p] is BOT for p in res.honest)


# --- tags whose == raises ---------------------------------------------------------


class RaisingTag(str):
    def __eq__(self, other):
        raise RuntimeError("a corrupt tag was compared")

    __hash__ = str.__hash__


class RaisingTagSender(AdversaryScript):
    """The tail parties send each honest party, at the start, an echo/ready
    record under rb_commit (a k-bit value) and flag/1 (a bit), and a binary
    agreement estimate under ba_happy, each with a RaisingTag for its tag."""

    name = "raising_tag"
    placement = "tail"

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            for dst in sorted(set(range(1, ctx.params.n + 1)) - env.corrupt):
                for instance, value in (("rb_commit", bytes(ctx.params.k // 8)), ("flag/1", 1)):
                    ctx.send(dst, "rb", (RaisingTag("echo"), value), instance=instance)
                ctx.send(dst, "aba", (RaisingTag("est"), 1, 1), instance="ba_happy")
            return None
            yield  # pragma: no cover

        return party


@pytest.mark.parametrize("protocol", ["async-rb-third", "ef-async-rb-third", "async-ba-third"])
def test_a_tag_whose_equality_raises_is_refused(protocol):
    # the echo/ready machine and binary agreement compared the tag with
    # "send" and "est", and the raise stopped the run
    params = _params(protocol, 7)
    inputs = build_inputs(PROTOCOLS[protocol].kind, params, 0, "all")
    _, violations = judged_run(protocol, params, inputs, adversary=RaisingTagSender(), seed=0,
                               oracle_impl={"async_rb": "concrete", "async_ba_bit": "concrete"})
    assert violations == []
