"""The wire schema (``bbext.wire``): what a corrupt party's payload may be,
and a generic liar that replaces every leaf it sends or submits.

The liar depends on ``hash()``, so CI also runs this file under other
``PYTHONHASHSEED`` values.
"""

import copy
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bbext import wire
from bbext.accumulator import HASH_TREE, Witness, acc_gen
from bbext.adversary import PLACEMENTS, AdversaryScript, CorruptChoice, JunkInjector, hooked
from bbext.blocks import IndexedShare, SharePackage
from bbext.checks import battery_configs, build_inputs, judged_run
from bbext.multisig import MultiSig
from bbext.protocols import PROTOCOLS, SessionParams
from bbext.runner import run
from bbext.simnet import InvariantViolation, OracleInstance

_SHARE = IndexedShare(index=1, share=b"\x00\x01")
_WITNESS = Witness(data=bytes(8))
_SIG = MultiSig(frozenset({1, 2}), bytes(32))


def test_a_package_of_another_shape_is_refused():
    pkg = SharePackage(_SHARE, _WITNESS)
    assert wire.parse("share_pkg", pkg, None) is pkg
    for junk in ["junk", (_SHARE, _WITNESS), None,
                 SharePackage(_SHARE, Witness(bytearray(8)))]:
        for kind in ("share_pkg", "share_fwd"):
            assert wire.parse(kind, junk, None) is wire.REFUSED


def test_a_chain_record_keeps_its_well_formed_triples():
    good = (1, b"v", _SIG)
    record = (good, (2, b"w"), "junk", (3, 1, _SIG), good)
    assert wire.parse("ds", record, 128) == (good, good)
    assert wire.parse("ds", (good,), 128) == (good,)
    assert wire.parse("ds", (good,), None) is wire.REFUSED  # no declared instance
    assert wire.parse("ds", [good], 128) is wire.REFUSED
    assert wire.parse("ds", ((1, 1, _SIG),), 1) == ((1, 1, _SIG),)


def test_a_symbol_vote_of_another_shape_is_a_wrong_vote():
    assert wire.parse("maj_val", b"ab", None) == b"ab"
    for junk in ["ab", 7, None, (b"ab",)]:
        assert wire.parse("maj_val", junk, None) == b""


def test_kinds_outside_the_schema_are_refused():
    assert wire.parse("oracle_out", b"x", 128) is wire.REFUSED
    assert wire.parse("chatter", b"x", 128) is wire.REFUSED


def test_widths_cover_declared_instances_and_slot_prefixes():
    oracles = {"bb_commit": OracleInstance("sync_bb", 1, 128),
               **{f"flag/{j}": OracleInstance("sync_bb", j, 1) for j in (1, 2, 3)}}
    params = SessionParams(n=3, t=1, l=96, k=128)
    scale = wire.scale(params, acc_gen(HASH_TREE, 3, 128), wire.instances(oracles))
    assert scale.width == {"bb_commit": 128, "flag/1": 1, "flag/2": 1, "flag/3": 1, "flag": 1}
    # a relay: value, k+n-bit signature, and a 16-bit slot id under the
    # prefix, whose chain runs every slot
    sig = 128 + 3
    assert scale.relay == {"bb_commit": 128 + sig, "flag/1": 1 + sig, "flag/2": 1 + sig,
                           "flag/3": 1 + sig, "flag": 1 + sig + 16}


def test_a_refused_record_travels_and_counts_as_received(monkeypatch):
    # each corrupt send is parsed once and traced, and its bits count as
    # received; a refused one carries 0 bits
    refused = []
    orig_parse = wire.parse

    def parse(kind, payload, width):
        got = orig_parse(kind, payload, width)
        refused.append(got is wire.REFUSED)
        return got

    monkeypatch.setattr(wire, "parse", parse)
    params = battery_configs("async-rb-third")[0]
    inputs = build_inputs("rb", params, 0, "all")
    res = run("async-rb-third", params, inputs, adversary=JunkInjector(), seed=0, trace=True)
    assert any(refused) and not all(refused)
    junk = [rec for rec in res.trace if rec["from"] not in res.honest | {0}]
    assert len(junk) == len(refused)
    # delivery is FIFO, so the junk records are in parse order
    assert all(rec["bits"] == 0 for rec, was in zip(junk, refused) if was)
    assert res.metrics.extra["received_bits_total"] == sum(
        rec["bits"] for rec in res.trace if rec["to"] in res.honest)


class SwollenPackages(CorruptChoice):
    """The sender runs the honest code but withholds the payload from
    parties 2 and 3, and its happy vote carries, so they must reconstruct
    from forwarded packages; with swell=True it sends packages whose witness
    says it is 10^9 bits."""

    name = "swollen_packages"

    def __init__(self, swell: bool):
        self.swell = swell

    def corrupt_set(self, n, t, sender):
        return frozenset({sender})

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind == "payload" and dst in (2, 3):
                return None
            if kind == "share_pkg" and self.swell:
                witness = copy.copy(payload.witness)
                object.__setattr__(witness, "nominal_bits", 10**9)
                payload = SharePackage(payload.indexed_share, witness)
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


def test_honest_bits_ignore_what_a_package_says_it_costs():
    # each honest party forwards the package the sender gave it; a forward
    # costs its schema size, so the sender cannot set what honest parties
    # are charged
    params = SessionParams(n=7, t=3, l=96, k=128)
    inputs = build_inputs("bb", params, 0, "all")
    plain, swollen = (run("sync-bb-half", params, inputs, adversary=SwollenPackages(swell),
                          seed=0) for swell in (False, True))
    assert all(plain.outputs[p] == inputs[1] for p in plain.honest)
    assert swollen.outputs == plain.outputs
    assert swollen.metrics.honest_bits_total == plain.metrics.honest_bits_total
    assert swollen.metrics.bits_by_step == plain.metrics.bits_by_step
    assert plain.metrics.bits_by_step["share"] > 0


# --- the generic liar ------------------------------------------------------------


class Lie(Exception):
    """What a raising leaf raises; a test that sees it failed."""


def _raise(self, *args):
    raise Lie


def _bool_lie(self):
    base = type(self).__mro__[1]
    return not (int.__bool__(self) if base is int else base.__len__(self))


LIES = {
    "__eq__": lambda self, other: True,
    "__hash__": lambda self: 0,
    "__len__": lambda self: 64,
    "__bool__": _bool_lie,
    "__and__": lambda self, other: "x",
}
_BASES = (bytes, int, str, tuple, frozenset)


def _liar_types(dunder: str, raises: bool) -> dict[type, type]:
    """A subclass of each base whose dunder lies, or raises ``Lie``."""
    method = _raise if raises else LIES[dunder]
    out = {}
    for base in _BASES:
        body = {dunder: method}
        if dunder == "__eq__":
            body["__ne__"] = (lambda self, other: False) if not raises else _raise
        if dunder in ("__eq__", "__ne__"):
            body["__hash__"] = base.__hash__
        if dunder == "__and__":
            body["__rand__"] = method
        out[base] = type(f"Lying{base.__name__.title()}", (base,), body)
    return out


def _lie(value, liars: dict[type, type]):
    """value with every leaf, tuple and frozenset replaced by its liar, and
    every dataclass rebuilt around lying fields; BOT and None stay."""
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: _lie(getattr(value, f.name), liars)
                                             for f in dataclasses.fields(value)})
    if type(value) is tuple:
        return liars[tuple](_lie(x, liars) for x in value)
    if type(value) is frozenset:
        try:
            return liars[frozenset](_lie(x, liars) for x in value)
        except Lie:  # members whose hash or == raises cannot make a set
            return liars[frozenset](value)
    if type(value) in (bytes, int, str, bool):
        base = int if type(value) is bool else type(value)
        return liars[base](value)
    return value


class Liar(AdversaryScript):
    """The corrupt parties run the honest code, but every payload they send
    and every value they submit, at once or through a hook, has its leaves
    replaced by liars."""

    name = "liar"

    def __init__(self, liars: dict[type, type], placement: str):
        self.liars = liars
        self.placement = placement

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            return kind, _lie(payload, self.liars)

        def oracle_hook(ctx, instance, value):
            return _lie(value, self.liars)

        liar = hooked(honest_factory, send_hook=send_hook, oracle_hook=oracle_hook)

        def party(ctx):
            # the honest code's own checks may fail on a corrupt party, whose
            # submissions were dropped: it then stops, as a crash may
            try:
                return (yield from liar(ctx))
            except InvariantViolation:
                return None

        return party

    def oracle_submissions(self, inst, engine):
        value = 1 if inst.value_bits == 1 else bytes(inst.value_bits // 8)
        return {pid: _lie(value, self.liars) for pid in range(1, engine.params.n + 1)
                if pid not in engine.honest}


CONCRETE = {"sync_bb": "concrete", "sync_ba": "concrete",
            "async_rb": "concrete", "async_ba_bit": "concrete"}


@pytest.mark.parametrize("impl", ["ideal", "concrete"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dunder=st.sampled_from(sorted(LIES)), raises=st.booleans(),
       placement=st.sampled_from([p for p in PLACEMENTS if p != "none"]),
       config=st.integers(0, 5), seed=st.integers(0, 2))
def test_lying_leaves_break_no_guarantee(protocol, impl, dunder, raises, placement, config,
                                         seed):
    spec = PROTOCOLS[protocol]
    configs = battery_configs(protocol)  # n = 4, 7, 10
    params = configs[config % len(configs)]
    inputs = build_inputs(spec.kind, params, seed, "majority")
    adversary = Liar(_liar_types(dunder, raises), placement)
    _, violations = judged_run(protocol, params, inputs, adversary=adversary, seed=seed,
                               oracle_impl=CONCRETE if impl == "concrete" else {})
    assert violations == []
