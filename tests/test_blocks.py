import dataclasses
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbext import accumulator, blocks, rs, runner, wire
from bbext.accumulator import BILINEAR, HASH_TREE, AccValue, Witness, acc_gen
from bbext.adversary import AdversaryScript, hooked
from bbext.checks import evaluate_run
from bbext.protocols import SessionParams


@pytest.fixture
def ak():
    return acc_gen(HASH_TREE, 4, 128, rng_seed=0)


def test_encode_share_shape():
    shares = blocks.encode(b"\xde\xad\xbe\xef", b=2, n=4)
    assert [s.index for s in shares] == [1, 2, 3, 4]
    lengths = {len(s.share) for s in shares}
    assert lengths == {6}  # ceil((32+64)/2) bits = 48 = 6 bytes
    again = blocks.encode(b"\xde\xad\xbe\xef", b=2, n=4)
    assert shares == again


def test_empty_message_roundtrip(ak):
    shares = blocks.encode(b"", b=2, n=4)
    z = blocks.eval_shares(ak, shares)
    packages = blocks.make_packages(shares, ak, z)
    got = blocks.reconstruct(packages, ak, z, d0=1, b=2)
    assert got == (b"", 0)


def test_canonical_encoding_layout():
    share = blocks.IndexedShare(index=0x0102, share=b"\xaa\xbb")
    assert share.canonical() == b"\x01\x02\xaa\xbb"


def test_distinct_messages_differ_widely():
    # shares of distinct messages differ in at least n-b+1 positions
    n, b = 4, 2
    for m1, m2 in itertools.combinations(range(256), 2):
        s1 = blocks.encode(bytes([m1]), b, n)
        s2 = blocks.encode(bytes([m2]), b, n)
        same = sum(1 for a, c in zip(s1, s2) if a.share == c.share)
        assert same <= b - 1, (m1, m2)


def test_reconstruct_roundtrip_and_binding(ak):
    m = b"0123456789ab"
    shares = blocks.encode(m, b=3, n=4)
    z = blocks.eval_shares(ak, shares)
    packages = blocks.make_packages(shares, ak, z)
    assert blocks.reconstruct(packages, ak, z, d0=1, b=3) == (m, 96)
    # one forged package is erased by verification, not mistaken
    bad = dict(packages)
    share = bad[2].indexed_share
    bad[2] = blocks.SharePackage(
        indexed_share=blocks.IndexedShare(share.index, bytes(len(share.share))),
        witness=bad[2].witness,
    )
    assert blocks.reconstruct(bad, ak, z, d0=1, b=3) == (m, 96)
    # an absent party is an erasure
    del bad[2]
    assert blocks.reconstruct(bad, ak, z, d0=1, b=3) == (m, 96)
    # beyond the erasure budget the result is failure, never a wrong message
    del bad[1]
    assert blocks.reconstruct(bad, ak, z, d0=1, b=3) is None


def test_reconstruct_rejects_misplaced_package(ak):
    m = b"0123456789ab"
    shares = blocks.encode(m, b=3, n=4)
    z = blocks.eval_shares(ak, shares)
    packages = blocks.make_packages(shares, ak, z)
    shuffled = dict(packages)
    shuffled[1], shuffled[2] = packages[2], packages[1]
    shuffled[3] = packages[3]
    # slots 1 and 2 now hold the wrong indices and are erased; d0=1 is exceeded
    assert blocks.reconstruct(shuffled, ak, z, d0=1, b=3) is None


def test_odd_length_shares_decode_to_failure(ak):
    # a committed set of 1-byte shares is no symbol-block table: failure, not an exception
    shares = [blocks.IndexedShare(j, bytes([j])) for j in range(1, 5)]
    z = blocks.eval_shares(ak, shares)
    packages = blocks.make_packages(shares, ak, z)
    assert blocks.reconstruct(packages, ak, z, d0=1, b=2) is None
    assert blocks.CodecMemo(ak).reconstruct(packages, z, 1, 2) is None
    assert blocks.decode_symbols(tuple(s.share for s in shares), 2, 1) is None


def test_verify_package(ak):
    m = b"xyzw"
    shares = blocks.encode(m, b=2, n=4)
    z = blocks.eval_shares(ak, shares)
    packages = blocks.make_packages(shares, ak, z)
    assert blocks.verify_package(ak, z, packages[1], expect_index=1)
    assert not blocks.verify_package(ak, z, packages[1], expect_index=2)


def test_nominal_bits_accounting(ak):
    shares = blocks.encode(b"\x01\x02\x03\x04", b=2, n=4)
    z = blocks.eval_shares(ak, shares)
    pkg = blocks.make_packages(shares, ak, z)[1]
    scale = wire.scale(SessionParams(n=4, t=1, l=32, k=128), ak, {})
    # index (16) + share bits + hash-path witness bits, however a package is sent
    for kind in ("share_pkg", "share_fwd"):
        assert wire.SCHEMA[kind].size(pkg, None, scale) == 16 + 48 + 128 * 2


def test_make_packages_requires_matching_commitment(ak):
    shares = blocks.encode(b"aaaa", b=2, n=4)
    other = blocks.encode(b"bbbb", b=2, n=4)
    z = blocks.eval_shares(ak, shares)
    with pytest.raises(ValueError):
        blocks.make_packages(other, ak, z)


def test_two_distributors_produce_byte_identical_packages(ak):
    # any two honest parties holding the same message derive identical
    # witnessed packages, so duplicate receipts are interchangeable
    m = b"same message"
    first = blocks.make_packages(blocks.encode(m, 3, 4), ak,
                                 blocks.eval_shares(ak, blocks.encode(m, 3, 4)))
    second = blocks.make_packages(blocks.encode(m, 3, 4), ak,
                                  blocks.eval_shares(ak, blocks.encode(m, 3, 4)))
    for j in range(1, 5):
        assert first[j].indexed_share == second[j].indexed_share
        assert first[j].witness.data == second[j].witness.data


# --- the per-session codec memo ------------------------------------------------


def _tamper(packages: dict, actions: dict[int, str]) -> dict:
    """Packages with each slot kept, erased, given a zeroed witness, or
    filled with the next slot's package (a wrong index)."""
    n = len(packages)
    out = {}
    for j, pkg in packages.items():
        action = actions.get(j, "keep")
        if action == "keep":
            out[j] = pkg
        elif action == "bad_witness":
            w = pkg.witness
            out[j] = dataclasses.replace(pkg, witness=Witness(bytes(len(w.data))))
        elif action == "wrong_index":
            out[j] = packages[j % n + 1]
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_codec_memo_equals_the_fresh_codec(data):
    n = data.draw(st.integers(1, 12), label="n")
    b = data.draw(st.integers(1, n), label="b")
    ak = acc_gen(data.draw(st.sampled_from([HASH_TREE, BILINEAR])), n, 128, rng_seed=3)
    m = data.draw(st.binary(max_size=40), label="m")
    bit_len = data.draw(st.integers(0, 8 * len(m)), label="bit_len")
    memo = blocks.CodecMemo(ak)
    shares, z = memo.commit(m, b, bit_len)
    fresh = blocks.encode(m, b, n, bit_len=bit_len)
    fresh_z = blocks.eval_shares(ak, fresh)
    assert shares == tuple(fresh)
    assert (z, z.source_values) == (fresh_z, fresh_z.source_values)
    assert memo.commit(m, b, bit_len) == (shares, z)

    d0 = data.draw(st.integers(0, n - b), label="d0")
    actions = data.draw(st.dictionaries(
        st.integers(1, n), st.sampled_from(["erase", "bad_witness", "wrong_index"]),
        max_size=min(n, d0 + 1)), label="actions")
    genuine = blocks.make_packages(list(shares), ak, z)
    packages = _tamper(genuine, actions)
    for j, pkg in sorted(packages.items()):  # tampered packages before and after the genuine ones
        for index in {j, j % n + 1}:
            assert memo.verify(z, pkg, index) == blocks.verify_package(ak, z, pkg, index)
    want = blocks.reconstruct(packages, ak, z, d0, b)
    assert memo.reconstruct(packages, z, d0, b) == want
    # a second call, with a lengthened share in an erased slot, decodes the same verified set
    if len(packages) < n:
        j = next(j for j in range(1, n + 1) if j not in packages)
        share, wit = genuine[j].indexed_share, genuine[j].witness
        packages = {**packages, j: blocks.SharePackage(
            blocks.IndexedShare(j, share.share + b"\x00"), wit)}
    assert memo.reconstruct(packages, z, d0, b) == want
    assert len(memo.decoded) == 1
    if len(actions) <= d0:  # within the erasure budget the message comes back
        payload, got_len = want
        assert got_len == bit_len and payload[:bit_len // 8] == m[:bit_len // 8]


def test_commit_returns_one_shared_tuple(ak):
    memo = blocks.CodecMemo(ak)
    shares, z = memo.commit(b"abcd", 2, 32)
    assert isinstance(shares, tuple)
    with pytest.raises(TypeError):
        shares[0] = shares[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        shares[0].share = b""
    again, z_again = memo.commit(b"abcd", 2, 32)
    assert again is shares and z_again is z


def test_a_call_that_raises_stores_nothing(ak):
    memo = blocks.CodecMemo(ak)
    with pytest.raises(ValueError):
        memo.commit(b"ab", 2, 17)  # longer than the message
    assert not memo.commits
    memo.commit(b"ab", 2, 16)
    assert len(memo.commits) == 1


def test_decode_memo_is_bounded():
    n, b = 8, 2
    ak = acc_gen(HASH_TREE, n, 128, rng_seed=0)
    memo = blocks.CodecMemo(ak)
    shares, z = memo.commit(b"bounded", b, 56)
    packages = blocks.make_packages(list(shares), ak, z)
    patterns = list(itertools.combinations(range(1, n + 1), 3))
    assert len(patterns) > blocks.MEMO_ENTRIES
    for erased in patterns:
        kept = {j: pkg for j, pkg in packages.items() if j not in erased}
        assert memo.reconstruct(kept, z, n - b, b) == (b"bounded", 56)
        assert len(memo.decoded) <= blocks.MEMO_ENTRIES
    assert len(memo.decoded) == blocks.MEMO_ENTRIES


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_held_codeword_answers_decode_symbols_as_the_decoder_does(data):
    n = data.draw(st.integers(1, 12), label="n")
    b = data.draw(st.integers(1, n), label="b")
    m = data.draw(st.binary(max_size=40), label="m")
    bit_len = data.draw(st.integers(0, 8 * len(m)), label="bit_len")
    memo = blocks.CodecMemo(acc_gen(HASH_TREE, n, 128, rng_seed=0))
    held = memo.encode(m, b, bit_len)
    case = data.draw(st.sampled_from(["agree", "one_symbol", "other_length", "other_b"]),
                     label="case")
    entries = [s.share for s in held]
    decode_b = b
    if case == "one_symbol":
        j = data.draw(st.integers(0, n - 1), label="position")
        i = data.draw(st.integers(0, len(entries[j]) - 1), label="byte")
        entry = bytearray(entries[j])
        entry[i] ^= data.draw(st.integers(1, 255), label="flip")
        entries[j] = bytes(entry)
    elif case == "other_length":
        m2 = data.draw(st.binary(min_size=len(m) + 2 * b + 9, max_size=80), label="m2")
        entries = [s.share for s in blocks.encode(m2, b, n)]
        assert len(entries[0]) != len(held[0].share)
    elif case == "other_b":
        decode_b = data.draw(st.integers(1, n + 1).filter(lambda x: x != b), label="decode_b")
    erased = data.draw(st.sets(st.integers(0, n - 1)), label="erased")
    table = tuple(None if j in erased else e for j, e in enumerate(entries))
    # error budgets past the radius too: 2 * max_errors + erasures > n - b
    max_errors = data.draw(st.integers(0, n), label="max_errors")
    want = blocks.decode_symbols(table, decode_b, max_errors)
    share_len = len(entries[0])
    assert memo.decode_symbols(table, decode_b, share_len, max_errors) == want
    assert memo.decode_symbols(table, decode_b, share_len, max_errors) == want


def test_a_held_codeword_skips_the_decoder_only_on_exact_agreement(monkeypatch):
    n, b = 7, 3
    memo = blocks.CodecMemo(acc_gen(HASH_TREE, n, 128, rng_seed=0))
    shares = memo.encode(b"held message", b, 96)
    decodes = _count(monkeypatch, rs, "rs_decode")
    table = tuple(s.share for s in shares)
    erased = (None,) + table[1:]
    assert memo.decode_symbols(table, b, len(table[0]), 2) == b"held message"
    assert memo.decode_symbols(erased, b, len(table[0]), 1) == b"held message"
    assert decodes[0] == 0
    # one wrong symbol is within the error budget, so the decoder runs
    wrong = (bytes(len(table[0])),) + table[1:]
    assert memo.decode_symbols(wrong, b, len(table[0]), 2) == b"held message"
    assert decodes[0] == 1
    # past the radius the held codeword is not used: the decoder is asked,
    # and its None stands
    assert memo.decode_symbols(erased, b, len(table[0]), 2) is None
    assert decodes[0] == 2


def _genuine(n=4, b=2, m=b"genuine"):
    ak = acc_gen(HASH_TREE, n, 128, rng_seed=0)
    memo = blocks.CodecMemo(ak)
    shares, z = memo.commit(m, b, 8 * len(m))
    return ak, memo, z, memo.packages(shares, z)


def test_a_cached_acceptance_cannot_be_poisoned():
    ak, memo, z, packages = _genuine()
    genuine = packages[2]
    assert memo.verify(z, genuine, 2)
    share, wit = genuine.indexed_share, genuine.witness
    flipped = bytes([share.share[0] ^ 1]) + share.share[1:]
    forgeries = [
        dataclasses.replace(genuine, indexed_share=blocks.IndexedShare(2, flipped)),
        dataclasses.replace(genuine, witness=Witness(bytes(len(wit.data)))),
        packages[3],
    ]
    for forged in forgeries:
        assert not blocks.verify_package(ak, z, forged, 2)
        assert not memo.verify(z, forged, 2)
    assert memo.accepted == {z.data: {2: (2, share.share, wit.data)}}
    # an equal package built anew is accepted from the table, without hashing
    copy = blocks.SharePackage(blocks.IndexedShare(2, bytes(share.share)),
                               Witness(bytes(wit.data)))
    assert copy is not genuine and memo.verify(z, copy, 2)


def test_a_rejected_package_never_enters_the_table():
    ak, memo, z, packages = _genuine()
    other_z = blocks.CodecMemo(ak).commit(b"another", 2, 56)[1]
    wit = packages[1].witness
    zeroed = dataclasses.replace(packages[1], witness=Witness(bytes(len(wit.data))))
    for commitment, pkg, index in [(z, zeroed, 1), (z, packages[1], 2), (other_z, packages[1], 1)]:
        assert not memo.verify(commitment, pkg, index)
    assert memo.accepted == {}
    assert memo.verify(AccValue(z.data), packages[1], 1)
    assert list(memo.accepted) == [z.data] and list(memo.accepted[z.data]) == [1]


def test_verification_table_is_bounded():
    n = 4
    ak, memo, _, _ = _genuine(n)
    for i in range(2 * blocks.MEMO_ENTRIES + 1):
        shares, z = memo.commit(bytes([i]) * 4, 2, 32)
        assert all(memo.verify(z, pkg, j) for j, pkg in memo.packages(shares, z).items())
        assert len(memo.accepted) <= blocks.MEMO_ENTRIES
        assert all(len(table) <= n for table in memo.accepted.values())
    assert len(memo.accepted) == blocks.MEMO_ENTRIES


def test_packages_are_built_once_per_commitment():
    ak, memo, z, packages = _genuine()
    shares = memo.commits[(b"genuine", 2, 56)].shares
    assert memo.packages(shares, z) is packages
    assert packages == blocks.make_packages(list(shares), ak, z)
    assert memo.encode(b"genuine", 2, 56) is shares


class _RecordingMemo(blocks.CodecMemo):
    """A session's memo that keeps the largest size each table reached."""

    made: list = []

    def __init__(self, ak):
        super().__init__(ak)
        self.made.append(self)
        self.messages: set[bytes] = set()
        self.peak = self.peak_accepted = 0

    def commit(self, m, b, bit_len):
        self.messages.add(m)
        try:
            return super().commit(m, b, bit_len)
        finally:
            self.peak = max(self.peak, len(self.commits), len(self.decoded))

    def reconstruct(self, packages, z, d0, b):
        try:
            return super().reconstruct(packages, z, d0, b)
        finally:
            self.peak = max(self.peak, len(self.commits), len(self.decoded))

    def verify(self, z, pkg, index):
        try:
            return super().verify(z, pkg, index)
        finally:
            self.peak_accepted = max(self.peak_accepted, sum(map(len, self.accepted.values())))


@pytest.fixture
def recording(monkeypatch):
    monkeypatch.setattr(_RecordingMemo, "made", [])
    monkeypatch.setattr(runner, "CodecMemo", _RecordingMemo)
    return _RecordingMemo.made


class _PayloadPerParty(AdversaryScript):
    """A corrupt sender whose payload differs for every recipient."""

    name = "payload_per_party"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender})

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind == "payload":
                payload = bytes([dst]) + payload[1:]
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


def test_memo_keyed_by_attacker_payloads_is_bounded(recording):
    n = 2 * blocks.MEMO_ENTRIES + 1
    params = SessionParams(n=n, t=(n - 1) // 2, l=64, k=128, threshold_regime="half")
    inputs = {1: bytes(range(8))}
    res = runner.run("sync-bb-half", params, inputs, adversary=_PayloadPerParty(), seed=0)
    assert not evaluate_run("bb", inputs, 1, res)
    (memo,) = recording
    assert len(memo.messages) == n
    assert memo.peak == blocks.MEMO_ENTRIES
    assert memo.peak_accepted <= blocks.MEMO_ENTRIES * n
    assert len(memo.accepted) <= blocks.MEMO_ENTRIES


def test_sessions_share_no_memo_entries(recording):
    params = SessionParams(n=4, t=1, l=64, k=128, threshold_regime="half")
    inputs = {p: b"8 bytes!" for p in range(1, 5)}
    first = runner.run("sync-ba-half", params, inputs, seed=0)
    second = runner.run("sync-ba-half", params, inputs, seed=0)
    assert first.metrics.outputs_digest == second.metrics.outputs_digest
    a, b = recording
    assert a is not b and a.commits.keys() == b.commits.keys()
    for key, entry in a.commits.items():
        other = b.commits[key]
        assert entry.shares == other.shares and entry.shares is not other.shares
        assert entry.z is not other.z and entry.packages is not other.packages
    assert a.accepted == b.accepted and a.accepted is not b.accepted


# --- duplicate codec work, counted ------------------------------------------------


def _count(monkeypatch, owner, name: str) -> list[int]:
    """Count calls to owner.name through every binding of it in bbext."""
    original = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "bbext" or mod_name.startswith("bbext."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_unanimous_session_encodes_and_commits_once(monkeypatch):
    encodes = _count(monkeypatch, rs, "rs_encode")
    evals = _count(monkeypatch, accumulator, "acc_eval")
    params = SessionParams(n=10, t=4, l=2**14, threshold_regime="half")
    message = bytes(range(256)) * 8
    inputs = {p: message for p in range(1, 11)}
    res = runner.run("sync-ba-half", params, inputs, seed=0)
    assert not evaluate_run("ba", inputs, None, res)
    assert (encodes[0], evals[0]) == (1, 1)


def test_unanimous_session_witnesses_each_share_once(monkeypatch):
    witnesses = _count(monkeypatch, accumulator, "acc_create_wit")
    verifies = _count(monkeypatch, accumulator, "acc_verify")
    params = SessionParams(n=10, t=4, l=2**14, threshold_regime="half")
    message = bytes(range(256)) * 8
    inputs = {p: message for p in range(1, 11)}
    res = runner.run("sync-ba-half", params, inputs, seed=0)
    assert not evaluate_run("ba", inputs, None, res)
    # one commitment: n witnesses, and each party hashes only its own share
    assert witnesses[0] <= params.n
    assert verifies[0] == params.n


def test_high_threshold_decodes_once_per_verified_share_set(monkeypatch):
    decodes = _count(monkeypatch, rs, "rs_decode")
    share_sets, asked = set(), [0]
    pure_reconstruct, memo_reconstruct = blocks.reconstruct, blocks.CodecMemo.reconstruct

    def recording_reconstruct(packages, ak, z, d0, b):
        share_sets.add(tuple((j, pkg.indexed_share.share) for j, pkg in packages.items()))
        return pure_reconstruct(packages, ak, z, d0, b)

    def counting_reconstruct(self, *args, **kwargs):
        asked[0] += 1
        return memo_reconstruct(self, *args, **kwargs)

    monkeypatch.setattr(blocks, "reconstruct", recording_reconstruct)
    monkeypatch.setattr(blocks.CodecMemo, "reconstruct", counting_reconstruct)
    params = SessionParams(n=7, t=5, l=2**12, threshold_regime="one_minus_eps", epsilon=0.25)
    inputs = {1: bytes(range(256)) * 2}
    res = runner.run("sync-bb-highthresh", params, inputs, seed=0)
    assert not evaluate_run("bb", inputs, 1, res)
    assert asked[0] == params.n - 1  # every party but the sender reconstructs
    assert decodes[0] == len(share_sets) == 1
