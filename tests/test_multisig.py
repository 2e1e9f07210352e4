import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbext import multisig
from bbext.multisig import MsigAuthority, MultiSig, msig_combine


@pytest.fixture
def auth():
    return MsigAuthority("session", n=5, k=128, seed=7)


def test_single_signer_roundtrip(auth):
    sig = auth.sign(1, b"tag")
    assert sig.signers == frozenset([1])
    assert auth.verify(sig, b"tag")
    assert not auth.verify(sig, b"other")


def test_combine_unions_signers(auth):
    s1 = auth.sign(1, b"m")
    s2 = auth.sign(2, b"m")
    both = msig_combine(s1, s2)
    assert both.signers == frozenset([1, 2])
    assert auth.verify(both, b"m")


def test_combine_overlapping_sets(auth):
    s12 = msig_combine(auth.sign(1, b"m"), auth.sign(2, b"m"))
    s23 = msig_combine(auth.sign(2, b"m"), auth.sign(3, b"m"))
    s123 = msig_combine(s12, s23)
    assert s123.signers == frozenset([1, 2, 3])
    assert auth.verify(s123, b"m")


def test_combine_conflicting_share_rejected(auth):
    s2a = auth.sign(2, b"m")
    forged = MultiSig(signers=frozenset([2]), aggregate=bytes(len(s2a.aggregate)))
    with pytest.raises(ValueError):
        msig_combine(s2a, forged)


def test_bitmap_forgery_rejected(auth):
    s1 = auth.sign(1, b"m")
    claimed = MultiSig(signers=frozenset([1, 3]), aggregate=s1.aggregate + s1.aggregate)
    assert not auth.verify(claimed, b"m")


def test_unknown_signer_rejected(auth):
    sig = auth.sign(1, b"m")
    bad = MultiSig(signers=frozenset([1, 9]), aggregate=sig.aggregate * 2)
    assert not auth.verify(bad, b"m")
    assert not auth.verify(MultiSig(frozenset(), b""), b"m")


def test_malformed_aggregate_rejected(auth):
    sig = msig_combine(auth.sign(1, b"m"), auth.sign(2, b"m"))
    assert not auth.verify(MultiSig(sig.signers, sig.aggregate[:-1]), b"m")


def test_growth_and_nominal_size(auth):
    sig = auth.sign(1, b"m")
    for i in range(2, 6):
        sig = msig_combine(sig, auth.sign(i, b"m"))
        assert len(sig.signers) == i
    assert sig.nominal_bits(n=5, k=128) == 128 + 5


def test_sign_outside_session_rejected(auth):
    with pytest.raises(ValueError):
        auth.sign(6, b"m")


def _subsets(n):
    return [frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
            for mask in range(1, 2**n)]


def _signed(auth, signers, tag):
    """The aggregate of ``signers`` as its definition spells it: their MACs
    concatenated in ascending signer order."""
    return MultiSig(signers, b"".join(auth.sign(i, tag).aggregate for i in sorted(signers)))


def test_combine_of_any_two_signer_sets_is_the_union_aggregate(auth):
    for a in _subsets(5):
        for b in _subsets(5):
            combined = msig_combine(_signed(auth, a, b"m"), _signed(auth, b, b"m"))
            assert combined == _signed(auth, a | b, b"m")
            assert auth.verify(combined, b"m")


def test_each_signer_slice_is_checked_in_place(auth):
    sig = _signed(auth, frozenset({1, 3, 4}), b"m")
    step = len(sig.aggregate) // 3
    for j in range(3):
        bad = bytearray(sig.aggregate)
        bad[j * step] ^= 1
        assert not auth.verify(MultiSig(sig.signers, bytes(bad)), b"m")
    swapped = sig.aggregate[step:2 * step] + sig.aggregate[:step] + sig.aggregate[2 * step:]
    assert not auth.verify(MultiSig(sig.signers, swapped), b"m")
    assert not auth.verify(MultiSig(sig.signers, sig.aggregate + b"\0"), b"m")


def test_each_mac_is_computed_once_in_a_bounded_table(auth, monkeypatch):
    sig = _signed(auth, frozenset({1, 2, 3}), b"m")
    checks, macs = [], []  # each verdict's key and each MAC's party, in order
    check, mac = MsigAuthority._check, MsigAuthority._mac
    monkeypatch.setattr(MsigAuthority, "_check", lambda self, *key: (
        checks.append(key) or check(self, *key)))
    monkeypatch.setattr(MsigAuthority, "_mac", lambda self, i, tag: (
        macs.append(i) or mac(self, i, tag)))
    # an equal aggregate built afresh shares the verdict of the first
    for copy in (sig, sig, MultiSig(frozenset({3, 2, 1}), bytes(sig.aggregate))):
        assert auth.verify(copy, b"m")
    assert len(checks) == 1 and macs == [1, 2, 3]
    # a malformed shape is refused before any MAC is computed
    assert not auth.verify(MultiSig(sig.signers, sig.aggregate[:-1]), b"m")
    assert not auth.verify(MultiSig(frozenset({1, 9}), sig.aggregate[:32]), b"m")
    assert len(checks) == 3 and macs == [1, 2, 3]

    monkeypatch.setattr(multisig, "VERDICT_ENTRIES", 4)
    for i in range(10):
        assert auth.verify(auth.sign(1 + i % 5, bytes([i])), bytes([i]))
        assert len(auth._verdicts) <= 4
    good = _signed(auth, frozenset({1, 2}), b"g")
    forged = (MultiSig(good.signers, good.aggregate[:-1]),
              MultiSig(good.signers, bytes(len(good.aggregate))),
              MultiSig(frozenset({1, 3}), good.aggregate))
    # cached and evicted verdicts alike refuse every forgery of an aggregate
    for evicted in (False, True):
        assert auth.verify(good, b"g")
        if evicted:
            for i in range(4):
                auth.verify(auth.sign(1, bytes([100 + i])), bytes([100 + i]))
        assert ((good.signers, good.aggregate, b"g") in auth._verdicts) is not evicted
        assert not any(auth.verify(bad, b"g") for bad in forged)
        assert len(auth._verdicts) <= 4


@given(k=st.sampled_from([64, 128, 256]), n=st.integers(1, 12),
       tag=st.binary(max_size=200), seed=st.integers(0, 2**32))
def test_each_mac_is_the_truncated_hmac_of_the_party_key(k, n, tag, seed):
    auth = MsigAuthority(f"session/{seed}", n=n, k=k, seed=seed)
    for party in range(1, n + 1):
        want = hmac.new(auth._keys[party], tag, hashlib.sha256).digest()[: k // 8]
        assert auth.sign(party, tag).aggregate == want
        # the first MAC hashes the pads, the second copies them
        assert auth.sign(party, tag).aggregate == want


@given(n=st.integers(1, 12), data=st.data(), tag=st.binary(max_size=64))
def test_cosign_is_the_combine_with_the_party_signature(n, data, tag):
    auth = MsigAuthority("session", n=n, k=128, seed=7)
    sig = _signed(auth, data.draw(st.frozensets(st.integers(1, n), min_size=1)), tag)
    for party in range(1, n + 1):
        if party in sig.signers:
            with pytest.raises(ValueError):
                auth.cosign(sig, party, tag)
        else:
            assert auth.cosign(sig, party, tag) == msig_combine(sig, auth.sign(party, tag))
    for party in (0, -1, n + 1, data.draw(st.integers(n + 1, 10**6))):
        with pytest.raises(ValueError):
            auth.cosign(sig, party, tag)
