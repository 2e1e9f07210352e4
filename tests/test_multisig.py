import pytest

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
    computed = []
    real = multisig.hmac.new
    monkeypatch.setattr(multisig.hmac, "new", lambda *a, **k: computed.append(a) or real(*a, **k))
    sig = _signed(auth, frozenset({1, 2, 3}), b"m")
    assert auth.verify(sig, b"m") and auth.verify(sig, b"m")
    assert len(computed) == 3
    monkeypatch.setattr(multisig, "MAC_ENTRIES", 4)
    for i in range(10):
        auth.sign(1 + i % 5, bytes([i]))
        assert len(auth._macs) <= 4
    # dropped and cached MACs alike still reject every malformed aggregate
    for tag in (b"m", bytes([9])):
        good = _signed(auth, frozenset({1, 2}), tag)
        assert auth.verify(good, tag)
        assert not auth.verify(MultiSig(good.signers, good.aggregate[:-1]), tag)
        assert not auth.verify(MultiSig(good.signers, bytes(len(good.aggregate))), tag)
        assert not auth.verify(MultiSig(frozenset({1, 3}), good.aggregate), tag)
